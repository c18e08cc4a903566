//! Syntactic loop transformations (Sec. IV-B/C).
//!
//! Everything here is a pure tree rewrite: legality is the caller's
//! responsibility (the optimizer checks dependence vectors *before*
//! transforming, per the paper's staging), and the interpreter-based
//! equivalence tests verify the composition end-to-end.

use crate::tree::{Bound, BoundExpr, LinExpr, Loop, Node, Par, Program};

/// Length of the perfect loop band starting at `node`: the number of
/// directly nested loops (each body exactly one loop) before hitting a
/// `Seq`, `Guard` or statement.
pub fn band_depth(node: &Node) -> usize {
    match node {
        Node::Loop(l) => 1 + band_depth(&l.body),
        _ => 0,
    }
}

/// Skews the loop `inner` (found by variable id) by `factor ×` the value
/// of the enclosing loop variable `outer_var`: the new inner variable is
/// `w = v + factor·outer`, so all loop-carried distances on `inner`
/// become `δ_w = δ_v + factor·δ_outer`. Returns `true` if the loop was
/// found and rewritten.
pub fn skew(node: &mut Node, inner_var: usize, outer_var: usize, factor: i64) -> bool {
    match node {
        Node::Seq(xs) => xs
            .iter_mut()
            .any(|x| skew(x, inner_var, outer_var, factor)),
        Node::Guard(_, b) => skew(b, inner_var, outer_var, factor),
        Node::Loop(l) => {
            if l.var != inner_var {
                return skew(&mut l.body, inner_var, outer_var, factor);
            }
            let shift = LinExpr::var(outer_var).scale(factor);
            // Bounds of w = v + factor·outer are old bounds + shift.
            l.lo = l.lo.map(&|e| e.add(&shift));
            l.hi = l.hi.map(&|e| e.add(&shift));
            // Inside, v = w - factor·outer.
            let replacement = LinExpr::var(inner_var).add_scaled(&LinExpr::var(outer_var), -factor);
            l.body.subst_var(inner_var, &replacement);
            true
        }
        Node::Stmt(_) => false,
    }
}

/// A point loop that a tile loop is hoisted above, as the tile loop's
/// bounds see it: its variable, and the range to assume for it there.
#[derive(Clone, Debug)]
pub struct Crossed {
    var: usize,
    lo: Bound,
    hi: Bound,
}

impl Crossed {
    /// The point loop of `tile_var`, somewhere in `[tile_var, tile_var +
    /// size - 1]`: all that is known of a loop being strip-mined along
    /// with the one that crosses it.
    pub fn tile_box(var: usize, tile_var: usize, size: i64) -> Crossed {
        Crossed {
            var,
            lo: Bound::of(LinExpr::var(tile_var)),
            hi: Bound::of(LinExpr::var(tile_var).plus(size - 1)),
        }
    }

    /// An existing point loop with its own (clamped) bounds, which say
    /// more than the box when the loop covers only part of its tile — a
    /// skewed space loop under a time tile. Falls back to the box when a
    /// bound is a quotient.
    pub fn point_loop(l: &Loop, tile_var: usize, size: i64) -> Crossed {
        let whole = |b: &Bound| b.exprs.iter().all(|be| be.denom == 1);
        if whole(&l.lo) && whole(&l.hi) {
            Crossed {
                var: l.var,
                lo: l.lo.clone(),
                hi: l.hi.clone(),
            }
        } else {
            Crossed::tile_box(l.var, tile_var, size)
        }
    }
}

/// Relaxes a bound for use in a *tile* loop: every reference to the
/// variable of a crossed point loop (outermost first in `crossed`) is
/// replaced by that loop's extreme values, so the bound covers all point
/// iterations — a `max` of lower ends or a `min` of upper ends, which is
/// what a [`Bound`] is.
fn relax_bound(b: &Bound, crossed: &[Crossed], lower: bool) -> Bound {
    let mut exprs = b.exprs.clone();
    // Innermost first: an inner loop's range may mention an outer one.
    for c in crossed.iter().rev() {
        exprs = exprs
            .into_iter()
            .flat_map(|be| {
                let k = be.expr.coeff_of(c.var);
                // Lower bounds must be minimized (cover from below);
                // upper bounds maximized.
                let ends = match (k, (k > 0) == lower) {
                    (0, _) => return vec![be],
                    (_, true) => &c.lo,
                    (_, false) => &c.hi,
                };
                ends.exprs
                    .iter()
                    .map(|end| BoundExpr {
                        expr: be.expr.subst(c.var, &end.expr),
                        denom: be.denom,
                    })
                    .collect()
            })
            .collect();
    }
    Bound { exprs }
}

/// Strip-mines one loop header (its `body` is ignored): returns the tile
/// loop, which steps by `size` iterations, takes the loop's annotation
/// and has its bounds relaxed through `crossed`, and the point loop,
/// clamped to `[tile, tile + size - 1]` and sequential. Both come back
/// with an empty body for [`nest_under`].
///
/// `crossed` lists, outermost first, every point loop the caller will
/// place *between* the two — the loops the tile loop is hoisted above,
/// whose variables its bounds may no longer mention.
pub fn strip_mine(prog: &mut Program, l: &Loop, size: i64, crossed: &[Crossed]) -> (Loop, Loop) {
    let tv = prog.fresh_var();
    let tile = Loop {
        var: tv,
        name: format!("{}t", l.name),
        lo: relax_bound(&l.lo, crossed, true),
        hi: relax_bound(&l.hi, crossed, false),
        step: size * l.step,
        par: l.par.clone(),
        jam: 1,
        body: Node::Seq(vec![]),
    };
    let mut lo = l.lo.clone();
    lo.exprs.push(BoundExpr {
        expr: LinExpr::var(tv),
        denom: 1,
    });
    let mut hi = l.hi.clone();
    hi.exprs.push(BoundExpr {
        expr: LinExpr::var(tv).plus(size - 1),
        denom: 1,
    });
    let point = Loop {
        var: l.var,
        name: l.name.clone(),
        lo,
        hi,
        step: l.step,
        par: Par::Seq,
        jam: 1,
        body: Node::Seq(vec![]),
    };
    (tile, point)
}

/// Nests `body` under `headers`, outermost first (each header's own
/// `body` is replaced).
pub fn nest_under(headers: impl IntoIterator<Item = Loop, IntoIter: DoubleEndedIterator>, body: Node) -> Node {
    headers.into_iter().rev().fold(body, |body, l| Node::loop_(Loop { body, ..l }))
}

/// Interchanges `outer` with the loop that is its whole body: the inner
/// header moves out, the outer one in, and the body below both is kept.
/// Their bounds are re-derived by Fourier–Motzkin on the pair:
///
/// * the new outer loop keeps the inner bounds that do not mention the
///   outer variable, and takes each one that does with every matching
///   outer bound substituted for it — bounds the pair's projection
///   implies, so the loop may visit values with no inner iteration but
///   never misses one;
/// * the new inner loop keeps the outer bounds and takes each inner bound
///   that mentioned it, solved for its variable — the exact range, so
///   the pair visits the same iterations, in the other order.
///
/// Returns `None` when a guard or a sequence stands between the two
/// loops, when a step is not 1 or a bound expression has a denominator,
/// when an inner bound mentions the outer variable with a coefficient
/// other than -1, 0 or 1, or when an outer bound mentions the inner
/// variable. Legality is the caller's (see the module doc).
pub fn interchange(outer: &Loop) -> Option<Node> {
    let Node::Loop(inner) = &outer.body else {
        return None;
    };
    let (o, i) = (outer.var, inner.var);
    let unit = |b: &Bound| b.exprs.iter().all(|be| be.denom == 1);
    let mentions = |b: &Bound, v: usize| b.exprs.iter().any(|be| be.expr.coeff_of(v) != 0);
    if outer.step != 1
        || inner.step != 1
        || ![&outer.lo, &outer.hi, &inner.lo, &inner.hi].into_iter().all(unit)
        || mentions(&outer.lo, i)
        || mentions(&outer.hi, i)
        || [&inner.lo, &inner.hi]
            .into_iter()
            .any(|b| b.exprs.iter().any(|be| be.expr.coeff_of(o).abs() > 1))
    {
        return None;
    }
    // A bound of the distinct expressions, first occurrence first.
    let of = |exprs: Vec<LinExpr>| {
        let mut out: Vec<BoundExpr> = Vec::with_capacity(exprs.len());
        for expr in exprs {
            if !out.iter().any(|be| be.expr == expr) {
                out.push(BoundExpr { expr, denom: 1 });
            }
        }
        Bound { exprs: out }
    };
    let (mut new_outer_lo, mut new_outer_hi) = (Vec::new(), Vec::new());
    let (mut new_inner_lo, mut new_inner_hi): (Vec<LinExpr>, Vec<LinExpr>) = (
        outer.lo.exprs.iter().map(|be| be.expr.clone()).collect(),
        outer.hi.exprs.iter().map(|be| be.expr.clone()).collect(),
    );
    for (bound, lower) in [(&inner.lo, true), (&inner.hi, false)] {
        let projected = if lower { &mut new_outer_lo } else { &mut new_outer_hi };
        for be in &bound.exprs {
            let r = &be.expr;
            let a = r.coeff_of(o);
            if a == 0 {
                projected.push(r.clone());
                continue;
            }
            // `i >= r` (lower) or `i <= r` (upper) with `r = e + a·o`: the
            // extreme `o` on the side that keeps the bound valid.
            let ends = if (a > 0) == lower { &outer.lo } else { &outer.hi };
            projected.extend(ends.exprs.iter().map(|end| r.subst(o, &end.expr)));
            // Solved for `o`: `i - e` when `r = e + o`, `e - i` when
            // `r = e - o`; a lower end of `o` exactly when an upper bound
            // grows with `o` or a lower one shrinks with it.
            let solved = if a > 0 {
                LinExpr::var(i).add_scaled(r, -1).add(&LinExpr::var(o))
            } else {
                r.add(&LinExpr::var(o)).add_scaled(&LinExpr::var(i), -1)
            };
            if lower == (a < 0) {
                new_inner_lo.push(solved);
            } else {
                new_inner_hi.push(solved);
            }
        }
    }
    Some(Node::loop_(Loop {
        var: i,
        name: inner.name.clone(),
        lo: of(new_outer_lo),
        hi: of(new_outer_hi),
        step: 1,
        par: inner.par.clone(),
        jam: 1,
        body: Node::loop_(Loop {
            var: o,
            name: outer.name.clone(),
            lo: of(new_inner_lo),
            hi: of(new_inner_hi),
            step: 1,
            par: outer.par.clone(),
            jam: 1,
            body: inner.body.clone(),
        }),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{alloc_arrays, execute};
    use crate::tree::{Program, StmtNode};
    use polymix_ir::builder::{con, ix, par, ScopBuilder};
    use polymix_ir::Expr;

    /// `for i in 0..N: for j in 0..N: A[i][j] = A[i][j] + 1` with AST.
    fn grid_program(n: i64) -> Program {
        let mut b = ScopBuilder::new("grid", &["N"], &[n]);
        let a = b.array("A", &["N", "N"]);
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        let body = Expr::add(b.rd(a, &[ix("i"), ix("j")]), Expr::Const(1.0));
        b.stmt("S", a, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let body = Node::loop_(Loop {
            var: 0,
            name: "i".into(),
            lo: Bound::con(0),
            hi: Bound::of(LinExpr::param(0).plus(-1)),
            step: 1,
            par: Par::Seq,
            jam: 1,
            body: Node::loop_(Loop {
                var: 1,
                name: "j".into(),
                lo: Bound::con(0),
                hi: Bound::of(LinExpr::param(0).plus(-1)),
                step: 1,
                par: Par::Seq,
                jam: 1,
                body: Node::Stmt(StmtNode {
                    stmt_idx: 0,
                    iter_exprs: vec![LinExpr::var(0), LinExpr::var(1)],
                }),
            }),
        });
        Program {
            scop,
            body,
            n_vars: 2,
            tiling: Vec::new(),
            demoted: 0,
        }
    }

    /// Tiles the perfect band of `sizes.len()` loops at the root of
    /// `p.body`: strip-mines them outermost first, tile loop `j` hoisted
    /// above the point loops of `0..j`.
    fn tile(p: &mut Program, sizes: &[i64]) {
        let mut cur = std::mem::replace(&mut p.body, Node::Seq(vec![]));
        let (mut crossed, mut tiles, mut points) = (Vec::new(), Vec::new(), Vec::new());
        for &ts in sizes {
            let Node::Loop(mut l) = cur else {
                panic!("band shallower than {sizes:?}")
            };
            cur = std::mem::replace(&mut l.body, Node::Seq(vec![]));
            let (tile, point) = strip_mine(p, &l, ts, &crossed);
            crossed.push(Crossed::tile_box(l.var, tile.var, ts));
            tiles.push(tile);
            points.push(point);
        }
        p.body = nest_under(tiles, nest_under(points, cur));
    }

    fn run_all_ones(p: &Program, n: i64) -> Vec<f64> {
        let mut arrays = alloc_arrays(&p.scop, &[n]);
        execute(p, &[n], &mut arrays);
        arrays[0].clone()
    }

    #[test]
    fn band_depth_of_grid_is_two() {
        let p = grid_program(4);
        assert_eq!(band_depth(&p.body), 2);
    }

    #[test]
    fn tiling_preserves_semantics_including_ragged_edges() {
        for n in [1, 3, 7, 8, 10] {
            let mut p = grid_program(n);
            tile(&mut p, &[3, 3]);
            let out = run_all_ones(&p, n);
            assert_eq!(out, vec![1.0; (n * n) as usize], "n={n}");
        }
    }

    #[test]
    fn tiling_executes_each_point_exactly_once() {
        // A[i][j] += 1 would double-count if tiles overlapped.
        let n = 10;
        let mut p = grid_program(n);
        tile(&mut p, &[4, 3]);
        let out = run_all_ones(&p, n);
        assert!(out.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn tile_loops_inherit_parallelism() {
        let mut p = grid_program(6);
        if let Node::Loop(l) = &mut p.body {
            l.par = Par::Doall;
        }
        tile(&mut p, &[2, 2]);
        match &p.body {
            Node::Loop(t) => {
                assert_eq!(t.par, Par::Doall);
                assert!(t.name.ends_with('t'));
                assert_eq!(t.step, 2);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn skewed_then_tiled_triangular_band_is_correct() {
        let n = 9;
        let mut p = grid_program(n);
        // Skew j by i: j' = j + i (legal here; semantics preserved).
        assert!(skew(&mut p.body, 1, 0, 1));
        let out = run_all_ones(&p, n);
        assert_eq!(out, vec![1.0; (n * n) as usize]);
        // Now tile the skewed (triangular) band.
        tile(&mut p, &[4, 4]);
        let out = run_all_ones(&p, n);
        assert_eq!(out, vec![1.0; (n * n) as usize]);
    }

    /// symm's joint nest 1 at tile 4: `c1 = max(0, u0t) .. min(N - 2,
    /// u0t + 3)` over `c2 = max(c1 + 1, u1t) .. min(N - 1, u1t + 3)`.
    /// `S0` writes each point's visit number, which `S1` counts, so `A`
    /// shows both the set of points visited and their order.
    fn triangular_tiles(n: i64) -> Program {
        let mut b = ScopBuilder::new("tri", &["N"], &[n]);
        let a = b.array("A", &["N", "N"]);
        let count = b.array("B", &["N"]);
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        let body = b.rd(count, &[con(0)]);
        b.stmt("S0", a, &[ix("i"), ix("j")], body);
        let body = Expr::add(b.rd(count, &[con(0)]), Expr::Const(1.0));
        b.stmt("S1", count, &[con(0)], body);
        b.exit();
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let (u0t, u1t, c1, c2) = (0, 1, 2, 3);
        let n_ = LinExpr::param(0);
        let bound = |exprs: Vec<LinExpr>| Bound {
            exprs: exprs.into_iter().map(|expr| BoundExpr { expr, denom: 1 }).collect(),
        };
        let stmt = |stmt_idx| {
            Node::Stmt(StmtNode {
                stmt_idx,
                iter_exprs: vec![LinExpr::var(c1), LinExpr::var(c2)],
            })
        };
        let header = |var, name: &str, lo, hi, step| Loop {
            var,
            name: name.into(),
            lo: bound(lo),
            hi: bound(hi),
            step,
            par: Par::Seq,
            jam: 1,
            body: Node::Seq(vec![]),
        };
        let body = nest_under(
            [
                header(u0t, "u0t", vec![LinExpr::con(0)], vec![n_.plus(-2)], 4),
                header(u1t, "u1t", vec![LinExpr::var(u0t).plus(1)], vec![n_.plus(-1)], 4),
                header(
                    c1,
                    "c1",
                    vec![LinExpr::con(0), LinExpr::var(u0t)],
                    vec![n_.plus(-2), LinExpr::var(u0t).plus(3)],
                    1,
                ),
                header(
                    c2,
                    "c2",
                    vec![LinExpr::var(c1).plus(1), LinExpr::var(u1t)],
                    vec![n_.plus(-1), LinExpr::var(u1t).plus(3)],
                    1,
                ),
            ],
            Node::Seq(vec![stmt(0), stmt(1)]),
        );
        Program {
            scop,
            body,
            n_vars: 4,
            tiling: Vec::new(),
            demoted: 0,
        }
    }

    /// The `c1` loop of [`triangular_tiles`], two loops below the root.
    fn pair_root(p: &mut Program) -> &mut Node {
        let Node::Loop(u0t) = &mut p.body else { panic!("u0t") };
        let Node::Loop(u1t) = &mut u0t.body else { panic!("u1t") };
        &mut u1t.body
    }

    #[test]
    fn interchange_visits_a_triangular_pair_column_by_column() {
        for n in [1, 2, 5, 8, 11] {
            let original = triangular_tiles(n);
            let mut p = triangular_tiles(n);
            let root = pair_root(&mut p);
            let Node::Loop(c1) = &*root else { panic!("c1") };
            *root = interchange(c1).expect("unit coefficients");
            let Node::Loop(c2) = &*root else { panic!("c2") };
            let Node::Loop(c1) = &c2.body else { panic!("c1") };
            assert_eq!((c2.name.as_str(), c1.name.as_str()), ("c2", "c1"));
            // The triangle's edge moved into c1's upper bound.
            assert!(c1.hi.exprs.iter().any(|be| be.expr == LinExpr::var(3).plus(-1)));
            // Each tile's points, column by column, numbered in that order.
            let mut want = vec![0.0; (n * n) as usize];
            let mut visit = 0.0;
            for u0t in (0..=n - 2).step_by(4) {
                for u1t in (u0t + 1..=n - 1).step_by(4) {
                    for j in u1t..=(n - 1).min(u1t + 3) {
                        for i in u0t.max(0)..=(n - 2).min(u0t + 3).min(j - 1) {
                            want[(i * n + j) as usize] = visit;
                            visit += 1.0;
                        }
                    }
                }
            }
            let run = |p: &Program| {
                let mut arrays = alloc_arrays(&p.scop, &[n]);
                execute(p, &[n], &mut arrays);
                arrays
            };
            let (before, after) = (run(&original), run(&p));
            assert_eq!(after[0], want, "n={n}");
            assert_eq!(after[1], before[1], "n={n}: same number of points");
            if n >= 5 {
                assert_ne!(after[0], before[0], "n={n}: same order as before");
            }
        }
    }

    #[test]
    fn interchange_refuses_a_coefficient_of_two_and_a_guard() {
        let mut p = triangular_tiles(8);
        let root = pair_root(&mut p);
        let Node::Loop(c1) = root else { panic!("c1") };
        assert!(interchange(c1).is_some());
        let mut guarded = (**c1).clone();
        guarded.body = Node::Guard(vec![LinExpr::con(0)], Box::new(guarded.body));
        assert!(interchange(&guarded).is_none());
        let Node::Loop(c2) = &mut c1.body else { panic!("c2") };
        c2.lo.exprs[0].expr = LinExpr::var(2).scale(2);
        assert!(interchange(c1).is_none());
    }
}

/// Tiles the outermost `sizes.len()` levels of a possibly *imperfect*
/// nest by clamping: tile loops iterate box origins over the shared level
/// coordinates, the whole original structure becomes the tile body with
/// every level-`k` loop's bounds intersected with
/// `[u_k, u_k + size_k - 1]`.
///
/// Requirements (checked; returns `None` when unmet):
/// * at every level `k < sizes.len()` all loops have *identical* lower
///   and upper bounds,
/// * those bounds reference no loop variables of levels `>= 1` other than
///   shared chain variables — concretely, every variable they mention
///   must belong to a loop that is the unique loop of its level.
///
/// This is the classical "tile the fused band jointly" shape needed for
/// time-tiling imperfectly nested stencils (jacobi-style kernels).
pub fn tile_imperfect(prog: &mut Program, node: Node, sizes: &[i64]) -> Option<Node> {
    let m = sizes.len();
    // Collect per-level loop bound sets and the shared chain variables.
    fn collect<'a>(node: &'a Node, level: usize, out: &mut Vec<Vec<&'a Loop>>) {
        match node {
            Node::Seq(xs) => xs.iter().for_each(|x| collect(x, level, out)),
            Node::Guard(_, b) => collect(b, level, out),
            Node::Loop(l) => {
                if level < out.len() {
                    out[level].push(l);
                    collect(&l.body, level + 1, out);
                }
            }
            Node::Stmt(_) => {}
        }
    }
    let mut levels: Vec<Vec<&Loop>> = vec![Vec::new(); m];
    collect(&node, 0, &mut levels);
    // Every statement must sit below all m band levels; otherwise the
    // clamped body would re-execute shallow statements once per tile of
    // the missing levels (duplicating work — illegal).
    fn min_stmt_depth(node: &Node, level: usize, min: &mut usize) {
        match node {
            Node::Seq(xs) => xs.iter().for_each(|x| min_stmt_depth(x, level, min)),
            Node::Guard(_, b) => min_stmt_depth(b, level, min),
            Node::Loop(l) => min_stmt_depth(&l.body, level + 1, min),
            Node::Stmt(_) => *min = (*min).min(level),
        }
    }
    let mut min_depth = usize::MAX;
    min_stmt_depth(&node, 0, &mut min_depth);
    if min_depth < m {
        return None;
    }
    // Uniqueness / identical-bounds checks, and gather shared vars.
    let mut shared_vars: Vec<usize> = Vec::new();
    let mut reps_acc: Vec<(Bound, Bound)> = Vec::new();
    for lvl in levels.iter().take(m) {
        let first = lvl.first()?;
        if first.step != 1 || lvl.iter().any(|l| l.step != 1) {
            return None;
        }
        // Unify bounds across same-level loops: identical bounds pass
        // directly; single-expression bounds differing only in their
        // constant term unify to the min (lower) / max (upper) constant,
        // which over-approximates the union (point loops clamp exactly).
        let unified_lo = unify_level_bound(lvl, true)?;
        let unified_hi = unify_level_bound(lvl, false)?;
        // Bounds may only reference shared vars (of unique outer levels).
        let refs_ok = |b: &Bound| {
            b.exprs.iter().all(|be| {
                be.expr
                    .var_coeffs
                    .iter()
                    .all(|(v, _)| shared_vars.contains(v))
            })
        };
        if !refs_ok(&unified_lo) || !refs_ok(&unified_hi) {
            return None;
        }
        reps_acc.push((unified_lo, unified_hi));
        let _ = first;
        if lvl.len() == 1 {
            shared_vars.push(lvl[0].var);
        } else {
            // Multiple loops at this level: no shared var below here.
            // Bounds of deeper levels must then be var-free; keep going.
        }
    }

    // Unified representative bounds per level.
    let reps: Vec<(Bound, Bound)> = reps_acc;
    // Map from the unique chain vars to their tile vars for relaxation.
    let tile_vars: Vec<usize> = (0..m).map(|_| prog.fresh_var()).collect();
    let chain_map: Vec<Crossed> = levels[..m]
        .iter()
        .enumerate()
        .filter(|(_, lvl)| lvl.len() == 1)
        .map(|(k, lvl)| Crossed::tile_box(lvl[0].var, tile_vars[k], sizes[k]))
        .collect();

    // Clamp every level-k loop in the body.
    let mut body = node;
    fn clamp(node: &mut Node, level: usize, tile_vars: &[usize], sizes: &[i64]) {
        match node {
            Node::Seq(xs) => xs
                .iter_mut()
                .for_each(|x| clamp(x, level, tile_vars, sizes)),
            Node::Guard(_, b) => clamp(b, level, tile_vars, sizes),
            Node::Loop(l) => {
                if level < tile_vars.len() {
                    l.lo.exprs.push(BoundExpr {
                        expr: LinExpr::var(tile_vars[level]),
                        denom: 1,
                    });
                    l.hi.exprs.push(BoundExpr {
                        expr: LinExpr::var(tile_vars[level]).plus(sizes[level] - 1),
                        denom: 1,
                    });
                    clamp(&mut l.body, level + 1, tile_vars, sizes);
                }
            }
            Node::Stmt(_) => {}
        }
    }
    clamp(&mut body, 0, &tile_vars, sizes);

    // Parallelism marks of unique level-k loops migrate to tile loops
    // (and the point loop is demoted to sequential).
    let mut pars = vec![Par::Seq; m];
    {
        fn demote(node: &mut Node, level: usize, pars: &mut Vec<Par>) {
            match node {
                Node::Seq(xs) => xs.iter_mut().for_each(|x| demote(x, level, pars)),
                Node::Guard(_, b) => demote(b, level, pars),
                Node::Loop(l) => {
                    if level < pars.len() {
                        if l.par != Par::Seq {
                            pars[level] = std::mem::take(&mut l.par);
                        }
                        demote(&mut l.body, level + 1, pars);
                    }
                }
                Node::Stmt(_) => {}
            }
        }
        demote(&mut body, 0, &mut pars);
    }
    // Wrap in tile loops, innermost tile loop first.
    for k in (0..m).rev() {
        let (lo, hi) = &reps[k];
        let lo = relax_bound(lo, &chain_map, true);
        let hi = relax_bound(hi, &chain_map, false);
        body = Node::loop_(Loop {
            var: tile_vars[k],
            name: format!("u{k}t"),
            lo,
            hi,
            step: sizes[k],
            par: std::mem::take(&mut pars[k]),
            jam: 1,
            body,
        });
    }
    Some(body)
}

/// Unifies the bounds of all loops at one level for joint tiling: equal
/// bounds pass through; single-expression bounds with identical variable /
/// parameter coefficients unify to the min (lower) or max (upper)
/// constant term. Returns `None` when unification is impossible.
fn unify_level_bound(lvl: &[&Loop], lower: bool) -> Option<Bound> {
    let get = |l: &Loop| if lower { l.lo.clone() } else { l.hi.clone() };
    let first = get(lvl[0]);
    if lvl.iter().all(|l| get(l) == first) {
        return Some(first);
    }
    // Constant-term-only differences on single-expression bounds.
    if first.exprs.len() != 1 || first.exprs[0].denom != 1 {
        return None;
    }
    let base = &first.exprs[0].expr;
    let mut c = base.c;
    for l in &lvl[1..] {
        let b = get(l);
        if b.exprs.len() != 1 || b.exprs[0].denom != 1 {
            return None;
        }
        let e = &b.exprs[0].expr;
        if e.var_coeffs != base.var_coeffs || e.param_coeffs != base.param_coeffs {
            return None;
        }
        c = if lower { c.min(e.c) } else { c.max(e.c) };
    }
    let mut expr = base.clone();
    expr.c = c;
    Some(Bound::of(expr))
}

#[cfg(test)]
mod imperfect_tests {
    use super::*;
    use crate::interp::{alloc_arrays, execute};
    use crate::tree::{Program, StmtNode};
    use polymix_ir::builder::{con, ix, par, ScopBuilder};
    use polymix_ir::Expr;

    /// t-loop containing two sibling i-loops (jacobi shape), as SCoP+AST.
    fn two_phase(n: i64, t: i64) -> Program {
        let mut b = ScopBuilder::new("tp", &["T", "N"], &[t, n]);
        let a = b.array("A", &["N"]);
        let c = b.array("B", &["N"]);
        b.enter("t", con(0), par("T"));
        b.enter("i", con(0), par("N"));
        let body = Expr::add(b.rd(a, &[ix("i")]), Expr::Const(1.0));
        b.stmt("S0", c, &[ix("i")], body);
        b.exit();
        b.enter("i", con(0), par("N"));
        let body = b.rd(c, &[ix("i")]);
        b.stmt("S1", a, &[ix("i")], body);
        b.exit();
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let mk_inner = |stmt_idx: usize, var: usize| {
            Node::loop_(Loop {
                var,
                name: "i".into(),
                lo: Bound::con(0),
                hi: Bound::of(LinExpr::param(1).plus(-1)),
                step: 1,
                par: Par::Seq,
                jam: 1,
                body: Node::Stmt(StmtNode {
                    stmt_idx,
                    iter_exprs: vec![LinExpr::var(0), LinExpr::var(var)],
                }),
            })
        };
        let body = Node::loop_(Loop {
            var: 0,
            name: "t".into(),
            lo: Bound::con(0),
            hi: Bound::of(LinExpr::param(0).plus(-1)),
            step: 1,
            par: Par::Seq,
            jam: 1,
            body: Node::Seq(vec![mk_inner(0, 1), mk_inner(1, 2)]),
        });
        Program {
            scop,
            body,
            n_vars: 3,
            tiling: Vec::new(),
            demoted: 0,
        }
    }

    #[test]
    fn imperfect_tiling_preserves_semantics() {
        for (t, n) in [(1i64, 5i64), (4, 9), (6, 16)] {
            let base = two_phase(n, t);
            let mut expected = alloc_arrays(&base.scop, &[t, n]);
            execute(&base, &[t, n], &mut expected);

            let mut tiled = two_phase(n, t);
            let body = tiled.body.clone();
            let new = tile_imperfect(&mut tiled, body, &[2, 4]).expect("tilable");
            tiled.body = new;
            let mut actual = alloc_arrays(&tiled.scop, &[t, n]);
            execute(&tiled, &[t, n], &mut actual);
            assert_eq!(actual, expected, "t={t} n={n}");
        }
    }

    #[test]
    fn imperfect_tiling_unifies_constant_offset_bounds() {
        // A shorter second i-loop (same coefficients, different constant)
        // unifies: the tile hull covers both, point loops clamp.
        let t = 3;
        let n = 8;
        let mut p = two_phase(n, t);
        if let Node::Loop(tl) = &mut p.body {
            if let Node::Seq(xs) = &mut tl.body {
                if let Node::Loop(l2) = &mut xs[1] {
                    l2.hi = Bound::of(LinExpr::param(1).plus(-2));
                }
            }
        }
        let mut expected = alloc_arrays(&p.scop, &[t, n]);
        execute(&p, &[t, n], &mut expected);
        let body = p.body.clone();
        let tiled = tile_imperfect(&mut p, body, &[2, 4]).expect("unifiable");
        p.body = tiled;
        let mut actual = alloc_arrays(&p.scop, &[t, n]);
        execute(&p, &[t, n], &mut actual);
        assert_eq!(actual, expected);
    }

    #[test]
    fn imperfect_tiling_rejects_incomparable_bounds() {
        let mut p = two_phase(8, 3);
        // Second i-loop bounded by 2·N: different coefficients, no
        // unification possible.
        if let Node::Loop(tl) = &mut p.body {
            if let Node::Seq(xs) = &mut tl.body {
                if let Node::Loop(l2) = &mut xs[1] {
                    l2.hi = Bound::of(LinExpr::param(1).scale(2).plus(-1));
                }
            }
        }
        let body = p.body.clone();
        assert!(tile_imperfect(&mut p, body, &[2, 4]).is_none());
    }

    #[test]
    fn imperfect_tile_loop_structure() {
        let mut p = two_phase(8, 4);
        let body = p.body.clone();
        let new = tile_imperfect(&mut p, body, &[2, 4]).unwrap();
        // Two tile loops wrapping the original t loop.
        match &new {
            Node::Loop(u0) => {
                assert_eq!(u0.step, 2);
                match &u0.body {
                    Node::Loop(u1) => {
                        assert_eq!(u1.step, 4);
                        assert!(matches!(&u1.body, Node::Loop(t) if t.name == "t"));
                    }
                    _ => panic!("expected inner tile loop"),
                }
            }
            _ => panic!("expected tile loop"),
        }
        p.body = new;
    }
}

#[cfg(test)]
mod sunk_tests {
    //! `strip_mine` + `nest_under` composed the way
    //! `polymix_codegen::opt::tile_nest`'s sunk form composes them: tile
    //! loops shared, point loops copied into every child and sunk under
    //! the child's own tile loops.
    use super::*;
    use crate::interp::{alloc_arrays, execute};
    use crate::tree::{Program, StmtNode};
    use polymix_ir::builder::{ix, par, ScopBuilder};
    use polymix_ir::Expr;

    fn header(var: usize, name: &str, hi_param: usize) -> Loop {
        Loop {
            var,
            name: name.into(),
            lo: Bound::con(0),
            hi: Bound::of(LinExpr::param(hi_param).plus(-1)),
            step: 1,
            par: Par::Seq,
            jam: 1,
            body: Node::Seq(vec![]),
        }
    }

    fn stmt(stmt_idx: usize, vars: &[usize]) -> Node {
        Node::Stmt(StmtNode {
            stmt_idx,
            iter_exprs: vars.iter().map(|&v| LinExpr::var(v)).collect(),
        })
    }

    /// The syrk shape, `for i, j { S1: C[i][j] += 1; for k { S2: C[i][j]
    /// += A[k] } }`: a shallow statement beside a deep one. Any point run
    /// twice or not at all changes `C`.
    fn shallow_beside_deep(n: i64, k: i64) -> Program {
        let mut b = ScopBuilder::new("sbd", &["N", "K"], &[n, k]);
        let c = b.array("C", &["N", "N"]);
        let a = b.array("A", &["K"]);
        b.enter("i", polymix_ir::builder::con(0), par("N"));
        b.enter("j", polymix_ir::builder::con(0), par("N"));
        let body = Expr::add(b.rd(c, &[ix("i"), ix("j")]), Expr::Const(1.0));
        b.stmt("S1", c, &[ix("i"), ix("j")], body);
        b.enter("k", polymix_ir::builder::con(0), par("K"));
        let body = Expr::add(b.rd(c, &[ix("i"), ix("j")]), b.rd(a, &[ix("k")]));
        b.stmt("S2", c, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let deep = nest_under([header(2, "k", 1)], stmt(1, &[0, 1, 2]));
        let body = nest_under(
            [header(0, "i", 0), header(1, "j", 0)],
            Node::Seq(vec![stmt(0, &[0, 1]), deep]),
        );
        Program {
            scop,
            body,
            n_vars: 3,
            tiling: Vec::new(),
            demoted: 0,
        }
    }

    fn run(p: &Program, params: &[i64]) -> Vec<Vec<f64>> {
        let mut arrays = alloc_arrays(&p.scop, params);
        for (k, x) in arrays[1].iter_mut().enumerate() {
            *x = (k + 1) as f64;
        }
        execute(p, params, &mut arrays);
        arrays
    }

    #[test]
    fn shallow_statement_beside_a_deep_one_runs_once_per_point() {
        for (n, k) in [(1i64, 1i64), (5, 3), (9, 7), (8, 8)] {
            let expected = run(&shallow_beside_deep(n, k), &[n, k]);
            let mut p = shallow_beside_deep(n, k);
            // i and j strip-mined where they stand; k's tile loop hoisted
            // above both point loops, in the deep child only.
            let (it, ip) = strip_mine(&mut p, &header(0, "i", 0), 4, &[]);
            let (jt, jp) = strip_mine(&mut p, &header(1, "j", 0), 4, &[]);
            let crossed = [Crossed::tile_box(0, it.var, 4), Crossed::tile_box(1, jt.var, 4)];
            let (kt, kp) = strip_mine(&mut p, &header(2, "k", 1), 4, &crossed);
            let shallow = nest_under([ip.clone(), jp.clone()], stmt(0, &[0, 1]));
            let deep = nest_under([kt, ip, jp, kp], stmt(1, &[0, 1, 2]));
            p.body = nest_under([it, jt], Node::Seq(vec![shallow, deep]));
            assert_eq!(run(&p, &[n, k]), expected, "n={n} k={k}");
            let first = 1.0 + (1..=k).sum::<i64>() as f64;
            assert_eq!(expected[0][0], first);
        }
    }

    #[test]
    fn hoisted_tile_loop_relaxes_a_triangular_bound_through_the_crossed_point_loop() {
        // for i { S1; for k in 0..=i { S2 } }: k's tile loop, hoisted above
        // the point loop of i, must cover every i of the tile.
        for n in [1i64, 6, 9] {
            let tri = |p: &mut Program| {
                if let Node::Loop(i) = &mut p.body {
                    if let Node::Loop(j) = &mut i.body {
                        if let Node::Seq(xs) = &mut j.body {
                            if let Node::Loop(k) = &mut xs[1] {
                                k.hi = Bound::of(LinExpr::var(0));
                            }
                        }
                    }
                }
            };
            let mut base = shallow_beside_deep(n, n);
            tri(&mut base);
            let expected = run(&base, &[n, n]);
            let mut p = shallow_beside_deep(n, n);
            let (it, ip) = strip_mine(&mut p, &header(0, "i", 0), 4, &[]);
            let mut k = header(2, "k", 1);
            k.hi = Bound::of(LinExpr::var(0));
            let (kt, kp) = strip_mine(&mut p, &k, 4, &[Crossed::tile_box(0, it.var, 4)]);
            assert_eq!(kt.hi, Bound::of(LinExpr::var(it.var).plus(3)));
            let j = header(1, "j", 0);
            let shallow = nest_under([ip.clone(), j.clone()], stmt(0, &[0, 1]));
            let deep = nest_under([kt, ip, j, kp], stmt(1, &[0, 1, 2]));
            p.body = nest_under([it], Node::Seq(vec![shallow, deep]));
            assert_eq!(run(&p, &[n, n]), expected, "n={n}");
        }
    }

    #[test]
    fn a_crossed_point_loop_lends_the_tile_loop_its_own_range() {
        // j = max(2t + 1, u) .. min(2t + N - 2, u + 31): a skewed space
        // loop under a time tile covers part of its box only. k = j + 1 ..
        // j + N - 2, strip-mined above it, starts where j starts.
        let (t, u, j, k) = (0, 1, 2, 3);
        let be = |expr| BoundExpr { expr, denom: 1 };
        let skew = LinExpr::var(t).scale(2);
        let mut jl = header(j, "j", 0);
        jl.lo = Bound {
            exprs: vec![be(skew.plus(1)), be(LinExpr::var(u))],
        };
        jl.hi = Bound {
            exprs: vec![be(skew.add(&LinExpr::param(0)).plus(-2)), be(LinExpr::var(u).plus(31))],
        };
        let mut kl = header(k, "k", 0);
        kl.lo = Bound::of(LinExpr::var(j).plus(1));
        kl.hi = Bound::of(LinExpr::var(j).add(&LinExpr::param(0)).plus(-2));
        let mut p = shallow_beside_deep(4, 4);
        p.n_vars = 4;
        let (kt, _) = strip_mine(&mut p, &kl, 32, &[Crossed::point_loop(&jl, u, 32)]);
        assert_eq!(kt.lo.exprs, [be(skew.plus(2)), be(LinExpr::var(u).plus(1))]);
        let n2 = LinExpr::param(0).scale(2);
        assert_eq!(
            kt.hi.exprs,
            [be(skew.add(&n2).plus(-4)), be(LinExpr::var(u).add(&LinExpr::param(0)).plus(29))]
        );
        // A quotient in the crossed loop's bounds: only the box is known.
        jl.lo.exprs[0].denom = 2;
        let (kt, _) = strip_mine(&mut p, &kl, 32, &[Crossed::point_loop(&jl, u, 32)]);
        assert_eq!(kt.lo, Bound::of(LinExpr::var(u).plus(1)));
        assert_eq!(kt.hi, Bound::of(LinExpr::var(u).add(&LinExpr::param(0)).plus(29)));
    }

    #[test]
    fn strip_mined_tile_loop_takes_the_mark_and_the_point_loop_is_sequential() {
        let mut p = shallow_beside_deep(6, 6);
        let mut i = header(0, "i", 0);
        i.par = Par::Doall;
        let (tile, point) = strip_mine(&mut p, &i, 4, &[]);
        assert_eq!((tile.par, tile.step, tile.name.as_str()), (Par::Doall, 4, "it"));
        assert_eq!((point.par, point.step, point.var), (Par::Seq, 1, 0));
        assert_eq!(p.n_vars, 4);
    }
}
