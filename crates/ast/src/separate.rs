//! Guard separation: the guards of a loop tree that its loop bounds
//! decide go (DESIGN §2).
//!
//! Code generation from the polyhedral schedules leaves a statement that
//! shares a loop with others under a guard restricting it to its own
//! domain (cholesky's `c2 ≥ 2c1 + 1` around the `tmpo` updates of the
//! fused `j` loops). A guard costs a test per iteration, and it keeps the
//! loop it mentions from being register-tiled (a jam's replicas must run
//! the same inner iterations). [`separate_guards`] removes what the
//! bounds decide, with emptiness tests over the enclosing loops' ranges
//! and the parameters' lower bounds:
//!
//! * a guard those ranges imply is dropped, and one they contradict is
//!   dropped with its child;
//! * a guard `±v + r ≥ 0` on the variable `v` of an enclosing sequential
//!   loop of step 1 splits that loop's range at `v = ∓r` (index-set
//!   splitting). The pieces run one after the other in the original
//!   order, and in each the guard is implied or contradicted, so it goes.
//!
//! Every rewrite keeps the set of instances and their order: no
//! dependence is consulted, and none is needed.

use crate::tree::{BoundExpr, LinExpr, Loop, Node, Par};
use polymix_ir::Scop;
use polymix_math::Polyhedron;

/// How many times one loop may be split, along each of its pieces: two
/// cuts separate a guard pair `v ≥ t + 1` / `v ≤ t - 1` (three pieces,
/// the middle one empty when nothing else runs there).
const SPLITS: usize = 2;

/// Removes the guards of `nest` its loop bounds decide, splitting
/// sequential step-1 loops at a guard's threshold where `split` is set
/// (only dropping guards otherwise). `n_vars` is the program's
/// variable count ([`crate::tree::Program::n_vars`]). Returns the new
/// nest and the number of guard conjuncts it no longer tests. A nest
/// whose every statement the bounds rule out is returned unchanged.
pub fn separate_guards(nest: Node, scop: &Scop, n_vars: usize, split: bool) -> (Node, usize) {
    let space = Space {
        n_vars,
        n_params: scop.n_params(),
    };
    let mut ctx = Polyhedron::universe(n_vars + space.n_params);
    for (p, &lb) in scop.param_lower_bounds.iter().enumerate() {
        if let Some(r) = space.row(&LinExpr::param(p)) {
            ctx.add_ge(&r, lb);
        }
    }
    let before = conjuncts(&nest);
    let sep = Separator { space, split };
    let out = sep.nodes(nest.clone(), &ctx);
    if out.is_empty() {
        return (nest, 0);
    }
    let out = seq_of(out);
    let removed = before.saturating_sub(conjuncts(&out));
    (out, removed)
}

/// The guard conjuncts tested anywhere in `node`.
fn conjuncts(node: &Node) -> usize {
    match node {
        Node::Seq(xs) => xs.iter().map(conjuncts).sum(),
        Node::Guard(gs, b) => gs.len() + conjuncts(b),
        Node::Loop(l) => conjuncts(&l.body),
        Node::Stmt(_) => 0,
    }
}

/// The columns the questions are asked over: one per loop variable slot,
/// one per parameter, then the constant.
struct Space {
    n_vars: usize,
    n_params: usize,
}

impl Space {
    /// The row of `e`; `None` when a column does not fit `i64` (a
    /// variable listed twice).
    fn row(&self, e: &LinExpr) -> Option<Vec<i64>> {
        let mut r = vec![0i64; self.n_vars + self.n_params + 1];
        let params = e.param_coeffs.iter().map(|&(p, c)| (self.n_vars + p, c));
        for (j, c) in e.var_coeffs.iter().copied().chain(params) {
            r[j] = r[j].checked_add(c)?;
        }
        r[self.n_vars + self.n_params] = e.c;
        Some(r)
    }

    /// `ctx` with the range of `l` added: `d·v ≥ e` for every lower bound
    /// `e / d`, `d·v ≤ e` for every upper one. A step above 1 is left
    /// out, so the range is a superset of the values the loop takes; so
    /// is a bound whose row does not fit `i64`, which stays out of the
    /// context as the vm's `loop_ctx` leaves it out: no guard is decided
    /// and no loop split on a row that is not proven.
    fn with_range(&self, ctx: &Polyhedron, l: &Loop) -> Polyhedron {
        let mut out = ctx.clone();
        for (bound, sign) in [(&l.lo, -1), (&l.hi, 1)] {
            for be in &bound.exprs {
                let row = self.row(&be.expr).and_then(|r| {
                    let mut r: Vec<i64> = r
                        .iter()
                        .map(|c| c.checked_mul(sign))
                        .collect::<Option<_>>()?;
                    r[l.var] = r[l.var].checked_sub(be.denom.checked_mul(sign)?)?;
                    Some(r)
                });
                if let Some(r) = row {
                    out.add_ge(&r, 0);
                }
            }
        }
        out
    }

    /// Whether `g ≥ 0` holds everywhere in `ctx`.
    fn implied(&self, ctx: &Polyhedron, g: &LinExpr) -> bool {
        self.row(g).is_some_and(|r| ctx.and_le(&r, -1).is_empty())
    }

    /// Whether `g ≥ 0` holds nowhere in `ctx`.
    fn contradicted(&self, ctx: &Polyhedron, g: &LinExpr) -> bool {
        self.row(g).is_some_and(|r| ctx.and_ge(&r, 0).is_empty())
    }
}

struct Separator {
    space: Space,
    split: bool,
}

impl Separator {
    /// The nodes that replace `node` under the context `ctx`: none when
    /// nothing of it runs, several where a loop was split.
    fn nodes(&self, node: Node, ctx: &Polyhedron) -> Vec<Node> {
        match node {
            Node::Stmt(_) => vec![node],
            Node::Seq(xs) => xs.into_iter().flat_map(|x| self.nodes(x, ctx)).collect(),
            Node::Guard(gs, body) => {
                let mut inner = ctx.clone();
                let mut kept = Vec::new();
                for g in gs {
                    if self.space.contradicted(&inner, &g) {
                        return Vec::new();
                    }
                    if !self.space.implied(&inner, &g) {
                        if let Some(r) = self.space.row(&g) {
                            inner.add_ge(&r, 0);
                        }
                        kept.push(g);
                    }
                }
                let body = self.nodes(*body, &inner);
                match (body.is_empty(), kept.is_empty()) {
                    (true, _) => Vec::new(),
                    (false, true) => body,
                    (false, false) => vec![Node::Guard(kept, Box::new(seq_of(body)))],
                }
            }
            Node::Loop(l) => self.loop_(*l, ctx, SPLITS, false),
        }
    }

    /// `l` under `ctx`, split at most `splits` more times along each
    /// piece; `piece` marks a piece of a split, whose bounds are then
    /// pruned of the expressions another one of them decides.
    fn loop_(&self, mut l: Loop, ctx: &Polyhedron, splits: usize, piece: bool) -> Vec<Node> {
        let inner = self.space.with_range(ctx, &l);
        if inner.is_empty() {
            return Vec::new();
        }
        let body = self.nodes(l.body, &inner);
        if body.is_empty() {
            return Vec::new();
        }
        l.body = seq_of(body);
        if self.split && splits > 0 && l.step == 1 && l.par == Par::Seq {
            if let Some(t) = threshold(&l.body, l.var, &mut Vec::new()) {
                let mut below = l.clone();
                below.hi.exprs.push(BoundExpr { expr: t.plus(-1), denom: 1 });
                l.lo.exprs.push(BoundExpr { expr: t, denom: 1 });
                let mut out = self.loop_(below, ctx, splits - 1, true);
                out.extend(self.loop_(l, ctx, splits - 1, true));
                return out;
            }
        }
        if piece {
            self.prune(&mut l, ctx);
        }
        vec![Node::loop_(l)]
    }

    /// Drops from `l`'s bounds every expression another one of the same
    /// bound makes redundant under `ctx`: a lower end never above
    /// another, an upper end never below another.
    fn prune(&self, l: &mut Loop, ctx: &Polyhedron) {
        for (bound, lower) in [(&mut l.lo, true), (&mut l.hi, false)] {
            let mut j = 0;
            while j < bound.exprs.len() && bound.exprs.len() > 1 {
                let e = &bound.exprs[j];
                let redundant = e.denom == 1
                    && bound.exprs.iter().enumerate().any(|(i, o)| {
                        // `o` binds at least as tightly as `e` everywhere.
                        let tighter = if lower { o.expr.add_scaled(&e.expr, -1) } else { e.expr.add_scaled(&o.expr, -1) };
                        i != j && o.denom == 1 && self.space.implied(ctx, &tighter)
                    });
                if redundant {
                    bound.exprs.remove(j);
                } else {
                    j += 1;
                }
            }
        }
    }
}

/// The first split point `t` a guard below `node` sets on the loop of
/// `var`: a conjunct `v + r ≥ 0` (true from `t = -r` on) or `-v + r ≥ 0`
/// (true below `t = r + 1`) that mentions none of `inner`, the variables
/// of the loops between the guard and the loop.
fn threshold(node: &Node, var: usize, inner: &mut Vec<usize>) -> Option<LinExpr> {
    match node {
        Node::Seq(xs) => xs.iter().find_map(|x| threshold(x, var, inner)),
        Node::Stmt(_) => None,
        Node::Loop(l) => {
            inner.push(l.var);
            let t = threshold(&l.body, var, inner);
            inner.pop();
            t
        }
        Node::Guard(gs, body) => gs
            .iter()
            .find_map(|g| {
                let free = !g.var_coeffs.iter().any(|(v, _)| inner.contains(v));
                let rest = g.add_scaled(&LinExpr::var(var), -g.coeff_of(var));
                match g.coeff_of(var) {
                    1 if free => Some(rest.scale(-1)),
                    -1 if free => Some(rest.plus(1)),
                    _ => None,
                }
            })
            .or_else(|| threshold(body, var, inner)),
    }
}

/// One node for a run of siblings.
fn seq_of(mut xs: Vec<Node>) -> Node {
    if xs.len() == 1 {
        xs.remove(0)
    } else {
        Node::Seq(xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{alloc_arrays, execute};
    use crate::tree::{Bound, Program, StmtNode};
    use polymix_ir::builder::{con, ix, par, ScopBuilder};
    use polymix_ir::Expr;

    /// `for i, j: [j ≥ i + 1] U[i][j] = n++; [j ≤ i - 1] L[i][j] = n++`
    /// with both statements under one `j` loop, as a fused nest leaves
    /// them: `n` numbers the instances, so the arrays show which ran and
    /// in what order.
    fn triangles(n: i64, guard_i: bool) -> Program {
        let mut b = ScopBuilder::new("tri", &["N"], &[n]);
        let (u, l, count) = (b.array("U", &["N", "N"]), b.array("L", &["N", "N"]), b.array("C", &["N"]));
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        let visit = b.rd(count, &[con(0)]);
        b.stmt("S0", u, &[ix("i"), ix("j")], visit.clone());
        b.stmt("S1", l, &[ix("i"), ix("j")], visit);
        let next = Expr::add(b.rd(count, &[con(0)]), Expr::Const(1.0));
        b.stmt("S2", count, &[con(0)], next);
        b.exit();
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let (i, j) = (LinExpr::var(0), LinExpr::var(1));
        let stmt = |k| {
            Node::Stmt(StmtNode {
                stmt_idx: k,
                iter_exprs: vec![i.clone(), j.clone()],
            })
        };
        let upper = j.add_scaled(&i, -1).plus(-1);
        let lower = i.add_scaled(&j, -1).plus(-1);
        // `i ≥ 0` is implied by the `i` loop's range.
        let mut first = vec![upper];
        if guard_i {
            first.push(i.clone());
        }
        let body = Node::Seq(vec![
            Node::Guard(first, Box::new(Node::Seq(vec![stmt(0), stmt(2)]))),
            Node::Guard(vec![lower], Box::new(Node::Seq(vec![stmt(1), stmt(2)]))),
        ]);
        let header = |var, name: &str, body| {
            Node::loop_(Loop {
                var,
                name: name.into(),
                lo: Bound::con(0),
                hi: Bound::of(LinExpr::param(0).plus(-1)),
                step: 1,
                par: Par::Seq,
                jam: 1,
                body,
            })
        };
        Program {
            scop,
            body: header(0, "i", header(1, "j", body)),
            n_vars: 2,
            tiling: Vec::new(),
            demoted: 0,
        }
    }

    fn run(p: &Program, n: i64) -> Vec<Vec<f64>> {
        let mut arrays = alloc_arrays(&p.scop, &[n]);
        execute(p, &[n], &mut arrays);
        arrays
    }

    /// The guard pair on `j` splits it at `i + 1` and again at `i`; the
    /// middle piece `j = i` runs nothing and goes, and each remaining
    /// piece runs its statements unguarded, in the original order.
    #[test]
    fn a_guard_pair_splits_the_loop_it_mentions_into_guard_free_pieces() {
        let p = triangles(6, true);
        let (body, removed) = separate_guards(p.body.clone(), &p.scop, p.n_vars, true);
        assert_eq!(removed, 3);
        let Node::Loop(i) = &body else { panic!("i loop") };
        let Node::Seq(pieces) = &i.body else { panic!("pieces: {:?}", i.body) };
        let shapes: Vec<(Bound, Bound, usize)> = pieces
            .iter()
            .map(|x| match x {
                Node::Loop(j) => (j.lo.clone(), j.hi.clone(), conjuncts(&j.body)),
                other => panic!("{other:?}"),
            })
            .collect();
        let i_ = LinExpr::var(0);
        assert_eq!(
            shapes,
            [
                (Bound::con(0), Bound::of(i_.plus(-1)), 0),
                (Bound::of(i_.plus(1)), Bound::of(LinExpr::param(0).plus(-1)), 0),
            ]
        );
        let separated = Program { body, ..p };
        for n in [1, 2, 5, 9] {
            assert_eq!(run(&separated, n), run(&triangles(n, true), n), "N = {n}");
        }
    }

    /// A lower bound `j ≥ MIN·N` holds for every `j` the loop runs, but
    /// its row `j - MIN·N ≥ 0` has no `i64` coefficient for `N`; wrapped
    /// to `j + MIN·N ≥ 0` it contradicted `j ≤ N - 1`, and the loop went
    /// with the statement under it. The row stays out of the context.
    #[test]
    fn a_bound_row_that_overflows_decides_nothing() {
        let p = triangles(6, false);
        let stmt = |k| {
            Node::Stmt(StmtNode {
                stmt_idx: k,
                iter_exprs: vec![LinExpr::var(0), LinExpr::var(1)],
            })
        };
        let min_n = LinExpr {
            param_coeffs: vec![(0, i64::MIN)],
            ..Default::default()
        };
        let j = Node::loop_(Loop {
            var: 1,
            name: "j".into(),
            lo: Bound::of(min_n),
            hi: Bound::of(LinExpr::param(0).plus(-1)),
            step: 1,
            par: Par::Seq,
            jam: 1,
            body: stmt(0),
        });
        let nest = Node::Seq(vec![j, stmt(1)]);
        assert_eq!(
            separate_guards(nest.clone(), &p.scop, p.n_vars, true),
            (nest, 0)
        );
    }

    /// Without splitting only what the bounds decide goes: `i ≥ 0`.
    #[test]
    fn without_splitting_only_an_implied_conjunct_goes() {
        let p = triangles(6, true);
        let (body, removed) = separate_guards(p.body.clone(), &p.scop, p.n_vars, false);
        assert_eq!(removed, 1);
        assert_eq!(body, triangles(6, false).body);
    }
}
