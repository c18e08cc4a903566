//! Flattening the transformed AST into per-statement *occurrences*.
//!
//! An occurrence is one textual copy of a statement (distribution creates
//! several; register tiling does not, since a jam's replicas are written
//! by the emitter, not held in the tree) together with its root path —
//! the exact sequence of `Seq` branches, loops and guards above it — and the
//! statement's `iter_exprs`, which express the *original* iterators as
//! affine functions of the AST loop variables. Inverting that system
//! recovers each AST variable as an affine function of the original
//! iteration vector, i.e. the row of the composed schedule the loop
//! materializes. Variables that cannot be recovered (tile controllers,
//! whose value is a floor of a point variable) stay unsolved and are
//! handled conservatively by the walker.

use polymix_ast::tree::{LinExpr, Loop, Node, Par, Program};
use polymix_math::gcd;
use std::collections::HashMap;

/// Identity and shape of one loop on a root path.
#[derive(Clone, Debug)]
pub(crate) struct LoopMeta {
    /// Pre-order id: two occurrences are under the same loop iff the ids
    /// at the same path position match.
    pub id: usize,
    /// AST variable the loop binds.
    pub var: usize,
    /// Display name.
    pub name: String,
    /// Step (strictly positive).
    pub step: i64,
    /// Parallel annotation.
    pub par: Par,
    /// Unroll-and-jam factor (1: none).
    pub jam: i64,
    /// The loop's bounds as `expr ≥ 0` rows over AST variables
    /// (`d·var - lo ≥ 0`, `hi - d·var ≥ 0`): which instances a copy of a
    /// statement under it runs, when a split loop left several (empty in
    /// a program where every statement occurs once).
    pub range: Vec<LinExpr>,
    /// Variables of the enclosing loops that clamp this one to one of
    /// their tiles (`Loop::clamped_by`): how the walker picks the proxy
    /// row for an unsolvable tile level. A loop whose bounds merely
    /// mention a controller (an interchanged point loop of another
    /// level) is not its proxy.
    pub clamped_by: Vec<usize>,
}

/// One step of a root path.
#[derive(Clone, Debug)]
pub(crate) enum PStep {
    /// `child`-th child of the `Seq` node `id`; `loop_sib` is the
    /// position among the Seq's *loop* children when this child is a
    /// loop (the emitter's fused-sibling phase index).
    Seq {
        id: usize,
        child: usize,
        loop_sib: Option<usize>,
    },
    Loop(LoopMeta),
    /// Guard: the subtree runs iff every expression is `>= 0`.
    Guard { exprs: Vec<LinExpr> },
}

/// One textual occurrence of a statement in the transformed program.
#[derive(Clone, Debug)]
pub(crate) struct Occurrence {
    /// Index into `scop.statements`.
    pub stmt: usize,
    /// Whether the statement has other occurrences: then each runs only
    /// the instances its loops' ranges admit (guard separation splits a
    /// loop into pieces that share their body).
    pub copied: bool,
    pub path: Vec<PStep>,
    pub iter_exprs: Vec<LinExpr>,
    /// AST var -> statement-local affine row `[x_0..x_{dim-1} | params | 1]`
    /// recovering the variable's value from the original iteration
    /// vector. Unsolvable vars (tile controllers) are absent.
    pub solved: HashMap<usize, Vec<i64>>,
}

impl Occurrence {
    /// The ids of the jammed loops above the occurrence.
    pub fn jams(&self) -> impl Iterator<Item = usize> + '_ {
        self.path.iter().filter_map(|s| match s {
            PStep::Loop(l) if l.jam > 1 => Some(l.id),
            _ => None,
        })
    }
}

/// Collects every statement occurrence of the program body.
pub(crate) fn collect(prog: &Program, n_params: usize) -> Vec<Occurrence> {
    let mut out = Vec::new();
    let mut path = Vec::new();
    let mut next_id = 0usize;
    // Loop ranges are kept only where some statement has several copies.
    let mut seen = Vec::new();
    let mut copies = false;
    prog.body.visit_stmts(&mut |s| {
        copies |= seen.contains(&s.stmt_idx);
        seen.push(s.stmt_idx);
    });
    walk(&prog.body, copies, &mut path, &mut next_id, &mut out);
    let stmts: Vec<usize> = out.iter().map(|o| o.stmt).collect();
    for occ in &mut out {
        occ.solved = solve(&occ.iter_exprs, n_params);
        occ.copied = stmts.iter().filter(|&&s| s == occ.stmt).count() > 1;
    }
    out
}

/// The bounds of `l` as `expr ≥ 0` rows: `d·var - e` for each lower bound
/// `e / d`, `e - d·var` for each upper one.
fn range(l: &Loop) -> Vec<LinExpr> {
    let var = LinExpr::var(l.var);
    let lower = l.lo.exprs.iter().map(|be| var.scale(be.denom).add_scaled(&be.expr, -1));
    let upper = l.hi.exprs.iter().map(|be| be.expr.add_scaled(&var, -be.denom));
    lower.chain(upper).collect()
}

fn walk(node: &Node, copies: bool, path: &mut Vec<PStep>, next_id: &mut usize, out: &mut Vec<Occurrence>) {
    match node {
        Node::Seq(xs) => {
            let id = *next_id;
            *next_id += 1;
            let mut sib = 0usize;
            for (child, x) in xs.iter().enumerate() {
                let loop_sib = if matches!(x, Node::Loop(_)) {
                    let s = sib;
                    sib += 1;
                    Some(s)
                } else {
                    None
                };
                path.push(PStep::Seq {
                    id,
                    child,
                    loop_sib,
                });
                walk(x, copies, path, next_id, out);
                path.pop();
            }
        }
        Node::Loop(l) => {
            let id = *next_id;
            *next_id += 1;
            let clamped_by = path
                .iter()
                .filter_map(|s| match s {
                    PStep::Loop(t) if l.clamped_by(t.var, t.step) => Some(t.var),
                    _ => None,
                })
                .collect();
            path.push(PStep::Loop(LoopMeta {
                id,
                var: l.var,
                name: l.name.clone(),
                step: l.step.max(1),
                par: l.par.clone(),
                jam: l.jam,
                range: if copies { range(l) } else { Vec::new() },
                clamped_by,
            }));
            walk(&l.body, copies, path, next_id, out);
            path.pop();
        }
        Node::Guard(exprs, body) => {
            path.push(PStep::Guard {
                exprs: exprs.clone(),
            });
            walk(body, copies, path, next_id, out);
            path.pop();
        }
        Node::Stmt(s) => {
            out.push(Occurrence {
                stmt: s.stmt_idx,
                copied: false,
                path: path.clone(),
                iter_exprs: s.iter_exprs.clone(),
                solved: HashMap::new(),
            });
        }
    }
}

/// One equation of [`solve`]: AST-variable coefficients and the
/// `[x | params | 1]` row they equal.
type Equation = (Vec<i64>, Vec<i64>);

/// `row · p − pivot · c` for the coefficients `p` and `c` of column
/// `col` in `pivot` and `row`: the row with that column eliminated,
/// divided by the gcd of its entries; `None` when a product or a
/// difference overflows.
fn eliminate(row: &Equation, pivot: &Equation, col: usize) -> Option<Equation> {
    let (p, c) = (pivot.0[col], row.0[col]);
    let comb = |a: &[i64], b: &[i64]| -> Option<Vec<i64>> {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| x.checked_mul(p)?.checked_sub(y.checked_mul(c)?))
            .collect()
    };
    let (mut a, mut r) = (comb(&row.0, &pivot.0)?, comb(&row.1, &pivot.1)?);
    let g = a.iter().chain(&r).fold(0, |g, &x| gcd(g, x));
    if g > 1 {
        for x in a.iter_mut().chain(r.iter_mut()) {
            *x /= g;
        }
    }
    Some((a, r))
}

/// The equation `sum_v a_mv * v = x_m - params_m - c_m` of original
/// iterator `m`; `None` when a coefficient overflows.
fn equation(m: usize, e: &LinExpr, vars: &[usize], dim: usize, n_params: usize) -> Option<Equation> {
    let mut a = vec![0i64; vars.len()];
    for &(v, c) in &e.var_coeffs {
        if let Some(j) = vars.iter().position(|&x| x == v) {
            a[j] = a[j].checked_add(c)?;
        }
    }
    let mut r = vec![0i64; dim + n_params + 1];
    r[m] = 1;
    for &(p, c) in &e.param_coeffs {
        if p < n_params {
            r[dim + p] = r[dim + p].checked_sub(c)?;
        }
    }
    r[dim + n_params] = e.c.checked_neg()?;
    Some((a, r))
}

/// Inverts `iter_exprs` (original iterators as affine functions of the
/// AST vars) by fraction-free Gauss-Jordan elimination, returning each
/// AST var as an integer affine row over `[x | params | 1]` where
/// possible. Every product and remainder is checked: an equation whose
/// elimination overflows is dropped, so the variables it would have
/// determined stay unsolved, never wrongly solved.
fn solve(iter_exprs: &[LinExpr], n_params: usize) -> HashMap<usize, Vec<i64>> {
    let dim = iter_exprs.len();
    let mut vars: Vec<usize> = Vec::new();
    for e in iter_exprs {
        for &(v, c) in &e.var_coeffs {
            if c != 0 && !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    // One equation per original iterator; `None` once dropped.
    let mut rows: Vec<Option<Equation>> = iter_exprs
        .iter()
        .enumerate()
        .map(|(m, e)| equation(m, e, &vars, dim, n_params))
        .collect();
    let mut pivot_of: Vec<Option<usize>> = vec![None; vars.len()];
    let mut used = vec![false; rows.len()];
    for (col, pivot_row) in pivot_of.iter_mut().enumerate() {
        let Some((pr, pivot)) = rows.iter().enumerate().find_map(|(i, r)| {
            let r = r.as_ref().filter(|r| !used[i] && r.0[col] != 0)?;
            Some((i, r.clone()))
        }) else {
            continue;
        };
        used[pr] = true;
        *pivot_row = Some(pr);
        for (i, row) in rows.iter_mut().enumerate() {
            if let Some(r) = row.as_ref().filter(|r| i != pr && r.0[col] != 0) {
                *row = eliminate(r, &pivot, col);
            }
        }
    }
    let mut out = HashMap::new();
    for (col, &v) in vars.iter().enumerate() {
        let Some((a, r)) = pivot_of[col].and_then(|pr| rows[pr].as_ref()) else {
            continue;
        };
        let p = a[col];
        // Determined only when no free column leaks into the pivot row
        // and the solution is integral.
        if p == 0 || a.iter().enumerate().any(|(j, &c)| j != col && c != 0) {
            continue;
        }
        let exact: Option<Vec<i64>> = r
            .iter()
            .map(|&x| (x.checked_rem(p)? == 0).then(|| x / p))
            .collect();
        if let Some(row) = exact {
            out.insert(v, row);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymix_ast::tree::LinExpr;

    #[test]
    fn solve_inverts_skew_and_unroll_shifts() {
        // x0 = u, x1 = w - 2u (skew by 2), so u = x0, w = x1 + 2*x0.
        let e0 = LinExpr::var(7);
        let mut e1 = LinExpr::var(9);
        e1 = e1.add_scaled(&LinExpr::var(7), -2);
        let solved = solve(&[e0, e1], 1);
        assert_eq!(solved.get(&7), Some(&vec![1, 0, 0, 0]));
        assert_eq!(solved.get(&9), Some(&vec![2, 1, 0, 0]));
        // A shifted iterator: x0 = v + 3  =>  v = x0 - 3.
        let e = LinExpr::var(4).plus(3);
        let solved = solve(&[e], 0);
        assert_eq!(solved.get(&4), Some(&vec![1, -3]));
    }

    /// `x_m = sum_v c·v + k` for each `(terms, k)`.
    fn system(eqs: &[(&[(usize, i64)], i64)]) -> Vec<LinExpr> {
        eqs.iter()
            .map(|&(terms, c)| LinExpr {
                var_coeffs: terms.to_vec(),
                param_coeffs: Vec::new(),
                c,
            })
            .collect()
    }

    const BIG: i64 = (1 << 62) - 1;

    /// Exact elimination determines no variable here (two equations,
    /// and no unit vector lies in the row space of the coefficients);
    /// wrapping arithmetic "solved" `v0 = 1 - x1`.
    #[test]
    fn an_overflowing_elimination_solves_nothing_wrongly() {
        let eqs = system(&[
            (&[(0, -2), (1, -(1 << 40)), (2, 1 << 40)], 0),
            (&[(0, BIG), (2, 1 << 32)], 1),
        ]);
        assert_eq!(solve(&eqs, 0), HashMap::new());
    }

    /// The exact inverse has a denominator near 5·10^30, so no variable
    /// is an integer row; unchecked elimination ended in `i64::MIN % -1`.
    #[test]
    fn an_overflowing_remainder_is_not_an_abort() {
        let eqs = system(&[
            (&[(0, -2), (2, BIG)], 2),
            (&[(0, -2), (1, 1), (2, -1)], 2),
            (&[(1, 1 << 40), (2, -1)], 2),
        ]);
        assert_eq!(solve(&eqs, 0), HashMap::new());
    }

    #[test]
    fn tile_controllers_stay_unsolved() {
        // x0 = v only; tile var 5 never appears => absent.
        let solved = solve(&[LinExpr::var(2)], 0);
        assert!(solved.contains_key(&2));
        assert!(!solved.contains_key(&5));
    }
}
