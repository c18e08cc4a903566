//! Polyhedral-schedule → loop-AST generation (CLooG-lite).
//!
//! Given new `2d+1` schedules, each statement's iteration domain is mapped
//! into the new loop coordinates (`y = α·x + γ`), and the loop tree is
//! built recursively over the β-interleaving: statements sharing a β
//! prefix share the loops of that prefix. At each loop level the bounds
//! are obtained by Fourier–Motzkin projection of every member statement's
//! transformed domain; when members disagree, the loop takes *union*
//! bounds (verified valid by polyhedral emptiness tests) and each
//! statement keeps its residual constraints as a guard attached to its
//! leaf — the guards-instead-of-separation tradeoff discussed in
//! DESIGN.md.

use polymix_ast::tree::{Bound, BoundExpr, LinExpr, Loop, Node, Par, Program, StmtNode};
use polymix_ir::error::PolymixError;
use polymix_ir::{Schedule, Scop};
use polymix_math::Polyhedron;

/// Generates the loop AST implementing `schedules` (one per statement, in
/// statement order) for `scop`. Schedules outside the generator's
/// documented contract (arity mismatches, β collisions between leaves and
/// deeper statements, fusions with no expressible union bound) are
/// reported as [`PolymixError::Codegen`], never panics — callers degrade
/// to a weaker schedule.
pub fn generate(scop: &Scop, schedules: &[Schedule]) -> Result<Program, PolymixError> {
    if schedules.len() != scop.statements.len() {
        return Err(PolymixError::codegen(
            &scop.name,
            format!(
                "{} schedules for {} statements",
                schedules.len(),
                scop.statements.len()
            ),
        ));
    }
    let p = scop.n_params();
    let mut items: Vec<GenItem> = Vec::with_capacity(schedules.len());
    for (idx, (stmt, sched)) in scop.statements.iter().zip(schedules).enumerate() {
        if let Err(e) = sched.check() {
            return Err(PolymixError::codegen(
                &scop.name,
                format!("invalid schedule for {}: {e}", stmt.name),
            ));
        }
        if sched.dim() != stmt.dim {
            return Err(PolymixError::codegen(
                &scop.name,
                format!(
                    "schedule arity {} for statement {} of depth {}",
                    sched.dim(),
                    stmt.name,
                    stmt.dim
                ),
            ));
        }
        let tdom = sched.transformed_domain(&stmt.domain, p).ok_or_else(|| {
            PolymixError::codegen(
                &scop.name,
                format!("schedule of {} has no integer inverse", stmt.name),
            )
        })?;
        items.push(GenItem {
            stmt_idx: idx,
            dim: stmt.dim,
            sched: sched.clone(),
            tdom,
            guards: Vec::new(),
        });
    }
    let mut gen = Gen {
        scop,
        n_params: p,
        next_var: 0,
    };
    let nodes = gen.build(items, 0, &[])?;
    Ok(Program {
        scop: scop.clone(),
        body: seq_or_single(nodes),
        n_vars: gen.next_var,
        tiling: Vec::new(),
        demoted: 0,
    })
}

/// The identity program: the SCoP under its original schedules. This is
/// the last rung of every fallback chain — original textual order is
/// always legal, so an error here means the SCoP itself is malformed.
pub fn original_program(scop: &Scop) -> Result<Program, PolymixError> {
    let schedules: Vec<Schedule> = scop.statements.iter().map(|s| s.schedule.clone()).collect();
    generate(scop, &schedules)
}

struct GenItem {
    stmt_idx: usize,
    dim: usize,
    sched: Schedule,
    /// Transformed domain over `[y_0..y_{dim-1} | params]`.
    tdom: Polyhedron,
    /// Residual guard expressions accumulated along the path.
    guards: Vec<LinExpr>,
}

struct Gen<'a> {
    scop: &'a Scop,
    n_params: usize,
    next_var: usize,
}

fn seq_or_single(mut nodes: Vec<Node>) -> Node {
    if nodes.len() == 1 {
        match nodes.pop() {
            Some(n) => n,
            None => Node::Seq(nodes),
        }
    } else {
        Node::Seq(nodes)
    }
}

impl Gen<'_> {
    /// Builds the node list for `items` at loop level `k`, with
    /// `outer_vars[j]` the AST variable of loop level `j < k`.
    fn build(
        &mut self,
        items: Vec<GenItem>,
        k: usize,
        outer_vars: &[usize],
    ) -> Result<Vec<Node>, PolymixError> {
        // Group by β_k, keeping ascending β order.
        let mut groups: Vec<(i64, Vec<GenItem>)> = Vec::new();
        for it in items {
            let b = it.sched.beta[k];
            match groups.iter_mut().find(|(v, _)| *v == b) {
                Some((_, g)) => g.push(it),
                None => {
                    groups.push((b, vec![it]));
                }
            }
        }
        groups.sort_by_key(|(b, _)| *b);

        let mut out = Vec::new();
        for (_, group) in groups {
            // Leaves (dim == k) may share a β slot only with other
            // leaves: their timestamps end here, so any relative order is
            // consistent with legality (dependences between them were
            // necessarily satisfied at outer positions); emit them in
            // statement order. A leaf sharing a slot with a *deeper*
            // statement would have ambiguous interleaving — rejected.
            if group.iter().any(|it| it.dim == k) {
                if !group.iter().all(|it| it.dim == k) {
                    return Err(PolymixError::codegen(
                        &self.scop.name,
                        format!(
                            "β collision between a leaf and deeper statements at level {k}"
                        ),
                    ));
                }
                let mut leaves = group;
                leaves.sort_by_key(|it| it.stmt_idx);
                for it in leaves {
                    out.push(self.leaf(it, outer_vars)?);
                }
                continue;
            }
            out.push(self.loop_at(group, k, outer_vars)?);
        }
        Ok(out)
    }

    /// Emits the loop at level `k` for a fused group.
    fn loop_at(
        &mut self,
        mut group: Vec<GenItem>,
        k: usize,
        outer_vars: &[usize],
    ) -> Result<Node, PolymixError> {
        let var = self.next_var;
        self.next_var += 1;
        let mut vars: Vec<usize> = outer_vars.to_vec();
        vars.push(var);

        // Per-statement bounds at this level.
        let mut per_stmt: Vec<StmtBounds> = Vec::new();
        for it in &group {
            // Project the transformed domain onto levels 0..=k (+ params)
            // and drop redundant rows — every surviving bound becomes a
            // max/min term in the generated loop header.
            let proj = it
                .tdom
                .project_keep(k + 1, it.dim)
                .map_err(|e| {
                    PolymixError::codegen(&self.scop.name, format!("loop bounds at level {k}: {e}"))
                })?
                .simplify();
            let b = proj.bounds(k, it.dim);
            let conv = |e: &polymix_math::AffineExpr| -> Result<BoundExpr, PolymixError> {
                Ok(BoundExpr {
                    expr: self.row_to_linexpr(&e.row, &vars, it.dim)?,
                    denom: e.denom,
                })
            };
            per_stmt.push(StmtBounds {
                lower: b.lower.iter().map(conv).collect::<Result<_, _>>()?,
                upper: b.upper.iter().map(conv).collect::<Result<_, _>>()?,
            });
        }

        // Union bounds: candidate expressions valid for every statement.
        let all_same = per_stmt
            .windows(2)
            .all(|w| w[0].lower == w[1].lower && w[0].upper == w[1].upper);
        let (lo, hi) = if all_same {
            (
                Bound {
                    exprs: per_stmt[0].lower.clone(),
                },
                Bound {
                    exprs: per_stmt[0].upper.clone(),
                },
            )
        } else {
            let (lo, hi) = self.union_bounds(&group, k, &per_stmt, &vars)?;
            // Residual guards: each statement keeps the bounds the union
            // loop does not already enforce. A bound expression that is
            // *itself* part of the chosen union bound is redundant — the
            // loop clamps to it for every statement — so only the
            // genuinely narrower constraints survive as guards.
            for (it, b) in group.iter_mut().zip(&per_stmt) {
                for be in &b.lower {
                    if lo.exprs.contains(be) {
                        continue;
                    }
                    // y_k >= ceil(e/q)  ⇔  q·y_k - e >= 0
                    let g = LinExpr::var(var)
                        .scale(be.denom)
                        .add_scaled(&be.expr, -1);
                    if !it.guards.contains(&g) {
                        it.guards.push(g);
                    }
                }
                for be in &b.upper {
                    if hi.exprs.contains(be) {
                        continue;
                    }
                    // y_k <= floor(e/q)  ⇔  e - q·y_k >= 0
                    let g = be.expr.add_scaled(&LinExpr::var(var).scale(be.denom), -1);
                    if !it.guards.contains(&g) {
                        it.guards.push(g);
                    }
                }
            }
            (lo, hi)
        };

        let body_nodes = self.build(group, k + 1, &vars)?;
        Ok(Node::loop_(Loop {
            var,
            name: format!("c{}", k + 1),
            lo,
            hi,
            step: 1,
            par: Par::Seq,
            jam: 1,
            body: seq_or_single(body_nodes),
        }))
    }

    /// Finds valid union bounds from the per-statement candidates: a
    /// lower (upper) candidate is kept when it bounds *every* statement's
    /// domain, verified by an emptiness query. When one side has no
    /// direct candidate (e.g. fusing a reversed loop with a forward one),
    /// a sound bound is synthesized from the other side:
    /// `Σ_s l_s − (n−1)·u` is ≤ every `l_s` whenever `u ≥ every l_s`
    /// (and dually for uppers), so any valid opposite-side bound closes
    /// the gap. Errors only when *neither* side has a direct candidate.
    fn union_bounds(
        &self,
        group: &[GenItem],
        k: usize,
        per_stmt: &[StmtBounds],
        vars: &[usize],
    ) -> Result<(Bound, Bound), PolymixError> {
        let collect = |lower: bool| -> Vec<BoundExpr> {
            let mut valid: Vec<BoundExpr> = Vec::new();
            let mut candidates: Vec<(usize, BoundExpr)> = Vec::new();
            for (si, b) in per_stmt.iter().enumerate() {
                let list = if lower { &b.lower } else { &b.upper };
                for be in list {
                    candidates.push((si, be.clone()));
                }
            }
            'cand: for (origin, be) in &candidates {
                for (si, it) in group.iter().enumerate() {
                    if si == *origin {
                        continue;
                    }
                    if !self.expr_bounds_stmt(it, k, be, lower, vars) {
                        continue 'cand;
                    }
                }
                if !valid.contains(be) {
                    valid.push(be.clone());
                }
            }
            valid
        };
        let mut lows = collect(true);
        let mut ups = collect(false);
        let n = group.len() as i64;
        let fail = |detail: String| PolymixError::codegen(&self.scop.name, detail);
        let synth = |own_first: &dyn Fn(&StmtBounds) -> Option<&BoundExpr>,
                     other: &BoundExpr|
         -> Result<BoundExpr, PolymixError> {
            let mut e = LinExpr::con(0);
            for b in per_stmt {
                let be = own_first(b)
                    .ok_or_else(|| fail(format!("statement without bound at level {k}")))?;
                if be.denom != 1 {
                    return Err(fail(format!("divided bound in union fallback at level {k}")));
                }
                e = e.add(&be.expr);
            }
            if other.denom != 1 {
                return Err(fail(format!("divided bound in union fallback at level {k}")));
            }
            e = e.add_scaled(&other.expr, -(n - 1));
            Ok(BoundExpr { expr: e, denom: 1 })
        };
        if lows.is_empty() {
            let u = ups
                .first()
                .ok_or_else(|| {
                    fail(format!("union bounds: no candidate on either side at level {k}"))
                })?
                .clone();
            let cand = synth(&|b: &StmtBounds| b.lower.first(), &u)?;
            let ok = group
                .iter()
                .all(|it| self.expr_bounds_stmt(it, k, &cand, true, vars));
            if !ok {
                return Err(fail(format!(
                    "synthesized union lower bound invalid at level {k}"
                )));
            }
            lows.push(cand);
        }
        if ups.is_empty() {
            let l = match lows.first() {
                Some(l) => l.clone(),
                None => {
                    return Err(fail(format!(
                        "union bounds: no candidate on either side at level {k}"
                    )))
                }
            };
            let cand = synth(&|b: &StmtBounds| b.upper.first(), &l)?;
            let ok = group
                .iter()
                .all(|it| self.expr_bounds_stmt(it, k, &cand, false, vars));
            if !ok {
                return Err(fail(format!(
                    "synthesized union upper bound invalid at level {k}"
                )));
            }
            ups.push(cand);
        }
        Ok((Bound { exprs: lows }, Bound { exprs: ups }))
    }

    /// back to domain-space rows through the level↔var mapping.
    fn expr_bounds_stmt(
        &self,
        it: &GenItem,
        k: usize,
        be: &BoundExpr,
        lower: bool,
        vars: &[usize],
    ) -> bool {
        let d = it.dim;
        let n = d + self.n_params;
        // Row for e over [y | params | 1].
        let mut e_row = vec![0i64; n + 1];
        for &(v, c) in &be.expr.var_coeffs {
            let Some(level) = vars.iter().position(|&x| x == v) else {
                return false; // references a variable outside this nest
            };
            if level >= d {
                return false;
            }
            e_row[level] += c;
        }
        for &(p, c) in &be.expr.param_coeffs {
            e_row[d + p] += c;
        }
        e_row[n] += be.expr.c;
        // Violation system: q·y_k < e (lower) / q·y_k > e (upper), i.e.
        // e - q·y_k >= 1 / <= -1.
        e_row[k] -= be.denom;
        let viol = if lower {
            it.tdom.and_ge(&e_row, 1)
        } else {
            it.tdom.and_le(&e_row, -1)
        };
        viol.is_empty()
    }

    /// Emits the leaf for one statement: the `Stmt` node with its inverse-
    /// schedule iterator expressions, wrapped in residual guards if any.
    fn leaf(&mut self, it: GenItem, outer_vars: &[usize]) -> Result<Node, PolymixError> {
        let d = it.dim;
        if outer_vars.len() < d {
            return Err(PolymixError::codegen(
                &self.scop.name,
                format!("statement {} deeper than its loop path", it.stmt_idx),
            ));
        }
        // x = α⁻¹ (y - γ).
        let iter_exprs: Vec<LinExpr> = if d == 0 {
            Vec::new()
        } else {
            let ainv = it.sched.alpha.inverse_unimodular().ok_or_else(|| {
                PolymixError::codegen(
                    &self.scop.name,
                    format!("schedule of statement {} has no integer inverse", it.stmt_idx),
                )
            })?;
            (0..d)
                .map(|i| {
                    let mut e = LinExpr::con(0);
                    for j in 0..d {
                        let a = ainv[(i, j)];
                        if a == 0 {
                            continue;
                        }
                        e = e.add_scaled(&LinExpr::var(outer_vars[j]), a);
                        // minus a * γ_j
                        for (pk, &g) in it.sched.gamma[j][..self.n_params].iter().enumerate() {
                            if g != 0 {
                                e = e.add_scaled(&LinExpr::param(pk), -a * g);
                            }
                        }
                        e = e.plus(-a * it.sched.gamma[j][self.n_params]);
                    }
                    e
                })
                .collect()
        };
        let stmt = Node::Stmt(StmtNode {
            stmt_idx: it.stmt_idx,
            iter_exprs,
        });
        Ok(if it.guards.is_empty() {
            stmt
        } else {
            Node::Guard(it.guards, Box::new(stmt))
        })
    }

    /// Converts a projected-bound row over `[y_0..y_{d-1} | params | 1]`
    /// into a `LinExpr` over the outer AST variables.
    fn row_to_linexpr(
        &self,
        row: &[i64],
        vars: &[usize],
        d: usize,
    ) -> Result<LinExpr, PolymixError> {
        let mut e = LinExpr::con(row[d + self.n_params]);
        for (level, &c) in row[..d].iter().enumerate() {
            if c != 0 {
                if level >= vars.len() {
                    return Err(PolymixError::codegen(
                        &self.scop.name,
                        format!("bound references not-yet-generated level {level}"),
                    ));
                }
                e = e.add_scaled(&LinExpr::var(vars[level]), c);
            }
        }
        for (pk, &c) in row[d..d + self.n_params].iter().enumerate() {
            if c != 0 {
                e = e.add_scaled(&LinExpr::param(pk), c);
            }
        }
        Ok(e)
    }
}

/// Per-statement lower/upper bound expressions at one loop level.
struct StmtBounds {
    lower: Vec<BoundExpr>,
    upper: Vec<BoundExpr>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymix_ast::interp::{alloc_arrays, execute};
    use polymix_ast::pretty::render;
    use polymix_ir::builder::{con, ix, par, ScopBuilder};
    use polymix_ir::{BinOp, Expr};

    fn matmul_scop() -> Scop {
        let mut b = ScopBuilder::new("mm", &["N"], &[5]);
        let c = b.array("C", &["N", "N"]);
        let a = b.array("A", &["N", "N"]);
        let bb = b.array("B", &["N", "N"]);
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        b.stmt("Z", c, &[ix("i"), ix("j")], Expr::Const(0.0));
        b.enter("k", con(0), par("N"));
        let prod = Expr::mul(b.rd(a, &[ix("i"), ix("k")]), b.rd(bb, &[ix("k"), ix("j")]));
        b.stmt_update("U", c, &[ix("i"), ix("j")], BinOp::Add, prod);
        b.exit();
        b.exit();
        b.exit();
        b.finish().expect("well-formed SCoP")
    }

    fn run(scop: &Scop, schedules: &[Schedule], n: i64) -> Vec<Vec<f64>> {
        let prog = generate(scop, schedules).expect("generate");
        let mut arrays = alloc_arrays(scop, &[n]);
        // Initialize inputs deterministically.
        for (ai, arr) in arrays.iter_mut().enumerate() {
            for (k, x) in arr.iter_mut().enumerate() {
                *x = ((ai * 31 + k * 7) % 13) as f64;
            }
        }
        execute(&prog, &[n], &mut arrays);
        arrays
    }

    #[test]
    fn identity_schedule_reproduces_original_semantics() {
        let scop = matmul_scop();
        let schedules: Vec<Schedule> =
            scop.statements.iter().map(|s| s.schedule.clone()).collect();
        let out = run(&scop, &schedules, 5);
        // Spot-check one element against a direct computation.
        let n = 5usize;
        let at = |ai: usize, i: usize, j: usize| ((ai * 31 + (i * n + j) * 7) % 13) as f64;
        let mut c00 = 0.0;
        for k in 0..n {
            c00 += at(1, 0, k) * at(2, k, 0);
        }
        assert_eq!(out[0][0], c00);
    }

    #[test]
    fn permuted_schedule_gives_same_result() {
        let scop = matmul_scop();
        let p = 1;
        let mut schedules: Vec<Schedule> =
            scop.statements.iter().map(|s| s.schedule.clone()).collect();
        // Distribute Z from U (Z must finish zeroing before any permuted
        // U instance touches a cell), then permute U's loops to (k, i, j).
        // Per C-cell the k order stays increasing in every permutation, so
        // the f64 result is bit-identical to the original.
        schedules[0].beta = vec![0, 0, 0];
        schedules[1] = Schedule {
            beta: vec![1, 0, 0, 0],
            ..Schedule::from_permutation(&[2, 0, 1], p)
        };
        let base: Vec<Schedule> = scop.statements.iter().map(|s| s.schedule.clone()).collect();
        let a = run(&scop, &base, 5);
        let b = run(&scop, &schedules, 5);
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn distribution_via_beta_change() {
        let scop = matmul_scop();
        // Distribute Z and U into separate nests: Z gets β0 = 0, U β0 = 1.
        let mut schedules: Vec<Schedule> =
            scop.statements.iter().map(|s| s.schedule.clone()).collect();
        schedules[0].beta = vec![0, 0, 0];
        schedules[1].beta = vec![1, 0, 0, 0];
        let base: Vec<Schedule> = scop.statements.iter().map(|s| s.schedule.clone()).collect();
        let a = run(&scop, &base, 4);
        let b = run(&scop, &schedules, 4);
        assert_eq!(a[0], b[0]);
        // The rendered tree must have two top-level loops.
        let prog = generate(&scop, &schedules).expect("generate");
        let txt = render(&prog);
        assert_eq!(txt.matches("for c1 =").count(), 2, "{txt}");
    }

    #[test]
    fn shifted_fusion_generates_union_bounds_and_guards() {
        // Two statements over i in [0,N) fused with U shifted by +2:
        // loop runs [0, N+1] with guards.
        let mut b = ScopBuilder::new("shift", &["N"], &[6]);
        let x = b.array("X", &["N"]);
        let y = b.array_dims("Y", vec![par("N") + con(2)]);
        b.enter("i", con(0), par("N"));
        b.stmt("P", x, &[ix("i")], Expr::Const(3.0));
        b.exit();
        b.enter("i", con(0), par("N"));
        let rd = b.rd(x, &[ix("i")]);
        b.stmt("Q", y, &[ix("i") + con(2)], rd);
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let mut schedules: Vec<Schedule> =
            scop.statements.iter().map(|s| s.schedule.clone()).collect();
        // Fuse (same β) with Q shifted by +2: Q(i) runs at time i+2.
        schedules[0].beta = vec![0, 0];
        schedules[1].beta = vec![0, 1];
        schedules[1].shift_level(0, &[0], 2);
        let prog = generate(&scop, &schedules).expect("generate");
        let txt = render(&prog);
        assert_eq!(txt.matches("for c1 =").count(), 1, "{txt}");
        assert!(txt.contains("if"), "expected guards: {txt}");
        // Semantics: Y[i+2] = X[i] = 3 for all i; but X[i] is written at
        // time i and read at time i+2 — the shift keeps the order legal.
        let mut arrays = alloc_arrays(&scop, &[6]);
        execute(&prog, &[6], &mut arrays);
        assert_eq!(arrays[0], vec![3.0; 6]);
        assert_eq!(arrays[1][2..8], vec![3.0; 6][..]);
    }

    #[test]
    fn original_program_roundtrip_depth() {
        let scop = matmul_scop();
        let prog = original_program(&scop).expect("generate");
        let txt = render(&prog);
        // One outer i loop, one j loop, Z leaf, one k loop, U leaf.
        assert_eq!(txt.matches("for").count(), 3, "{txt}");
        assert_eq!(prog.body.count_stmts(), 2);
    }

    #[test]
    fn reversal_schedule_executes_correctly() {
        // for i: X[i] = i  reversed still writes every cell.
        let mut b = ScopBuilder::new("rev", &["N"], &[7]);
        let x = b.array("X", &["N"]);
        b.enter("i", con(0), par("N"));
        b.stmt("S", x, &[ix("i")], Expr::Iter(0));
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let mut schedules: Vec<Schedule> =
            scop.statements.iter().map(|s| s.schedule.clone()).collect();
        schedules[0].reverse_level(0);
        let prog = generate(&scop, &schedules).expect("generate");
        let mut arrays = alloc_arrays(&scop, &[7]);
        execute(&prog, &[7], &mut arrays);
        assert_eq!(arrays[0], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn skewed_schedule_generates_triangular_bounds() {
        // 2-D nest skewed: y1 = i + j.
        let mut b = ScopBuilder::new("skew", &["N"], &[4]);
        let a = b.array("A", &["N", "N"]);
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        let rd = b.rd(a, &[ix("i"), ix("j")]);
        let body = Expr::add(rd, Expr::Const(1.0));
        b.stmt("S", a, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let mut schedules: Vec<Schedule> =
            scop.statements.iter().map(|s| s.schedule.clone()).collect();
        schedules[0].skew(1, 0, 1);
        let prog = generate(&scop, &schedules).expect("generate");
        let mut arrays = alloc_arrays(&scop, &[4]);
        execute(&prog, &[4], &mut arrays);
        assert_eq!(arrays[0], vec![1.0; 16]);
        let txt = render(&prog);
        assert!(txt.contains("c1"), "{txt}");
    }
}
