//! Dependence polyhedra and the polyhedral dependence graph (PoDG).

use polymix_ir::schedule::Schedule;
use polymix_ir::scop::{Access, ArrayId, Scop, Statement, StmtId};
use polymix_math::{CmpOp, Constraint, Polyhedron};

/// Classification of a data dependence by access kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// write → read (true / RAW).
    Flow,
    /// read → write (WAR).
    Anti,
    /// write → write (WAW).
    Output,
}

/// One dependence polyhedron: all pairs `(x_src, y_dst)` of dependent
/// instances of the two statements, already restricted to pairs ordered
/// `src before dst` by the original schedules.
#[derive(Clone, Debug)]
pub struct Dep {
    /// Source statement.
    pub src: StmtId,
    /// Target statement.
    pub dst: StmtId,
    /// Kind by access classes.
    pub kind: DepKind,
    /// The array both conflicting accesses touch.
    pub array: ArrayId,
    /// Source statement depth.
    pub src_dim: usize,
    /// Target statement depth.
    pub dst_dim: usize,
    /// The dependence polyhedron over `[x_src | y_dst | params]`.
    pub poly: Polyhedron,
    /// True when the conflicting accesses are both the lhs location of a
    /// reduction-shaped update of the *same* statement (`A[f] ⊕= e`); such
    /// self-dependences may be relaxed by reduction parallelization.
    pub is_reduction: bool,
}

impl Dep {
    /// Lifts a source-statement-local affine row (`[x | params | 1]`) into
    /// the dependence space (`[x | y | params | 1]`).
    pub fn lift_src_row(&self, row: &[i64]) -> Vec<i64> {
        lift_row(row, self.src_dim, self.dst_dim, /*is_src=*/ true)
    }

    /// Lifts a target-statement-local affine row into the dependence space.
    pub fn lift_dst_row(&self, row: &[i64]) -> Vec<i64> {
        lift_row(row, self.dst_dim, self.src_dim, /*is_src=*/ false)
    }

    /// The affine row (dependence space) computing
    /// `dst_expr(y) - src_expr(x)` for two statement-local rows.
    pub fn diff_row(&self, src_row: &[i64], dst_row: &[i64]) -> Vec<i64> {
        let a = self.lift_src_row(src_row);
        let b = self.lift_dst_row(dst_row);
        a.iter().zip(&b).map(|(s, d)| d - s).collect()
    }
}

/// Lifts a statement-local row into dependence space. `own_dim` is the
/// depth of the statement the row belongs to, `other_dim` the depth of the
/// other side.
fn lift_row(row: &[i64], own_dim: usize, other_dim: usize, is_src: bool) -> Vec<i64> {
    let tail = row.len() - own_dim; // params + 1
    let n = own_dim + other_dim + tail;
    let mut out = vec![0i64; n];
    let own_off = if is_src { 0 } else { other_dim };
    out[own_off..own_off + own_dim].copy_from_slice(&row[..own_dim]);
    out[own_dim + other_dim..].copy_from_slice(&row[own_dim..]);
    out
}

/// The polyhedral dependence multigraph of a SCoP.
#[derive(Clone, Debug)]
pub struct Podg {
    /// Number of statements (nodes).
    pub n_stmts: usize,
    /// All dependence edges.
    pub deps: Vec<Dep>,
}

impl Podg {
    /// Edges outgoing from `s`.
    pub fn from(&self, s: StmtId) -> impl Iterator<Item = &Dep> {
        self.deps.iter().filter(move |d| d.src == s)
    }

    /// All edges between the two (unordered) statement sets.
    pub fn between<'a>(
        &'a self,
        a: &'a [StmtId],
        b: &'a [StmtId],
    ) -> impl Iterator<Item = &'a Dep> {
        self.deps.iter().filter(move |d| {
            (a.contains(&d.src) && b.contains(&d.dst))
                || (b.contains(&d.src) && a.contains(&d.dst))
        })
    }
}

/// Builds every dependence polyhedron of the SCoP under the statements'
/// *original* schedules: for each pair of accesses to the same array with
/// at least one write, and each lexicographic order branch, the polyhedron
/// conjoins both domains, subscript equality, and the precedence
/// constraint; nonempty systems become edges.
pub fn build_podg(scop: &Scop) -> Podg {
    let mut deps = Vec::new();
    let p = scop.n_params();
    for (si, s_src) in scop.statements.iter().enumerate() {
        for (sj, s_dst) in scop.statements.iter().enumerate() {
            for (a_src, w_src) in s_src.accesses() {
                for (a_dst, w_dst) in s_dst.accesses() {
                    if !w_src && !w_dst {
                        continue;
                    }
                    if a_src.array != a_dst.array {
                        continue;
                    }
                    let kind = match (w_src, w_dst) {
                        (true, true) => DepKind::Output,
                        (true, false) => DepKind::Flow,
                        (false, true) => DepKind::Anti,
                        (false, false) => unreachable!(),
                    };
                    let is_reduction = si == sj
                        && s_src.is_reduction_update()
                        && a_src.map == s_src.write.map
                        && a_dst.map == s_src.write.map
                        && a_src.array == s_src.write.array;
                    deps.extend(deps_for_pair(
                        scop,
                        StmtId(si),
                        StmtId(sj),
                        s_src,
                        s_dst,
                        &a_src,
                        &a_dst,
                        kind,
                        is_reduction,
                        p,
                    ));
                }
            }
        }
    }
    Podg {
        n_stmts: scop.statements.len(),
        deps,
    }
}

/// Builds the dependence polyhedra (one per order branch) for one access
/// pair, keeping only the nonempty ones.
#[allow(clippy::too_many_arguments)]
fn deps_for_pair(
    scop: &Scop,
    src: StmtId,
    dst: StmtId,
    s_src: &Statement,
    s_dst: &Statement,
    a_src: &Access,
    a_dst: &Access,
    kind: DepKind,
    is_reduction: bool,
    p: usize,
) -> Vec<Dep> {
    let (dr, ds) = (s_src.dim, s_dst.dim);
    let n = dr + ds + p;

    // Base system: both domains + subscript equality.
    let mut base = Polyhedron::universe(n);
    for c in s_src.domain.constraints() {
        base.add(Constraint {
            row: lift_row(c.row, dr, ds, true),
            op: c.op,
        });
    }
    for c in s_dst.domain.constraints() {
        base.add(Constraint {
            row: lift_row(c.row, ds, dr, false),
            op: c.op,
        });
    }
    debug_assert_eq!(a_src.map.len(), a_dst.map.len(), "array rank mismatch");
    for (r_src, r_dst) in a_src.map.iter().zip(&a_dst.map) {
        let s_row = lift_row(r_src, dr, ds, true);
        let d_row = lift_row(r_dst, ds, dr, false);
        let eq: Vec<i64> = d_row.iter().zip(&s_row).map(|(d, s)| d - s).collect();
        base.add(Constraint {
            row: eq,
            op: CmpOp::Eq,
        });
    }
    if base.is_empty() {
        return Vec::new();
    }

    // Precedence branches along the original 2d+1 timestamps.
    let sch_src = &s_src.schedule;
    let sch_dst = &s_dst.schedule;
    let mut out = Vec::new();
    let mut prefix = base; // accumulates equalities of already-walked positions
    let max_pos = 2 * dr.max(ds) + 1;
    for pos in 0..max_pos {
        if pos % 2 == 0 {
            // β position pos/2.
            let k = pos / 2;
            let (bs, bd) = (beta_at(sch_src, k), beta_at(sch_dst, k));
            match bs.cmp(&bd) {
                std::cmp::Ordering::Less => {
                    // src statically before dst: everything remaining is a dep.
                    if !prefix.is_empty() {
                        out.push(Dep {
                            src,
                            dst,
                            kind,
                            array: a_src.array,
                            src_dim: dr,
                            dst_dim: ds,
                            poly: prefix.clone(),
                            is_reduction,
                        });
                    }
                    return out;
                }
                std::cmp::Ordering::Greater => {
                    // src statically after dst at this level: no more deps.
                    return out;
                }
                std::cmp::Ordering::Equal => {}
            }
        } else {
            // Loop position k = (pos-1)/2; may be exhausted on either side.
            let k = (pos - 1) / 2;
            if k >= dr || k >= ds {
                // One side ran out of loops: order decided by remaining β
                // comparisons only; continue the walk (β positions handle it).
                continue;
            }
            let row_s = lift_row(&sched_loop_row(sch_src, k, p), dr, ds, true);
            let row_d = lift_row(&sched_loop_row(sch_dst, k, p), ds, dr, false);
            let diff: Vec<i64> = row_d.iter().zip(&row_s).map(|(d, s)| d - s).collect();
            // Branch: strictly less at this loop level (diff >= 1).
            let strict = prefix.and_ge(&diff, 1);
            if !strict.is_empty() {
                out.push(Dep {
                    src,
                    dst,
                    kind,
                    array: a_src.array,
                    src_dim: dr,
                    dst_dim: ds,
                    poly: strict,
                    is_reduction,
                });
            }
            // Continue with equality at this level.
            prefix = prefix.and_eq0(&diff);
            if prefix.is_empty() {
                return out;
            }
        }
    }
    let _ = scop;
    out
}

fn beta_at(s: &Schedule, k: usize) -> i64 {
    s.beta.get(k).copied().unwrap_or(0)
}

fn sched_loop_row(s: &Schedule, k: usize, p: usize) -> Vec<i64> {
    debug_assert!(k < s.dim());
    debug_assert_eq!(s.n_params(), p);
    s.loop_row(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymix_ir::builder::{con, ix, par, ScopBuilder};
    use polymix_ir::expr::{BinOp, Expr};

    /// `for i: A[i] = A[i-1] + 1` — a uniform flow dependence of distance 1.
    fn chain_scop() -> Scop {
        let mut b = ScopBuilder::new("chain", &["N"], &[8]);
        let a = b.array("A", &["N"]);
        b.enter("i", con(1), par("N"));
        let body = Expr::add(b.rd(a, &[ix("i") - con(1)]), Expr::Const(1.0));
        b.stmt("S", a, &[ix("i")], body);
        b.exit();
        b.finish().expect("well-formed SCoP")
    }

    #[test]
    fn chain_has_flow_anti_output_self_deps() {
        let scop = chain_scop();
        let g = build_podg(&scop);
        // flow: S(i) writes A[i], S(i+1) reads A[i] — distance 1.
        assert!(g.deps.iter().any(|d| d.kind == DepKind::Flow));
        // anti: S(i) reads A[i-1], S(i-1+2=i+... ) — reads A[i-1], later write A[i-1] happens at i-1 < i: no.
        // Output deps: A[i] written once per i → none.
        let flow: Vec<_> = g.deps.iter().filter(|d| d.kind == DepKind::Flow).collect();
        assert_eq!(flow.len(), 1);
        // The polyhedron should contain (x=1, y=2, N=8) : S(1) -> S(2).
        assert!(flow[0].poly.contains(&[1, 2, 8]));
        assert!(!flow[0].poly.contains(&[2, 1, 8]));
        assert!(!flow[0].poly.contains(&[1, 3, 8]));
    }

    /// Independent statements on different arrays have no dependences.
    #[test]
    fn disjoint_arrays_no_deps() {
        let mut b = ScopBuilder::new("disjoint", &["N"], &[8]);
        let a = b.array("A", &["N"]);
        let c = b.array("C", &["N"]);
        b.enter("i", con(0), par("N"));
        b.stmt("S1", a, &[ix("i")], Expr::Const(1.0));
        b.stmt("S2", c, &[ix("i")], Expr::Const(2.0));
        b.exit();
        let g = build_podg(&b.finish().expect("well-formed SCoP"));
        assert!(g.deps.is_empty());
    }

    /// Producer/consumer across two loop nests: R writes tmp, U reads tmp.
    #[test]
    fn producer_consumer_across_nests() {
        let mut b = ScopBuilder::new("pc", &["N"], &[4]);
        let t = b.array("T", &["N"]);
        let o = b.array("O", &["N"]);
        b.enter("i", con(0), par("N"));
        b.stmt("W", t, &[ix("i")], Expr::Const(1.0));
        b.exit();
        b.enter("i", con(0), par("N"));
        let body = b.rd(t, &[ix("i")]);
        b.stmt("R", o, &[ix("i")], body);
        b.exit();
        let g = build_podg(&b.finish().expect("well-formed SCoP"));
        let flows: Vec<_> = g.deps.iter().filter(|d| d.kind == DepKind::Flow).collect();
        assert_eq!(flows.len(), 1);
        let d = flows[0];
        assert_eq!(d.src, StmtId(0));
        assert_eq!(d.dst, StmtId(1));
        // Same-iteration dependence: (x=2, y=2).
        assert!(d.poly.contains(&[2, 2, 4]));
        assert!(!d.poly.contains(&[2, 3, 4]));
    }

    /// Reduction self-dependence is flagged.
    #[test]
    fn reduction_dep_flagged() {
        let mut b = ScopBuilder::new("red", &["N"], &[4]);
        let s = b.array("S", &["N"]);
        let x = b.array("X", &["N", "N"]);
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        let rhs = b.rd(x, &[ix("i"), ix("j")]);
        b.stmt_update("U", s, &[ix("j")], BinOp::Add, rhs);
        b.exit();
        b.exit();
        let g = build_podg(&b.finish().expect("well-formed SCoP"));
        assert!(!g.deps.is_empty());
        // All self deps on S[j] are reduction deps; reads of X produce none.
        assert!(g.deps.iter().all(|d| d.is_reduction));
        // Carried by i (distance (+,0)): contains ((0,j),(1,j)).
        assert!(g.deps.iter().any(|d| d.poly.contains(&[0, 2, 1, 2, 4])));
    }

    /// Statements of different depths (R at depth 2 feeding S at depth 3).
    #[test]
    fn mixed_depth_dependences() {
        let mut b = ScopBuilder::new("mixed", &["N"], &[4]);
        let t = b.array("T", &["N", "N"]);
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        b.stmt("R", t, &[ix("i"), ix("j")], Expr::Const(0.0));
        b.enter("k", con(0), par("N"));
        let rhs = Expr::Const(1.0);
        b.stmt_update("S", t, &[ix("i"), ix("j")], BinOp::Add, rhs);
        b.exit();
        b.exit();
        b.exit();
        let g = build_podg(&b.finish().expect("well-formed SCoP"));
        // R -> S flow (R writes then S reads+writes), S -> S output/flow/anti.
        assert!(g
            .deps
            .iter()
            .any(|d| d.src == StmtId(0) && d.dst == StmtId(1)));
        // No S -> R edges (R precedes S in every shared iteration).
        assert!(!g
            .deps
            .iter()
            .any(|d| d.src == StmtId(1) && d.dst == StmtId(0)));
    }

    #[test]
    fn diff_row_computes_target_minus_source() {
        let scop = chain_scop();
        let g = build_podg(&scop);
        let d = &g.deps[0];
        // θ = i on both sides; diff row over [x, y, N, 1] = y - x.
        let row = d.diff_row(&[1, 0, 0], &[1, 0, 0]);
        assert_eq!(row, vec![-1, 1, 0, 0]);
    }
}
