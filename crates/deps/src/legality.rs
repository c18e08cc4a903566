//! Level-by-level legality checking and satisfaction peeling.
//!
//! The schedulers (both the paper's Algorithm 2 and the Pluto baseline)
//! fix schedule rows one loop level at a time, outermost first. For each
//! dependence edge we keep a [`DepState`]: the *remaining* dependence
//! polyhedron — the pairs of instances not yet strictly ordered by the
//! rows fixed so far. Applying a new row either
//!
//! * **violates** the dependence (some remaining pair would be ordered
//!   target-before-source),
//! * **satisfies** it (every remaining pair becomes strictly ordered), or
//! * leaves a smaller remaining polyhedron (pairs ordered equal at this
//!   level, which deeper levels must order).

use crate::depgraph::Dep;
use polymix_math::Polyhedron;

/// Mutable satisfaction state of one dependence edge during scheduling.
#[derive(Clone, Debug)]
pub struct DepState {
    /// Index of the edge in the PoDG.
    pub dep: usize,
    /// Remaining (not yet strictly ordered) instance pairs.
    pub remaining: Polyhedron,
    /// True once every pair is strictly ordered.
    pub satisfied: bool,
}

impl DepState {
    /// Initial state: nothing satisfied yet.
    pub fn new(dep_idx: usize, dep: &Dep) -> DepState {
        DepState {
            dep: dep_idx,
            remaining: dep.poly.clone(),
            satisfied: false,
        }
    }
}

/// Outcome of applying one schedule row to a dependence edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowEffect {
    /// Some instance pair would execute target before source: illegal.
    Violated,
    /// All remaining pairs became strictly ordered: edge fully satisfied.
    Satisfied,
    /// Remaining pairs are ordered equal at this level; recurse deeper.
    Continue,
}

/// True iff the loop-level rows `row_src` / `row_dst` (statement-local
/// layout `[iters | params | 1]`) would order some remaining pair of the
/// edge target-before-source. The legality probe of the schedulers:
/// [`apply_loop_row`] without the state change, and without the
/// satisfaction query a probe has no use for.
pub fn violates(dep: &Dep, state: &DepState, row_src: &[i64], row_dst: &[i64]) -> bool {
    if state.satisfied {
        return false;
    }
    // θ_dst - θ_src over the dependence space: is there a remaining pair
    // with diff <= -1?
    let diff = dep.diff_row(row_src, row_dst);
    !state.remaining.and_le(&diff, -1).is_empty()
}

/// Applies the loop-level rows `row_src` / `row_dst` to the edge. On
/// [`RowEffect::Continue`] the state's remaining polyhedron is shrunk by
/// the equality.
pub fn apply_loop_row(
    dep: &Dep,
    state: &mut DepState,
    row_src: &[i64],
    row_dst: &[i64],
) -> RowEffect {
    if state.satisfied {
        return RowEffect::Satisfied;
    }
    if violates(dep, state, row_src, row_dst) {
        return RowEffect::Violated;
    }

    // Satisfaction: are any pairs left with diff == 0?
    let eq = state.remaining.and_eq0(&dep.diff_row(row_src, row_dst));
    if eq.is_empty() {
        state.satisfied = true;
        RowEffect::Satisfied
    } else {
        state.remaining = eq;
        RowEffect::Continue
    }
}

/// Applies a β comparison (`beta_src` vs `beta_dst`) at an interleaving
/// position: smaller-β side executes first.
pub fn apply_beta(state: &mut DepState, beta_src: i64, beta_dst: i64) -> RowEffect {
    if state.satisfied {
        return RowEffect::Satisfied;
    }
    match beta_src.cmp(&beta_dst) {
        std::cmp::Ordering::Less => {
            state.satisfied = true;
            RowEffect::Satisfied
        }
        std::cmp::Ordering::Greater => RowEffect::Violated,
        std::cmp::Ordering::Equal => RowEffect::Continue,
    }
}

/// Convenience: checks whether a *complete* pair of schedules is legal for
/// an edge by walking the interleaved `2d+1` positions (β then loop rows).
/// Reduction edges can be skipped by the caller when reduction
/// parallelization will handle them.
pub fn schedules_legal_for_dep(
    dep: &Dep,
    sched_src: &polymix_ir::Schedule,
    sched_dst: &polymix_ir::Schedule,
) -> bool {
    let mut state = DepState::new(0, dep);
    let max_k = sched_src.dim().max(sched_dst.dim());
    for k in 0..=max_k {
        let bs = sched_src.beta.get(k).copied().unwrap_or(0);
        let bd = sched_dst.beta.get(k).copied().unwrap_or(0);
        match apply_beta(&mut state, bs, bd) {
            RowEffect::Violated => return false,
            RowEffect::Satisfied => return true,
            RowEffect::Continue => {}
        }
        if k < sched_src.dim() && k < sched_dst.dim() {
            let rs = sched_src.loop_row(k);
            let rd = sched_dst.loop_row(k);
            match apply_loop_row(dep, &mut state, &rs, &rd) {
                RowEffect::Violated => return false,
                RowEffect::Satisfied => return true,
                RowEffect::Continue => {}
            }
        }
    }
    // All positions walked with pairs still ordered "equal": the remaining
    // pairs are distinct instances mapped to identical timestamps — treat
    // as illegal (the order between them is unspecified).
    state.remaining.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::build_podg;
    use polymix_ir::builder::{con, ix, par, ScopBuilder};
    use polymix_ir::{Schedule, Scop};

    /// `for i in 1..N: A[i] = A[i-1]` — serial chain.
    fn chain() -> Scop {
        let mut b = ScopBuilder::new("chain", &["N"], &[8]);
        let a = b.array("A", &["N"]);
        b.enter("i", con(1), par("N"));
        let body = b.rd(a, &[ix("i") - con(1)]);
        b.stmt("S", a, &[ix("i")], body);
        b.exit();
        b.finish().expect("well-formed SCoP")
    }

    /// 2-D kernel with dependence only on the i loop:
    /// `for i in 1..N, j in 0..N: A[i][j] = A[i-1][j]`.
    fn vertical_stencil() -> Scop {
        let mut b = ScopBuilder::new("vert", &["N"], &[8]);
        let a = b.array("A", &["N", "N"]);
        b.enter("i", con(1), par("N"));
        b.enter("j", con(0), par("N"));
        let body = b.rd(a, &[ix("i") - con(1), ix("j")]);
        b.stmt("S", a, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        b.finish().expect("well-formed SCoP")
    }

    #[test]
    fn identity_schedule_is_legal_for_chain() {
        let scop = chain();
        let g = build_podg(&scop);
        let s = &scop.statements[0].schedule;
        for d in &g.deps {
            assert!(schedules_legal_for_dep(d, s, s));
        }
    }

    #[test]
    fn reversal_is_illegal_for_chain() {
        let scop = chain();
        let g = build_podg(&scop);
        let mut s = scop.statements[0].schedule.clone();
        s.reverse_level(0);
        assert!(g
            .deps
            .iter()
            .any(|d| !schedules_legal_for_dep(d, &s, &s)));
    }

    #[test]
    fn interchange_legal_when_dep_is_on_one_loop_only() {
        let scop = vertical_stencil();
        let g = build_podg(&scop);
        // Swap i and j: dependence (1, 0) becomes (0, 1): still lexicographically
        // positive, so legal.
        let s = Schedule::from_permutation(&[1, 0], 1);
        for d in &g.deps {
            assert!(schedules_legal_for_dep(d, &s, &s));
        }
    }

    #[test]
    fn loop_row_peeling_tracks_satisfaction() {
        let scop = vertical_stencil();
        let g = build_podg(&scop);
        let flow = g
            .deps
            .iter()
            .find(|d| d.kind == crate::depgraph::DepKind::Flow)
            .unwrap();
        let mut st = DepState::new(0, flow);
        // Row i on both sides: carried strictly (distance 1) -> Satisfied.
        let row_i = vec![1, 0, 0, 0]; // [i, j | N | 1]
        assert_eq!(
            apply_loop_row(flow, &mut st, &row_i, &row_i),
            RowEffect::Satisfied
        );
        // Fresh state, row j first: distance 0 -> Continue, then row i satisfies.
        let mut st = DepState::new(0, flow);
        let row_j = vec![0, 1, 0, 0];
        assert_eq!(
            apply_loop_row(flow, &mut st, &row_j, &row_j),
            RowEffect::Continue
        );
        assert_eq!(
            apply_loop_row(flow, &mut st, &row_i, &row_i),
            RowEffect::Satisfied
        );
    }

    #[test]
    fn negative_row_is_violation() {
        let scop = chain();
        let g = build_podg(&scop);
        let d = &g.deps[0];
        let mut st = DepState::new(0, d);
        let row_neg = vec![-1, 0, 0]; // -i
        assert_eq!(
            apply_loop_row(d, &mut st, &row_neg, &row_neg),
            RowEffect::Violated
        );
    }

    #[test]
    fn beta_ordering() {
        let scop = chain();
        let g = build_podg(&scop);
        let mut st = DepState::new(0, &g.deps[0]);
        assert_eq!(apply_beta(&mut st, 0, 1), RowEffect::Satisfied);
        let mut st = DepState::new(0, &g.deps[0]);
        assert_eq!(apply_beta(&mut st, 1, 0), RowEffect::Violated);
        let mut st = DepState::new(0, &g.deps[0]);
        assert_eq!(apply_beta(&mut st, 2, 2), RowEffect::Continue);
    }

    #[test]
    fn shifted_schedule_still_legal() {
        // Retiming by a constant shifts both sides equally: still legal.
        let scop = chain();
        let g = build_podg(&scop);
        let mut s = scop.statements[0].schedule.clone();
        s.shift_level(0, &[0], 5);
        for d in &g.deps {
            assert!(schedules_legal_for_dep(d, &s, &s));
        }
    }
}
