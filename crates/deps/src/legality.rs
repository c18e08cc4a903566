//! Level-by-level legality checking and satisfaction peeling.
//!
//! Both schedulers — the paper's Algorithm 2 (`polymix-core`) and the
//! Pluto baseline (`polymix-pluto`) — fix schedule rows one loop level at
//! a time, outermost first, with one skeleton: SCCs of the unsatisfied
//! dependences, a fusion policy, one legal row per statement, then peel
//! what the row satisfied. [`Peeling`] is that skeleton's bookkeeping and
//! the schedule under construction, so the schedulers keep only what
//! differs between them: the row objective and the fusion test.
//!
//! For each dependence edge a [`DepState`] keeps the *remaining*
//! dependence polyhedron — the pairs of instances not yet strictly
//! ordered by the rows fixed so far. Applying a new row either
//!
//! * **violates** the dependence (some remaining pair would be ordered
//!   target-before-source),
//! * **satisfies** it (every remaining pair becomes strictly ordered), or
//! * leaves a smaller remaining polyhedron (pairs ordered equal at this
//!   level, which deeper levels must order).

use crate::depgraph::{Dep, Podg};
use crate::vectors::{classify, DepElem};
use polymix_ir::error::PolymixError;
use polymix_ir::scop::StmtId;
use polymix_ir::{Schedule, Scop};
use polymix_math::{IntMat, Polyhedron};

/// Mutable satisfaction state of one dependence edge during scheduling.
#[derive(Clone, Debug, PartialEq)]
pub struct DepState {
    /// Remaining (not yet strictly ordered) instance pairs.
    pub remaining: Polyhedron,
    /// True once every pair is strictly ordered.
    pub satisfied: bool,
}

impl DepState {
    /// Initial state: nothing satisfied yet.
    pub fn new(dep: &Dep) -> DepState {
        DepState {
            remaining: dep.poly.clone(),
            satisfied: false,
        }
    }
}

/// The states of every edge of a PoDG, in PoDG order, and the schedule
/// under construction — each statement's committed rows and β — while a
/// scheduler fixes rows level by level. A clone is a snapshot: Pluto
/// keeps one as its band start.
#[derive(Clone, Debug)]
pub struct Peeling<'a> {
    scop: &'a Scop,
    podg: &'a Podg,
    states: Vec<DepState>,
    /// Committed rows per statement, outermost first, each over
    /// `[iters | params | 1]`: α in the iterator columns, γ in the rest.
    rows: Vec<Vec<Vec<i64>>>,
    /// β per statement, one entry per [`Peeling::place`].
    betas: Vec<Vec<i64>>,
}

/// An unsatisfied dependence with both endpoints in a group, as
/// [`Peeling::within`] yields it.
#[derive(Clone, Copy, Debug)]
pub struct GroupDep<'a> {
    /// The edge.
    pub dep: &'a Dep,
    /// Its state.
    pub state: &'a DepState,
    /// Position of the source statement in the group.
    pub src: usize,
    /// Position of the target statement in the group.
    pub dst: usize,
}

impl GroupDep<'_> {
    /// Whether one row per group member (`rows[i]` for statement `i` of
    /// the group, layout `[iters | params | 1]`) orders a remaining pair
    /// of the edge backwards.
    pub fn violated_by(&self, rows: &[Vec<i64>]) -> bool {
        violates(self.dep, self.state, &rows[self.src], &rows[self.dst])
    }

    /// The distance those rows give the remaining pairs: [`classify`] of
    /// `θ_dst − θ_src`, with a constant sampled at `params`.
    pub fn distance(&self, rows: &[Vec<i64>], params: &[i64]) -> DepElem {
        let diff = self.dep.diff_row(&rows[self.src], &rows[self.dst]);
        classify(&self.state.remaining, &diff, params)
    }
}

impl<'a> Peeling<'a> {
    /// Every edge of `podg` (the PoDG of `scop`) unsatisfied, no row
    /// committed.
    pub fn new(scop: &'a Scop, podg: &'a Podg) -> Self {
        let n = scop.statements.len();
        Peeling {
            scop,
            podg,
            states: podg.deps.iter().map(DepState::new).collect(),
            rows: vec![Vec::new(); n],
            betas: vec![Vec::new(); n],
        }
    }

    /// The rows committed for `s` so far, outermost first.
    pub fn rows(&self, s: StmtId) -> &[Vec<i64>] {
        &self.rows[s.0]
    }

    /// How many of its rows `s` still lacks.
    pub fn left(&self, s: StmtId) -> usize {
        self.scop.statements[s.0].dim.saturating_sub(self.rows[s.0].len())
    }

    /// Whether `s` has all its rows.
    pub fn exhausted(&self, s: StmtId) -> bool {
        self.left(s) == 0
    }

    /// Whether some committed row of `s` reads its iterator `iter`.
    pub fn uses(&self, s: StmtId, iter: usize) -> bool {
        self.rows[s.0].iter().any(|r| r[iter] != 0)
    }

    /// The unsatisfied edges with their states, in PoDG order.
    pub fn open(&self) -> impl Iterator<Item = (&'a Dep, &DepState)> + '_ {
        self.podg
            .deps
            .iter()
            .zip(&self.states)
            .filter(|(_, st)| !st.satisfied)
    }

    /// The unsatisfied edges between statements of `stmts`: the input of
    /// [`crate::sccs`] at this level.
    pub fn edges(&self, stmts: &[StmtId]) -> Vec<(StmtId, StmtId)> {
        self.open()
            .map(|(d, _)| (d.src, d.dst))
            .filter(|(s, d)| stmts.contains(s) && stmts.contains(d))
            .collect()
    }

    /// The unsatisfied edges with both endpoints in `group`, in PoDG
    /// order.
    pub fn within<'g>(&'g self, group: &'g [StmtId]) -> impl Iterator<Item = GroupDep<'g>> + 'g {
        self.open().filter_map(move |(dep, state)| {
            Some(GroupDep {
                dep,
                state,
                src: group.iter().position(|&s| s == dep.src)?,
                dst: group.iter().position(|&s| s == dep.dst)?,
            })
        })
    }

    /// β ordering: gives every statement of `group` the β `pos` at this
    /// level, so `group` runs before the statements of `all` placed after
    /// it and every edge from it to one of them is satisfied. Edges into
    /// earlier groups were satisfied when those were placed.
    pub fn place(&mut self, all: &[StmtId], group: &[StmtId], pos: usize) {
        for &s in group {
            self.betas[s.0].push(pos as i64);
        }
        for (d, st) in self.podg.deps.iter().zip(&mut self.states) {
            if group.contains(&d.src) && !group.contains(&d.dst) && all.contains(&d.dst) {
                st.satisfied = true;
            }
        }
    }

    /// Whether one row per statement of `group` (as for
    /// [`GroupDep::violated_by`]) violates no edge inside the group.
    pub fn legal(&self, group: &[StmtId], rows: &[Vec<i64>]) -> bool {
        self.within(group).all(|e| !e.violated_by(rows))
    }

    /// Commits legal rows (as for [`Peeling::legal`]), one per statement
    /// of the group, as its next schedule row, and applies them to every
    /// edge inside the group: satisfied edges are peeled, the rest keep
    /// the pairs the rows order equal.
    pub fn commit(&mut self, group: &[StmtId], rows: &[Vec<i64>]) {
        for (&s, row) in group.iter().zip(rows) {
            self.rows[s.0].push(row.clone());
        }
        for (d, st) in self.podg.deps.iter().zip(&mut self.states) {
            let (Some(si), Some(di)) = (
                group.iter().position(|&s| s == d.src),
                group.iter().position(|&s| s == d.dst),
            ) else {
                continue;
            };
            let eff = apply_loop_row(d, st, &rows[si], &rows[di]);
            debug_assert_ne!(eff, RowEffect::Violated, "committing an illegal row");
        }
    }

    /// The `2d+1` schedule of every statement, in statement order: its
    /// committed rows, completed with unit rows over the iterators no row
    /// reads (β 0 each), split into α (iterator columns) and γ (parameter
    /// and constant columns), with β cut or padded with zeros to `d + 1`.
    /// Errors when completion runs out of iterators or a schedule fails
    /// [`Schedule::check`].
    pub fn schedules(&self) -> Result<Vec<Schedule>, PolymixError> {
        let scop = self.scop;
        let width = scop.n_params() + 1;
        let mut out = Vec::with_capacity(scop.statements.len());
        for (i, stmt) in scop.statements.iter().enumerate() {
            let d = stmt.dim;
            let mut rows = self.rows[i].clone();
            let mut beta = self.betas[i].clone();
            let mut free = (0..d).filter(|&k| !self.uses(StmtId(i), k));
            while rows.len() < d {
                let Some(k) = free.next() else {
                    return Err(PolymixError::scheduling(
                        &scop.name,
                        rows.len(),
                        vec![i],
                        "row completion found no free iterator",
                    ));
                };
                let mut unit = vec![0; d + width];
                unit[k] = 1;
                rows.push(unit);
                beta.push(0);
            }
            beta.resize(d + 1, 0);
            let alpha: Vec<Vec<i64>> = rows.iter().map(|r| r[..d].to_vec()).collect();
            let sched = Schedule {
                beta,
                alpha: IntMat::from_rows(&alpha),
                gamma: rows.iter().map(|r| r[d..].to_vec()).collect(),
            };
            sched
                .check()
                .map_err(|msg| PolymixError::scheduling(&scop.name, 0, vec![i], msg))?;
            out.push(sched);
        }
        Ok(out)
    }
}

/// The row searches' enumeration: every combination of one index below
/// `lens[i]` per slot, slot 0 turning fastest, until `visit` returns
/// `Some` (which is returned) or `cap` combinations have been visited.
/// `None` when some slot has no index.
pub fn odometer<T>(
    lens: &[usize],
    cap: usize,
    mut visit: impl FnMut(&[usize]) -> Option<T>,
) -> Option<T> {
    if lens.contains(&0) {
        return None;
    }
    let mut idx = vec![0usize; lens.len()];
    for _ in 0..cap {
        if let Some(found) = visit(&idx) {
            return Some(found);
        }
        let k = idx.iter().zip(lens).position(|(&i, &n)| i + 1 < n)?;
        idx[k] += 1;
        idx[..k].fill(0);
    }
    None
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
    let mut state = DepState::new(dep);
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
    use polymix_ir::{Expr, Schedule, Scop};

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

    /// `for i in 1..N: S0: A[i] = A[i-1]; S1: B[i] = A[i]; S2: C[i] =
    /// B[i-1] + C[i-1]` — self edges on `S0` and `S2`, a distance-0 edge
    /// `S0 → S1` and a distance-1 edge `S1 → S2`.
    fn three_stmts() -> Scop {
        let mut b = ScopBuilder::new("three", &["N"], &[8]);
        let (a, bb, c) = (
            b.array("A", &["N"]),
            b.array("B", &["N"]),
            b.array("C", &["N"]),
        );
        b.enter("i", con(1), par("N"));
        let body = b.rd(a, &[ix("i") - con(1)]);
        b.stmt("S0", a, &[ix("i")], body);
        let body = b.rd(a, &[ix("i")]);
        b.stmt("S1", bb, &[ix("i")], body);
        let body = Expr::add(b.rd(bb, &[ix("i") - con(1)]), b.rd(c, &[ix("i") - con(1)]));
        b.stmt("S2", c, &[ix("i")], body);
        b.exit();
        b.finish().expect("well-formed SCoP")
    }

    const ALL: [StmtId; 3] = [StmtId(0), StmtId(1), StmtId(2)];

    /// Row `sign * i` for each statement of `three_stmts` (`[i | N | 1]`).
    fn rows(signs: [i64; 3]) -> Vec<Vec<i64>> {
        signs.iter().map(|&s| vec![s, 0, 0]).collect()
    }

    /// After row `i` peels every carried edge, only `S0 → S1` is left;
    /// in the group `[S1, S0]` its source sits at position 1.
    #[test]
    fn within_yields_the_open_edges_inside_the_group_with_positions() {
        let scop = three_stmts();
        let podg = build_podg(&scop);
        let mut peel = Peeling::new(&scop, &podg);
        peel.commit(&ALL, &rows([1, 1, 1]));
        let group = [StmtId(1), StmtId(0)];
        let got: Vec<(StmtId, StmtId, usize, usize)> = peel
            .within(&group)
            .map(|e| (e.dep.src, e.dep.dst, e.src, e.dst))
            .collect();
        let want: Vec<(StmtId, StmtId, usize, usize)> = podg
            .deps
            .iter()
            .filter(|d| d.src == StmtId(0) && d.dst == StmtId(1))
            .map(|d| (d.src, d.dst, 1, 0))
            .collect();
        assert!(!want.is_empty() && got == want, "{got:?} != {want:?}");
    }

    #[test]
    fn commit_leaves_every_state_as_apply_loop_row_would() {
        let scop = three_stmts();
        let podg = build_podg(&scop);
        // `S1` retimed by one: `S0 → S1` is peeled, `S1 → S2` is not.
        let group = [StmtId(2), StmtId(0), StmtId(1)];
        let rows = vec![vec![1, 0, 0], vec![1, 0, 0], vec![1, 0, 1]];
        let mut peel = Peeling::new(&scop, &podg);
        peel.commit(&group, &rows);
        let row = |s: StmtId| &rows[group.iter().position(|&g| g == s).unwrap()];
        let want: Vec<DepState> = podg
            .deps
            .iter()
            .map(|d| {
                let mut st = DepState::new(d);
                apply_loop_row(d, &mut st, row(d.src), row(d.dst));
                st
            })
            .collect();
        assert_eq!(peel.states, want);
    }

    #[test]
    fn legal_agrees_with_violates_edge_by_edge() {
        let scop = three_stmts();
        let podg = build_podg(&scop);
        let peel = Peeling::new(&scop, &podg);
        let signs = [[1, 1, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1], [-1, -1, -1]];
        let disagree: Vec<_> = signs
            .into_iter()
            .filter(|&sg| {
                let rows = rows(sg);
                let by_edge = podg.deps.iter().all(|d| {
                    let st = DepState::new(d);
                    !violates(d, &st, &rows[d.src.0], &rows[d.dst.0])
                });
                peel.legal(&ALL, &rows) != by_edge
            })
            .collect();
        assert!(disagree.is_empty(), "{disagree:?}");
    }

    #[test]
    fn a_cloned_snapshot_is_unaffected_by_a_later_commit() {
        let scop = three_stmts();
        let podg = build_podg(&scop);
        let mut peel = Peeling::new(&scop, &podg);
        let band = peel.clone();
        peel.commit(&ALL, &rows([1, 1, 1]));
        assert_eq!(band.states, Peeling::new(&scop, &podg).states);
    }

    /// One committed row `-j + 3` of a 2-d statement placed at β 1: the
    /// completion adds the unit row of the unused iterator `i`, γ takes
    /// each row's constant column and β is padded to `d + 1`.
    #[test]
    fn schedules_complete_rows_split_gamma_and_pad_beta() {
        let scop = vertical_stencil();
        let podg = build_podg(&scop);
        let mut peel = Peeling::new(&scop, &podg);
        let s = [StmtId(0)];
        peel.place(&s, &s, 1);
        peel.commit(&s, &[vec![0, -1, 0, 3]]);
        assert!(!peel.exhausted(StmtId(0)) && peel.left(StmtId(0)) == 1);
        let got = peel.schedules().expect("valid schedule");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].alpha, IntMat::from_rows(&[vec![0, -1], vec![1, 0]]));
        assert_eq!(got[0].gamma, [[0, 3], [0, 0]]);
        assert_eq!(got[0].beta, [1, 0, 0]);
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
        let mut st = DepState::new(flow);
        // Row i on both sides: carried strictly (distance 1) -> Satisfied.
        let row_i = vec![1, 0, 0, 0]; // [i, j | N | 1]
        assert_eq!(
            apply_loop_row(flow, &mut st, &row_i, &row_i),
            RowEffect::Satisfied
        );
        // Fresh state, row j first: distance 0 -> Continue, then row i satisfies.
        let mut st = DepState::new(flow);
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
        let mut st = DepState::new(d);
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
        let mut st = DepState::new(&g.deps[0]);
        assert_eq!(apply_beta(&mut st, 0, 1), RowEffect::Satisfied);
        let mut st = DepState::new(&g.deps[0]);
        assert_eq!(apply_beta(&mut st, 1, 0), RowEffect::Violated);
        let mut st = DepState::new(&g.deps[0]);
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
