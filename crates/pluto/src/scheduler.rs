//! The Pluto-like level-by-level scheduler.
//!
//! At every loop level the scheduler groups statements into SCCs of the
//! *unsatisfied* dependence graph, fuses SCCs per the chosen heuristic,
//! and picks one schedule row per statement from a small candidate set —
//! unscheduled original iterators and their pairwise sums — repaired by
//! adding multiples of already-fixed rows when a dependence would go
//! backwards (schedule-embedded skewing, as Pluto does). Among legal
//! combinations it picks the one **minimizing the estimated reuse
//! distance**, Pluto's objective.

use polymix_deps::legality::{apply_loop_row, violates, DepState, RowEffect};
use polymix_deps::vectors::classify;
use polymix_deps::{build_podg, sccs, DepElem, Podg};
use polymix_ir::error::PolymixError;
use polymix_ir::scop::StmtId;
use polymix_ir::{Schedule, Scop};
use polymix_math::IntMat;

/// Fusion heuristic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fusion {
    /// Fuse whenever a legal row combination exists (Pluto `maxfuse`).
    Max,
    /// Fuse only groups that share an array (Pluto `smartfuse`).
    Smart,
    /// Never fuse distinct SCCs (`nofuse`).
    None,
}

/// Computes Pluto-style schedules for the SCoP. Returns a
/// [`PolymixError::Scheduling`] when some loop level admits no legal row
/// combination (even after band breaking) under the requested fusion
/// heuristic; see [`schedule_with_fallback`] for the graceful chain.
pub fn schedule_pluto(scop: &Scop, fusion: Fusion) -> Result<Vec<Schedule>, PolymixError> {
    let _memo = polymix_math::memo::scope();
    let podg = build_podg(scop);
    let mut sched = Sched {
        scop,
        podg: &podg,
        fusion,
        states: podg
            .deps
            .iter()
            .enumerate()
            .map(|(i, d)| DepState::new(i, d))
            .collect(),
        rows: scop.statements.iter().map(|_| Vec::new()).collect(),
        betas: scop.statements.iter().map(|_| Vec::new()).collect(),
    };
    let all: Vec<StmtId> = (0..scop.statements.len()).map(StmtId).collect();
    let band = sched.states.clone();
    sched.solve(&all, 0, &band)?;
    sched.finish()
}

/// Which fusion heuristics to try, most to least aggressive, starting
/// from the requested one (duplicates removed).
fn fallback_chain(requested: Fusion) -> Vec<Fusion> {
    let mut chain = vec![requested];
    for f in [Fusion::Max, Fusion::Smart, Fusion::None] {
        if !chain.contains(&f) {
            chain.push(f);
        }
    }
    chain
}

/// Result of [`schedule_with_fallback`]: the schedules plus a record of
/// which rung of the chain produced them.
#[derive(Clone, Debug)]
pub struct FallbackSchedule {
    /// One schedule per statement, in statement order.
    pub schedules: Vec<Schedule>,
    /// The fusion heuristic that succeeded, or `None` when every
    /// heuristic failed and the statements' original (textual-order)
    /// schedules were used instead.
    pub used: Option<Fusion>,
    /// Errors of the rungs tried before the successful one, in order.
    pub errors: Vec<PolymixError>,
}

impl FallbackSchedule {
    /// True when the scheduler had to degrade below the requested
    /// heuristic (including all the way to the identity schedules).
    pub fn degraded(&self) -> bool {
        !self.errors.is_empty()
    }
}

/// Schedules the SCoP with graceful degradation: tries the requested
/// fusion heuristic, then the remaining ones in `maxfuse → smartfuse →
/// nofuse` order, and finally falls back to the statements' original
/// schedules (the untransformed loop order, which is always legal).
/// Never fails; failed rungs are recorded in
/// [`FallbackSchedule::errors`].
pub fn schedule_with_fallback(scop: &Scop, requested: Fusion) -> FallbackSchedule {
    let mut errors = Vec::new();
    for f in fallback_chain(requested) {
        match schedule_pluto(scop, f) {
            Ok(schedules) => {
                return FallbackSchedule {
                    schedules,
                    used: Some(f),
                    errors,
                }
            }
            Err(e) => errors.push(e),
        }
    }
    // Last rung: original textual-order schedules are always legal.
    let schedules = scop.statements.iter().map(|s| s.schedule.clone()).collect();
    FallbackSchedule {
        schedules,
        used: None,
        errors,
    }
}

struct Sched<'a> {
    scop: &'a Scop,
    podg: &'a Podg,
    fusion: Fusion,
    states: Vec<DepState>,
    /// Chosen α rows per statement (statement-local iterator coefficients).
    rows: Vec<Vec<Vec<i64>>>,
    betas: Vec<Vec<i64>>,
}

impl Sched<'_> {
    fn dim(&self, s: StmtId) -> usize {
        self.scop.statements[s.0].dim
    }

    fn exhausted(&self, s: StmtId) -> bool {
        self.rows[s.0].len() >= self.dim(s)
    }

    /// Recursively schedules `stmts` from loop level `level`.
    /// `band` is the dependence-state snapshot at the start of the
    /// current permutable band: rows must be non-negative on the *band*
    /// remaining polyhedra (Pluto's permutability constraint, which is
    /// what forces proactive skewing for stencils); when no candidate
    /// satisfies it, the band is broken and restarted at this level.
    /// Errors when even the broken band admits no legal combination.
    fn solve(
        &mut self,
        stmts: &[StmtId],
        level: usize,
        band: &[DepState],
    ) -> Result<(), PolymixError> {
        // Partition into SCCs of the unsatisfied subgraph.
        let edges: Vec<(StmtId, StmtId)> = self
            .podg
            .deps
            .iter()
            .zip(&self.states)
            .filter(|(_, st)| !st.satisfied)
            .map(|(d, _)| (d.src, d.dst))
            .filter(|(s, d)| stmts.contains(s) && stmts.contains(d))
            .collect();
        let comps = sccs(stmts, &edges);

        // Greedy fusion of consecutive components.
        let mut groups: Vec<Vec<StmtId>> = Vec::new();
        for comp in comps {
            let comp_exhausted = comp.iter().all(|&s| self.exhausted(s));
            let can_try = match self.fusion {
                Fusion::None => false,
                Fusion::Max => true,
                Fusion::Smart => true,
            };
            if can_try && !comp_exhausted {
                if let Some(last_idx) = groups.len().checked_sub(1) {
                    let last = &groups[last_idx];
                    let last_ok = !last.iter().any(|&s| self.exhausted(s));
                    let smart_ok = self.fusion == Fusion::Max
                        || self.shares_array(last, &comp);
                    if last_ok && smart_ok {
                        let mut merged = last.clone();
                        merged.extend(comp.iter().copied());
                        if self.find_rows(&merged, level, band).is_some()
                            || self.find_rows(&merged, level, &self.states.clone()).is_some()
                        {
                            groups[last_idx] = merged;
                            continue;
                        }
                    }
                }
            }
            groups.push(comp);
        }

        // Assign β and rows per group, then recurse.
        for (pos, group) in groups.into_iter().enumerate() {
            // β at this level.
            for &s in &group {
                self.betas[s.0].push(pos as i64);
            }
            // Apply β ordering to cross-group dependence states: peeling
            // happens implicitly — deps to later groups become satisfied,
            // deps within the group continue.
            self.apply_beta_effects(stmts, &group, level);
            if group.iter().all(|&s| self.exhausted(s)) {
                continue; // leaf (or group of leaves at identical depth 0)
            }
            // Try within the current band; on failure break the band
            // (snapshot the current states as the new band start).
            let (combo, child_band) = match self.find_rows(&group, level, band) {
                Some(c) => (c, band.to_vec()),
                None => {
                    let fresh = self.states.clone();
                    match self.find_rows(&group, level, &fresh) {
                        Some(c) => (c, fresh),
                        None => {
                            return Err(PolymixError::scheduling(
                                &self.scop.name,
                                level,
                                group.iter().map(|s| s.0).collect(),
                                "no legal row combination, even after band break",
                            ));
                        }
                    }
                }
            };
            // Commit the rows and peel the dependences.
            for (&s, row) in group.iter().zip(&combo) {
                self.rows[s.0].push(row.clone());
            }
            self.commit_rows(&group, &combo);
            self.solve(&group, level + 1, &child_band)?;
        }
        Ok(())
    }

    fn shares_array(&self, a: &[StmtId], b: &[StmtId]) -> bool {
        let arrays = |list: &[StmtId]| -> Vec<usize> {
            let mut out = Vec::new();
            for &s in list {
                for (acc, _) in self.scop.statements[s.0].accesses() {
                    if !out.contains(&acc.array.0) {
                        out.push(acc.array.0);
                    }
                }
            }
            out
        };
        let aa = arrays(a);
        arrays(b).iter().any(|x| aa.contains(x))
    }

    /// Marks dependences from this group to later groups as satisfied
    /// (β ordering). Dependences into earlier groups were satisfied when
    /// those groups were processed.
    fn apply_beta_effects(&mut self, all: &[StmtId], group: &[StmtId], _level: usize) {
        for (d, st) in self.podg.deps.iter().zip(self.states.iter_mut()) {
            if st.satisfied {
                continue;
            }
            let src_in = group.contains(&d.src);
            let dst_in = group.contains(&d.dst);
            if src_in && !dst_in && all.contains(&d.dst) {
                // Source group runs before the (later) destination group.
                st.satisfied = true;
            }
        }
    }

    /// Searches for one legal row per statement of the group at `level`.
    /// Pure (states untouched). Returns the chosen (repaired) rows.
    fn find_rows(&self, group: &[StmtId], level: usize, band: &[DepState]) -> Option<Vec<Vec<i64>>> {
        // Candidate rows per statement.
        let cands: Vec<Vec<Vec<i64>>> = group
            .iter()
            .map(|&s| self.candidates(s, group.len()))
            .collect();
        if cands.iter().any(|c| c.is_empty()) {
            return None;
        }
        // Bounded cartesian search, best score wins.
        let mut idx = vec![0usize; group.len()];
        let mut best: Option<(i64, Vec<Vec<i64>>)> = None;
        let mut explored = 0usize;
        'outer: loop {
            explored += 1;
            if explored > 20_000 {
                break;
            }
            let combo: Vec<Vec<i64>> = idx
                .iter()
                .enumerate()
                .map(|(g, &i)| cands[g][i].clone())
                .collect();
            if let Some((score, repaired)) = self.try_combo(group, &combo, level, band) {
                if best.as_ref().is_none_or(|(b, _)| score < *b) {
                    best = Some((score, repaired));
                    if score == 0 {
                        break 'outer;
                    }
                }
            }
            // Odometer.
            let mut k = 0;
            loop {
                if k == idx.len() {
                    break 'outer;
                }
                idx[k] += 1;
                if idx[k] < cands[k].len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
        }
        best.map(|(_, combo)| combo)
    }

    /// Candidate rows for statement `s`: unit iterators linearly
    /// independent of the chosen rows, then (for small groups) pairwise
    /// sums of iterators, filtered for independence by rank.
    fn candidates(&self, s: StmtId, group_size: usize) -> Vec<Vec<i64>> {
        let d = self.dim(s);
        let chosen = &self.rows[s.0];
        if chosen.len() >= d {
            return Vec::new();
        }
        let independent = |r: &Vec<i64>| -> bool {
            let mut m = IntMat::zeros(0, d);
            for c in chosen {
                m.push_row(c);
            }
            let base = m.rank();
            m.push_row(r);
            // An overflowing rank proves nothing: not a candidate.
            matches!((base, m.rank()), (Some(base), Some(with_r)) if with_r > base)
        };
        let mut out: Vec<Vec<i64>> = Vec::new();
        for i in 0..d {
            let mut r = vec![0i64; d];
            r[i] = 1;
            if independent(&r) {
                out.push(r);
            }
        }
        if group_size <= 4 {
            for i in 0..d {
                for j in i + 1..d {
                    let mut r = vec![0i64; d];
                    r[i] = 1;
                    r[j] = 1;
                    if independent(&r) {
                        out.push(r);
                    }
                }
            }
        }
        out
    }

    /// Checks the combo's legality on the current states (without
    /// mutating them), applying skew-repair when a dependence goes
    /// backwards. Returns the reuse-distance score together with the
    /// (possibly repaired) rows, or `None` if illegal even after repair.
    fn try_combo(
        &self,
        group: &[StmtId],
        combo: &[Vec<i64>],
        level: usize,
        band: &[DepState],
    ) -> Option<(i64, Vec<Vec<i64>>)> {
        let repaired = self.repair(group, combo, level, band)?;
        let mut score = 0i64;
        for (d, st) in self.podg.deps.iter().zip(&self.states) {
            if st.satisfied {
                continue;
            }
            let (Some(si), Some(di)) = (
                group.iter().position(|&s| s == d.src),
                group.iter().position(|&s| s == d.dst),
            ) else {
                continue;
            };
            let row_src = self.full_row(d.src, &repaired[si]);
            let row_dst = self.full_row(d.dst, &repaired[di]);
            let diff = d.diff_row(&row_src, &row_dst);
            score += match classify(&st.remaining, &diff, &self.scop.default_params) {
                DepElem::Const(c) => c.abs(),
                _ => 40,
            };
        }
        // Prefer plain unit rows slightly (Pluto's cost also penalizes
        // skew magnitude).
        for r in &repaired {
            score += r.iter().map(|&c| c.abs()).sum::<i64>() - 1;
        }
        Some((score, repaired))
    }

    /// Attempts to make the combo legal by adding multiples of previously
    /// fixed rows (uniform across the group). Deterministic: the caller
    /// can re-run it to commit.
    fn repair(
        &self,
        group: &[StmtId],
        combo: &[Vec<i64>],
        level: usize,
        band: &[DepState],
    ) -> Option<Vec<Vec<i64>>> {
        let mut rows: Vec<Vec<i64>> = combo.to_vec();
        'attempt: for attempt in 0..=(2 * level.min(3)) {
            if self.legal(group, &rows, band) {
                return Some(rows);
            }
            // Add one more multiple of an earlier row to every statement.
            let prev_level = attempt % level.max(1);
            if level == 0 {
                return None;
            }
            for (g, &s) in group.iter().enumerate() {
                let Some(prev) = self.rows[s.0].get(prev_level) else {
                    continue 'attempt;
                };
                for (dst, &p) in rows[g].iter_mut().zip(prev) {
                    *dst += p;
                }
            }
        }
        if self.legal(group, &rows, band) {
            Some(rows)
        } else {
            None
        }
    }

    /// Band legality: every internal dependence must be non-negative over
    /// the *band-start* remaining polyhedron (which contains the current
    /// remaining one, so ordering legality is implied).
    fn legal(&self, group: &[StmtId], rows: &[Vec<i64>], band: &[DepState]) -> bool {
        for (d, st) in self.podg.deps.iter().zip(band) {
            if st.satisfied {
                continue;
            }
            let (Some(si), Some(di)) = (
                group.iter().position(|&s| s == d.src),
                group.iter().position(|&s| s == d.dst),
            ) else {
                continue;
            };
            let row_src = self.full_row(d.src, &rows[si]);
            let row_dst = self.full_row(d.dst, &rows[di]);
            if violates(d, st, &row_src, &row_dst) {
                return false;
            }
        }
        true
    }

    /// Commits the (already repaired) rows: peels every internal dep.
    fn commit_rows(&mut self, group: &[StmtId], combo: &[Vec<i64>]) {
        for (di, d) in self.podg.deps.iter().enumerate() {
            if self.states[di].satisfied {
                continue;
            }
            let (Some(si), Some(ti)) = (
                group.iter().position(|&s| s == d.src),
                group.iter().position(|&s| s == d.dst),
            ) else {
                continue;
            };
            let row_src = self.full_row(d.src, &combo[si]);
            let row_dst = self.full_row(d.dst, &combo[ti]);
            let eff = apply_loop_row(d, &mut self.states[di], &row_src, &row_dst);
            debug_assert_ne!(eff, RowEffect::Violated, "committing illegal row");
        }
    }

    /// Widens a statement-local iterator row to `[iters | params | 1]`.
    fn full_row(&self, _s: StmtId, row: &[i64]) -> Vec<i64> {
        let p = self.scop.n_params();
        let mut out = row.to_vec();
        out.extend(std::iter::repeat(0).take(p + 1));
        out
    }

    /// Assembles the final `Schedule` per statement; the committed rows
    /// become α (with unit-completion if the search ended early), β is
    /// padded, γ stays zero (the baseline uses no parametric retiming).
    /// Errors if completion cannot produce a structurally valid schedule.
    fn finish(mut self) -> Result<Vec<Schedule>, PolymixError> {
        // The recursion only stops once every statement is exhausted, but
        // be defensive: complete any missing rows with unused units.
        let p = self.scop.n_params();
        let mut out = Vec::new();
        for (i, stmt) in self.scop.statements.iter().enumerate() {
            let d = stmt.dim;
            while self.rows[i].len() < d {
                let used: Vec<usize> = (0..d)
                    .filter(|&k| self.rows[i].iter().any(|r| r[k] != 0))
                    .collect();
                let Some(free) = (0..d).find(|k| !used.contains(k)) else {
                    return Err(PolymixError::scheduling(
                        &self.scop.name,
                        self.rows[i].len(),
                        vec![i],
                        "row completion found no free iterator",
                    ));
                };
                let mut r = vec![0i64; d];
                r[free] = 1;
                self.rows[i].push(r);
                self.betas[i].push(0);
            }
            let mut beta = self.betas[i].clone();
            beta.truncate(d + 1);
            while beta.len() < d + 1 {
                beta.push(0);
            }
            let alpha = if d == 0 {
                IntMat::zeros(0, 0)
            } else {
                IntMat::from_rows(&self.rows[i])
            };
            let sched = Schedule {
                beta,
                alpha,
                gamma: vec![vec![0; p + 1]; d],
            };
            sched.check().map_err(|msg| {
                PolymixError::scheduling(&self.scop.name, 0, vec![i], msg)
            })?;
            out.push(sched);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymix_codegen::from_poly::generate;
    use polymix_deps::legality::schedules_legal_for_dep;
    use polymix_polybench::{all_kernels, kernel_by_name};

    fn check_legal(scop: &Scop, schedules: &[Schedule]) {
        let podg = build_podg(scop);
        for d in &podg.deps {
            assert!(
                schedules_legal_for_dep(d, &schedules[d.src.0], &schedules[d.dst.0]),
                "illegal schedule for dep {:?} -> {:?} in {}",
                d.src,
                d.dst,
                scop.name
            );
        }
    }

    #[test]
    fn maxfuse_schedules_are_legal_for_all_kernels() {
        for k in all_kernels() {
            let scop = (k.build)();
            let schedules = schedule_pluto(&scop, Fusion::Max).expect("schedule");
            check_legal(&scop, &schedules);
        }
    }

    #[test]
    fn smartfuse_schedules_are_legal_for_all_kernels() {
        for k in all_kernels() {
            let scop = (k.build)();
            let schedules = schedule_pluto(&scop, Fusion::Smart).expect("schedule");
            check_legal(&scop, &schedules);
        }
    }

    #[test]
    fn nofuse_schedules_are_legal_for_all_kernels() {
        for k in all_kernels() {
            let scop = (k.build)();
            let schedules = schedule_pluto(&scop, Fusion::None).expect("schedule");
            check_legal(&scop, &schedules);
        }
    }

    #[test]
    fn maxfuse_2mm_fuses_the_two_nests() {
        let k = kernel_by_name("2mm").unwrap();
        let scop = (k.build)();
        let schedules = schedule_pluto(&scop, Fusion::Max).expect("schedule");
        // All four statements share β0 under maxfuse.
        let b0: Vec<i64> = schedules.iter().map(|s| s.beta[0]).collect();
        assert!(b0.iter().all(|&b| b == b0[0]), "betas: {b0:?}");
        // U's level-2 row must be skewed (j + k) to satisfy both tmp and
        // D dependences — the Fig. 2 shape.
        let u = &schedules[3];
        let row2 = u.alpha.row(1);
        assert_eq!(row2.iter().filter(|&&c| c != 0).count(), 2, "{row2:?}");
        // Codegen on the fused schedule must still succeed.
        let prog = generate(&scop, &schedules).expect("generate");
        assert!(prog.body.count_stmts() >= 4);
    }

    #[test]
    fn nofuse_keeps_nests_separate() {
        let k = kernel_by_name("2mm").unwrap();
        let scop = (k.build)();
        let schedules = schedule_pluto(&scop, Fusion::None).expect("schedule");
        let mut b0: Vec<i64> = schedules.iter().map(|s| s.beta[0]).collect();
        b0.dedup();
        assert!(b0.len() >= 2, "expected distribution, got betas {b0:?}");
    }
}
