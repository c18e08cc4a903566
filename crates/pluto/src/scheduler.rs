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

use polymix_deps::legality::{odometer, Peeling};
use polymix_deps::{build_podg, sccs, DepElem};
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
        fusion,
        peel: Peeling::new(scop, &podg),
    };
    let all: Vec<StmtId> = (0..scop.statements.len()).map(StmtId).collect();
    let band = sched.peel.clone();
    sched.solve(&all, 0, &band)?;
    sched.peel.schedules()
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

/// How many row combinations one search scores.
const SEARCH_CAP: usize = 20_000;

/// The scheduler's state. The schedule under construction lives in
/// `peel` as full rows `[iters | params | 1]`; candidates and repairs
/// have a zero constant column, so γ stays zero.
struct Sched<'a> {
    scop: &'a Scop,
    fusion: Fusion,
    peel: Peeling<'a>,
}

impl<'a> Sched<'a> {
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
        band: &Peeling<'a>,
    ) -> Result<(), PolymixError> {
        let comps = sccs(stmts, &self.peel.edges(stmts));

        // Greedy fusion of consecutive components.
        let mut groups: Vec<Vec<StmtId>> = Vec::new();
        for comp in comps {
            if self.fusion != Fusion::None && !comp.iter().all(|&s| self.peel.exhausted(s)) {
                if let Some(last) = groups.last_mut() {
                    let last_ok = !last.iter().any(|&s| self.peel.exhausted(s));
                    let smart_ok =
                        self.fusion == Fusion::Max || self.scop.shares_array(last, &comp);
                    if last_ok && smart_ok {
                        let merged = [&last[..], &comp[..]].concat();
                        if self.find_rows(&merged, level, band).is_some()
                            || self.find_rows(&merged, level, &self.peel).is_some()
                        {
                            *last = merged;
                            continue;
                        }
                    }
                }
            }
            groups.push(comp);
        }

        // Assign β and rows per group, then recurse.
        for (pos, group) in groups.into_iter().enumerate() {
            // β ordering satisfies the dependences to later groups; those
            // within the group continue.
            self.peel.place(stmts, &group, pos);
            if group.iter().all(|&s| self.peel.exhausted(s)) {
                continue; // leaf (or group of leaves at identical depth 0)
            }
            // Try within the current band; on failure break the band
            // (snapshot the current states as the new band start).
            let (combo, child_band) = match self.find_rows(&group, level, band) {
                Some(c) => (c, band.clone()),
                None => match self.find_rows(&group, level, &self.peel) {
                    Some(c) => (c, self.peel.clone()),
                    None => {
                        return Err(PolymixError::scheduling(
                            &self.scop.name,
                            level,
                            group.iter().map(|s| s.0).collect(),
                            "no legal row combination, even after band break",
                        ));
                    }
                },
            };
            // Commit the rows and peel the dependences.
            self.peel.commit(&group, &combo);
            self.solve(&group, level + 1, &child_band)?;
        }
        Ok(())
    }

    /// Searches for one legal row per statement of the group at `level`.
    /// Pure (states untouched). Returns the chosen (repaired) rows.
    fn find_rows(&self, group: &[StmtId], level: usize, band: &Peeling) -> Option<Vec<Vec<i64>>> {
        let cands: Vec<Vec<Vec<i64>>> = group
            .iter()
            .map(|&s| self.candidates(s, group.len()))
            .collect();
        let lens: Vec<usize> = cands.iter().map(Vec::len).collect();
        // Bounded cartesian search, best score wins.
        let mut best: Option<(i64, Vec<Vec<i64>>)> = None;
        odometer(&lens, SEARCH_CAP, |idx| {
            let combo: Vec<Vec<i64>> = idx.iter().zip(&cands).map(|(&i, c)| c[i].clone()).collect();
            let (score, repaired) = self.try_combo(group, &combo, level, band)?;
            if best.as_ref().is_none_or(|(b, _)| score < *b) {
                best = Some((score, repaired));
                if score == 0 {
                    return Some(());
                }
            }
            None
        });
        best.map(|(_, combo)| combo)
    }

    /// Candidate rows for statement `s`: unit iterators linearly
    /// independent of the chosen rows, then (for small groups) pairwise
    /// sums of iterators, filtered for independence by rank of their
    /// iterator columns. Full rows with a zero constant column.
    fn candidates(&self, s: StmtId, group_size: usize) -> Vec<Vec<i64>> {
        if self.peel.exhausted(s) {
            return Vec::new();
        }
        let d = self.scop.statements[s.0].dim;
        let chosen = self.peel.rows(s);
        let independent = |r: &Vec<i64>| -> bool {
            let mut m = IntMat::zeros(0, d);
            for c in chosen {
                m.push_row(&c[..d]);
            }
            let base = m.rank();
            m.push_row(&r[..d]);
            // An overflowing rank proves nothing: not a candidate.
            matches!((base, m.rank()), (Some(base), Some(with_r)) if with_r > base)
        };
        let unit_sum = |its: &[usize]| {
            let mut r = vec![0i64; d + self.scop.n_params() + 1];
            for &i in its {
                r[i] = 1;
            }
            r
        };
        let mut out: Vec<Vec<i64>> = (0..d).map(|i| unit_sum(&[i])).collect();
        if group_size <= 4 {
            for i in 0..d {
                out.extend((i + 1..d).map(|j| unit_sum(&[i, j])));
            }
        }
        out.retain(independent);
        out
    }

    /// Checks the combo's legality (without touching any state),
    /// applying skew-repair when a dependence goes backwards. Returns the
    /// reuse-distance score on the current states together with the
    /// (possibly repaired) rows, or `None` if illegal even after repair.
    fn try_combo(
        &self,
        group: &[StmtId],
        combo: &[Vec<i64>],
        level: usize,
        band: &Peeling,
    ) -> Option<(i64, Vec<Vec<i64>>)> {
        let repaired = self.repair(group, combo, level, band)?;
        let params = &self.scop.default_params;
        let reuse: i64 = self
            .peel
            .within(group)
            .map(|e| match e.distance(&repaired, params) {
                DepElem::Const(c) => c.abs(),
                _ => 40,
            })
            .sum();
        // Prefer plain unit rows slightly (Pluto's cost also penalizes
        // skew magnitude). The sum runs over the full row, so a shift in
        // its constant column would count too.
        let skew: i64 = repaired
            .iter()
            .map(|r| r.iter().map(|&c| c.abs()).sum::<i64>() - 1)
            .sum();
        Some((reuse + skew, repaired))
    }

    /// Attempts to make the combo legal on the band-start states (which
    /// contain the current ones, so ordering legality is implied) by
    /// adding multiples of previously fixed rows (uniform across the
    /// group). Deterministic: the caller can re-run it to commit.
    fn repair(
        &self,
        group: &[StmtId],
        combo: &[Vec<i64>],
        level: usize,
        band: &Peeling,
    ) -> Option<Vec<Vec<i64>>> {
        let mut rows: Vec<Vec<i64>> = combo.to_vec();
        'attempt: for attempt in 0..=(2 * level.min(3)) {
            if band.legal(group, &rows) {
                return Some(rows);
            }
            // Add one more multiple of an earlier row to every statement.
            let prev_level = attempt % level.max(1);
            if level == 0 {
                return None;
            }
            for (g, &s) in group.iter().enumerate() {
                let Some(prev) = self.peel.rows(s).get(prev_level) else {
                    continue 'attempt;
                };
                for (dst, &p) in rows[g].iter_mut().zip(prev) {
                    *dst += p;
                }
            }
        }
        band.legal(group, &rows).then_some(rows)
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
