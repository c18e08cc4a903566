//! The merged-prefix walk: re-deriving, per dependence and per occurrence
//! pair, whether the transformed program orders the dependence forward
//! (certificate 1) and whether every parallel annotation on the shared
//! loops is safe (certificate 2).
//!
//! For each dependence `d` and each pair of occurrences of its endpoint
//! statements, the walker follows the two root paths from the program
//! root. While the paths agree they pass through the *same* loops; at
//! each such common level it forms the affine row `r = level(dst) -
//! level(src)` over the dependence space `[x_src | y_dst | params | 1]`
//! and queries Fourier-Motzkin emptiness on the violation polyhedron:
//!
//! * `remaining AND r <= -1` nonempty  =>  some dependent pair runs
//!   backward at this level: a certificate-1 violation. (The optimizers
//!   step only tile loops, whose variables are never solved; on any other
//!   stepped loop `r <= -1` asks about a superset of the backward pairs,
//!   so the check stays sound.)
//! * otherwise the pairs strictly ordered at this level (`r >= 1`)
//!   are discharged — execution order is lexicographic in the common
//!   levels — and the walk continues on `remaining AND r == 0`.
//!
//! Tile controller variables have no affine inverse (their value is a
//! floor of a point variable). The walker instead uses the clamped point
//! loop the controller governs as a *proxy*: with a shared tile base,
//! `point_delta <= -1` implies the tile goes backward or the pair stays
//! in the same tile and fails at the point level anyway, and
//! `point_delta >= tile_step` implies the tile strictly advances. The
//! continuation keeps `0 <= point_delta <= tile_step - 1`.
//!
//! When the paths diverge at a sequence node the sibling order decides:
//! textual forward is satisfied, textual backward with a nonempty
//! remainder is a violation, as is exhausting both paths (two dependent
//! instances sharing a full timestamp).

use crate::occurrence::{LoopMeta, Occurrence, PStep};
use crate::violation::{Violation, ViolationKind};
use polymix_ast::tree::Par;
use polymix_deps::vectors::classify;
use polymix_deps::Dep;
use polymix_ir::Scop;
use polymix_math::poly::{Constraint, Polyhedron};

/// `a + b`; `None` when an entry does not fit `i64`.
fn add_rows(a: &[i64], b: &[i64]) -> Option<Vec<i64>> {
    a.iter().zip(b).map(|(x, y)| x.checked_add(*y)).collect()
}

/// The row `level(dst) - level(src)` of one level; `None` when an entry
/// does not fit `i64`.
fn delta(dst: &[i64], src: &[i64]) -> Option<Vec<i64>> {
    dst.iter()
        .zip(src)
        .map(|(d, s)| d.checked_sub(*s))
        .collect()
}

/// `p ∧ row ≤ bound`, or all of `p` when the row did not fit `i64`: the
/// obligation's row is dropped, so the set is a superset of the intended
/// one, whose emptiness still proves the obligation and whose
/// non-emptiness reads as "not proven".
fn and_le(p: &Polyhedron, row: Option<&[i64]>, bound: Option<i64>) -> Polyhedron {
    match row.zip(bound) {
        Some((row, bound)) => p.and_le(row, bound),
        None => p.clone(),
    }
}

/// The pairs of `remaining` tied at a level of row `r`: `r == 0`, or
/// `0 <= r < m` when `r` is a proxy for a tile controller of step `m`.
fn tied(remaining: &Polyhedron, r: &[i64], coarse_span: Option<i64>) -> Polyhedron {
    match coarse_span {
        None => remaining.and_eq0(r),
        Some(m) => remaining.and_ge(r, 0).and_le(r, m - 1),
    }
}

/// What happened at one common level.
enum LevelOutcome {
    /// Every remaining pair is strictly ordered (or none remain).
    Satisfied,
    /// A violation was recorded; stop walking this pair.
    Violated,
    /// Tied pairs remain; descend.
    Continue,
}

pub(crate) struct PairWalk<'a> {
    pub scop: &'a Scop,
    pub dep: &'a Dep,
    pub occ_s: &'a Occurrence,
    pub occ_d: &'a Occurrence,
    pub sample: &'a [i64],
    /// Per walked level, the remainder the level saw and its row
    /// `level(dst) - level(src)`: what a violation's transformed-space
    /// dependence vector is classified from, if one has to be built.
    trail: Vec<(Polyhedron, Vec<i64>)>,
    level: usize,
    remaining: Polyhedron,
}

impl<'a> PairWalk<'a> {
    pub fn new(
        scop: &'a Scop,
        dep: &'a Dep,
        occ_s: &'a Occurrence,
        occ_d: &'a Occurrence,
        sample: &'a [i64],
    ) -> PairWalk<'a> {
        PairWalk {
            scop,
            dep,
            occ_s,
            occ_d,
            sample,
            trail: Vec::new(),
            level: 0,
            remaining: dep.poly.clone(),
        }
    }

    fn stmt_name(&self, idx: usize) -> String {
        self.scop
            .statements
            .get(idx)
            .map(|s| s.name.clone())
            .unwrap_or_else(|| format!("S{idx}"))
    }

    fn violation(&self, kind: ViolationKind, loop_name: &str, detail: String, fix: &str) -> Violation {
        Violation {
            kind,
            src: self.stmt_name(self.occ_s.stmt),
            dst: self.stmt_name(self.occ_d.stmt),
            vector: self
                .trail
                .iter()
                .map(|(remaining, r)| classify(remaining, r, self.sample))
                .collect(),
            level: self.level,
            loop_name: loop_name.to_string(),
            detail,
            fix: fix.to_string(),
        }
    }

    /// Statement-local solved row of `var` on one side, lifted into the
    /// dependence space.
    fn lifted(&self, var: usize, src_side: bool) -> Option<Vec<i64>> {
        if src_side {
            self.occ_s
                .solved
                .get(&var)
                .map(|r| self.dep.lift_src_row(r))
        } else {
            self.occ_d
                .solved
                .get(&var)
                .map(|r| self.dep.lift_dst_row(r))
        }
    }

    /// Intersects the guards found along both paths into the remainder,
    /// and, for a statement with several occurrences, the ranges of the
    /// loops above each: real executions satisfy them, so this only
    /// sharpens the model. A row over a variable with no affine inverse
    /// (a tile controller) is skipped.
    fn apply_guards(&mut self) {
        for (occ, src_side) in [(self.occ_s, true), (self.occ_d, false)] {
            let rows = occ.path.iter().flat_map(|step| match step {
                PStep::Guard { exprs } => &exprs[..],
                PStep::Loop(l) if occ.copied => &l.range[..],
                _ => &[],
            });
            'expr: for e in rows {
                let dim = occ.iter_exprs.len();
                let np = self.scop.n_params();
                let mut local = vec![0i64; dim + np + 1];
                for &(v, c) in &e.var_coeffs {
                    if c == 0 {
                        continue;
                    }
                    let Some(sr) = occ.solved.get(&v) else {
                        continue 'expr; // unsolvable var: skip this expr
                    };
                    for (j, &x) in sr.iter().enumerate() {
                        // A row that does not fit `i64` is skipped too.
                        let Some(sum) = c.checked_mul(x).and_then(|cx| local[j].checked_add(cx))
                        else {
                            continue 'expr;
                        };
                        local[j] = sum;
                    }
                }
                let constants = e.param_coeffs.iter().filter(|t| t.0 < np);
                let constants = constants
                    .map(|&(p, c)| (dim + p, c))
                    .chain([(dim + np, e.c)]);
                for (j, c) in constants {
                    let Some(sum) = local[j].checked_add(c) else {
                        continue 'expr;
                    };
                    local[j] = sum;
                }
                let lifted = if src_side {
                    self.dep.lift_src_row(&local)
                } else {
                    self.dep.lift_dst_row(&local)
                };
                self.remaining.add(Constraint::ge(lifted));
            }
        }
    }

    /// The row of the first loop at or after `steps[k]` (on one side's
    /// path suffix) that the tile controller `ctrl` clamps to one tile,
    /// `[ctrl, ctrl + step - 1]`, and whose own variable is solvable on
    /// that side — the point loop `ctrl` governs.
    fn proxy_row(&self, suffix: &[&PStep], ctrl: usize, src_side: bool) -> Option<Vec<i64>> {
        suffix.iter().find_map(|step| match step {
            PStep::Loop(l) if l.clamped_by.contains(&ctrl) => self.lifted(l.var, src_side),
            _ => None,
        })
    }

    /// The grid-column row below a pipeline/wavefront level on one side:
    /// the first deeper loop's value, or its proxy when that loop is
    /// itself a tile controller, with the proxy span — `0` for a directly
    /// solved column, the controller's step when the value only bounds
    /// the real column to within one tile.
    fn column_row(&self, suffix: &[&PStep], src_side: bool) -> Option<(Vec<i64>, i64)> {
        for (k, step) in suffix.iter().enumerate() {
            let PStep::Loop(l) = step else { continue };
            if let Some(r) = self.lifted(l.var, src_side) {
                return Some((r, 0));
            }
            return self
                .proxy_row(&suffix[k + 1..], l.var, src_side)
                .map(|r| (r, l.step));
        }
        None
    }

    /// Runs the walk, appending any violations to `out`.
    pub fn run(mut self, out: &mut Vec<Violation>) {
        self.apply_guards();
        if self.remaining.is_empty() {
            return;
        }
        let unguarded = |occ: &'a Occurrence| -> Vec<&'a PStep> {
            let is_guard = |s: &&PStep| matches!(s, PStep::Guard { .. });
            occ.path.iter().filter(|s| !is_guard(s)).collect()
        };
        let (steps_s, steps_d) = (unguarded(self.occ_s), unguarded(self.occ_d));
        let mut k = 0usize;
        loop {
            match (steps_s.get(k), steps_d.get(k)) {
                (
                    Some(PStep::Seq {
                        id: a, child: ca, ..
                    }),
                    Some(PStep::Seq {
                        id: b, child: cb, ..
                    }),
                ) if a == b => {
                    if ca == cb {
                        k += 1;
                        continue;
                    }
                    // Textual divergence with identical shared iterations.
                    if ca > cb && !self.remaining.is_empty() {
                        out.push(self.violation(
                            ViolationKind::IllegalOrder,
                            "",
                            "target occurs textually before source while every shared loop \
                             level is tied"
                                .to_string(),
                            "reorder the statements or re-run scheduling; the transformed \
                             program inverts this dependence",
                        ));
                    }
                    return;
                }
                (Some(PStep::Loop(la)), Some(PStep::Loop(lb))) if la.id == lb.id => {
                    let outcome = self.handle_level(la, &steps_s[k + 1..], &steps_d[k + 1..], out);
                    match outcome {
                        LevelOutcome::Satisfied | LevelOutcome::Violated => return,
                        LevelOutcome::Continue => {
                            self.level += 1;
                            k += 1;
                        }
                    }
                }
                _ => break,
            }
        }
        // Both paths exhausted (same statement node, or structurally
        // identical positions): any remaining pair shares its full
        // timestamp with its source.
        if !self.remaining.is_empty() {
            out.push(self.violation(
                ViolationKind::IllegalOrder,
                "",
                "two distinct dependent instances map to the same timestamp"
                    .to_string(),
                "the transformation dropped a loop level that carried this dependence; \
                 restore it or reject the schedule",
            ));
        }
    }

    /// The row `level(dst) - level(src)` of the common loop `l` and,
    /// when the row is a tile controller's proxy, the controller's step;
    /// `None` when `l` has neither an affine inverse nor a proxy on both
    /// sides, or the difference does not fit `i64` (then, as for a
    /// variable whose solve overflowed, nothing is proved at `l`).
    /// Backward is `r <= -1` and carried `r >= 1`: the loops with a row
    /// step by 1 (DESIGN §19, "Register tiling is a mark").
    fn level_row(
        &self,
        l: &LoopMeta,
        rest_s: &[&PStep],
        rest_d: &[&PStep],
    ) -> Option<(Vec<i64>, Option<i64>)> {
        if let Some((rs, rd)) = self.lifted(l.var, true).zip(self.lifted(l.var, false)) {
            return delta(&rd, &rs).map(|r| (r, None));
        }
        let ps = self.proxy_row(rest_s, l.var, true);
        let pd = self.proxy_row(rest_d, l.var, false);
        let (rs, rd) = ps.zip(pd)?;
        delta(&rd, &rs).map(|r| (r, Some(l.step)))
    }

    /// The jam certificate: for every loop marked `jam: f` on both
    /// paths, the dependent pairs tied at every common level above it and
    /// `1..f` apart in it may meet in one block of the unroll-and-jam,
    /// which runs the body's positions and inner iterations first and the
    /// replica last. None of them may run backward below the jammed loop:
    /// at each deeper common level they keep `r >= 0` (and descend on
    /// `r == 0`), and where the paths part, the source's branch comes
    /// first; pairs tied all the way meet in one statement, where the
    /// replica order runs them forward. Parallel marks play no part: the
    /// emitter realizes a jam only where the loop runs sequentially, and
    /// the pairs a region reorders are the other certificates' business.
    /// One set of emptiness questions per dependence and occurrence pair,
    /// whatever `f` is.
    pub fn run_jams(mut self, out: &mut Vec<Violation>) {
        self.apply_guards();
        let unguarded = |occ: &'a Occurrence| -> Vec<&'a PStep> {
            occ.path.iter().filter(|s| !matches!(s, PStep::Guard { .. })).collect()
        };
        let (steps_s, steps_d) = (unguarded(self.occ_s), unguarded(self.occ_d));
        for k in 0..steps_s.len().min(steps_d.len()) {
            match (steps_s[k], steps_d[k]) {
                (PStep::Seq { id: a, child: ca, .. }, PStep::Seq { id: b, child: cb, .. })
                    if a == b && ca == cb => {}
                (PStep::Loop(la), PStep::Loop(lb)) if la.id == lb.id => {
                    let (rest_s, rest_d) = (&steps_s[k + 1..], &steps_d[k + 1..]);
                    if la.jam > 1 {
                        self.check_jam(la, rest_s, rest_d, out);
                    }
                    // Pairs ordered here are ordered in the jammed code
                    // too; a level with no row keeps every pair.
                    if let Some((r, coarse)) = self.level_row(la, rest_s, rest_d) {
                        self.remaining = tied(&self.remaining, &r, coarse);
                    }
                    self.level += 1;
                }
                _ => return,
            }
        }
    }

    /// The pairs `1..jam` apart in the jammed loop `l`, walked down the
    /// rest of both paths.
    fn check_jam(&self, l: &LoopMeta, rest_s: &[&PStep], rest_d: &[&PStep], out: &mut Vec<Violation>) {
        let unsafe_jam = |detail: String| {
            let mut v = self.violation(
                ViolationKind::JamUnsafe,
                &l.name,
                format!("jam {} of loop `{}`: {detail}", l.jam, l.name),
                "drop the jam mark, or jam a loop these instances do not meet under",
            );
            v.level = self.level;
            v
        };
        let Some((rs, rd)) = self.lifted(l.var, true).zip(self.lifted(l.var, false)) else {
            out.push(unsafe_jam("the jammed loop's variable has no affine inverse".to_string()));
            return;
        };
        let Some(r) = delta(&rd, &rs) else {
            out.push(unsafe_jam(
                "the jammed loop's row does not fit `i64`".to_string(),
            ));
            return;
        };
        let mut part = self.remaining.and_ge(&r, 1).and_le(&r, l.jam - 1);
        let mut k = 0;
        while !part.is_empty() {
            match (rest_s.get(k), rest_d.get(k)) {
                // Tied everywhere: one statement, the replicas in order.
                (None, None) => return,
                (Some(PStep::Seq { id: a, child: ca, .. }), Some(PStep::Seq { id: b, child: cb, .. }))
                    if a == b =>
                {
                    if ca < cb {
                        return;
                    }
                    if ca > cb {
                        out.push(unsafe_jam("the target's statement comes first in the body".to_string()));
                        return;
                    }
                }
                (Some(PStep::Loop(la)), Some(PStep::Loop(lb))) if la.id == lb.id => {
                    let below = (&rest_s[k + 1..], &rest_d[k + 1..]);
                    let Some((rk, coarse)) = self.level_row(la, below.0, below.1) else {
                        out.push(unsafe_jam(format!("loop `{}` below it has no affine inverse", la.name)));
                        return;
                    };
                    if !part.and_le(&rk, -1).is_empty() {
                        out.push(unsafe_jam(format!(
                            "the dependence runs backward at loop `{}` within one block",
                            la.name
                        )));
                        return;
                    }
                    part = tied(&part, &rk, coarse);
                }
                _ => {
                    out.push(unsafe_jam("the two paths part outside the model".to_string()));
                    return;
                }
            }
            k += 1;
        }
    }

    fn handle_level(
        &mut self,
        l: &LoopMeta,
        rest_s: &[&PStep],
        rest_d: &[&PStep],
        out: &mut Vec<Violation>,
    ) -> LevelOutcome {
        // Reduction dependences are relaxed at a reduction level that
        // privatizes their array (the alias pass proves the privatization
        // additive) and reassociated at a pipeline level; they need no
        // ordering below either.
        let relaxed = match &l.par {
            Par::Reduction(reduced) => reduced.contains(&self.dep.array.0),
            Par::Pipeline => true,
            _ => false,
        };
        if self.dep.is_reduction && relaxed {
            return LevelOutcome::Satisfied;
        }

        let Some((r, coarse_span)) = self.level_row(l, rest_s, rest_d) else {
            out.push(self.violation(
                ViolationKind::Unsupported,
                &l.name,
                "loop variable has no affine inverse that fits `i64` and no \
                 clamped point loop to proxy it; nothing proved for this dependence"
                    .to_string(),
                "",
            ));
            return LevelOutcome::Satisfied;
        };

        self.trail.push((self.remaining.clone(), r.clone()));

        // Certificate 1: no dependent pair may run backward at this
        // level.
        if !self.remaining.and_le(&r, -1).is_empty() {
            out.push(self.violation(
                ViolationKind::IllegalOrder,
                &l.name,
                format!(
                    "dependence runs backward at loop `{}` (target precedes source)",
                    l.name
                ),
                "the composed transformation reverses this dependence at this level; \
                 reject the schedule or re-skew the nest",
            ));
            return LevelOutcome::Violated;
        }

        // Certificate 2: annotation safety over the pre-shrink remainder
        // (carried pairs included).
        let safe = match l.par {
            Par::Seq => true,
            Par::Doall => self.check_doall(l, &r, out),
            Par::Reduction(_) => self.check_reduction(l, &r, out),
            Par::Pipeline => self.check_pipeline(l, &r, rest_s, rest_d, out),
            Par::Wavefront => self.check_wavefront(l, &r, rest_s, rest_d, out),
        };
        if !safe {
            return LevelOutcome::Violated;
        }

        // Shrink: keep the tied pairs, discharge the strictly ordered.
        self.remaining = tied(&self.remaining, &r, coarse_span);
        if self.remaining.is_empty() {
            LevelOutcome::Satisfied
        } else {
            LevelOutcome::Continue
        }
    }

    fn check_doall(&self, l: &LoopMeta, r: &[i64], out: &mut Vec<Violation>) -> bool {
        if self.remaining.and_ge(r, 1).is_empty() {
            return true;
        }
        out.push(self.violation(
            ViolationKind::DoallCarriesDep,
            &l.name,
            format!("doall loop `{}` carries this dependence", l.name),
            "demote the loop to sequential, or to reduction/pipeline if the carried \
             dependences qualify",
        ));
        false
    }

    fn check_reduction(&self, l: &LoopMeta, r: &[i64], out: &mut Vec<Violation>) -> bool {
        // Reduction self-updates were discharged above; anything still
        // here must not be carried in either direction.
        if self.remaining.and_ge(r, 1).is_empty() {
            return true;
        }
        out.push(self.violation(
            ViolationKind::ReductionUnsafe,
            &l.name,
            format!(
                "reduction loop `{}` carries a dependence that is not a \
                 self-update of an array it privatizes",
                l.name
            ),
            "only `A[f] = A[f] + e` self-updates of a listed array may be carried; \
             demote the loop to sequential",
        ));
        false
    }

    /// Sibling phase index of one side directly below the pipeline loop:
    /// `Some(i)` when the loop body is a `Seq` and the side descends into
    /// its `i`-th loop child, `None` for a single sub-nest.
    fn sibling_of(suffix: &[&PStep]) -> Result<Option<usize>, ()> {
        match suffix.first() {
            Some(PStep::Seq { loop_sib, .. }) => match loop_sib {
                Some(s) => Ok(Some(*s)),
                None => Err(()), // non-loop sibling under a fused pipeline
            },
            _ => Ok(None),
        }
    }

    fn check_pipeline(
        &self,
        l: &LoopMeta,
        r: &[i64],
        rest_s: &[&PStep],
        rest_d: &[&PStep],
        out: &mut Vec<Violation>,
    ) -> bool {
        // Phase order: the emitter runs a fused body's sibling sub-loops
        // as consecutive phases of each outer step. A dependence into an
        // earlier sibling must advance the outer level.
        let sibs = Self::sibling_of(rest_s).and_then(|s| Self::sibling_of(rest_d).map(|d| (s, d)));
        let (sib_s, sib_d) = match sibs {
            Ok((s, d)) => (s.unwrap_or(0), d.unwrap_or(0)),
            Err(()) => {
                out.push(self.violation(
                    ViolationKind::Unsupported,
                    &l.name,
                    "pipeline loop body mixes loop and non-loop siblings; the fused \
                     phase protocol is not certified for this dependence"
                        .to_string(),
                    "",
                ));
                return true;
            }
        };
        if sib_d < sib_s && !self.remaining.and_eq0(r).is_empty() {
            out.push(self.violation(
                ViolationKind::PipelineConeUncovered,
                &l.name,
                format!(
                    "dependence flows to an earlier sibling phase of pipeline loop \
                     `{}` within the same outer step",
                    l.name
                ),
                "the await cone {(-1,0),(0,-1)} cannot cover a backward phase; \
                 demote the loop or reorder the fused siblings",
            ));
            return false;
        }
        // Column order. The emitter carves thread blocks on a common
        // absolute grid with the chunk rounded up to the largest sibling
        // step, and progress counts (outer step, sibling) *phases*; the
        // right-neighbor await trails one phase. A dependent pair is
        // therefore covered when its leftward column movement is at most
        // one block — at least `span` cells — per phase advance:
        //
        //     -rc  <=  span * dphase ,
        //     dphase = nsib * (r / outer_step) + (sib_d - sib_s).
        //
        // Linearized with the conservative lower bound `nsib >= 1` and
        // scaled by the outer step, a pair is *uncovered* when
        //
        //     step*rc + span*r  <=  -step*span*(dsib + 1)
        //
        // where `span` is the tile span when a column is a proxied
        // controller (same-tile jitter never crosses a block boundary:
        // the chunk is a step multiple), so same-tile polyhedron points
        // are not mistaken for cross-thread executions, and 1 when both
        // columns are solved loops, which step by 1.
        let cols = self
            .column_row(rest_s, true)
            .zip(self.column_row(rest_d, false));
        let Some(((cs, hs), (cd, hd))) = cols else {
            out.push(self.violation(
                ViolationKind::Unsupported,
                &l.name,
                "pipeline loop has no analyzable inner grid dimension; the await \
                 cone is not certified for this dependence"
                    .to_string(),
                "",
            ));
            return true;
        };
        let step = l.step.max(1);
        let span = hs.max(hd).max(1);
        let dsib = sib_d as i64 - sib_s as i64;
        let w: Option<Vec<i64>> = delta(&cd, &cs).and_then(|rc| {
            let terms = rc.iter().zip(r);
            terms
                .map(|(c, rr)| step.checked_mul(*c)?.checked_add(span.checked_mul(*rr)?))
                .collect()
        });
        let bound = step
            .checked_mul(span)
            .and_then(|m| m.checked_mul(-(dsib + 1)));
        // Real pairs never run backward at a passed level; keep the
        // polyhedron to `r >= 0` before testing the cone.
        let fwd = self.remaining.and_ge(r, 0);
        let uncovered = and_le(&fwd, w.as_deref(), bound);
        if uncovered.is_empty() {
            return true;
        }
        out.push(self.violation(
            ViolationKind::PipelineConeUncovered,
            &l.name,
            format!(
                "carried dependence of pipeline loop `{}` moves leftward in the \
                 grid column: not covered by await sources (i-1, j), (i, j-1)",
                l.name
            ),
            "skew the inner dimension until every carried dependence is \
             componentwise non-negative, or demote the loop",
        ));
        false
    }

    fn check_wavefront(
        &self,
        l: &LoopMeta,
        r: &[i64],
        rest_s: &[&PStep],
        rest_d: &[&PStep],
        out: &mut Vec<Violation>,
    ) -> bool {
        // The wavefront pair (this level, next level) executes diagonal
        // by diagonal with a barrier in between; componentwise
        // non-negative dependences strictly advance the (weighted)
        // diagonal unless fully tied, which is exactly the safe set.
        let cols = self
            .column_row(rest_s, true)
            .zip(self.column_row(rest_d, false));
        let Some(((cs, _), (cd, _))) = cols else {
            out.push(self.violation(
                ViolationKind::Unsupported,
                &l.name,
                "wavefront loop has no analyzable inner dimension; the diagonal \
                 schedule is not certified for this dependence"
                    .to_string(),
                "",
            ));
            return true;
        };
        let rc = delta(&cd, &cs);
        let diag = rc.as_deref().and_then(|rc| add_rows(r, rc));
        if !and_le(&self.remaining, diag.as_deref(), Some(-1)).is_empty() {
            out.push(self.violation(
                ViolationKind::WavefrontUnsafe,
                &l.name,
                format!(
                    "dependence crosses the wavefront diagonal of `{}` backward",
                    l.name
                ),
                "the diagonal schedule reverses this dependence; demote the loop",
            ));
            return false;
        }
        if !and_le(&self.remaining, rc.as_deref(), Some(-1)).is_empty() {
            out.push(self.violation(
                ViolationKind::WavefrontUnsafe,
                &l.name,
                format!(
                    "dependence races within a diagonal of wavefront loop `{}` \
                     (distinct cells, inner component negative)",
                    l.name
                ),
                "cells of one diagonal run in parallel; skew until carried \
                 dependences are componentwise non-negative or demote the loop",
            ));
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occurrence::LoopMeta;
    use polymix_ast::tree::LinExpr;
    use polymix_deps::DepKind;
    use polymix_ir::builder::{con, ix, par, ScopBuilder};
    use polymix_ir::{ArrayId, Expr, StmtId};

    const MAX: i64 = i64::MAX;

    /// `for x in 0..N: A[x] = 0`: one statement of depth 1.
    fn scop() -> Scop {
        let mut b = ScopBuilder::new("one", &["N"], &[8]);
        let a = b.array("A", &["N"]);
        b.enter("x", con(0), par("N"));
        b.stmt("S0", a, &[ix("x")], Expr::Const(0.0));
        b.exit();
        b.finish().expect("well-formed SCoP")
    }

    /// The statement's instances `x` and `y = x + shift`, both in
    /// `0..N`, over `[x | y | N | 1]`.
    fn dep(shift: i64) -> Dep {
        let mut poly = Polyhedron::universe(3);
        for v in [0, 1] {
            let mut row = vec![0; 4];
            row[v] = 1;
            poly.add_ge(&row, 0);
            row[2] = -1;
            poly.add_le(&row, -1);
        }
        poly.add_eq0(&[-1, 1, 0, -shift]);
        Dep {
            src: StmtId(0),
            dst: StmtId(0),
            kind: DepKind::Flow,
            array: ArrayId(0),
            src_dim: 1,
            dst_dim: 1,
            poly,
            is_reduction: false,
        }
    }

    fn level(id: usize, var: usize, step: i64, par: Par) -> PStep {
        PStep::Loop(LoopMeta {
            id,
            var,
            name: format!("c{var}"),
            step,
            par,
            jam: 1,
            range: Vec::new(),
            clamped_by: Vec::new(),
        })
    }

    /// The statement under `path`, its AST variable `v` recovered as the
    /// local row `[x | N | 1]` of each `(v, row)`.
    fn occ(path: Vec<PStep>, solved: &[(usize, [i64; 3])]) -> Occurrence {
        Occurrence {
            stmt: 0,
            copied: false,
            path,
            iter_exprs: vec![LinExpr::var(0)],
            solved: solved.iter().map(|&(v, r)| (v, r.to_vec())).collect(),
        }
    }

    fn kinds(dep: &Dep, src: &Occurrence, dst: &Occurrence) -> Vec<ViolationKind> {
        let scop = scop();
        let mut out = Vec::new();
        PairWalk::new(&scop, dep, src, dst, &[8]).run(&mut out);
        out.into_iter().map(|v| v.kind).collect()
    }

    /// `delta`: the source's loop value `MIN·x` has no negation, so the
    /// level has no row and nothing is proved there.
    #[test]
    fn a_level_row_that_overflows_proves_nothing() {
        let path = || vec![level(0, 0, 1, Par::Seq)];
        let src = occ(path(), &[(0, [i64::MIN, 0, 0])]);
        let dst = occ(path(), &[(0, [1, 0, 0])]);
        assert_eq!(kinds(&dep(1), &src, &dst), [ViolationKind::Unsupported]);
    }

    /// The row fold of `apply_guards`: the guard `2·w ≥ 0` with
    /// `w = MAX·x` holds on every instance, and wrapped it read
    /// `-2·x ≥ 0`, which cut away the backward pairs `y = x - 1`: a
    /// false accept. The guard that does not fit is skipped.
    #[test]
    fn a_guard_row_that_overflows_is_skipped_not_wrapped() {
        let guard = PStep::Guard {
            exprs: vec![LinExpr {
                var_coeffs: vec![(1, 2)],
                ..Default::default()
            }],
        };
        let src = occ(
            vec![guard, level(0, 0, 1, Par::Seq)],
            &[(0, [1, 0, 0]), (1, [MAX, 0, 0])],
        );
        let dst = occ(vec![level(0, 0, 1, Par::Seq)], &[(0, [1, 0, 0])]);
        assert_eq!(kinds(&dep(-1), &src, &dst), [ViolationKind::IllegalOrder]);
    }

    /// `add_rows`: the diagonal of a wavefront whose outer and column
    /// rows both have the constant `MAX/2 + 1` does not fit, so the
    /// diagonal obligation reads "not proven".
    #[test]
    fn a_wavefront_diagonal_that_overflows_is_not_proven() {
        let half = MAX / 2 + 1;
        let path = || vec![level(0, 0, 1, Par::Wavefront), level(1, 1, 1, Par::Seq)];
        let src = occ(path(), &[(0, [1, 0, 0]), (1, [1, 0, 0])]);
        let dst = occ(path(), &[(0, [1, 0, half]), (1, [1, 0, half])]);
        assert_eq!(kinds(&dep(1), &src, &dst), [ViolationKind::WavefrontUnsafe]);
    }

    /// `step·rc + span·r`: the column moves `MIN/2 - 1` left per outer
    /// step, which does not fit `i64` once scaled by the step of 2 (it
    /// wrapped to a large rightward move); the cone obligation reads
    /// "not proven".
    #[test]
    fn a_pipeline_cone_row_that_overflows_is_not_proven() {
        let path = || vec![level(0, 0, 2, Par::Pipeline), level(1, 1, 1, Par::Seq)];
        let src = occ(path(), &[(0, [1, 0, 0]), (1, [0, 0, 0])]);
        let dst = occ(path(), &[(0, [1, 0, 0]), (1, [0, 0, i64::MIN / 2 - 1])]);
        assert_eq!(
            kinds(&dep(1), &src, &dst),
            [ViolationKind::PipelineConeUncovered]
        );
    }

    /// `-step·span·(dsib + 1)`: a step of `MAX` over two fused sibling
    /// phases has no bound in `i64`; the obligation reads "not proven".
    #[test]
    fn a_pipeline_cone_bound_that_overflows_is_not_proven() {
        let phase = |loop_sib| PStep::Seq {
            id: 9,
            child: loop_sib,
            loop_sib: Some(loop_sib),
        };
        let path = |sib| {
            vec![
                level(0, 0, MAX, Par::Pipeline),
                phase(sib),
                level(1 + sib, 1, 1, Par::Seq),
            ]
        };
        // Both columns read 0: the cone row is `r` itself.
        let src = occ(path(0), &[(0, [1, 0, 0]), (1, [0, 0, 0])]);
        let dst = occ(path(1), &[(0, [1, 0, 0]), (1, [0, 0, 0])]);
        assert_eq!(
            kinds(&dep(1), &src, &dst),
            [ViolationKind::PipelineConeUncovered]
        );
    }
}
