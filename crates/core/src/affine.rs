//! The cache-aware affine transformation stage (Sec. III, Algorithms 2–5).
//!
//! Schedules are restricted to the paper's `2d+1` class with **signed
//! permutation** α rows: at each level every statement is assigned one of
//! its original iterators (possibly reversed and retimed), in the order
//! the **DL model** ranks most profitable (Sec. III-B1); SCCs are fused
//! greedily under the five conditions of Algorithm 5, with DL fusion
//! profitability (Sec. III-B2) as the cost test.
//!
//! Differences from the Pluto-like baseline (`polymix-pluto`) are exactly
//! the paper's thesis: no skewed hyperplanes ever enter the schedule
//! (skewing happens later, syntactically), and the permutation objective
//! is the DL memory cost rather than minimal reuse distance.

use polymix_deps::legality::{odometer, Peeling};
use polymix_deps::vectors::classify;
use polymix_deps::{build_podg, sccs, DepElem, Podg};
use polymix_dl::{fusion_profitable, permutation_priority, Machine, RefInfo};
use polymix_ir::error::PolymixError;
use polymix_ir::scop::StmtId;
use polymix_ir::{Schedule, Scop};

/// Runs Algorithms 2–5 and returns the per-statement schedules. Errors
/// with [`PolymixError::Scheduling`] when no legal signed-permutation
/// assignment exists at some level; the flow driver falls back to the
/// original schedules in that case.
pub fn affine_stage(scop: &Scop, machine: &Machine) -> Result<Vec<Schedule>, PolymixError> {
    affine_stage_with(scop, machine, true)
}

/// Like [`affine_stage`], optionally disabling inter-SCC fusion
/// (Algorithm 5 degenerates to per-SCC scheduling) — the knob behind the
/// `ablation_fusion` experiment.
pub fn affine_stage_with(
    scop: &Scop,
    machine: &Machine,
    enable_fusion: bool,
) -> Result<Vec<Schedule>, PolymixError> {
    let _memo = polymix_math::memo::scope();
    let podg = build_podg(scop);
    let mut a = Affine::new(scop, &podg, machine, enable_fusion);
    let all: Vec<StmtId> = (0..scop.statements.len()).map(StmtId).collect();
    a.solve(&all, 0)?;
    let schedules = a.peel.schedules()?;
    if let Some(i) = schedules.iter().position(|s| !s.is_signed_permutation()) {
        return Err(PolymixError::scheduling(
            &scop.name,
            0,
            vec![i],
            "affine stage produced non-permutation α",
        ));
    }
    Ok(schedules)
}

/// How many iterator combinations Algorithm 4's search tries per group.
const SEARCH_CAP: usize = 20_000;

struct Affine<'a> {
    scop: &'a Scop,
    machine: &'a Machine,
    enable_fusion: bool,
    /// DL-best iterator order per statement (outermost first).
    priorities: Vec<Vec<usize>>,
    /// The dependence states and the schedule under construction: one
    /// [`Affine::pick_row`] per committed level.
    peel: Peeling<'a>,
    /// The iterator dimension matching chose for a statement at the
    /// current level (`Affine::absorbs`), tried before its DL order.
    matched: Vec<Option<usize>>,
}

/// One statement's candidate assignment at a level: α row `sign · iter`,
/// γ constant `shift`.
#[derive(Clone, Debug)]
struct Pick {
    iter: usize,
    sign: i64,
    shift: i64,
}

impl<'a> Affine<'a> {
    fn new(scop: &'a Scop, podg: &'a Podg, machine: &'a Machine, enable_fusion: bool) -> Self {
        // DL permutation priority per statement (original iterators,
        // outermost-profitable first).
        let priorities: Vec<Vec<usize>> = scop
            .statements
            .iter()
            .map(|st| {
                if st.dim == 0 {
                    return Vec::new();
                }
                let refs: Vec<RefInfo> = st
                    .accesses()
                    .iter()
                    .map(|(acc, _)| {
                        RefInfo::from_access(
                            acc.array.0,
                            acc,
                            &Schedule::identity(st.dim, scop.n_params()),
                            scop.n_params(),
                            st.dim,
                            scop.arrays[acc.array.0].elem_bytes,
                        )
                    })
                    .collect();
                permutation_priority(&refs, st.dim, machine.primary_level())
            })
            .collect();
        let n = scop.statements.len();
        Affine {
            scop,
            machine,
            enable_fusion,
            priorities,
            peel: Peeling::new(scop, podg),
            matched: vec![None; n],
        }
    }

    /// Algorithm 2's recursion over levels. Errors when some group has
    /// no legal permutation assignment at a level.
    fn solve(&mut self, stmts: &[StmtId], level: usize) -> Result<(), PolymixError> {
        let edges = self.peel.edges(stmts);
        let comps = sccs(stmts, &edges);

        // Algorithm 5: pop the SCC of largest dimensionality, greedily
        // absorb every fusable SCC (conditions (1)–(5)), repeat. A merge
        // must be *path-safe*: no unfused component may sit on a
        // dependence path between the group and the candidate, or the
        // final interleaving would be cyclic.
        let reach = comp_reachability(&comps, &edges);
        let mut remaining: Vec<usize> = (0..comps.len()).collect();
        let mut merged_groups: Vec<(Vec<usize>, Vec<StmtId>)> = Vec::new();
        while !remaining.is_empty() {
            // Seed: largest statement dimensionality (ties: textual order).
            let Some(seed_pos) = remaining
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| comps[c].iter().map(|&s| self.peel.left(s)).max().unwrap_or(0))
                .map(|(p, _)| p)
            else {
                break;
            };
            let seed = remaining.remove(seed_pos);
            let mut members = vec![seed];
            let mut group: Vec<StmtId> = comps[seed].clone();
            let seed_exhausted = group.iter().all(|&s| self.peel.exhausted(s));
            if self.enable_fusion && !seed_exhausted {
                loop {
                    let mut changed = false;
                    let mut i = 0;
                    while i < remaining.len() {
                        let cand = remaining[i];
                        let comp = &comps[cand];
                        let others: Vec<usize> = (0..comps.len())
                            .filter(|c| !members.contains(c) && *c != cand)
                            .collect();
                        let ok = !comp.iter().all(|&s| self.peel.exhausted(s))
                            && path_safe(&members, cand, &others, &reach)
                            && self.absorbs(&group, comp);
                        if ok {
                            group.extend(comp.iter().copied());
                            group.sort();
                            members.push(cand);
                            remaining.remove(i);
                            changed = true;
                        } else {
                            i += 1;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
            }
            merged_groups.push((members, group));
        }
        // Order the merged groups topologically (Kahn's algorithm over
        // the group-level reachability graph; ties broken by smallest
        // member component for determinism).
        let ng = merged_groups.len();
        let gedge = |a: usize, b: usize| -> bool {
            merged_groups[a]
                .0
                .iter()
                .any(|&x| merged_groups[b].0.iter().any(|&y| reach[x][y]))
        };
        let mut order: Vec<usize> = Vec::with_capacity(ng);
        let mut placed = vec![false; ng];
        while order.len() < ng {
            let Some(next) = (0..ng)
                .filter(|&g| !placed[g])
                .filter(|&g| {
                    (0..ng).all(|h| placed[h] || h == g || !gedge(h, g))
                })
                .min_by_key(|&g| merged_groups[g].0.iter().min().copied())
            else {
                // A cycle here would mean path_safe was violated.
                return Err(PolymixError::scheduling(
                    &self.scop.name,
                    level,
                    stmts.iter().map(|s| s.0).collect(),
                    "cyclic group graph while ordering fused groups",
                ));
            };
            placed[next] = true;
            order.push(next);
        }
        let mut by_order: Vec<Vec<StmtId>> = Vec::with_capacity(ng);
        for &g in &order {
            by_order.push(merged_groups[g].1.clone());
        }
        let groups = by_order;

        // Compute every group's picks against the pre-β dependence
        // states, then run a *global alignment* pass: cross-group
        // dependences at this level are already ordered by β, but a
        // negative constant distance would block later joint tiling —
        // retime whole groups forward (pure renumbering of distributed
        // loops, always legal across groups).
        let mut planned: Vec<(Vec<StmtId>, Option<Vec<Pick>>)> = Vec::new();
        for group in &groups {
            let picks = if group.iter().all(|&s| self.peel.exhausted(s)) {
                None
            } else {
                let picks = self.find_picks(group, SEARCH_CAP).ok_or_else(|| {
                    PolymixError::scheduling(
                        &self.scop.name,
                        level,
                        group.iter().map(|s| s.0).collect(),
                        "no legal signed-permutation assignment",
                    )
                })?;
                Some(picks)
            };
            planned.push((group.clone(), picks));
        }
        // Dimension matching's choices were for this level only.
        for &s in stmts {
            self.matched[s.0] = None;
        }
        'align: for _ in 0..8 {
            for (d, st) in self.peel.open() {
                // An end's group, its position there, and the group's picks.
                let at = |s: StmtId| {
                    planned
                        .iter()
                        .enumerate()
                        .find_map(|(g, (members, picks))| {
                            Some((g, members.iter().position(|&m| m == s)?, picks.as_ref()?))
                        })
                };
                let (Some((sg, si, sp)), Some((dg, di, dp))) = (at(d.src), at(d.dst)) else {
                    continue;
                };
                if sg == dg {
                    continue;
                }
                let row_src = self.pick_row(d.src, &sp[si]);
                let diff = d.diff_row(&row_src, &self.pick_row(d.dst, &dp[di]));
                let params = &self.scop.default_params;
                if let DepElem::Const(c @ ..=-1) = classify(&st.remaining, &diff, params) {
                    for p in planned[dg].1.iter_mut().flatten() {
                        p.shift -= c;
                    }
                    continue 'align;
                }
            }
            break;
        }
        for (pos, (group, picks)) in planned.into_iter().enumerate() {
            self.peel.place(stmts, &group, pos);
            let Some(picks) = picks else {
                continue;
            };
            let rows = self.pick_rows(&group, &picks);
            self.peel.commit(&group, &rows);
            self.solve(&group, level + 1)?;
        }
        Ok(())
    }

    /// Whether the candidate component `b` joins the group `a` at this
    /// level: Algorithm 5's conditions (1)–(5).
    ///
    /// (1) direct predecessor/successor or no dependences at all (the
    ///     SCC topological order already guarantees `b` never precedes
    ///     `a`; any edge between them makes them adjacent) — the caller's
    ///     `path_safe`, and a shared array, without which condition (3)'s
    ///     profitability fails anyway.
    /// (2) constant reuse distance: some shared array is accessed with
    ///     the same iterator column under both sides' next iterators.
    ///     When it fails on the candidate's top DL iterators, **dimension
    ///     matching** (Acharya & Bondhugula) re-chooses them: each of the
    ///     candidate's statements takes its best-ranked remaining iterator
    ///     whose column on a shared array equals the group's, never the
    ///     one the DL model put innermost. The choice holds for the rest
    ///     of the level — the probes below and the final `find_picks` try
    ///     it first — and is undone if any condition then fails.
    /// (3)–(5): [`Affine::fusion_conditions`].
    fn absorbs(&mut self, a: &[StmtId], b: &[StmtId]) -> bool {
        if !self.scop.shares_array(a, b) {
            return false;
        }
        if self.aligned_shared_access(a, b) {
            return self.fusion_conditions(a, b);
        }
        let before: Vec<Option<usize>> = b.iter().map(|s| self.matched[s.0]).collect();
        if self.match_dimensions(a, b)
            && self.aligned_shared_access(a, b)
            && self.fusion_conditions(a, b)
        {
            return true;
        }
        for (s, m) in b.iter().zip(before) {
            self.matched[s.0] = m;
        }
        false
    }

    /// Conditions (3)–(5) of Algorithm 5 for groups that already meet
    /// (1) and (2): (3) the DL fusion-cost test; (5) fusion must not kill
    /// outermost parallelism — if both groups are doall at this level,
    /// the merged one must be too; (4) a legal reversal/retiming
    /// combination of the merged group's next iterators exists.
    fn fusion_conditions(&mut self, a: &[StmtId], b: &[StmtId]) -> bool {
        if !self.fusion_profitable(a, b) {
            return false;
        }
        let mut merged = [a, b].concat();
        if self.is_doall(a) && self.is_doall(b) && !self.is_doall(&merged) {
            return false;
        }
        merged.sort();
        self.find_picks(&merged, 1).is_some()
    }

    /// Dimension matching for condition (2): sets `matched` for each
    /// statement of `b` that has a remaining iterator, other than its
    /// DL-innermost one, aligned with some statement of `a`. Returns
    /// whether any statement's next iterator changed.
    fn match_dimensions(&mut self, a: &[StmtId], b: &[StmtId]) -> bool {
        let mut changed = false;
        for &sb in b {
            let innermost = self.priorities[sb.0].last().copied();
            let found = self.priorities[sb.0]
                .iter()
                .copied()
                .filter(|&it| !self.peel.uses(sb, it) && Some(it) != innermost)
                .find(|&it| {
                    a.iter().any(|&sa| {
                        self.next_iter(sa)
                            .is_some_and(|ia| self.aligned((sa, ia), (sb, it)))
                    })
                });
            if found.is_some() && found != self.next_iter(sb) {
                self.matched[sb.0] = found;
                changed = true;
            }
        }
        changed
    }

    /// Condition (2): a shared array whose access matrices have equal
    /// columns for the two groups' next iterators — i.e. the reuse
    /// distance between the accesses is constant along the would-be
    /// fused loop.
    fn aligned_shared_access(&self, a: &[StmtId], b: &[StmtId]) -> bool {
        a.iter().any(|&sa| {
            b.iter()
                .any(|&sb| match (self.next_iter(sa), self.next_iter(sb)) {
                    (Some(ia), Some(ib)) => self.aligned((sa, ia), (sb, ib)),
                    _ => false,
                })
        })
    }

    /// Whether statements `sa` and `sb`, iterating `ia` and `ib` at this
    /// level, access one array with equal nonzero iterator columns.
    fn aligned(&self, (sa, ia): (StmtId, usize), (sb, ib): (StmtId, usize)) -> bool {
        let accs_b = self.scop.statements[sb.0].accesses();
        self.scop.statements[sa.0]
            .accesses()
            .iter()
            .any(|(acc_a, _)| {
                let col_a: Vec<i64> = acc_a.map.iter().map(|r| r[ia]).collect();
                col_a.iter().any(|&c| c != 0)
                    && accs_b.iter().any(|(acc_b, _)| {
                        acc_b.array == acc_a.array
                            && acc_b.map.iter().map(|r| r[ib]).eq(col_a.iter().copied())
                    })
            })
    }

    /// The iterators statement `s` may still take, in the order this
    /// level tries them: dimension matching's choice first, then DL
    /// priority.
    fn remaining(&self, s: StmtId) -> Vec<usize> {
        let free = |it: &usize| !self.peel.uses(s, *it);
        let first = self.matched[s.0].filter(free);
        first
            .into_iter()
            .chain(
                self.priorities[s.0]
                    .iter()
                    .copied()
                    .filter(|it| free(it) && Some(*it) != first),
            )
            .collect()
    }

    fn next_iter(&self, s: StmtId) -> Option<usize> {
        let free = |it: &usize| !self.peel.uses(s, *it);
        self.matched[s.0]
            .filter(free)
            .or_else(|| self.priorities[s.0].iter().copied().find(free))
    }

    /// Condition (3), the DL fusion-cost test.
    fn fusion_profitable(&self, a: &[StmtId], b: &[StmtId]) -> bool {
        fusion_profitable(
            &self.group_refs(a),
            self.depth(a),
            &self.group_refs(b),
            self.depth(b),
            self.machine.fusion_level(),
        )
    }

    /// The deepest statement dimensionality of a group.
    fn depth(&self, g: &[StmtId]) -> usize {
        g.iter().map(|&s| self.scop.statements[s.0].dim).max().unwrap_or(0)
    }

    fn group_refs(&self, g: &[StmtId]) -> Vec<RefInfo> {
        let depth = self.depth(g);
        let mut out = Vec::new();
        for &s in g {
            let st = &self.scop.statements[s.0];
            for (acc, _) in st.accesses() {
                out.push(RefInfo::from_access(
                    acc.array.0,
                    &acc,
                    &Schedule::identity(st.dim, self.scop.n_params()),
                    self.scop.n_params(),
                    depth,
                    self.scop.arrays[acc.array.0].elem_bytes,
                ));
            }
        }
        out
    }

    /// True when no unsatisfied non-reduction dependence inside the
    /// group is carried by any legal row at the current level
    /// (approximated: by the group's first legal pick).
    fn is_doall(&self, g: &[StmtId]) -> bool {
        let Some(picks) = self.find_picks(g, SEARCH_CAP) else {
            return false;
        };
        let rows = self.pick_rows(g, &picks);
        let params = &self.scop.default_params;
        self.peel
            .within(g)
            .filter(|e| !e.dep.is_reduction)
            .all(|e| e.distance(&rows, params) == DepElem::Const(0))
    }

    /// Algorithm 4: search permutation combinations in DL-priority order
    /// (dimension matching's choice first), legalizing with retiming and
    /// reversal, and stop after `cap` combinations. Fusion probes pass 1:
    /// only every statement's next iterator is tried — fusion must not
    /// derail the DL permutation choice further (it would trade the very
    /// locality the model asked for).
    fn find_picks(&self, group: &[StmtId], cap: usize) -> Option<Vec<Pick>> {
        let cands: Vec<Vec<usize>> = group.iter().map(|&s| self.remaining(s)).collect();
        let lens: Vec<usize> = cands.iter().map(Vec::len).collect();
        odometer(&lens, cap, |idx| {
            // Plain, then reversed; either retimed by `legalize`.
            [1i64, -1].into_iter().find_map(|sign| {
                let picks = idx
                    .iter()
                    .zip(&cands)
                    .map(|(&i, c)| Pick {
                        iter: c[i],
                        sign,
                        shift: 0,
                    })
                    .collect();
                self.legalize(group, picks)
            })
        })
    }

    /// Retiming legalization: while some dependence is violated with a
    /// constant negative distance, shift the destination statement
    /// forward. Bounded; returns the legal picks or `None`.
    fn legalize(&self, group: &[StmtId], mut picks: Vec<Pick>) -> Option<Vec<Pick>> {
        let params = &self.scop.default_params;
        for _round in 0..6 {
            let mut rows = self.pick_rows(group, &picks);
            let mut violated = false;
            for e in self.peel.within(group) {
                if !e.violated_by(&rows) {
                    continue;
                }
                violated = true;
                if e.src == e.dst {
                    return None; // self-dep: retiming can't fix
                }
                // Shift destination forward by the worst violation.
                match e.distance(&rows, params) {
                    DepElem::Const(c) if c < 0 => picks[e.dst].shift -= c,
                    _ => return None, // non-constant violation
                }
                rows[e.dst] = self.pick_row(group[e.dst], &picks[e.dst]);
            }
            if violated {
                continue;
            }
            // Alignment pass (multidimensional retiming, the paper's
            // c-coefficients): inter-statement dependences that are legal
            // only thanks to β ordering but have *negative* constant
            // distance at this row block later tiling — shift the
            // destination forward to realign, unless that breaks another
            // dependence.
            'align: for _ in 0..6 {
                let rows = self.pick_rows(group, &picks);
                for e in self.peel.within(group).filter(|e| e.src != e.dst) {
                    if let DepElem::Const(c @ ..=-1) = e.distance(&rows, params) {
                        let mut trial = picks.clone();
                        trial[e.dst].shift -= c;
                        if self.peel.legal(group, &self.pick_rows(group, &trial)) {
                            picks = trial;
                            continue 'align;
                        }
                    }
                }
                break;
            }
            return Some(picks);
        }
        None
    }

    fn pick_row(&self, s: StmtId, p: &Pick) -> Vec<i64> {
        let d = self.scop.statements[s.0].dim;
        let np = self.scop.n_params();
        let mut row = vec![0i64; d + np + 1];
        row[p.iter] = p.sign;
        row[d + np] = p.shift;
        row
    }

    fn pick_rows(&self, group: &[StmtId], picks: &[Pick]) -> Vec<Vec<i64>> {
        group
            .iter()
            .zip(picks)
            .map(|(&s, p)| self.pick_row(s, p))
            .collect()
    }
}

/// Transitive reachability between SCC components via the dependence
/// edges (component indices).
fn comp_reachability(comps: &[Vec<StmtId>], edges: &[(StmtId, StmtId)]) -> Vec<Vec<bool>> {
    let n = comps.len();
    let comp_of = |s: StmtId| comps.iter().position(|c| c.contains(&s));
    let mut r = vec![vec![false; n]; n];
    for &(a, b) in edges {
        if let (Some(ca), Some(cb)) = (comp_of(a), comp_of(b)) {
            if ca != cb {
                r[ca][cb] = true;
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            if r[i][k] {
                for j in 0..n {
                    if r[k][j] {
                        r[i][j] = true;
                    }
                }
            }
        }
    }
    r
}

/// A merge of component `cand` into the group with `members` is path-safe
/// when no component outside the group lies on a dependence path between
/// them (in either direction).
fn path_safe(
    members: &[usize],
    cand: usize,
    others: &[usize],
    reach: &[Vec<bool>],
) -> bool {
    for &x in others {
        if x == cand {
            continue;
        }
        let g_to_x = members.iter().any(|&m| reach[m][x]);
        let x_to_c = reach[x][cand];
        let c_to_x = reach[cand][x];
        let x_to_g = members.iter().any(|&m| reach[x][m]);
        if (g_to_x && x_to_c) || (c_to_x && x_to_g) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymix_deps::legality::schedules_legal_for_dep;
    use polymix_polybench::{all_kernels, extended_kernels, kernel_by_name};

    #[test]
    fn affine_stage_is_legal_on_all_kernels() {
        let machine = Machine::nehalem();
        for k in all_kernels() {
            let scop = (k.build)();
            let schedules = affine_stage(&scop, &machine).expect("affine stage");
            let podg = build_podg(&scop);
            for d in &podg.deps {
                assert!(
                    schedules_legal_for_dep(d, &schedules[d.src.0], &schedules[d.dst.0]),
                    "illegal schedule for {} dep {:?}->{:?}",
                    k.name,
                    d.src,
                    d.dst
                );
            }
            for s in &schedules {
                assert!(s.is_signed_permutation() || s.dim() == 0);
            }
        }
    }

    #[test]
    fn gemm_gets_ikj_or_ijk_with_j_inner_for_s2() {
        // The DL model wants the stride-1 iterator (j) innermost for the
        // matmul update.
        let k = kernel_by_name("gemm").unwrap();
        let scop = (k.build)();
        let schedules = affine_stage(&scop, &Machine::nehalem()).expect("affine stage");
        let s2 = &schedules[1]; // (i, j, k) original
        // Innermost row must select j (index 1).
        let last = s2.alpha.row(2);
        assert_eq!(last, &[0, 1, 0], "S2 alpha: {:?}", s2.alpha);
    }

    #[test]
    fn two_mm_fuses_at_outer_level() {
        // Our flow (Fig. 3) fuses all four statements under one outer
        // loop (shared i).
        let k = kernel_by_name("2mm").unwrap();
        let scop = (k.build)();
        let schedules = affine_stage(&scop, &Machine::nehalem()).expect("affine stage");
        let b0: Vec<i64> = schedules.iter().map(|s| s.beta[0]).collect();
        assert!(b0.iter().all(|&b| b == b0[0]), "betas {b0:?}");
        // And all α stay signed permutations — no Fig. 2 style skew.
        for s in &schedules {
            assert!(s.is_signed_permutation());
        }
    }

    /// Dimension matching: `S1`'s DL order is `(iy, iz, ix)`, its
    /// neighbours' `(iz, iy, ix)`. Comparing top iterators alone split
    /// fdtd-apml into three nests; matching `S1`'s `iz` with theirs puts
    /// all four statements in one `(iz, iy, ix)` nest, as PolyBench's
    /// reference sweep does.
    #[test]
    fn fdtd_apml_is_one_nest_with_one_permutation() {
        let scop = (kernel_by_name("fdtd-apml").unwrap().build)();
        let schedules = affine_stage(&scop, &Machine::nehalem()).expect("affine stage");
        assert_eq!(schedules.len(), 4);
        for (i, s) in schedules.iter().enumerate() {
            assert_eq!(s.beta[..3], [0, 0, 0], "S{i} beta {:?}", s.beta);
            for (row, it) in [0, 1, 2].into_iter().enumerate() {
                let mut want = [0; 3];
                want[it] = 1;
                assert_eq!(s.alpha.row(row), &want, "S{i} alpha {:?}", s.alpha);
            }
        }
    }

    /// The fusion census at level 0: how many top-level nests Algorithm 5
    /// leaves of each kernel. Condition (3) prices fusion with the price
    /// the tiling decision uses (`tiling_costs`); the 7^depth tile-vector
    /// minimiser it replaced answered every one of the suite's 57 fusion
    /// questions the same way, so these are its counts too.
    #[test]
    fn level_zero_fusion_census() {
        let want = [
            ("2mm", 1),
            ("3mm", 2),
            ("adi", 1),
            ("atax", 2),
            ("bicg", 2),
            ("cholesky", 1),
            ("correlation", 10),
            ("covariance", 6),
            ("doitgen", 1),
            ("fdtd-2d", 1),
            ("fdtd-apml", 1),
            ("gemm", 1),
            ("gemver", 3),
            ("gesummv", 1),
            ("jacobi-1d-imper", 1),
            ("jacobi-2d-imper", 1),
            ("mvt", 1),
            ("seidel-2d", 1),
            ("symm", 3),
            ("syr2k", 1),
            ("syrk", 1),
            ("trisolv", 1),
            ("lu", 1),
            ("trmm", 1),
            ("gramschmidt", 3),
        ];
        let machine = Machine::nehalem();
        let got: Vec<(&str, usize)> = all_kernels()
            .into_iter()
            .chain(extended_kernels())
            .map(|k| {
                let schedules = affine_stage(&(k.build)(), &machine).expect("affine stage");
                let mut tops: Vec<i64> = schedules.iter().map(|s| s.beta[0]).collect();
                tops.sort();
                tops.dedup();
                (k.name, tops.len())
            })
            .collect();
        assert_eq!(got, want);
    }

    /// Dimension matching may move a statement's outer iterators to line
    /// up with a group's, never the one the DL model put innermost: over
    /// every pair of statements of every kernel, the iterator it chooses
    /// for the candidate is not the candidate's DL-innermost one.
    #[test]
    fn dimension_matching_never_moves_the_innermost_iterator() {
        let machine = Machine::nehalem();
        let mut matched = 0;
        for k in all_kernels() {
            let scop = (k.build)();
            let podg = build_podg(&scop);
            let mut a = Affine::new(&scop, &podg, &machine, true);
            let n = scop.statements.len();
            for (sa, sb) in (0..n).flat_map(|x| (0..n).map(move |y| (StmtId(x), StmtId(y)))) {
                if sa == sb || scop.statements[sb.0].dim == 0 {
                    continue;
                }
                a.matched = vec![None; n];
                if a.match_dimensions(&[sa], &[sb]) {
                    matched += 1;
                    let innermost = a.priorities[sb.0].last().copied();
                    assert_ne!(a.matched[sb.0], innermost, "{} {sa:?} -> {sb:?}", k.name);
                }
            }
        }
        assert!(matched > 0, "no pair exercised the rule");
    }
}
