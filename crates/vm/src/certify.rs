//! Static certification of lowered bytecode: abstract interpretation of
//! every [`AffExpr`] address over the exact polyhedron of its enclosing
//! compiled loop nest, plus an independent re-derivation of the
//! parallel-dispatch safety conditions from the bytecode itself.
//!
//! This is translation validation of [`crate::lower`]: the AST-level
//! certifier (`polymix-verify`) proves the *transformed program* legal,
//! but nothing checked the *lowered* artifact the measurement hot path
//! actually executes — a lowering bug that skews a pre-composed address
//! or widens a compiled bound would previously surface only as a
//! dynamic-bounds-check poison (or worse, as a silently wrong parallel
//! schedule). The certifier re-derives everything it claims from
//! [`VmProgram`] alone:
//!
//! 1. **Bounds.** One walk of the compiled tree turns every access into
//!    a site under the polyhedron of its enclosing loops and guards
//!    (`v >= ceil(e/d)` ⟺ `e − d·v ≤ 0` for integer `v` and `d > 0`;
//!    guards contribute `g ≥ 0`). An access with address `a` into an
//!    array of `len` cells is proven in-bounds when both escape sets,
//!    `ctx ∧ a ≤ −1` and `ctx ∧ a ≥ len`, are empty by Fourier–Motzkin
//!    elimination; the two emptiness proofs are the certificate. Loops
//!    with `step > 1` are over-approximated by their bound interval,
//!    which is sound for in-bounds proofs (the executed lattice is a
//!    subset of the interval).
//! 2. **Effects.** For every loop the executor would dispatch in
//!    parallel, one race query over the sites under it: two iterations
//!    the dispatch leaves unordered (their distance a point of a lattice
//!    cone, encoded exactly through one existential multiplier per axis)
//!    must not touch one address with at least one write — modulo the
//!    privatized accumulator of a reduction loop, whose additive
//!    self-update shape is re-checked instruction by instruction
//!    against the loop's recorded `reduction_array`.
//! 3. **Elision.** A passing certificate can be [`VmCertificate::apply`]ed
//!    back onto the program, flipping the per-access `proven` flags that
//!    let [`crate::run_opts`] skip dynamic bounds checks when
//!    [`crate::VmOptions::elide`] is set.
//!
//! Everything the analysis cannot prove stays a structured violation —
//! the certifier never guesses, and an unproven access is never elided.
//! That includes arithmetic: obligations are phrased through
//! `Polyhedron::{and_ge, and_le, and_eq0}`, and a row that does not fit
//! `i64` is dropped, which widens the set and reads as "not proven".

use crate::lower::{AffExpr, CLoop, CNode, CompiledStmt, Instr, VmProgram};
use crate::VmError;
use polymix_ir::expr::BinOp;
use polymix_math::poly::{Constraint, Polyhedron};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

/// What a [`VmViolation`] breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VmViolationKind {
    /// An address provably escapes its array inside the executed
    /// iteration space (a witness frame is part of the detail).
    OutOfBounds,
    /// The analysis could not bound an address (unbound variable,
    /// unbounded context, or a shape outside the affine model). Not a
    /// proven escape, but the access cannot be certified.
    BoundsUnproven,
    /// Two distinct iterations of a doall-dispatched loop touch the same
    /// address with at least one write.
    DoallCarriesDep,
    /// A reduction-dispatched loop whose bytecode is not the additive
    /// accumulator self-update shape, whose recorded accumulator
    /// disagrees with the re-derived one, or whose non-accumulator
    /// accesses conflict across iterations.
    ReductionUnsafe,
    /// A pipeline/wavefront grid pair of cells conflicts against the
    /// execution order guaranteed by the `{(1,0),(0,1)}` cone.
    GridUncovered,
    /// The program fails structural validation ([`VmProgram::validate`]).
    Malformed,
    /// A shape the certifier does not model (e.g. a shadowed loop
    /// variable); nothing under it is proven.
    Unsupported,
}

impl VmViolationKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            VmViolationKind::OutOfBounds => "vm-out-of-bounds",
            VmViolationKind::BoundsUnproven => "vm-bounds-unproven",
            VmViolationKind::DoallCarriesDep => "vm-doall-carries-dep",
            VmViolationKind::ReductionUnsafe => "vm-reduction-unsafe",
            VmViolationKind::GridUncovered => "vm-grid-uncovered",
            VmViolationKind::Malformed => "vm-malformed",
            VmViolationKind::Unsupported => "vm-unsupported",
        }
    }
}

impl fmt::Display for VmViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One failed proof obligation of the bytecode certificate.
#[derive(Clone, Debug)]
pub struct VmViolation {
    pub kind: VmViolationKind,
    /// Compiled statement index the violation anchors to (`None` for
    /// loop-level findings without a single statement).
    pub stmt: Option<u32>,
    /// What exactly went wrong.
    pub detail: String,
}

impl fmt::Display for VmViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.kind)?;
        if let Some(s) = self.stmt {
            write!(f, " stmt {s}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Which access of a compiled statement a proof talks about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessSite {
    /// The `Instr::Load` at this position in [`CompiledStmt::code`].
    Load(usize),
    /// The statement's store.
    Store,
}

/// Proof state of one (statement, access) pair, aggregated over every
/// control-tree context the statement appears in.
#[derive(Clone, Debug)]
pub struct AccessProof {
    pub stmt: u32,
    pub site: AccessSite,
    pub array: u32,
    /// In-bounds in *every* context the access executes from.
    pub proven: bool,
}

/// The result of [`certify`]: per-access proofs plus every failed
/// obligation.
#[derive(Clone, Debug, Default)]
pub struct VmCertificate {
    /// One entry per reachable (statement, access) pair.
    pub accesses: Vec<AccessProof>,
    /// Everything that failed; empty iff the program is certified.
    pub violations: Vec<VmViolation>,
    /// Parallel-dispatchable loops whose effect summary was checked.
    pub loops_checked: usize,
    /// Cross-iteration access pairs tested for conflicts.
    pub pairs_checked: usize,
}

impl VmCertificate {
    /// True when every obligation was discharged.
    pub fn is_certified(&self) -> bool {
        self.violations.is_empty()
    }

    /// `(proven, total)` reachable access counts.
    pub fn counts(&self) -> (usize, usize) {
        let proven = self.accesses.iter().filter(|a| a.proven).count();
        (proven, self.accesses.len())
    }

    /// Writes the proofs back onto the program: flips `proven` on every
    /// access this certificate proved in-bounds, so a run with
    /// [`crate::VmOptions::elide`] skips their dynamic checks. Fails
    /// unless the certificate is passing. `vm` must be the same program
    /// [`certify`] analyzed — applying proofs to a different (or since
    /// mutated) program voids the soundness contract.
    pub fn apply(&self, vm: &mut VmProgram) -> Result<(), VmError> {
        if !self.is_certified() {
            let first = self
                .violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default();
            return Err(VmError::Certify(format!(
                "{} violation(s); first: {first}",
                self.violations.len()
            )));
        }
        for p in &self.accesses {
            if !p.proven {
                continue;
            }
            let Some(s) = vm.stmts.get_mut(p.stmt as usize) else {
                return Err(VmError::Certify(format!(
                    "certificate names stmt {} outside the program's table",
                    p.stmt
                )));
            };
            match p.site {
                AccessSite::Store => s.store_proven = true,
                AccessSite::Load(pos) => match s.code.get_mut(pos) {
                    Some(Instr::Load { proven, .. }) => *proven = true,
                    _ => {
                        return Err(VmError::Certify(format!(
                            "certificate names a load at stmt {} pos {pos} that is not there",
                            p.stmt
                        )))
                    }
                },
            }
        }
        Ok(())
    }
}

/// Certifies a lowered program; see the module docs for what is proved.
pub fn certify(vm: &VmProgram) -> VmCertificate {
    let _memo = polymix_math::memo::scope();
    if let Err(d) = vm.validate() {
        return VmCertificate {
            violations: vec![VmViolation {
                kind: VmViolationKind::Malformed,
                stmt: None,
                detail: d,
            }],
            ..VmCertificate::default()
        };
    }
    let n = vm.n_vars.max(1);
    let mut c = Certifier {
        vm,
        n,
        bound_vars: Vec::new(),
        sites: Vec::new(),
        regions: Vec::new(),
        cert: VmCertificate::default(),
    };
    c.walk(&vm.body, &Some(Rc::new(Polyhedron::universe(n))), true);
    let (sites, regions) = (std::mem::take(&mut c.sites), std::mem::take(&mut c.regions));
    // `(stmt, site) → (array, in bounds in every context it executes from)`.
    let mut proofs: BTreeMap<(u32, AccessSite), (u32, bool)> = BTreeMap::new();
    for s in &sites {
        let proven = c.in_bounds(s);
        proofs.entry((s.stmt, s.site)).or_insert((s.array, true)).1 &= proven;
    }
    for r in &regions {
        c.check_region(r, &sites[r.sites.clone()]);
    }
    c.cert.accesses = proofs
        .into_iter()
        .map(|((stmt, site), (array, proven))| AccessProof {
            stmt,
            site,
            array,
            proven,
        })
        .collect();
    c.cert
}

/// Convenience for the measurement path: certify, then apply the proofs
/// in place. Returns the certificate on success, the first violations in
/// the error otherwise.
pub fn certify_and_apply(vm: &mut VmProgram) -> Result<VmCertificate, VmError> {
    let cert = certify(vm);
    cert.apply(vm)?;
    Ok(cert)
}

/// One access occurrence and the context it executes under: the
/// polyhedron of its enclosing loops and guards, root → site, shared by
/// the accesses of one statement occurrence. `None` below a shadowed
/// loop variable, where nothing is modelled.
struct Site<'a> {
    stmt: u32,
    site: AccessSite,
    array: u32,
    addr: &'a AffExpr,
    ctx: Option<Rc<Polyhedron>>,
}

impl Site<'_> {
    fn is_write(&self) -> bool {
        matches!(self.site, AccessSite::Store)
    }
}

/// A loop the executor would dispatch in parallel.
struct Region<'a> {
    l: &'a CLoop,
    dispatch: Dispatch,
    /// Loop variables bound *above* the loop (equated across the two
    /// iteration copies of a race query).
    outer: Vec<usize>,
    /// The sites under the loop, as a range of the walk's site list.
    sites: Range<usize>,
}

/// One generator `(var, step, dir)` of the lattice cone two unordered
/// iterations of a region may differ by: along `var` by `step·k`, with
/// `dir·k ≥ 1`.
type Axis = (usize, i64, i64);

struct Certifier<'a> {
    vm: &'a VmProgram,
    /// Loop-variable frame width (polyhedron dimensionality).
    n: usize,
    /// Loop variables bound on the current path, outermost first.
    bound_vars: Vec<usize>,
    sites: Vec<Site<'a>>,
    regions: Vec<Region<'a>>,
    cert: VmCertificate,
}

/// `e` as a row over `n` dims (+ constant column); `None` when two
/// terms on one variable do not sum in `i64`.
fn aff_row(e: &AffExpr, n: usize) -> Option<Vec<i64>> {
    let mut row = vec![0i64; n + 1];
    for &(v, k) in &e.terms {
        row[v as usize] = row[v as usize].checked_add(k)?;
    }
    row[n] = e.c;
    Some(row)
}

/// `ctx ∧ lo ≤ v ≤ hi` under the exact `max`-of-ceil / `min`-of-floor
/// semantics of [`CBound::eval_lower`] / [`CBound::eval_upper`]: for an
/// integer `v` and `d > 0`, `v ≥ ceil(e/d)` ⟺ `e − d·v ≤ 0` and
/// `v ≤ floor(f/d)` ⟺ `f − d·v ≥ 0`. A bound whose row does not fit
/// `i64` is left out, which only widens the context.
///
/// [`CBound::eval_lower`]: crate::lower::CBound::eval_lower
/// [`CBound::eval_upper`]: crate::lower::CBound::eval_upper
fn loop_ctx(ctx: &Polyhedron, l: &CLoop, n: usize) -> Polyhedron {
    let minus_dv = |(e, d): &(AffExpr, i64)| {
        let mut row = aff_row(e, n)?;
        row[l.var] = row[l.var].checked_sub(*d)?;
        Some(row)
    };
    let mut p = ctx.clone();
    for row in l.lo.exprs.iter().filter_map(minus_dv) {
        p.add_le(&row, 0);
    }
    for row in l.hi.exprs.iter().filter_map(minus_dv) {
        p.add_ge(&row, 0);
    }
    p
}

/// Lifts a row over `n` dims into a `dims`-dim space at `shift`.
fn lift(row: &[i64], n: usize, dims: usize, shift: usize) -> Vec<i64> {
    let mut out = vec![0i64; dims + 1];
    out[shift..shift + n].copy_from_slice(&row[..n]);
    out[dims] = row[n];
    out
}

/// The two-copy system of a race query: `x` runs in a source iteration
/// (dims `0..n`), `y` in a destination iteration (dims `n..2n`) of the
/// same region, the `outer` variables are equal, the copies differ by a
/// lattice point of `cone` (one existential multiplier per axis, dims
/// `2n..`, which keeps the step lattice exact), and both touch the same
/// address. A row that does not fit `i64` is left out, so the system
/// only ever grows and a race is never missed.
fn two_copy(
    n: usize,
    (x, x_ctx): (&Site, &Polyhedron),
    (y, y_ctx): (&Site, &Polyhedron),
    outer: &[usize],
    cone: &[Axis],
) -> Polyhedron {
    let dims = 2 * n + cone.len();
    let mut p = Polyhedron::universe(dims);
    for (ctx, at) in [(x_ctx, 0), (y_ctx, n)] {
        for c in ctx.constraints() {
            p.add(Constraint {
                row: lift(c.row, n, dims, at),
                op: c.op,
            });
        }
    }
    let form = |terms: &[(usize, i64)]| {
        let mut row = vec![0i64; dims + 1];
        for &(d, k) in terms {
            row[d] = k;
        }
        row
    };
    for &w in outer {
        p.add_eq0(&form(&[(w, 1), (n + w, -1)]));
    }
    for (k, &(var, step, dir)) in cone.iter().enumerate() {
        let k = 2 * n + k;
        // y_v − x_v = step·k, dir·k ≥ 1 (`step > 0`: validated).
        p.add_eq0(&form(&[(n + var, 1), (var, -1), (k, -step)]));
        p.add_ge(&form(&[(k, dir)]), 1);
    }
    // addr_x(src) − addr_y(dst) = 0.
    let same_address = || {
        let (xr, yr) = (aff_row(x.addr, n)?, aff_row(y.addr, n)?);
        let mut row = lift(&xr, n, dims, 0);
        for (d, c) in yr[..n].iter().enumerate() {
            row[n + d] = c.checked_neg()?;
        }
        row[dims] = xr[n].checked_sub(yr[n])?;
        Some(row)
    };
    if let Some(row) = same_address() {
        p.add_eq0(&row);
    }
    p
}

/// How the executor would dispatch this loop when `threads > 1` —
/// mirrors the `match l.par` in `exec.rs` exactly.
enum Dispatch {
    Doall,
    Reduction(u32),
    Grid,
}

fn dispatchable(l: &CLoop) -> Option<Dispatch> {
    use polymix_ast::tree::Par;
    match l.par {
        Par::Doall => Some(Dispatch::Doall),
        Par::Reduction => l.reduction_array.map(Dispatch::Reduction),
        Par::Pipeline | Par::Wavefront if l.rect_grid => Some(Dispatch::Grid),
        _ => None,
    }
}

/// Is this statement the additive self-update of `acc` (the only shape
/// [`polymix_runtime::reduce_array`]'s zero-init + additive merge
/// privatization is exact for)? Re-derived from the bytecode without
/// consulting [`CLoop::reduction_array`].
fn additive_self_update(s: &CompiledStmt, acc: u32) -> bool {
    if s.store_array != acc {
        return false;
    }
    let Some(Instr::Bin {
        op: BinOp::Add,
        dst,
        a,
        b,
    }) = s.code.last()
    else {
        return false;
    };
    if *dst != s.result {
        return false;
    }
    let self_load = |r: u16| {
        s.code.iter().any(|i| matches!(i, Instr::Load { dst, array, addr, .. }
            if *dst == r && *array == acc && *addr == s.store_addr))
    };
    if !self_load(*a) && !self_load(*b) {
        return false;
    }
    s.code
        .iter()
        .filter(|i| matches!(i, Instr::Load { array, .. } if *array == acc))
        .count()
        == 1
}

impl<'a> Certifier<'a> {
    fn violation(&mut self, kind: VmViolationKind, stmt: Option<u32>, detail: String) {
        let violation = VmViolation { kind, stmt, detail };
        self.cert.violations.push(violation);
    }

    /// The one walk of the compiled tree: every access becomes a
    /// [`Site`] under the context of its enclosing loops and guards,
    /// every loop the executor would dispatch a [`Region`] over the
    /// sites below it. `dispatch` is true only outside any
    /// parallel-dispatched region, mirroring the executor's `par` flag.
    fn walk(&mut self, node: &'a CNode, ctx: &Option<Rc<Polyhedron>>, dispatch: bool) {
        match node {
            CNode::Seq(xs) => xs.iter().for_each(|x| self.walk(x, ctx, dispatch)),
            CNode::Guard(gs, b) => {
                let guarded = ctx.as_deref().map(|c| {
                    let mut p = c.clone();
                    for row in gs.iter().filter_map(|g| aff_row(g, self.n)) {
                        p.add_ge(&row, 0);
                    }
                    Rc::new(p)
                });
                self.walk(b, &guarded, dispatch);
            }
            CNode::Stmt(k) => {
                // In range: `certify` validated the program up front.
                let s = &self.vm.stmts[*k as usize];
                let loads = s.code.iter().enumerate().filter_map(|(pos, i)| match i {
                    Instr::Load { array, addr, .. } => Some((AccessSite::Load(pos), *array, addr)),
                    _ => None,
                });
                let store = (AccessSite::Store, s.store_array, &s.store_addr);
                let site = |(site, array, addr)| Site {
                    stmt: *k,
                    site,
                    array,
                    addr,
                    ctx: ctx.clone(),
                };
                self.sites.extend(loads.chain([store]).map(site));
            }
            CNode::Loop(l) => {
                let shadows = self.bound_vars.contains(&l.var);
                if shadows {
                    self.violation(
                        VmViolationKind::Unsupported,
                        None,
                        format!(
                            "loop variable {} shadows an enclosing loop; nothing under it is proven",
                            l.var
                        ),
                    );
                }
                let inner = match ctx {
                    Some(c) if !shadows => Some(Rc::new(loop_ctx(c, l, self.n))),
                    _ => None,
                };
                let dispatched = if dispatch { dispatchable(l) } else { None };
                let first = self.sites.len();
                self.bound_vars.push(l.var);
                self.walk(&l.body, &inner, dispatch && dispatched.is_none());
                self.bound_vars.pop();
                if let Some(dispatch) = dispatched {
                    self.regions.push(Region {
                        l,
                        dispatch,
                        outer: self.bound_vars.clone(),
                        sites: first..self.sites.len(),
                    });
                }
            }
        }
    }

    /// The bounds obligation of one site: both escape sets,
    /// `ctx ∧ addr ≤ −1` and `ctx ∧ addr ≥ len`, are empty. An escape
    /// that is not comes back as a violation, with a witness frame when
    /// one is found.
    fn in_bounds(&mut self, s: &Site) -> bool {
        // Below a shadowed loop: already reported, never proven.
        let Some(ctx) = s.ctx.as_deref() else {
            return false;
        };
        let (array, addr) = (s.array, s.addr);
        let len = self.vm.array_lens[array as usize] as i64;
        // No row (the address does not fit `i64`), no proof.
        let row = aff_row(addr, self.n);
        let escapes = |r: &Vec<i64>| [ctx.and_le(r, -1), ctx.and_ge(r, len)];
        let escape = row.iter().flat_map(escapes).find(|e| !e.is_empty());
        if row.is_some() && escape.is_none() {
            return true;
        }
        // Dimensions the context never mentions are unconstrained; pin
        // them to zero so the escape set stays bounded and sampleable
        // (they cannot affect the violated constraint).
        let witness = escape.and_then(|mut escape| {
            for d in 0..self.n {
                if !escape.constraints().any(|c| c.mentions(d)) {
                    escape = escape.fix(d, 0);
                }
            }
            let frame = escape.sample()?;
            let off = addr.terms.iter().try_fold(addr.c, |acc, &(v, k)| {
                acc.checked_add(k.checked_mul(frame[v as usize])?)
            })?;
            Some((off, frame))
        });
        let what = match s.site {
            AccessSite::Store => "store".to_string(),
            AccessSite::Load(pos) => format!("load (instr {pos})"),
        };
        let (kind, found) = match witness {
            Some((off, frame)) => (
                VmViolationKind::OutOfBounds,
                format!(" can reach offset {off} at frame {frame:?}"),
            ),
            None => (
                VmViolationKind::BoundsUnproven,
                ": address not bounded by the enclosing loop polyhedron".to_string(),
            ),
        };
        let detail = format!("{what} into array {array} (len {len}){found}");
        self.violation(kind, Some(s.stmt), detail);
        false
    }

    /// Effect-summary check of one parallel-dispatchable loop over the
    /// sites under it.
    fn check_region(&mut self, r: &Region, sites: &[Site]) {
        self.cert.loops_checked += 1;
        let l = r.l;
        let modelled: Option<Vec<(&Site, &Polyhedron)>> =
            sites.iter().map(|s| Some((s, s.ctx.as_deref()?))).collect();
        let Some(sites) = modelled else {
            self.violation(
                VmViolationKind::Unsupported,
                None,
                format!(
                    "parallel loop over variable {} contains a shadowed loop variable; \
                     its effect summary cannot be proven",
                    l.var
                ),
            );
            return;
        };
        let forward = (l.var, l.step, 1);
        let (cone, skip_array, kind) = match r.dispatch {
            Dispatch::Doall => (vec![forward], None, VmViolationKind::DoallCarriesDep),
            Dispatch::Reduction(acc) => {
                // One store per statement occurrence under the loop.
                for (s, _) in sites.iter().filter(|(s, _)| s.is_write()) {
                    // In range: validated up front.
                    if !additive_self_update(&self.vm.stmts[s.stmt as usize], acc) {
                        self.violation(
                            VmViolationKind::ReductionUnsafe,
                            Some(s.stmt),
                            format!(
                                "bytecode is not an additive self-update of the recorded \
                                 accumulator array {acc}"
                            ),
                        );
                    }
                }
                // The accumulator is privatized (zero-init + additive
                // merge), so only the *other* arrays must be conflict-free
                // across iterations.
                (vec![forward], Some(acc), VmViolationKind::ReductionUnsafe)
            }
            // A rectangular 2-level grid (pipeline / wavefront)
            // guarantees that cell `(i, j)` runs after every
            // `(i' <= i, j' <= j)`: the only unordered pairs are
            // `di >= 1 ∧ dj <= -1`, so a conflict inside that cone is a
            // race.
            Dispatch::Grid => match &l.body {
                CNode::Loop(inner) => {
                    let cone = vec![forward, (inner.var, inner.step, -1)];
                    (cone, None, VmViolationKind::GridUncovered)
                }
                _ => {
                    let detail = "rect_grid loop lost its inner loop".to_string();
                    return self.violation(VmViolationKind::Malformed, None, detail);
                }
            },
        };
        self.races(r, &sites, &cone, skip_array, kind);
    }

    /// The one race query: is there a pair of iterations of the region,
    /// differing by a point of `cone`, whose accesses `x` (source copy)
    /// and `y` (destination copy) hit the same address with at least
    /// one write? `skip_array` is a privatized accumulator.
    fn races(
        &mut self,
        r: &Region,
        sites: &[(&Site, &Polyhedron)],
        cone: &[Axis],
        skip_array: Option<u32>,
        kind: VmViolationKind,
    ) {
        let n = self.n;
        let what = match cone {
            [_] => format!("distinct iterations of the loop over variable {}", r.l.var),
            _ => "grid cells outside the {(1,0),(0,1)} order cone".to_string(),
        };
        // The two-copy system of a pair is a function of the two
        // addresses and the two contexts; array and direction only
        // decide whether the pair is asked. So sites with the same
        // address and context form a class, and a pair is answered once
        // per pair of classes: `None` for no race, else the witness.
        let mut classes: Vec<(&Site, &Polyhedron)> = Vec::new();
        let class_of: Vec<usize> = sites
            .iter()
            .map(|&(s, ctx)| {
                let same = |&(t, t_ctx): &(&Site, &Polyhedron)| t.addr == s.addr && t_ctx == ctx;
                classes.iter().position(same).unwrap_or_else(|| {
                    classes.push((s, ctx));
                    classes.len() - 1
                })
            })
            .collect();
        let mut answers: Vec<Option<Option<String>>> = vec![None; classes.len().pow(2)];
        for (&(x, x_ctx), &cx) in sites.iter().zip(&class_of) {
            for (&(y, y_ctx), &cy) in sites.iter().zip(&class_of) {
                if x.array != y.array
                    || (!x.is_write() && !y.is_write())
                    || skip_array == Some(x.array)
                {
                    continue;
                }
                self.cert.pairs_checked += 1;
                let answer = answers[cx * classes.len() + cy].get_or_insert_with(|| {
                    let p = two_copy(n, (x, x_ctx), (y, y_ctx), &r.outer, cone);
                    if p.is_empty() {
                        return None;
                    }
                    Some(match p.sample() {
                        Some(pt) => {
                            format!("; witness frames {:?} / {:?}", &pt[..n], &pt[n..2 * n])
                        }
                        None => String::new(),
                    })
                });
                let Some(witness) = answer.clone() else {
                    continue;
                };
                self.violation(
                    kind,
                    Some(x.stmt),
                    format!(
                        "{what} conflict on array {} (stmt {} {:?} vs stmt {} {:?}){witness}",
                        x.array, x.stmt, x.site, y.stmt, y.site
                    ),
                );
            }
        }
    }
}
