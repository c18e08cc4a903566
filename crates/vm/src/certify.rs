//! Static certification of lowered bytecode: abstract interpretation of
//! every [`AffExpr`] address over the exact polyhedron of its enclosing
//! compiled loop nest.
//!
//! This is translation validation of [`crate::lower`]: the AST-level
//! certifier (`polymix-verify`) proves the *transformed program* legal,
//! but nothing checked the *lowered* artifact the measurement hot path
//! actually executes — a lowering bug that skews a pre-composed address
//! or widens a compiled bound would previously surface only as a
//! dynamic-bounds-check failure. The certifier re-derives everything it
//! claims from [`VmProgram`] alone:
//!
//! 1. **Bounds.** One walk of the compiled tree puts every access under
//!    the polyhedron of its enclosing loops and guards
//!    (`v >= ceil(e/d)` ⟺ `e − d·v ≤ 0` for integer `v` and `d > 0`;
//!    guards contribute `g ≥ 0`). An access with address `a` into an
//!    array of `len` cells is proven in-bounds when both escape sets,
//!    `ctx ∧ a ≤ −1` and `ctx ∧ a ≥ len`, are empty by Fourier–Motzkin
//!    elimination; the two emptiness proofs are the certificate. Loops
//!    with `step > 1` are over-approximated by their bound interval,
//!    which is sound for in-bounds proofs (the executed lattice is a
//!    subset of the interval).
//! 2. **Elision.** A passing certificate can be [`VmCertificate::apply`]ed
//!    back onto the program, flipping the per-access `proven` flags that
//!    let [`crate::run_opts`] skip dynamic bounds checks when
//!    [`crate::VmOptions::elide`] is set.
//!
//! The vm runs every loop in schedule order, so there is no parallel
//! dispatch to prove race-free here; the emitted kernels' regions are
//! certified on the AST (`polymix-verify`).
//!
//! Everything the analysis cannot prove stays a structured violation —
//! the certifier never guesses, and an unproven access is never elided.
//! That includes arithmetic: obligations are phrased through
//! `Polyhedron::{and_ge, and_le}`, and a row that does not fit `i64` is
//! dropped, which widens the set and reads as "not proven".

use crate::lower::{AffExpr, CLoop, CNode, Instr, VmProgram};
use crate::VmError;
use polymix_math::poly::Polyhedron;
use std::collections::BTreeMap;
use std::fmt;

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
    /// The `Instr::Load` at this position in [`crate::CompiledStmt::code`].
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
        proofs: BTreeMap::new(),
        violations: Vec::new(),
    };
    c.walk(&vm.body, Some(&Polyhedron::universe(n)));
    let accesses = c
        .proofs
        .into_iter()
        .map(|((stmt, site), (array, proven))| AccessProof {
            stmt,
            site,
            array,
            proven,
        })
        .collect();
    VmCertificate {
        accesses,
        violations: c.violations,
    }
}

/// Convenience for the measurement path: certify, then apply the proofs
/// in place. Returns the certificate on success, the first violations in
/// the error otherwise.
pub fn certify_and_apply(vm: &mut VmProgram) -> Result<VmCertificate, VmError> {
    let cert = certify(vm);
    cert.apply(vm)?;
    Ok(cert)
}

struct Certifier<'a> {
    vm: &'a VmProgram,
    /// Loop-variable frame width (polyhedron dimensionality).
    n: usize,
    /// Loop variables bound on the current path, outermost first.
    bound_vars: Vec<usize>,
    /// `(stmt, site) → (array, in bounds in every context it executes from)`.
    proofs: BTreeMap<(u32, AccessSite), (u32, bool)>,
    violations: Vec<VmViolation>,
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

impl Certifier<'_> {
    fn violation(&mut self, kind: VmViolationKind, stmt: Option<u32>, detail: String) {
        self.violations.push(VmViolation { kind, stmt, detail });
    }

    /// The one walk of the compiled tree: every access is proven under
    /// `ctx`, the polyhedron of its enclosing loops and guards (`None`
    /// below a shadowed loop variable, where nothing is modelled).
    fn walk(&mut self, node: &CNode, ctx: Option<&Polyhedron>) {
        match node {
            CNode::Seq(xs) => xs.iter().for_each(|x| self.walk(x, ctx)),
            CNode::Guard(gs, b) => {
                let guarded = ctx.map(|c| {
                    let mut p = c.clone();
                    for row in gs.iter().filter_map(|g| aff_row(g, self.n)) {
                        p.add_ge(&row, 0);
                    }
                    p
                });
                self.walk(b, guarded.as_ref());
            }
            CNode::Stmt(k) => {
                // In range: `certify` validated the program up front.
                let vm = self.vm;
                let s = &vm.stmts[*k as usize];
                let loads = s.code.iter().enumerate().filter_map(|(pos, i)| match i {
                    Instr::Load { array, addr, .. } => Some((AccessSite::Load(pos), *array, addr)),
                    _ => None,
                });
                let store = (AccessSite::Store, s.store_array, &s.store_addr);
                for (site, array, addr) in loads.chain([store]) {
                    let proven = self.in_bounds(ctx, *k, site, array, addr);
                    self.proofs.entry((*k, site)).or_insert((array, true)).1 &= proven;
                }
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
                let inner = ctx.filter(|_| !shadows).map(|c| loop_ctx(c, l, self.n));
                self.bound_vars.push(l.var);
                self.walk(&l.body, inner.as_ref());
                self.bound_vars.pop();
            }
        }
    }

    /// The bounds obligation of one access: both escape sets,
    /// `ctx ∧ addr ≤ −1` and `ctx ∧ addr ≥ len`, are empty. An escape
    /// that is not comes back as a violation, with a witness frame when
    /// one is found.
    fn in_bounds(
        &mut self,
        ctx: Option<&Polyhedron>,
        stmt: u32,
        site: AccessSite,
        array: u32,
        addr: &AffExpr,
    ) -> bool {
        // Below a shadowed loop: already reported, never proven.
        let Some(ctx) = ctx else {
            return false;
        };
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
        let what = match site {
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
        self.violation(kind, Some(stmt), detail);
        false
    }
}
