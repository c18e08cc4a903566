//! Bytecode execution: a sequential tree-walk over pre-resolved
//! addresses, in schedule order. `Par` annotations do not survive
//! lowering: the emitted kernels (`polymix-codegen`'s `emit.rs` over
//! `kernel_rt`) are the one place a parallel construct is executed, and
//! the vm — the tuner's one-thread screen — runs every loop as written.
//!
//! Every array access is bounds-checked by default; a bad address stops
//! the run with a `runtime_error:` instead of corrupting the host
//! process — the in-process analogue of the subprocess backend's
//! `runtime_error:` + exit path. [`VmOptions::elide`] switches the
//! interpreter to the proof-carrying fast path: accesses a passing
//! bytecode certificate proved in-bounds skip the dynamic check, and
//! the register/array/variable-frame re-checks already discharged by
//! `VmProgram::validate` at entry become debug assertions.

use crate::lower::{AffExpr, CLoop, CNode, CompiledStmt, Instr, VmProgram};
use crate::VmError;

/// Execution knobs for one run.
#[derive(Clone, Copy, Debug)]
pub struct VmOptions {
    /// Inert: read by nothing. The vm runs every loop sequentially in
    /// schedule order; the field stays only because `benchmark/` still
    /// spells it, and goes in the benchmark-only change.
    pub threads: usize,
    /// Inert: read by nothing, like `threads`, and for the same reason.
    pub taskgraph: bool,
    /// Trust the static proofs: skip the dynamic bounds check on
    /// accesses a passing [`crate::certify`] certificate proved
    /// in-bounds (`proven` flags), and demote the structural
    /// register/array/variable-frame re-checks that
    /// [`crate::lower::VmProgram::validate`] already discharged at
    /// entry to debug assertions. Off by default, and differential
    /// runs keep it off so every dynamic check stays the safety net
    /// being compared against; only the certified measurement hot path
    /// turns it on.
    pub elide: bool,
}

impl Default for VmOptions {
    fn default() -> VmOptions {
        VmOptions {
            threads: 1,
            taskgraph: false,
            elide: false,
        }
    }
}

/// Raw view of one array buffer, taken once at entry so the hot loop
/// indexes without re-borrowing the caller's `Vec`s. `p` points at `len`
/// initialised `f64`s of a buffer [`run_opts`] holds mutably borrowed
/// for the whole run and touches through these views only, so every
/// offset in `0..len` may be read and written.
#[derive(Clone, Copy)]
struct Ptr {
    p: *mut f64,
    len: usize,
}

struct Ctx<'a> {
    vm: &'a VmProgram,
    elide: bool,
}

/// Executes a lowered program over the given buffers.
pub fn run(vm: &VmProgram, arrays: &mut [Vec<f64>]) -> Result<(), VmError> {
    run_opts(vm, arrays, VmOptions::default())
}

/// Executes a lowered program with explicit [`VmOptions`].
pub fn run_opts(
    vm: &VmProgram,
    arrays: &mut [Vec<f64>],
    opts: VmOptions,
) -> Result<(), VmError> {
    // One structural validation at entry (statement table, array ids,
    // registers, loop variables); the per-instruction table checks in
    // the hot loop below are debug assertions only.
    vm.validate()
        .map_err(|d| VmError::Runtime(format!("vm invalid program: {d}")))?;
    if arrays.len() != vm.array_lens.len() {
        return Err(VmError::Runtime(format!(
            "buffer count mismatch: {} buffers for {} arrays",
            arrays.len(),
            vm.array_lens.len()
        )));
    }
    for (k, (a, &want)) in arrays.iter().zip(&vm.array_lens).enumerate() {
        if a.len() < want {
            return Err(VmError::Runtime(format!(
                "buffer {k} holds {} elements, program needs {want}",
                a.len()
            )));
        }
    }
    let ptrs: Vec<Ptr> = arrays
        .iter_mut()
        .map(|a| Ptr {
            p: a.as_mut_ptr(),
            len: a.len(),
        })
        .collect();
    let ctx = Ctx {
        vm,
        elide: opts.elide,
    };
    let mut vars = vec![0i64; vm.n_vars.max(1)];
    let mut regs = vec![0.0f64; vm.max_regs.max(1)];
    ctx.exec(&vm.body, &ptrs, &mut vars, &mut regs)
        .map_err(VmError::Runtime)
}

/// Inclusive-bound trip count.
#[inline]
fn trips(lo: i64, hi: i64, step: i64) -> i64 {
    if hi < lo {
        0
    } else {
        (hi - lo) / step.max(1) + 1
    }
}

/// The failure of an access whose offset left its array.
#[cold]
fn escaped(what: &str, off: i64, array: u32, len: usize) -> String {
    format!("runtime_error: vm {what} offset {off} outside array {array} (len {len})")
}

impl Ctx<'_> {
    /// Executes `node`; the first failure ends the run.
    fn exec(
        &self,
        node: &CNode,
        arrs: &[Ptr],
        vars: &mut [i64],
        regs: &mut [f64],
    ) -> Result<(), String> {
        match node {
            CNode::Seq(xs) => xs.iter().try_for_each(|x| self.exec(x, arrs, vars, regs)),
            CNode::Guard(gs, b) => {
                if gs.iter().all(|g| g.eval(vars) >= 0) {
                    self.exec(b, arrs, vars, regs)
                } else {
                    Ok(())
                }
            }
            CNode::Loop(l) => self.exec_loop(l, arrs, vars, regs),
            CNode::Stmt(k) => {
                // In range by `VmProgram::validate` at entry.
                debug_assert!((*k as usize) < self.vm.stmts.len(), "vm stmt {k} out of table");
                self.exec_stmt(&self.vm.stmts[*k as usize], arrs, vars, regs)
            }
        }
    }

    fn exec_loop(
        &self,
        l: &CLoop,
        arrs: &[Ptr],
        vars: &mut [i64],
        regs: &mut [f64],
    ) -> Result<(), String> {
        if self.elide {
            if let CNode::Stmt(k) = &l.body {
                // In range by `VmProgram::validate` at entry.
                debug_assert!((*k as usize) < self.vm.stmts.len(), "vm stmt {k} out of table");
                let s = &self.vm.stmts[*k as usize];
                if all_proven(s) {
                    seq_loop_elided(l, s, arrs, vars, regs);
                    return Ok(());
                }
            }
        }
        let lo = l.lo.eval_lower(vars);
        let hi = l.hi.eval_upper(vars);
        let mut v = lo;
        while v <= hi {
            vars[l.var] = v;
            self.exec(&l.body, arrs, vars, regs)?;
            v += l.step;
        }
        Ok(())
    }

    fn exec_stmt(
        &self,
        s: &CompiledStmt,
        arrs: &[Ptr],
        vars: &[i64],
        regs: &mut [f64],
    ) -> Result<(), String> {
        let elide = self.elide;
        for instr in &s.code {
            match instr {
                Instr::Const { dst, val } => regs[*dst as usize] = *val,
                Instr::Iter { dst, aff } => regs[*dst as usize] = aff.eval(vars) as f64,
                Instr::Load {
                    dst,
                    array,
                    addr,
                    proven,
                } => {
                    // In range by `VmProgram::validate` at entry.
                    debug_assert!((*array as usize) < arrs.len(), "vm load array {array}");
                    let a = &arrs[*array as usize];
                    let off = addr.eval(vars);
                    if *proven && elide {
                        // Safety: `proven` is set only by a passing
                        // certificate whose polyhedron covers every
                        // executed frame, so `0 <= off < len` holds.
                        debug_assert!(off >= 0 && (off as usize) < a.len);
                    } else if off < 0 || off as usize >= a.len {
                        return Err(escaped("load", off, *array, a.len));
                    }
                    regs[*dst as usize] = unsafe { *a.p.add(off as usize) };
                }
                Instr::Bin { op, dst, a, b } => {
                    regs[*dst as usize] = op.apply(regs[*a as usize], regs[*b as usize]);
                }
                Instr::Un { op, dst, a } => {
                    regs[*dst as usize] = op.apply(regs[*a as usize]);
                }
            }
        }
        // In range by `VmProgram::validate` at entry.
        debug_assert!((s.store_array as usize) < arrs.len(), "vm store array");
        let a = &arrs[s.store_array as usize];
        let off = s.store_addr.eval(vars);
        if s.store_proven && elide {
            // Safety: same certificate contract as the load fast path.
            debug_assert!(off >= 0 && (off as usize) < a.len);
        } else if off < 0 || off as usize >= a.len {
            return Err(escaped("store", off, s.store_array, a.len));
        }
        unsafe { *a.p.add(off as usize) = regs[s.result as usize] };
        Ok(())
    }
}

/// Proof-carrying inner-loop fast path. Eligible when elision is on,
/// the loop body is directly one statement, and *every* access of
/// that statement is certificate-proven: the certificate's context
/// polyhedron covers the whole loop extent, so the full linear
/// address progression of the loop is known in-bounds up front and
/// the interpreter may strength-reduce — evaluate each affine
/// address/iterator once at the first iteration and advance it by
/// its loop-variable coefficient per step — executing the loop with
/// no per-access validation at all. Checked mode never takes this
/// path: each address is re-derived and re-validated individually,
/// which is exactly the safety net differential runs compare
/// against.
///
/// Deltas and advances wrap: the value advanced past the last trip is
/// never read, and a certified second trip implies the delta fits, so
/// wrapping only ever touches values nothing uses.
fn seq_loop_elided(l: &CLoop, s: &CompiledStmt, arrs: &[Ptr], vars: &mut [i64], regs: &mut [f64]) {
    let lo = l.lo.eval_lower(vars);
    let hi = l.hi.eval_upper(vars);
    if hi < lo {
        return;
    }
    let n = trips(lo, hi, l.step);
    vars[l.var] = lo;
    // Per-instruction state: current integer value (address or
    // iterator) and its per-step delta, indexed like `s.code`.
    // Sum rather than find: lowering merges duplicate terms, but
    // hand-built bytecode need not be canonical.
    let coeff = |aff: &AffExpr| -> i64 {
        aff.terms
            .iter()
            .filter(|&&(v, _)| v as usize == l.var)
            .fold(0i64, |acc, &(_, k)| acc.wrapping_add(k))
            .wrapping_mul(l.step)
    };
    let mut cur: Vec<(i64, i64)> = s
        .code
        .iter()
        .map(|i| match i {
            Instr::Iter { aff, .. } => (aff.eval(vars), coeff(aff)),
            Instr::Load { addr, .. } => (addr.eval(vars), coeff(addr)),
            _ => (0, 0),
        })
        .collect();
    let mut store = (s.store_addr.eval(vars), coeff(&s.store_addr));
    for _ in 0..n {
        for (instr, c) in s.code.iter().zip(cur.iter_mut()) {
            match instr {
                Instr::Const { dst, val } => regs[*dst as usize] = *val,
                Instr::Iter { dst, .. } => regs[*dst as usize] = c.0 as f64,
                Instr::Load { dst, array, .. } => {
                    let a = &arrs[*array as usize];
                    // Safety: the certificate proved this access
                    // in-bounds over the loop's whole context
                    // polyhedron, which contains every trip.
                    debug_assert!(c.0 >= 0 && (c.0 as usize) < a.len);
                    regs[*dst as usize] = unsafe { *a.p.add(c.0 as usize) };
                }
                Instr::Bin { op, dst, a, b } => {
                    regs[*dst as usize] = op.apply(regs[*a as usize], regs[*b as usize]);
                }
                Instr::Un { op, dst, a } => {
                    regs[*dst as usize] = op.apply(regs[*a as usize]);
                }
            }
            c.0 = c.0.wrapping_add(c.1);
        }
        let a = &arrs[s.store_array as usize];
        // Safety: same certificate contract as the loads.
        debug_assert!(store.0 >= 0 && (store.0 as usize) < a.len);
        unsafe { *a.p.add(store.0 as usize) = regs[s.result as usize] };
        store.0 = store.0.wrapping_add(store.1);
    }
    // Leave the frame exactly as the generic loop would: the last
    // executed value of the loop variable.
    vars[l.var] = lo + (n - 1) * l.step;
}

/// True when every access of the statement carries a certificate proof,
/// making it eligible for the elided inner-loop fast path.
fn all_proven(s: &CompiledStmt) -> bool {
    s.store_proven
        && s.code.iter().all(|i| match i {
            Instr::Load { proven, .. } => *proven,
            _ => true,
        })
}
