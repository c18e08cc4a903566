//! Bytecode execution: a sequential tree-walk over pre-resolved
//! addresses, with parallel regions ([`Dispatch`]) handed to
//! `polymix-runtime`'s wrappers (`par_for` / `reduce_array` /
//! `pipeline_2d` / `wavefront_2d`) — the runtime emitted kernels carry,
//! `kernel_rt`, behind a safe API. Each call reports its own failure,
//! so a run that follows a failed one in the same process (the daemon,
//! a sweep) dispatches normally.
//!
//! Every array access is bounds-checked by default; a bad address
//! poisons the run (first failure wins) instead of corrupting the host
//! process — the in-process analogue of the subprocess backend's
//! `runtime_error:` + exit path. [`VmOptions::elide`] switches the
//! dispatch loop to the proof-carrying fast path: accesses a passing
//! bytecode certificate proved in-bounds skip the dynamic check, and
//! the register/array/variable-frame re-checks already discharged by
//! `VmProgram::validate` at entry become debug assertions. Nested
//! parallel annotations execute sequentially inside a worker, matching
//! the emitted kernels, which parallelize each region at its outermost
//! annotation only.

use crate::lower::{CLoop, CNode, CompiledStmt, Instr, VmProgram};
use crate::VmError;
use polymix_ast::tree::Par;
use polymix_runtime::{par_for, pipeline_2d, reduce_array, wavefront_2d, GridSweep, RuntimeError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The kinds of parallel region the vm hands to `polymix-runtime` (at
/// `threads > 1`, the outermost annotated loop), as [`run_counted`]
/// counts them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dispatch {
    /// A `Doall` loop, through `par_for`.
    Doall,
    /// A `Reduction` loop with one additive accumulator, through
    /// `reduce_array`.
    Reduction,
    /// A `Pipeline` or `Wavefront` loop whose body is one inner loop with
    /// bounds invariant in it, through `pipeline_2d` / `wavefront_2d`.
    Grid,
}

/// Execution knobs for one run.
#[derive(Clone, Copy, Debug)]
pub struct VmOptions {
    /// Worker count for parallel regions (1 = fully sequential).
    pub threads: usize,
    /// Inert: read by nothing. The task-graph runtime it selected is
    /// gone (a wavefront loop always runs as `wavefront_2d`); the field
    /// stays only because `benchmark/` still spells it, and goes with
    /// `taskgraph_2d` in the benchmark-only change.
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

/// Shared raw view of one array buffer. Workers only ever touch
/// disjoint elements (guaranteed by the certified parallel
/// annotations), mirroring the `P(*mut f64)` wrapper of emitted
/// kernels.
#[derive(Clone, Copy)]
struct Ptr {
    p: *mut f64,
    len: usize,
}

unsafe impl Send for Ptr {}
unsafe impl Sync for Ptr {}

struct Ctx<'a> {
    vm: &'a VmProgram,
    opts: VmOptions,
    poisoned: AtomicBool,
    fail: Mutex<Option<String>>,
    /// Regions handed to the runtime, indexed by `Dispatch as usize`.
    dispatched: [AtomicU64; 3],
}

/// Executes a lowered program over the given buffers, sequentially.
pub fn run(vm: &VmProgram, arrays: &mut [Vec<f64>]) -> Result<(), VmError> {
    run_opts(vm, arrays, VmOptions::default())
}

/// Executes a lowered program with explicit [`VmOptions`].
pub fn run_opts(
    vm: &VmProgram,
    arrays: &mut [Vec<f64>],
    opts: VmOptions,
) -> Result<(), VmError> {
    run_counted(vm, arrays, opts).map(|_| ())
}

/// [`run_opts`], also returning how many parallel regions of each kind
/// the run handed to the runtime, indexed by `Dispatch as usize` (all
/// zero at one thread).
pub fn run_counted(
    vm: &VmProgram,
    arrays: &mut [Vec<f64>],
    opts: VmOptions,
) -> Result<[u64; 3], VmError> {
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
        opts: VmOptions {
            threads: opts.threads.max(1),
            ..opts
        },
        poisoned: AtomicBool::new(false),
        fail: Mutex::new(None),
        dispatched: Default::default(),
    };
    let mut vars = vec![0i64; vm.n_vars.max(1)];
    let mut regs = vec![0.0f64; vm.max_regs.max(1)];
    let ok = ctx.exec(&vm.body, &ptrs, &mut vars, &mut regs, true);
    if ok && !ctx.poisoned.load(Ordering::Acquire) {
        Ok(ctx.dispatched.map(AtomicU64::into_inner))
    } else {
        let detail = ctx
            .fail
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .unwrap_or_else(|| "run poisoned".to_string());
        Err(VmError::Runtime(detail))
    }
}

/// Inclusive-bound trip count as used by every loop dispatcher.
#[inline]
fn trips(lo: i64, hi: i64, step: i64) -> i64 {
    if hi < lo {
        0
    } else {
        (hi - lo) / step.max(1) + 1
    }
}

impl Ctx<'_> {
    /// Records the first failure and flips the poison flag.
    fn poison(&self, msg: String) -> bool {
        if !self.poisoned.swap(true, Ordering::AcqRel) {
            let mut g = self.fail.lock().unwrap_or_else(|e| e.into_inner());
            *g = Some(msg);
        }
        false
    }

    /// Counts one region handed to the runtime.
    fn count(&self, kind: Dispatch) {
        self.dispatched[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn runtime_failed(&self, what: &str, e: RuntimeError) -> bool {
        self.poison(format!("runtime_error: vm {what} dispatch: {e}"))
    }

    /// Executes `node`; returns `false` once the run is poisoned. `par`
    /// is true only outside any parallel region.
    fn exec(
        &self,
        node: &CNode,
        arrs: &[Ptr],
        vars: &mut Vec<i64>,
        regs: &mut Vec<f64>,
        par: bool,
    ) -> bool {
        match node {
            CNode::Seq(xs) => xs.iter().all(|x| self.exec(x, arrs, vars, regs, par)),
            CNode::Guard(gs, b) => {
                if gs.iter().all(|g| g.eval(vars) >= 0) {
                    self.exec(b, arrs, vars, regs, par)
                } else {
                    true
                }
            }
            CNode::Loop(l) => {
                if par && self.opts.threads > 1 {
                    match l.par {
                        Par::Doall => return self.par_doall(l, arrs, vars),
                        Par::Reduction if l.reduction_array.is_some() => {
                            return self.par_reduction(l, arrs, vars)
                        }
                        Par::Pipeline | Par::Wavefront if l.rect_grid => {
                            return self.par_grid(l, arrs, vars)
                        }
                        _ => {}
                    }
                }
                self.seq_loop(l, arrs, vars, regs, par)
            }
            CNode::Stmt(k) => {
                // In range by `VmProgram::validate` at entry.
                debug_assert!((*k as usize) < self.vm.stmts.len(), "vm stmt {k} out of table");
                self.exec_stmt(&self.vm.stmts[*k as usize], arrs, vars, regs)
            }
        }
    }

    fn seq_loop(
        &self,
        l: &CLoop,
        arrs: &[Ptr],
        vars: &mut Vec<i64>,
        regs: &mut Vec<f64>,
        par: bool,
    ) -> bool {
        if self.opts.elide {
            if let CNode::Stmt(k) = &l.body {
                // In range by `VmProgram::validate` at entry.
                debug_assert!((*k as usize) < self.vm.stmts.len(), "vm stmt {k} out of table");
                let s = &self.vm.stmts[*k as usize];
                if all_proven(s) {
                    return self.seq_loop_elided(l, s, arrs, vars, regs);
                }
            }
        }
        let lo = l.lo.eval_lower(vars);
        let hi = l.hi.eval_upper(vars);
        let mut v = lo;
        while v <= hi {
            vars[l.var] = v;
            if !self.exec(&l.body, arrs, vars, regs, par) {
                return false;
            }
            v += l.step;
        }
        true
    }

    /// One parallel worker iteration: a private frame/register file over
    /// the shared buffers.
    fn worker_iter(&self, body: &CNode, arrs: &[Ptr], vars: &[i64], var: usize, value: i64) {
        if self.poisoned.load(Ordering::Acquire) {
            return;
        }
        let mut vars = vars.to_vec();
        let mut regs = vec![0.0f64; self.vm.max_regs.max(1)];
        vars[var] = value;
        self.exec(body, arrs, &mut vars, &mut regs, false);
    }

    fn par_doall(&self, l: &CLoop, arrs: &[Ptr], vars: &[i64]) -> bool {
        self.count(Dispatch::Doall);
        let lo = l.lo.eval_lower(vars);
        let hi = l.hi.eval_upper(vars);
        let n = trips(lo, hi, l.step);
        let r = par_for(0, n, self.opts.threads, |t| {
            self.worker_iter(&l.body, arrs, vars, l.var, lo + t * l.step);
        });
        match r {
            Ok(_) => !self.poisoned.load(Ordering::Acquire),
            Err(e) => self.runtime_failed("doall", e),
        }
    }

    fn par_reduction(&self, l: &CLoop, arrs: &[Ptr], vars: &[i64]) -> bool {
        self.count(Dispatch::Reduction);
        let Some(acc) = l.reduction_array else {
            return self.poison("runtime_error: vm reduction without accumulator".to_string());
        };
        let Some(shared) = arrs.get(acc as usize).copied() else {
            return self.poison(format!("runtime_error: vm accumulator {acc} out of range"));
        };
        let lo = l.lo.eval_lower(vars);
        let hi = l.hi.eval_upper(vars);
        let n = trips(lo, hi, l.step);
        // Safety: within the reduction every write to the accumulator is
        // redirected to the worker-private buffer below; the shared
        // buffer is only merged into by `reduce_array` after the workers
        // join, so this exclusive view never races.
        let target = unsafe { std::slice::from_raw_parts_mut(shared.p, shared.len) };
        let r = reduce_array(target, 0, n, self.opts.threads, |t, local| {
            let mut redirected = arrs.to_vec();
            if let Some(slot) = redirected.get_mut(acc as usize) {
                *slot = Ptr {
                    p: local.as_mut_ptr(),
                    len: local.len(),
                };
            }
            self.worker_iter(&l.body, &redirected, vars, l.var, lo + t * l.step);
        });
        match r {
            Ok(_) => !self.poisoned.load(Ordering::Acquire),
            Err(e) => self.runtime_failed("reduction", e),
        }
    }

    fn par_grid(&self, l: &CLoop, arrs: &[Ptr], vars: &[i64]) -> bool {
        self.count(Dispatch::Grid);
        let CNode::Loop(inner) = &l.body else {
            return self.poison("runtime_error: vm grid region lost its inner loop".to_string());
        };
        let olo = l.lo.eval_lower(vars);
        let ohi = l.hi.eval_upper(vars);
        let ilo = inner.lo.eval_lower(vars);
        let ihi = inner.hi.eval_upper(vars);
        let grid = GridSweep {
            i_lo: 0,
            i_hi: trips(olo, ohi, l.step),
            j_lo: 0,
            j_hi: trips(ilo, ihi, inner.step),
        };
        let body = |i: i64, j: i64| {
            if self.poisoned.load(Ordering::Acquire) {
                return;
            }
            let mut vars = vars.to_vec();
            let mut regs = vec![0.0f64; self.vm.max_regs.max(1)];
            vars[l.var] = olo + i * l.step;
            vars[inner.var] = ilo + j * inner.step;
            self.exec(&inner.body, arrs, &mut vars, &mut regs, false);
        };
        let r = match l.par {
            Par::Pipeline => pipeline_2d(grid, self.opts.threads, body),
            _ => wavefront_2d(grid, self.opts.threads, body),
        };
        match r {
            Ok(_) => !self.poisoned.load(Ordering::Acquire),
            Err(e) => self.runtime_failed("grid", e),
        }
    }

    fn exec_stmt(&self, s: &CompiledStmt, arrs: &[Ptr], vars: &[i64], regs: &mut [f64]) -> bool {
        let elide = self.opts.elide;
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
                        return self.poison(format!(
                            "runtime_error: vm load offset {off} outside array {array} \
                             (len {})",
                            a.len
                        ));
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
            return self.poison(format!(
                "runtime_error: vm store offset {off} outside array {} (len {})",
                s.store_array, a.len
            ));
        }
        unsafe { *a.p.add(off as usize) = regs[s.result as usize] };
        true
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
    fn seq_loop_elided(
        &self,
        l: &CLoop,
        s: &CompiledStmt,
        arrs: &[Ptr],
        vars: &mut [i64],
        regs: &mut [f64],
    ) -> bool {
        let lo = l.lo.eval_lower(vars);
        let hi = l.hi.eval_upper(vars);
        if hi < lo {
            return true;
        }
        let n = trips(lo, hi, l.step);
        vars[l.var] = lo;
        // Per-instruction state: current integer value (address or
        // iterator) and its per-step delta. Offsets index `s.code`;
        // usize::MAX marks the store.
        // Sum rather than find: lowering merges duplicate terms, but
        // hand-built bytecode need not be canonical.
        let coeff = |aff: &crate::lower::AffExpr| -> i64 {
            aff.terms
                .iter()
                .filter(|&&(v, _)| v as usize == l.var)
                .map(|&(_, k)| k)
                .sum::<i64>()
                * l.step
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
        for t in 0..n {
            for (instr, c) in s.code.iter().zip(cur.iter_mut()) {
                match instr {
                    Instr::Const { dst, val } => regs[*dst as usize] = *val,
                    Instr::Iter { dst, .. } => regs[*dst as usize] = c.0 as f64,
                    Instr::Load { dst, array, .. } => {
                        let a = &arrs[*array as usize];
                        // Safety: the certificate proved this access
                        // in-bounds over the loop's whole context
                        // polyhedron, which contains every `t`.
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
                c.0 += c.1;
            }
            let a = &arrs[s.store_array as usize];
            // Safety: same certificate contract as the loads.
            debug_assert!(store.0 >= 0 && (store.0 as usize) < a.len);
            unsafe { *a.p.add(store.0 as usize) = regs[s.result as usize] };
            store.0 += store.1;
            let _ = t;
        }
        // Leave the frame exactly as the generic loop would: the last
        // executed value of the loop variable.
        vars[l.var] = lo + (n - 1) * l.step;
        true
    }
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
