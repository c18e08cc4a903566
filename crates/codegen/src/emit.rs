//! Rust source emission: renders a [`Program`] as a standalone `main.rs`
//! compilable with plain `rustc -O`.
//!
//! The emitted file contains the parameter constants, array allocation and
//! (kernel-specific or default) initialization, the kernel itself, timing,
//! a checksum over every written array, and a GFLOP/s line computed from
//! the caller-supplied FLOP count. With more than one thread, each
//! parallel annotation (the Sec. IV-D extensions) becomes one call into
//! the kernel runtime, `crates/runtime/src/kernel_rt.rs`, with the loop
//! body as a closure; the runtime file is pasted verbatim into the
//! emitted source (see [`KERNEL_RT`]), so the result still compiles
//! standalone:
//!
//! * [`Par::Doall`] — `kernel_rt::doall`, static blocks or dynamic chunk
//!   claiming;
//! * [`Par::Reduction`] — `kernel_rt::reduction`, thread-private copies
//!   of the reduced arrays, combined additively after the join;
//! * [`Par::Pipeline`] — `kernel_rt::pipeline`, column blocks of the
//!   next-inner loop(s) with point-to-point progress counters, the
//!   OpenMP `await source(i-1,j) source(i,j-1)` analogue;
//! * [`Par::Wavefront`] — `kernel_rt::wavefront`, tiles in
//!   weighted-diagonal order.
//!
//! Sequential kernels (one thread, or no parallel loop) carry none of
//! this. Kernel array accesses go through raw pointers (as
//! OpenMP-generated C does); the sequential and parallel variants share
//! the same accessors so compiler-side differences between variants come
//! only from loop structure — the property the paper's comparison
//! depends on.

use polymix_ast::tree::{Bound, LinExpr, Loop, Node, Par, Program};
use polymix_ir::expr::{Expr, UnOp};
use std::collections::HashMap;
use std::fmt::Write;

/// Options controlling emission.
#[derive(Clone, Debug)]
pub struct EmitOptions {
    /// Concrete parameter values (emitted as `const`s).
    pub params: Vec<i64>,
    /// Total floating-point operations of one kernel run (for GFLOP/s).
    pub flops: u64,
    /// Worker-thread count for parallel loops.
    pub threads: usize,
    /// Kernel-specific array initialization; receives slices named
    /// `a_<array>`. When `None` a deterministic generic formula is used.
    pub init_rust: Option<String>,
    /// Timing repetitions; the minimum time is reported.
    pub reps: usize,
}

impl Default for EmitOptions {
    fn default() -> Self {
        EmitOptions {
            params: Vec::new(),
            flops: 0,
            threads: 1,
            init_rust: None,
            reps: 1,
        }
    }
}

/// The kernel runtime, pasted verbatim into every emitted kernel that
/// has a parallel region. Pasted text rather than a linked crate: served
/// and cached sources stay compilable with plain `rustc`, and callers
/// keep full control of the rustc flags.
pub const KERNEL_RT: &str = include_str!("../../runtime/src/kernel_rt.rs");

struct Emitter<'a> {
    prog: &'a Program,
    opts: &'a EmitOptions,
    out: String,
    indent: usize,
    names: HashMap<usize, String>,
    region: usize,
    /// Whether any loop is emitted as a `kernel_rt` region.
    parallel: bool,
}

/// Emits the standalone Rust program.
pub fn emit_rust(prog: &Program, opts: &EmitOptions) -> String {
    assert_eq!(opts.params.len(), prog.scop.params.len());
    let (mut names, mut parallel) = (HashMap::new(), false);
    scan_loops(&prog.body, &mut names, &mut parallel);
    let mut e = Emitter {
        prog,
        opts,
        out: String::new(),
        indent: 0,
        names,
        region: 0,
        parallel: parallel && opts.threads > 1,
    };
    e.header();
    e.main();
    e.out
}

/// One walk over every loop: assigns the emitted variable names and
/// notes whether any loop carries a parallel annotation.
fn scan_loops(node: &Node, names: &mut HashMap<usize, String>, parallel: &mut bool) {
    match node {
        Node::Seq(xs) => xs.iter().for_each(|x| scan_loops(x, names, parallel)),
        Node::Guard(_, b) => scan_loops(b, names, parallel),
        Node::Loop(l) => {
            *parallel |= l.par != Par::Seq;
            let base = sanitize(&l.name);
            let mut name = format!("v_{base}");
            let mut k = 0;
            while names.values().any(|n| *n == name) {
                k += 1;
                name = format!("v_{base}_{k}");
            }
            names.insert(l.var, name);
            scan_loops(&l.body, names, parallel);
        }
        Node::Stmt(_) => {}
    }
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}

fn bound_refs_var(b: &Bound, var: usize) -> bool {
    b.exprs.iter().any(|be| be.expr.coeff_of(var) != 0)
}

/// Whether any bound or guard nested under `l` depends on `l`'s own
/// variable — i.e. the per-iteration work varies across the range (a
/// triangular/skewed nest). Static blocks load-imbalance such spaces, so
/// the doall emitter switches to dynamic chunk claiming.
fn nest_is_nonrectangular(l: &Loop) -> bool {
    fn walk(node: &Node, var: usize, dep: &mut bool) {
        match node {
            Node::Seq(xs) => xs.iter().for_each(|x| walk(x, var, dep)),
            Node::Guard(gs, b) => {
                if gs.iter().any(|g| g.coeff_of(var) != 0) {
                    *dep = true;
                }
                walk(b, var, dep);
            }
            Node::Loop(il) => {
                if bound_refs_var(&il.lo, var) || bound_refs_var(&il.hi, var) {
                    *dep = true;
                }
                walk(&il.body, var, dep);
            }
            Node::Stmt(_) => {}
        }
    }
    let mut dep = false;
    walk(&l.body, l.var, &mut dep);
    dep
}

impl Emitter<'_> {
    fn pad(&self) -> String {
        "    ".repeat(self.indent)
    }

    fn line(&mut self, s: &str) {
        let pad = self.pad();
        let _ = writeln!(self.out, "{pad}{s}");
    }

    fn param_const(&self, p: usize) -> String {
        format!("P_{}", sanitize(&self.prog.scop.params[p]).to_uppercase())
    }

    fn arr_name(&self, a: usize) -> String {
        format!("a_{}", sanitize(&self.prog.scop.arrays[a].name).to_lowercase())
    }

    fn ptr_name(&self, a: usize) -> String {
        format!("p_{}", sanitize(&self.prog.scop.arrays[a].name).to_lowercase())
    }

    fn var_name(&self, v: usize) -> String {
        self.names
            .get(&v)
            .cloned()
            .unwrap_or_else(|| format!("v{v}"))
    }

    fn lin(&self, e: &LinExpr) -> String {
        let mut parts: Vec<String> = Vec::new();
        for &(v, c) in &e.var_coeffs {
            parts.push(coef_term(c, &self.var_name(v), parts.is_empty()));
        }
        for &(p, c) in &e.param_coeffs {
            parts.push(coef_term(c, &self.param_const(p), parts.is_empty()));
        }
        if e.c != 0 || parts.is_empty() {
            if parts.is_empty() {
                parts.push(format!("{}", e.c));
            } else if e.c > 0 {
                parts.push(format!(" + {}", e.c));
            } else {
                parts.push(format!(" - {}", -e.c));
            }
        }
        parts.concat()
    }

    fn bound(&self, b: &Bound, lower: bool) -> String {
        let parts: Vec<String> = b
            .exprs
            .iter()
            .map(|be| {
                let e = self.lin(&be.expr);
                if be.denom == 1 {
                    format!("({e})")
                } else if lower {
                    format!("cdiv({e}, {})", be.denom)
                } else {
                    format!("fdiv({e}, {})", be.denom)
                }
            })
            .collect();
        let mut it = parts.into_iter();
        let first = it.next().expect("empty bound");
        it.fold(first, |acc, x| {
            if lower {
                format!("{acc}.max({x})")
            } else {
                format!("{acc}.min({x})")
            }
        })
    }

    fn header(&mut self) {
        self.line("// Auto-generated by polymix-codegen. Do not edit.");
        self.line("#![allow(unused_mut, unused_variables, unused_parens, dead_code, unused_imports, unused_unsafe)]");
        self.line("#![allow(clippy::all)]");
        self.line("use std::time::Instant;");
        self.line("");
        for (p, &v) in self.opts.params.iter().enumerate() {
            let c = self.param_const(p);
            self.line(&format!("const {c}: i64 = {v};"));
        }
        self.line(&format!("const THREADS: usize = {};", self.opts.threads));
        self.line("");
        self.line("#[inline(always)] fn cdiv(a: i64, b: i64) -> i64 { -((-a).div_euclid(b)) }");
        self.line("#[inline(always)] fn fdiv(a: i64, b: i64) -> i64 { a.div_euclid(b) }");
        if self.parallel {
            let (begin, end) = ("// polymix kernel_rt begin", "// polymix kernel_rt end");
            let _ = writeln!(self.out, "{begin}\nmod kernel_rt {{\n{KERNEL_RT}}}\n{end}");
        }
        self.line("");
    }

    fn main(&mut self) {
        let scop = &self.prog.scop;
        self.line("fn main() {");
        self.indent += 1;
        // Allocation.
        for (ai, arr) in scop.arrays.iter().enumerate() {
            let len = self.extent_product(ai);
            let n = self.arr_name(ai);
            self.line(&format!(
                "let mut {n}: Vec<f64> = vec![0.0f64; ({len}).max(1) as usize]; // {}",
                arr.name
            ));
        }
        // Init.
        self.line("// --- initialization ---");
        match &self.opts.init_rust {
            Some(code) => {
                for l in code.lines() {
                    self.line(l);
                }
            }
            None => {
                for ai in 0..scop.arrays.len() {
                    let n = self.arr_name(ai);
                    self.line(&format!(
                        "for k in 0..{n}.len() {{ {n}[k] = (((k as i64) * 7 + {ai} * 13) % 1024) as f64 / 1024.0; }}"
                    ));
                }
            }
        }
        // Pointers.
        self.line("// --- kernel ---");
        for ai in 0..scop.arrays.len() {
            let n = self.arr_name(ai);
            let p = self.ptr_name(ai);
            self.line(&format!("let {p}: *mut f64 = {n}.as_mut_ptr();"));
            if self.parallel {
                self.line(&format!("let s_{p} = kernel_rt::P({p});"));
            }
        }
        self.line("let mut best = f64::INFINITY;");
        self.line(&format!("for _rep in 0..{} {{", self.opts.reps.max(1)));
        self.indent += 1;
        self.line("let t0 = Instant::now();");
        self.line("unsafe {");
        self.indent += 1;
        let body = self.prog.body.clone();
        self.node(&body);
        self.indent -= 1;
        self.line("}");
        // A poisoned run must not report a checksum computed from a
        // half-executed kernel: exit non-zero so the bench runner sees a
        // kernel failure (and can degrade to a sequential re-run).
        if self.parallel {
            self.line("if kernel_rt::poisoned() {");
            self.line("    eprintln!(\"runtime_error: kernel poisoned; results discarded\");");
            self.line("    std::process::exit(101);");
            self.line("}");
        }
        self.line("let dt = t0.elapsed().as_secs_f64();");
        self.line("if dt < best { best = dt; }");
        self.indent -= 1;
        self.line("}");
        // Checksum over written arrays.
        let mut written: Vec<usize> = Vec::new();
        for st in &scop.statements {
            if !written.contains(&st.write.array.0) {
                written.push(st.write.array.0);
            }
        }
        written.sort();
        self.line("let mut checksum = 0.0f64;");
        for ai in written {
            let n = self.arr_name(ai);
            self.line(&format!(
                "for (k, &x) in {n}.iter().enumerate() {{ checksum += x * ((k % 31) as f64 + 1.0); }}"
            ));
        }
        self.line("println!(\"checksum: {:.6e}\", checksum);");
        self.line("println!(\"time_s: {:.6}\", best);");
        self.line(&format!(
            "println!(\"gflops: {{:.4}}\", {}f64 / best / 1e9);",
            self.opts.flops
        ));
        self.indent -= 1;
        self.line("}");
    }

    fn extent_product(&self, ai: usize) -> String {
        let arr = &self.prog.scop.arrays[ai];
        if arr.dims.is_empty() {
            return "1".to_string();
        }
        arr.dims
            .iter()
            .map(|row| self.extent_expr(row))
            .collect::<Vec<_>>()
            .join(" * ")
    }

    fn extent_expr(&self, row: &[i64]) -> String {
        let p = self.prog.scop.params.len();
        let mut parts: Vec<String> = Vec::new();
        for (k, &c) in row[..p].iter().enumerate() {
            if c != 0 {
                parts.push(coef_term(c, &self.param_const(k), parts.is_empty()));
            }
        }
        if row[p] != 0 || parts.is_empty() {
            if parts.is_empty() {
                parts.push(format!("{}", row[p]));
            } else if row[p] > 0 {
                parts.push(format!(" + {}", row[p]));
            } else {
                parts.push(format!(" - {}", -row[p]));
            }
        }
        format!("({})", parts.concat())
    }

    fn node(&mut self, node: &Node) {
        match node {
            Node::Seq(xs) => xs.iter().for_each(|x| self.node(x)),
            Node::Guard(gs, b) => {
                let conds: Vec<String> = gs.iter().map(|g| format!("{} >= 0", self.lin(g))).collect();
                self.line(&format!("if {} {{", conds.join(" && ")));
                self.indent += 1;
                self.node(b);
                self.indent -= 1;
                self.line("}");
            }
            Node::Loop(l) => {
                // With a single worker the parallel scaffolding (thread
                // scope, pointer laundering, progress atomics) costs real
                // performance and changes nothing: emit plain loops.
                if self.opts.threads <= 1 {
                    self.seq_loop(l);
                    return;
                }
                match l.par {
                    Par::Doall => self.doall(l),
                    Par::Reduction => self.reduction(l),
                    Par::Pipeline => self.pipeline(l),
                    Par::Wavefront => self.wavefront(l),
                    Par::Seq => self.seq_loop(l),
                }
            }
            Node::Stmt(s) => self.stmt(s),
        }
    }

    fn seq_loop(&mut self, l: &Loop) {
        self.seq_loop_around(l, |e| e.node(&l.body));
    }

    /// `l` as a plain loop around whatever `body` emits.
    fn seq_loop_around(&mut self, l: &Loop, body: impl FnOnce(&mut Self)) {
        let v = self.var_name(l.var);
        let lo = self.bound(&l.lo, true);
        let hi = self.bound(&l.hi, false);
        self.line(&format!("let mut {v}: i64 = {lo};"));
        self.line(&format!("let {v}_hi: i64 = {hi};"));
        self.line(&format!("while {v} <= {v}_hi {{"));
        self.indent += 1;
        body(self);
        self.line(&format!("{v} += {};", l.step));
        self.indent -= 1;
        self.line("}");
    }

    /// Emits one `kernel_rt` region: the marker line, then the call, whose
    /// closure (`closure` is its head, `move |params|`) first rebinds
    /// every array pointer (raw pointers cannot be captured by a `Sync`
    /// closure; the `s_*` wrappers declared in `main` can) and then runs
    /// whatever `body` emits.
    fn runtime_call(
        &mut self,
        kind: &str,
        note: &str,
        args: &str,
        closure: &str,
        body: impl FnOnce(&mut Self),
    ) {
        self.line(&format!("// {kind} region {}{note}", self.region));
        self.region += 1;
        self.line(&format!(
            "kernel_rt::{kind}(THREADS, {args}, {closure} unsafe {{"
        ));
        self.indent += 1;
        for a in 0..self.prog.scop.arrays.len() {
            let p = self.ptr_name(a);
            self.line(&format!("let {p}: *mut f64 = s_{p}.get();"));
        }
        body(self);
        self.indent -= 1;
        self.line("});");
    }

    /// Doall: static blocks for rectangular nests, dynamic chunk claiming
    /// for non-rectangular ones (per-iteration work that varies with the
    /// parallel variable would load-imbalance a static partition by
    /// design). The dynamic grain `Some(0)` lets the runtime derive it
    /// from the trip count (~8 chunks per worker).
    fn doall(&mut self, l: &Loop) {
        let (kind, grain) = if nest_is_nonrectangular(l) {
            ("dynamic", "Some(0)")
        } else {
            ("static", "None")
        };
        let v = self.var_name(l.var);
        let lo = self.bound(&l.lo, true);
        let hi = self.bound(&l.hi, false);
        self.runtime_call(
            "doall",
            &format!(" ({kind} schedule)"),
            &format!("{lo}, {hi}, {}, {grain}", l.step),
            &format!("move |{v}: i64|"),
            |e| e.node(&l.body),
        );
    }

    /// Array-reduction execution with thread-private accumulators.
    ///
    /// Written arrays are classified per Sec. IV-D:
    /// * **owner-indexed** — every write's address varies with the
    ///   parallel variable with unit coefficient and depends on no inner
    ///   loop variable: iterations own disjoint cells, so threads write
    ///   the global array directly (e.g. `tmp[i] = 0; tmp[i] += …` under
    ///   a parallel `i`);
    /// * **reduced** — every write is an associative `+=` update whose
    ///   address is invariant in the parallel variable: threads
    ///   accumulate into zeroed private copies, combined additively after
    ///   the join (e.g. `y[j] += …` under a parallel `i`).
    ///
    /// Anything else (mixed shapes, reads of partial reductions) falls
    /// back to sequential execution of the loop — correctness first.
    fn reduction(&mut self, l: &Loop) {
        // ---- classification ----
        let mut stmts: Vec<polymix_ast::tree::StmtNode> = Vec::new();
        l.body.visit_stmts(&mut |s| stmts.push(s.clone()));
        let depends_unit = |s: &polymix_ast::tree::StmtNode| -> bool {
            // Some subscript row composes to exactly ±1·var (+ params).
            let stmt = &self.prog.scop.statements[s.stmt_idx];
            let d = stmt.dim;
            let p = self.prog.scop.params.len();
            stmt.write.map.iter().any(|row| {
                let mut e = polymix_ast::tree::LinExpr::con(row[d + p]);
                for (k, &c) in row[..d].iter().enumerate() {
                    if c != 0 {
                        e = e.add_scaled(&s.iter_exprs[k], c);
                    }
                }
                e.var_coeffs.len() == 1
                    && e.var_coeffs[0].0 == l.var
                    && e.var_coeffs[0].1.abs() == 1
            })
        };
        let invariant_in_var = |s: &polymix_ast::tree::StmtNode| -> bool {
            let stmt = &self.prog.scop.statements[s.stmt_idx];
            let d = stmt.dim;
            stmt.write.map.iter().all(|row| {
                let mut coeff = 0i64;
                for (k, &c) in row[..d].iter().enumerate() {
                    coeff += c * s.iter_exprs[k].coeff_of(l.var);
                }
                coeff == 0
            })
        };
        let mut owned: Vec<usize> = Vec::new();
        let mut reduced: Vec<usize> = Vec::new();
        let mut ok = true;
        let mut arrays_written: Vec<usize> = Vec::new();
        for s in &stmts {
            let a = self.prog.scop.statements[s.stmt_idx].write.array.0;
            if !arrays_written.contains(&a) {
                arrays_written.push(a);
            }
        }
        for &a in &arrays_written {
            let writers: Vec<&polymix_ast::tree::StmtNode> = stmts
                .iter()
                .filter(|s| self.prog.scop.statements[s.stmt_idx].write.array.0 == a)
                .collect();
            if writers.iter().all(|s| depends_unit(s)) {
                owned.push(a);
            } else if writers.iter().all(|s| {
                self.prog.scop.statements[s.stmt_idx].is_reduction_update()
                    && invariant_in_var(s)
            }) {
                reduced.push(a);
            } else {
                ok = false;
            }
        }
        // Reduced arrays may only be read by their own update statements.
        if ok {
            'outer: for s in &stmts {
                let stmt = &self.prog.scop.statements[s.stmt_idx];
                for (read, is_write) in stmt.accesses() {
                    if is_write {
                        continue;
                    }
                    if reduced.contains(&read.array.0)
                        && !(read.array == stmt.write.array && read.map == stmt.write.map)
                    {
                        ok = false;
                        break 'outer;
                    }
                }
            }
        }
        if !ok {
            self.line(&format!(
                "// reduction region {}: shape not parallelizable, sequential fallback",
                self.region
            ));
            self.region += 1;
            self.seq_loop(l);
            return;
        }
        reduced.sort();
        let v = self.var_name(l.var);
        let lo = self.bound(&l.lo, true);
        let hi = self.bound(&l.hi, false);
        let privatized: Vec<String> = reduced
            .iter()
            .map(|&a| {
                let len = self.extent_product(a);
                format!("(s_{}, ({len}).max(1) as usize)", self.ptr_name(a))
            })
            .collect();
        self.runtime_call(
            "reduction",
            &format!(" (reduced {reduced:?}, owner-indexed {owned:?})"),
            &format!("{lo}, {hi}, {}, &[{}]", l.step, privatized.join(", ")),
            &format!("move |{v}: i64, copies: &[kernel_rt::P]|"),
            |e| {
                // Rebind reduced pointers to this worker's private copies.
                for (i, &a) in reduced.iter().enumerate() {
                    let p = e.ptr_name(a);
                    e.line(&format!("let {p}: *mut f64 = copies[{i}].get();"));
                }
                e.node(&l.body);
            },
        );
    }

    /// Point-to-point pipeline over this loop and its inner loop — or
    /// its sequence of sibling inner loops, the fused-stencil shape: the
    /// inner dimension is split into column blocks across threads; each
    /// thread sweeps the outer dimension, running every sibling clamped
    /// to its block.
    fn pipeline(&mut self, l: &Loop) {
        let siblings: &[Node] = match &l.body {
            Node::Seq(xs) => xs,
            single => std::slice::from_ref(single),
        };
        let subs: Vec<&Loop> = siblings
            .iter()
            .filter_map(|x| match x {
                Node::Loop(il) => Some(il.as_ref()),
                _ => None,
            })
            .collect();
        if subs.is_empty() || subs.len() != siblings.len() {
            // No inner loop structure to pipeline across: sequential.
            self.seq_loop(l);
            return;
        }
        let vo = self.var_name(l.var);
        let los: Vec<String> = subs.iter().map(|il| self.bound(&il.lo, true)).collect();
        let his: Vec<String> = subs.iter().map(|il| self.bound(&il.hi, false)).collect();
        let (o_lo, o_hi) = (self.bound(&l.lo, true), self.bound(&l.hi, false));
        // Widest sibling extent over the outer range: the bounds are
        // affine in the outer variable, so extremes sit at its endpoints.
        let mut span = "0i64".to_string();
        for (lo, hi) in los.iter().zip(&his) {
            let _ = write!(
                span,
                ".max({{ let {vo}: i64 = {o_lo}; let a = ({hi}) - ({lo}) + 1; \
                 let {vo}: i64 = {o_hi}; let b = ({hi}) - ({lo}) + 1; a.max(b) }})"
            );
        }
        let grid = subs.iter().map(|il| il.step).max().unwrap_or(1);
        // The loop step encodes the tile size, so tiled pipelines (large
        // steps, per-step sync already amortized over a tile row) publish
        // every step while untiled ones batch several rows.
        let batch = (8 / l.step.max(1)).clamp(1, 8);
        self.runtime_call(
            "pipeline",
            &format!(" (phases {}, PIPE_BATCH = {batch})", subs.len()),
            &format!(
                "{o_lo}, {o_hi}, {}, {}, {span}, {grid}, {batch}",
                l.step,
                subs.len()
            ),
            // The body is a whole block of tiles with deep loop nests:
            // compiled out of line it keeps the registers it would
            // otherwise share with the runtime's await/publish loop
            // (seidel-2d: 5-10 % faster).
            &format!("#[inline(never)] move |{vo}: i64, phase: i64, off_lo: i64, off_hi: i64|"),
            |e| {
                // Common grid origin: siblings' grids are shifted copies of
                // each other; cutting all of them against the minimum lower
                // bound keeps block assignment consistent across siblings.
                let g0c = los[1..]
                    .iter()
                    .fold(los[0].clone(), |acc, lo| format!("{acc}.min({lo})"));
                e.line(&format!("let g0c: i64 = {g0c};"));
                for (phase, il) in subs.iter().enumerate() {
                    let vi = e.var_name(il.var);
                    let st = il.step;
                    e.line(&format!("if phase == {phase} {{"));
                    e.indent += 1;
                    // Start on the sibling's own stride grid (blocks are cut
                    // by value; the grid origin may differ per outer step).
                    e.line(&format!("let g0: i64 = {};", los[phase]));
                    e.line(&format!(
                        "let mut {vi}: i64 = g0 + cdiv((g0c + off_lo - g0).max(0), {st}) * {st};"
                    ));
                    e.line(&format!(
                        "let b_hi: i64 = ({}).min(g0c + off_hi);",
                        his[phase]
                    ));
                    e.line(&format!("while {vi} <= b_hi {{"));
                    e.indent += 1;
                    e.node(&il.body);
                    e.line(&format!("{vi} += {st};"));
                    e.indent -= 1;
                    e.line("}");
                    e.indent -= 1;
                    e.line("}");
                }
            },
        );
    }

    /// Wavefront doall over this loop and its immediate inner loop (the
    /// Fig. 6 baseline): collect every tile origin `(u, v)` at runtime
    /// and hand them to the runtime, which runs them in weighted-diagonal
    /// order.
    fn wavefront(&mut self, l: &Loop) {
        let Node::Loop(inner) = &l.body else {
            self.seq_loop(l);
            return;
        };
        let vo = self.var_name(l.var);
        let vi = self.var_name(inner.var);
        self.line("{");
        self.indent += 1;
        self.line("let mut tiles: Vec<(i64, i64)> = Vec::new();");
        self.seq_loop_around(l, |e| {
            e.seq_loop_around(inner, |e| e.line(&format!("tiles.push(({vo}, {vi}));")))
        });
        // Diagonal weight: skewed tile grids shift their inner origin by
        // up to (inner step − 1) per outer step, so the plain u+v diagonal
        // can order dependent tiles backwards. Weighting u by
        // (inner_step / outer_step + 2) restores strict forward progress.
        let weight = inner.step / l.step.max(1) + 2;
        self.runtime_call(
            "wavefront",
            "",
            &format!("{weight}, tiles"),
            &format!("move |{vo}: i64, {vi}: i64|"),
            |e| e.node(&inner.body),
        );
        self.indent -= 1;
        self.line("}");
    }

    fn stmt(&mut self, s: &polymix_ast::tree::StmtNode) {
        let stmt = &self.prog.scop.statements[s.stmt_idx];
        self.line("{");
        self.indent += 1;
        for (k, e) in s.iter_exprs.iter().enumerate() {
            let code = self.lin(e);
            self.line(&format!("let x{k}: i64 = {code};"));
        }
        let rhs = self.expr(&stmt.body, stmt.dim);
        let idx = self.subscript(stmt.write.array.0, &stmt.write.map, stmt.dim);
        let p = self.ptr_name(stmt.write.array.0);
        self.line(&format!("*{p}.add(({idx}) as usize) = {rhs};"));
        self.indent -= 1;
        self.line("}");
    }

    /// Renders a statement-body expression; iterators appear as `x{k}`.
    fn expr(&self, e: &Expr, d: usize) -> String {
        match e {
            Expr::Const(c) => {
                let s = format!("{c:?}");
                if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                    format!("{s}f64")
                } else {
                    format!("{s}.0f64")
                }
            }
            Expr::Iter(k) => format!("(x{k} as f64)"),
            Expr::Param(k) => format!("({} as f64)", self.param_const(*k)),
            Expr::Bin(op, a, b) => format!(
                "({} {} {})",
                self.expr(a, d),
                op.symbol(),
                self.expr(b, d)
            ),
            Expr::Un(UnOp::Neg, a) => format!("(-{})", self.expr(a, d)),
            Expr::Un(UnOp::Sqrt, a) => format!("({}).sqrt()", self.expr(a, d)),
            Expr::Un(UnOp::Exp, a) => format!("({}).exp()", self.expr(a, d)),
            Expr::Read { array, subs } => {
                let idx = self.subscript(array.0, subs, d);
                let p = self.ptr_name(array.0);
                format!("*{p}.add(({idx}) as usize)")
            }
        }
    }

    /// Renders the row-major linearized index of an access.
    fn subscript(&self, array: usize, rows: &[Vec<i64>], d: usize) -> String {
        let arr = &self.prog.scop.arrays[array];
        if rows.is_empty() {
            return "0".to_string();
        }
        let mut out = String::new();
        for (dim, row) in rows.iter().enumerate() {
            let sub = self.subscript_row(row, d);
            if dim == 0 {
                out = sub;
            } else {
                let ext = self.extent_expr(&arr.dims[dim]);
                out = format!("({out}) * {ext} + {sub}");
            }
        }
        out
    }

    fn subscript_row(&self, row: &[i64], d: usize) -> String {
        let p = self.prog.scop.params.len();
        let mut parts: Vec<String> = Vec::new();
        for (k, &c) in row[..d].iter().enumerate() {
            if c != 0 {
                parts.push(coef_term(c, &format!("x{k}"), parts.is_empty()));
            }
        }
        for (k, &c) in row[d..d + p].iter().enumerate() {
            if c != 0 {
                parts.push(coef_term(c, &self.param_const(k), parts.is_empty()));
            }
        }
        let cst = row[d + p];
        if cst != 0 || parts.is_empty() {
            if parts.is_empty() {
                parts.push(format!("{cst}"));
            } else if cst > 0 {
                parts.push(format!(" + {cst}"));
            } else {
                parts.push(format!(" - {}", -cst));
            }
        }
        format!("({})", parts.concat())
    }
}

fn coef_term(c: i64, name: &str, first: bool) -> String {
    match (c, first) {
        (1, true) => name.to_string(),
        (-1, true) => format!("-{name}"),
        (c, true) => format!("{c} * {name}"),
        (1, false) => format!(" + {name}"),
        (-1, false) => format!(" - {name}"),
        (c, false) if c > 0 => format!(" + {c} * {name}"),
        (c, false) => format!(" - {} * {name}", -c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_poly::original_program;
    use polymix_ir::builder::{con, ix, par, ScopBuilder};
    use polymix_ir::{BinOp, Expr as IExpr};

    fn simple_prog() -> Program {
        let mut b = ScopBuilder::new("axpy", &["N"], &[16]);
        let x = b.array("X", &["N"]);
        let y = b.array("Y", &["N"]);
        b.enter("i", con(0), par("N"));
        let rhs = IExpr::mul(IExpr::Const(2.5), b.rd(x, &[ix("i")]));
        b.stmt_update("S", y, &[ix("i")], BinOp::Add, rhs);
        b.exit();
        original_program(&b.finish().expect("well-formed SCoP")).expect("original program")
    }

    /// `simple_prog` with every loop annotated `par`.
    fn annotated(par: Par) -> Program {
        let mut prog = simple_prog();
        prog.body.visit_loops_mut(&mut |l| l.par = par);
        prog
    }

    fn opts(threads: usize) -> EmitOptions {
        EmitOptions {
            params: vec![16],
            flops: 32,
            threads,
            ..Default::default()
        }
    }

    /// The line right after the (unique) line containing `marker`.
    fn line_after<'a>(src: &'a str, marker: &str) -> &'a str {
        let mut lines = src.lines();
        lines
            .find(|l| l.contains(marker))
            .unwrap_or_else(|| panic!("no `{marker}` in:\n{src}"));
        lines.next().unwrap_or("").trim()
    }

    #[test]
    fn emits_compilable_looking_source() {
        let src = emit_rust(&simple_prog(), &opts(2));
        assert!(src.contains("fn main()"), "{src}");
        assert!(src.contains("const P_N: i64 = 16;"));
        assert!(src.contains("checksum"));
        assert!(src.contains("gflops"));
        // Sequential loop structure.
        assert!(src.contains("while v_c1 <="), "{src}");
    }

    #[test]
    fn sequential_kernels_carry_no_protocol() {
        // One thread, or several threads with nothing to run on them: no
        // runtime block, no poison checks, no atomics.
        for src in [
            emit_rust(&annotated(Par::Doall), &opts(1)),
            emit_rust(&simple_prog(), &opts(4)),
        ] {
            for token in ["kernel_rt", "POISON", "atomic", "exit(101)"] {
                assert!(
                    !src.contains(token),
                    "`{token}` in sequential kernel:\n{src}"
                );
            }
            assert!(src.contains("fn cdiv("), "{src}");
        }
    }

    #[test]
    fn parallel_kernels_paste_the_runtime_verbatim() {
        let src = emit_rust(&annotated(Par::Doall), &opts(4));
        let block = format!(
            "// polymix kernel_rt begin\nmod kernel_rt {{\n{KERNEL_RT}}}\n// polymix kernel_rt end\n"
        );
        assert!(src.contains(&block), "{src}");
        // A poisoned run exits 101 before printing a checksum.
        let gate = src.find("if kernel_rt::poisoned() {\n").expect("gate");
        assert!(src[gate..].contains("std::process::exit(101)"), "{src}");
        assert!(gate < src.rfind("checksum").expect("checksum"), "{src}");
    }

    #[test]
    fn doall_annotation_becomes_a_runtime_call() {
        let src = emit_rust(&annotated(Par::Doall), &opts(4));
        assert_eq!(
            line_after(&src, "// doall region 0 (static schedule)"),
            "kernel_rt::doall(THREADS, (0), (P_N - 1), 1, None, move |v_c1: i64| unsafe {"
        );
        // Raw pointers are rebound inside the closure from Sync wrappers.
        assert!(src.contains("let s_p_y = kernel_rt::P(p_y);"), "{src}");
        assert!(src.contains("let p_y: *mut f64 = s_p_y.get();"), "{src}");
    }

    #[test]
    fn reduction_annotation_classifies_owner_indexed_writes() {
        // y[i] += … under a parallel i is owner-indexed: threads write the
        // global array directly, no private copies.
        let src = emit_rust(&annotated(Par::Reduction), &opts(4));
        let call = line_after(
            &src,
            "// reduction region 0 (reduced [], owner-indexed [1])",
        );
        assert!(call.starts_with("kernel_rt::reduction(THREADS, "), "{src}");
        assert!(call.contains(", &[], move |v_c1: i64, copies"), "{src}");
    }

    #[test]
    fn reduction_annotation_privatizes_true_reductions() {
        // acc[0] += x[i]: the write address is invariant in the parallel
        // variable, so thread-private accumulators are required.
        let mut b = ScopBuilder::new("sum", &["N"], &[16]);
        let x = b.array("X", &["N"]);
        let acc = b.array("ACC", &[]);
        b.enter("i", con(0), par("N"));
        let rhs = b.rd(x, &[ix("i")]);
        b.stmt_update("S", acc, &[], BinOp::Add, rhs);
        b.exit();
        let mut prog =
            original_program(&b.finish().expect("well-formed SCoP")).expect("original program");
        prog.body.visit_loops_mut(&mut |l| l.par = Par::Reduction);
        let src = emit_rust(&prog, &opts(4));
        let call = line_after(
            &src,
            "// reduction region 0 (reduced [1], owner-indexed [])",
        );
        assert!(call.contains("&[(s_p_acc, (1).max(1) as usize)]"), "{src}");
        assert!(
            src.contains("let p_acc: *mut f64 = copies[0].get();"),
            "{src}"
        );
    }

    #[test]
    fn custom_init_is_inlined() {
        let src = emit_rust(
            &simple_prog(),
            &EmitOptions {
                init_rust: Some("for k in 0..a_x.len() { a_x[k] = 1.0; }".into()),
                reps: 3,
                ..opts(1)
            },
        );
        assert!(src.contains("a_x[k] = 1.0"), "{src}");
        assert!(src.contains("for _rep in 0..3"), "{src}");
    }

    /// A time loop over one inner loop per entry of `arrays`, the time
    /// loop annotated `par`.
    fn stencil_prog(arrays: &[&str], par_kind: Par) -> Program {
        let mut b = ScopBuilder::new("stencil", &["N"], &[16]);
        b.enter("t", con(1), par("N"));
        for name in arrays {
            let a = b.array(name, &["N", "N"]);
            b.enter("i", con(1), par("N"));
            let rhs = b.rd(a, &[ix("t"), ix("i")]);
            b.stmt("S", a, &[ix("t"), ix("i")], rhs);
            b.exit();
        }
        b.exit();
        let mut prog =
            original_program(&b.finish().expect("well-formed SCoP")).expect("original program");
        let mut outer = true;
        prog.body.visit_loops_mut(&mut |l| {
            l.par = if outer { par_kind } else { Par::Seq };
            outer = false;
        });
        prog
    }

    /// [`stencil_prog`] with the time loop stepping by `step`, the shape
    /// a tiled time loop has.
    fn stepped(mut prog: Program, step: i64) -> Program {
        let mut outer = true;
        prog.body.visit_loops_mut(&mut |l| {
            if outer {
                l.step = step;
            }
            outer = false;
        });
        prog
    }

    #[test]
    fn pipeline_passes_phases_and_batch_to_the_runtime() {
        // The batch derives from the step: an untiled (unit-step) loop
        // publishes every 8 steps.
        let src = emit_rust(&stencil_prog(&["A"], Par::Pipeline), &opts(4));
        let call = line_after(&src, "// pipeline region 0 (phases 1, PIPE_BATCH = 8)");
        assert!(
            call.starts_with("kernel_rt::pipeline(THREADS, (1), (P_N - 1), 1, 1, 0i64.max({ let ")
                && call.contains(" }), 1, 8, #[inline(never)] move |v_c1: i64, phase: i64, "),
            "{src}"
        );
        // A loop stepping by a whole tile already amortizes its sync.
        let src8 = emit_rust(&stepped(stencil_prog(&["A"], Par::Pipeline), 8), &opts(4));
        let call = line_after(&src8, "// pipeline region 0 (phases 1, PIPE_BATCH = 1)");
        assert!(
            call.starts_with("kernel_rt::pipeline(THREADS, (1), (P_N - 1), 8, 1, 0i64.max({ let ")
                && call.contains(" }), 1, 1, #[inline(never)] move |v_c1: i64, phase: i64, "),
            "{src8}"
        );
        // Fused siblings are the same call with one phase per sibling,
        // and take the same step-derived batch.
        let src2 = emit_rust(&stepped(stencil_prog(&["A", "C"], Par::Pipeline), 2), &opts(4));
        let call = line_after(&src2, "// pipeline region 0 (phases 2, PIPE_BATCH = 4)");
        assert!(
            call.starts_with("kernel_rt::pipeline(THREADS, (1), (P_N - 1), 2, 2, 0i64.max({ let ")
                && call.contains(" }), 1, 4, #[inline(never)] move |v_c1: i64, phase: i64, "),
            "{src2}"
        );
        assert!(src2.contains("if phase == 1 {"), "{src2}");
    }

    #[test]
    fn wavefront_hands_its_tiles_to_the_runtime() {
        let src = emit_rust(&stencil_prog(&["A"], Par::Wavefront), &opts(4));
        assert!(src.contains("tiles.push((v_c1, v_c2));"), "{src}");
        assert_eq!(
            line_after(&src, "// wavefront region 0"),
            "kernel_rt::wavefront(THREADS, 3, tiles, move |v_c1: i64, v_c2: i64| unsafe {"
        );
    }

    #[test]
    fn triangular_doall_claims_dynamic_chunks() {
        let mut b = ScopBuilder::new("tri", &["N"], &[16]);
        let a = b.array("A", &["N"]);
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), ix("i"));
        let rhs = b.rd(a, &[ix("j")]);
        b.stmt_update("S", a, &[ix("i")], BinOp::Add, rhs);
        b.exit();
        b.exit();
        let mut prog =
            original_program(&b.finish().expect("well-formed SCoP")).expect("original program");
        let mut outer = true;
        prog.body.visit_loops_mut(&mut |l| {
            l.par = if outer { Par::Doall } else { Par::Seq };
            outer = false;
        });
        // Grain 0: the runtime derives it from the trip count.
        let src = emit_rust(&prog, &opts(4));
        let call = line_after(&src, "// doall region 0 (dynamic schedule)");
        assert!(call.contains(", 1, Some(0), move |"), "{src}");
    }
}
