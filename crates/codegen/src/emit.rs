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
//! * [`Par::Reduction`] — `kernel_rt::reduction`, thread-private zeroed
//!   copies of the arrays the mark lists, summed into the shared arrays
//!   after the join; every other array is written in place;
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
//!
//! The kernel runs on the logical row-major layout, except for arrays
//! whose rows [`pads_rows`] pads: those run on a copy whose innermost
//! rows are one cache line longer, filled from the logical array before
//! the timer and, if the kernel writes it, copied back before the
//! checksum. Initialization and checksum therefore always see the
//! logical layout.

use polymix_ast::parallel::pipeline_phases;
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

/// f64s in one 64-byte cache line: what a padded row grows by.
const LINE: i64 = 8;

/// f64s in 4 KiB, the set span of a 64-byte-line L1 of 32 KiB × 8 ways
/// (Nehalem's, as `polymix-cachesim` models it) or 48 KiB × 12 ways:
/// rows a multiple of it apart start on the same set.
const SET_SPAN: i64 = 512;

/// Whether emitted code pads an array's rows, given its extents at the
/// emitted parameters: rank ≥ 2 and an innermost extent that is a
/// multiple of 4 KiB. The DL model counts distinct lines against a
/// level's capacity, as if the cache were fully associative; a tile of
/// such rows maps every row onto the same few sets and thrashes. One
/// extra line per row spreads them over the sets.
fn pads_rows(extents: &[i64]) -> bool {
    extents.len() >= 2 && extents.last().is_some_and(|&e| e > 0 && e % SET_SPAN == 0)
}

struct Emitter<'a> {
    prog: &'a Program,
    opts: &'a EmitOptions,
    out: String,
    indent: usize,
    names: HashMap<usize, String>,
    region: usize,
    /// Whether any loop is emitted as a `kernel_rt` region.
    parallel: bool,
    /// The jammed loops being emitted, outermost first, as `(variable,
    /// factor)`: every statement below them is written once per element
    /// of the product of their replicas.
    jams: Vec<(usize, i64)>,
    /// Per array whose rows are padded ([`pads_rows`]): its logical row
    /// length and its padded row stride, as `usize` expressions.
    rows: Vec<Option<(String, String)>>,
    /// Per array, the rendered extent of each dimension of the storage
    /// the kernel runs on: a padded array's innermost one is a line
    /// longer. Every subscript and private copy reads these.
    dims: Vec<Vec<String>>,
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
        jams: Vec::new(),
        rows: Vec::new(),
        dims: Vec::new(),
    };
    for arr in &prog.scop.arrays {
        let mut dims: Vec<String> = arr.dims.iter().map(|row| e.extent_expr(row)).collect();
        let pad = pads_rows(&arr.extents(&opts.params));
        let rows = match (arr.dims.last(), dims.last_mut()) {
            (Some(last), Some(ext)) if pad => {
                let mut last = last.clone();
                last[opts.params.len()] += LINE;
                let ld = e.extent_expr(&last);
                let inner = std::mem::replace(ext, ld.clone());
                Some((format!("{inner} as usize"), format!("{ld} as usize")))
            }
            _ => None,
        };
        e.dims.push(dims);
        e.rows.push(rows);
    }
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

    fn pad_name(&self, a: usize) -> String {
        let name = sanitize(&self.prog.scop.arrays[a].name).to_lowercase();
        format!("pad_{name}")
    }

    fn var_name(&self, v: usize) -> String {
        self.names
            .get(&v)
            .cloned()
            .unwrap_or_else(|| format!("v{v}"))
    }

    fn lin(&self, e: &LinExpr) -> String {
        let vars = e.var_coeffs.iter().map(|&(v, c)| (c, self.var_name(v)));
        let params = e.param_coeffs.iter().map(|&(p, c)| (c, self.param_const(p)));
        affine(vars.chain(params), e.c)
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
        // The tree never builds an empty bound (`Bound::exprs`); were one
        // to reach here, its loop runs no iteration, and the checksum
        // against `native` reports the loss instead of an aborted sweep.
        parts
            .into_iter()
            .reduce(|acc, x| {
                if lower {
                    format!("{acc}.max({x})")
                } else {
                    format!("{acc}.min({x})")
                }
            })
            .unwrap_or_else(|| if lower { "i64::MAX" } else { "i64::MIN" }.to_string())
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
            let store = match self.rows[ai].clone() {
                Some((inner, ld)) => self.pad_in(ai, &inner, &ld),
                None => n,
            };
            self.line(&format!("let {p}: *mut f64 = {store}.as_mut_ptr();"));
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
        // Checksum over written arrays, each back in its logical layout.
        let mut written: Vec<usize> = Vec::new();
        for st in &scop.statements {
            if !written.contains(&st.write.array.0) {
                written.push(st.write.array.0);
            }
        }
        written.sort();
        for &ai in &written {
            if let Some((inner, ld)) = self.rows[ai].clone() {
                self.pad_out(ai, &inner, &ld);
            }
        }
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

    /// The length of the storage the kernel runs on: [`Self::extent_product`]
    /// with a padded array's rows a line longer.
    fn storage_len(&self, ai: usize) -> String {
        if self.dims[ai].is_empty() {
            return "1".to_string();
        }
        self.dims[ai].join(" * ")
    }

    /// Allocates array `ai`'s padded storage, fills it row by row (`inner`
    /// long, `ld` apart) from the logical array and returns its name.
    fn pad_in(&mut self, ai: usize, inner: &str, ld: &str) -> String {
        let (n, store, len) = (self.arr_name(ai), self.pad_name(ai), self.storage_len(ai));
        self.line(&format!(
            "let mut {store}: Vec<f64> = vec![0.0f64; ({len}).max(1) as usize]; // rows of {n} padded by one line"
        ));
        self.line(&format!(
            "for (r, row) in {n}.chunks_exact({inner}).enumerate() {{ {store}[r * {ld}..][..row.len()].copy_from_slice(row); }}"
        ));
        store
    }

    /// Copies array `ai`'s padded storage back into the logical array.
    fn pad_out(&mut self, ai: usize, inner: &str, ld: &str) {
        let (n, store) = (self.arr_name(ai), self.pad_name(ai));
        self.line(&format!(
            "for (r, row) in {n}.chunks_exact_mut({inner}).enumerate() {{ row.copy_from_slice(&{store}[r * {ld}..][..row.len()]); }}"
        ));
    }

    fn extent_expr(&self, row: &[i64]) -> String {
        let p = self.prog.scop.params.len();
        format!("({})", affine(self.param_terms(&row[..p]), row[p]))
    }

    /// The nonzero coefficients of `row`, one per parameter, with the
    /// parameters' constant names.
    fn param_terms<'a>(&'a self, row: &'a [i64]) -> impl Iterator<Item = (i64, String)> + 'a {
        nonzero(row).map(|(k, c)| (c, self.param_const(k)))
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
                match &l.par {
                    Par::Doall => self.doall(l),
                    Par::Reduction(reduced) => self.reduction(l, reduced),
                    Par::Pipeline => self.pipeline(l),
                    Par::Wavefront => self.wavefront(l),
                    Par::Seq => self.seq_loop(l),
                }
            }
            Node::Stmt(s) => self.stmt(s),
        }
    }

    /// `l` as a plain loop — or, when it carries a `jam: f` mark and no
    /// parallel region would run below it, as its unroll-and-jam: a main
    /// loop over blocks of `f` iterations whose body writes every
    /// statement once per element of the product of the replicas of `l`
    /// and of the jammed loops around it (`l`'s `r = 0..f` innermost),
    /// then the remainder loop, which writes only the replicas of the
    /// jams around `l`. No replica carries a guard. The certifier proves
    /// each jam on its own, and the proofs compose (DESIGN §19).
    fn seq_loop(&mut self, l: &Loop) {
        let region_below = || {
            let mut marked = false;
            l.body.visit_loops(&mut |i| marked |= i.par != Par::Seq);
            marked
        };
        if l.jam < 2 || (self.parallel && region_below()) {
            self.seq_loop_around(l, |e| e.node(&l.body));
            return;
        }
        let v = self.var_name(l.var);
        let lo = self.bound(&l.lo, true);
        let hi = self.bound(&l.hi, false);
        self.line(&format!("let mut {v}: i64 = {lo};"));
        self.line(&format!("let {v}_hi: i64 = {hi};"));
        self.line(&format!("while {v} + {} <= {v}_hi {{", l.jam - 1));
        self.indent += 1;
        self.jams.push((l.var, l.jam));
        self.node(&l.body);
        self.jams.pop();
        self.line(&format!("{v} += {};", l.jam));
        self.indent -= 1;
        self.line("}");
        self.line(&format!("while {v} <= {v}_hi {{"));
        self.indent += 1;
        self.node(&l.body);
        self.line(&format!("{v} += 1;"));
        self.indent -= 1;
        self.line("}");
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

    /// Array-reduction execution with thread-private accumulators
    /// (Sec. IV-D): every worker adds into zeroed private copies of the
    /// arrays `reduced` the mark lists, summed into the shared arrays
    /// after the join, and writes every other array in place. The
    /// detector lists the arrays whose reduction updates the loop carries
    /// and marks the loop only where every access to them below it is an
    /// additive self-update (`polymix_ast::parallel::runnable`); no other
    /// dependence is carried, so no two iterations touch a cell written
    /// in place.
    fn reduction(&mut self, l: &Loop, reduced: &[usize]) {
        let v = self.var_name(l.var);
        let lo = self.bound(&l.lo, true);
        let hi = self.bound(&l.hi, false);
        let privatized: Vec<String> = reduced
            .iter()
            .map(|&a| {
                let len = self.storage_len(a);
                format!("(s_{}, ({len}).max(1) as usize)", self.ptr_name(a))
            })
            .collect();
        self.runtime_call(
            "reduction",
            &format!(" (reduced {reduced:?})"),
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
        let Some(subs) = pipeline_phases(l) else {
            // No inner loop structure to pipeline across (a hand-built
            // tree; the detector marks no such loop): sequential.
            self.line(&format!(
                "// pipeline region {}: body not loops alone, sequential fallback",
                self.region
            ));
            self.region += 1;
            self.seq_loop(l);
            return;
        };
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
        if self.jams.is_empty() {
            return self.stmt_once(s);
        }
        let mut replicas = vec![s.clone()];
        for &(var, f) in &self.jams {
            replicas = replicas
                .iter()
                .flat_map(|s| {
                    (0..f).map(move |r| {
                        let mut replica = s.clone();
                        for e in replica.iter_exprs.iter_mut() {
                            *e = e.subst(var, &LinExpr::var(var).plus(r));
                        }
                        replica
                    })
                })
                .collect();
        }
        replicas.iter().for_each(|r| self.stmt_once(r));
    }

    fn stmt_once(&mut self, s: &polymix_ast::tree::StmtNode) {
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

    /// Renders the row-major linearized index of an access into the
    /// storage the kernel runs on (padded rows included).
    fn subscript(&self, array: usize, rows: &[Vec<i64>], d: usize) -> String {
        if rows.is_empty() {
            return "0".to_string();
        }
        let mut out = String::new();
        for (dim, row) in rows.iter().enumerate() {
            let sub = self.subscript_row(row, d);
            if dim == 0 {
                out = sub;
            } else {
                let ext = &self.dims[array][dim];
                out = format!("({out}) * {ext} + {sub}");
            }
        }
        out
    }

    fn subscript_row(&self, row: &[i64], d: usize) -> String {
        let p = self.prog.scop.params.len();
        let dims = nonzero(&row[..d]).map(|(k, c)| (c, format!("x{k}")));
        let terms = dims.chain(self.param_terms(&row[d..d + p]));
        format!("({})", affine(terms, row[d + p]))
    }
}

/// The positions and values of `row`'s nonzero entries.
fn nonzero(row: &[i64]) -> impl Iterator<Item = (usize, i64)> + '_ {
    row.iter().enumerate().filter(|&(_, &c)| c != 0).map(|(k, &c)| (k, c))
}

/// Renders `Σ c·name + cst`, the one way every affine form is written: a
/// unit coefficient is dropped, every term after the first joins with its
/// sign, and the constant follows when it is nonzero or stands alone.
fn affine(terms: impl IntoIterator<Item = (i64, String)>, cst: i64) -> String {
    let mut out = String::new();
    for (i, (c, name)) in terms.into_iter().enumerate() {
        out += &match (c, i == 0) {
            (1, true) => name,
            (-1, true) => format!("-{name}"),
            (c, true) => format!("{c} * {name}"),
            (1, false) => format!(" + {name}"),
            (-1, false) => format!(" - {name}"),
            (c, false) if c > 0 => format!(" + {c} * {name}"),
            (c, false) => format!(" - {} * {name}", -c),
        };
    }
    match cst {
        _ if out.is_empty() => cst.to_string(),
        0 => out,
        c if c > 0 => format!("{out} + {c}"),
        c => format!("{out} - {}", -c),
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
        prog.body.visit_loops_mut(&mut |l| l.par = par.clone());
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

    /// A reduction region writes every array its mark does not list in
    /// place: `y[i] += …` under a parallel `i` gets no private copy.
    #[test]
    fn reduction_annotation_writes_unlisted_arrays_in_place() {
        let src = emit_rust(&annotated(Par::Reduction(vec![])), &opts(4));
        let call = line_after(&src, "// reduction region 0 (reduced [])");
        assert!(call.starts_with("kernel_rt::reduction(THREADS, "), "{src}");
        assert!(call.contains(", &[], move |v_c1: i64, copies"), "{src}");
        assert!(!src.contains("copies[0]"), "{src}");
    }

    /// The arrays the mark lists, and only those, are privatized: under a
    /// parallel `i`, `ACC[0] += X[i]` adds into a worker's copy of `ACC`
    /// while `Y[i] = X[i]` writes the shared `Y`.
    #[test]
    fn reduction_annotation_privatizes_the_marks_list() {
        let mut b = ScopBuilder::new("sum", &["N"], &[16]);
        let x = b.array("X", &["N"]);
        let acc = b.array("ACC", &[]);
        let y = b.array("Y", &["N"]);
        b.enter("i", con(0), par("N"));
        let rhs = b.rd(x, &[ix("i")]);
        b.stmt_update("S", acc, &[], BinOp::Add, rhs);
        let copy = b.rd(x, &[ix("i")]);
        b.stmt("T", y, &[ix("i")], copy);
        b.exit();
        let mut prog =
            original_program(&b.finish().expect("well-formed SCoP")).expect("original program");
        prog.body.visit_loops_mut(&mut |l| l.par = Par::Reduction(vec![1]));
        let src = emit_rust(&prog, &opts(4));
        let call = line_after(&src, "// reduction region 0 (reduced [1])");
        assert!(call.contains(", &[(s_p_acc, (1).max(1) as usize)], move"), "{src}");
        assert!(src.contains("let p_acc: *mut f64 = copies[0].get();"), "{src}");
        assert!(!src.contains("copies[1]"), "{src}");
        assert!(src.contains("let p_y: *mut f64 = s_p_y.get();"), "{src}");
    }

    #[test]
    fn rows_a_multiple_of_4_kib_are_padded_by_one_line() {
        for (extents, padded) in [
            (&[4, 512][..], true),
            (&[4, 1024], true),
            (&[2, 3, 512], true),
            (&[4, 384], false),
            (&[4, 1000], false),
            (&[4, 96], false),
            (&[4, 0], false),
            (&[512], false),
            (&[1024], false),
        ] {
            assert_eq!(pads_rows(extents), padded, "{extents:?}");
        }
        // C[j][k] += A[i][k] under a parallel i: C is privatized.
        let mut b = ScopBuilder::new("rows", &["N"], &[16]);
        let a = b.array("A", &["N", "N"]);
        let c = b.array("C", &["N", "N"]);
        let x = b.array("X", &["N"]);
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        b.enter("k", con(0), par("N"));
        let rhs = IExpr::mul(b.rd(a, &[ix("i"), ix("k")]), b.rd(x, &[ix("k")]));
        b.stmt_update("S", c, &[ix("j"), ix("k")], BinOp::Add, rhs);
        b.exit();
        b.exit();
        b.exit();
        let mut prog =
            original_program(&b.finish().expect("well-formed SCoP")).expect("original program");
        let mut outer = true;
        prog.body.visit_loops_mut(&mut |l| {
            l.par = if outer { Par::Reduction(vec![1]) } else { Par::Seq };
            outer = false;
        });
        let at = |n: i64| {
            emit_rust(
                &prog,
                &EmitOptions {
                    params: vec![n],
                    ..opts(4)
                },
            )
        };
        let src = at(512);
        // The kernel runs on padded storage, filled from and copied back
        // to the logical arrays; the 1-D X stays as it is.
        for line in [
            "let mut pad_a: Vec<f64> = vec![0.0f64; ((P_N) * (P_N + 8)).max(1) as usize]; // rows of a_a padded by one line",
            "for (r, row) in a_a.chunks_exact((P_N) as usize).enumerate() { pad_a[r * (P_N + 8) as usize..][..row.len()].copy_from_slice(row); }",
            "let p_a: *mut f64 = pad_a.as_mut_ptr();",
            "let p_x: *mut f64 = a_x.as_mut_ptr();",
            "for (r, row) in a_c.chunks_exact_mut((P_N) as usize).enumerate() { row.copy_from_slice(&pad_c[r * (P_N + 8) as usize..][..row.len()]); }",
            // Subscripts use the padded stride, private copies its length.
            "*p_c.add((((x1)) * (P_N + 8) + (x2)) as usize)",
            "&[(s_p_c, ((P_N) * (P_N + 8)).max(1) as usize)]",
        ] {
            assert!(src.contains(line), "missing `{line}` in:\n{src}");
        }
        // A is only read: nothing to copy back.
        assert!(!src.contains("a_a.chunks_exact_mut"), "{src}");
        // Below the rule nothing is padded.
        let src = at(384);
        assert!(!src.contains("pad_") && !src.contains("+ 8)"), "{src}");
        assert!(src.contains("p_a: *mut f64 = a_a.as_mut_ptr();"), "{src}");
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

    /// A jam inside a jam (`pocc+vect`'s (2, 2) on `i { j }`): the inner
    /// main loop writes the statement once per element of the product of
    /// both loops' replicas, the inner remainder once per replica of the
    /// outer jam, and neither main loop holds a guard.
    #[test]
    fn a_jam_inside_a_jam_writes_the_product_of_the_replicas_unguarded() {
        let mut b = ScopBuilder::new("grid", &["N"], &[16]);
        let a = b.array("A", &["N", "N"]);
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        let rhs = IExpr::add(b.rd(a, &[ix("i"), ix("j")]), IExpr::Const(1.0));
        b.stmt("S", a, &[ix("i"), ix("j")], rhs);
        b.exit();
        b.exit();
        let mut prog =
            original_program(&b.finish().expect("well-formed SCoP")).expect("original program");
        prog.body.visit_loops_mut(&mut |l| l.jam = 2);
        let src = emit_rust(&prog, &opts(1));
        // The lines from the one opening `head` to the first one after it
        // that holds `end`.
        let between = |head: &str, end: &str| -> Vec<&str> {
            let lines: Vec<&str> = src.lines().map(str::trim).collect();
            let at = lines
                .iter()
                .position(|l| *l == head)
                .unwrap_or_else(|| panic!("no `{head}` in:\n{src}"));
            let len = lines[at..]
                .iter()
                .position(|l| l.contains(end))
                .expect("loop end");
            lines[at..at + len].to_vec()
        };
        let writes = |lines: &[&str]| lines.iter().filter(|l| l.starts_with("*p_a.add(")).count();
        let outer_main = between("while v_c1 + 1 <= v_c1_hi {", "v_c1 += 2;");
        let inner_main = between("while v_c2 + 1 <= v_c2_hi {", "v_c2 += 2;");
        assert!(!outer_main.iter().any(|l| l.starts_with("if ")), "{src}");
        assert_eq!(writes(&inner_main), 4, "{src}");
        assert_eq!(writes(&outer_main), 4 + 2, "{src}");
        let all: Vec<&str> = src.lines().map(str::trim).collect();
        assert_eq!(writes(&all), 4 + 2 + 2 + 1, "{src}");
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
            l.par = if outer { par_kind.clone() } else { Par::Seq };
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
