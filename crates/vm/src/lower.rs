//! Lowering: loop tree → register bytecode with pre-resolved addresses.
//!
//! The lowering runs once per (program, parameter vector) and folds every
//! piece of arithmetic that is constant for the whole run:
//!
//! * **Parameters** disappear. Every [`LinExpr`] over (vars, params) is
//!   folded into an [`AffExpr`] over loop variables only; `Expr::Param`
//!   leaves become immediate constants.
//! * **Subscripts** are pre-composed. An access `A[r_0(it)][r_1(it)]`
//!   whose original iterators `it` are themselves affine in the AST loop
//!   variables (the materialized inverse schedule on each statement
//!   site) collapses into a single affine *address* over the loop
//!   variables, with the row-major strides of `A`'s concrete extents
//!   multiplied through. At run time an access is one dot product, one
//!   bounds check, one load/store.
//! * **Statement bodies** become straight-line register code
//!   ([`Instr`]), one program per statement *site* (distinct sites of
//!   one statement can carry different inverse schedules, so they get
//!   distinct address code).
//!
//! Anything outside the model (rank mismatches, unknown variables,
//! non-positive steps) is a [`VmError::Lower`] — the lowering never
//! panics, mirroring the no-abort contract of the compile pipeline.

use crate::VmError;
use polymix_ast::tree::{Bound, LinExpr, Node, Par, Program};
use polymix_ir::expr::{BinOp, Expr, UnOp};
use polymix_ir::Scop;

/// Affine expression over AST loop variables: `Σ c_v·var + c`. Parameter
/// contributions were folded into `c` at lowering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffExpr {
    /// Sparse `(variable id, coefficient)` terms.
    pub terms: Vec<(u32, i64)>,
    /// Constant term (includes folded parameters).
    pub c: i64,
}

impl AffExpr {
    /// Evaluates against the loop-variable frame.
    #[inline]
    pub fn eval(&self, vars: &[i64]) -> i64 {
        let mut acc = self.c;
        for &(v, k) in &self.terms {
            acc += k * vars[v as usize];
        }
        acc
    }

    /// True when the expression mentions variable `v`.
    pub fn uses_var(&self, v: usize) -> bool {
        self.terms.iter().any(|&(x, _)| x as usize == v)
    }

    fn from_lin(e: &LinExpr, params: &[i64], n_vars: usize) -> Result<AffExpr, VmError> {
        let mut c = e.c;
        for &(p, k) in &e.param_coeffs {
            let val = params
                .get(p)
                .ok_or_else(|| VmError::Lower(format!("parameter {p} out of range")))?;
            c += k * val;
        }
        let mut terms = Vec::with_capacity(e.var_coeffs.len());
        for &(v, k) in &e.var_coeffs {
            if v >= n_vars {
                return Err(VmError::Lower(format!("loop variable {v} out of range")));
            }
            if k != 0 {
                terms.push((v as u32, k));
            }
        }
        Ok(AffExpr { terms, c })
    }

    /// `self += k · other`, merging terms.
    fn add_scaled(&mut self, other: &AffExpr, k: i64) {
        self.c += k * other.c;
        for &(v, c) in &other.terms {
            match self.terms.iter_mut().find(|(x, _)| *x == v) {
                Some((_, acc)) => *acc += k * c,
                None => self.terms.push((v, k * c)),
            }
        }
        self.terms.retain(|&(_, c)| c != 0);
    }
}

/// Compiled loop bound: `max` (lower) / `min` (upper) over
/// `expr / denom` with ceiling / floor division — the exact semantics of
/// [`Bound::eval_lower`] / [`Bound::eval_upper`].
#[derive(Clone, Debug)]
pub struct CBound {
    /// `(expression, positive denominator)` terms. Public so the
    /// certifier can encode bounds as polyhedron rows and adversarial
    /// tests can corrupt them.
    pub exprs: Vec<(AffExpr, i64)>,
}

impl CBound {
    fn from_bound(b: &Bound, params: &[i64], n_vars: usize) -> Result<CBound, VmError> {
        if b.exprs.is_empty() {
            return Err(VmError::Lower("empty loop bound".to_string()));
        }
        let mut exprs = Vec::with_capacity(b.exprs.len());
        for be in &b.exprs {
            if be.denom <= 0 {
                return Err(VmError::Lower(format!(
                    "non-positive bound denominator {}",
                    be.denom
                )));
            }
            exprs.push((AffExpr::from_lin(&be.expr, params, n_vars)?, be.denom));
        }
        Ok(CBound { exprs })
    }

    /// `max` of ceiling divisions; `i64::MAX` is unreachable because the
    /// expression list is never empty by construction.
    #[inline]
    pub fn eval_lower(&self, vars: &[i64]) -> i64 {
        self.exprs
            .iter()
            .map(|(e, d)| {
                let v = e.eval(vars);
                -((-v).div_euclid(*d))
            })
            .max()
            .unwrap_or(i64::MAX)
    }

    /// `min` of floor divisions.
    #[inline]
    pub fn eval_upper(&self, vars: &[i64]) -> i64 {
        self.exprs
            .iter()
            .map(|(e, d)| e.eval(vars).div_euclid(*d))
            .min()
            .unwrap_or(i64::MIN)
    }

    fn uses_var(&self, v: usize) -> bool {
        self.exprs.iter().any(|(e, _)| e.uses_var(v))
    }
}

/// One register instruction of a compiled statement body.
#[derive(Clone, Debug)]
pub enum Instr {
    /// `r[dst] = val` (constants and folded parameters).
    Const { dst: u16, val: f64 },
    /// `r[dst] = aff(vars) as f64` — an original-iterator value through
    /// the site's inverse schedule.
    Iter { dst: u16, aff: AffExpr },
    /// `r[dst] = arrays[array][aff(vars)]`. `proven` is false out of
    /// lowering; only [`crate::certify::VmCertificate::apply`] flips it,
    /// after a static in-bounds proof, and only then may the executor
    /// skip the dynamic bounds check (see [`crate::VmOptions::elide`]).
    Load {
        dst: u16,
        array: u32,
        addr: AffExpr,
        proven: bool,
    },
    /// `r[dst] = op(r[a], r[b])`.
    Bin { op: BinOp, dst: u16, a: u16, b: u16 },
    /// `r[dst] = op(r[a])`.
    Un { op: UnOp, dst: u16, a: u16 },
}

/// Straight-line register program for one statement site, plus the
/// pre-resolved store address.
#[derive(Clone, Debug)]
pub struct CompiledStmt {
    /// Body instructions in evaluation order.
    pub code: Vec<Instr>,
    /// Register holding the final right-hand-side value.
    pub result: u16,
    /// Array written by the statement.
    pub store_array: u32,
    /// Pre-resolved store address over the loop variables.
    pub store_addr: AffExpr,
    /// Statically proven in-bounds (set only by a passing certificate;
    /// same contract as [`Instr::Load::proven`]).
    pub store_proven: bool,
    /// Registers used by `code`.
    pub n_regs: usize,
}

/// Control node of the compiled program.
#[derive(Clone, Debug)]
pub enum CNode {
    /// Children in textual order.
    Seq(Vec<CNode>),
    /// A (possibly parallel) counted loop.
    Loop(Box<CLoop>),
    /// Body runs iff every expression is `>= 0`.
    Guard(Vec<AffExpr>, Box<CNode>),
    /// Index into [`VmProgram::stmts`].
    Stmt(u32),
}

/// A compiled loop with its parallel-dispatch metadata.
#[derive(Clone, Debug)]
pub struct CLoop {
    /// Loop variable id (slot in the variable frame).
    pub var: usize,
    /// Compiled lower bound.
    pub lo: CBound,
    /// Compiled (inclusive) upper bound.
    pub hi: CBound,
    /// Positive stride.
    pub step: i64,
    /// Parallel annotation carried over from the AST.
    pub par: Par,
    /// For a `Reduction` loop: the accumulator array, when every
    /// statement site under the loop is an *additive* self-update of
    /// that one array (the shape [`reduce_array`]'s zero-init +
    /// additive-merge privatization is exact for). `None` demotes the
    /// dispatch to sequential.
    ///
    /// [`reduce_array`]: polymix_runtime::reduce_array
    pub reduction_array: Option<u32>,
    /// For `Pipeline`/`Wavefront`: true when the body is directly a
    /// nested loop whose bounds are invariant in this loop's variable —
    /// the rectangular 2-level shape the grid primitives accept.
    pub rect_grid: bool,
    /// Loop body.
    pub body: CNode,
}

/// A lowered program: bytecode statement table plus compiled control
/// tree, specialized to one parameter vector.
#[derive(Clone, Debug)]
pub struct VmProgram {
    /// Loop-variable frame size.
    pub n_vars: usize,
    /// Maximum register count over all compiled statements.
    pub max_regs: usize,
    /// Concrete element count per array (row-major).
    pub array_lens: Vec<usize>,
    /// Compiled statement sites.
    pub stmts: Vec<CompiledStmt>,
    /// Compiled control tree.
    pub body: CNode,
}

impl VmProgram {
    /// Structural validity: every statement reference, array id,
    /// register and loop variable is inside its table. [`lower`]
    /// guarantees this by construction; [`crate::run_opts`] re-checks
    /// once at entry so hand-built programs cannot index out of the
    /// interpreter's tables, and the per-instruction checks in the hot
    /// loop are debug assertions only.
    pub fn validate(&self) -> Result<(), String> {
        let n_arrays = self.array_lens.len();
        for (k, s) in self.stmts.iter().enumerate() {
            if s.store_array as usize >= n_arrays {
                return Err(format!("stmt {k}: store array {} out of range", s.store_array));
            }
            if s.result as usize >= self.max_regs {
                return Err(format!("stmt {k}: result register {} out of file", s.result));
            }
            self.check_aff(&s.store_addr)
                .map_err(|e| format!("stmt {k} store address: {e}"))?;
            for (pos, i) in s.code.iter().enumerate() {
                let reg = |r: u16| -> Result<(), String> {
                    if r as usize >= self.max_regs {
                        return Err(format!("stmt {k} instr {pos}: register {r} out of file"));
                    }
                    Ok(())
                };
                match i {
                    Instr::Const { dst, .. } => reg(*dst)?,
                    Instr::Iter { dst, aff } => {
                        reg(*dst)?;
                        self.check_aff(aff)
                            .map_err(|e| format!("stmt {k} instr {pos}: {e}"))?;
                    }
                    Instr::Load { dst, array, addr, .. } => {
                        reg(*dst)?;
                        if *array as usize >= n_arrays {
                            return Err(format!(
                                "stmt {k} instr {pos}: load array {array} out of range"
                            ));
                        }
                        self.check_aff(addr)
                            .map_err(|e| format!("stmt {k} instr {pos}: {e}"))?;
                    }
                    Instr::Bin { dst, a, b, .. } => {
                        reg(*dst)?;
                        reg(*a)?;
                        reg(*b)?;
                    }
                    Instr::Un { dst, a, .. } => {
                        reg(*dst)?;
                        reg(*a)?;
                    }
                }
            }
        }
        self.check_node(&self.body)
    }

    fn check_aff(&self, e: &AffExpr) -> Result<(), String> {
        for &(v, _) in &e.terms {
            if v as usize >= self.n_vars {
                return Err(format!("variable {v} out of frame"));
            }
        }
        Ok(())
    }

    fn check_bound(&self, b: &CBound) -> Result<(), String> {
        if b.exprs.is_empty() {
            return Err("empty bound".to_string());
        }
        for (e, d) in &b.exprs {
            if *d <= 0 {
                return Err(format!("non-positive bound denominator {d}"));
            }
            self.check_aff(e)?;
        }
        Ok(())
    }

    fn check_node(&self, n: &CNode) -> Result<(), String> {
        match n {
            CNode::Seq(xs) => xs.iter().try_for_each(|x| self.check_node(x)),
            CNode::Guard(gs, b) => {
                for g in gs {
                    self.check_aff(g)?;
                }
                self.check_node(b)
            }
            CNode::Loop(l) => {
                if l.var >= self.n_vars {
                    return Err(format!("loop variable {} out of frame", l.var));
                }
                if l.step <= 0 {
                    return Err(format!("loop has non-positive step {}", l.step));
                }
                self.check_bound(&l.lo)?;
                self.check_bound(&l.hi)?;
                if let Some(acc) = l.reduction_array {
                    if acc as usize >= self.array_lens.len() {
                        return Err(format!("reduction accumulator {acc} out of range"));
                    }
                }
                self.check_node(&l.body)
            }
            CNode::Stmt(k) => {
                if *k as usize >= self.stmts.len() {
                    return Err(format!("stmt {k} out of table"));
                }
                Ok(())
            }
        }
    }
}

struct Lowerer<'a> {
    scop: &'a Scop,
    params: &'a [i64],
    n_vars: usize,
    extents: Vec<Vec<i64>>,
    strides: Vec<Vec<i64>>,
    stmts: Vec<CompiledStmt>,
}

/// Lowers a transformed program to bytecode at concrete parameter
/// values. The result executes with the exact semantics of
/// [`polymix_ast::interp::execute`] over the same buffers.
pub fn lower(prog: &Program, params: &[i64]) -> Result<VmProgram, VmError> {
    if params.len() != prog.scop.params.len() {
        return Err(VmError::Lower(format!(
            "parameter arity mismatch: {} values for {} parameters",
            params.len(),
            prog.scop.params.len()
        )));
    }
    let extents: Vec<Vec<i64>> = prog
        .scop
        .arrays
        .iter()
        .map(|a| a.extents(params))
        .collect();
    for (a, ext) in prog.scop.arrays.iter().zip(&extents) {
        if ext.iter().any(|&e| e <= 0) {
            return Err(VmError::Lower(format!(
                "array `{}` has a non-positive extent at these parameters",
                a.name
            )));
        }
    }
    // Row-major strides: stride[d] = Π extents[d+1..].
    let strides: Vec<Vec<i64>> = extents
        .iter()
        .map(|ext| {
            let mut s = vec![1i64; ext.len()];
            for d in (0..ext.len().saturating_sub(1)).rev() {
                s[d] = s[d + 1] * ext[d + 1];
            }
            s
        })
        .collect();
    let mut lw = Lowerer {
        scop: &prog.scop,
        params,
        n_vars: prog.n_vars.max(1),
        extents,
        strides,
        stmts: Vec::new(),
    };
    let body = lw.node(&prog.body)?;
    let max_regs = lw.stmts.iter().map(|s| s.n_regs).max().unwrap_or(0).max(1);
    let vm = VmProgram {
        n_vars: lw.n_vars,
        max_regs,
        array_lens: lw
            .extents
            .iter()
            .map(|ext| ext.iter().product::<i64>().max(1) as usize)
            .collect(),
        stmts: lw.stmts,
        body,
    };
    // Structural validity is established here, once, instead of being
    // re-discovered access-by-access inside the execution hot loop.
    vm.validate().map_err(VmError::Lower)?;
    Ok(vm)
}

impl Lowerer<'_> {
    fn node(&mut self, n: &Node) -> Result<CNode, VmError> {
        match n {
            Node::Seq(xs) => Ok(CNode::Seq(
                xs.iter().map(|x| self.node(x)).collect::<Result<_, _>>()?,
            )),
            Node::Guard(gs, b) => {
                let exprs = gs
                    .iter()
                    .map(|g| AffExpr::from_lin(g, self.params, self.n_vars))
                    .collect::<Result<_, _>>()?;
                Ok(CNode::Guard(exprs, Box::new(self.node(b)?)))
            }
            Node::Loop(l) => {
                if l.step <= 0 {
                    return Err(VmError::Lower(format!(
                        "loop `{}` has non-positive step {}",
                        l.name, l.step
                    )));
                }
                if l.var >= self.n_vars {
                    return Err(VmError::Lower(format!(
                        "loop `{}` variable {} out of frame",
                        l.name, l.var
                    )));
                }
                let lo = CBound::from_bound(&l.lo, self.params, self.n_vars)?;
                let hi = CBound::from_bound(&l.hi, self.params, self.n_vars)?;
                let body = self.node(&l.body)?;
                let reduction_array = if l.par == Par::Reduction {
                    self.additive_reduction_array(&body)
                } else {
                    None
                };
                let rect_grid = matches!(l.par, Par::Pipeline | Par::Wavefront)
                    && matches!(&body, CNode::Loop(inner)
                        if !inner.lo.uses_var(l.var) && !inner.hi.uses_var(l.var));
                Ok(CNode::Loop(Box::new(CLoop {
                    var: l.var,
                    lo,
                    hi,
                    step: l.step,
                    par: l.par,
                    reduction_array,
                    rect_grid,
                    body,
                })))
            }
            Node::Stmt(s) => {
                let stmt = self.scop.statements.get(s.stmt_idx).ok_or_else(|| {
                    VmError::Lower(format!("statement index {} out of range", s.stmt_idx))
                })?;
                if s.iter_exprs.len() != stmt.dim {
                    return Err(VmError::Lower(format!(
                        "site of `{}` carries {} iterator expressions for dim {}",
                        stmt.name,
                        s.iter_exprs.len(),
                        stmt.dim
                    )));
                }
                let iters: Vec<AffExpr> = s
                    .iter_exprs
                    .iter()
                    .map(|e| AffExpr::from_lin(e, self.params, self.n_vars))
                    .collect::<Result<_, _>>()?;
                let mut code = Vec::new();
                let mut next: u16 = 0;
                let result =
                    self.compile_expr(&stmt.body, &iters, &mut code, &mut next)?;
                let store_addr =
                    self.address(stmt.write.array.0, &stmt.write.map, &iters)?;
                if self.stmts.len() >= u32::MAX as usize {
                    return Err(VmError::Lower("statement table overflow".to_string()));
                }
                let idx = self.stmts.len() as u32;
                self.stmts.push(CompiledStmt {
                    code,
                    result,
                    store_array: stmt.write.array.0 as u32,
                    store_addr,
                    store_proven: false,
                    n_regs: next as usize,
                });
                Ok(CNode::Stmt(idx))
            }
        }
    }

    /// Pre-composes subscript rows with the site's inverse schedule and
    /// the array's row-major strides into one address expression.
    fn address(
        &self,
        array: usize,
        rows: &[Vec<i64>],
        iters: &[AffExpr],
    ) -> Result<AffExpr, VmError> {
        let (ext, strides) = self
            .extents
            .get(array)
            .zip(self.strides.get(array))
            .ok_or_else(|| VmError::Lower(format!("array {array} out of range")))?;
        if rows.len() != ext.len() {
            return Err(VmError::Lower(format!(
                "array {array}: {} subscript rows for rank {}",
                rows.len(),
                ext.len()
            )));
        }
        let np = self.params.len();
        let mut addr = AffExpr {
            terms: Vec::new(),
            c: 0,
        };
        for (dim, row) in rows.iter().enumerate() {
            if row.len() != iters.len() + np + 1 {
                return Err(VmError::Lower(format!(
                    "array {array} dim {dim}: subscript row width {} (expected {})",
                    row.len(),
                    iters.len() + np + 1
                )));
            }
            let mut idx = AffExpr {
                terms: Vec::new(),
                c: row[iters.len() + np],
            };
            for (k, it) in iters.iter().enumerate() {
                if row[k] != 0 {
                    idx.add_scaled(it, row[k]);
                }
            }
            for (p, &c) in row[iters.len()..iters.len() + np].iter().enumerate() {
                idx.c += c * self.params[p];
            }
            addr.add_scaled(&idx, strides[dim]);
        }
        Ok(addr)
    }

    fn compile_expr(
        &self,
        e: &Expr,
        iters: &[AffExpr],
        code: &mut Vec<Instr>,
        next: &mut u16,
    ) -> Result<u16, VmError> {
        let alloc = |next: &mut u16| -> Result<u16, VmError> {
            let r = *next;
            *next = next
                .checked_add(1)
                .ok_or_else(|| VmError::Lower("register file overflow".to_string()))?;
            Ok(r)
        };
        match e {
            Expr::Const(c) => {
                let dst = alloc(next)?;
                code.push(Instr::Const { dst, val: *c });
                Ok(dst)
            }
            Expr::Param(k) => {
                let val = self
                    .params
                    .get(*k)
                    .copied()
                    .ok_or_else(|| VmError::Lower(format!("parameter {k} out of range")))?;
                let dst = alloc(next)?;
                code.push(Instr::Const {
                    dst,
                    val: val as f64,
                });
                Ok(dst)
            }
            Expr::Iter(k) => {
                let aff = iters
                    .get(*k)
                    .cloned()
                    .ok_or_else(|| VmError::Lower(format!("iterator {k} out of range")))?;
                let dst = alloc(next)?;
                code.push(Instr::Iter { dst, aff });
                Ok(dst)
            }
            Expr::Read { array, subs } => {
                let addr = self.address(array.0, subs, iters)?;
                let dst = alloc(next)?;
                code.push(Instr::Load {
                    dst,
                    array: array.0 as u32,
                    addr,
                    proven: false,
                });
                Ok(dst)
            }
            Expr::Bin(op, a, b) => {
                let ra = self.compile_expr(a, iters, code, next)?;
                let rb = self.compile_expr(b, iters, code, next)?;
                let dst = alloc(next)?;
                code.push(Instr::Bin {
                    op: *op,
                    dst,
                    a: ra,
                    b: rb,
                });
                Ok(dst)
            }
            Expr::Un(op, a) => {
                let ra = self.compile_expr(a, iters, code, next)?;
                let dst = alloc(next)?;
                code.push(Instr::Un {
                    op: *op,
                    dst,
                    a: ra,
                });
                Ok(dst)
            }
        }
    }

    /// The single array every statement site under `node` additively
    /// self-updates without reading elsewhere — the shape whose
    /// privatization under zero-init + additive merge is exact.
    fn additive_reduction_array(&self, node: &CNode) -> Option<u32> {
        let mut sites = Vec::new();
        collect_stmts(node, &mut sites);
        let mut target: Option<u32> = None;
        for idx in sites {
            let cs = self.stmts.get(idx as usize)?;
            let arr = cs.store_array;
            if *target.get_or_insert(arr) != arr {
                return None;
            }
            // The RHS must be `load(self-cell) + e` (either operand
            // order) with no other read of the accumulator array.
            let Some(Instr::Bin {
                op: BinOp::Add,
                a,
                b,
                ..
            }) = cs.code.last()
            else {
                return None;
            };
            let self_load = |r: u16| {
                cs.code.iter().any(|i| matches!(i, Instr::Load { dst, array, addr, .. }
                    if *dst == r && *array == arr && *addr == cs.store_addr))
            };
            if !self_load(*a) && !self_load(*b) {
                return None;
            }
            let acc_loads = cs
                .code
                .iter()
                .filter(|i| matches!(i, Instr::Load { array, .. } if *array == arr))
                .count();
            if acc_loads != 1 {
                return None;
            }
        }
        target
    }
}

fn collect_stmts(node: &CNode, out: &mut Vec<u32>) {
    match node {
        CNode::Seq(xs) => xs.iter().for_each(|x| collect_stmts(x, out)),
        CNode::Loop(l) => collect_stmts(&l.body, out),
        CNode::Guard(_, b) => collect_stmts(b, out),
        CNode::Stmt(k) => out.push(*k),
    }
}
