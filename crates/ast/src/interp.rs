//! Tree-walking interpreter for [`Program`]s.
//!
//! This is the workspace's semantic oracle: every optimized program is
//! executed here (on miniature datasets) and compared element-by-element
//! against the kernel's native Rust reference implementation. It also
//! drives the cache simulator by reporting every array access in
//! execution order.

use crate::tree::{Node, Program, StmtNode};
use polymix_ir::expr::Expr;
use polymix_ir::Scop;

/// One array access performed by the interpreter, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessEvent {
    /// Array index within the SCoP.
    pub array: usize,
    /// Linearized (row-major) element offset.
    pub offset: usize,
    /// Write or read.
    pub is_write: bool,
}

/// Allocates zero-initialized storage for every array of the SCoP at the
/// given parameter values.
pub fn alloc_arrays(scop: &Scop, params: &[i64]) -> Vec<Vec<f64>> {
    scop.arrays
        .iter()
        .map(|a| vec![0.0; a.len(params).max(1)])
        .collect()
}

struct Interp<'a, F: FnMut(AccessEvent)> {
    scop: &'a Scop,
    params: &'a [i64],
    extents: Vec<Vec<i64>>,
    arrays: &'a mut [Vec<f64>],
    vars: Vec<i64>,
    observer: F,
}

impl<F: FnMut(AccessEvent)> Interp<'_, F> {
    fn run(&mut self, node: &Node) {
        match node {
            Node::Seq(xs) => xs.iter().for_each(|x| self.run(x)),
            Node::Guard(gs, b) => {
                if gs.iter().all(|g| g.eval(&self.vars, self.params) >= 0) {
                    self.run(b);
                }
            }
            Node::Loop(l) => {
                let lo = l.lo.eval_lower(&self.vars, self.params);
                let hi = l.hi.eval_upper(&self.vars, self.params);
                assert!(l.step > 0, "non-positive loop step");
                let mut v = lo;
                while v <= hi {
                    self.vars[l.var] = v;
                    self.run(&l.body);
                    v += l.step;
                }
            }
            Node::Stmt(s) => self.exec_stmt(s),
        }
    }

    fn exec_stmt(&mut self, s: &StmtNode) {
        let stmt = &self.scop.statements[s.stmt_idx];
        debug_assert_eq!(s.iter_exprs.len(), stmt.dim, "iter expr arity");
        let iters: Vec<i64> = s
            .iter_exprs
            .iter()
            .map(|e| e.eval(&self.vars, self.params))
            .collect();
        let value = self.eval_expr(&stmt.body, &iters);
        let (arr, off) = self.locate(stmt.write.array.0, &stmt.write.map, &iters);
        (self.observer)(AccessEvent {
            array: arr,
            offset: off,
            is_write: true,
        });
        self.arrays[arr][off] = value;
    }

    fn eval_expr(&mut self, e: &Expr, iters: &[i64]) -> f64 {
        match e {
            Expr::Const(c) => *c,
            Expr::Iter(k) => iters[*k] as f64,
            Expr::Param(k) => self.params[*k] as f64,
            Expr::Bin(op, a, b) => {
                let x = self.eval_expr(a, iters);
                let y = self.eval_expr(b, iters);
                op.apply(x, y)
            }
            Expr::Un(op, a) => {
                let x = self.eval_expr(a, iters);
                op.apply(x)
            }
            Expr::Read { array, subs } => {
                let (arr, off) = self.locate(array.0, subs, iters);
                (self.observer)(AccessEvent {
                    array: arr,
                    offset: off,
                    is_write: false,
                });
                self.arrays[arr][off]
            }
        }
    }

    /// Resolves an access (affine subscript rows) to `(array, offset)`.
    fn locate(&self, array: usize, rows: &[Vec<i64>], iters: &[i64]) -> (usize, usize) {
        let ext = &self.extents[array];
        debug_assert_eq!(rows.len(), ext.len(), "array rank mismatch");
        let mut off: i64 = 0;
        for (dim, row) in rows.iter().enumerate() {
            let d = iters.len();
            let p = self.params.len();
            debug_assert_eq!(row.len(), d + p + 1);
            let idx: i64 = row[..d].iter().zip(iters).map(|(a, x)| a * x).sum::<i64>()
                + row[d..d + p]
                    .iter()
                    .zip(self.params)
                    .map(|(a, n)| a * n)
                    .sum::<i64>()
                + row[d + p];
            debug_assert!(
                idx >= 0 && idx < ext[dim],
                "subscript {idx} out of bounds [0,{}) in array {array} dim {dim}",
                ext[dim]
            );
            off = off * ext[dim] + idx;
        }
        (array, off as usize)
    }
}

/// Executes the program on the given arrays.
pub fn execute(prog: &Program, params: &[i64], arrays: &mut [Vec<f64>]) {
    execute_traced(prog, params, arrays, |_| {});
}

/// Executes the program, reporting every array access to `observer`.
pub fn execute_traced(
    prog: &Program,
    params: &[i64],
    arrays: &mut [Vec<f64>],
    observer: impl FnMut(AccessEvent),
) {
    let extents = prog
        .scop
        .arrays
        .iter()
        .map(|a| a.extents(params))
        .collect();
    let mut it = Interp {
        scop: &prog.scop,
        params,
        extents,
        arrays,
        vars: vec![0; prog.n_vars.max(1)],
        observer,
    };
    it.run(&prog.body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Bound, LinExpr, Loop, Par};
    use polymix_ir::builder::{con, ix, par, ScopBuilder};

    /// Builds `for i in 0..N: A[i] = A[i] + 1` as SCoP + hand-made AST.
    fn inc_program() -> Program {
        let mut b = ScopBuilder::new("inc", &["N"], &[5]);
        let a = b.array("A", &["N"]);
        b.enter("i", con(0), par("N"));
        let body = Expr::add(b.rd(a, &[ix("i")]), Expr::Const(1.0));
        b.stmt("S", a, &[ix("i")], body);
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let body = Node::loop_(Loop {
            var: 0,
            name: "i".into(),
            lo: Bound::con(0),
            hi: Bound::of(LinExpr::param(0).plus(-1)),
            step: 1,
            par: Par::Seq,
            jam: 1,
            body: Node::Stmt(StmtNode {
                stmt_idx: 0,
                iter_exprs: vec![LinExpr::var(0)],
            }),
        });
        Program {
            scop,
            body,
            n_vars: 1,
            tiling: Vec::new(),
            demoted: 0,
        }
    }

    #[test]
    fn increments_every_element() {
        let p = inc_program();
        let mut arrays = alloc_arrays(&p.scop, &[5]);
        arrays[0] = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        execute(&p, &[5], &mut arrays);
        assert_eq!(arrays[0], vec![2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn trace_reports_read_then_write_per_iteration() {
        let p = inc_program();
        let mut arrays = alloc_arrays(&p.scop, &[3]);
        let mut events = Vec::new();
        execute_traced(&p, &[3], &mut arrays, |e| events.push(e));
        assert_eq!(events.len(), 6);
        assert!(!events[0].is_write && events[1].is_write);
        assert_eq!(events[0].offset, 0);
        assert_eq!(events[5].offset, 2);
    }

    #[test]
    fn guard_skips_iterations() {
        let mut p = inc_program();
        // Guard: only run when i - 2 >= 0.
        let inner = match &p.body {
            Node::Loop(l) => l.body.clone(),
            _ => panic!(),
        };
        let guarded = Node::Guard(vec![LinExpr::var(0).plus(-2)], Box::new(inner));
        if let Node::Loop(l) = &mut p.body {
            l.body = guarded;
        }
        let mut arrays = alloc_arrays(&p.scop, &[5]);
        execute(&p, &[5], &mut arrays);
        assert_eq!(arrays[0], vec![0.0, 0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn step_respects_stride() {
        let mut p = inc_program();
        if let Node::Loop(l) = &mut p.body {
            l.step = 2;
        }
        let mut arrays = alloc_arrays(&p.scop, &[5]);
        execute(&p, &[5], &mut arrays);
        assert_eq!(arrays[0], vec![1.0, 0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn reversed_iteration_same_result_for_independent_loop() {
        // Reversal expressed via iter_exprs: i := N-1-v.
        let mut p = inc_program();
        if let Node::Loop(l) = &mut p.body {
            l.body.subst_var(0, &LinExpr::param(0).plus(-1).add_scaled(&LinExpr::var(0), -1));
        }
        let mut arrays = alloc_arrays(&p.scop, &[4]);
        execute(&p, &[4], &mut arrays);
        assert_eq!(arrays[0], vec![1.0; 4]);
    }
}
