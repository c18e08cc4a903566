//! A small imperative DSL for defining SCoPs.
//!
//! Kernels are written as a walk over their loop structure:
//!
//! ```
//! use polymix_ir::builder::{con, ix, par, ScopBuilder};
//! use polymix_ir::expr::Expr;
//!
//! // for (i = 0; i < N; i++)
//! //   for (j = 0; j <= i; j++)
//! //     C[i][j] = A[i][j] * 2.0;
//! let mut b = ScopBuilder::new("tri_scale", &["N"], &[16]);
//! let a = b.array("A", &["N", "N"]);
//! let c = b.array("C", &["N", "N"]);
//! b.enter("i", con(0), par("N"));
//! b.enter("j", con(0), ix("i") + con(1));
//! let body = Expr::mul(b.rd(a, &[ix("i"), ix("j")]), Expr::Const(2.0));
//! b.stmt("S", c, &[ix("i"), ix("j")], body);
//! b.exit();
//! b.exit();
//! let scop = b.finish().expect("well-formed SCoP");
//! assert_eq!(scop.statements.len(), 1);
//! assert_eq!(scop.statements[0].dim, 2);
//! ```
//!
//! Loop bounds and subscripts are symbolic affine forms ([`SymAff`]) over
//! iterator and parameter *names*, resolved to numeric rows when each
//! statement is created (so the row width always matches the statement's
//! depth).
//!
//! Protocol violations (unknown names, shadowed or unclosed loops) are
//! *deferred*: the builder records the first one and keeps accepting
//! calls, and [`ScopBuilder::finish`] returns it as a
//! [`PolymixError::Build`]. Static kernels whose structure is known
//! correct simply `finish().expect(...)`.

use crate::error::PolymixError;
use crate::expr::Expr;
use crate::schedule::Schedule;
use crate::scop::{Access, ArrayId, ArrayInfo, Scop, Statement};
use polymix_math::{Constraint, Polyhedron};
use std::ops::{Add, Mul, Neg, Sub};

/// A symbolic affine form `Σ cᵢ·iter + Σ cₚ·param + c`.
#[derive(Clone, Debug, Default)]
pub struct SymAff {
    iters: Vec<(String, i64)>,
    params: Vec<(String, i64)>,
    c: i64,
}

/// Symbolic reference to loop iterator `name`.
pub fn ix(name: &str) -> SymAff {
    SymAff {
        iters: vec![(name.to_string(), 1)],
        ..Default::default()
    }
}

/// Symbolic reference to structure parameter `name`.
pub fn par(name: &str) -> SymAff {
    SymAff {
        params: vec![(name.to_string(), 1)],
        ..Default::default()
    }
}

/// Constant affine form.
pub fn con(c: i64) -> SymAff {
    SymAff {
        c,
        ..Default::default()
    }
}

impl Add for SymAff {
    type Output = SymAff;
    fn add(mut self, rhs: SymAff) -> SymAff {
        self.iters.extend(rhs.iters);
        self.params.extend(rhs.params);
        self.c += rhs.c;
        self
    }
}

impl Sub for SymAff {
    type Output = SymAff;
    fn sub(self, rhs: SymAff) -> SymAff {
        self + (-rhs)
    }
}

impl Neg for SymAff {
    type Output = SymAff;
    fn neg(mut self) -> SymAff {
        for (_, c) in self.iters.iter_mut() {
            *c = -*c;
        }
        for (_, c) in self.params.iter_mut() {
            *c = -*c;
        }
        self.c = -self.c;
        self
    }
}

impl Mul<i64> for SymAff {
    type Output = SymAff;
    fn mul(mut self, k: i64) -> SymAff {
        for (_, c) in self.iters.iter_mut() {
            *c *= k;
        }
        for (_, c) in self.params.iter_mut() {
            *c *= k;
        }
        self.c *= k;
        self
    }
}

struct Frame {
    name: String,
    beta: i64,
    lo: SymAff,
    hi_excl: SymAff,
}

/// Incremental SCoP builder; see the module docs for the protocol.
pub struct ScopBuilder {
    name: String,
    params: Vec<String>,
    param_lbs: Vec<i64>,
    default_params: Vec<i64>,
    arrays: Vec<ArrayInfo>,
    statements: Vec<Statement>,
    frames: Vec<Frame>,
    sibling: Vec<i64>,
    /// First protocol violation, reported by `finish()`.
    err: Option<PolymixError>,
}

impl ScopBuilder {
    /// Starts a SCoP with the given structure parameters and the default
    /// values tests will run it with.
    pub fn new(name: &str, params: &[&str], default_params: &[i64]) -> ScopBuilder {
        let mut b = ScopBuilder {
            name: name.to_string(),
            params: params.iter().map(|s| s.to_string()).collect(),
            param_lbs: vec![1; params.len()],
            default_params: default_params.to_vec(),
            arrays: Vec::new(),
            statements: Vec::new(),
            frames: Vec::new(),
            sibling: vec![0],
            err: None,
        };
        if params.len() != default_params.len() {
            b.fail(format!(
                "{} parameters but {} default values",
                params.len(),
                default_params.len()
            ));
        }
        b
    }

    /// Records the first protocol violation; later ones are dropped.
    fn fail(&mut self, detail: String) {
        if self.err.is_none() {
            self.err = Some(PolymixError::build(&self.name, detail));
        }
    }

    /// Declares that every parameter is at least `lb` (stencil kernels use
    /// 2 or 3 so that legality reasoning knows interiors are nonempty).
    pub fn assume_params_at_least(&mut self, lb: i64) {
        for x in self.param_lbs.iter_mut() {
            *x = lb;
        }
    }

    /// Declares an f64 array whose extents are the named parameters.
    pub fn array(&mut self, name: &str, dims: &[&str]) -> ArrayId {
        let dims = dims.iter().map(|d| par(d)).collect();
        self.array_dims(name, dims)
    }

    /// Declares an f64 array with general affine extents over parameters.
    pub fn array_dims(&mut self, name: &str, dims: Vec<SymAff>) -> ArrayId {
        let p = self.params.len();
        let mut bad = Vec::new();
        let rows = dims
            .iter()
            .map(|a| {
                let mut row = vec![0i64; p + 1];
                if !a.iters.is_empty() {
                    bad.push(format!(
                        "extent of array {name} must not use iterators"
                    ));
                    return row;
                }
                for (pn, c) in &a.params {
                    match self.param_pos(pn) {
                        Some(k) => row[k] += c,
                        None => bad.push(format!("unknown parameter {pn}")),
                    }
                }
                row[p] += a.c;
                row
            })
            .collect();
        for d in bad {
            self.fail(d);
        }
        self.arrays.push(ArrayInfo {
            name: name.to_string(),
            dims: rows,
            elem_bytes: 8,
        });
        ArrayId(self.arrays.len() - 1)
    }

    /// Opens a loop `lo <= name < hi_excl`.
    pub fn enter(&mut self, name: &str, lo: SymAff, hi_excl: SymAff) {
        if self.frames.iter().any(|f| f.name == name) {
            self.fail(format!("shadowed iterator {name}"));
        }
        // The sibling stack always has one entry per open scope plus the
        // root, so `last` cannot fail while the protocol is balanced.
        let beta = self.sibling.last().copied().unwrap_or(0);
        if let Some(top) = self.sibling.last_mut() {
            *top += 1;
        }
        self.frames.push(Frame {
            name: name.to_string(),
            beta,
            lo,
            hi_excl,
        });
        self.sibling.push(0);
    }

    /// Closes the innermost open loop.
    pub fn exit(&mut self) {
        if self.frames.is_empty() {
            self.fail("exit() without open loop".to_string());
            return;
        }
        self.frames.pop();
        self.sibling.pop();
    }

    /// Builds a read expression `array[subs]` resolved against the current
    /// loop nest.
    pub fn rd(&mut self, array: ArrayId, subs: &[SymAff]) -> Expr {
        let d = self.frames.len();
        let subs = subs.iter().map(|a| self.resolve_or_fail(a, d)).collect();
        Expr::Read { array, subs }
    }

    /// Adds the statement `array[subs] = body` at the current position.
    pub fn stmt(&mut self, name: &str, array: ArrayId, subs: &[SymAff], body: Expr) {
        let d = self.frames.len();
        let p = self.params.len();
        let write = Access {
            array,
            map: subs.iter().map(|a| self.resolve_or_fail(a, d)).collect(),
        };
        // Domain: loop bound rows plus parameter lower bounds.
        let mut domain = Polyhedron::universe(d + p);
        for k in 0..self.frames.len() {
            let lo = self.resolve_or_fail(&self.frames[k].lo.clone(), d);
            let hi = self.resolve_or_fail(&self.frames[k].hi_excl.clone(), d);
            // it_k - lo >= 0
            let mut low = lo.iter().map(|&x| -x).collect::<Vec<_>>();
            low[k] += 1;
            domain.add(Constraint::ge(low));
            // hi - 1 - it_k >= 0
            let mut up = hi.clone();
            up[k] -= 1;
            up[d + p] -= 1;
            domain.add(Constraint::ge(up));
        }
        for (pk, &lb) in self.param_lbs.iter().enumerate() {
            let mut row = vec![0i64; d + p + 1];
            row[d + pk] = 1;
            row[d + p] = -lb;
            domain.add(Constraint::ge(row));
        }
        let mut beta: Vec<i64> = self.frames.iter().map(|f| f.beta).collect();
        beta.push(self.sibling.last().copied().unwrap_or(0));
        if let Some(top) = self.sibling.last_mut() {
            *top += 1;
        }
        self.statements.push(Statement {
            name: name.to_string(),
            dim: d,
            iter_names: self.frames.iter().map(|f| f.name.clone()).collect(),
            domain,
            write,
            body,
            schedule: Schedule::with_beta(d, p, beta),
        });
    }

    /// Adds the accumulation `array[subs] = array[subs] ⊕ rhs` (the `+=` /
    /// `*=` pattern that the reduction recognizer understands).
    pub fn stmt_update(
        &mut self,
        name: &str,
        array: ArrayId,
        subs: &[SymAff],
        op: crate::expr::BinOp,
        rhs: Expr,
    ) {
        let lhs_read = self.rd(array, subs);
        self.stmt(name, array, subs, Expr::Bin(op, Box::new(lhs_read), Box::new(rhs)));
    }

    /// Finalizes the SCoP, reporting the first deferred protocol
    /// violation (unknown name, shadowed iterator, unclosed loop, …).
    pub fn finish(mut self) -> Result<Scop, PolymixError> {
        if !self.frames.is_empty() {
            let open: Vec<&str> = self.frames.iter().map(|f| f.name.as_str()).collect();
            self.fail(format!("unclosed loops at finish(): {open:?}"));
        }
        if let Some(e) = self.err {
            return Err(e);
        }
        Ok(Scop {
            name: self.name,
            params: self.params,
            param_lower_bounds: self.param_lbs,
            arrays: self.arrays,
            statements: self.statements,
            default_params: self.default_params,
        })
    }

    fn param_pos(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p == name)
    }

    fn iter_pos(&self, name: &str) -> Option<usize> {
        self.frames.iter().position(|f| f.name == name)
    }

    /// Resolves a symbolic form to a numeric row of width `d + p + 1`,
    /// recording (not raising) unknown-name errors; unresolvable terms
    /// contribute zero so downstream shapes stay consistent.
    fn resolve_or_fail(&mut self, a: &SymAff, d: usize) -> Vec<i64> {
        let p = self.params.len();
        let mut row = vec![0i64; d + p + 1];
        for (it, c) in &a.iters {
            match self.iter_pos(it) {
                Some(k) => row[k] += c,
                None => self.fail(format!("unknown iterator {it}")),
            }
        }
        for (pn, c) in &a.params {
            match self.param_pos(pn) {
                Some(k) => row[d + k] += c,
                None => self.fail(format!("unknown parameter {pn}")),
            }
        }
        row[d + p] += a.c;
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    /// Builds the paper's Fig. 1 2mm kernel and checks structure.
    fn build_2mm() -> Scop {
        let mut b = ScopBuilder::new("2mm", &["NI", "NJ", "NK", "NL"], &[8, 8, 8, 8]);
        let tmp = b.array("tmp", &["NI", "NJ"]);
        let a = b.array("A", &["NI", "NK"]);
        let bb = b.array("B", &["NK", "NJ"]);
        let c = b.array("C", &["NJ", "NL"]);
        let dd = b.array("D", &["NI", "NL"]);

        b.enter("i", con(0), par("NI"));
        b.enter("j", con(0), par("NJ"));
        b.stmt("R", tmp, &[ix("i"), ix("j")], Expr::Const(0.0));
        b.enter("k", con(0), par("NK"));
        let prod = Expr::mul(
            Expr::mul(Expr::Const(1.5), b.rd(a, &[ix("i"), ix("k")])),
            b.rd(bb, &[ix("k"), ix("j")]),
        );
        b.stmt_update("S", tmp, &[ix("i"), ix("j")], BinOp::Add, prod);
        b.exit();
        b.exit();
        b.exit();

        b.enter("i", con(0), par("NI"));
        b.enter("j", con(0), par("NL"));
        let scale = Expr::mul(b.rd(dd, &[ix("i"), ix("j")]), Expr::Const(1.2));
        b.stmt("T", dd, &[ix("i"), ix("j")], scale);
        b.enter("k", con(0), par("NJ"));
        let prod = Expr::mul(b.rd(tmp, &[ix("i"), ix("k")]), b.rd(c, &[ix("k"), ix("j")]));
        b.stmt_update("U", dd, &[ix("i"), ix("j")], BinOp::Add, prod);
        b.exit();
        b.exit();
        b.exit();
        b.finish().expect("well-formed SCoP")
    }

    #[test]
    fn two_mm_has_expected_statements() {
        let s = build_2mm();
        assert_eq!(s.statements.len(), 4);
        let names: Vec<_> = s.statements.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["R", "S", "T", "U"]);
        assert_eq!(s.statements[0].dim, 2);
        assert_eq!(s.statements[1].dim, 3);
    }

    #[test]
    fn original_betas_encode_textual_order() {
        let s = build_2mm();
        assert_eq!(s.statements[0].schedule.beta, vec![0, 0, 0]); // R
        assert_eq!(s.statements[1].schedule.beta, vec![0, 0, 1, 0]); // S
        assert_eq!(s.statements[2].schedule.beta, vec![1, 0, 0]); // T
        assert_eq!(s.statements[3].schedule.beta, vec![1, 0, 1, 0]); // U
    }

    #[test]
    fn timestamps_order_r_before_s_in_same_iteration() {
        use crate::schedule::lex_cmp;
        use std::cmp::Ordering;
        let s = build_2mm();
        let params = [8, 8, 8, 8];
        let tr = s.statements[0].schedule.timestamp(&[2, 3], &params);
        let ts = s.statements[1].schedule.timestamp(&[2, 3, 0], &params);
        assert_eq!(lex_cmp(&tr, &ts), Ordering::Less);
        // T of the second nest comes after everything in the first.
        let tt = s.statements[2].schedule.timestamp(&[0, 0], &params);
        assert_eq!(lex_cmp(&ts, &tt), Ordering::Less);
    }

    #[test]
    fn domains_contain_expected_points() {
        let s = build_2mm();
        let st = &s.statements[1]; // S: (i,j,k) in [0,NI)x[0,NJ)x[0,NK)
        assert!(st.domain.contains(&[0, 0, 0, 8, 8, 8, 8]));
        assert!(st.domain.contains(&[7, 7, 7, 8, 8, 8, 8]));
        assert!(!st.domain.contains(&[8, 0, 0, 8, 8, 8, 8]));
    }

    #[test]
    fn reduction_pattern_recognized() {
        let s = build_2mm();
        assert!(!s.statements[0].is_reduction_update()); // R: tmp = 0
        assert!(s.statements[1].is_reduction_update()); // S: tmp += ...
        assert!(s.statements[2].is_reduction_update()); // T: D *= beta (mul update)
        assert!(s.statements[3].is_reduction_update()); // U: D += ...
        let additive: Vec<bool> = s.statements.iter().map(|st| st.is_additive_update()).collect();
        assert_eq!(additive, [false, true, false, true]);
    }

    #[test]
    fn triangular_bounds_resolve() {
        let mut b = ScopBuilder::new("tri", &["N"], &[6]);
        let a = b.array("A", &["N", "N"]);
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), ix("i") + con(1)); // j <= i
        let body = b.rd(a, &[ix("j"), ix("i")]);
        b.stmt("S", a, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        let s = b.finish().expect("well-formed SCoP");
        let st = &s.statements[0];
        assert!(st.domain.contains(&[3, 3, 6]));
        assert!(!st.domain.contains(&[3, 4, 6]));
    }

    #[test]
    fn symaff_algebra() {
        let a = ix("i") * 2 + par("N") - con(3);
        assert_eq!(a.iters, vec![("i".to_string(), 2)]);
        assert_eq!(a.params, vec![("N".to_string(), 1)]);
        assert_eq!(a.c, -3);
        let n = -a;
        assert_eq!(n.c, 3);
    }

    #[test]
    fn unknown_iterator_is_deferred_to_finish() {
        let mut b = ScopBuilder::new("bad", &["N"], &[4]);
        let a = b.array("A", &["N"]);
        b.enter("i", con(0), par("N"));
        b.stmt("S", a, &[ix("zz")], Expr::Const(0.0));
        b.exit();
        let err = b.finish().expect_err("unknown iterator must be reported");
        assert!(err.to_string().contains("zz"), "{err}");
    }

    #[test]
    fn unclosed_loop_is_an_error_not_a_panic() {
        let mut b = ScopBuilder::new("open", &["N"], &[4]);
        let a = b.array("A", &["N"]);
        b.enter("i", con(0), par("N"));
        b.stmt("S", a, &[ix("i")], Expr::Const(0.0));
        let err = b.finish().expect_err("unclosed loop must be reported");
        assert!(err.to_string().contains("unclosed"), "{err}");
    }

    #[test]
    fn a_malformed_statement_schedule_is_an_error_not_a_panic() {
        let mut s = build_2mm();
        assert_eq!(s.validate(), Ok(()));
        s.statements[1].schedule.beta.push(0);
        let err = s.validate().expect_err("an extra beta entry must be reported");
        assert!(err.starts_with("S1: beta arity"), "{err}");
    }

    #[test]
    fn a_domain_with_no_upper_bound_is_an_error_not_a_panic() {
        let mut b = ScopBuilder::new("open", &["N"], &[4]);
        let a = b.array("A", &["N"]);
        b.enter("i", con(0), par("N"));
        b.stmt("S", a, &[ix("i")], Expr::Const(0.0));
        b.exit();
        let mut s = b.finish().expect("well-formed SCoP");
        assert_eq!(s.validate(), Ok(()));
        // Keep every row but `N - 1 - i >= 0`, the one bounding `i` above.
        let dom = &s.statements[0].domain;
        let mut open = Polyhedron::universe(dom.n_dims());
        for c in dom.constraints().filter(|c| c.coeff(0) >= 0) {
            open.add(Constraint::ge(c.row.to_vec()));
        }
        s.statements[0].domain = open;
        let err = s.validate().expect_err("an unbounded domain must be reported");
        assert_eq!(err, "S0: domain unbounded at the default parameters");
    }

    #[test]
    fn exit_without_loop_is_an_error() {
        let mut b = ScopBuilder::new("x", &["N"], &[4]);
        b.exit();
        assert!(b.finish().is_err());
    }

    #[test]
    fn array_extent_evaluation() {
        let mut b = ScopBuilder::new("x", &["N"], &[4]);
        let _ = b.array_dims("A", vec![par("N") + con(1), con(3)]);
        let s = b.finish().expect("well-formed SCoP");
        assert_eq!(s.arrays[0].extents(&[10]), vec![11, 3]);
        assert_eq!(s.arrays[0].len(&[10]), 33);
    }
}
