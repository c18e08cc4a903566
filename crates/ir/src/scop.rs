//! Static control parts: arrays, accesses, statements, and the SCoP
//! container.

use crate::expr::Expr;
use crate::schedule::Schedule;
use polymix_math::Polyhedron;
use std::fmt;

/// Identifier of an array within a [`Scop`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub usize);

impl fmt::Debug for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Arr({})", self.0)
    }
}

/// Identifier of a statement within a [`Scop`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub usize);

impl fmt::Debug for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A declared array. Dimension sizes are affine rows over `[params | 1]`,
/// e.g. a `NI x NJ` matrix in a SCoP with params `[NI, NJ, NK]` has
/// `dims = [[1,0,0,0], [0,1,0,0]]`.
#[derive(Clone, Debug)]
pub struct ArrayInfo {
    /// Source-level name.
    pub name: String,
    /// One affine size row (`[params | 1]`) per dimension.
    pub dims: Vec<Vec<i64>>,
    /// Element size in bytes (8 for f64 throughout PolyBench).
    pub elem_bytes: usize,
}

impl ArrayInfo {
    /// Evaluates the extent of each dimension for concrete parameters.
    pub fn extents(&self, params: &[i64]) -> Vec<i64> {
        self.dims
            .iter()
            .map(|row| {
                assert_eq!(row.len(), params.len() + 1);
                row[..params.len()]
                    .iter()
                    .zip(params)
                    .map(|(a, n)| a * n)
                    .sum::<i64>()
                    + row[params.len()]
            })
            .collect()
    }

    /// Total number of elements for concrete parameters.
    pub fn len(&self, params: &[i64]) -> usize {
        self.extents(params).iter().product::<i64>().max(0) as usize
    }

    /// True when the array has zero dimensions (a scalar).
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }
}

/// An affine array access: `array[ map · (iters, params, 1) ]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Access {
    /// The array accessed.
    pub array: ArrayId,
    /// One affine row (`[iters | params | 1]`, statement-local layout) per
    /// array dimension.
    pub map: Vec<Vec<i64>>,
}

impl Access {
    /// Evaluates the subscript vector at a concrete iteration point.
    pub fn eval(&self, iters: &[i64], params: &[i64]) -> Vec<i64> {
        self.map
            .iter()
            .map(|row| {
                assert_eq!(row.len(), iters.len() + params.len() + 1);
                let (ri, rest) = row.split_at(iters.len());
                let (rp, rc) = rest.split_at(params.len());
                ri.iter().zip(iters).map(|(a, x)| a * x).sum::<i64>()
                    + rp.iter().zip(params).map(|(a, n)| a * n).sum::<i64>()
                    + rc[0]
            })
            .collect()
    }
}

/// One statement of a SCoP: an assignment `write = body` executed at every
/// integer point of `domain`.
#[derive(Clone, Debug)]
pub struct Statement {
    /// Source-level label (e.g. `"S"` in the paper's 2mm listing).
    pub name: String,
    /// Number of enclosing loop iterators.
    pub dim: usize,
    /// Names of the iterators, outermost first (for diagnostics/codegen).
    pub iter_names: Vec<String>,
    /// Iteration domain over `[iters | params]` (constant column implicit
    /// in the polyhedron's constraint rows).
    pub domain: Polyhedron,
    /// The written (lhs) access.
    pub write: Access,
    /// The rhs expression. For accumulations (`A[i] += e`) the rhs contains
    /// an explicit read of the lhs location.
    pub body: Expr,
    /// Original (textual-order) schedule.
    pub schedule: Schedule,
}

impl Statement {
    /// All accesses: `(access, is_write)`, the write first.
    pub fn accesses(&self) -> Vec<(Access, bool)> {
        let mut out = vec![(self.write.clone(), true)];
        for (array, subs) in self.body.reads() {
            out.push((
                Access {
                    array: *array,
                    map: subs.clone(),
                },
                false,
            ));
        }
        out
    }

    /// All read accesses.
    pub fn reads(&self) -> Vec<Access> {
        self.body
            .reads()
            .into_iter()
            .map(|(array, subs)| Access {
                array: *array,
                map: subs.clone(),
            })
            .collect()
    }

    /// Floating point operations per dynamic instance.
    pub fn flops_per_instance(&self) -> u64 {
        self.body.flops()
    }

    /// True when the statement has the shape `A[f(x)] = A[f(x)] ⊕ e` with
    /// `⊕` associative-commutative (add or mul) and `e` not reading
    /// `A[f(x)]` — the pattern the paper's reduction recognizer matches
    /// (Sec. IV-A).
    pub fn is_reduction_update(&self) -> bool {
        use crate::expr::BinOp;
        let Expr::Bin(op, lhs, rhs) = &self.body else {
            return false;
        };
        if !matches!(op, BinOp::Add | BinOp::Mul) {
            return false;
        }
        let self_read = |e: &Expr| {
            matches!(e, Expr::Read { array, subs }
                if *array == self.write.array && *subs == self.write.map)
        };
        let reads_lhs = |e: &Expr| {
            e.reads()
                .iter()
                .any(|(a, s)| **a == self.write.array && **s == self.write.map)
        };
        (self_read(lhs) && !reads_lhs(rhs)) || (self_read(rhs) && !reads_lhs(lhs))
    }

    /// A reduction update whose operator is `+`: `A[f(x)] = A[f(x)] + e`,
    /// the only kind a reduction region privatizes — its copies start at
    /// zero and are summed into the shared array after the join.
    pub fn is_additive_update(&self) -> bool {
        matches!(self.body, Expr::Bin(crate::expr::BinOp::Add, ..)) && self.is_reduction_update()
    }
}

/// A static control part: parameters, arrays and statements in textual
/// order, each carrying its original schedule.
#[derive(Clone, Debug)]
pub struct Scop {
    /// SCoP name (e.g. the benchmark name).
    pub name: String,
    /// Structure parameter names, e.g. `["NI", "NJ", "NK"]`.
    pub params: Vec<String>,
    /// Assumed lower bound for every parameter (legality tests are made
    /// under `param >= lb`); PolyBench kernels use 1 (or 2 for stencils).
    pub param_lower_bounds: Vec<i64>,
    /// Declared arrays.
    pub arrays: Vec<ArrayInfo>,
    /// Statements in textual order; `StmtId(k)` indexes this vector.
    pub statements: Vec<Statement>,
    /// Default parameter values used by tests / the quickstart dataset.
    pub default_params: Vec<i64>,
}

impl Scop {
    /// Number of structure parameters.
    pub fn n_params(&self) -> usize {
        self.params.len()
    }

    /// Borrow a statement by id.
    pub fn stmt(&self, id: StmtId) -> &Statement {
        &self.statements[id.0]
    }

    /// Whether some statement of `a` and some statement of `b` access one
    /// array (the schedulers' fusion precondition).
    pub fn shares_array(&self, a: &[StmtId], b: &[StmtId]) -> bool {
        let arrays = |g: &[StmtId]| -> Vec<usize> {
            g.iter()
                .flat_map(|&s| self.stmt(s).accesses())
                .map(|(acc, _)| acc.array.0)
                .collect()
        };
        let aa = arrays(a);
        arrays(b).iter().any(|x| aa.contains(x))
    }

    /// Total floating point operations for concrete parameters, obtained
    /// by counting each statement's domain cardinality; `None` when some
    /// domain is unbounded there. Domain cardinality is computed by
    /// enumeration — use only for miniature datasets; the benchmark
    /// harness uses closed-form FLOP formulas instead.
    pub fn flops_by_enumeration(&self, params: &[i64]) -> Option<u64> {
        self.statements
            .iter()
            .map(|s| {
                let dom = self.instantiate_domain(s, params);
                Some(dom.enumerate()?.len() as u64 * s.flops_per_instance())
            })
            .sum()
    }

    /// Fixes the parameter dimensions of a statement's domain to concrete
    /// values (the result still has `dim + n_params` dimensions).
    pub fn instantiate_domain(&self, s: &Statement, params: &[i64]) -> Polyhedron {
        let mut dom = s.domain.clone();
        for (k, &v) in params.iter().enumerate() {
            dom = dom.fix(s.dim + k, v);
        }
        dom
    }
}

impl Scop {
    /// Validates structural well-formedness and, by exhaustive
    /// enumeration at the default parameters, that every array subscript
    /// of every statement instance lies within the declared extents.
    /// Intended for tests and kernel authoring (it is O(#instances)).
    pub fn validate(&self) -> Result<(), String> {
        let params = &self.default_params;
        if params.len() != self.params.len() {
            return Err("default_params arity mismatch".into());
        }
        let extents: Vec<Vec<i64>> = self.arrays.iter().map(|a| a.extents(params)).collect();
        for (ai, ext) in extents.iter().enumerate() {
            if ext.iter().any(|&e| e <= 0) && !self.arrays[ai].dims.is_empty() {
                return Err(format!(
                    "array {} has non-positive extent {ext:?} at default params",
                    self.arrays[ai].name
                ));
            }
        }
        for (si, st) in self.statements.iter().enumerate() {
            if st.iter_names.len() != st.dim {
                return Err(format!("S{si}: iterator name arity mismatch"));
            }
            if st.schedule.dim() != st.dim {
                return Err(format!("S{si}: schedule arity mismatch"));
            }
            st.schedule.check().map_err(|e| format!("S{si}: {e}"))?;
            let points = self.instantiate_domain(st, params).enumerate();
            let points = points.ok_or_else(|| format!("S{si}: domain unbounded at the default parameters"))?;
            for point in points {
                let iters = &point[..st.dim];
                for (acc, is_write) in st.accesses() {
                    let subs = acc.eval(iters, params);
                    let ext = &extents[acc.array.0];
                    if subs.len() != ext.len() {
                        return Err(format!(
                            "S{si}: rank mismatch on array {}",
                            self.arrays[acc.array.0].name
                        ));
                    }
                    for (d, (&ix, &e)) in subs.iter().zip(ext).enumerate() {
                        if ix < 0 || ix >= e {
                            return Err(format!(
                                "S{si} at {iters:?}: {} subscript {ix} out of [0,{e}) in dim {d} of {}",
                                if is_write { "write" } else { "read" },
                                self.arrays[acc.array.0].name
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
