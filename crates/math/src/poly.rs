//! Affine constraints and integer polyhedra.
//!
//! A [`Polyhedron`] is a conjunction of affine constraints over an ordered
//! list of `n_dims` dimensions. The meaning of each dimension (loop
//! iterator, structure parameter like `NI`, schedule time dimension, …) is
//! assigned by the caller; this module only knows the column layout
//! `[x_0, …, x_{n-1}, 1]` — every constraint row carries `n_dims`
//! coefficients followed by one constant term.

use crate::fm;
use crate::gcd::{normalize_eq_row, normalize_row};
use crate::memo::{self, Ending};
use std::fmt;

/// Constraint comparison operator, interpreted as `coeffs · x + c OP 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `coeffs · x + c >= 0`
    Ge,
    /// `coeffs · x + c == 0`
    Eq,
}

/// A single affine constraint `coeffs[..n] · x + coeffs[n] OP 0`, owned:
/// what [`Polyhedron::add`] takes. A polyhedron hands its rows back as
/// borrowed [`ConstraintRef`]s.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// `n_dims` coefficients followed by the constant term.
    pub row: Vec<i64>,
    /// Comparison against zero.
    pub op: CmpOp,
}

impl Constraint {
    /// Inequality `row · [x, 1] >= 0`.
    pub fn ge(row: Vec<i64>) -> Constraint {
        Constraint { row, op: CmpOp::Ge }
    }

    /// Equality `row · [x, 1] == 0`.
    pub fn eq(row: Vec<i64>) -> Constraint {
        Constraint { row, op: CmpOp::Eq }
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (row, op) = (&self.row[..], self.op);
        ConstraintRef { row, op }.fmt(f)
    }
}

/// One constraint of a [`Polyhedron`], borrowed from its storage.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ConstraintRef<'a> {
    /// `n_dims` coefficients followed by the constant term.
    pub row: &'a [i64],
    /// Comparison against zero.
    pub op: CmpOp,
}

impl ConstraintRef<'_> {
    /// Coefficient of dimension `d`.
    pub fn coeff(&self, d: usize) -> i64 {
        self.row[d]
    }

    /// The constant term.
    pub fn constant(&self) -> i64 {
        self.row.last().copied().unwrap_or(0)
    }

    /// Number of dimensions the constraint spans.
    pub fn n_dims(&self) -> usize {
        self.row.len().saturating_sub(1)
    }

    /// Evaluates `coeffs · point + c` in `i128`, so the sign and
    /// zero-ness [`ConstraintRef::holds`] reads survive coefficients at
    /// the edge of `i64`. Each product fits; `None` when a partial sum
    /// does not.
    pub fn eval(&self, point: &[i64]) -> Option<i128> {
        assert_eq!(point.len(), self.n_dims(), "point arity mismatch");
        let mut products = self.row.iter().zip(point);
        products.try_fold(i128::from(self.constant()), |acc, (&a, &x)| {
            acc.checked_add(i128::from(a) * i128::from(x))
        })
    }

    /// True iff `point` satisfies the constraint. A value whose sum does
    /// not fit `i128` is undecided and reads as "no": a point this
    /// cannot vouch for is never a member.
    pub fn holds(&self, point: &[i64]) -> bool {
        self.eval(point).is_some_and(|v| match self.op {
            CmpOp::Ge => v >= 0,
            CmpOp::Eq => v == 0,
        })
    }

    /// True when the constraint mentions dimension `d`.
    pub fn mentions(&self, d: usize) -> bool {
        self.row[d] != 0
    }

    /// An explicitly false row: no coefficient, and a constant the
    /// comparison rejects.
    fn is_false_constant(&self) -> bool {
        let n = self.n_dims();
        self.row[..n].iter().all(|&a| a == 0)
            && match self.op {
                CmpOp::Ge => self.constant() < 0,
                CmpOp::Eq => self.constant() != 0,
            }
    }
}

impl fmt::Debug for ConstraintRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.n_dims();
        let mut first = true;
        for (d, &a) in self.row[..n].iter().enumerate() {
            if a == 0 {
                continue;
            }
            if first {
                if a == 1 {
                    write!(f, "x{d}")?;
                } else if a == -1 {
                    write!(f, "-x{d}")?;
                } else {
                    write!(f, "{a}*x{d}")?;
                }
                first = false;
            } else if a > 0 {
                if a == 1 {
                    write!(f, " + x{d}")?;
                } else {
                    write!(f, " + {a}*x{d}")?;
                }
            } else if a == -1 {
                write!(f, " - x{d}")?;
            } else {
                write!(f, " - {}*x{d}", a.unsigned_abs())?;
            }
        }
        let c = self.constant();
        if first {
            write!(f, "{c}")?;
        } else if c > 0 {
            write!(f, " + {c}")?;
        } else if c < 0 {
            write!(f, " - {}", c.unsigned_abs())?;
        }
        match self.op {
            CmpOp::Ge => write!(f, " >= 0"),
            CmpOp::Eq => write!(f, " == 0"),
        }
    }
}

/// An affine expression `(coeffs · x + c) / denom` with `denom > 0`,
/// used to report loop bounds extracted from a polyhedron. The division is
/// to be interpreted as ceiling for lower bounds and floor for upper bounds.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AffineExpr {
    /// `n_dims` coefficients followed by the constant term.
    pub row: Vec<i64>,
    /// Positive divisor.
    pub denom: i64,
}

impl AffineExpr {
    /// Builds an expression with unit denominator.
    pub fn new(row: Vec<i64>) -> AffineExpr {
        AffineExpr { row, denom: 1 }
    }

    /// Evaluates with floor division; `None` when the value does not
    /// fit `i64`.
    pub fn eval_floor(&self, point: &[i64]) -> Option<i64> {
        Some(self.raw_eval(point)?.div_euclid(self.denom))
    }

    /// Evaluates with ceiling division; `None` when the value does not
    /// fit `i64`.
    pub fn eval_ceil(&self, point: &[i64]) -> Option<i64> {
        let neg = self.raw_eval(point)?.checked_neg()?;
        neg.div_euclid(self.denom).checked_neg()
    }

    fn raw_eval(&self, point: &[i64]) -> Option<i64> {
        let n = self.row.len() - 1;
        assert_eq!(point.len(), n, "point arity mismatch");
        let mut products = self.row[..n].iter().zip(point);
        products.try_fold(self.row[n], |acc, (a, x)| {
            acc.checked_add(a.checked_mul(*x)?)
        })
    }
}

impl fmt::Debug for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let form = ConstraintRef {
            row: &self.row,
            op: CmpOp::Ge,
        };
        let body = format!("{form:?}");
        let body = body.trim_end_matches(" >= 0");
        if self.denom == 1 {
            write!(f, "{body}")
        } else {
            write!(f, "({body})/{}", self.denom)
        }
    }
}

/// A (possibly unbounded) convex integer polyhedron: the conjunction of a
/// set of affine constraints over `n_dims` dimensions.
///
/// The rows sit side by side in one buffer (`n_dims + 1` entries each)
/// with their operators beside it, so a copy is two `memcpy`s and
/// comparing or hashing a system — the [`memo`] key — walks two slices.
/// Every row is gcd-normalized and no row is stored twice.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Polyhedron {
    n_dims: usize,
    rows: Vec<i64>,
    ops: Vec<CmpOp>,
}

impl Polyhedron {
    /// The universe polyhedron over `n_dims` dimensions.
    pub fn universe(n_dims: usize) -> Polyhedron {
        Polyhedron {
            n_dims,
            rows: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Number of dimensions.
    pub fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// The constraints, in the order they were added.
    pub fn constraints(&self) -> impl ExactSizeIterator<Item = ConstraintRef<'_>> + Clone {
        let rows = self.rows.chunks_exact(self.n_dims + 1).zip(&self.ops);
        rows.map(|(row, &op)| ConstraintRef { row, op })
    }

    fn row(&self, i: usize) -> &[i64] {
        let stride = self.n_dims + 1;
        &self.rows[i * stride..(i + 1) * stride]
    }

    /// Moves row `from` down to slot `to <= from`; with
    /// [`Polyhedron::truncate`], an in-place `retain`.
    fn move_row(&mut self, from: usize, to: usize) {
        let stride = self.n_dims + 1;
        self.rows
            .copy_within(from * stride..(from + 1) * stride, to * stride);
        self.ops[to] = self.ops[from];
    }

    pub(crate) fn truncate(&mut self, len: usize) {
        self.rows.truncate(len * (self.n_dims + 1));
        self.ops.truncate(len);
    }

    /// Appends the row `fill` writes over zeroes, unless `fill` gives up
    /// (`None`: nothing is added). Every row enters here: it is
    /// normalized (gcd tightening), and a row the system already holds is
    /// not added again. An integrally infeasible equality is recorded as
    /// an explicitly false row, so emptiness tests succeed fast.
    pub(crate) fn push_row(
        &mut self,
        mut op: CmpOp,
        fill: impl FnOnce(&mut [i64]) -> Option<()>,
    ) -> Option<()> {
        let (n, at) = (self.n_dims, self.rows.len());
        self.rows.resize(at + n + 1, 0);
        let (held, new) = self.rows.split_at_mut(at);
        let filled = fill(new);
        let keep = filled.is_some()
            && match op {
                CmpOp::Eq if !normalize_eq_row(new) => {
                    new.fill(0);
                    new[n] = -1;
                    op = CmpOp::Ge;
                    true
                }
                _ => {
                    if op == CmpOp::Ge {
                        normalize_row(new);
                    }
                    let mut held = held.chunks_exact(n + 1).zip(&self.ops);
                    !held.any(|(row, &o)| o == op && row == new)
                }
            };
        if keep {
            self.ops.push(op);
        } else {
            self.rows.truncate(at);
        }
        filled
    }

    pub(crate) fn push_copy(&mut self, row: &[i64], op: CmpOp) {
        assert_eq!(row.len(), self.n_dims + 1, "constraint arity mismatch");
        let _ = self.push_row(op, |r| {
            r.copy_from_slice(row);
            Some(())
        });
    }

    /// Adds one constraint (with normalization / gcd tightening).
    pub fn add(&mut self, c: Constraint) {
        self.push_copy(&c.row, c.op);
    }

    /// Adds `x_d >= lo` and `x_d <= hi - 1`, i.e. the half-open interval
    /// `lo <= x_d < hi` with constant bounds. Convenience for tests.
    pub fn bound_const(&mut self, d: usize, lo: i64, hi: i64) {
        let mut x_d = vec![0; self.n_dims + 1];
        x_d[d] = 1;
        self.add_ge(&x_d, lo);
        self.add_le(&x_d, hi - 1);
    }

    /// Intersection of two polyhedra over the same space.
    pub fn intersect(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.n_dims, other.n_dims, "space mismatch in intersect");
        let mut out = self.clone();
        for c in other.constraints() {
            out.push_copy(c.row, c.op);
        }
        out
    }

    /// `self ∧ row ≥ bound`, with `row` an affine form over this space
    /// (`n_dims` coefficients, then the constant).
    ///
    /// With [`Polyhedron::and_le`] and [`Polyhedron::and_eq0`] (and the
    /// in-place [`Polyhedron::add_ge`] / [`Polyhedron::add_le`] /
    /// [`Polyhedron::add_eq0`], for building a system row by row) this
    /// is the vocabulary every certifier phrases its obligations in:
    /// build the set of counter-examples, then ask
    /// [`Polyhedron::is_empty`]. The arithmetic is checked; a row that
    /// does not fit `i64` is *dropped*, leaving a superset of the
    /// intended set, whose emptiness therefore still proves the
    /// obligation and whose non-emptiness reads as "not proven" — the
    /// same exit [`Polyhedron::is_empty`] takes when an elimination
    /// step overflows.
    pub fn and_ge(&self, row: &[i64], bound: i64) -> Polyhedron {
        let mut p = self.clone();
        p.add_ge(row, bound);
        p
    }

    /// `self ∧ row ≤ bound`; see [`Polyhedron::and_ge`].
    pub fn and_le(&self, row: &[i64], bound: i64) -> Polyhedron {
        let mut p = self.clone();
        p.add_le(row, bound);
        p
    }

    /// `self ∧ row = 0`; see [`Polyhedron::and_ge`].
    pub fn and_eq0(&self, row: &[i64]) -> Polyhedron {
        let mut p = self.clone();
        p.add_eq0(row);
        p
    }

    /// Adds `row ≥ bound` in place; see [`Polyhedron::and_ge`].
    pub fn add_ge(&mut self, row: &[i64], bound: i64) {
        let n = self.n_dims;
        assert_eq!(row.len(), n + 1, "constraint arity mismatch");
        let _ = self.push_row(CmpOp::Ge, |r| {
            r[..n].copy_from_slice(&row[..n]);
            r[n] = row[n].checked_sub(bound)?;
            Some(())
        });
    }

    /// Adds `row ≤ bound` in place; see [`Polyhedron::and_ge`].
    pub fn add_le(&mut self, row: &[i64], bound: i64) {
        let n = self.n_dims;
        assert_eq!(row.len(), n + 1, "constraint arity mismatch");
        let _ = self.push_row(CmpOp::Ge, |r| {
            for (out, a) in r[..n].iter_mut().zip(row) {
                *out = a.checked_neg()?;
            }
            r[n] = bound.checked_sub(row[n])?;
            Some(())
        });
    }

    /// Adds `row = 0` in place; see [`Polyhedron::and_ge`].
    pub fn add_eq0(&mut self, row: &[i64]) {
        self.push_copy(row, CmpOp::Eq);
    }

    /// True iff the integer point satisfies every constraint.
    pub fn contains(&self, point: &[i64]) -> bool {
        self.constraints().all(|c| c.holds(point))
    }

    /// Eliminates dimension `d` by exact equality substitution where
    /// possible and Fourier–Motzkin combination otherwise. The resulting
    /// polyhedron still has `n_dims` dimensions but no constraint mentions
    /// `d` (its projection along `d`). `Err` when a combined coefficient
    /// does not fit `i64`; nothing can be concluded from such a step.
    pub fn eliminate(&self, d: usize) -> Result<Polyhedron, fm::Overflow> {
        assert!(d < self.n_dims, "eliminate: dimension out of range");
        let mut out = Polyhedron::universe(self.n_dims);
        fm::eliminate_dim(self, d, &mut out)?;
        Ok(out)
    }

    /// Projects onto the first `k` dimensions by eliminating all others
    /// (dimension count is preserved; eliminated columns become zero).
    /// Dimensions at or beyond `keep_from` (e.g. parameters placed at the
    /// tail of the space) can be retained by passing their start index.
    pub fn project_keep(&self, k: usize, keep_from: usize) -> Result<Polyhedron, fm::Overflow> {
        let mut p = self.clone();
        let mut next = Polyhedron::universe(self.n_dims);
        for d in (k..keep_from).rev() {
            fm::eliminate_dim(&p, d, &mut next)?;
            std::mem::swap(&mut p, &mut next);
        }
        Ok(p)
    }

    /// Rational (hence integer-conservative) emptiness test: bounds
    /// propagation over the rows, then elimination of every dimension,
    /// looking for a contradictory constant constraint. `true` is a
    /// proof; `false` is "not proven empty". Both steps round to the
    /// integers — propagated bounds to whole values, each row by the gcd
    /// of its coefficients — so the test also refutes systems that have
    /// rational points (`certifier_systems_are_proven_empty` holds the
    /// shapes the certifiers rely on).
    ///
    /// Asked once per distinct system while a [`memo::scope`] is alive.
    pub fn is_empty(&self) -> bool {
        memo::is_empty(self, || self.compute_is_empty())
    }

    /// Hull, witness, then greedy Fourier–Motzkin with a hull reduction
    /// between steps (DESIGN §18). The interval hull is computed once
    /// per state of the system: each reduction tightens the box the
    /// previous one left.
    fn compute_is_empty(&self) -> (bool, Ending) {
        // Fast path: an explicitly false constraint.
        if self.has_false_constant() {
            return (true, Ending::Hull);
        }
        let mut directed = Directed::default();
        let hull = self.interval_hull(&mut directed);
        let mut p = self.clone();
        if p.hull_reduce(&hull) {
            return (true, Ending::Hull);
        }
        // Witness: an integer point of the system is what elimination
        // would end on too — every step it takes keeps every integer
        // point (gcd tightening and whole-valued bounds only cut
        // rational ones) — so answering "not empty" here is its answer.
        // Asked after the reduction, not before: most proofs end at the
        // reduction, and they should not pay for a point.
        if p.contains(&hull.corner()) {
            return (false, Ending::Witness);
        }
        (p.eliminate_many(hull, &mut directed), Ending::Eliminated)
    }

    /// Eliminates every dimension; `true` when a contradiction shows on
    /// the way, which proves the set empty. `self` has been reduced over
    /// `hull`, its interval hull.
    ///
    /// Interval propagation alone often refutes the system (or proves
    /// most rows redundant) long before Fourier–Motzkin would, and on
    /// densely coupled systems — e.g. skewed wavefront remappings — FM
    /// row growth is explosive without it, so the system is reduced
    /// over its hull after every step. When row growth exceeds the cap,
    /// or a combined coefficient does not fit `i64`, nothing is
    /// concluded: "not proven empty".
    fn eliminate_many(mut self, mut hull: Hull, directed: &mut Directed) -> bool {
        let n = self.n_dims;
        let mut next = Polyhedron::universe(n);
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut uses = vec![Uses::default(); n];
        // Rows change only in an elimination step and in the reduction
        // after it, which leaves no dominated row behind.
        let mut pruned = false;
        loop {
            // Greedy elimination order: substitution steps (a dimension
            // pinned by an equality) are free, then the dimension whose
            // lower×upper product grows the system least. Any order is
            // sound for Fourier–Motzkin; a bad fixed order can square
            // the constraint count at every step on the wide two-copy
            // systems the certifier builds.
            self.count_uses(&mut uses);
            let costs = remaining.iter().map(|&d| uses[d].elimination_cost());
            let Some((pos, _)) = costs.enumerate().min_by_key(|&(_, cost)| cost) else {
                // Every dimension is gone and no contradiction showed.
                return false;
            };
            let d = remaining[pos];
            // A dimension no row mentions is eliminated already: the
            // system stays what it is.
            let mentioned = uses[d].mentioned();
            if mentioned {
                if fm::eliminate_dim(&self, d, &mut next).is_err() {
                    return false;
                }
                std::mem::swap(&mut self, &mut next);
                pruned = false;
            }
            remaining.swap_remove(pos);
            if !pruned {
                self.prune_dominated();
                pruned = true;
                if self.has_false_constant() {
                    return true;
                }
            }
            if mentioned || !hull.settled {
                // Re-tighten between steps: combined rows often become
                // hull-refutable or hull-redundant long before further
                // elimination would expose the contradiction. A box
                // that settled is carried over: every bound in it is an
                // explicit row that survives a projection along `d`
                // (pruning only trades it for a tighter one), so it is
                // still valid, and propagation resumes from it to the
                // fixpoint a fresh start would reach. A box that ran
                // into the sweep cap has no fixpoint to agree on: it
                // starts afresh at every step (DESIGN §18).
                let carried = if hull.settled { d..d + 1 } else { 0..n };
                hull.lo[carried.clone()].fill(None);
                hull.hi[carried].fill(None);
                directed.tighten(&self, &mut hull);
                if self.hull_reduce(&hull) {
                    return true;
                }
            }
            if self.ops.len() > 4000 {
                return false;
            }
        }
    }

    /// Per dimension, how the rows use it; see [`Uses`].
    fn count_uses(&self, uses: &mut [Uses]) {
        uses.fill(Uses::default());
        for c in self.constraints() {
            for (u, &a) in uses.iter_mut().zip(c.row) {
                if a == 0 {
                    continue;
                }
                match c.op {
                    CmpOp::Eq => u.eq = true,
                    CmpOp::Ge if a > 0 => u.lowers += 1,
                    CmpOp::Ge => u.uppers += 1,
                }
            }
        }
    }

    /// Per-dimension interval hull by bounds propagation from the
    /// unbounded box; see [`Directed::tighten`].
    pub(crate) fn interval_hull(&self, directed: &mut Directed) -> Hull {
        let mut hull = Hull {
            lo: vec![None; self.n_dims],
            hi: vec![None; self.n_dims],
            settled: false,
        };
        directed.tighten(self, &mut hull);
        hull
    }

    /// Interval-hull reduction. Returns `true` when the hull alone
    /// refutes the system (a row infeasible over the hull, or an empty
    /// per-dimension interval). Otherwise materializes the hull as
    /// explicit interval rows and drops every original row the hull
    /// implies — an equivalence-preserving rewrite (the hull rows are
    /// consequences of the full system, and a row satisfied everywhere
    /// on the hull adds nothing once the hull is explicit) that
    /// typically collapses densely coupled systems to a small core
    /// before Fourier–Motzkin runs.
    fn hull_reduce(&mut self, hull: &Hull) -> bool {
        let n = self.n_dims;
        if (0..n).any(|v| hull.lo[v].zip(hull.hi[v]).is_some_and(|(lo, hi)| lo > hi)) {
            return true;
        }
        let mut kept = 0;
        for i in 0..self.ops.len() {
            let row = self.row(i);
            match self.ops[i] {
                CmpOp::Ge => {
                    if hull.extreme(row, true).is_some_and(|mx| mx < 0) {
                        return true;
                    }
                    if hull.extreme(row, false).is_some_and(|mn| mn >= 0) {
                        continue; // implied by the hull rows added below
                    }
                }
                CmpOp::Eq => {
                    if hull.extreme(row, true).is_some_and(|mx| mx < 0)
                        || hull.extreme(row, false).is_some_and(|mn| mn > 0)
                    {
                        return true;
                    }
                }
            }
            self.move_row(i, kept);
            kept += 1;
        }
        self.truncate(kept);
        for v in 0..n {
            for (sign, bound) in [(1, hull.lo[v].map(|lo| -lo)), (-1, hull.hi[v])] {
                if let Some(k) = bound {
                    let _ = self.push_row(CmpOp::Ge, |r| {
                        r[v] = sign;
                        r[n] = k;
                        Some(())
                    });
                }
            }
        }
        false
    }

    /// Drops inequality rows dominated by another row with identical
    /// coefficients and a tighter constant. Rows are already
    /// gcd-normalized by [`Polyhedron::push_row`], so syntactic
    /// comparison of the coefficient vector is enough. Keeps
    /// Fourier–Motzkin blowup in check between eliminations.
    fn prune_dominated(&mut self) {
        let n = self.n_dims;
        let mut kept = 0;
        for i in 0..self.ops.len() {
            // `coeffs·x + k >= 0`: the smaller constant is the tighter
            // row. The tightest row of a direction is never dropped, so
            // it is among the rows kept so far or those still to come.
            let row = self.row(i);
            let tighter = |j: usize| {
                let other = self.row(j);
                self.ops[j] == CmpOp::Ge && other[n] < row[n] && other[..n] == row[..n]
            };
            let others = (0..kept).chain(i + 1..self.ops.len());
            if self.ops[i] == CmpOp::Ge && others.into_iter().any(tighter) {
                continue;
            }
            self.move_row(i, kept);
            kept += 1;
        }
        self.truncate(kept);
    }

    fn has_false_constant(&self) -> bool {
        self.constraints().any(|c| c.is_false_constant())
    }

    /// Substitutes the fixed integer `value` for dimension `d`; the
    /// dimension remains in the space but is pinned by an equality.
    pub fn fix(&self, d: usize, value: i64) -> Polyhedron {
        let mut out = self.clone();
        out.pin(d, value);
        out
    }

    fn pin(&mut self, d: usize, value: i64) {
        let n = self.n_dims;
        let _ = self.push_row(CmpOp::Eq, |r| {
            r[d] = 1;
            r[n] = -value;
            Some(())
        });
    }

    /// Lower and upper bound expressions for dimension `d`, read off the
    /// constraints that mention `d`.
    ///
    /// Every returned lower bound is to be combined with `max` and ceiling
    /// division; upper bounds with `min` and floor division. The caller is
    /// responsible for having eliminated any *inner* dimensions first (the
    /// usual code-generation discipline): constraints mentioning dimensions
    /// other than `d` below `inner_from` are rejected with a panic.
    pub fn bounds(&self, d: usize, inner_from: usize) -> DimBounds {
        let mut lower = Vec::new();
        let mut upper = Vec::new();
        for c in self.constraints() {
            let a = c.coeff(d);
            if a == 0 {
                continue;
            }
            for inner in d + 1..inner_from {
                assert!(
                    !c.mentions(inner),
                    "bounds({d}): constraint still mentions inner dim {inner}: {c:?}"
                );
            }
            // a * x_d + rest OP 0.
            let mut rest = c.row.to_vec();
            rest[d] = 0;
            match c.op {
                CmpOp::Ge if a > 0 => {
                    // x_d >= ceil(-rest / a)
                    let neg: Vec<i64> = rest.iter().map(|&v| -v).collect();
                    lower.push(AffineExpr { row: neg, denom: a });
                }
                CmpOp::Ge => {
                    // (-a) * x_d <= rest  =>  x_d <= floor(rest / -a)
                    upper.push(AffineExpr {
                        row: rest,
                        denom: -a,
                    });
                }
                CmpOp::Eq => {
                    let neg: Vec<i64> = rest.iter().map(|&v| -v).collect();
                    if a > 0 {
                        lower.push(AffineExpr {
                            row: neg.clone(),
                            denom: a,
                        });
                        upper.push(AffineExpr { row: neg, denom: a });
                    } else {
                        lower.push(AffineExpr {
                            row: rest.clone(),
                            denom: -a,
                        });
                        upper.push(AffineExpr {
                            row: rest,
                            denom: -a,
                        });
                    }
                }
            }
        }
        DimBounds { lower, upper }
    }

    /// Removes redundant constraints: an inequality is dropped when the
    /// polyhedron minus it still implies it (checked by emptiness of the
    /// system with the constraint negated). Equalities are kept as-is.
    /// The result describes the same integer set with (usually) fewer
    /// rows — worthwhile before extracting loop bounds, where every
    /// surviving row becomes a `max`/`min` term in generated code.
    pub fn simplify(&self) -> Polyhedron {
        let of = |op: CmpOp| self.constraints().filter(move |c| c.op == op);
        let mut kept = Polyhedron::universe(self.n_dims);
        for c in of(CmpOp::Eq) {
            kept.push_copy(c.row, c.op);
        }
        for (i, c) in of(CmpOp::Ge).enumerate() {
            // System: all equalities + other (not yet dropped) inequalities
            // + ¬c  (i.e. row <= -1). If empty, c is implied.
            let mut sys = kept.clone();
            for o in of(CmpOp::Ge).skip(i + 1) {
                sys.push_copy(o.row, o.op);
            }
            sys.add_le(c.row, -1);
            if !sys.is_empty() {
                kept.push_copy(c.row, c.op);
            }
        }
        kept
    }

    /// Enumerates every integer point of a *bounded* polyhedron in
    /// lexicographic order of its dimensions; `None` when some dimension
    /// turns out unbounded, or a projection or bound does not fit `i64`.
    /// Intended for tests, validation and the trace-driven cache
    /// simulator on miniature problem sizes.
    pub fn enumerate(&self) -> Option<Vec<Vec<i64>>> {
        let mut out = Vec::new();
        let mut point = vec![0i64; self.n_dims];
        self.enum_rec(0, &mut point, &mut out)?;
        Some(out)
    }

    /// `self` with `point[..d]` substituted and every dimension after
    /// `d` projected away: what bounds dimension `d` given the prefix.
    fn slice_at(&self, d: usize, point: &[i64]) -> Result<Polyhedron, fm::Overflow> {
        let mut p = self.clone();
        for (k, &v) in point[..d].iter().enumerate() {
            p.pin(k, v);
        }
        p.project_keep(d + 1, self.n_dims)
    }

    fn enum_rec(&self, d: usize, point: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) -> Option<()> {
        if d == self.n_dims {
            if self.contains(point) {
                out.push(point.clone());
            }
            return Some(());
        }
        let p = self.slice_at(d, point).ok()?;
        if p.has_false_constant() {
            return Some(());
        }
        let b = p.bounds(d, self.n_dims);
        let prefix: Vec<i64> = {
            let mut v = point.clone();
            // bounds expressions span all dims; zero out unknown tail.
            for x in v[d..].iter_mut() {
                *x = 0;
            }
            v
        };
        let lo: Option<Vec<i64>> = b.lower.iter().map(|e| e.eval_ceil(&prefix)).collect();
        let hi: Option<Vec<i64>> = b.upper.iter().map(|e| e.eval_floor(&prefix)).collect();
        let (lo, hi) = (lo?.into_iter().max()?, hi?.into_iter().min()?);
        for v in lo..=hi {
            point[d] = v;
            self.enum_rec(d + 1, point, out)?;
        }
        point[d] = 0;
        Some(())
    }

    /// Returns some integer point of the polyhedron, or `None` if none
    /// was found: the set is empty, unbounded, or its projections
    /// overflow `i64`. A witness search, never an emptiness proof.
    ///
    /// Asked once per distinct system while a [`memo::scope`] is alive.
    pub fn sample(&self) -> Option<Vec<i64>> {
        memo::sample(self, || self.compute_sample())
    }

    fn compute_sample(&self) -> Option<Vec<i64>> {
        // Reading a bound off a row negates it; `i64::MIN` cannot be.
        if self.rows.contains(&i64::MIN) {
            return None;
        }
        let mut point = vec![0i64; self.n_dims];
        if self.sample_rec(0, &mut point) {
            Some(point)
        } else {
            None
        }
    }

    fn sample_rec(&self, d: usize, point: &mut Vec<i64>) -> bool {
        if d == self.n_dims {
            return self.contains(point);
        }
        // No witness is found through an overflowing projection.
        let Ok(p) = self.slice_at(d, point) else {
            return false;
        };
        if p.has_false_constant() {
            return false;
        }
        let b = p.bounds(d, self.n_dims);
        let prefix: Vec<i64> = {
            let mut v = point.clone();
            for x in v[d..].iter_mut() {
                *x = 0;
            }
            v
        };
        // `None` from an evaluation: the bound does not fit `i64`, and
        // no witness is found through it either.
        let lo: Option<Vec<i64>> = b.lower.iter().map(|e| e.eval_ceil(&prefix)).collect();
        let hi: Option<Vec<i64>> = b.upper.iter().map(|e| e.eval_floor(&prefix)).collect();
        let lo = lo.and_then(|v| v.into_iter().max());
        let hi = hi.and_then(|v| v.into_iter().min());
        let (Some(lo), Some(hi)) = (lo, hi) else {
            return false; // Unbounded: refuse rather than loop forever.
        };
        // So is a dimension only corrupted input makes this wide.
        if hi.checked_sub(lo).is_none_or(|width| width > 1 << 32) {
            return false;
        }
        for v in lo..=hi {
            point[d] = v;
            if self.sample_rec(d + 1, point) {
                return true;
            }
        }
        point[d] = 0;
        false
    }
}

/// How the rows of a system use one dimension.
#[derive(Clone, Copy, Default)]
struct Uses {
    /// Inequalities bounding it from below (positive coefficient).
    lowers: i64,
    /// Inequalities bounding it from above.
    uppers: i64,
    /// Some equality mentions it.
    eq: bool,
}

impl Uses {
    fn mentioned(&self) -> bool {
        self.eq || self.lowers + self.uppers > 0
    }

    /// How much eliminating the dimension can grow the system: 0 for one
    /// handled by equality substitution or absent entirely, otherwise
    /// the number of lower×upper combinations minus the rows removed.
    fn elimination_cost(&self) -> i64 {
        if self.eq {
            return 0;
        }
        self.lowers * self.uppers - self.lowers - self.uppers
    }
}

/// A per-dimension interval box; `None` is unbounded on that side.
pub(crate) struct Hull {
    lo: Vec<Option<i64>>,
    hi: Vec<Option<i64>>,
    /// Propagation reached a fixpoint, not the sweep cap.
    settled: bool,
}

impl Hull {
    /// The box's lower corner: per dimension `lo`, else `hi`, else 0.
    pub(crate) fn corner(&self) -> Vec<i64> {
        let sides = self.lo.iter().zip(&self.hi);
        sides.map(|(lo, hi)| lo.or(*hi).unwrap_or(0)).collect()
    }

    /// The maximum (or minimum) of `row` over the box; `None` when some
    /// mentioned dimension is unbounded on the relevant side.
    fn extreme(&self, row: &[i64], want_max: bool) -> Option<i64> {
        let n = self.lo.len();
        let mut acc = row[n];
        for (v, &a) in row[..n].iter().enumerate() {
            if a != 0 {
                let side = if (a > 0) == want_max {
                    &self.hi
                } else {
                    &self.lo
                };
                acc = acc.saturating_add(a.saturating_mul(side[v]?));
            }
        }
        Some(acc)
    }
}

/// A system as interval propagation reads it: one directed row
/// `Σ a_v·x_v + k >= 0` per inequality and two per equality, holding
/// the non-zero terms only — the rows of loop nests and access
/// functions mention two or three dimensions of ten or twenty. The
/// buffers are reused from one state of an emptiness proof to the next.
#[derive(Default)]
pub(crate) struct Directed {
    /// `(v, a_v)`, row after row.
    terms: Vec<(usize, i64)>,
    /// Per row: where its terms end, and `k`.
    rows: Vec<(usize, i64)>,
}

impl Directed {
    /// Tightens `hull`, a box that contains `p`, by bounds propagation:
    /// for each row and each variable it mentions, solve the row for
    /// that variable using the current intervals of the others, and
    /// tighten. Iterates to a fixpoint (with a cap, since strict
    /// convergence can be slow on nearly-redundant chains). Sound —
    /// every interval still contains the true projection — but not
    /// exact.
    fn tighten(&mut self, p: &Polyhedron, hull: &mut Hull) {
        let n = p.n_dims;
        self.terms.clear();
        self.rows.clear();
        for c in p.constraints() {
            let from = self.terms.len();
            let terms = c.row[..n].iter().enumerate().filter(|t| *t.1 != 0);
            self.terms.extend(terms.map(|(v, &a)| (v, a)));
            let to = self.terms.len();
            self.rows.push((to, c.row[n]));
            if c.op == CmpOp::Eq {
                for i in from..to {
                    let (v, a) = self.terms[i];
                    self.terms.push((v, a.saturating_neg()));
                }
                let k = c.row[n].saturating_neg();
                self.rows.push((self.terms.len(), k));
            }
        }
        let (lo, hi) = (&mut hull.lo, &mut hull.hi);
        hull.settled = false;
        for _ in 0..(2 * n + 4) {
            let mut changed = false;
            let mut from = 0;
            for &(to, k) in &self.rows {
                let row = &self.terms[from..to];
                from = to;
                // row: Σ a_v·x_v + k >= 0, so for each v with a_v != 0:
                //   a_v·x_v >= -k - Σ_{u≠v} a_u·x_u >= -k - Σ_{u≠v} max(a_u·x_u).
                for &(v, a) in row {
                    let mut others = row.iter().filter(|t| t.0 != v);
                    let rhs = others.try_fold(k.saturating_neg(), |rhs, &(u, a_u)| {
                        // Maximum of a_u·x_u over the current interval.
                        let x = if a_u > 0 { hi[u] } else { lo[u] }?;
                        Some(rhs.saturating_sub(a_u.saturating_mul(x)))
                    });
                    // Saturated magnitudes carry no information (and would
                    // cascade overflows); treat them as unbounded.
                    // `unsigned_abs`: a saturated `i64::MIN` has no `abs`.
                    const HUGE: u64 = i64::MAX as u64 / 4;
                    let Some(rhs) = rhs.filter(|r| r.unsigned_abs() < HUGE) else {
                        continue;
                    };
                    if a > 0 {
                        let b = rhs.div_euclid(a) + i64::from(rhs.rem_euclid(a) != 0);
                        if lo[v].is_none_or(|cur| b > cur) {
                            lo[v] = Some(b);
                            changed = true;
                        }
                    } else {
                        let b = rhs.div_euclid(a);
                        if hi[v].is_none_or(|cur| b < cur) {
                            hi[v] = Some(b);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                hull.settled = true;
                break;
            }
        }
    }
}

impl fmt::Debug for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Polyhedron({} dims) {{", self.n_dims)?;
        for c in self.constraints() {
            writeln!(f, "  {c:?}")?;
        }
        write!(f, "}}")
    }
}

/// The lower/upper bound expressions of one dimension of a polyhedron.
#[derive(Clone, Debug)]
pub struct DimBounds {
    /// Combine with `max` of ceiling divisions.
    pub lower: Vec<AffineExpr>,
    /// Combine with `min` of floor divisions.
    pub upper: Vec<AffineExpr>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle 0 <= j <= i < 4.
    fn triangle() -> Polyhedron {
        let mut p = Polyhedron::universe(2);
        p.add(Constraint::ge(vec![1, 0, 0])); // i >= 0
        p.add(Constraint::ge(vec![-1, 0, 3])); // i <= 3
        p.add(Constraint::ge(vec![0, 1, 0])); // j >= 0
        p.add(Constraint::ge(vec![1, -1, 0])); // j <= i
        p
    }

    #[test]
    fn containment() {
        let t = triangle();
        assert!(t.contains(&[0, 0]));
        assert!(t.contains(&[3, 3]));
        assert!(!t.contains(&[2, 3]));
        assert!(!t.contains(&[4, 0]));
    }

    /// A value whose sum does not fit `i128` is undecided, and an
    /// undecided point is no member: on `MAX·x0 + (MAX−1)·x1 +
    /// (MAX−2)·x2 ≥ 0` the sum at `[MAX; 3]` is about `3·2^126` (an
    /// overflow panic in debug) and at `[-MAX; 3]` about `-3·2^126`,
    /// which wrapped to a positive value, a false membership.
    #[test]
    fn a_value_beyond_i128_is_no_membership() {
        let m = i64::MAX;
        let mut p = Polyhedron::universe(3);
        p.add(Constraint::ge(vec![m, m - 1, m - 2, 0]));
        let c = p.constraints().next().expect("one row");
        for pt in [[m; 3], [-m; 3]] {
            assert_eq!(c.eval(&pt), None);
            assert!(!c.holds(&pt) && !p.contains(&pt));
        }
        assert_eq!(c.eval(&[1, -1, 0]), Some(1));
        assert!(p.contains(&[1, -1, 0]) && !p.contains(&[0, 0, -1]));
    }

    /// A row at the edge of `i64` prints: `-i64::MIN` has no `i64`.
    #[test]
    fn a_row_holding_min_prints() {
        let c = Constraint::ge(vec![1, i64::MIN, i64::MIN]);
        let min = i64::MIN.unsigned_abs();
        assert_eq!(format!("{c:?}"), format!("x0 - {min}*x1 - {min} >= 0"));
    }

    #[test]
    fn enumeration_counts_triangle_points() {
        let t = triangle();
        let pts = t.enumerate().expect("bounded");
        assert_eq!(pts.len(), 4 + 3 + 2 + 1);
        // Lexicographic order check.
        let mut sorted = pts.clone();
        sorted.sort();
        assert_eq!(pts, sorted);
    }

    #[test]
    fn emptiness() {
        let mut p = triangle();
        assert!(!p.is_empty());
        p.add(Constraint::ge(vec![0, 1, -10])); // j >= 10 contradicts j <= 3
        assert!(p.is_empty());
    }

    #[test]
    fn equality_lattice_emptiness() {
        // 0 <= x < 10, 2x == 5 : rationally nonempty, integrally empty.
        let mut p = Polyhedron::universe(1);
        p.bound_const(0, 0, 10);
        p.add(Constraint::eq(vec![2, -5]));
        assert!(p.is_empty());
    }

    #[test]
    fn projection_of_triangle_onto_i() {
        let t = triangle();
        let p = t.eliminate(1).expect("no overflow");
        // After eliminating j the projection is 0 <= i <= 3.
        assert!(p.contains(&[0, 99]));
        assert!(p.contains(&[3, -7]));
        assert!(!p.contains(&[4, 0]));
        assert!(!p.contains(&[-1, 0]));
    }

    #[test]
    fn bounds_extraction() {
        let t = triangle();
        // Inner dim j: bounds given i.
        let b = t.bounds(1, 2);
        assert_eq!(b.lower.len(), 1);
        assert_eq!(b.upper.len(), 1);
        assert_eq!(b.lower[0].eval_ceil(&[2, 0]), Some(0));
        assert_eq!(b.upper[0].eval_floor(&[2, 0]), Some(2));
    }

    #[test]
    fn fix_pins_dimension() {
        let t = triangle();
        let p = t.fix(0, 2);
        let pts = p.enumerate().expect("bounded");
        assert_eq!(pts, vec![vec![2, 0], vec![2, 1], vec![2, 2]]);
    }

    #[test]
    fn sample_finds_point_or_none() {
        let t = triangle();
        let s = t.sample().unwrap();
        assert!(t.contains(&s));
        let mut empty = triangle();
        empty.add(Constraint::ge(vec![-1, 0, -1])); // i <= -1
        assert!(empty.sample().is_none());
    }

    /// Two rows with coprime coefficients near 2^40 through the known
    /// point (3, 5): eliminating `x` multiplies them pairwise (≈ 2^80).
    /// Wrapped to `i64`, the combined row of either system reads
    /// `w·y + k >= 0` with `w, k < 0`, contradicting `y >= 0` — a false
    /// emptiness proof. With the first row an inequality the overflow is
    /// in the pairwise combination, with an equality in the substitution.
    #[test]
    fn coefficient_overflow_is_not_an_emptiness_proof() {
        let cases = [
            (
                CmpOp::Ge,
                [1099511570161, -1099512463429, 2199027607244],
                [-1099512630455, 1099510857907, -2199016398024],
            ),
            (
                CmpOp::Eq,
                [1099512676043, -1099512596537, 2199024954556],
                [-1099512669827, 1099510759759, -2199015788802],
            ),
        ];
        for (op, first, second) in cases {
            let mut p = Polyhedron::universe(2);
            p.bound_const(0, 0, 11);
            p.bound_const(1, 0, 11);
            p.add(Constraint {
                row: first.to_vec(),
                op,
            });
            p.add(Constraint::ge(second.to_vec()));
            assert!(p.contains(&[3, 5]));
            assert!(!p.is_empty(), "{op:?}: overflow read as a proof");
            assert_eq!(p.eliminate(0), Err(fm::Overflow));
            assert_eq!(p.project_keep(0, 1), Err(fm::Overflow));
            // The witness search may give up, but never invents a point.
            assert!(p.sample().is_none_or(|pt| p.contains(&pt)));
        }
    }

    /// Each obligation constructor adds exactly the row one would build
    /// by hand, and means what it says.
    #[test]
    fn obligation_constructors_equal_the_hand_built_rows() {
        let t = triangle();
        let row = [2, -1, 3]; // 2i - j + 3
        let with = |c: Constraint| {
            let mut p = t.clone();
            p.add(c);
            p
        };
        assert_eq!(t.and_ge(&row, 5), with(Constraint::ge(vec![2, -1, -2])));
        assert_eq!(t.and_le(&row, 5), with(Constraint::ge(vec![-2, 1, 2])));
        assert_eq!(t.and_eq0(&row), with(Constraint::eq(vec![2, -1, 3])));
        let value = |p: &[i64]| 2 * p[0] - p[1] + 3;
        let points = t.enumerate().expect("bounded");
        let such_that = |keep: &dyn Fn(i64) -> bool| -> Vec<Vec<i64>> {
            points.iter().filter(|p| keep(value(p))).cloned().collect()
        };
        assert_eq!(t.and_ge(&row, 5).enumerate().expect("bounded"), such_that(&|v| v >= 5));
        assert_eq!(t.and_le(&row, 5).enumerate().expect("bounded"), such_that(&|v| v <= 5));
        assert_eq!(t.and_eq0(&[1, -2, 0]).enumerate().expect("bounded"), [[0, 0], [2, 1]]);
    }

    /// An obligation whose row does not fit `i64` is dropped: the result
    /// is a superset of the intended set, never proven empty. The first
    /// case is true everywhere (`i64::MIN <= 0`), and its hand-built row
    /// `-row >= 0` wraps to the explicitly false `i64::MIN >= 0`.
    #[test]
    fn obligation_that_overflows_is_a_superset_not_a_proof() {
        let t = triangle();
        for p in [
            t.and_le(&[0, 0, i64::MIN], 0),  // 0 - MIN
            t.and_le(&[i64::MIN, 0, 0], -1), // -MIN
            t.and_ge(&[1, 0, i64::MIN], 1),  // MIN - 1
            t.and_ge(&[1, 0, 0], i64::MIN).and_le(&[1, 0, 0], i64::MAX),
        ] {
            assert!(p.contains(&[3, 3]) && p.contains(&[0, 0]));
            assert!(!p.is_empty());
        }
        // Extreme coefficients that do fit are kept, and survive the
        // emptiness test and the witness search without aborting.
        let kept = t.and_ge(&[i64::MIN, 1, 0], 0);
        let kept = kept.and_eq0(&[i64::MAX, i64::MIN, 0]);
        assert_eq!(kept.constraints().len(), t.constraints().len() + 2);
        assert!(kept.contains(&[0, 0]) && !kept.contains(&[1, 0]));
        assert!(!kept.is_empty());
        assert!(kept.sample().is_none_or(|pt| kept.contains(&pt)));
    }

    /// What callers see of the storage: systems compare and hash row by
    /// row in insertion order (the memo key), a row already held is not
    /// added again, an integrally infeasible equality becomes an
    /// explicitly false row, and an in-place obligation that overflows
    /// adds nothing.
    #[test]
    fn storage_keeps_insertion_order_and_no_duplicate() {
        use std::collections::HashSet;
        let rows = |p: &Polyhedron| -> Vec<(Vec<i64>, CmpOp)> {
            p.constraints().map(|c| (c.row.to_vec(), c.op)).collect()
        };
        let t = triangle();
        let mut again = triangle();
        again.add(Constraint::ge(vec![3, 0, 2])); // 3i + 2 >= 0 tightens to i >= 0
        again.add_ge(&[-1, 0, 0], -3); // i <= 3, held
        assert_eq!(again, t);
        assert_eq!(rows(&again).len(), 4);
        let mut reordered = Polyhedron::universe(2);
        for (row, op) in rows(&t).into_iter().rev() {
            reordered.add(Constraint { row, op });
        }
        assert_ne!(reordered, t);
        let seen: HashSet<Polyhedron> = [t.clone(), again, reordered].into();
        assert_eq!(seen.len(), 2);
        // An equality is not the inequality with the same row.
        let eq = t.and_eq0(&[1, -1, 0]);
        assert_eq!(rows(&eq).len(), 5);
        assert_eq!(rows(&eq.and_eq0(&[2, -2, 0])).len(), 5);
        // 2i = 2j + 1 has no integer solution: an explicitly false row,
        // which is recorded each time it is found.
        let odd = t.and_eq0(&[2, -2, -1]);
        assert_eq!(rows(&odd)[4], (vec![0, 0, -1], CmpOp::Ge));
        assert!(odd.is_empty());
        assert_eq!(rows(&odd.and_eq0(&[4, -4, 2])).len(), 6);
        let mut dropped = t.clone();
        dropped.add_le(&[0, 0, i64::MIN], 0);
        dropped.add_ge(&[1, 0, i64::MIN], 1);
        dropped.add_le(&[i64::MIN, 0, 0], -1);
        assert_eq!(dropped, t);
    }

    #[test]
    fn intersect_is_conjunction() {
        let t = triangle();
        let mut half = Polyhedron::universe(2);
        half.add(Constraint::ge(vec![1, 0, -2])); // i >= 2
        let x = t.intersect(&half);
        let pts = x.enumerate().expect("bounded");
        assert!(pts.iter().all(|p| p[0] >= 2));
        assert_eq!(pts.len(), 3 + 4);
    }

    #[test]
    fn simplify_drops_implied_constraints() {
        let mut p = Polyhedron::universe(1);
        p.add(Constraint::ge(vec![1, 0])); // x >= 0
        p.add(Constraint::ge(vec![1, 5])); // x >= -5 (implied)
        p.add(Constraint::ge(vec![-1, 9])); // x <= 9
        p.add(Constraint::ge(vec![-1, 20])); // x <= 20 (implied)
        let sp = p.simplify();
        assert_eq!(sp.constraints().len(), 2, "{sp:?}");
        assert_eq!(sp.enumerate().expect("bounded"), p.enumerate().expect("bounded"));
    }

    #[test]
    fn simplify_keeps_tight_triangular_constraints() {
        let t = triangle().simplify();
        assert_eq!(t.enumerate().expect("bounded").len(), 10);
        // i >= 0 is implied by j >= 0 ∧ j <= i: three rows remain.
        assert_eq!(t.constraints().len(), 3);
    }

    #[test]
    fn simplify_preserves_equalities() {
        let mut p = Polyhedron::universe(2);
        p.add(Constraint::eq(vec![1, -1, 0])); // x == y
        p.bound_const(0, 0, 5);
        let sp = p.simplify();
        assert!(sp.constraints().any(|c| c.op == CmpOp::Eq));
        assert_eq!(sp.enumerate().expect("bounded"), p.enumerate().expect("bounded"));
    }

    #[test]
    fn skewed_set_bounds_are_triangular() {
        // { (t, x) : 0 <= t < 4, t <= x < t + 4 } — a skewed band.
        let mut p = Polyhedron::universe(2);
        p.bound_const(0, 0, 4);
        p.add(Constraint::ge(vec![-1, 1, 0])); // x >= t
        p.add(Constraint::ge(vec![1, -1, 3])); // x <= t + 3
        assert_eq!(p.enumerate().expect("bounded").len(), 16);
        let b = p.bounds(1, 2);
        assert_eq!(b.lower[0].eval_ceil(&[2, 0]), Some(2));
        assert_eq!(b.upper[0].eval_floor(&[2, 0]), Some(5));
    }
}
