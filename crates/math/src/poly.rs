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
use crate::memo;
use std::fmt;

/// Constraint comparison operator, interpreted as `coeffs · x + c OP 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `coeffs · x + c >= 0`
    Ge,
    /// `coeffs · x + c == 0`
    Eq,
}

/// A single affine constraint `coeffs[..n] · x + coeffs[n] OP 0`.
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

    /// Coefficient of dimension `d`.
    pub fn coeff(&self, d: usize) -> i64 {
        self.row[d]
    }

    /// The constant term.
    pub fn constant(&self) -> i64 {
        *self.row.last().expect("empty constraint row")
    }

    /// Number of dimensions the constraint spans.
    pub fn n_dims(&self) -> usize {
        self.row.len() - 1
    }

    /// Evaluates `coeffs · point + c`, clamped to `i64`: computed in
    /// `i128`, so the sign and zero-ness [`Constraint::holds`] reads
    /// survive coefficients at the edge of `i64`.
    pub fn eval(&self, point: &[i64]) -> i64 {
        assert_eq!(point.len(), self.n_dims(), "point arity mismatch");
        let products = self.row.iter().zip(point);
        let products = products.map(|(&a, &x)| i128::from(a) * i128::from(x));
        let v = products.sum::<i128>() + i128::from(self.constant());
        v.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
    }

    /// True iff `point` satisfies the constraint.
    pub fn holds(&self, point: &[i64]) -> bool {
        let v = self.eval(point);
        match self.op {
            CmpOp::Ge => v >= 0,
            CmpOp::Eq => v == 0,
        }
    }

    /// True when the constraint mentions dimension `d`.
    pub fn mentions(&self, d: usize) -> bool {
        self.row[d] != 0
    }
}

impl fmt::Debug for Constraint {
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
                write!(f, " - {}*x{d}", -a)?;
            }
        }
        let c = self.constant();
        if first {
            write!(f, "{c}")?;
        } else if c > 0 {
            write!(f, " + {c}")?;
        } else if c < 0 {
            write!(f, " - {}", -c)?;
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
        let fake = Constraint::ge(self.row.clone());
        let body = format!("{fake:?}");
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
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Polyhedron {
    n_dims: usize,
    constraints: Vec<Constraint>,
}

impl Polyhedron {
    /// The universe polyhedron over `n_dims` dimensions.
    pub fn universe(n_dims: usize) -> Polyhedron {
        Polyhedron {
            n_dims,
            constraints: Vec::new(),
        }
    }

    /// Number of dimensions.
    pub fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// Borrows the constraint list.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds one constraint (with normalization / gcd tightening).
    pub fn add(&mut self, mut c: Constraint) {
        assert_eq!(c.n_dims(), self.n_dims, "constraint arity mismatch");
        match c.op {
            CmpOp::Ge => {
                normalize_row(&mut c.row);
            }
            CmpOp::Eq => {
                if !normalize_eq_row(&mut c.row) {
                    // Integrally infeasible equality: record an explicitly
                    // false constraint so emptiness tests succeed fast.
                    self.constraints.push(Constraint::ge(
                        std::iter::repeat(0)
                            .take(self.n_dims)
                            .chain(std::iter::once(-1))
                            .collect(),
                    ));
                    return;
                }
            }
        }
        if !self.constraints.contains(&c) {
            self.constraints.push(c);
        }
    }

    /// Adds `x_d >= lo` and `x_d <= hi - 1`, i.e. the half-open interval
    /// `lo <= x_d < hi` with constant bounds. Convenience for tests.
    pub fn bound_const(&mut self, d: usize, lo: i64, hi: i64) {
        let mut x_d = vec![0; self.n_dims + 1];
        x_d[d] = 1;
        *self = self.and_ge(&x_d, lo).and_le(&x_d, hi - 1);
    }

    /// Intersection of two polyhedra over the same space.
    pub fn intersect(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.n_dims, other.n_dims, "space mismatch in intersect");
        let mut out = self.clone();
        for c in &other.constraints {
            out.add(c.clone());
        }
        out
    }

    /// `self ∧ row ≥ bound`, with `row` an affine form over this space
    /// (`n_dims` coefficients, then the constant).
    ///
    /// With [`Polyhedron::and_le`] and [`Polyhedron::and_eq0`] this is
    /// the vocabulary every certifier phrases its obligations in: build
    /// the set of counter-examples, then ask [`Polyhedron::is_empty`].
    /// The arithmetic is checked; a row that does not fit `i64` is
    /// *dropped*, leaving a superset of the intended set, whose
    /// emptiness therefore still proves the obligation and whose
    /// non-emptiness reads as "not proven" — the same exit
    /// [`Polyhedron::eliminate_many`] takes on overflow.
    pub fn and_ge(&self, row: &[i64], bound: i64) -> Polyhedron {
        let (k, coeffs) = row.split_last().expect("empty constraint row");
        let r = k.checked_sub(bound).map(|k| [coeffs, &[k]].concat());
        self.and(r, CmpOp::Ge)
    }

    /// `self ∧ row ≤ bound`; see [`Polyhedron::and_ge`].
    pub fn and_le(&self, row: &[i64], bound: i64) -> Polyhedron {
        let (k, coeffs) = row.split_last().expect("empty constraint row");
        let r = bound.checked_sub(*k).and_then(|k| {
            let negated = coeffs.iter().map(|a| a.checked_neg());
            negated.chain([Some(k)]).collect::<Option<Vec<i64>>>()
        });
        self.and(r, CmpOp::Ge)
    }

    /// `self ∧ row = 0`; see [`Polyhedron::and_ge`].
    pub fn and_eq0(&self, row: &[i64]) -> Polyhedron {
        self.and(Some(row.to_vec()), CmpOp::Eq)
    }

    /// A copy with `row OP 0` added — or without it, when building the
    /// row overflowed.
    fn and(&self, row: Option<Vec<i64>>, op: CmpOp) -> Polyhedron {
        let mut p = self.clone();
        if let Some(row) = row {
            p.add(Constraint { row, op });
        }
        p
    }

    /// True iff the integer point satisfies every constraint.
    pub fn contains(&self, point: &[i64]) -> bool {
        self.constraints.iter().all(|c| c.holds(point))
    }

    /// Eliminates dimension `d` by exact equality substitution where
    /// possible and Fourier–Motzkin combination otherwise. The resulting
    /// polyhedron still has `n_dims` dimensions but no constraint mentions
    /// `d` (its projection along `d`). `Err` when a combined coefficient
    /// does not fit `i64`; nothing can be concluded from such a step.
    pub fn eliminate(&self, d: usize) -> Result<Polyhedron, fm::Overflow> {
        assert!(d < self.n_dims, "eliminate: dimension out of range");
        let rows = fm::eliminate_dim(&self.constraints, d)?;
        let mut out = Polyhedron::universe(self.n_dims);
        for c in rows {
            out.add(c);
        }
        Ok(out)
    }

    /// Projects onto the first `k` dimensions by eliminating all others
    /// (dimension count is preserved; eliminated columns become zero).
    /// Dimensions at or beyond `keep_from` (e.g. parameters placed at the
    /// tail of the space) can be retained by passing their start index.
    pub fn project_keep(&self, k: usize, keep_from: usize) -> Result<Polyhedron, fm::Overflow> {
        let mut p = self.clone();
        for d in (k..keep_from).rev() {
            p = p.eliminate(d)?;
        }
        Ok(p)
    }

    /// Rational (hence integer-conservative) emptiness test: eliminates
    /// every dimension and checks whether a contradictory constant
    /// constraint remains. Thanks to gcd tightening, exact equality
    /// substitution, and stratified-equality splitting (which recovers
    /// the digit-wise structure of linearized array addresses such as
    /// `N·i + j`), the test is exact on all sets built from
    /// PolyBench-style programs, including two-copy conflict systems
    /// over linearized addresses.
    ///
    /// Asked once per distinct system while a [`memo::scope`] is alive.
    pub fn is_empty(&self) -> bool {
        memo::is_empty(self, || self.compute_is_empty())
    }

    fn compute_is_empty(&self) -> bool {
        // Fast path: an explicitly false constraint.
        if self.has_false_constant() {
            return true;
        }
        let mut p = self.clone();
        p.split_stratified_equalities();
        let dims: Vec<usize> = (0..self.n_dims).collect();
        p = p.eliminate_many(&dims);
        p.has_false_constant()
    }

    /// Eliminates every dimension in `dims`, returning the shadow over
    /// the remaining ones. Same greedy order, dominated-row pruning and
    /// interval-hull reduction as [`Polyhedron::is_empty`] (hull rows
    /// and hull-implied drops are equivalence-preserving, so the shadow
    /// is unchanged by them). The result is the rational shadow — a
    /// sound over-approximation of the integer projection. When row
    /// growth exceeds the internal cap, or a combined coefficient does
    /// not fit `i64`, remaining dimensions are dropped *unconstrained*
    /// (still a sound over-approximation).
    pub fn eliminate_many(&self, dims: &[usize]) -> Polyhedron {
        let mut p = self.clone();
        // Interval-hull fast path: propagation alone often refutes the
        // system (or proves most rows redundant) long before
        // Fourier–Motzkin would, and on densely coupled systems — e.g.
        // skewed wavefront remappings — FM row growth is explosive
        // without this pre-pass.
        if p.hull_reduce() {
            return Polyhedron::contradiction(self.n_dims);
        }
        let mut remaining: Vec<usize> = dims.to_vec();
        while !remaining.is_empty() {
            // Greedy elimination order: substitution steps (a dimension
            // pinned by an equality) are free, then the dimension whose
            // lower×upper product grows the system least. Any order is
            // sound for Fourier–Motzkin; a bad fixed order can square
            // the constraint count at every step on the wide two-copy
            // systems the certifier builds.
            let (pos, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, &d)| (i, p.elimination_cost(d)))
                .min_by_key(|&(_, cost)| cost)
                .expect("non-empty remaining");
            let Ok(next) = p.eliminate(remaining[pos]) else {
                return p.unconstrain(&remaining);
            };
            remaining.swap_remove(pos);
            p = next;
            p.prune_dominated();
            if p.has_false_constant() {
                return Polyhedron::contradiction(self.n_dims);
            }
            // Re-tighten between steps: combined rows often become
            // hull-refutable or hull-redundant long before further
            // elimination would expose the contradiction.
            if p.hull_reduce() {
                return Polyhedron::contradiction(self.n_dims);
            }
            if p.constraints.len() > 4000 {
                return p.unconstrain(&remaining);
            }
        }
        p
    }

    /// The exit [`Polyhedron::eliminate_many`] takes when it cannot go
    /// on (a coefficient overflowed, or row growth is out of hand):
    /// every row mentioning one of `dims` is dropped, leaving those
    /// dimensions unconstrained. Sound: the result is a (wider)
    /// over-approximation of the shadow, and for emptiness tests it
    /// reads as "not proven empty".
    fn unconstrain(mut self, dims: &[usize]) -> Polyhedron {
        self.constraints
            .retain(|c| dims.iter().all(|&d| !c.mentions(d)));
        self
    }

    /// The canonical empty polyhedron: a single explicitly false row.
    fn contradiction(n_dims: usize) -> Polyhedron {
        let mut row = vec![0i64; n_dims + 1];
        row[n_dims] = -1;
        Polyhedron {
            n_dims,
            constraints: vec![Constraint::ge(row)],
        }
    }

    /// How much eliminating dimension `d` can grow the system: 0 for a
    /// dimension handled by equality substitution or absent entirely,
    /// otherwise the number of lower×upper combinations minus the rows
    /// removed.
    fn elimination_cost(&self, d: usize) -> i64 {
        let mut lowers = 0i64;
        let mut uppers = 0i64;
        for c in &self.constraints {
            let a = c.coeff(d);
            if a == 0 {
                continue;
            }
            if c.op == CmpOp::Eq {
                return 0;
            }
            if a > 0 {
                lowers += 1;
            } else {
                uppers += 1;
            }
        }
        lowers * uppers - lowers - uppers
    }

    /// Per-dimension interval hull by bounds propagation: for each row
    /// and each variable it mentions, solve the row for that variable
    /// using the current intervals of the others, and tighten. Iterates
    /// to a fixpoint (with a cap, since strict convergence can be slow
    /// on nearly-redundant chains). Sound — every returned interval
    /// contains the true projection — but not exact.
    fn interval_hull(&self) -> Vec<(Option<i64>, Option<i64>)> {
        let n = self.n_dims;
        let mut lo: Vec<Option<i64>> = vec![None; n];
        let mut hi: Vec<Option<i64>> = vec![None; n];
        // One directed row per inequality; equalities contribute both
        // directions.
        let mut rows: Vec<Vec<i64>> = Vec::new();
        for c in &self.constraints {
            rows.push(c.row.clone());
            if c.op == CmpOp::Eq {
                rows.push(c.row.iter().map(|&x| x.saturating_neg()).collect());
            }
        }
        for _ in 0..(2 * n + 4) {
            let mut changed = false;
            for row in &rows {
                // row: Σ a_v·x_v + k >= 0, so for each v with a_v != 0:
                //   a_v·x_v >= -k - Σ_{u≠v} a_u·x_u >= -k - Σ_{u≠v} max(a_u·x_u).
                for v in 0..n {
                    let a = row[v];
                    if a == 0 {
                        continue;
                    }
                    let mut rhs: i64 = row[n].saturating_neg();
                    let mut bounded = true;
                    for u in 0..n {
                        if u == v || row[u] == 0 {
                            continue;
                        }
                        // Maximum of a_u·x_u over the current interval.
                        let m = if row[u] > 0 { hi[u] } else { lo[u] };
                        match m {
                            Some(x) => rhs = rhs.saturating_sub(row[u].saturating_mul(x)),
                            None => {
                                bounded = false;
                                break;
                            }
                        }
                    }
                    if !bounded {
                        continue;
                    }
                    // Saturated magnitudes carry no information (and would
                    // cascade overflows); treat them as unbounded.
                    // `unsigned_abs`: a saturated `i64::MIN` has no `abs`.
                    const HUGE: u64 = i64::MAX as u64 / 4;
                    if rhs.unsigned_abs() >= HUGE {
                        continue;
                    }
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
                break;
            }
        }
        lo.into_iter().zip(hi).collect()
    }

    /// Interval-hull reduction. Returns `true` when propagation alone
    /// refutes the system (a row infeasible over the hull, or an empty
    /// per-dimension interval). Otherwise materializes the hull as
    /// explicit interval rows and drops every original row the hull
    /// implies — an equivalence-preserving rewrite (the hull rows are
    /// consequences of the full system, and a row satisfied everywhere
    /// on the hull adds nothing once the hull is explicit) that
    /// typically collapses densely coupled systems to a small core
    /// before Fourier–Motzkin runs.
    fn hull_reduce(&mut self) -> bool {
        let n = self.n_dims;
        let hull = self.interval_hull();
        for &(lo, hi) in &hull {
            if let (Some(lo), Some(hi)) = (lo, hi) {
                if lo > hi {
                    return true;
                }
            }
        }
        // Row extremes over the hull: min (for redundancy) and max (for
        // refutation); `None` when some mentioned dimension is unbounded
        // on the relevant side.
        let extreme = |row: &[i64], want_max: bool| -> Option<i64> {
            let mut acc = row[n];
            for v in 0..n {
                let a = row[v];
                if a == 0 {
                    continue;
                }
                let pick = if (a > 0) == want_max { hull[v].1 } else { hull[v].0 };
                acc = acc.saturating_add(a.saturating_mul(pick?));
            }
            Some(acc)
        };
        let mut kept = Vec::with_capacity(self.constraints.len());
        for c in std::mem::take(&mut self.constraints) {
            match c.op {
                CmpOp::Ge => {
                    if extreme(&c.row, true).is_some_and(|mx| mx < 0) {
                        return true;
                    }
                    if extreme(&c.row, false).is_some_and(|mn| mn >= 0) {
                        continue; // implied by the hull rows added below
                    }
                }
                CmpOp::Eq => {
                    if extreme(&c.row, true).is_some_and(|mx| mx < 0)
                        || extreme(&c.row, false).is_some_and(|mn| mn > 0)
                    {
                        return true;
                    }
                }
            }
            kept.push(c);
        }
        self.constraints = kept;
        for (v, &(lo, hi)) in hull.iter().enumerate() {
            if let Some(lo) = lo {
                let mut row = vec![0i64; n + 1];
                row[v] = 1;
                row[n] = -lo;
                self.add(Constraint::ge(row));
            }
            if let Some(hi) = hi {
                let mut row = vec![0i64; n + 1];
                row[v] = -1;
                row[n] = hi;
                self.add(Constraint::ge(row));
            }
        }
        false
    }

    /// Integer tightening of mixed-scale equalities (the Omega test's
    /// equality stratification): a row `m·A(x) + L(x) == 0` whose
    /// low-order part `L` (the terms not divisible by the dominant
    /// coefficient `m`, plus the constant) provably lies in `(-m, m)`
    /// forces `A(x) == 0` and `L(x) == 0` over the integers — the
    /// rational relaxation keeps fractional solutions that mix the
    /// strata. This is exactly the structure of linearized array
    /// addresses (`N·i + j` with `0 <= j < N`), so without the split a
    /// two-copy conflict system over such addresses is rationally
    /// feasible even when no integer conflict exists. Applied to a
    /// fixpoint so multi-level linearizations (`N²·i + N·j + k`) peel
    /// one stratum per round.
    fn split_stratified_equalities(&mut self) {
        let n = self.n_dims;
        for _ in 0..8 {
            let hull = self.interval_hull();
            let mut extra: Vec<Constraint> = Vec::new();
            let mut drop: Vec<usize> = Vec::new();
            for (i, c) in self.constraints.iter().enumerate() {
                if c.op != CmpOp::Eq {
                    continue;
                }
                // A dominant coefficient of `i64::MIN` has no `abs`; such
                // a row is left unsplit.
                let m = c.row[..n].iter().map(|a| a.unsigned_abs()).max();
                let Ok(m) = i64::try_from(m.unwrap_or(0)) else {
                    continue;
                };
                if m <= 1 {
                    continue;
                }
                let low: Vec<usize> = (0..n)
                    .filter(|&v| c.row[v] != 0 && c.row[v] % m != 0)
                    .collect();
                if low.is_empty() {
                    continue;
                }
                // Bound L = Σ_low a_v·x_v + k over the interval hull.
                let (mut l_lo, mut l_hi) = (c.row[n], c.row[n]);
                let mut bounded = true;
                for &v in &low {
                    let a = c.row[v];
                    let (vlo, vhi) = hull[v];
                    let (Some(vlo), Some(vhi)) = (vlo, vhi) else {
                        bounded = false;
                        break;
                    };
                    let (t1, t2) = (a.saturating_mul(vlo), a.saturating_mul(vhi));
                    l_lo = l_lo.saturating_add(t1.min(t2));
                    l_hi = l_hi.saturating_add(t1.max(t2));
                }
                if !bounded || l_lo <= -m || l_hi >= m {
                    continue;
                }
                // Split: the high-order stratum (divided by m) and the
                // low-order remainder must each vanish.
                let mut high_row = vec![0i64; n + 1];
                let mut low_row = vec![0i64; n + 1];
                for v in 0..n {
                    if c.row[v] % m == 0 {
                        high_row[v] = c.row[v] / m;
                    } else {
                        low_row[v] = c.row[v];
                    }
                }
                low_row[n] = c.row[n];
                extra.push(Constraint::eq(high_row));
                extra.push(Constraint::eq(low_row));
                drop.push(i);
            }
            if extra.is_empty() {
                return;
            }
            for &i in drop.iter().rev() {
                self.constraints.remove(i);
            }
            for c in extra {
                self.add(c);
            }
        }
    }

    /// Drops inequality rows dominated by another row with identical
    /// coefficients and a constant at least as tight. Rows are already
    /// gcd-normalized by [`Polyhedron::add`], so syntactic comparison of
    /// the coefficient vector is enough. Keeps Fourier–Motzkin blowup in
    /// check between eliminations.
    fn prune_dominated(&mut self) {
        use std::collections::HashMap;
        let n = self.n_dims;
        let mut best: HashMap<Vec<i64>, i64> = HashMap::new();
        for c in &self.constraints {
            if c.op != CmpOp::Ge {
                continue;
            }
            let e = best.entry(c.row[..n].to_vec()).or_insert(c.constant());
            // `coeffs·x + k >= 0`: the smaller constant is the tighter row.
            *e = (*e).min(c.constant());
        }
        let mut kept = Vec::with_capacity(self.constraints.len());
        for c in std::mem::take(&mut self.constraints) {
            if c.op == CmpOp::Ge && best.get(&c.row[..n]) != Some(&c.constant()) {
                continue;
            }
            kept.push(c);
        }
        self.constraints = kept;
    }

    fn has_false_constant(&self) -> bool {
        self.constraints.iter().any(|c| {
            let n = c.n_dims();
            c.row[..n].iter().all(|&a| a == 0)
                && match c.op {
                    CmpOp::Ge => c.constant() < 0,
                    CmpOp::Eq => c.constant() != 0,
                }
        })
    }

    /// Substitutes the fixed integer `value` for dimension `d`; the
    /// dimension remains in the space but is pinned by an equality.
    pub fn fix(&self, d: usize, value: i64) -> Polyhedron {
        let mut out = self.clone();
        let mut row = vec![0; self.n_dims + 1];
        row[d] = 1;
        row[self.n_dims] = -value;
        out.add(Constraint::eq(row));
        out
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
        for c in &self.constraints {
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
            let mut rest = c.row.clone();
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
        let mut kept: Vec<Constraint> = self
            .constraints
            .iter()
            .filter(|c| c.op == CmpOp::Eq)
            .cloned()
            .collect();
        let ineqs: Vec<Constraint> = self
            .constraints
            .iter()
            .filter(|c| c.op == CmpOp::Ge)
            .cloned()
            .collect();
        for (i, c) in ineqs.iter().enumerate() {
            // System: all equalities + other (not yet dropped) inequalities
            // + ¬c  (i.e. row <= -1). If empty, c is implied.
            let mut sys = Polyhedron::universe(self.n_dims);
            for k in &kept {
                sys.add(k.clone());
            }
            for (j, o) in ineqs.iter().enumerate() {
                if j > i {
                    sys.add(o.clone());
                }
            }
            if !sys.and_le(&c.row, -1).is_empty() {
                kept.push(c.clone());
            }
        }
        Polyhedron {
            n_dims: self.n_dims,
            constraints: kept,
        }
    }

    /// Enumerates every integer point of a *bounded* polyhedron in
    /// lexicographic order of its dimensions. Panics (via assert) if any
    /// dimension turns out unbounded. Intended for tests and the
    /// trace-driven cache simulator on miniature problem sizes.
    pub fn enumerate(&self) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        let mut point = vec![0i64; self.n_dims];
        self.enum_rec(0, &mut point, &mut out);
        out
    }

    fn enum_rec(&self, d: usize, point: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
        if d == self.n_dims {
            if self.contains(point) {
                out.push(point.clone());
            }
            return;
        }
        // Project away dims > d to get bounds on d given point[..d].
        let mut p = self.clone();
        for (k, &v) in point[..d].iter().enumerate() {
            p = p.fix(k, v);
        }
        for inner in (d + 1..self.n_dims).rev() {
            p = p.eliminate(inner).expect("enumerate: coefficient overflow");
        }
        if p.has_false_constant() {
            return;
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
        let fits = "enumerate: bound overflows i64";
        let lo = b
            .lower
            .iter()
            .map(|e| e.eval_ceil(&prefix).expect(fits))
            .max()
            .expect("enumerate: dimension unbounded below");
        let hi = b
            .upper
            .iter()
            .map(|e| e.eval_floor(&prefix).expect(fits))
            .min()
            .expect("enumerate: dimension unbounded above");
        for v in lo..=hi {
            point[d] = v;
            self.enum_rec(d + 1, point, out);
        }
        point[d] = 0;
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
        if self.constraints.iter().any(|c| c.row.contains(&i64::MIN)) {
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
        let mut p = self.clone();
        for (k, &v) in point[..d].iter().enumerate() {
            p = p.fix(k, v);
        }
        for inner in (d + 1..self.n_dims).rev() {
            // No witness is found through an overflowing projection.
            let Ok(next) = p.eliminate(inner) else {
                return false;
            };
            p = next;
        }
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

impl fmt::Debug for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Polyhedron({} dims) {{", self.n_dims)?;
        for c in &self.constraints {
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

    #[test]
    fn enumeration_counts_triangle_points() {
        let t = triangle();
        let pts = t.enumerate();
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
        let pts = p.enumerate();
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
        let points = t.enumerate();
        let such_that = |keep: &dyn Fn(i64) -> bool| -> Vec<Vec<i64>> {
            points.iter().filter(|p| keep(value(p))).cloned().collect()
        };
        assert_eq!(t.and_ge(&row, 5).enumerate(), such_that(&|v| v >= 5));
        assert_eq!(t.and_le(&row, 5).enumerate(), such_that(&|v| v <= 5));
        assert_eq!(t.and_eq0(&[1, -2, 0]).enumerate(), [[0, 0], [2, 1]]);
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

    #[test]
    fn intersect_is_conjunction() {
        let t = triangle();
        let mut half = Polyhedron::universe(2);
        half.add(Constraint::ge(vec![1, 0, -2])); // i >= 2
        let x = t.intersect(&half);
        let pts = x.enumerate();
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
        assert_eq!(sp.enumerate(), p.enumerate());
    }

    #[test]
    fn simplify_keeps_tight_triangular_constraints() {
        let t = triangle().simplify();
        assert_eq!(t.enumerate().len(), 10);
        // i >= 0 is implied by j >= 0 ∧ j <= i: three rows remain.
        assert_eq!(t.constraints().len(), 3);
    }

    #[test]
    fn simplify_preserves_equalities() {
        let mut p = Polyhedron::universe(2);
        p.add(Constraint::eq(vec![1, -1, 0])); // x == y
        p.bound_const(0, 0, 5);
        let sp = p.simplify();
        assert!(sp.constraints().iter().any(|c| c.op == CmpOp::Eq));
        assert_eq!(sp.enumerate(), p.enumerate());
    }

    #[test]
    fn skewed_set_bounds_are_triangular() {
        // { (t, x) : 0 <= t < 4, t <= x < t + 4 } — a skewed band.
        let mut p = Polyhedron::universe(2);
        p.bound_const(0, 0, 4);
        p.add(Constraint::ge(vec![-1, 1, 0])); // x >= t
        p.add(Constraint::ge(vec![1, -1, 3])); // x <= t + 3
        assert_eq!(p.enumerate().len(), 16);
        let b = p.bounds(1, 2);
        assert_eq!(b.lower[0].eval_ceil(&[2, 0]), Some(2));
        assert_eq!(b.upper[0].eval_floor(&[2, 0]), Some(5));
    }
}
