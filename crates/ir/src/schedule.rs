//! The restricted `2d+1` schedule representation of Sec. III-A.
//!
//! A schedule assigns every dynamic instance `x` of a `d`-dimensional
//! statement the timestamp
//!
//! ```text
//! Θ(x) = ( β_0, α_1·x + γ_1(n), β_1, …, α_d·x + γ_d(n), β_d )
//! ```
//!
//! where the odd positions are the interleaving scalars `β` (fusion /
//! distribution / code motion), the even positions are the loop dimensions
//! given by the rows of the invertible matrix `α` (permutation, reversal,
//! and — for the Pluto baseline — skewing) plus parametric shifts `γ`
//! (multidimensional retiming).
//!
//! The paper restricts the poly+AST flow's `α` to *signed permutations*
//! so that `Θ⁻¹` is trivially available and the transformed loops keep
//! the original (or reversed) access patterns; the baseline uses general
//! unimodular `α`. Both are supported here, and invertibility over the
//! integers (unimodularity) is enforced at every construction site.

use polymix_math::{Constraint, IntMat, Polyhedron};
use std::cmp::Ordering;

/// A `2d+1` affine schedule (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Interleaving scalars `β_0 … β_d` (`d+1` entries).
    pub beta: Vec<i64>,
    /// Invertible `d × d` integer matrix; rows are loop dimensions.
    pub alpha: IntMat,
    /// Parametric shift rows, `d` rows over `[params | 1]`.
    pub gamma: Vec<Vec<i64>>,
}

impl Schedule {
    /// The identity schedule of a statement with `d` iterators in a SCoP
    /// with `p` parameters, with all-β given by `beta`.
    pub fn with_beta(d: usize, p: usize, beta: Vec<i64>) -> Schedule {
        assert_eq!(beta.len(), d + 1, "beta must have d+1 entries");
        Schedule {
            beta,
            alpha: IntMat::identity(d),
            gamma: vec![vec![0; p + 1]; d],
        }
    }

    /// Identity schedule with all-zero β.
    pub fn identity(d: usize, p: usize) -> Schedule {
        Schedule::with_beta(d, p, vec![0; d + 1])
    }

    /// Statement dimensionality.
    pub fn dim(&self) -> usize {
        self.alpha.rows()
    }

    /// Number of parameters the γ rows span.
    pub fn n_params(&self) -> usize {
        self.gamma.first().map_or(0, |g| g.len() - 1)
    }

    /// Checks structural well-formedness and integer invertibility,
    /// returning a description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        let d = self.dim();
        if self.beta.len() != d + 1 {
            return Err(format!(
                "beta arity: {} entries for dimension {d}",
                self.beta.len()
            ));
        }
        if self.gamma.len() != d {
            return Err(format!(
                "gamma arity: {} rows for dimension {d}",
                self.gamma.len()
            ));
        }
        if d != 0 && !self.alpha.is_unimodular() {
            return Err(format!("alpha must be unimodular: {:?}", self.alpha));
        }
        Ok(())
    }

    /// Asserts structural well-formedness and integer invertibility.
    /// Test helper; library code uses [`Schedule::check`] and reports.
    #[cfg(test)]
    pub fn validate(&self) {
        self.check().expect("valid schedule");
    }

    /// True when `α` is a signed permutation — the class the paper's
    /// poly+AST flow restricts itself to.
    pub fn is_signed_permutation(&self) -> bool {
        self.dim() == 0 || self.alpha.is_signed_permutation()
    }

    /// The full `2d+1` timestamp of the instance `iters` under parameters
    /// `params`.
    pub fn timestamp(&self, iters: &[i64], params: &[i64]) -> Vec<i64> {
        let d = self.dim();
        assert_eq!(iters.len(), d);
        let loops = self.alpha.mul_vec(iters);
        let mut out = Vec::with_capacity(2 * d + 1);
        for k in 0..d {
            out.push(self.beta[k]);
            let g = &self.gamma[k];
            let shift: i64 = g[..params.len()]
                .iter()
                .zip(params)
                .map(|(a, n)| a * n)
                .sum::<i64>()
                + g[params.len()];
            out.push(loops[k] + shift);
        }
        out.push(self.beta[d]);
        out
    }

    /// Affine row (layout `[iters | params | 1]`) computing loop dimension
    /// `k` (0-based) of the timestamp.
    pub fn loop_row(&self, k: usize) -> Vec<i64> {
        let d = self.dim();
        let p = self.n_params();
        let mut row = Vec::with_capacity(d + p + 1);
        row.extend_from_slice(self.alpha.row(k));
        row.extend_from_slice(&self.gamma[k]);
        debug_assert_eq!(row.len(), d + p + 1);
        row
    }

    /// Applies the schedule to an iteration domain: returns the domain of
    /// the *new* loop variables `y = α·x + γ(n)` as a polyhedron over
    /// `[y | params]`; `None` unless `α` has an integer inverse.
    pub fn transformed_domain(&self, domain: &Polyhedron, p: usize) -> Option<Polyhedron> {
        let d = self.dim();
        assert_eq!(domain.n_dims(), d + p, "domain arity mismatch");
        if d == 0 {
            return Some(domain.clone());
        }
        let ainv = self.alpha.inverse_unimodular()?;
        // x = ainv · (y - γ(n)).
        let mut out = Polyhedron::universe(d + p);
        for c in domain.constraints() {
            // c: cx · x + cn · n + c0 OP 0 becomes
            //    (cx · ainv) · y + (cn - cx·ainv·Γn) · n + (c0 - cx·ainv·γc) OP 0
            let cx = &c.row[..d];
            let mut row = vec![0i64; d + p + 1];
            // cx · ainv gives the y coefficients.
            for j in 0..d {
                row[j] = (0..d).map(|i| cx[i] * ainv[(i, j)]).sum();
            }
            // subtract (cx·ainv) · γ from the param/const part.
            for (pj, item) in row[d..d + p + 1].iter_mut().enumerate() {
                let shift: i64 = (0..d).map(|j| {
                    let cj: i64 = (0..d).map(|i| cx[i] * ainv[(i, j)]).sum();
                    cj * self.gamma[j][pj]
                })
                .sum();
                *item = c.row[d + pj] - shift;
            }
            out.add(Constraint { row, op: c.op });
        }
        Some(out)
    }

    /// Re-expresses an access row (layout `[iters | params | 1]`) in the
    /// new loop variables: `f(x) = f(α⁻¹(y - γ))`. This is the `f·Θ⁻¹`
    /// operation the paper uses to reason about post-transformation access
    /// patterns without generating code (Sec. III-A). `None` unless `α`
    /// has an integer inverse.
    pub fn transformed_access_row(&self, row: &[i64], p: usize) -> Option<Vec<i64>> {
        let d = self.dim();
        assert_eq!(row.len(), d + p + 1, "access row arity mismatch");
        if d == 0 {
            return Some(row.to_vec());
        }
        let ainv = self.alpha.inverse_unimodular()?;
        let fx = &row[..d];
        let mut out = vec![0i64; d + p + 1];
        for j in 0..d {
            out[j] = (0..d).map(|i| fx[i] * ainv[(i, j)]).sum();
        }
        for (pj, item) in out[d..d + p + 1].iter_mut().enumerate() {
            let shift: i64 = (0..d).map(|j| {
                let cj: i64 = (0..d).map(|i| fx[i] * ainv[(i, j)]).sum();
                cj * self.gamma[j][pj]
            })
            .sum();
            *item = row[d + pj] - shift;
        }
        Some(out)
    }

    /// Builds the pure-permutation schedule sending original iterator
    /// `perm[k]` to loop level `k`, keeping β and γ zero.
    pub fn from_permutation(perm: &[usize], p: usize) -> Schedule {
        let d = perm.len();
        let mut alpha = IntMat::zeros(d, d);
        for (k, &src) in perm.iter().enumerate() {
            alpha[(k, src)] = 1;
        }
        let s = Schedule {
            beta: vec![0; d + 1],
            alpha,
            gamma: vec![vec![0; p + 1]; d],
        };
        debug_assert!(s.check().is_ok(), "a permutation schedule is valid");
        s
    }

    /// Reverses loop level `k` (negates the α row and γ row).
    pub fn reverse_level(&mut self, k: usize) {
        for j in 0..self.dim() {
            self.alpha[(k, j)] = -self.alpha[(k, j)];
        }
        for g in self.gamma[k].iter_mut() {
            *g = -*g;
        }
    }

    /// Adds a retiming (shift) of `c + Σ coeffs·params` to loop level `k`.
    pub fn shift_level(&mut self, k: usize, param_coeffs: &[i64], c: i64) {
        let p = self.n_params();
        assert_eq!(param_coeffs.len(), p);
        for (g, &a) in self.gamma[k][..p].iter_mut().zip(param_coeffs) {
            *g += a;
        }
        self.gamma[k][p] += c;
    }

    /// Adds `factor` times loop row `src` into loop row `dst` — loop
    /// skewing, only available to schedule classes that allow non-signed-
    /// permutation α (the Pluto baseline).
    pub fn skew(&mut self, dst: usize, src: usize, factor: i64) {
        assert_ne!(dst, src, "skew onto itself");
        for j in 0..self.dim() {
            let add = factor * self.alpha[(src, j)];
            self.alpha[(dst, j)] += add;
        }
        let p = self.n_params();
        for pj in 0..=p {
            let add = factor * self.gamma[src][pj];
            self.gamma[dst][pj] += add;
        }
    }
}

/// Lexicographic comparison of two timestamps, padding the shorter with
/// zeros (the convention for comparing statements of different depths).
pub fn lex_cmp(a: &[i64], b: &[i64]) -> Ordering {
    let n = a.len().max(b.len());
    for k in 0..n {
        let x = a.get(k).copied().unwrap_or(0);
        let y = b.get(k).copied().unwrap_or(0);
        match x.cmp(&y) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymix_math::Constraint;

    #[test]
    fn identity_timestamp_interleaves_beta() {
        let s = Schedule::with_beta(2, 1, vec![1, 0, 2]);
        assert_eq!(s.timestamp(&[5, 7], &[100]), vec![1, 5, 0, 7, 2]);
    }

    #[test]
    fn permutation_swaps_loops() {
        let s = Schedule::from_permutation(&[1, 0], 0);
        assert_eq!(s.timestamp(&[5, 7], &[]), vec![0, 7, 0, 5, 0]);
        assert!(s.is_signed_permutation());
    }

    #[test]
    fn shift_applies_parametric_retiming() {
        let mut s = Schedule::identity(1, 1);
        s.shift_level(0, &[1], -1); // i + N - 1
        assert_eq!(s.timestamp(&[3], &[10]), vec![0, 12, 0]);
    }

    #[test]
    fn reversal_negates_row() {
        let mut s = Schedule::identity(1, 0);
        s.reverse_level(0);
        assert_eq!(s.timestamp(&[3], &[]), vec![0, -3, 0]);
        assert!(s.is_signed_permutation());
    }

    #[test]
    fn skewing_breaks_signed_permutation_but_stays_unimodular() {
        let mut s = Schedule::identity(2, 0);
        s.skew(1, 0, 1); // (t, x) -> (t, x + t)
        s.validate();
        assert!(!s.is_signed_permutation());
        assert_eq!(s.timestamp(&[2, 3], &[]), vec![0, 2, 0, 5, 0]);
    }

    #[test]
    fn transformed_domain_of_permuted_square() {
        // Domain 0 <= i < N, 0 <= j < 4 with p = 1 params (N at col 2).
        let mut dom = Polyhedron::universe(3);
        dom.add(Constraint::ge(vec![1, 0, 0, 0])); // i >= 0
        dom.add(Constraint::ge(vec![-1, 0, 1, -1])); // i <= N-1
        dom.bound_const(1, 0, 4);
        let s = Schedule::from_permutation(&[1, 0], 1);
        let t = s.transformed_domain(&dom, 1).expect("permutations invert");
        // New space (y0, y1) = (j, i): y0 in [0,4), y1 in [0,N).
        assert!(t.contains(&[3, 0, 10]));
        assert!(t.contains(&[0, 9, 10]));
        assert!(!t.contains(&[4, 0, 10]));
        assert!(!t.contains(&[0, 10, 10]));
    }

    #[test]
    fn transformed_domain_of_skewed_band() {
        // 0 <= t < 4, 0 <= x < 4; skew x by t: y = (t, t + x).
        let mut dom = Polyhedron::universe(2);
        dom.bound_const(0, 0, 4);
        dom.bound_const(1, 0, 4);
        let mut s = Schedule::identity(2, 0);
        s.skew(1, 0, 1);
        let t = s.transformed_domain(&dom, 0).expect("skews invert");
        // Points (y0, y1) valid iff 0 <= y0 < 4 and y0 <= y1 < y0 + 4.
        assert!(t.contains(&[2, 2]));
        assert!(t.contains(&[2, 5]));
        assert!(!t.contains(&[2, 1]));
        assert!(!t.contains(&[2, 6]));
        assert_eq!(t.enumerate().expect("bounded").len(), 16);
    }

    #[test]
    fn transformed_access_row_via_shift() {
        // Access A[i] with schedule y = i + 1  =>  A[y - 1].
        let mut s = Schedule::identity(1, 0);
        s.shift_level(0, &[], 1);
        let row = s.transformed_access_row(&[1, 0], 0);
        assert_eq!(row, Some(vec![1, -1]));
    }

    #[test]
    fn transformed_access_row_via_permutation() {
        // Access B[k][j] (rows over [i,j,k | 1]); permute loops to (k,j,i):
        // y0=k, y1=j, y2=i  =>  B[y0][y1].
        let s = Schedule::from_permutation(&[2, 1, 0], 0);
        let row_k = s.transformed_access_row(&[0, 0, 1, 0], 0);
        let row_j = s.transformed_access_row(&[0, 1, 0, 0], 0);
        assert_eq!(row_k, Some(vec![1, 0, 0, 0]));
        assert_eq!(row_j, Some(vec![0, 1, 0, 0]));
    }

    #[test]
    fn lex_cmp_pads_with_zeros() {
        use std::cmp::Ordering::*;
        assert_eq!(lex_cmp(&[0, 1, 0], &[0, 1, 0, 1, 0]), Less);
        assert_eq!(lex_cmp(&[0, 1], &[0, 1, 0, 0]), Equal);
        assert_eq!(lex_cmp(&[0, 2], &[0, 1, 5]), Greater);
    }

    #[test]
    #[should_panic]
    fn non_unimodular_alpha_rejected() {
        let s = Schedule {
            beta: vec![0, 0],
            alpha: IntMat::from_rows(&[vec![2]]),
            gamma: vec![vec![0]],
        };
        s.validate();
    }
}

impl std::fmt::Display for Schedule {
    /// Human-readable form: `β0 [row0 + γ0] β1 [row1 + γ1] … βd`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = self.dim();
        for k in 0..d {
            write!(f, "{} ", self.beta[k])?;
            let row: Vec<String> = (0..d)
                .map(|j| self.alpha[(k, j)].to_string())
                .collect();
            let g: Vec<String> = self.gamma[k].iter().map(|x| x.to_string()).collect();
            write!(f, "[{} | {}] ", row.join(","), g.join(","))?;
        }
        write!(f, "{}", self.beta[d])
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn display_is_compact_and_total() {
        let mut s = Schedule::with_beta(2, 1, vec![0, 1, 2]);
        s.shift_level(1, &[1], -3);
        let txt = format!("{s}");
        assert!(txt.starts_with("0 [1,0 | 0,0] 1 [0,1 | 1,-3] 2"), "{txt}");
    }
}
