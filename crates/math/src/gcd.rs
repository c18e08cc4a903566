//! Greatest-common-divisor utilities used across the polyhedral machinery.

/// Euclidean GCD on `i64`, always non-negative. `gcd(0, 0) == 0`.
///
/// One gcd does not fit: `2^63`, of `i64::MIN` with itself or with 0.
/// `2^62`, the largest common divisor that does, is returned instead —
/// every caller only divides by the result, and a row normalized by a
/// smaller common divisor describes the same integer set.
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    i64::try_from(a).unwrap_or(1 << 62)
}

/// Least common multiple on `i64`, always non-negative. `lcm(0, x) == 0`.
pub fn lcm(a: i64, b: i64) -> i64 {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd(a, b)).abs() * b.abs()
}

/// GCD of a slice; 0 for an empty or all-zero slice.
pub fn gcd_slice(xs: &[i64]) -> i64 {
    xs.iter().fold(0, |g, &x| gcd(g, x))
}

/// Extended Euclidean algorithm: returns `(g, x, y)` with
/// `a*x + b*y == g == gcd(a, b)` and `g >= 0`.
pub fn extended_gcd(a: i64, b: i64) -> (i64, i64, i64) {
    if b == 0 {
        if a < 0 {
            (-a, -1, 0)
        } else {
            (a, 1, 0)
        }
    } else {
        let (g, x, y) = extended_gcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

/// Normalizes an inequality row `coeffs · x + c >= 0` in place by dividing
/// the variable coefficients and tightening the constant:
/// if `g = gcd(coeffs[..last])`, the row becomes
/// `coeffs/g · x + floor(c/g) >= 0` — the standard integer tightening step.
///
/// The last entry of `row` is treated as the constant term. Rows whose
/// variable part is entirely zero are left untouched. Returns the gcd used.
pub fn normalize_row(row: &mut [i64]) -> i64 {
    let n = row.len();
    if n < 2 {
        return 1;
    }
    let g = gcd_slice(&row[..n - 1]);
    if g <= 1 {
        return 1.max(g);
    }
    for x in row[..n - 1].iter_mut() {
        *x /= g;
    }
    row[n - 1] = row[n - 1].div_euclid(g);
    g
}

/// Normalizes an *equality* row `coeffs · x + c == 0`. Returns `false` when
/// the equality is integrally infeasible (the gcd of the variable part does
/// not divide the constant) — the lattice emptiness ("GCD") test.
pub fn normalize_eq_row(row: &mut [i64]) -> bool {
    let n = row.len();
    if n < 2 {
        return true;
    }
    let g = gcd_slice(&row[..n - 1]);
    if g == 0 {
        // 0 == -c : feasible iff c == 0.
        return row[n - 1] == 0;
    }
    if row[n - 1] % g != 0 {
        return false;
    }
    if g > 1 {
        for x in row.iter_mut() {
            *x /= g;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(0, 0), 0);
        // The extremes neither abort nor report a non-divisor.
        assert_eq!(gcd(i64::MIN, 0), 1 << 62);
        assert_eq!(gcd(i64::MIN, 6), 2);
        assert_eq!(gcd(i64::MAX, i64::MIN + 1), i64::MAX);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
        assert_eq!(lcm(-4, 6), 12);
    }

    #[test]
    fn extended_gcd_bezout() {
        for (a, b) in [(240, 46), (-240, 46), (7, 0), (0, 7), (-5, -15)] {
            let (g, x, y) = extended_gcd(a, b);
            assert_eq!(g, gcd(a, b));
            assert_eq!(a * x + b * y, g, "bezout failed for ({a},{b})");
        }
    }

    #[test]
    fn inequality_tightening_floors_constant() {
        // 2x - 3 >= 0  =>  x - 2 >= 0 (i.e. x >= 1.5 tightens to x >= 2).
        let mut row = vec![2, -3];
        normalize_row(&mut row);
        assert_eq!(row, vec![1, -2]);
    }

    #[test]
    fn equality_gcd_test_detects_lattice_emptiness() {
        // 2x + 4y == 3 has no integer solution.
        let mut row = vec![2, 4, -3];
        assert!(!normalize_eq_row(&mut row));
        // 2x + 4y == 6 does.
        let mut row = vec![2, 4, -6];
        assert!(normalize_eq_row(&mut row));
        assert_eq!(row, vec![1, 2, -3]);
    }

    #[test]
    fn trivial_equality_rows() {
        let mut ok = vec![0, 0, 0];
        assert!(normalize_eq_row(&mut ok));
        let mut bad = vec![0, 0, 5];
        assert!(!normalize_eq_row(&mut bad));
    }
}
