//! Fourier–Motzkin elimination over affine constraint rows.
//!
//! Eliminating a dimension `d` from a constraint system proceeds in two
//! phases:
//!
//! 1. **Exact equality substitution** — if some equality mentions `d`, it is
//!    used to substitute `d` out of every other constraint. This step is
//!    exact over the integers.
//! 2. **Inequality combination** — every (lower, upper) pair
//!    `a·x_d + f >= 0` (a > 0) and `-b·x_d + g >= 0` (b > 0) is combined
//!    into `b·f + a·g >= 0`. When `a == 1` or `b == 1` this is the *exact
//!    shadow*; otherwise it is the rational (real) shadow, which is sound
//!    but may over-approximate the integer projection. All sets produced by
//!    this workspace have unit coefficients on the eliminated dimensions,
//!    so the elimination is exact in practice.
//!
//! Both phases multiply rows by coefficients of other rows. The products
//! are computed in checked `i64` arithmetic and an overflow fails the
//! whole step with [`Overflow`] — never a wrapped row, which would
//! describe a different set.

use crate::poly::{CmpOp, Constraint};
use std::fmt;

/// A coefficient of an eliminated row left the `i64` range. The caller
/// must treat the elimination as not performed: a wrapped coefficient
/// would describe a different set, and an emptiness test run on it could
/// "prove" a non-empty set empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overflow;

impl fmt::Display for Overflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fourier–Motzkin coefficient overflows i64")
    }
}

/// The row `x·l + y·u` with column `d` (where the two terms cancel by
/// construction) set to zero.
fn combine(x: i64, l: &[i64], y: i64, u: &[i64], d: usize) -> Result<Vec<i64>, Overflow> {
    let mut row = Vec::with_capacity(l.len());
    for (k, (&lk, &uk)) in l.iter().zip(u).enumerate() {
        row.push(if k == d {
            0
        } else {
            x.checked_mul(lk)
                .zip(y.checked_mul(uk))
                .and_then(|(p, q)| p.checked_add(q))
                .ok_or(Overflow)?
        });
    }
    Ok(row)
}

/// Eliminates dimension `d` from the system, returning rows that no longer
/// mention it. The dimension count (row width) is preserved.
pub fn eliminate_dim(constraints: &[Constraint], d: usize) -> Result<Vec<Constraint>, Overflow> {
    // Phase 1: equality substitution. Among the equalities mentioning
    // `d`, prefer the one with the smallest |coefficient| — a unit
    // coefficient makes the substitution exact over the integers.
    if let Some(eq_idx) = constraints
        .iter()
        .enumerate()
        .filter(|(_, c)| c.op == CmpOp::Eq && c.mentions(d))
        .min_by_key(|(_, c)| c.coeff(d).unsigned_abs())
        .map(|(i, _)| i)
    {
        let eq = &constraints[eq_idx];
        let a = eq.coeff(d); // a * x_d + f == 0
        let mut out = Vec::with_capacity(constraints.len() - 1);
        for (i, c) in constraints.iter().enumerate() {
            if i == eq_idx {
                continue;
            }
            let b = c.coeff(d);
            if b == 0 {
                out.push(c.clone());
                continue;
            }
            // c: b * x_d + g OP 0. Multiply by |a| (positive: preserves OP)
            // then replace b*|a|*x_d = -sgn(a)*b*f.
            let (abs_a, sb) = a
                .checked_abs()
                .zip(b.checked_mul(-a.signum()))
                .ok_or(Overflow)?;
            out.push(Constraint {
                row: combine(abs_a, &c.row, sb, &eq.row, d)?,
                op: c.op,
            });
        }
        return Ok(out);
    }

    // Phase 2: inequality combination.
    let mut lowers = Vec::new(); // coeff > 0
    let mut uppers = Vec::new(); // coeff < 0
    let mut keep = Vec::new();
    for c in constraints {
        debug_assert!(c.op == CmpOp::Ge || !c.mentions(d));
        let a = c.coeff(d);
        if a > 0 {
            lowers.push(c);
        } else if a < 0 {
            uppers.push(c);
        } else {
            keep.push(c.clone());
        }
    }
    for lo in &lowers {
        let a = lo.coeff(d);
        for up in &uppers {
            let b = up.coeff(d).checked_neg().ok_or(Overflow)?;
            // b*lo + a*up : coefficient on d becomes b*a - a*b = 0.
            keep.push(Constraint::ge(combine(b, &lo.row, a, &up.row, d)?));
        }
    }
    Ok(keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::Polyhedron;

    #[test]
    fn eliminate_with_equality_is_exact() {
        // { x = 2y, 0 <= x <= 10 } project out x -> 0 <= 2y <= 10.
        let cs = vec![
            Constraint::eq(vec![1, -2, 0]),
            Constraint::ge(vec![1, 0, 0]),
            Constraint::ge(vec![-1, 0, 10]),
        ];
        let rows = eliminate_dim(&cs, 0).expect("no overflow");
        let mut p = Polyhedron::universe(2);
        for r in rows {
            p.add(r);
        }
        assert!(p.contains(&[99, 0]));
        assert!(p.contains(&[99, 5]));
        assert!(!p.contains(&[99, 6]));
        assert!(!p.contains(&[99, -1]));
    }

    #[test]
    fn eliminate_negative_coefficient_equality() {
        // { -x + y + 1 == 0 (x = y+1), x <= 5 } -> y <= 4.
        let cs = vec![
            Constraint::eq(vec![-1, 1, 1]),
            Constraint::ge(vec![-1, 0, 5]),
        ];
        let rows = eliminate_dim(&cs, 0).expect("no overflow");
        let mut p = Polyhedron::universe(2);
        for r in rows {
            p.add(r);
        }
        assert!(p.contains(&[0, 4]));
        assert!(!p.contains(&[0, 5]));
    }

    #[test]
    fn inequality_combination_projects_band() {
        // { 0 <= x, x <= y, y <= 3 } eliminate x -> { 0 <= y <= 3 }.
        let cs = vec![
            Constraint::ge(vec![1, 0, 0]),
            Constraint::ge(vec![-1, 1, 0]),
            Constraint::ge(vec![0, -1, 3]),
        ];
        let rows = eliminate_dim(&cs, 0).expect("no overflow");
        let mut p = Polyhedron::universe(2);
        for r in rows {
            p.add(r);
        }
        assert!(p.contains(&[42, 0]));
        assert!(p.contains(&[42, 3]));
        assert!(!p.contains(&[42, -1]));
    }

    #[test]
    fn elimination_preserves_row_width() {
        let cs = vec![Constraint::ge(vec![1, 1, 1, 0])];
        let rows = eliminate_dim(&cs, 1).expect("no overflow");
        assert!(rows.is_empty()); // only a lower bound: drops away
        let cs = vec![
            Constraint::ge(vec![0, 1, 0, 0]),
            Constraint::ge(vec![1, -1, 0, 5]),
        ];
        let rows = eliminate_dim(&cs, 1).expect("no overflow");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].row.len(), 4);
    }
}
