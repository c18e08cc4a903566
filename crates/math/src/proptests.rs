//! Property-based tests for the polyhedral math substrate.

use crate::matrix::IntMat;
use crate::poly::{Constraint, Polyhedron};
use proptest::prelude::*;

/// A product of elementary row operations (swap, negate, add a small
/// multiple of one row to another) applied to the identity: unimodular
/// by construction, with entries that grow with the number of factors.
fn unimodular() -> impl Strategy<Value = IntMat> {
    let op = (0usize..3, 0usize..5, 0usize..5, -3i64..=3);
    (2usize..6, prop::collection::vec(op, 0..10)).prop_map(|(n, ops)| {
        let mut m = IntMat::identity(n);
        for (kind, a, b, f) in ops {
            let (a, b) = (a % n, b % n);
            for c in 0..n {
                match kind {
                    0 => {
                        let (x, y) = (m[(a, c)], m[(b, c)]);
                        m[(a, c)] = y;
                        m[(b, c)] = x;
                    }
                    1 => m[(a, c)] = -m[(a, c)],
                    _ if a != b => m[(a, c)] += f * m[(b, c)],
                    _ => {}
                }
            }
        }
        m
    })
}

proptest! {
    /// The fraction-free inverse of a unimodular matrix is its two-sided
    /// integer inverse, and rank and determinant agree with it.
    #[test]
    fn unimodular_inverse_is_two_sided(m in unimodular()) {
        let n = m.rows();
        prop_assert_eq!(m.rank(), Some(n));
        prop_assert!(m.is_unimodular(), "det {:?} of {m:?}", m.det());
        let inv = m.inverse_unimodular().expect("unimodular matrices invert");
        prop_assert_eq!(m.mul(&inv), IntMat::identity(n));
        prop_assert_eq!(inv.mul(&m), IntMat::identity(n));
    }
}

/// Random small bounded 2-D polyhedra: a box intersected with up to two
/// extra half-planes with coefficients in {-2..2}.
fn small_poly_2d() -> impl Strategy<Value = Polyhedron> {
    (
        0i64..4,
        4i64..8,
        0i64..4,
        4i64..8,
        prop::collection::vec((-2i64..=2, -2i64..=2, -6i64..=6), 0..3),
    )
        .prop_map(|(xl, xh, yl, yh, extra)| {
            let mut p = Polyhedron::universe(2);
            p.bound_const(0, xl, xh);
            p.bound_const(1, yl, yh);
            for (a, b, c) in extra {
                p.add(Constraint::ge(vec![a, b, c]));
            }
            p
        })
}

proptest! {
    /// Every point of the set must satisfy the projection once the
    /// eliminated coordinate is ignored (soundness of FM elimination).
    #[test]
    fn fm_projection_is_sound(p in small_poly_2d()) {
        let proj = p.eliminate(1).expect("no overflow");
        for pt in p.enumerate() {
            prop_assert!(proj.contains(&pt), "projection rejected {pt:?} of {p:?}");
        }
    }

    /// Emptiness agrees with brute-force enumeration on bounded sets.
    #[test]
    fn emptiness_matches_enumeration(p in small_poly_2d()) {
        let pts = p.enumerate();
        // is_empty may be conservative only in the nonempty direction:
        // if it says empty, enumeration must agree.
        if p.is_empty() {
            prop_assert!(pts.is_empty(), "is_empty lied for {p:?}");
        }
        if !pts.is_empty() {
            prop_assert!(!p.is_empty());
        }
    }

    /// sample() returns a member iff the set is nonempty.
    #[test]
    fn sample_agrees_with_enumeration(p in small_poly_2d()) {
        let pts = p.enumerate();
        match p.sample() {
            Some(s) => {
                prop_assert!(p.contains(&s));
                prop_assert!(!pts.is_empty());
            }
            None => prop_assert!(pts.is_empty()),
        }
    }

    /// fix() then enumerate equals filtering the enumeration.
    #[test]
    fn fix_is_slice(p in small_poly_2d(), v in 0i64..8) {
        let fixed = p.fix(0, v).enumerate();
        let filtered: Vec<_> = p.enumerate().into_iter().filter(|pt| pt[0] == v).collect();
        prop_assert_eq!(fixed, filtered);
    }
}
