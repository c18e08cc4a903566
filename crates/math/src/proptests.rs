//! Property-based tests for the polyhedral math substrate.

use crate::poly::{Constraint, Polyhedron};
use crate::ratio::Ratio;
use proptest::prelude::*;

fn small_ratio() -> impl Strategy<Value = Ratio> {
    (-50i64..=50, 1i64..=12).prop_map(|(n, d)| Ratio::new(n, d))
}

proptest! {
    #[test]
    fn ratio_add_commutes(a in small_ratio(), b in small_ratio()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn ratio_mul_distributes(a in small_ratio(), b in small_ratio(), c in small_ratio()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn ratio_floor_ceil_bracket(a in small_ratio()) {
        let f = a.floor();
        let c = a.ceil();
        prop_assert!(Ratio::int(f) <= a);
        prop_assert!(a <= Ratio::int(c));
        prop_assert!(c - f <= 1);
    }

    #[test]
    fn ratio_ordering_total(a in small_ratio(), b in small_ratio()) {
        let lt = a < b;
        let gt = a > b;
        let eq = a == b;
        prop_assert_eq!(lt as u8 + gt as u8 + eq as u8, 1);
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
