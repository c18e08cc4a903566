//! `classify` evaluates its sampled witness against rows derived from
//! request SCoPs: a product that does not fit `i64` must leave the
//! answer to the direction queries, not abort (debug) or wrap (release).

use polymix_deps::vectors::classify;
use polymix_deps::DepElem;
use polymix_math::Polyhedron;

/// `3 <= x <= 10`.
fn segment() -> Polyhedron {
    let mut p = Polyhedron::universe(1);
    p.bound_const(0, 3, 11);
    p
}

#[test]
fn a_coefficient_too_large_for_the_witness_product_is_classified_by_direction() {
    assert_eq!(classify(&segment(), &[i64::MAX / 2, 0], &[]), DepElem::Plus);
    assert_eq!(
        classify(&segment(), &[i64::MIN / 2, 0], &[]),
        DepElem::Minus
    );
}

#[test]
fn a_constant_at_the_edge_of_i64_has_no_neighbour_to_compare_with() {
    // `row == i64::MAX` everywhere, but `val + 1` does not exist.
    assert_eq!(classify(&segment(), &[0, i64::MAX], &[]), DepElem::Plus);
    assert_eq!(classify(&segment(), &[0, i64::MIN], &[]), DepElem::Minus);
}
