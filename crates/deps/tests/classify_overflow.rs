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

/// `for i in 1..N: A[i] = A[i-1]`, destination retimed by 2, then the one
/// level scaled by `i64::MAX`: the combined distance row does not fit
/// `i64`. Plain `i64` accumulation aborted here in debug and, in release,
/// wrapped to a small positive constant — a wrong distance that reads as
/// "carried forward". It must be the unknown direction instead.
#[test]
fn an_overflowing_transformed_distance_row_is_star() {
    use polymix_deps::depgraph::{build_podg, DepKind};
    use polymix_deps::vectors::dep_records;
    use polymix_ir::builder::{con, ix, par, ScopBuilder};
    use polymix_math::IntMat;

    let mut b = ScopBuilder::new("chain", &["N"], &[6]);
    b.assume_params_at_least(3);
    let a = b.array("A", &["N"]);
    b.enter("i", con(1), par("N"));
    let body = b.rd(a, &[ix("i") - con(1)]);
    b.stmt("S", a, &[ix("i")], body);
    b.exit();
    let scop = b.finish().expect("well-formed SCoP");
    let g = build_podg(&scop);
    let flow = g
        .deps
        .iter()
        .find(|d| d.kind == DepKind::Flow)
        .expect("the chain carries a flow dependence");
    let src = scop.statements[0].schedule.clone();
    let mut dst = src.clone();
    dst.shift_level(0, &[0], 2);
    let vectors = |scale: i64| -> Vec<Vec<DepElem>> {
        dep_records(flow, &src, &dst, &IntMat::from_rows(&[vec![scale]]), &[6])
            .into_iter()
            .map(|r| r.vector)
            .collect()
    };
    // Distance 1 + 2 = 3 under the identity transform ...
    assert_eq!(vectors(1), [[DepElem::Const(3)]]);
    // ... and 3 * i64::MAX, which no `i64` holds, under the scaled one.
    assert_eq!(vectors(i64::MAX), [[DepElem::Star]]);
}
