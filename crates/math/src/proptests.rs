//! Property-based tests for the polyhedral math substrate.

use crate::matrix::IntMat;
use crate::poly::{Constraint, Directed, Polyhedron};
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
        for pt in p.enumerate().expect("bounded") {
            prop_assert!(proj.contains(&pt), "projection rejected {pt:?} of {p:?}");
        }
    }

    /// Emptiness agrees with brute-force enumeration on bounded sets.
    #[test]
    fn emptiness_matches_enumeration(p in small_poly_2d()) {
        let pts = p.enumerate().expect("bounded");
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
        let pts = p.enumerate().expect("bounded");
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
        let fixed = p.fix(0, v).enumerate().expect("bounded");
        let filtered: Vec<_> = p.enumerate().expect("bounded").into_iter().filter(|pt| pt[0] == v).collect();
        prop_assert_eq!(fixed, filtered);
    }
}

/// `lo <= x_d <= hi` for every `(lo, hi)` in `boxes`, one dimension each.
fn boxed(boxes: &[(i64, i64)]) -> Polyhedron {
    let mut p = Polyhedron::universe(boxes.len());
    for (d, &(lo, hi)) in boxes.iter().enumerate() {
        p.bound_const(d, lo, hi + 1);
    }
    p
}

/// Up to two extra half-planes over `n` dimensions, coefficients in
/// {-2..2}: what makes two systems of one shape differ.
fn half_planes(n: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    let coeffs = prop::collection::vec(-2i64..=2, n..n + 1);
    let row = (coeffs, -4i64..=4).prop_map(|(mut row, k)| {
        row.push(k);
        row
    });
    prop::collection::vec(row, 0..3)
}

/// Two cells `(i, j)`, `(i', j')` of an `M × N` array at one linearised
/// address, `N·i + j = N·i' + j'` — the shape whose rational relaxation
/// mixes the strata — cut by random half-planes.
fn one_linearised_address() -> impl Strategy<Value = Polyhedron> {
    (2i64..5, 2i64..6, half_planes(4)).prop_map(|(m, n, extra)| {
        let mut p = boxed(&[(0, m - 1), (0, n - 1), (0, m - 1), (0, n - 1)]);
        p.add_eq0(&[n, 1, -n, -1, 0]);
        extra.iter().for_each(|row| p.add_ge(row, 0));
        p
    })
}

/// The race query of a strided loop: `x` and `y` are two iterations
/// `s·k` apart along the first dimension (`k >= 1`) whose accesses
/// `a·v0 + b·v1 + c` meet, with 3 to 5 dimensions in all.
fn two_copies() -> impl Strategy<Value = Polyhedron> {
    let access = (-3i64..=3, -3i64..=3, -2i64..=2);
    (1i64..4, 0usize..3, access, half_planes(5)).prop_map(|(s, inner, (a, b, c), extra)| {
        // Dimensions: x0, y0, k, then `inner` of x1, y1.
        let n = 3 + inner.min(2);
        let mut p = boxed(&[(0, 5), (0, 5), (1, 5), (0, 3), (0, 3)][..n]);
        let row = |terms: &[(usize, i64)], k: i64| {
            let mut row = vec![0; n + 1];
            terms
                .iter()
                .filter(|t| t.0 < n)
                .for_each(|&(d, a)| row[d] = a);
            row[n] = k;
            row
        };
        p.add_eq0(&row(&[(1, 1), (0, -1), (2, -s)], 0));
        p.add_eq0(&row(&[(0, a), (1, -a), (3, b), (4, -b)], c));
        for half_plane in &extra {
            let terms: Vec<_> = half_plane[..5].iter().copied().enumerate().collect();
            p.add_ge(&row(&terms, half_plane[5]), 0);
        }
        p
    })
}

proptest! {
    /// Never a false proof, on the shapes the certifiers build: a set
    /// proven empty has no integer point.
    #[test]
    fn no_false_proof_over_a_linearised_address(p in one_linearised_address()) {
        let lied = p.is_empty() && !p.enumerate().expect("bounded").is_empty();
        prop_assert!(!lied, "is_empty lied for {p:?}");
    }

    #[test]
    fn no_false_proof_over_two_copies(p in two_copies()) {
        let lied = p.is_empty() && !p.enumerate().expect("bounded").is_empty();
        prop_assert!(!lied, "is_empty lied for {p:?}");
    }
}

/// A coefficient as the certifiers' rows hold them — zero, unit, two,
/// small — or at the edge of `i64`, where an unchecked evaluation wraps.
fn coefficient() -> impl Strategy<Value = i64> {
    (0usize..10, 3i64..9).prop_map(|(k, small)| {
        let edge = [i64::MAX / 2, i64::MIN, i64::MAX];
        [0, 1, -1, 2, -2, small, -small, edge[0], edge[1], edge[2]][k]
    })
}

/// A box `[-2, 2]` over 1 to 6 dimensions cut by up to four rows (each
/// an equality or an inequality) drawn from [`coefficient`].
fn bounded_system() -> impl Strategy<Value = Polyhedron> {
    let row = (prop::collection::vec(coefficient(), 7..8), any::<bool>());
    (1usize..7, prop::collection::vec(row, 0..5)).prop_map(|(n, rows)| {
        let mut p = boxed(&vec![(-2, 2); n]);
        for (mut row, eq) in rows {
            row.truncate(n + 1);
            if eq {
                p.add_eq0(&row);
            } else {
                p.add_ge(&row, 0);
            }
        }
        p
    })
}

/// Every integer point of the box `[-2, 2]^n`: all of a
/// [`bounded_system`]'s candidates, without the projections
/// `enumerate` makes (which give up when a combination overflows).
fn box_points(n: usize) -> Vec<Vec<i64>> {
    let mut points = vec![Vec::new()];
    for _ in 0..n {
        let next = points
            .iter()
            .flat_map(|p| (-2..=2).map(move |x| p.iter().copied().chain([x]).collect::<Vec<_>>()));
        points = next.collect();
    }
    points
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A proof is never refuted by a point, and a system that holds its
    /// hull's lower corner is never called empty: the witness answers
    /// only what elimination would have answered.
    #[test]
    fn the_witness_never_contradicts_a_proof(p in bounded_system()) {
        let empty = p.is_empty();
        let member = box_points(p.n_dims()).into_iter().find(|pt| p.contains(pt));
        prop_assert!(!empty || member.is_none(), "is_empty lied for {p:?}: {member:?}");
        let corner = p.interval_hull(&mut Directed::default()).corner();
        prop_assert!(!p.contains(&corner) || !empty, "corner {corner:?} of {p:?}");
    }
}

/// Systems the certifiers depend on being *proven* empty, and what
/// proves each: the interval hull (bounds propagation, each bound
/// rounded to a whole value) refutes the two linearised addresses before
/// any elimination; the stencil needs the elimination after it.
#[test]
fn certifier_systems_are_proven_empty() {
    let n = 7;
    // gemm, doall over `i`: can iterations `i < i'` both touch
    // `C[N·i + j]`? Only if `j = j' + N·(i' - i)`, at least `N`.
    let mut gemm = boxed(&[(0, 5), (0, n - 1), (0, 5), (0, n - 1), (1, 5)]);
    gemm.add_eq0(&[-1, 0, 1, 0, -1, 0]); // i' - i = k
    gemm.add_eq0(&[n, 1, -n, -1, 0, 0]);
    // Three levels, `N²·i + N·j + k`: with `i' >= i + 1` the address
    // needs `N·(j - j') + (k - k') >= N²`, at most `N² - 1`.
    let digits = [(0, n - 1); 6];
    let mut cube = boxed(&digits);
    cube.add_eq0(&[n * n, n, 1, -n * n, -n, -1, 0]);
    cube.add_ge(&[-1, 0, 0, 1, 0, 0, 0], 1); // i' >= i + 1
    // A time-skewed stencil on a pipeline grid: cell `(t', s')` with
    // `t' > t` and `s' < s` is unordered with `(t, s)`; it reads
    // `A[s' - 2t' + 1]` where the other writes `A[s - 2t]`. Substituting
    // both distances leaves `2·k1 + k2 = 1` with `k1, k2 >= 1`.
    // Dimensions: t, s, t', s', k1, k2.
    let mut cone = boxed(&[(0, 9), (0, 40), (0, 9), (0, 40), (1, 9), (1, 40)]);
    cone.add_eq0(&[-1, 0, 1, 0, -1, 0, 0]); // t' - t = k1
    cone.add_eq0(&[0, -1, 0, 1, 0, 1, 0]); // s' - s = -k2
    cone.add_eq0(&[-2, 1, 2, -1, 0, 0, -1]); // (s - 2t) - (s' - 2t' + 1) = 0
    for (name, p) in [("gemm", gemm), ("cube", cube), ("cone", cone)] {
        assert!(p.is_empty(), "{name} not proven empty: {p:?}");
        assert!(p.sample().is_none(), "{name}");
    }
}
