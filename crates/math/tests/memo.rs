//! The oracle memo is invisible: answers inside a scope are the answers
//! outside one, keys are whole systems, and the table lives exactly as
//! long as the outermost guard of its thread.

use polymix_math::memo::{self, Tally};
use polymix_math::{CmpOp, Constraint, Polyhedron};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Random small bounded 2-D systems, some empty: a box intersected with
/// up to two half-planes and at most one equality.
fn small_system() -> impl Strategy<Value = Polyhedron> {
    (
        (0i64..4, 2i64..8, 0i64..4, 2i64..8),
        prop::collection::vec((-2i64..=2, -2i64..=2, -6i64..=6), 0..3),
        prop::collection::vec((-2i64..=2, -2i64..=2, -6i64..=6), 0..2),
    )
        .prop_map(|((xl, xh, yl, yh), ges, eqs)| {
            let mut p = Polyhedron::universe(2);
            p.bound_const(0, xl, xh);
            p.bound_const(1, yl, yh);
            for (a, b, c) in ges {
                p.add(Constraint::ge(vec![a, b, c]));
            }
            for (a, b, c) in eqs {
                p.add(Constraint::eq(vec![a, b, c]));
            }
            p
        })
}

fn tally(asked: u64, computed: u64) -> Tally {
    Tally { asked, computed }
}

/// `0 <= x < 5`.
fn segment() -> Polyhedron {
    let mut p = Polyhedron::universe(1);
    p.bound_const(0, 0, 5);
    p
}

proptest! {
    #[test]
    fn answers_are_the_same_outside_on_first_ask_and_on_reask(p in small_system()) {
        let (empty, witness) = (p.is_empty(), p.sample());
        let scope = memo::scope();
        prop_assert_eq!(p.is_empty(), empty);
        prop_assert_eq!(p.sample(), witness.clone());
        prop_assert_eq!(p.is_empty(), empty);
        prop_assert_eq!(p.sample(), witness.clone());
        let stats = scope.stats();
        prop_assert_eq!(stats.is_empty, tally(2, 1));
        prop_assert_eq!(stats.sample, tally(2, 1));
        drop(scope);
        prop_assert_eq!(p.is_empty(), empty);
        prop_assert_eq!(p.sample(), witness);
    }

    /// A stored answer is only ever returned for the system it was
    /// computed for: ask about `p`, then about a neighbour of `p`, and
    /// the neighbour gets its own (uncached) answer.
    #[test]
    fn neighbouring_systems_never_share_an_entry(
        hi in 2i64..8,
        row in (-2i64..=2, -2i64..=2, -6i64..=6),
    ) {
        let (a, b, c) = row;
        let system = |n_dims: usize, c: i64, op: CmpOp| {
            let mut p = Polyhedron::universe(n_dims);
            p.bound_const(0, 0, hi);
            p.bound_const(1, 0, hi);
            let mut row = vec![0; n_dims + 1];
            (row[0], row[1], row[n_dims]) = (a, b, c);
            p.add(Constraint { row, op });
            p
        };
        let p = system(2, c, CmpOp::Ge);
        let neighbours = [
            system(2, c + 1, CmpOp::Ge),
            system(2, c, CmpOp::Eq),
            system(3, c, CmpOp::Ge),
        ];
        // (`add` normalises rows, so two spellings can be one system.)
        for q in neighbours.iter().filter(|q| **q != p) {
            let (empty, witness) = (q.is_empty(), q.sample());
            let scope = memo::scope();
            let _ = (p.is_empty(), p.sample());
            prop_assert_eq!(q.is_empty(), empty, "{:?} answered for {:?}", p, q);
            prop_assert_eq!(q.sample(), witness, "{:?} answered for {:?}", p, q);
            prop_assert_eq!(scope.stats().is_empty, tally(2, 2));
            prop_assert_eq!(scope.stats().sample, tally(2, 2));
        }
    }
}

#[test]
fn nested_guards_share_one_table_and_the_outermost_drop_clears_it() {
    let p = segment();
    let outer = memo::scope();
    assert!(!p.is_empty());
    {
        let inner = memo::scope();
        assert!(!p.is_empty()); // the outer scope's entry
        assert_eq!(inner.stats().is_empty, tally(2, 1));
    }
    assert!(!p.is_empty()); // still there after the inner drop
    assert_eq!(outer.stats().is_empty, tally(3, 1));
    assert_eq!(outer.stats().sample, tally(0, 0));
    drop(outer);
    let fresh = memo::scope();
    assert_eq!(fresh.stats().is_empty, tally(0, 0));
    assert!(!p.is_empty());
    assert_eq!(fresh.stats().is_empty, tally(1, 1));
}

#[test]
fn a_guard_dropped_by_a_panic_leaves_the_thread_without_a_table() {
    let p = segment();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let _memo = memo::scope();
        assert_eq!(p.sample(), Some(vec![0]));
        panic!("flight failed");
    }));
    assert!(unwound.is_err());
    // No table: a new scope starts from zero instead of joining one the
    // panic leaked.
    let scope = memo::scope();
    assert_eq!(scope.stats().sample, tally(0, 0));
    assert_eq!(p.sample(), Some(vec![0]));
    assert_eq!(scope.stats().sample, tally(1, 1));
}

#[test]
fn a_thread_without_a_guard_computes_while_another_holds_one() {
    let p = segment();
    let scope = memo::scope();
    assert!(!p.is_empty());
    // The worker starts and ends while this thread holds its guard.
    let (answer, seen) = std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let answer = p.is_empty();
            // Had this thread seen a table, a scope opened now would
            // join it and report the question.
            (answer, memo::scope().stats().is_empty)
        });
        worker.join().expect("worker")
    });
    assert!(!answer);
    assert_eq!(seen, tally(0, 0));
    assert_eq!(scope.stats().is_empty, tally(1, 1));
}
