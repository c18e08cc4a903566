//! Call-scoped memo for the two pure oracles, [`Polyhedron::is_empty`]
//! and [`Polyhedron::sample`].
//!
//! One optimizer or certifier call asks the same questions many times
//! over: legality probes re-ask what the previous probe asked, the
//! dependence graph is rebuilt by every stage, a witness is sampled per
//! row classified. While a [`Scope`] is alive on the current thread both
//! oracles look their receiver up in a table first and compute only on a
//! miss; with no scope alive they compute as if this module did not
//! exist.
//!
//! * The key is the **whole constraint system**, compared structurally
//!   (`Polyhedron: Hash + Eq`). A digest alone would turn a collision
//!   into a false emptiness proof, and certifiers drop bounds checks on
//!   these answers.
//! * Answers are stored verbatim. Both oracles are pure functions of
//!   their receiver, so a hit returns exactly what a recomputation would
//!   — the same witness, hence the same schedule and the same emitted
//!   bytes.
//! * Lifetime is the only policy: the table is thread-local, nested
//!   scopes share the outermost one's, and it is dropped with the
//!   outermost guard (also when a panic unwinds through it). Nothing
//!   outlives the call that opened it.

use crate::poly::Polyhedron;
use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;

/// How often one oracle was asked under the current table, and how many
/// of those questions had to be computed (the distinct systems).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls made while a scope was alive.
    pub asked: u64,
    /// Calls that missed the table.
    pub computed: u64,
}

/// How the computed emptiness questions ended (DESIGN §18); the three
/// counts sum to `Stats::is_empty.computed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Endings {
    /// Refuted before any elimination: an explicitly false row, or the
    /// first interval-hull reduction.
    pub hull: u64,
    /// Answered "not empty" by the hull's lower corner, a point of the
    /// system.
    pub witness: u64,
    /// Handed to Fourier–Motzkin, whatever it concluded.
    pub eliminated: u64,
}

/// One ending of [`Endings`].
#[derive(Clone, Copy)]
pub(crate) enum Ending {
    Hull,
    Witness,
    Eliminated,
}

/// The tallies of both oracles; see [`Scope::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// [`Polyhedron::is_empty`].
    pub is_empty: Tally,
    /// How the computed [`Polyhedron::is_empty`] questions ended.
    pub emptiness: Endings,
    /// [`Polyhedron::sample`].
    pub sample: Tally,
}

#[derive(Default)]
struct Memo<V> {
    answers: HashMap<Polyhedron, V>,
    tally: Tally,
}

#[derive(Default)]
struct Table {
    /// Live [`Scope`] guards on this thread.
    guards: usize,
    is_empty: Memo<bool>,
    emptiness: Endings,
    sample: Memo<Option<Vec<i64>>>,
}

thread_local! {
    static TABLE: RefCell<Option<Table>> = const { RefCell::new(None) };
}

/// RAII guard: the memo table exists on this thread while at least one
/// of these is alive. `!Send`, because the table it stands for is the
/// opening thread's.
pub struct Scope(PhantomData<*const ()>);

/// Opens a memo scope on the current thread (or joins the one already
/// open): `let _memo = polymix_math::memo::scope();`.
pub fn scope() -> Scope {
    TABLE.with(|t| t.borrow_mut().get_or_insert_with(Table::default).guards += 1);
    Scope(PhantomData)
}

impl Scope {
    /// Questions asked and computed since the outermost live scope on
    /// this thread was opened. The counts repeat exactly from run to
    /// run, so a test can pin them.
    pub fn stats(&self) -> Stats {
        // A live `Scope` keeps the table; without one nothing was asked.
        TABLE.with(|t| {
            t.borrow().as_ref().map_or(Stats::default(), |table| Stats {
                is_empty: table.is_empty.tally,
                emptiness: table.emptiness,
                sample: table.sample.tally,
            })
        })
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        // `try_with`: a guard dropped during thread teardown finds the
        // table already gone, which is all it wanted.
        let _ = TABLE.try_with(|t| {
            let mut t = t.borrow_mut();
            if let Some(table) = t.as_mut() {
                table.guards -= 1;
                if table.guards == 0 {
                    *t = None;
                }
            }
        });
    }
}

pub(crate) fn is_empty(p: &Polyhedron, compute: impl FnOnce() -> (bool, Ending)) -> bool {
    let tallied = || {
        let (empty, ending) = compute();
        TABLE.with(|t| {
            if let Some(table) = t.borrow_mut().as_mut() {
                let e = &mut table.emptiness;
                *match ending {
                    Ending::Hull => &mut e.hull,
                    Ending::Witness => &mut e.witness,
                    Ending::Eliminated => &mut e.eliminated,
                } += 1;
            }
        });
        empty
    };
    answer(|t| &mut t.is_empty, p, tallied)
}

pub(crate) fn sample(
    p: &Polyhedron,
    compute: impl FnOnce() -> Option<Vec<i64>>,
) -> Option<Vec<i64>> {
    answer(|t| &mut t.sample, p, compute)
}

/// The stored answer for `p`, or `compute()` — stored first when a table
/// exists. The table is not borrowed while `compute` runs.
fn answer<V: Clone>(
    memo: fn(&mut Table) -> &mut Memo<V>,
    p: &Polyhedron,
    compute: impl FnOnce() -> V,
) -> V {
    // `None`: no scope alive. `Some(None)`: a miss. `Some(Some(v))`: a hit.
    let looked_up = TABLE.with(|t| {
        t.borrow_mut().as_mut().map(|table| {
            let m = memo(table);
            m.tally.asked += 1;
            m.answers.get(p).cloned()
        })
    });
    match looked_up {
        None => compute(),
        Some(Some(v)) => v,
        Some(None) => {
            let v = compute();
            TABLE.with(|t| {
                if let Some(table) = t.borrow_mut().as_mut() {
                    let m = memo(table);
                    m.tally.computed += 1;
                    m.answers.insert(p.clone(), v.clone());
                }
            });
            v
        }
    }
}
