//! Failure path of the emitted kernels' runtime. A panicking loop body
//! must fail its own region — the entry point returns `false` and no
//! worker waits forever on a neighbor that died — and raise `POISONED`
//! for an emitted `main`; and it must fail *only* its own region: a
//! region started afterwards in the same process (the daemon's and the
//! vm's situation) runs every cell. `POISONED` is process-wide and
//! sticky, which is why these tests have a test binary of their own and
//! take turns on [`SERIAL`].

use polymix_runtime::kernel_rt::{doall, pipeline, poisoned, reduction, wavefront, P, POISONED};
use polymix_runtime::{par_for, pipeline_2d, reduce_array, wavefront_2d, GridSweep};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::Duration;

/// The tests of this binary read and reset the process-wide flag.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `region` on its own thread and fails the test if it has not
/// returned within the deadline (a hang is the bug being tested for).
fn in_time<T: Send + 'static>(what: &str, region: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, wait) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(region());
    });
    wait.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{what}: did not return in time"))
}

/// Runs a region whose body panics and asserts it reports the failure
/// and raises `POISONED`. Leaves the flag cleared.
fn returns_poisoned(what: &str, region: impl FnOnce() -> bool + Send + 'static) {
    assert!(!poisoned(), "{what}: flag raised before the region ran");
    assert!(
        !in_time(what, region),
        "{what}: a failed region returned true"
    );
    assert!(poisoned(), "{what}: worker panic did not raise POISONED");
    POISONED.store(false, Ordering::Release);
}

fn counters(n: usize) -> Vec<AtomicU32> {
    (0..n).map(|_| AtomicU32::new(0)).collect()
}

fn each_once(what: &str, hits: &[AtomicU32]) {
    for (k, h) in hits.iter().enumerate() {
        assert_eq!(
            h.load(Ordering::Relaxed),
            1,
            "{what}: cell {k} ran a wrong number of times"
        );
    }
}

#[test]
fn a_panicking_body_poisons_every_entry_point_without_hanging() {
    let _serial = serial();
    // The panics are the point; keep them out of the test output.
    std::panic::set_hook(Box::new(|_| {}));
    for grain in [None, Some(1)] {
        returns_poisoned("doall", move || {
            doall(4, 0, 99, 1, grain, |v| assert_ne!(v, 57, "injected"))
        });
    }
    returns_poisoned("reduction", || {
        let mut acc = vec![0.0f64; 1];
        let base = P(acc.as_mut_ptr());
        // SAFETY: `acc` has one cell, reached only through the copies.
        unsafe {
            reduction(4, 0, 99, 1, &[(base, 1)], |v, copies| {
                assert_ne!(v, 57, "injected");
                *copies[0].get() += 1.0;
            })
        }
    });
    for batch in [1, 8] {
        // Block 1 of 4 dies at step 3: its left and right neighbors are
        // (or will be) waiting on its progress, block 3 on block 2's.
        returns_poisoned("pipeline", move || {
            pipeline(4, 0, 49, 1, 2, 40, 1, batch, |outer, _, off_lo, _| {
                assert!(outer != 3 || off_lo != 10, "injected");
            })
        });
    }
    returns_poisoned("wavefront", || {
        let tiles = (0..8).flat_map(|u| (0..8).map(move |v| (u, v))).collect();
        wavefront(4, 1, tiles, |u, v| assert!((u, v) != (3, 3), "injected"))
    });
    let _ = std::panic::take_hook();
}

#[test]
fn a_failed_region_does_not_stop_the_next_one() {
    let _serial = serial();
    std::panic::set_hook(Box::new(|_| {}));
    // The failed region a daemon or the vm may have met earlier on.
    assert!(!in_time("failing doall", || {
        doall(4, 0, 99, 1, None, |v| assert_ne!(v, 57, "injected"))
    }));
    let _ = std::panic::take_hook();
    assert!(poisoned(), "the emitted main's gate still sees the failure");

    // Each entry point then runs a clean region: every cell once, `true`.
    for grain in [None, Some(0)] {
        let (clean, hits) = in_time("doall", move || {
            let hits = counters(100);
            let clean = doall(4, 0, 99, 1, grain, |v| {
                hits[v as usize].fetch_add(1, Ordering::Relaxed);
            });
            (clean, hits)
        });
        assert!(clean, "doall {grain:?}");
        each_once("doall", &hits);
    }
    let (clean, hist) = in_time("reduction", || {
        let mut hist = vec![0.0f64; 5];
        let base = P(hist.as_mut_ptr());
        // SAFETY: `hist` has five cells, reached only through the copies.
        let clean = unsafe {
            reduction(4, 0, 99, 1, &[(base, 5)], |v, copies| {
                *copies[0].get().add((v % 5) as usize) += 1.0;
            })
        };
        (clean, hist)
    });
    assert!(clean, "reduction");
    assert_eq!(hist, vec![20.0; 5]);
    let (clean, hits) = in_time("pipeline", || {
        // 50 outer steps x 2 phases x 40 offsets, one counter each.
        let hits = counters(50 * 2 * 40);
        let clean = pipeline(4, 0, 49, 1, 2, 40, 1, 8, |outer, phase, off_lo, off_hi| {
            for off in off_lo..=off_hi.min(39) {
                hits[((outer * 2 + phase) * 40 + off) as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
        (clean, hits)
    });
    assert!(clean, "pipeline");
    each_once("pipeline", &hits);
    let (clean, hits) = in_time("wavefront", || {
        let hits = counters(64);
        let tiles = (0..8).flat_map(|u| (0..8).map(move |v| (u, v))).collect();
        let clean = wavefront(4, 1, tiles, |u, v| {
            hits[(u * 8 + v) as usize].fetch_add(1, Ordering::Relaxed);
        });
        (clean, hits)
    });
    assert!(clean, "wavefront");
    each_once("wavefront", &hits);

    // The wrappers over them, likewise.
    let grid = GridSweep {
        i_lo: 0,
        i_hi: 9,
        j_lo: 0,
        j_hi: 11,
    };
    let hits = in_time("wrappers", move || {
        let hits = counters(100 + 2 * 99);
        par_for(0, 100, 4, |i| {
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
        })
        .expect("par_for after a failed region");
        let mut acc = vec![1.0f64];
        reduce_array(&mut acc, 0, 100, 4, |_, local| local[0] += 1.0)
            .expect("reduce_array after a failed region");
        assert_eq!(acc, vec![101.0]);
        let cell = |base: usize| {
            let hits = &hits;
            move |i: i64, j: i64| {
                hits[base + (i * 11 + j) as usize].fetch_add(1, Ordering::Relaxed);
            }
        };
        pipeline_2d(grid, 4, cell(100)).expect("pipeline_2d after a failed region");
        wavefront_2d(grid, 4, cell(199)).expect("wavefront_2d after a failed region");
        hits
    });
    each_once("wrappers", &hits);

    // A failed reduction merges no private copy.
    std::panic::set_hook(Box::new(|_| {}));
    let (clean, acc) = in_time("failing reduction", || {
        let mut acc = vec![3.0f64; 2];
        let base = P(acc.as_mut_ptr());
        // SAFETY: `acc` has two cells, reached only through the copies.
        let clean = unsafe {
            reduction(4, 0, 99, 1, &[(base, 2)], |v, copies| {
                *copies[0].get() += 1.0;
                assert_ne!(v, 57, "injected");
            })
        };
        (clean, acc)
    });
    let _ = std::panic::take_hook();
    assert!(!clean, "the reduction failed");
    assert_eq!(
        acc,
        vec![3.0, 3.0],
        "a failed reduction left its target as it was"
    );
    POISONED.store(false, Ordering::Release);
}
