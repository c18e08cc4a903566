//! Failure path of the emitted kernels' runtime: a panicking loop body
//! must raise `POISONED` and every entry point must still return — no
//! worker may wait forever on a neighbor that died. `POISONED` is
//! process-wide and sticky, which is why this is one test in a test
//! binary of its own: it resets the flag between entry points, and no
//! other test may observe it raised.

use polymix_runtime::kernel_rt::{doall, pipeline, poisoned, reduction, wavefront, POISONED};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::Duration;

/// Runs `region` on its own thread and fails the test if it has not
/// returned within the deadline (a hang is the bug being tested for).
/// Leaves `POISONED` cleared for the next entry point.
fn returns_poisoned(what: &str, region: impl FnOnce() + Send + 'static) {
    assert!(!poisoned(), "{what}: flag raised before the region ran");
    let (done, wait) = mpsc::channel();
    std::thread::spawn(move || {
        region();
        let _ = done.send(());
    });
    wait.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{what}: did not return after a worker panic"));
    assert!(poisoned(), "{what}: worker panic did not raise POISONED");
    POISONED.store(false, Ordering::Release);
}

#[test]
fn a_panicking_body_poisons_every_entry_point_without_hanging() {
    // The panics are the point; keep them out of the test output.
    std::panic::set_hook(Box::new(|_| {}));
    for grain in [None, Some(1)] {
        returns_poisoned("doall", move || {
            doall(4, 0, 99, 1, grain, |v| assert_ne!(v, 57, "injected"));
        });
    }
    returns_poisoned("reduction", || {
        let mut acc = vec![0.0f64; 1];
        let base = polymix_runtime::kernel_rt::P(acc.as_mut_ptr());
        // SAFETY: `acc` has one cell, reached only through the copies.
        unsafe {
            reduction(4, 0, 99, 1, &[(base, 1)], |v, copies| {
                assert_ne!(v, 57, "injected");
                *copies[0].get() += 1.0;
            });
        }
    });
    for batch in [1, 8] {
        // Block 1 of 4 dies at step 3: its left and right neighbors are
        // (or will be) waiting on its progress, block 3 on block 2's.
        returns_poisoned("pipeline", move || {
            pipeline(4, 0, 49, 1, 2, 40, 1, batch, |outer, _, off_lo, _| {
                assert!(outer != 3 || off_lo != 10, "injected");
            });
        });
    }
    returns_poisoned("wavefront", || {
        let tiles = (0..8).flat_map(|u| (0..8).map(move |v| (u, v))).collect();
        wavefront(4, 1, tiles, |u, v| assert!((u, v) != (3, 3), "injected"));
    });
    let _ = std::panic::take_hook();
}
