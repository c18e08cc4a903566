//! Integration tests for the persistent worker pool: reuse across
//! back-to-back jobs, recovery after a panicking job, bit-exact
//! agreement with the sequential sweep — plain and under adversarial
//! seeded schedules with the order checker armed, at grid depths that
//! exercise every automatic publish batch. A scheduling bug in the pool
//! (lost wakeup, stale mailbox, worker running the wrong slot) shows up
//! as a checksum mismatch or a hang, not a silent pass.

use polymix_runtime::fault_inject::FaultPlan;
use polymix_runtime::order_check::OrderChecker;
use polymix_runtime::{
    par_for, pipeline_2d_opts, GridSweep, RuntimeError, RuntimeOptions,
};
use std::sync::atomic::{AtomicI64, Ordering};

#[test]
fn pool_survives_a_panicking_job_mid_stress_sequence() {
    // 50 back-to-back jobs on the persistent pool; job 25 panics. The
    // panic must surface as WorkerPanic for that job only, and every
    // later job must still run to completion.
    let n = 64i64;
    for round in 0..50 {
        let hits: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(0)).collect();
        let result = par_for(0, n, 4, |i| {
            if round == 25 && i == 40 {
                std::panic::panic_any("stress boom");
            }
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
        });
        if round == 25 {
            let err = result.expect_err("round 25 must report the panic");
            assert!(
                matches!(err, RuntimeError::WorkerPanic { .. }),
                "unexpected error: {err:?}"
            );
        } else {
            let stats = result.expect("healthy rounds succeed");
            assert_eq!(stats.cells, n as u64);
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }
}

fn seidel_field(ni: usize, nj: usize) -> Vec<f64> {
    (0..ni * nj).map(|k| (k % 17) as f64).collect()
}

/// The Seidel-style dependent update of one interior cell of `field`.
fn seidel_cell(field: &mut [f64], nj: usize) -> impl Fn(i64, i64) + Sync {
    let ptr = field.as_mut_ptr() as usize;
    move |i, j| {
        let p = ptr as *mut f64;
        let (i, j) = (i as usize, j as usize);
        // SAFETY: each interior cell is written once, after its (i-1, j)
        // and (i, j-1) sources — exactly the order the pipeline enforces
        // — and `field` outlives the sweep that calls this.
        unsafe {
            let v =
                0.2 * (*p.add(i * nj + j) + *p.add((i - 1) * nj + j) + *p.add(i * nj + j - 1));
            *p.add(i * nj + j) = v;
        }
    }
}

fn interior(ni: usize, nj: usize) -> GridSweep {
    GridSweep {
        i_lo: 1,
        i_hi: ni as i64,
        j_lo: 1,
        j_hi: nj as i64,
    }
}

/// Sweeps a fresh field; returns the final values.
fn seidel_sweep(
    ni: usize,
    nj: usize,
    threads: usize,
    opts: RuntimeOptions,
) -> Result<Vec<f64>, RuntimeError> {
    let mut field = seidel_field(ni, nj);
    pipeline_2d_opts(interior(ni, nj), threads, opts, seidel_cell(&mut field, nj))?;
    Ok(field)
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn repeated_pooled_sweeps_agree_with_the_sequential_sweep_bit_for_bit() {
    let opts = RuntimeOptions::default();
    let reference = seidel_sweep(33, 29, 1, opts).expect("sequential sweep");
    // Repeat invocations on the pool: the many-invocations-small-grid
    // shape the pool exists for.
    for _ in 0..8 {
        let pooled = seidel_sweep(33, 29, 4, opts).expect("pooled sweep");
        assert!(bits_equal(&pooled, &reference), "pooled sweep diverged");
    }
}

#[test]
fn watchdog_tolerates_workers_parked_between_pooled_jobs() {
    // The watchdog regression this pins: persistent-pool workers park in
    // their mailboxes between jobs, and gang delivery wakes them one at
    // a time. A waiter from job N+1 whose deadline is shorter than that
    // delivery latency used to see a frozen progress epoch — parked
    // peers publish nothing — and report `Stalled` on a perfectly
    // healthy run. The fix feeds the watchdog from the pool's
    // job-lifecycle heartbeat until the gang is fully online, so
    // back-to-back pooled jobs under a tight deadline must all pass,
    // including after idle gaps longer than the deadline itself.
    let opts = RuntimeOptions {
        watchdog: Some(std::time::Duration::from_millis(75)),
    };
    for round in 0..12 {
        let field = seidel_sweep(17, 19, 4, opts)
            .unwrap_or_else(|e| panic!("watched pooled round {round} failed: {e:?}"));
        assert_eq!(field.len(), 17 * 19);
        if round % 4 == 3 {
            // Idle longer than the watchdog deadline with every worker
            // parked; the next round must still come up clean.
            std::thread::sleep(std::time::Duration::from_millis(120));
        }
    }
}

/// Pipeline grids of depth 12 / 36 / 200 at 3 workers publish every
/// 1 / 3 / 8 rows (the automatic batch at its floor, in the middle, at
/// its cap). Under an adversarial seeded schedule (per-cell delays +
/// yields) each must equal the sequential sweep and keep the await cone.
#[test]
fn every_automatic_batch_survives_an_adversarial_schedule() {
    let nj = 21usize;
    for ni in [13usize, 37, 201] {
        let opts = RuntimeOptions::watched();
        let reference = seidel_sweep(ni, nj, 1, opts).expect("sequential sweep");
        let plan = FaultPlan {
            seed: 0xC0FFEE,
            delay_us_max: 40,
            yield_pct: 25,
            ..FaultPlan::default()
        };
        let checker =
            OrderChecker::new(interior(ni, nj), &[(1, 0), (0, 1)]).expect("shadow fits");
        let mut got = seidel_field(ni, nj);
        let body = plan.wrap(checker.wrap(seidel_cell(&mut got, nj)));
        pipeline_2d_opts(interior(ni, nj), 3, opts, body).expect("sweep under faults");
        checker
            .finish()
            .unwrap_or_else(|e| panic!("depth {}: {e}", ni - 1));
        assert!(
            bits_equal(&got, &reference),
            "depth {} diverged under the adversarial schedule",
            ni - 1
        );
    }
}
