//! Fig. 6: point-to-point pipeline vs wavefront doall on a Seidel-style
//! dependent 2-D sweep, over a thread sweep. The pipeline construct pays
//! one fill/drain; the wavefront pays an all-to-all barrier per diagonal
//! plus ragged diagonal lengths — the gap grows with thread count.

use polymix_bench::report::{usage, Cli, Spec, Table};
use polymix_runtime::{pipeline_2d, wavefront_2d, GridSweep, RuntimeError};
use std::time::Instant;

fn sweep(
    grid: GridSweep,
    field: &mut [f64],
    nj: usize,
    threads: usize,
    pipeline: bool,
) -> Result<f64, RuntimeError> {
    // C[i][j] = 0.2 * (C[i][j] + C[i-1][j] + C[i][j-1]) per interior cell.
    let ptr = field.as_mut_ptr() as usize;
    let body = move |i: i64, j: i64| {
        let p = ptr as *mut f64;
        let (i, j) = (i as usize, j as usize);
        unsafe {
            let v = 0.2
                * (*p.add(i * nj + j) + *p.add((i - 1) * nj + j) + *p.add(i * nj + j - 1));
            *p.add(i * nj + j) = v;
        }
    };
    let t0 = Instant::now();
    if pipeline {
        pipeline_2d(grid, threads, body)?;
    } else {
        wavefront_2d(grid, threads, body)?;
    }
    Ok(t0.elapsed().as_secs_f64())
}

fn main() {
    let cli = Cli::parse(&Spec::values(&["--dataset", "--threads"]));
    let max_threads = cli.threads().unwrap_or_else(usage);
    let (ni, nj) = match cli.dataset("small").unwrap_or_else(usage).as_str() {
        "mini" => (64usize, 64usize),
        "small" => (1000, 1000),
        _ => (4000, 4000),
    };
    println!("== Fig. 6 — pipeline (p2p) vs wavefront doall ==");
    println!("grid {ni}x{nj}, 20 sweeps per measurement");
    let grid = GridSweep {
        i_lo: 1,
        i_hi: ni as i64,
        j_lo: 1,
        j_hi: nj as i64,
    };
    let cells_per_sweep = grid.cells() as f64;
    let mut t = Table::new(&["threads", "pipeline Mcell/s", "wavefront Mcell/s", "speedup"]);
    let mut any_degraded = false;
    let mut th = 1;
    while th <= max_threads {
        // On a RuntimeError the measurement degrades to a sequential
        // re-run of the same sweep (marked `†`), matching the sweep
        // executor's degraded(sequential) policy.
        let mut run = |pipeline: bool| -> (f64, bool) {
            let mut field = vec![1.0f64; ni * nj];
            let mut total = 0.0;
            let mut degraded = false;
            for _ in 0..20 {
                match sweep(grid, &mut field, nj, th, pipeline) {
                    Ok(dt) => total += dt,
                    Err(e) => {
                        eprintln!(
                            "fig6: {} failed at {th} threads ({e}); degrading to sequential",
                            if pipeline { "pipeline" } else { "wavefront" }
                        );
                        degraded = true;
                        any_degraded = true;
                        total += sweep(grid, &mut field, nj, 1, pipeline)
                            .expect("sequential re-run");
                    }
                }
            }
            (20.0 * cells_per_sweep / total / 1e6, degraded)
        };
        let (p, pd) = run(true);
        let (w, wd) = run(false);
        t.row(vec![
            th.to_string(),
            format!("{p:.1}{}", if pd { "†" } else { "" }),
            format!("{w:.1}{}", if wd { "†" } else { "" }),
            format!("{:.2}x", p / w),
        ]);
        th *= 2;
    }
    println!("{}", t.render());
    if any_degraded {
        println!("† degraded(sequential): parallel run failed; sequential re-run measured");
    }
    println!("(paper: pipeline outperforms wavefront due to synchronization efficiency and locality)");
}
