//! The seven workloads and what they share.
//!
//! A workload is set up, then runs *passes* over a fixed list of cells
//! until the measuring time is used up. A pass does the same work every
//! time; `--seed` only changes the order of the cells (and, for the
//! service, which keys are drawn), so runs with different seeds measure
//! the same amount of work.

pub mod compile;
pub mod kernels;
pub mod screen;
pub mod serve;
pub mod tune;

use crate::expected::Expected;
use crate::speed::Calibrator;
use crate::stats::Rng;
use crate::trace::now_s;
use polymix_bench::runner::Runner;
use polymix_dl::Machine;
use polymix_polybench::{all_kernels, kernel_by_name, Kernel};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Kernels whose shape is decided by fusion and permutation (the DL
/// model). 3mm and covariance are left out as near-duplicates of 2mm and
/// correlation.
pub const BLAS: [&str; 14] = [
    "2mm",
    "gemm",
    "doitgen",
    "gemver",
    "gesummv",
    "mvt",
    "atax",
    "bicg",
    "syrk",
    "syr2k",
    "symm",
    "correlation",
    "cholesky",
    "trisolv",
];

/// Kernels whose shape is decided by skewing, time tiling and guards in
/// the innermost loop; fusion decides hardly anything here.
pub const STENCIL: [&str; 6] = [
    "jacobi-1d-imper",
    "jacobi-2d-imper",
    "seidel-2d",
    "fdtd-2d",
    "fdtd-apml",
    "adi",
];

/// The compile-time tail: seconds per cell where every other cell takes
/// milliseconds. Timed once, in the traced `compile` run only.
pub const TAIL: [(&str, &str); 3] = [("adi", "poly+ast"), ("adi", "pocc"), ("fdtd-2d", "pocc")];

pub const QUICK: [&str; 3] = ["gemm", "jacobi-1d-imper", "mvt"];

/// All kernels but adi and fdtd-2d (the vm and service workloads):
/// optimizing those two takes 3–5 s each and shows nothing the other
/// twenty do not.
pub fn kernels_without_tail(quick: bool) -> Vec<Kernel> {
    if quick {
        return kernels(&QUICK);
    }
    all_kernels()
        .into_iter()
        .filter(|k| !TAIL.iter().any(|(t, _)| *t == k.name))
        .collect()
}

/// The flags every `rustc` run of the benchmark uses: the runner's own.
pub fn rustc_flags() -> Vec<String> {
    Runner::new(1).rustc_flags
}

pub fn kernels(names: &[&str]) -> Vec<Kernel> {
    names
        .iter()
        .map(|n| kernel_by_name(n).unwrap_or_else(|| panic!("unknown kernel {n}")))
        .collect()
}

/// Per-cell limits that turn a runaway `rustc` or kernel into a counted
/// failure instead of a hung run.
pub const RUSTC_TIMEOUT_S: u64 = 60;
pub const RUN_TIMEOUT_S: u64 = 20;

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub inject_fault: bool,
    /// Binaries, cache directories and logs go here; removed at exit.
    pub scratch: PathBuf,
    pub machine: Machine,
    pub expected: std::sync::Arc<Expected>,
}

/// One timed cell.
pub struct CellTime {
    pub pass: usize,
    pub id: u32,
    /// Moment the cell ended, on the trace clock, and how long it took.
    pub end_s: f64,
    pub secs: f64,
}

impl Ctx {
    /// The order in which pass `pass` visits its `n` cells: the only
    /// thing `--seed` decides for a workload of fixed cells.
    pub fn order(&self, n: usize, pass: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        Rng::new(self.seed.wrapping_add(pass as u64)).shuffle(&mut order);
        order
    }
}

/// What the passes of one run produced.
#[derive(Default)]
pub struct Recorder {
    /// Calibration units of this thread, run at cell boundaries; `None`
    /// when the workload's times are not calibrated.
    pub calibrator: Option<Calibrator>,
    /// Index of the pass being run.
    pub pass: usize,
    pub cells: Vec<CellTime>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Recorder {
    /// A cell that just ended, after `secs`.
    pub fn ok(&mut self, id: u32, secs: f64) {
        self.ok_at(id, now_s(), secs);
        if let Some(c) = &mut self.calibrator {
            c.tick();
        }
    }

    /// A cell that ended at `end_s` on another thread.
    pub fn ok_at(&mut self, id: u32, end_s: f64, secs: f64) {
        self.attempted += 1;
        self.cells.push(CellTime {
            pass: self.pass,
            id,
            end_s,
            secs,
        });
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(what);
        }
    }

    /// Counts an operation that is checked but not timed as a cell.
    pub fn checked(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self.attempted += 1,
            Err(e) => self.fail(e),
        }
    }
}

/// Per-layer numbers a traced run collects besides its spans.
pub type Layers = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// Builds everything the passes need. Called once per instance, each
    /// instance with a scratch directory of its own.
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String>;
    /// One pass over the fixed cell list.
    fn pass(&mut self, ctx: &Ctx, index: usize, rec: &mut Recorder);
    /// True when every pass runs the same cells (the cell ids recur);
    /// false when no operation is ever repeated.
    fn cells_repeat(&self) -> bool {
        true
    }
    /// True when the timed work runs in this process, so that the
    /// calibration units run between cells speak for it; false when it
    /// runs in child processes (rustc, emitted kernels).
    fn calibrated(&self) -> bool;
    /// Output checks that are not part of the timed work.
    fn check(&mut self, _ctx: &Ctx, _rec: &mut Recorder) {}
    /// Traced runs only: calls into single layers that the passes do not
    /// make on their own, and counters.
    fn probes(&mut self, _ctx: &Ctx, _layers: &mut Layers, _rec: &mut Recorder) {}
    /// Stops every thread and process the workload started.
    fn teardown(&mut self) {}
}

pub fn create(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "compile" => Box::new(compile::Compile::default()),
        "kernels-blas" => Box::new(kernels::Kernels::new(&BLAS)),
        "kernels-stencil" => Box::new(kernels::Kernels::new(&STENCIL)),
        "screen" => Box::new(screen::Screen::default()),
        "tune" => Box::new(tune::Tune::default()),
        "serve-warm" => Box::new(serve::Serve::new(serve::Mode::Warm)),
        "serve-cold" => Box::new(serve::Serve::new(serve::Mode::Cold)),
        _ => return None,
    })
}
