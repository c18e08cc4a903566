//! Machine (cache / TLB) descriptions for the DL model and the cache
//! simulator harness.

/// One level of the memory hierarchy as the DL model sees it: a pool of
/// lines of a given size with an aggregate capacity and a per-line miss
/// cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheLevel {
    /// Line (or page, for TLBs) size in bytes.
    pub line_bytes: usize,
    /// Total capacity in bytes (entries × page size for TLBs).
    pub capacity_bytes: usize,
    /// Relative miss penalty per line (`Cost_line` in the paper).
    pub cost_per_line: f64,
}

impl CacheLevel {
    /// Number of lines the level can hold.
    pub fn lines(&self) -> usize {
        self.capacity_bytes / self.line_bytes
    }
}

/// A machine description: the cache/TLB levels the DL model accounts for,
/// plus a core count (which only the `power7_model` projection reads).
#[derive(Clone, Debug)]
pub struct Machine {
    /// Human-readable name.
    pub name: String,
    /// Memory hierarchy levels, innermost (L1) first.
    pub levels: Vec<CacheLevel>,
    /// Number of hardware cores to parallelize across.
    pub cores: usize,
    /// Cycles from one floating-point add to the next add that reads its
    /// result: how many independent sums the core must keep in flight
    /// to issue one add per cycle. Register tiling sizes its jams by it
    /// (`polymix_codegen::opt::jam_nest`).
    pub fp_add_latency: usize,
}

impl Machine {
    /// An Intel Nehalem-like machine: 32 KB L1 (64 B lines), 256 KB L2,
    /// 8 MB L3, 64-entry DTLB of 4 KB pages, 8 cores.
    pub fn nehalem() -> Machine {
        Machine {
            name: "nehalem".into(),
            levels: vec![
                CacheLevel {
                    line_bytes: 64,
                    capacity_bytes: 32 * 1024,
                    cost_per_line: 1.0,
                },
                CacheLevel {
                    line_bytes: 64,
                    capacity_bytes: 256 * 1024,
                    cost_per_line: 4.0,
                },
                CacheLevel {
                    line_bytes: 4096,
                    capacity_bytes: 64 * 4096,
                    cost_per_line: 8.0,
                },
            ],
            cores: 8,
            fp_add_latency: 4,
        }
    }

    /// An IBM Power7-like machine: 32 KB L1 (128 B lines), 256 KB L2,
    /// 4 MB local L3 slice, 512-entry TLB of 4 KB pages, 32 cores
    /// (4 chips × 8).
    pub fn power7() -> Machine {
        Machine {
            name: "power7".into(),
            levels: vec![
                CacheLevel {
                    line_bytes: 128,
                    capacity_bytes: 32 * 1024,
                    cost_per_line: 1.0,
                },
                CacheLevel {
                    line_bytes: 128,
                    capacity_bytes: 256 * 1024,
                    cost_per_line: 4.0,
                },
                CacheLevel {
                    line_bytes: 4096,
                    capacity_bytes: 512 * 4096,
                    cost_per_line: 8.0,
                },
            ],
            cores: 32,
            fp_add_latency: 6,
        }
    }

    /// The machine running this process: core count from
    /// `std::thread::available_parallelism`, Nehalem-like hierarchy
    /// otherwise (the DL decisions only need rough geometry).
    pub fn host() -> Machine {
        let mut m = Machine::nehalem();
        m.name = "host".into();
        m.cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        m
    }

    /// The level the DL permutation decisions target (L1).
    pub fn primary_level(&self) -> &CacheLevel {
        &self.levels[0]
    }

    /// The level fusion profitability targets: fusion exploits reuse at
    /// outer loop levels, whose working sets live in L2 (falls back to L1
    /// on single-level machines).
    pub fn fusion_level(&self) -> &CacheLevel {
        self.levels.get(1).unwrap_or(&self.levels[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_geometry() {
        for m in [Machine::nehalem(), Machine::power7()] {
            assert!(!m.levels.is_empty());
            assert!(m.cores >= 8);
            assert!(m.primary_level().lines() > 0);
            assert!(m.primary_level().line_bytes >= 64);
        }
        assert_eq!(Machine::nehalem().cores, 8);
        assert_eq!(Machine::power7().cores, 32);
    }

    #[test]
    fn host_reports_parallelism() {
        let m = Machine::host();
        assert!(m.cores >= 1);
    }

    #[test]
    fn line_counts() {
        let l = CacheLevel {
            line_bytes: 64,
            capacity_bytes: 32 * 1024,
            cost_per_line: 1.0,
        };
        assert_eq!(l.lines(), 512);
    }
}
