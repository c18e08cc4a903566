//! Plain-text table rendering for the experiment binaries.

/// A simple column-aligned table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &width));
            out.push('\n');
        }
        out
    }
}

/// Formats a GFLOP/s value compactly.
pub fn gf(x: f64) -> String {
    format!("{x:.2}")
}

/// The flags every measuring binary takes, each followed by its value.
const SHARED_FLAGS: [&str; 7] = [
    "--dataset",
    "--threads",
    "--jobs",
    "--compile-timeout",
    "--run-timeout",
    "--retries",
    "--results",
];

/// The argument following `key` in `args`, if `key` is there.
fn value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == key)?;
    args.get(i + 1).map(String::as_str)
}

/// Parses `--dataset <name>` / `--threads <n>` style CLI arguments with
/// defaults. A flag the binary does not take is refused, so a retired
/// flag can never silently measure something else. The sweep flags
/// (`--jobs` and friends) feed [`crate::sweep::SweepConfig::from_cli`].
pub struct Cli {
    /// Dataset name (default `small`).
    pub dataset: String,
    /// Worker threads for the *measured* kernels (default: available
    /// parallelism).
    pub threads: usize,
    /// Sweep worker threads that emit and compile (`--jobs`, default
    /// [`crate::sweep::default_jobs`]); the measured runs stay one at a
    /// time, after every compile.
    pub jobs: usize,
    /// Per-`rustc` wall-clock budget in seconds (`--compile-timeout`).
    pub compile_timeout_s: u64,
    /// Per-run wall-clock budget in seconds (`--run-timeout`).
    pub run_timeout_s: u64,
    /// Transient-failure retries (`--retries`, default 2).
    pub retries: usize,
    /// JSONL results log path (`--results`); enables resume.
    pub results: Option<String>,
    /// The arguments, for [`Cli::value`].
    args: Vec<String>,
}

impl Cli {
    /// Parses `std::env::args`, accepting the shared flags and `own`,
    /// the flags this binary reads itself; exits 2 naming any other.
    pub fn parse(own: &[&str]) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Cli::parse_args(&args, own).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// [`Cli::parse`] over `args` (program name excluded): `Err` names
    /// the first flag that is neither shared nor in `own`.
    pub fn parse_args(args: &[String], own: &[&str]) -> Result<Cli, String> {
        if let Some(bad) = args.iter().find(|a| {
            a.starts_with("--") && !SHARED_FLAGS.contains(&a.as_str()) && !own.contains(&a.as_str())
        }) {
            let mut known = SHARED_FLAGS.to_vec();
            known.extend(own);
            return Err(format!("unknown flag {bad} (takes {})", known.join(", ")));
        }
        let num = |key: &str, default: usize| -> usize {
            value(args, key)
                .and_then(|s| s.parse().ok())
                .unwrap_or(default)
        };
        Ok(Cli {
            dataset: value(args, "--dataset").unwrap_or("small").to_string(),
            threads: num(
                "--threads",
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4),
            ),
            jobs: num("--jobs", crate::sweep::default_jobs()),
            compile_timeout_s: num("--compile-timeout", 600) as u64,
            run_timeout_s: num("--run-timeout", 600) as u64,
            retries: num("--retries", 2),
            results: value(args, "--results").map(str::to_string),
            args: args.to_vec(),
        })
    }

    /// The argument following `key`, if `key` was passed.
    pub fn value(&self, key: &str) -> Option<&str> {
        value(&self.args, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["kernel", "gflops"]);
        t.row(vec!["gemm".into(), "12.34".into()]);
        t.row(vec!["jacobi-2d-imper".into(), "5.6".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("kernel"));
        assert!(lines[3].trim_start().starts_with("jacobi-2d-imper"));
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// A retired or misspelt flag is refused by name instead of being
    /// ignored; every flag `ci.sh` passes is accepted. `--jobs` and
    /// [`SweepConfig::default`](crate::sweep::SweepConfig) share one
    /// default, and an explicit count still wins.
    #[test]
    fn unknown_flags_are_refused_and_ci_flags_accepted() {
        let err = Cli::parse_args(&args("--dataset mini --threads 1 --backend vm"), &[])
            .err()
            .expect("--backend is refused");
        assert!(err.starts_with("unknown flag --backend"), "{err}");
        let tune = ["--kernels", "--budget"];
        let cores = crate::sweep::default_jobs();
        for (line, own) in [
            ("--dataset mini --run-timeout 120 --results r.jsonl", &[][..]),
            ("--kernels 2mm --dataset mini --budget 6 --run-timeout 120 --results t.jsonl", &tune),
        ] {
            let cli = Cli::parse_args(&args(line), own).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!((cli.dataset.as_str(), cli.jobs, cli.run_timeout_s), ("mini", cores, 120));
        }
        assert_eq!(crate::sweep::SweepConfig::default().jobs, cores);
        assert_eq!(Cli::parse_args(&args("--jobs 2"), &[]).map(|c| c.jobs), Ok(2));
        let cli = Cli::parse_args(&args("--kernels gemm,2mm --budget 6"), &tune).expect("own flags");
        assert_eq!(cli.value("--kernels"), Some("gemm,2mm"));
        // The tuner's winner is printed, not stored: the flags that wrote
        // and read a config file are refused like any other.
        for (line, own) in [
            ("--dataset mini --tuned", &[][..]),
            ("--dataset mini --tuned-config x", &[]),
            ("--kernels 2mm --out x", &tune),
        ] {
            let flag = line.split_whitespace().nth(2).unwrap_or_default();
            let err = Cli::parse_args(&args(line), own).err().unwrap_or_else(|| panic!("{line} accepted"));
            assert!(err.starts_with(&format!("unknown flag {flag} ")), "{err}");
        }
        let cli = Cli::parse_args(&args("--compile-timeout 9 --retries 0 --threads 5"), &[])
            .expect("shared flags");
        assert_eq!((cli.compile_timeout_s, cli.retries, cli.threads), (9, 0, 5));
        // Measured runs serialize without a knob: the retired flag is
        // refused like any other.
        let err = Cli::parse_args(&args("--jobs 2 --measure-jobs 3"), &[])
            .err()
            .expect("--measure-jobs is refused");
        assert!(err.starts_with("unknown flag --measure-jobs"), "{err}");
    }

    #[test]
    fn gf_formatting() {
        assert_eq!(gf(12.345), "12.35");
        assert_eq!(gf(0.5), "0.50");
    }
}
