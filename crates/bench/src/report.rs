//! Plain-text table rendering and the one command-line parser of the
//! experiment and service binaries.

use polymix_polybench::{all_kernels, extended_kernels};
use std::str::FromStr;

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

/// What a binary's command line may hold; anything else is refused.
#[derive(Clone, Copy)]
pub struct Spec<'a> {
    /// Flags followed by their value, e.g. `--dataset mini`.
    pub values: &'a [&'a str],
    /// Flags that stand alone, e.g. `--strict`.
    pub switches: &'a [&'a str],
    /// Whether arguments that are no flag are taken.
    pub positionals: bool,
}

impl<'a> Spec<'a> {
    /// A command line of value flags alone.
    pub const fn values(values: &'a [&'a str]) -> Spec<'a> {
        Spec {
            values,
            switches: &[],
            positionals: false,
        }
    }
}

/// A command line checked against its [`Spec`]; a binary reads every
/// value from it before any work and exits 2 on a refusal ([`usage`]).
#[derive(Default)]
pub struct Cli {
    /// Each flag given, with its value (`None` for a switch).
    flags: Vec<(String, Option<String>)>,
    positionals: Vec<String>,
}

/// Prints a usage error and exits 2.
pub fn usage<T>(e: String) -> T {
    eprintln!("{e}");
    std::process::exit(2)
}

impl Cli {
    /// Parses `std::env::args` against `spec`; exits 2 naming the
    /// argument on a refusal.
    pub fn parse(spec: &Spec) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Cli::parse_args(&args, spec).unwrap_or_else(usage)
    }

    /// [`Cli::parse`] for a binary whose first argument names one of
    /// `commands` (the first when there is no argument), each with its
    /// own spec.
    pub fn parse_command<'c>(commands: &[(&'c str, Spec)]) -> (&'c str, Cli) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let name = args.first().map_or(commands[0].0, String::as_str);
        let Some((cmd, spec)) = commands.iter().find(|(c, _)| *c == name) else {
            let names: Vec<&str> = commands.iter().map(|(c, _)| *c).collect();
            return usage(format!("unknown subcommand {name:?} (one of {names:?})"));
        };
        let cli = Cli::parse_args(args.get(1..).unwrap_or_default(), spec)
            .unwrap_or_else(|e| usage(format!("{cmd}: {e}")));
        (cmd, cli)
    }

    /// [`Cli::parse`] over `args` (program name excluded): refuses an
    /// undeclared or repeated flag, a value flag whose value is missing
    /// or is itself a flag, and an undeclared positional.
    pub fn parse_args(args: &[String], spec: &Spec) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut rest = args.iter();
        while let Some(a) = rest.next() {
            if !a.starts_with("--") {
                if !spec.positionals {
                    return Err(format!("unexpected argument {a:?} (takes no positional)"));
                }
                cli.positionals.push(a.clone());
            } else if cli.flags.iter().any(|(k, _)| k == a) {
                return Err(format!("{a} given twice"));
            } else if spec.switches.contains(&a.as_str()) {
                cli.flags.push((a.clone(), None));
            } else if spec.values.contains(&a.as_str()) {
                let v = rest.next().filter(|v| !v.starts_with("--"));
                let v = v.ok_or_else(|| format!("{a} needs a value"))?;
                cli.flags.push((a.clone(), Some(v.clone())));
            } else {
                let known = [spec.values, spec.switches].concat();
                return Err(format!("unknown flag {a} (takes [{}])", known.join(", ")));
            }
        }
        Ok(cli)
    }

    /// The value given with `key`, if `key` was passed.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.flags.iter().find(|(k, _)| k == key)?.1.as_deref()
    }

    /// Whether the switch `key` was passed.
    pub fn switch(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, v)| k == key && v.is_none())
    }

    /// The arguments that are no flag, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The value of `key` parsed as `T`, `default` when absent.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            Some(v) => v.parse().map_err(|_| format!("{key} {v:?} does not parse")),
            None => Ok(default),
        }
    }

    /// [`Cli::get`] for a count, which must be at least one.
    pub fn count<T>(&self, key: &str, default: T) -> Result<T, String>
    where
        T: FromStr + PartialEq + From<u8>,
    {
        match self.get(key, default)? {
            n if n == T::from(0) => Err(format!("{key} must be at least 1")),
            n => Ok(n),
        }
    }

    /// `--threads`: worker threads for the measured kernels, default one
    /// per core the process may use.
    pub fn threads(&self) -> Result<usize, String> {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        self.count("--threads", cores)
    }

    /// `--dataset`, `default` when absent: a name every kernel has,
    /// since a kernel lacking it would run at another size.
    pub fn dataset(&self, default: &str) -> Result<String, String> {
        let name = self.value("--dataset").unwrap_or(default);
        let mut kernels = all_kernels().into_iter().chain(extended_kernels());
        match kernels.find(|k| k.try_dataset(name).is_none()) {
            Some(k) => Err(format!("--dataset {name}: kernel {} lacks it", k.name)),
            None => Ok(name.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepConfig, SWEEP_FLAGS};

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

    /// The flags of a binary that sweeps: the grid drivers, plus
    /// `extra` (`tune`'s own).
    fn sweeping(extra: &[&'static str]) -> Vec<&'static str> {
        [&["--dataset", "--threads"][..], &SWEEP_FLAGS, extra].concat()
    }

    fn parse(line: &str, values: &[&str]) -> Result<Cli, String> {
        Cli::parse_args(&args(line), &Spec::values(values))
    }

    /// A retired or misspelt flag is refused by name instead of being
    /// ignored; every flag line `ci.sh` passes parses to the values it
    /// always did, and each sweep default is
    /// [`SweepConfig::default`]'s.
    #[test]
    fn unknown_flags_are_refused_and_ci_flags_accepted() {
        let (grid, tune) = (sweeping(&[]), sweeping(&["--kernels", "--budget"]));
        let err = parse("--dataset mini --threads 1 --backend vm", &grid).err();
        assert!(err.is_some_and(|e| e.starts_with("unknown flag --backend")));
        let d = SweepConfig::default();
        for (line, values) in [
            ("--dataset mini --run-timeout 120 --results r.jsonl", &grid),
            (
                "--kernels 2mm --dataset mini --budget 6 --run-timeout 120 --results t.jsonl",
                &tune,
            ),
        ] {
            let cli = parse(line, values).unwrap_or_else(|e| panic!("{line}: {e}"));
            let cfg = SweepConfig::from_cli(&cli).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(cli.dataset("small").as_deref(), Ok("mini"));
            assert_eq!(
                (cfg.jobs, cfg.compile_timeout, cfg.retries),
                (d.jobs, d.compile_timeout, d.retries)
            );
            assert_eq!(cfg.run_timeout, std::time::Duration::from_secs(120));
            assert!(cfg.results_path.is_some());
        }
        let cli = parse("--kernels gemm,2mm --budget 6", &tune).expect("own flags");
        assert_eq!(
            (cli.value("--kernels"), cli.count("--budget", 12)),
            (Some("gemm,2mm"), Ok(6))
        );
        let cli = parse(
            "--jobs 2 --compile-timeout 9 --retries 0 --threads 5",
            &grid,
        )
        .expect("sweep flags");
        let cfg = SweepConfig::from_cli(&cli).expect("counts");
        assert_eq!(
            (cfg.jobs, cfg.compile_timeout.as_secs(), cfg.retries),
            (2, 9, 0)
        );
        assert_eq!(cli.threads(), Ok(5));
        // Flags of retired behaviour are refused like any other: the
        // tuner's config files and the measured-run knob.
        for (line, values) in [
            ("--dataset mini --tuned", &grid),
            ("--dataset mini --tuned-config x", &grid),
            ("--kernels 2mm --out x", &tune),
            ("--jobs 2 --measure-jobs 3", &grid),
        ] {
            let flag = line.split_whitespace().nth(2).unwrap_or_default();
            let err = parse(line, values)
                .err()
                .unwrap_or_else(|| panic!("{line} accepted"));
            assert!(err.starts_with(&format!("unknown flag {flag} ")), "{err}");
        }
    }

    /// Every misparse that used to run with a default, or ignore an
    /// argument, is refused with the argument named.
    #[test]
    fn malformed_command_lines_are_refused_by_name() {
        let (grid, fig6) = (sweeping(&[]), ["--dataset", "--threads"]);
        for (line, values, said) in [
            // a value flag with no value, or with a flag as its value
            (
                "--threads 2 --dataset",
                &grid[..],
                "--dataset needs a value",
            ),
            ("--dataset --threads 2", &grid, "--dataset needs a value"),
            // a repeated flag
            (
                "--dataset mini --dataset small",
                &grid,
                "--dataset given twice",
            ),
            // a stray positional
            ("mini", &grid, "unexpected argument \"mini\""),
            // a sweep flag given to a binary that does not sweep
            ("--jobs 4", &fig6, "unknown flag --jobs"),
        ] {
            let err = parse(line, values)
                .err()
                .unwrap_or_else(|| panic!("{line} accepted"));
            assert!(err.starts_with(said), "{line}: {err}");
        }
        // a value that does not parse, and a zero count
        for (line, said) in [
            ("--threads two", "--threads \"two\" does not parse"),
            ("--threads 0", "--threads must be at least 1"),
            ("--jobs 0", "--jobs must be at least 1"),
            ("--jobs 4x", "--jobs \"4x\" does not parse"),
            ("--run-timeout 0", "--run-timeout must be at least 1"),
            (
                "--compile-timeout -1",
                "--compile-timeout \"-1\" does not parse",
            ),
            ("--retries many", "--retries \"many\" does not parse"),
        ] {
            let cli = parse(line, &grid).unwrap_or_else(|e| panic!("{line}: {e}"));
            let err = cli
                .threads()
                .and(SweepConfig::from_cli(&cli).map(|_| 0))
                .err();
            assert_eq!(err.as_deref(), Some(said), "{line}");
        }
        // a dataset some kernel lacks; every kernel has the four sizes
        let cli = parse("--dataset standrad", &grid).expect("a value");
        assert!(cli
            .dataset("small")
            .is_err_and(|e| e.starts_with("--dataset standrad: kernel ")));
        for name in ["mini", "small", "standard", "large"] {
            assert_eq!(
                parse("", &grid).and_then(|c| c.dataset(name)),
                Ok(name.to_string())
            );
        }
        // switches and positionals where declared
        let spec = Spec {
            values: &["--dataset"],
            switches: &["--strict"],
            positionals: true,
        };
        let cli =
            Cli::parse_args(&args("gemm --strict --dataset mini atax"), &spec).expect("declared");
        assert!(cli.switch("--strict") && !cli.switch("--dataset"));
        assert_eq!(cli.positionals(), ["gemm", "atax"]);
        let err = Cli::parse_args(&args("--strict --strict"), &spec).err();
        assert_eq!(err.as_deref(), Some("--strict given twice"));
    }

    #[test]
    fn gf_formatting() {
        assert_eq!(gf(12.345), "12.35");
        assert_eq!(gf(0.5), "0.50");
    }
}
