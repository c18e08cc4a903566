//! `service_load` — the daemon load test (EXPERIMENTS "service" row).
//!
//! Fires a deterministic mix of 10k+ requests at a daemon — steady-state
//! repeats that should hit the schedule cache, churn misses with unique
//! tile sizes, injected scheduler panics, injected slow compiles against
//! tight deadlines, torn cache writes, and outright malformed requests —
//! and reports whether every single one came back as a *well-formed*
//! response (the acceptance bar is ≥99.9%; below it the exit status is
//! non-zero), with latency percentiles and the served-outcome
//! histogram. It is a soak, not a benchmark: the numbers the repository
//! records come from `benchmark/`'s `serve-*` workloads, which inject no
//! faults.
//!
//! ```text
//! cargo run --release -p polymix-service --bin service_load -- \
//!     --requests 10000 --conns 8
//! ```
//!
//! Without `--addr` the daemon runs in-process (fresh cache dir wiped at
//! start unless `--keep-cache`); with `--addr` an external daemon is
//! exercised — it must have been started with `--allow-inject`.

use polymix_bench::report::{usage, Cli, Spec};
use polymix_polybench::all_kernels;
use polymix_service::daemon::{Service, ServiceConfig};
use polymix_service::fault::hide_injected_panics;
use polymix_service::proto::{OptimizeRequest, Served};
use polymix_service::{Client, Fault};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What the mix generator expects back for one request.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// 200 `ok` (any served kind) — or a 429 shed under pressure.
    Ok,
    /// 400 `bad-request`.
    Bad,
}

struct Plan {
    req: OptimizeRequest,
    expect: Expect,
}

/// Deterministic request mix by global index. Prime strides keep the
/// fault families from aliasing each other.
fn plan(i: usize, kernels: &[String]) -> Plan {
    let variants = ["poly+ast", "pocc", "native", "pocc+vect"];
    let kernel = kernels[i % kernels.len()].clone();
    let variant = variants[(i / kernels.len()) % variants.len()].to_string();
    // Malformed: unknown kernel → 400.
    if i % 199 == 0 {
        return Plan {
            req: OptimizeRequest {
                kernel: "no-such-kernel".into(),
                ..OptimizeRequest::default()
            },
            expect: Expect::Bad,
        };
    }
    // Injected scheduler panic, pinned to one "poison" kernel so its
    // breaker opens while the rest of the mix stays healthy.
    if i % 101 == 0 {
        return Plan {
            req: OptimizeRequest {
                kernel: kernels[0].clone(),
                variant: "poly+ast".into(),
                tile: 1_000_000 + i as i64, // unique → always a miss
                inject: Fault::Panic,
                ..OptimizeRequest::default()
            },
            expect: Expect::Ok,
        };
    }
    // Injected slow compile against a tight deadline → served=deadline,
    // and the orphaned flight is cooperatively cancelled.
    if i % 97 == 0 {
        return Plan {
            req: OptimizeRequest {
                kernel,
                variant,
                tile: 2_000_000 + i as i64,
                inject: Fault::Slow(150),
                deadline_ms: 15,
                ..OptimizeRequest::default()
            },
            expect: Expect::Ok,
        };
    }
    // Torn cache write: the entry serves fine from memory now and is
    // quarantined at the next daemon restart.
    if i % 89 == 0 {
        return Plan {
            req: OptimizeRequest {
                kernel,
                variant,
                tile: 3_000_000 + i as i64,
                inject: Fault::TornWrite,
                ..OptimizeRequest::default()
            },
            expect: Expect::Ok,
        };
    }
    // Churn: genuine unique-knob misses keeping the optimizer queue
    // honest (these are what sheds, if any, land on).
    if i % 83 == 0 {
        return Plan {
            req: OptimizeRequest {
                kernel,
                variant,
                tile: 4_000_000 + i as i64,
                deadline_ms: 30_000,
                ..OptimizeRequest::default()
            },
            expect: Expect::Ok,
        };
    }
    // Steady state: a small kernel × variant product that warms fast and
    // then hits the cache on every repeat.
    Plan {
        req: OptimizeRequest {
            kernel,
            variant,
            deadline_ms: 30_000,
            ..OptimizeRequest::default()
        },
        expect: Expect::Ok,
    }
}

/// Per-thread tallies, merged after join.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    well_formed: u64,
    malformed: u64,
    transport_errors: u64,
    served: [u64; 7], // indexed by served_slot()
    bad_request: u64,
    unexpected: u64,
}

fn served_slot(s: Served) -> usize {
    match s {
        Served::Hit => 0,
        Served::Miss => 1,
        Served::Coalesced => 2,
        Served::Identity => 3,
        Served::Breaker => 4,
        Served::Deadline => 5,
        Served::Shed => 6,
    }
}

const SERVED_NAMES: [&str; 7] = [
    "hit",
    "miss",
    "coalesced",
    "identity",
    "breaker",
    "deadline",
    "shed",
];

fn run_thread(addr: String, indices: Vec<usize>, kernels: Vec<String>) -> Tally {
    let mut tally = Tally::default();
    let timeout = Duration::from_secs(60);
    let mut client = Client::connect(addr.as_str(), timeout).ok();
    for i in indices {
        let p = plan(i, &kernels);
        let t0 = Instant::now();
        let resp = match client.as_mut() {
            Some(c) => c.optimize(&p.req),
            None => Err("not connected".into()),
        };
        let resp = match resp {
            Ok(r) => r,
            Err(_) => {
                // One reconnect attempt per failure; a dead daemon shows
                // up as a wall of transport errors, not a hang.
                tally.transport_errors += 1;
                client = Client::connect(addr.as_str(), timeout).ok();
                match client.as_mut().map(|c| c.optimize(&p.req)) {
                    Some(Ok(r)) => r,
                    _ => {
                        tally.malformed += 1;
                        continue;
                    }
                }
            }
        };
        tally.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let ok_shape = match p.expect {
            Expect::Bad => resp.http_status == 400 && resp.status == "bad-request",
            Expect::Ok => {
                (resp.http_status == 200 && resp.status == "ok" && resp.served.is_some())
                    || (resp.http_status == 429 && resp.status == "shed")
            }
        };
        if ok_shape {
            tally.well_formed += 1;
        } else {
            tally.unexpected += 1;
            tally.malformed += 1;
        }
        if resp.status == "bad-request" {
            tally.bad_request += 1;
        }
        if let Some(s) = resp.served {
            tally.served[served_slot(s)] += 1;
        } else if resp.http_status == 429 {
            tally.served[served_slot(Served::Shed)] += 1;
        }
    }
    tally
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let cli = Cli::parse(&Spec {
        switches: &["--keep-cache"],
        ..Spec::values(&[
            "--requests",
            "--conns",
            "--cache-dir",
            "--addr",
            "--workers",
            "--queue-cap",
        ])
    });
    let d = ServiceConfig::default();
    let cfg = ServiceConfig {
        cache_dir: PathBuf::from(cli.value("--cache-dir").unwrap_or("results/service_cache_load")),
        allow_inject: true,
        workers: cli.count("--workers", d.workers).unwrap_or_else(usage),
        queue_cap: cli.get("--queue-cap", d.queue_cap).unwrap_or_else(usage),
        ..d
    };
    let requests: usize = cli.count("--requests", 10_000).unwrap_or_else(usage);
    let conns: usize = cli.count("--conns", 8).unwrap_or_else(usage);

    let (addr, service) = match cli.value("--addr") {
        Some(a) => (a.to_string(), None),
        None => {
            if !cli.switch("--keep-cache") {
                let _ = std::fs::remove_dir_all(&cfg.cache_dir);
            }
            hide_injected_panics();
            match Service::start(cfg) {
                Ok(s) => (s.addr.to_string(), Some(s)),
                Err(e) => {
                    eprintln!("error: could not start in-process daemon: {e}");
                    std::process::exit(1);
                }
            }
        }
    };
    let kernels: Vec<String> = all_kernels()
        .into_iter()
        .take(8)
        .map(|k| k.name.to_string())
        .collect();
    println!(
        "== service load: {requests} requests over {conns} connection(s) against {addr} \
         ({} kernels in the mix) ==",
        kernels.len()
    );

    let wall = Instant::now();
    let mut handles = Vec::new();
    for t in 0..conns {
        let indices: Vec<usize> = (0..requests).filter(|i| i % conns == t).collect();
        let addr = addr.clone();
        let kernels = kernels.clone();
        handles.push(std::thread::spawn(move || run_thread(addr, indices, kernels)));
    }
    let mut total = Tally::default();
    for h in handles {
        let Ok(t) = h.join() else {
            eprintln!("error: load thread panicked");
            std::process::exit(1);
        };
        total.latencies_ms.extend(t.latencies_ms);
        total.well_formed += t.well_formed;
        total.malformed += t.malformed;
        total.transport_errors += t.transport_errors;
        total.bad_request += t.bad_request;
        total.unexpected += t.unexpected;
        for (a, b) in total.served.iter_mut().zip(t.served) {
            *a += b;
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();

    let daemon_stats = Client::connect(addr.as_str(), Duration::from_secs(10))
        .and_then(|mut c| c.stats())
        .unwrap_or_else(|e| format!("{{\"status\":\"unreachable\",\"detail\":\"{e}\"}}"));
    if let Some(svc) = service {
        svc.stop();
    }

    total
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let lat = &total.latencies_ms;
    let (p50, p90, p99) = (
        percentile(lat, 0.50),
        percentile(lat, 0.90),
        percentile(lat, 0.99),
    );
    let rate = total.well_formed as f64 / requests as f64;

    println!(
        "well-formed {}/{} ({:.4}%), transport errors {}, bad requests {}, unexpected shapes {}",
        total.well_formed,
        requests,
        rate * 100.0,
        total.transport_errors,
        total.bad_request,
        total.unexpected
    );
    println!("latency ms: p50 {p50:.3}  p90 {p90:.3}  p99 {p99:.3}  ({:.0} req/s)", requests as f64 / wall_s);
    for (name, n) in SERVED_NAMES.iter().zip(total.served) {
        println!("  served {name:<10} {n}");
    }
    println!("daemon stats: {daemon_stats}");

    if rate < 0.999 {
        eprintln!("error: well-formed rate {rate:.6} below the 99.9% acceptance bar");
        std::process::exit(1);
    }
}
