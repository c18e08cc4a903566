//! `polymix_service` — the optimization daemon CLI.
//!
//! ```text
//! # serve (blocks until /shutdown or SIGKILL; prints the bound address)
//! cargo run --release -p polymix-service --bin polymix_service -- serve \
//!     --addr 127.0.0.1:0 --cache-dir results/service_cache --workers 2 \
//!     --addr-file /tmp/polymix_service.addr --allow-inject
//!
//! # one request against a running daemon
//! cargo run --release -p polymix-service --bin polymix_service -- req \
//!     --addr 127.0.0.1:7311 --kernel gemm --variant poly+ast --emit
//!
//! # stats / health / clean shutdown
//! ... -- stats --addr 127.0.0.1:7311
//! ... -- health --addr 127.0.0.1:7311
//! ... -- shutdown --addr 127.0.0.1:7311
//! ```
//!
//! `--addr-file` writes the bound `host:port` (after binding, so port 0
//! works) for scripted discovery — the CI smoke test uses it. A flag the
//! subcommand does not take, or a value that does not parse, exits 2
//! naming it, before the daemon binds or the client connects.

use polymix_bench::report::{usage, Cli, Spec};
use polymix_service::daemon::{Service, ServiceConfig};
use polymix_service::fault::hide_injected_panics;
use polymix_service::proto::OptimizeRequest;
use polymix_service::{Client, Fault};
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let serving = Spec {
        switches: &["--allow-inject"],
        ..Spec::values(&[
            "--addr",
            "--cache-dir",
            "--shards",
            "--workers",
            "--queue-cap",
            "--max-conns",
            "--deadline-ms",
            "--threads",
            "--reps",
            "--addr-file",
        ])
    };
    let requesting = Spec {
        switches: &["--emit"],
        ..Spec::values(&[
            "--addr",
            "--timeout-s",
            "--kernel",
            "--variant",
            "--dataset",
            "--tile",
            "--time-tile",
            "--unroll-o",
            "--unroll-i",
            "--deadline-ms",
            "--inject",
        ])
    };
    let client = Spec::values(&["--addr", "--timeout-s"]);
    let (cmd, cli) = Cli::parse_command(&[
        ("serve", serving),
        ("req", requesting),
        ("stats", client),
        ("health", client),
        ("shutdown", client),
    ]);
    let code = match cmd {
        "serve" => serve(&cli),
        "req" => req(&cli),
        "stats" => client_op(&cli, |c| c.stats().map(Some)),
        "health" => client_op(&cli, |c| c.health().map(|()| Some("ok".into()))),
        // `shutdown`, the last subcommand `parse_command` lets through.
        _ => client_op(&cli, |c| c.shutdown().map(|()| Some("ok".into()))),
    };
    std::process::exit(code);
}

/// The daemon configuration `cli` asks for.
fn serve_config(cli: &Cli) -> Result<ServiceConfig, String> {
    let d = ServiceConfig::default();
    Ok(ServiceConfig {
        addr: cli.value("--addr").unwrap_or("127.0.0.1:0").into(),
        cache_dir: cli.value("--cache-dir").map_or(d.cache_dir, PathBuf::from),
        shards: cli.count("--shards", d.shards)?,
        workers: cli.count("--workers", d.workers)?,
        queue_cap: cli.get("--queue-cap", d.queue_cap)?,
        max_conns: cli.get("--max-conns", d.max_conns)?,
        default_deadline_ms: cli.get("--deadline-ms", d.default_deadline_ms)?,
        emit_threads: cli.count("--threads", d.emit_threads)?,
        reps: cli.count("--reps", d.reps)?,
        allow_inject: cli.switch("--allow-inject"),
        ..d
    })
}

fn serve(cli: &Cli) -> i32 {
    let cfg = serve_config(cli).unwrap_or_else(usage);
    hide_injected_panics();
    let service = match Service::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: could not start daemon: {e}");
            return 1;
        }
    };
    println!("polymix-service listening on {}", service.addr);
    if let Some(path) = cli.value("--addr-file") {
        if let Err(e) = std::fs::write(path, service.addr.to_string()) {
            eprintln!("error: could not write --addr-file {path}: {e}");
            service.stop();
            return 1;
        }
    }
    service.join();
    println!("polymix-service stopped");
    0
}

/// The request `cli` asks for.
fn request(cli: &Cli) -> Result<OptimizeRequest, String> {
    let d = OptimizeRequest::default();
    let inject = match cli.value("--inject") {
        Some(spec) => Fault::parse(spec).ok_or(format!("unknown --inject directive {spec:?}"))?,
        None => d.inject,
    };
    Ok(OptimizeRequest {
        kernel: cli.value("--kernel").unwrap_or("gemm").into(),
        variant: cli.value("--variant").map_or(d.variant, str::to_string),
        dataset: cli.value("--dataset").map_or(d.dataset, str::to_string),
        tile: cli.get("--tile", d.tile)?,
        time_tile: cli.get("--time-tile", d.time_tile)?,
        unroll: (
            cli.get("--unroll-o", d.unroll.0)?,
            cli.get("--unroll-i", d.unroll.1)?,
        ),
        deadline_ms: cli.get("--deadline-ms", d.deadline_ms)?,
        emit: cli.switch("--emit"),
        inject,
        ..d
    })
}

fn req(cli: &Cli) -> i32 {
    let request = request(cli).unwrap_or_else(usage);
    client_op(cli, move |c| {
        let resp = c.optimize(&request)?;
        let mut line = format!(
            "status={} served={} key={} degraded={} elapsed_ms={:.3}",
            resp.status,
            resp.served.map_or("-", |s| s.name()),
            if resp.key.is_empty() { "-" } else { &resp.key },
            u8::from(resp.degraded),
            resp.elapsed_ms
        );
        if !resp.detail.is_empty() {
            line.push_str(&format!(" detail={:?}", resp.detail));
        }
        if let Some(src) = &resp.source {
            line.push_str(&format!("\n{src}"));
        }
        Ok(Some(line))
    })
}

fn client_op(cli: &Cli, op: impl FnOnce(&mut Client) -> Result<Option<String>, String>) -> i32 {
    let Some(addr) = cli.value("--addr") else {
        return usage("error: --addr <host:port> is required".into());
    };
    let timeout = cli.count("--timeout-s", 30).unwrap_or_else(usage);
    let mut client = match Client::connect(addr, Duration::from_secs(timeout)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    match op(&mut client) {
        Ok(Some(out)) => {
            println!("{out}");
            0
        }
        Ok(None) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}
