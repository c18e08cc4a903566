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
//! subcommand does not take exits 2, naming it.

use polymix_service::daemon::{Service, ServiceConfig};
use polymix_service::proto::OptimizeRequest;
use polymix_service::{Client, Fault};
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cmd = args.get(1).map(String::as_str).unwrap_or("serve");
    let grab = |key: &str| -> Option<String> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let has = |key: &str| args.iter().any(|a| a == key);
    let client = ["--addr", "--timeout-s"];
    let known: &[&str] = match cmd {
        "serve" => &[
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
            "--allow-inject",
        ],
        "req" => &[
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
            "--emit",
        ],
        "stats" | "health" | "shutdown" => &client,
        other => {
            eprintln!("unknown subcommand {other:?} (serve | req | stats | health | shutdown)");
            std::process::exit(2);
        }
    };
    if let Some(bad) = args
        .iter()
        .skip(2)
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        eprintln!("unknown flag {bad} for {cmd} (takes {})", known.join(", "));
        std::process::exit(2);
    }
    let code = match cmd {
        "serve" => serve(&grab, &has),
        "req" => req(&grab, &has),
        "stats" => client_op(&grab, |c| c.stats().map(Some)),
        "health" => client_op(&grab, |c| c.health().map(|()| Some("ok".into()))),
        // `shutdown`, the last subcommand `known` let through.
        _ => client_op(&grab, |c| c.shutdown().map(|()| Some("ok".into()))),
    };
    std::process::exit(code);
}

fn serve(grab: &dyn Fn(&str) -> Option<String>, has: &dyn Fn(&str) -> bool) -> i32 {
    let num = |key: &str, default: usize| -> usize {
        grab(key).and_then(|s| s.parse().ok()).unwrap_or(default)
    };
    let mut cfg = ServiceConfig {
        addr: grab("--addr").unwrap_or_else(|| "127.0.0.1:0".into()),
        allow_inject: has("--allow-inject"),
        ..ServiceConfig::default()
    };
    if let Some(dir) = grab("--cache-dir") {
        cfg.cache_dir = PathBuf::from(dir);
    }
    cfg.shards = num("--shards", cfg.shards);
    cfg.workers = num("--workers", cfg.workers);
    cfg.queue_cap = num("--queue-cap", cfg.queue_cap);
    cfg.max_conns = num("--max-conns", cfg.max_conns);
    cfg.default_deadline_ms = num("--deadline-ms", cfg.default_deadline_ms as usize) as u64;
    cfg.emit_threads = num("--threads", cfg.emit_threads);
    cfg.reps = num("--reps", cfg.reps);

    // Injected scheduler panics are contained per flight; keep their
    // default-hook noise out of the daemon log while letting real
    // panics print as usual.
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected scheduler panic"));
        if !injected {
            previous(info);
        }
    }));

    let service = match Service::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: could not start daemon: {e}");
            return 1;
        }
    };
    println!("polymix-service listening on {}", service.addr);
    if let Some(path) = grab("--addr-file") {
        if let Err(e) = std::fs::write(&path, service.addr.to_string()) {
            eprintln!("error: could not write --addr-file {path}: {e}");
            service.stop();
            return 1;
        }
    }
    service.join();
    println!("polymix-service stopped");
    0
}

fn req(grab: &dyn Fn(&str) -> Option<String>, has: &dyn Fn(&str) -> bool) -> i32 {
    let mut request = OptimizeRequest {
        kernel: grab("--kernel").unwrap_or_else(|| "gemm".into()),
        emit: has("--emit"),
        ..OptimizeRequest::default()
    };
    if let Some(v) = grab("--variant") {
        request.variant = v;
    }
    if let Some(d) = grab("--dataset") {
        request.dataset = d;
    }
    let num = |key: &str| grab(key).and_then(|s| s.parse::<i64>().ok()).unwrap_or(0);
    request.tile = num("--tile");
    request.time_tile = num("--time-tile");
    request.unroll = (num("--unroll-o"), num("--unroll-i"));
    request.deadline_ms = num("--deadline-ms").max(0) as u64;
    if let Some(spec) = grab("--inject") {
        match Fault::parse(&spec) {
            Some(f) => request.inject = f,
            None => {
                eprintln!("error: unknown --inject directive {spec:?}");
                return 2;
            }
        }
    }
    client_op(grab, move |c| {
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

fn client_op(
    grab: &dyn Fn(&str) -> Option<String>,
    op: impl FnOnce(&mut Client) -> Result<Option<String>, String>,
) -> i32 {
    let Some(addr) = grab("--addr") else {
        eprintln!("error: --addr <host:port> is required");
        return 2;
    };
    let timeout = grab("--timeout-s")
        .and_then(|s| s.parse().ok())
        .unwrap_or(30u64);
    let mut client = match Client::connect(addr.as_str(), Duration::from_secs(timeout)) {
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
