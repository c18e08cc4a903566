//! End-to-end daemon tests: every robustness path exercised over a real
//! socket — cold miss, warm hit, coalescing, injected panic → identity,
//! breaker open, deadline expiry, load shedding, malformed requests,
//! stats, clean shutdown.

use polymix_bench::sweep::parse_record;
use polymix_service::daemon::{Service, ServiceConfig};
use polymix_service::proto::{OptimizeRequest, Served};
use polymix_service::{BreakerConfig, Client, Fault};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "polymix_service_test_{tag}_{}_{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ))
}

fn start(tag: &str, patch: impl FnOnce(&mut ServiceConfig)) -> (Service, PathBuf) {
    let dir = temp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServiceConfig {
        cache_dir: dir.clone(),
        allow_inject: true,
        ..ServiceConfig::default()
    };
    patch(&mut cfg);
    (Service::start(cfg).expect("daemon starts"), dir)
}

fn client(svc: &Service) -> Client {
    Client::connect(svc.addr, Duration::from_secs(30)).expect("connect")
}

fn req(kernel: &str) -> OptimizeRequest {
    OptimizeRequest {
        kernel: kernel.into(),
        deadline_ms: 30_000,
        ..OptimizeRequest::default()
    }
}

#[test]
fn cold_miss_then_warm_hit() {
    let (svc, dir) = start("hit", |_| {});
    let mut c = client(&svc);
    let mut r = req("gemm");
    r.emit = true;
    let miss = c.optimize(&r).expect("miss request");
    assert_eq!(miss.status, "ok");
    assert_eq!(miss.served, Some(Served::Miss));
    assert!(!miss.degraded);
    assert!(
        miss.source.as_deref().is_some_and(|s| s.contains("fn main")),
        "emit=1 must return the kernel source"
    );
    let hit = c.optimize(&r).expect("hit request");
    assert_eq!(hit.served, Some(Served::Hit));
    assert_eq!(hit.key, miss.key, "same SCoP, same canonical key");
    assert_eq!(hit.source, miss.source, "hit serves the cached source");
    svc.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn concurrent_identical_misses_coalesce() {
    let (svc, dir) = start("coalesce", |cfg| cfg.workers = 1);
    let addr = svc.addr;
    // A slow flight holds the single worker so the second identical
    // request must join it rather than re-optimize.
    let spawn = |delay_ms: u64| {
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(delay_ms));
            let mut c = Client::connect(addr, Duration::from_secs(30)).expect("connect");
            let mut r = req("atax");
            r.inject = Fault::Slow(300);
            c.optimize(&r).expect("optimize")
        })
    };
    let first = spawn(0);
    let second = spawn(80);
    let (a, b) = (first.join().expect("a"), second.join().expect("b"));
    let mut kinds = [a.served, b.served];
    kinds.sort_by_key(|k| k.map(Served::name));
    assert_eq!(
        kinds,
        [Some(Served::Coalesced), Some(Served::Miss)],
        "one optimizes, one coalesces"
    );
    svc.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn injected_panic_degrades_then_breaker_opens() {
    let (svc, dir) = start("breaker", |cfg| {
        cfg.breaker = BreakerConfig {
            threshold: 2,
            probe_after: 1_000_000,
        };
        cfg.retries = 0;
    });
    let mut c = client(&svc);
    for strike in 0..2u64 {
        let mut r = req("bicg");
        r.tile = 100 + strike as i64; // unique fingerprint → always a miss
        r.inject = Fault::Panic;
        r.emit = true;
        let resp = c.optimize(&r).expect("well-formed despite panic");
        assert_eq!(resp.status, "ok", "panic must not leak as an error");
        assert_eq!(resp.served, Some(Served::Identity));
        assert!(resp.degraded);
        assert!(
            resp.source.as_deref().is_some_and(|s| s.contains("fn main")),
            "identity fallback is a runnable kernel"
        );
        // The full payload message, not just "a panic happened": guards
        // the `&*payload` deref in the worker's containment path (a
        // `&Box<dyn Any>` would downcast as the box and lose the text).
        assert!(
            resp.detail.contains("injected scheduler panic"),
            "detail carries the panic message, got {:?}",
            resp.detail
        );
    }
    // Threshold reached: the key is now pinned to identity without
    // touching the scheduler.
    let mut r = req("bicg");
    r.tile = 77;
    let resp = c.optimize(&r).expect("breaker response");
    assert_eq!(resp.served, Some(Served::Breaker));
    assert!(resp.degraded);
    // An unrelated SCoP is unaffected.
    let other = c.optimize(&req("gemm")).expect("other kernel");
    assert_eq!(other.served, Some(Served::Miss));
    assert!(!other.degraded);
    svc.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn deadline_expiry_serves_identity_and_cancels() {
    let (svc, dir) = start("deadline", |cfg| cfg.workers = 1);
    let mut c = client(&svc);
    let mut r = req("mvt");
    r.inject = Fault::Slow(2_000);
    r.deadline_ms = 50;
    r.emit = true;
    let t0 = std::time::Instant::now();
    let resp = c.optimize(&r).expect("deadline response");
    assert_eq!(resp.served, Some(Served::Deadline));
    assert!(resp.degraded);
    assert!(resp.source.as_deref().is_some_and(|s| s.contains("fn main")));
    assert!(
        t0.elapsed() < Duration::from_millis(1_500),
        "the response must arrive at the deadline, not after the slow flight"
    );
    // The cancelled flight frees the worker well before its 2s sleep:
    // a fresh request completes promptly.
    let t1 = std::time::Instant::now();
    let ok = c.optimize(&req("gemm")).expect("post-cancel request");
    assert_eq!(ok.status, "ok");
    assert!(
        t1.elapsed() < Duration::from_millis(1_500),
        "cancellation must free the single worker at a stage boundary"
    );
    svc.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn full_queue_sheds_with_429() {
    let (svc, dir) = start("shed", |cfg| {
        cfg.workers = 1;
        cfg.queue_cap = 1;
    });
    let addr = svc.addr;
    // Occupy the worker and the single queue slot with slow flights.
    let occupy: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(40 * i));
                let mut c = Client::connect(addr, Duration::from_secs(30)).expect("connect");
                let mut r = req("2mm");
                r.tile = 10 + i as i64;
                r.inject = Fault::Slow(600);
                c.optimize(&r).expect("occupying flight")
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(160));
    let mut c = client(&svc);
    let mut r = req("3mm");
    r.tile = 99;
    let resp = c.optimize(&r).expect("shed response is well-formed");
    assert_eq!(resp.http_status, 429);
    assert_eq!(resp.status, "shed");
    for h in occupy {
        let o = h.join().expect("occupier");
        assert_eq!(o.status, "ok");
    }
    svc.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn malformed_requests_get_400_not_a_hang() {
    let (svc, dir) = start("bad", |cfg| cfg.allow_inject = false);
    let mut c = client(&svc);
    let unknown = c.optimize(&req("not-a-kernel")).expect("response");
    assert_eq!(unknown.http_status, 400);
    assert_eq!(unknown.status, "bad-request");
    let mut bad_variant = req("gemm");
    bad_variant.variant = "quantum".into();
    let bv = c.optimize(&bad_variant).expect("response");
    assert_eq!(bv.http_status, 400);
    // Injection directives are refused when the daemon forbids them.
    let mut inj = req("gemm");
    inj.inject = Fault::Panic;
    let r = c.optimize(&inj).expect("response");
    assert_eq!(r.http_status, 400);
    assert!(r.detail.contains("disabled"));
    // The connection survives 400s: a good request still works.
    let ok = c.optimize(&req("gemm")).expect("follow-up");
    assert_eq!(ok.status, "ok");
    svc.stop();
    let _ = std::fs::remove_dir_all(dir);
}

/// A body pretty-printed over several lines (what `curl --data-binary
/// @req.json` sends) is JSON like any other and is served.
#[test]
fn pretty_printed_request_body_is_served() {
    use std::io::{BufReader, Write as _};
    let (svc, dir) = start("pretty", |_| {});
    let body = "{\r\n  \"kernel\": \"gemm\",\n  \"dataset\": \"mini\",\n  \"params\": [\n    8,\n    9,\n    10\n  ]\n}\n";
    let mut stream = std::net::TcpStream::connect(svc.addr).expect("connect");
    polymix_service::http::set_timeouts(&stream, Duration::from_secs(30), Duration::from_secs(30));
    let head = format!(
        "POST /optimize HTTP/1.1\r\nhost: polymix\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body.as_bytes()).expect("send body");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (code, resp) = polymix_service::http::read_response(&mut reader).expect("response");
    assert_eq!(code, 200, "{resp}");
    let rec = parse_record(&resp).expect("response parses");
    assert_eq!(rec.str_field("status"), Some("ok"));
    assert_eq!(rec.str_field("served"), Some("miss"));
    svc.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn stats_health_and_clean_shutdown() {
    let (svc, dir) = start("stats", |_| {});
    let mut c = client(&svc);
    c.health().expect("health");
    let _ = c.optimize(&req("gemm")).expect("miss");
    let _ = c.optimize(&req("gemm")).expect("hit");
    let stats = c.stats().expect("stats");
    let rec = parse_record(&stats).expect("stats is flat JSON");
    assert_eq!(rec.num_field("hit"), Some(1.0));
    assert_eq!(rec.num_field("miss"), Some(1.0));
    assert_eq!(rec.num_field("panics_contained"), Some(0.0));
    c.shutdown().expect("shutdown acked");
    svc.join(); // returns promptly because /shutdown stopped the loops
    let _ = std::fs::remove_dir_all(dir);
}
