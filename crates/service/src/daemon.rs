//! The optimization daemon: accept loop, bounded admission, request
//! coalescing, per-request deadlines with cooperative cancellation,
//! per-key circuit breakers, panic containment, and graceful
//! degradation to the identity schedule.
//!
//! # Request life cycle
//!
//! ```text
//! parse/validate ──400──▶ (bad-request)
//!   │
//!   ▼
//! canonical key + fingerprint
//!   │
//!   ├─ cache hit ───────────────▶ 200 served=hit        (no scheduler)
//!   ├─ breaker open ────────────▶ 200 served=breaker    (identity, degraded)
//!   ├─ flight in progress ──────▶ join it (served=coalesced)
//!   ├─ queue full ──────────────▶ 429 served=shed
//!   └─ enqueue new flight ──────▶ wait (served=miss)
//!         │
//!         ├─ done ok ───────────▶ 200 (entry admitted to cache)
//!         ├─ done err ──────────▶ 200 served=identity   (degraded)
//!         └─ deadline expired ──▶ 200 served=deadline   (degraded; last
//!                                  waiter cancels the flight)
//! ```
//!
//! Every outcome except a shed or a malformed request produces a
//! well-formed, runnable kernel source: degradation means *slower*, not
//! *broken*. Worker panics (real scheduler bugs or injected ones) are
//! contained per flight with `catch_unwind`; transient failures retry
//! with the sweep executor's backoff; deterministic failures strike the
//! key's circuit breaker so a poisoned SCoP stops burning workers.

use crate::breaker::{Admission, BreakerConfig, Breakers};
use crate::cache::{CacheEntry, ShardedCache};
use crate::canon::{canonical_key, request_fingerprint, CanonicalKey};
use crate::fault::Fault;
use crate::http::{self, ReadError, Request};
use crate::optimize::{identity_source, optimize, resolve_knobs, ResolvedKnobs};
use crate::proto::{OptimizeRequest, Served};
use polymix_bench::sweep::{json_escape, with_retries};
use polymix_ir::Scop;
use polymix_polybench::{kernel_by_name, Kernel};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Acquires a mutex, shrugging off poisoning (a panicking holder leaves
/// counters/maps in a consistent state here; same policy as the runtime
/// and sweep executor).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Daemon configuration. The defaults suit tests and the in-repo load
/// run; the binary exposes each as a flag.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Persistent cache root.
    pub cache_dir: PathBuf,
    /// Cache shard count.
    pub shards: usize,
    /// Optimizer worker threads.
    pub workers: usize,
    /// Bounded admission queue: flights waiting for a worker beyond
    /// this are shed with 429 instead of queued without bound.
    pub queue_cap: usize,
    /// Concurrent connection cap; excess connections get one 429.
    pub max_conns: usize,
    /// Deadline applied when a request does not carry its own.
    pub default_deadline_ms: u64,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Honor per-request `inject` directives (tests/load runs only).
    pub allow_inject: bool,
    /// Thread count baked into emitted kernels.
    pub emit_threads: usize,
    /// Timing reps baked into emitted kernels.
    pub reps: usize,
    /// Transient-failure retries per flight (backoff as in the sweep
    /// executor).
    pub retries: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: PathBuf::from("service_cache"),
            shards: 16,
            workers: 2,
            queue_cap: 64,
            max_conns: 64,
            default_deadline_ms: 10_000,
            breaker: BreakerConfig::default(),
            allow_inject: false,
            emit_threads: 2,
            reps: 1,
            retries: 2,
        }
    }
}

/// Monotonic outcome counters, all surfaced at `/stats`.
#[derive(Default)]
pub struct Stats {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    identity: AtomicU64,
    breaker: AtomicU64,
    deadline: AtomicU64,
    shed: AtomicU64,
    bad_request: AtomicU64,
    panics_contained: AtomicU64,
}

impl Stats {
    fn bump(&self, served: Served) {
        let c = match served {
            Served::Hit => &self.hits,
            Served::Miss => &self.misses,
            Served::Coalesced => &self.coalesced,
            Served::Identity => &self.identity,
            Served::Breaker => &self.breaker,
            Served::Deadline => &self.deadline,
            Served::Shed => &self.shed,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// Terminal state of one optimization flight, fanned out to every
/// waiter.
#[derive(Clone)]
enum FlightState {
    Pending,
    Done(Result<Arc<CacheEntry>, FlightError>),
}

/// Why a flight produced no entry.
#[derive(Clone)]
struct FlightError {
    detail: String,
    cancelled: bool,
}

/// One in-flight optimization, shared by every coalesced waiter.
struct Flight {
    /// Cooperative cancellation token, set by the last departing waiter.
    cancelled: AtomicBool,
    /// Requests currently waiting on this flight.
    waiters: AtomicUsize,
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            cancelled: AtomicBool::new(false),
            waiters: AtomicUsize::new(1),
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }
}

/// A queued unit of optimizer work.
struct Job {
    key: CanonicalKey,
    fingerprint: u64,
    flight: Arc<Flight>,
    kernel: Kernel,
    scop: Scop,
    knobs: ResolvedKnobs,
    fault: Fault,
}

/// Daemon state shared by the accept loop, connection threads and
/// optimizer workers.
struct Inner {
    cfg: ServiceConfig,
    addr: SocketAddr,
    cache: ShardedCache,
    breakers: Breakers,
    inflight: Mutex<HashMap<(CanonicalKey, u64), Arc<Flight>>>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    stats: Stats,
    active_conns: AtomicUsize,
}

impl Inner {
    fn stats_json(&self) -> String {
        let s = &self.stats;
        let mut out = String::with_capacity(320);
        let _ = write!(
            out,
            "{{\"status\":\"ok\",\"hit\":{},\"miss\":{},\"coalesced\":{},\"identity\":{},\
             \"breaker\":{},\"deadline\":{},\"shed\":{},\"bad_request\":{},\
             \"panics_contained\":{},\"cache_write_failures\":{},\"quarantined_on_load\":{},\
             \"queue_depth\":{},\"inflight\":{},\"shards\":{}}}",
            s.hits.load(Ordering::Relaxed),
            s.misses.load(Ordering::Relaxed),
            s.coalesced.load(Ordering::Relaxed),
            s.identity.load(Ordering::Relaxed),
            s.breaker.load(Ordering::Relaxed),
            s.deadline.load(Ordering::Relaxed),
            s.shed.load(Ordering::Relaxed),
            s.bad_request.load(Ordering::Relaxed),
            s.panics_contained.load(Ordering::Relaxed),
            self.cache.write_failures(),
            self.cache.quarantined_on_load,
            lock(&self.queue).len(),
            lock(&self.inflight).len(),
            self.cache.shard_count(),
        );
        out
    }
}

/// A running daemon. Dropping the handle does NOT stop it; call
/// [`Service::stop`] (or POST `/shutdown`) for a clean exit.
pub struct Service {
    inner: Arc<Inner>,
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Binds, loads the persistent cache, and starts the accept loop
    /// plus `cfg.workers` optimizer threads.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Service> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let cache = ShardedCache::open(&cfg.cache_dir, cfg.shards);
        let breakers = Breakers::new(cfg.breaker);
        let inner = Arc::new(Inner {
            addr,
            cache,
            breakers,
            inflight: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
            active_conns: AtomicUsize::new(0),
            cfg,
        });
        let mut workers = Vec::new();
        for i in 0..inner.cfg.workers.max(1) {
            let me = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("polymix-opt-{i}"))
                    .spawn(move || worker_loop(&me))?,
            );
        }
        let me = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("polymix-accept".into())
            .spawn(move || accept_loop(&me, &listener))?;
        Ok(Service {
            inner,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// Signals shutdown and unblocks the accept loop and idle workers.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        // Poke accept() awake so it observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until the accept loop and every worker have exited.
    pub fn join(mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// [`Service::shutdown`] + [`Service::join`].
    pub fn stop(self) {
        self.shutdown();
        self.join();
    }

    /// Current `/stats` body (for tests without a client round-trip).
    pub fn stats_json(&self) -> String {
        self.inner.stats_json()
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    for conn in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        if inner.active_conns.load(Ordering::SeqCst) >= inner.cfg.max_conns {
            // Over the connection cap: one polite 429, then close. The
            // body is well-formed so even a shed caller can parse it.
            inner.stats.bump(Served::Shed);
            let mut s = stream;
            http::set_timeouts(&s, Duration::from_secs(2), Duration::from_secs(2));
            let _ = http::write_response(&mut s, 429, &shed_body("connection limit"), false);
            continue;
        }
        inner.active_conns.fetch_add(1, Ordering::SeqCst);
        let me = Arc::clone(inner);
        let spawned = std::thread::Builder::new()
            .name("polymix-conn".into())
            .spawn(move || {
                conn_loop(&me, stream);
                me.active_conns.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            inner.active_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn conn_loop(inner: &Arc<Inner>, stream: TcpStream) {
    http::set_timeouts(&stream, Duration::from_secs(60), Duration::from_secs(60));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    loop {
        let req = match http::read_request(&mut reader) {
            Ok(r) => r,
            Err(ReadError::Closed | ReadError::TimedOut) => break,
            Err(ReadError::Bad(detail)) => {
                inner.stats.bad_request.fetch_add(1, Ordering::Relaxed);
                let _ = http::write_response(
                    &mut stream,
                    400,
                    &error_body("bad-request", &detail),
                    false,
                );
                break;
            }
        };
        let keep = req.keep_alive && !inner.shutdown.load(Ordering::SeqCst);
        let (code, body, stop) = route(inner, &req);
        if http::write_response(&mut stream, code, &body, keep && !stop).is_err() {
            break;
        }
        if stop {
            inner.shutdown.store(true, Ordering::SeqCst);
            inner.queue_cv.notify_all();
            let _ = TcpStream::connect(inner.addr); // wake accept()
            break;
        }
        if !keep {
            break;
        }
    }
}

fn route(inner: &Arc<Inner>, req: &Request) -> (u16, String, bool) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/optimize") => {
            let (code, body) = handle_optimize(inner, &req.body);
            (code, body, false)
        }
        ("GET", "/stats") => (200, inner.stats_json(), false),
        ("GET", "/health") => (200, "{\"status\":\"ok\"}".into(), false),
        ("POST", "/shutdown") => (
            200,
            "{\"status\":\"ok\",\"detail\":\"shutting down\"}".into(),
            true,
        ),
        ("GET" | "POST", _) => (404, error_body("error", "no such endpoint"), false),
        _ => (405, error_body("error", "method not allowed"), false),
    }
}

fn handle_optimize(inner: &Arc<Inner>, body: &str) -> (u16, String) {
    let t0 = Instant::now();
    let bad = |detail: &str| {
        inner.stats.bad_request.fetch_add(1, Ordering::Relaxed);
        (400, error_body("bad-request", detail))
    };
    let req = match OptimizeRequest::from_json(body) {
        Ok(r) => r,
        Err(d) => return bad(&d),
    };
    if req.inject != Fault::None && !inner.cfg.allow_inject {
        return bad("fault injection is disabled on this daemon");
    }
    let Some(kernel) = kernel_by_name(&req.kernel) else {
        return bad(&format!("unknown kernel {:?}", req.kernel));
    };
    let scop = (kernel.build)();
    let knobs = match resolve_knobs(&req, &kernel, &scop) {
        Ok(k) => k,
        Err(d) => return bad(&d),
    };
    let key = canonical_key(&scop);
    let fingerprint = request_fingerprint(
        knobs.variant.name(),
        knobs.tile,
        knobs.time_tile,
        knobs.unroll,
        &knobs.params,
        inner.cfg.emit_threads,
        inner.cfg.reps,
    );

    // 1. Cache: hits never touch the breaker, the queue or a worker.
    if let Some(entry) = inner.cache.get(key, fingerprint) {
        inner.stats.bump(Served::Hit);
        return ok_response(Served::Hit, key, false, &req, Some(&entry.source), t0, "");
    }

    // 2. Circuit breaker: a key that keeps failing is pinned to the
    // identity schedule until its probe window elapses.
    if inner.breakers.admit(key) == Admission::ShortCircuit {
        inner.stats.bump(Served::Breaker);
        return degrade(
            inner,
            &kernel,
            &scop,
            &knobs,
            Served::Breaker,
            key,
            &req,
            t0,
            "circuit open for this SCoP; identity schedule served",
        );
    }

    // 3. Coalesce onto an in-flight optimization of the same entry, or
    // admit a new flight into the bounded queue.
    let deadline = Duration::from_millis(if req.deadline_ms > 0 {
        req.deadline_ms
    } else {
        inner.cfg.default_deadline_ms
    });
    let (flight, created) = {
        let mut inflight = lock(&inner.inflight);
        if let Some(f) = inflight.get(&(key, fingerprint)) {
            f.waiters.fetch_add(1, Ordering::SeqCst);
            (Arc::clone(f), false)
        } else {
            let f = Arc::new(Flight::new());
            let mut q = lock(&inner.queue);
            if q.len() >= inner.cfg.queue_cap {
                inner.stats.bump(Served::Shed);
                return (429, shed_body("admission queue full"));
            }
            q.push_back(Job {
                key,
                fingerprint,
                flight: Arc::clone(&f),
                kernel: kernel.clone(),
                scop: scop.clone(),
                knobs: knobs.clone(),
                fault: req.inject,
            });
            drop(q);
            inner.queue_cv.notify_one();
            inflight.insert((key, fingerprint), Arc::clone(&f));
            (f, true)
        }
    };

    // 4. Wait for the flight, bounded by the deadline.
    let waited = Instant::now();
    let mut st = lock(&flight.state);
    let outcome = loop {
        if let FlightState::Done(r) = &*st {
            break Some(r.clone());
        }
        let elapsed = waited.elapsed();
        if elapsed >= deadline {
            break None;
        }
        st = flight
            .cv
            .wait_timeout(st, deadline - elapsed)
            .unwrap_or_else(|e| e.into_inner())
            .0;
    };
    let still_pending = matches!(&*st, FlightState::Pending);
    drop(st);
    let remaining = flight.waiters.fetch_sub(1, Ordering::SeqCst) - 1;

    match outcome {
        Some(Ok(entry)) => {
            let served = if created {
                Served::Miss
            } else {
                Served::Coalesced
            };
            inner.stats.bump(served);
            ok_response(served, key, false, &req, Some(&entry.source), t0, "")
        }
        Some(Err(fe)) => {
            inner.stats.bump(Served::Identity);
            degrade(
                inner,
                &kernel,
                &scop,
                &knobs,
                Served::Identity,
                key,
                &req,
                t0,
                &fe.detail,
            )
        }
        None => {
            // Deadline expired. The last departing waiter cancels the
            // flight so an orphaned optimization stops burning a worker
            // at its next stage boundary.
            if remaining == 0 && still_pending {
                flight.cancelled.store(true, Ordering::SeqCst);
            }
            inner.stats.bump(Served::Deadline);
            degrade(
                inner,
                &kernel,
                &scop,
                &knobs,
                Served::Deadline,
                key,
                &req,
                t0,
                "deadline expired before optimization finished",
            )
        }
    }
}

/// Serves the identity-schedule fallback: a slower but always-correct
/// answer beats an error for every degradation path.
#[allow(clippy::too_many_arguments)]
fn degrade(
    inner: &Arc<Inner>,
    kernel: &Kernel,
    scop: &Scop,
    knobs: &ResolvedKnobs,
    served: Served,
    key: CanonicalKey,
    req: &OptimizeRequest,
    t0: Instant,
    detail: &str,
) -> (u16, String) {
    match identity_source(kernel, scop, &knobs.params, inner.cfg.reps) {
        Ok(src) => (
            200,
            ok_body(served, key, true, req.emit.then_some(src.as_str()), t0, detail),
        ),
        // Identity emission is infallible in practice; if it ever breaks
        // the daemon still answers with a well-formed error body.
        Err(e) => (500, error_body("error", &e)),
    }
}

#[allow(clippy::too_many_arguments)]
fn ok_response(
    served: Served,
    key: CanonicalKey,
    degraded: bool,
    req: &OptimizeRequest,
    source: Option<&str>,
    t0: Instant,
    detail: &str,
) -> (u16, String) {
    let src = if req.emit { source } else { None };
    (200, ok_body(served, key, degraded, src, t0, detail))
}

fn ok_body(
    served: Served,
    key: CanonicalKey,
    degraded: bool,
    source: Option<&str>,
    t0: Instant,
    detail: &str,
) -> String {
    // Escape first, so `elapsed_ms` covers the whole body: on a hit,
    // escaping the source is the daemon's largest cost.
    let detail = (!detail.is_empty()).then(|| json_escape(detail));
    let source = source.map(json_escape);
    let mut s = String::with_capacity(128 + source.as_ref().map_or(0, String::len));
    let _ = write!(
        s,
        "{{\"status\":\"ok\",\"served\":\"{}\",\"key\":\"{}\",\"degraded\":{},\"elapsed_ms\":{:.3}",
        served.name(),
        key.hex(),
        u8::from(degraded),
        t0.elapsed().as_secs_f64() * 1e3
    );
    if let Some(detail) = detail {
        let _ = write!(s, ",\"detail\":\"{detail}\"");
    }
    if let Some(src) = source {
        s.push_str(",\"source\":\"");
        s.push_str(&src);
        s.push('"');
    }
    s.push('}');
    s
}

fn shed_body(why: &str) -> String {
    format!(
        "{{\"status\":\"shed\",\"served\":\"shed\",\"detail\":\"{}\"}}",
        json_escape(why)
    )
}

fn error_body(status: &str, detail: &str) -> String {
    format!(
        "{{\"status\":\"{status}\",\"detail\":\"{}\"}}",
        json_escape(detail)
    )
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                // Drain-then-exit: queued flights still complete after a
                // shutdown request so no waiter is stranded.
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = inner
                    .queue_cv
                    .wait(q)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        run_job(inner, &job);
    }
}

fn run_job(inner: &Arc<Inner>, job: &Job) {
    let result = if job.flight.cancelled.load(Ordering::SeqCst) {
        Err(FlightError {
            detail: "cancelled before scheduling started".into(),
            cancelled: true,
        })
    } else {
        execute(inner, job)
    };
    // Breaker accounting: only genuine optimizer verdicts count —
    // cancellation says nothing about the SCoP.
    match &result {
        Ok(_) => inner.breakers.record(job.key, true),
        Err(e) if !e.cancelled => inner.breakers.record(job.key, false),
        Err(_) => {}
    }
    {
        let mut st = lock(&job.flight.state);
        *st = FlightState::Done(result);
    }
    job.flight.cv.notify_all();
    lock(&inner.inflight).remove(&(job.key, job.fingerprint));
}

/// Runs one optimization with panic containment and transient-failure
/// retries, admitting the certified result to the cache.
fn execute(inner: &Arc<Inner>, job: &Job) -> Result<Arc<CacheEntry>, FlightError> {
    let cancelled = || job.flight.cancelled.load(Ordering::SeqCst);
    let attempt = || -> Result<crate::optimize::Optimized, String> {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            optimize(
                &job.kernel,
                &job.scop,
                &job.knobs,
                inner.cfg.emit_threads,
                inner.cfg.reps,
                job.fault,
                &cancelled,
            )
        }));
        match caught {
            Ok(Ok(o)) => Ok(o),
            Ok(Err(e)) => Err(e.detail),
            Err(payload) => {
                inner
                    .stats
                    .panics_contained
                    .fetch_add(1, Ordering::Relaxed);
                // `&*payload`, not `&payload`: a `&Box<dyn Any>` coerces
                // to `&dyn Any` *as the box*, and the &str downcast
                // inside would then never match.
                Err(format!("scheduler panicked: {}", panic_message(&*payload)))
            }
        }
    };
    match with_retries(inner.cfg.retries, attempt) {
        Ok(out) => {
            let entry = CacheEntry {
                key: job.key,
                fingerprint: job.fingerprint,
                kernel: job.kernel.name.to_string(),
                variant: job.knobs.variant.name().to_string(),
                source: out.source,
                sched_s: out.sched_s,
            };
            Ok(if job.fault == Fault::TornWrite {
                inner.cache.insert_torn(entry)
            } else {
                inner.cache.insert(entry)
            })
        }
        Err(detail) => Err(FlightError {
            cancelled: cancelled() || detail.starts_with("cancelled at stage boundary"),
            detail,
        }),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}
