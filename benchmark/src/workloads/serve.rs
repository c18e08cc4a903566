//! `serve-warm` and `serve-cold`: the daemon, in process, driven over
//! its real socket by two closed-loop clients (each sends its next
//! request only after the reply to the previous one).
//!
//! * warm — set-up fills the cache; a pass draws keys from a Zipf
//!   distribution over that set, so every request is a hit: http,
//!   `canonical_key` and `ShardedCache::get`, optimizer idle.
//! * cold — every request of a run is new (the tile size differs from
//!   pass to pass), so every request runs optimize, `certify_for_cache`
//!   and the persist beside the reads of the other client.

use super::{kernels_without_tail, Ctx, Layers, Recorder, Workload};
use crate::speed::Calibrator;
use crate::stats::{median, quantile, Rng, Zipf};
use crate::trace::{now_s, root, span};
use polymix_bench::sweep::parse_record;
use polymix_polybench::kernel_by_name;
use polymix_service::optimize::{optimize, resolve_knobs};
use polymix_service::{
    canonical_key, request_fingerprint, CacheEntry, Client, Fault, OptimizeRequest, Served,
    Service, ServiceConfig, ShardedCache,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Callers of the service (sweeps, the tuner) wait for each reply, and
/// the host has two cores.
const CLIENTS: usize = 2;
/// Requests per client in one warm pass (about 0.3 s).
const WARM_PASS_REQUESTS: usize = 200;
/// Per-request deadline: a runaway optimization is answered with the
/// identity fallback (`served=deadline`) and counted as a failure.
const DEADLINE_MS: u64 = 10_000;
const IO_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    Warm,
    Cold,
}

pub struct Serve {
    mode: Mode,
    svc: Option<Service>,
    clients: Vec<Client>,
    cache_dir: PathBuf,
    /// Warm: the distinct requests the cache was filled with, rank order.
    keys: Vec<OptimizeRequest>,
    kernels: Vec<&'static str>,
    sent: u32,
    /// Latency of every request of the passes, seconds.
    latencies: Vec<f64>,
    pass_wall_s: f64,
}

struct Reply {
    id: u32,
    end_s: f64,
    secs: f64,
    verdict: Result<(), String>,
}

fn request(kernel: &str, variant: &str, tile: i64) -> OptimizeRequest {
    OptimizeRequest {
        kernel: kernel.into(),
        variant: variant.into(),
        dataset: "mini".into(),
        tile,
        deadline_ms: DEADLINE_MS,
        emit: true,
        ..OptimizeRequest::default()
    }
}

/// Sends one request and checks status, `served` kind and source.
fn send(client: &mut Client, req: &OptimizeRequest, id: u32, want: Served) -> Reply {
    let t0 = Instant::now();
    let resp = root("request", id, || {
        span("service.request", || client.optimize(req))
    });
    let secs = t0.elapsed().as_secs_f64();
    let verdict = resp.and_then(|r| {
        let good = r.http_status == 200
            && r.status == "ok"
            && r.served == Some(want)
            && !r.degraded
            && r.source.as_deref().is_some_and(|s| !s.is_empty());
        if good {
            Ok(())
        } else {
            Err(format!(
                "{} {}: http {} status {} served {:?} (wanted {:?}) {}",
                req.kernel, req.variant, r.http_status, r.status, r.served, want, r.detail
            ))
        }
    });
    Reply {
        id,
        end_s: now_s(),
        secs,
        verdict,
    }
}

impl Serve {
    pub fn new(mode: Mode) -> Serve {
        Serve {
            mode,
            svc: None,
            clients: Vec::new(),
            cache_dir: PathBuf::new(),
            keys: Vec::new(),
            kernels: Vec::new(),
            sent: 0,
            latencies: Vec::new(),
            pass_wall_s: 0.0,
        }
    }

    /// Splits `work` round-robin over the clients, runs them concurrently
    /// and returns every reply and the clients' calibration units.
    fn drive(&mut self, work: &[(OptimizeRequest, Served)]) -> (Vec<Reply>, Vec<(f64, f64)>) {
        let first = self.sent;
        self.sent += work.len() as u32;
        let (mut replies, mut units) = (Vec::with_capacity(work.len()), Vec::new());
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        // Each client calibrates between its own requests.
                        let mut units = Calibrator::default();
                        let mine = work.iter().enumerate().skip(c).step_by(CLIENTS);
                        let replies: Vec<Reply> = mine
                            .map(|(k, (req, want))| {
                                units.tick();
                                send(client, req, first + k as u32, *want)
                            })
                            .collect();
                        (replies, units.samples)
                    })
                })
                .collect();
            for h in handles {
                let (r, u) = h.join().expect("client thread panicked");
                replies.extend(r);
                units.extend(u);
            }
        });
        (replies, units)
    }
}

impl Workload for Serve {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        self.cache_dir = ctx.scratch.join("cache");
        self.kernels = kernels_without_tail(ctx.quick)
            .iter()
            .map(|k| k.name)
            .collect();
        let cfg = ServiceConfig {
            cache_dir: self.cache_dir.clone(),
            ..ServiceConfig::default()
        };
        let svc = Service::start(cfg).map_err(|e| format!("daemon start: {e}"))?;
        for _ in 0..CLIENTS {
            self.clients.push(Client::connect(svc.addr, IO_TIMEOUT)?);
        }
        self.svc = Some(svc);
        let fill: Vec<(OptimizeRequest, Served)> = match self.mode {
            Mode::Warm => {
                self.keys = self
                    .kernels
                    .iter()
                    .flat_map(|k| [request(k, "poly+ast", 0), request(k, "native", 0)])
                    .collect();
                self.keys
                    .iter()
                    .map(|r| (r.clone(), Served::Miss))
                    .collect()
            }
            // One request per client on kernels outside the timed set.
            Mode::Cold => ["lu", "trmm"]
                .iter()
                .map(|k| (request(k, "poly+ast", 0), Served::Miss))
                .collect(),
        };
        for reply in self.drive(&fill).0 {
            reply.verdict.map_err(|e| format!("set-up request: {e}"))?;
        }
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx, index: usize, rec: &mut Recorder) {
        let mut rng = Rng::new(ctx.seed.wrapping_add(index as u64));
        let mut work: Vec<(OptimizeRequest, Served)> = match self.mode {
            Mode::Warm => {
                let zipf = Zipf::new(self.keys.len());
                let n = CLIENTS
                    * if ctx.quick {
                        WARM_PASS_REQUESTS / 4
                    } else {
                        WARM_PASS_REQUESTS
                    };
                (0..n)
                    .map(|_| (self.keys[zipf.sample(&mut rng)].clone(), Served::Hit))
                    .collect()
            }
            Mode::Cold => {
                // A tile size no earlier pass of this run has used.
                let tile = 8 + (ctx.seed % 8) as i64 + index as i64;
                let mut reqs: Vec<_> = self
                    .kernels
                    .iter()
                    .map(|k| (request(k, "poly+ast", tile), Served::Miss))
                    .collect();
                rng.shuffle(&mut reqs);
                reqs
            }
        };
        if ctx.inject_fault && index == 0 {
            // Demand the wrong `served` kind once: a bad response must
            // be counted as a failure.
            work[0].1 = Served::Breaker;
        }
        let t0 = Instant::now();
        let (replies, units) = self.drive(&work);
        self.pass_wall_s += t0.elapsed().as_secs_f64();
        if let Some(c) = &mut rec.calibrator {
            c.samples.extend(units);
        }
        for reply in replies {
            match reply.verdict {
                Ok(()) => {
                    self.latencies.push(reply.secs);
                    rec.ok_at(reply.id, reply.end_s, reply.secs);
                }
                Err(e) => rec.fail(e),
            }
        }
    }

    fn cells_repeat(&self) -> bool {
        false
    }

    fn calibrated(&self) -> bool {
        true
    }

    fn probes(&mut self, ctx: &Ctx, layers: &mut Layers, rec: &mut Recorder) {
        if let Some(stats) = self
            .svc
            .as_ref()
            .and_then(|s| parse_record(&s.stats_json()))
        {
            for (name, field) in [
                ("service.hit", "hit"),
                ("service.miss", "miss"),
                ("service.coalesced", "coalesced"),
                ("service.shed", "shed"),
                ("service.deadline", "deadline"),
            ] {
                layers.insert(name, stats.num_field(field).unwrap_or(0.0));
            }
        }
        layers.insert(
            "service.rps",
            self.latencies.len() as f64 / self.pass_wall_s.max(1e-9),
        );
        layers.insert("service.p99_ms", quantile(&self.latencies, 0.99) * 1e3);

        // The steps of the hit path and of the miss path, one by one.
        let cfg = ServiceConfig::default();
        let reloaded = span("service.cache_open", || {
            ShardedCache::open(&self.cache_dir, cfg.shards)
        });
        let fresh = ShardedCache::open(&ctx.scratch.join("cache-probe"), cfg.shards);
        let (mut key_s, mut get_s, mut insert_s) = (Vec::new(), Vec::new(), Vec::new());
        for name in &self.kernels {
            let kernel = kernel_by_name(name).expect("kernel of the set");
            let scop = (kernel.build)();
            let Ok(knobs) = resolve_knobs(&request(name, "poly+ast", 0), &kernel, &scop) else {
                continue;
            };
            let timed =
                |samples: &mut Vec<f64>, t0: Instant| samples.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let key = span("service.canonical_key", || canonical_key(&scop));
            timed(&mut key_s, t0);
            let fingerprint = request_fingerprint(
                knobs.variant.name(),
                knobs.tile,
                knobs.time_tile,
                knobs.unroll,
                &knobs.params,
                cfg.emit_threads,
                cfg.reps,
            );
            let t0 = Instant::now();
            let hit = span("service.cache_get", || reloaded.get(key, fingerprint));
            timed(&mut get_s, t0);
            if self.mode == Mode::Warm {
                rec.checked(
                    hit.map(|_| ())
                        .ok_or(format!("{name}: not in the reloaded cache")),
                );
            }
            let done = span("service.optimize", || {
                optimize(
                    &kernel,
                    &scop,
                    &knobs,
                    cfg.emit_threads,
                    cfg.reps,
                    Fault::None,
                    &|| false,
                )
            });
            match done {
                Ok(opt) => {
                    let entry = CacheEntry {
                        key,
                        fingerprint,
                        kernel: name.to_string(),
                        variant: knobs.variant.name().into(),
                        source: opt.source,
                        sched_s: opt.sched_s,
                    };
                    let t0 = Instant::now();
                    span("service.cache_insert", || fresh.insert(entry));
                    timed(&mut insert_s, t0);
                    rec.checked(Ok(()));
                }
                Err(e) => rec.checked(Err(format!("{name}: {}", e.detail))),
            }
        }
        layers.insert("service.cache_get_us", median(&get_s) * 1e6);
        layers.insert("service.cache_insert_ms", median(&insert_s) * 1e3);
        if self.mode == Mode::Warm {
            let hit_s = median(&self.latencies);
            layers.insert(
                "service.transport_us",
                (hit_s - median(&key_s) - median(&get_s)) * 1e6,
            );
        }
    }

    fn teardown(&mut self) {
        self.clients.clear();
        if let Some(svc) = self.svc.take() {
            svc.stop();
        }
    }
}
