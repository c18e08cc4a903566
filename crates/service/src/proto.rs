//! The wire protocol: flat-JSON request/response bodies over HTTP/1.1.
//!
//! The body grammar is the sweep executor's flat-object JSONL grammar
//! (string / number / number-array fields, no nesting), parsed by
//! [`polymix_bench::sweep::parse_record`] on both ends — one parser for
//! sweep logs, cache entries and the service wire keeps the
//! offline workspace dependency-free.
//!
//! A request names a SCoP by kernel (the in-tree stand-in for shipping a
//! serialized SCoP; the cache key is *always* derived from the built
//! SCoP's canonical structure, never from the name), the optimization
//! variant and its knobs, concrete parameters, and robustness controls
//! (deadline, fault injection for tests).

use crate::fault::Fault;
use polymix_bench::sweep::{json_escape, parse_record};
use std::fmt::Write as _;

/// The largest unroll-and-jam factor a request may ask for: the top of
/// the paper's tuning range {1, 2, 4, 6, 8}. The emitter writes each
/// statement once per replica, so the factor bounds the source's size.
const MAX_UNROLL: i64 = 8;

/// A parsed optimization request.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimizeRequest {
    /// Kernel name (`polymix_polybench::kernel_by_name`).
    pub kernel: String,
    /// Variant label (the bench `Variant` names: `native`, `pocc`,
    /// `poly+ast`, …).
    pub variant: String,
    /// Dataset name; resolved to parameters server-side. Ignored when
    /// `params` is given explicitly.
    pub dataset: String,
    /// Explicit parameter values (overrides `dataset` when non-empty).
    pub params: Vec<i64>,
    /// Rectangular tile size (0 = variant default).
    pub tile: i64,
    /// Time-loop tile size (0 = variant default).
    pub time_tile: i64,
    /// Unroll-and-jam factors (0 = variant default; at most 8,
    /// `MAX_UNROLL`).
    pub unroll: (i64, i64),
    /// Per-request deadline in milliseconds (0 = server default).
    pub deadline_ms: u64,
    /// Include the emitted kernel source in the response body.
    pub emit: bool,
    /// Injected fault (tests only; requires the daemon's `allow_inject`).
    pub inject: Fault,
}

impl Default for OptimizeRequest {
    fn default() -> OptimizeRequest {
        OptimizeRequest {
            kernel: String::new(),
            variant: "poly+ast".into(),
            dataset: "mini".into(),
            params: Vec::new(),
            tile: 0,
            time_tile: 0,
            unroll: (0, 0),
            deadline_ms: 0,
            emit: false,
            inject: Fault::None,
        }
    }
}

impl OptimizeRequest {
    /// Renders the request body.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        let _ = write!(
            s,
            "{{\"kernel\":\"{}\",\"variant\":\"{}\",\"dataset\":\"{}\"",
            json_escape(&self.kernel),
            json_escape(&self.variant),
            json_escape(&self.dataset)
        );
        if !self.params.is_empty() {
            let ps: Vec<String> = self.params.iter().map(|p| p.to_string()).collect();
            let _ = write!(s, ",\"params\":[{}]", ps.join(","));
        }
        let _ = write!(
            s,
            ",\"tile\":{},\"time_tile\":{},\"unroll_o\":{},\"unroll_i\":{},\"deadline_ms\":{},\"emit\":{}",
            self.tile, self.time_tile, self.unroll.0, self.unroll.1, self.deadline_ms,
            u8::from(self.emit)
        );
        let inject = match self.inject {
            Fault::None => String::new(),
            Fault::Panic => "panic".into(),
            Fault::Slow(ms) => format!("slow:{ms}"),
            Fault::TornWrite => "torn".into(),
        };
        if !inject.is_empty() {
            let _ = write!(s, ",\"inject\":\"{inject}\"");
        }
        s.push('}');
        s
    }

    /// Parses a request body; `Err` carries a client-facing detail for
    /// the 400 response.
    pub fn from_json(body: &str) -> Result<OptimizeRequest, String> {
        let rec = parse_record(body).ok_or("body is not a flat JSON object")?;
        let kernel = rec
            .str_field("kernel")
            .ok_or("missing string field \"kernel\"")?
            .to_string();
        if kernel.is_empty() {
            return Err("empty \"kernel\"".into());
        }
        let mut req = OptimizeRequest {
            kernel,
            ..OptimizeRequest::default()
        };
        if let Some(v) = rec.str_field("variant") {
            req.variant = v.to_string();
        }
        if let Some(d) = rec.str_field("dataset") {
            req.dataset = d.to_string();
        }
        if let Some(ps) = rec.arr_field("params") {
            req.params = ps.iter().map(|&p| p as i64).collect();
        }
        let num = |k: &str| rec.num_field(k).unwrap_or(0.0);
        req.tile = num("tile") as i64;
        req.time_tile = num("time_tile") as i64;
        req.unroll = (num("unroll_o") as i64, num("unroll_i") as i64);
        if req.tile < 0 || req.time_tile < 0 || req.unroll.0 < 0 || req.unroll.1 < 0 {
            return Err("negative tile/unroll knob".into());
        }
        if req.unroll.0 > MAX_UNROLL || req.unroll.1 > MAX_UNROLL {
            return Err(format!("unroll factor above {MAX_UNROLL}"));
        }
        req.deadline_ms = num("deadline_ms").max(0.0) as u64;
        req.emit = num("emit") != 0.0;
        if let Some(spec) = rec.str_field("inject") {
            req.inject =
                Fault::parse(spec).ok_or_else(|| format!("unknown inject directive {spec:?}"))?;
        }
        Ok(req)
    }
}

/// How the response was produced — the robustness state machine's
/// externally visible outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Straight from the schedule cache; the scheduler never ran.
    Hit,
    /// Optimized on this request and admitted to the cache.
    Miss,
    /// Another in-flight request for the same entry produced it; this
    /// one waited on that flight instead of re-optimizing.
    Coalesced,
    /// The optimizer failed (panic / error / verify rejection) and the
    /// identity schedule was served instead.
    Identity,
    /// The key's circuit breaker is open; identity served without
    /// touching the scheduler.
    Breaker,
    /// The deadline expired mid-optimization; identity served, the
    /// in-flight work was cooperatively cancelled.
    Deadline,
    /// Load shed at admission (429).
    Shed,
}

impl Served {
    /// Wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Served::Hit => "hit",
            Served::Miss => "miss",
            Served::Coalesced => "coalesced",
            Served::Identity => "identity",
            Served::Breaker => "breaker",
            Served::Deadline => "deadline",
            Served::Shed => "shed",
        }
    }

    /// Inverse of [`Served::name`].
    pub fn parse(s: &str) -> Option<Served> {
        Some(match s {
            "hit" => Served::Hit,
            "miss" => Served::Miss,
            "coalesced" => Served::Coalesced,
            "identity" => Served::Identity,
            "breaker" => Served::Breaker,
            "deadline" => Served::Deadline,
            "shed" => Served::Shed,
            _ => return None,
        })
    }
}

/// A parsed service response (client side).
#[derive(Clone, Debug)]
pub struct OptimizeResponse {
    /// HTTP status code.
    pub http_status: u16,
    /// `ok` | `shed` | `bad-request` | `error`.
    pub status: String,
    /// How the result was produced (present on `ok`).
    pub served: Option<Served>,
    /// Canonical structural key, hex (present on `ok`).
    pub key: String,
    /// `true` when an identity fallback replaced the requested variant.
    pub degraded: bool,
    /// Emitted kernel source (present when requested and available).
    pub source: Option<String>,
    /// Server-side processing time for this request, milliseconds.
    pub elapsed_ms: f64,
    /// Failure detail (present on non-`ok`).
    pub detail: String,
}

impl OptimizeResponse {
    /// Parses a response body (plus its HTTP status).
    pub fn from_json(http_status: u16, body: &str) -> Result<OptimizeResponse, String> {
        let rec = parse_record(body).ok_or("response body is not a flat JSON object")?;
        let status = rec
            .str_field("status")
            .ok_or("missing \"status\"")?
            .to_string();
        Ok(OptimizeResponse {
            http_status,
            served: rec.str_field("served").and_then(Served::parse),
            key: rec.str_field("key").unwrap_or("").to_string(),
            degraded: rec.num_field("degraded").unwrap_or(0.0) != 0.0,
            source: rec.str_field("source").map(str::to_string),
            elapsed_ms: rec.num_field("elapsed_ms").unwrap_or(0.0),
            detail: rec.str_field("detail").unwrap_or("").to_string(),
            status,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = OptimizeRequest {
            kernel: "gemm".into(),
            variant: "poly+ast".into(),
            dataset: "small".into(),
            params: vec![64, 64, 64],
            tile: 16,
            time_tile: 5,
            unroll: (2, 2),
            deadline_ms: 250,
            emit: true,
            inject: Fault::Slow(40),
        };
        let back = OptimizeRequest::from_json(&req.to_json()).expect("parses");
        assert_eq!(back, req);
    }

    #[test]
    fn request_rejects_garbage() {
        assert!(OptimizeRequest::from_json("not json").is_err());
        assert!(OptimizeRequest::from_json("{}").is_err(), "kernel required");
        assert!(OptimizeRequest::from_json("{\"kernel\":\"gemm\",\"inject\":\"zap\"}").is_err());
        assert!(OptimizeRequest::from_json("{\"kernel\":\"gemm\",\"tile\":-4}").is_err());
    }

    /// An unroll factor is a replica count the emitter writes out, so
    /// one beyond the paper's range is refused before any optimizer runs.
    #[test]
    fn request_rejects_unroll_factors_above_eight() {
        let req = |o: &str, i: &str| {
            OptimizeRequest::from_json(&format!(
                "{{\"kernel\":\"gemm\",\"unroll_o\":{o},\"unroll_i\":{i}}}"
            ))
        };
        assert_eq!(req("8", "8").map(|r| r.unroll), Ok((8, 8)));
        assert!(req("9", "1").is_err());
        assert!(req("1", "1e9").is_err());
        assert!(req("1e30", "2").is_err());
    }

    #[test]
    fn served_names_roundtrip() {
        for s in [
            Served::Hit,
            Served::Miss,
            Served::Coalesced,
            Served::Identity,
            Served::Breaker,
            Served::Deadline,
            Served::Shed,
        ] {
            assert_eq!(Served::parse(s.name()), Some(s));
        }
        assert_eq!(Served::parse("nope"), None);
    }
}
