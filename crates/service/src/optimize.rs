//! The service-side optimization pipeline: knob resolution, the staged
//! (and therefore cancellable) optimize → certify → emit flow, and the
//! identity-schedule fallback every degradation path lands on.

use crate::fault::Fault;
use crate::proto::OptimizeRequest;
use polymix_bench::runner::emit_source;
use polymix_bench::variants::{build_with, Variant};
use polymix_codegen::from_poly::original_program;
use polymix_dl::Machine;
use polymix_ir::Scop;
use polymix_polybench::{Group, Kernel};
use std::time::Instant;

/// A request with every knob resolved against the kernel's and
/// variant's defaults — the exact inputs the optimizer will see, and
/// therefore exactly what the cache fingerprint covers.
#[derive(Clone, Debug)]
pub struct ResolvedKnobs {
    /// The experimental variant.
    pub variant: Variant,
    /// Rectangular tile size.
    pub tile: i64,
    /// Time-loop tile size.
    pub time_tile: i64,
    /// Unroll-and-jam factors.
    pub unroll: (i64, i64),
    /// Concrete parameter values.
    pub params: Vec<i64>,
}

/// Resolves a request's knobs against the paper defaults (tile 32, time
/// tile 5 for the pipeline group, unroll (2,2) for `pocc+vect`). `Err`
/// is a client-facing 400 detail.
pub fn resolve_knobs(req: &OptimizeRequest, kernel: &Kernel, scop: &Scop) -> Result<ResolvedKnobs, String> {
    let variant =
        Variant::parse(&req.variant).ok_or_else(|| format!("unknown variant {:?}", req.variant))?;
    let params = if req.params.is_empty() {
        kernel
            .try_dataset(&req.dataset)
            .ok_or_else(|| format!("kernel {} has no dataset {:?}", kernel.name, req.dataset))?
            .params
    } else {
        if req.params.len() != scop.params.len() {
            return Err(format!(
                "kernel {} takes {} parameter(s), got {}",
                kernel.name,
                scop.params.len(),
                req.params.len()
            ));
        }
        if let Some(bad) = req
            .params
            .iter()
            .zip(&scop.param_lower_bounds)
            .find(|(v, lb)| *v < *lb)
        {
            return Err(format!(
                "parameter value {} below the kernel's lower bound {}",
                bad.0, bad.1
            ));
        }
        req.params.clone()
    };
    let default_tt = if kernel.group == Group::Pipeline { 5 } else { 32 };
    let default_unroll = if variant == Variant::PoccVect { (2, 2) } else { (1, 1) };
    Ok(ResolvedKnobs {
        variant,
        tile: if req.tile > 0 { req.tile } else { 32 },
        time_tile: if req.time_tile > 0 { req.time_tile } else { default_tt },
        unroll: (
            if req.unroll.0 > 0 { req.unroll.0 } else { default_unroll.0 },
            if req.unroll.1 > 0 { req.unroll.1 } else { default_unroll.1 },
        ),
        params,
    })
}

/// Why an optimization flight did not produce a servable entry.
#[derive(Clone, Debug)]
pub struct OptError {
    /// Human-readable failure detail (classified by the daemon via the
    /// sweep's transient / deterministic rules).
    pub detail: String,
    /// The flight was cooperatively cancelled (deadline expiry with no
    /// remaining waiters) — not the SCoP's fault, never a breaker
    /// strike.
    pub cancelled: bool,
}

impl OptError {
    fn cancelled(stage: &str) -> OptError {
        OptError {
            detail: format!("cancelled at stage boundary: {stage}"),
            cancelled: true,
        }
    }
}

/// A successful optimization: the certified emitted source plus the
/// scheduling wall-clock it cost (what a cache hit saves).
#[derive(Clone, Debug)]
pub struct Optimized {
    /// Emitted standalone kernel source.
    pub source: String,
    /// Optimize + certify + emit seconds.
    pub sched_s: f64,
}

/// Runs the full staged pipeline: (injected fault) → schedule/transform
/// → certify-for-cache → emit → lint. `cancelled` is polled at every
/// stage boundary — cooperative cancellation for deadline expiry; a
/// cancelled flight stops burning the worker at the next boundary.
///
/// Panics (real scheduler bugs or injected ones) are NOT caught here;
/// the daemon's worker wraps this in `catch_unwind` so containment and
/// breaker accounting stay in one place.
pub fn optimize(
    kernel: &Kernel,
    scop: &Scop,
    knobs: &ResolvedKnobs,
    threads: usize,
    reps: usize,
    fault: Fault,
    cancelled: &dyn Fn() -> bool,
) -> Result<Optimized, OptError> {
    let t0 = Instant::now();
    if !fault.apply_scheduling(cancelled) {
        return Err(OptError::cancelled("scheduling (injected slow compile)"));
    }
    if cancelled() {
        return Err(OptError::cancelled("scheduling"));
    }
    // One table from here to the end of the flight: the certifier's
    // re-derived dependence graph hits what the optimizer already asked.
    let _memo = polymix_math::memo::scope();
    let prog = build_with(
        scop,
        knobs.variant,
        knobs.tile,
        knobs.time_tile,
        knobs.unroll,
        &Machine::host(),
    )
    .map_err(|e| OptError {
        detail: e.to_string(),
        cancelled: false,
    })?;
    if cancelled() {
        return Err(OptError::cancelled("certification"));
    }
    let src = emit_source(kernel, &prog, &knobs.params, threads, reps);
    if cancelled() {
        return Err(OptError::cancelled("emission"));
    }
    // The cache-admission gate: a bad entry must never be replayable.
    polymix_verify::certify_for_cache(&prog, kernel.name, &src).map_err(|e| OptError {
        detail: e.to_string(),
        cancelled: false,
    })?;
    Ok(Optimized {
        source: src,
        sched_s: t0.elapsed().as_secs_f64(),
    })
}

/// The identity-schedule fallback: the SCoP under its original textual
/// order, emitted sequentially. Always legal, milliseconds to produce —
/// the floor every degradation path (breaker, deadline, optimizer
/// failure) stands on. No certification needed: there is nothing to
/// get wrong in an unannotated sequential emission, and the fallback
/// must not depend on the machinery it is backstopping.
pub fn identity_source(kernel: &Kernel, scop: &Scop, params: &[i64], reps: usize) -> Result<String, String> {
    let prog = original_program(scop).map_err(|e| e.to_string())?;
    Ok(emit_source(kernel, &prog, params, 1, reps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymix_polybench::kernel_by_name;

    #[test]
    fn resolve_applies_defaults_and_overrides() {
        let k = kernel_by_name("seidel-2d").expect("kernel");
        let scop = (k.build)();
        let req = OptimizeRequest {
            kernel: "seidel-2d".into(),
            ..Default::default()
        };
        let r = resolve_knobs(&req, &k, &scop).expect("resolves");
        assert_eq!((r.tile, r.time_tile), (32, 5), "pipeline-group default");
        let req2 = OptimizeRequest {
            tile: 16,
            time_tile: 8,
            ..req
        };
        let r2 = resolve_knobs(&req2, &k, &scop).expect("resolves");
        assert_eq!((r2.tile, r2.time_tile), (16, 8));
    }

    #[test]
    fn resolve_rejects_bad_inputs() {
        let k = kernel_by_name("gemm").expect("kernel");
        let scop = (k.build)();
        let bad_variant = OptimizeRequest {
            kernel: "gemm".into(),
            variant: "pluto9000".into(),
            ..Default::default()
        };
        assert!(resolve_knobs(&bad_variant, &k, &scop).is_err());
        let bad_dataset = OptimizeRequest {
            kernel: "gemm".into(),
            dataset: "galactic".into(),
            ..Default::default()
        };
        assert!(resolve_knobs(&bad_dataset, &k, &scop).is_err());
        let bad_arity = OptimizeRequest {
            kernel: "gemm".into(),
            params: vec![4],
            ..Default::default()
        };
        assert!(resolve_knobs(&bad_arity, &k, &scop).is_err());
    }

    #[test]
    fn optimize_and_identity_produce_source() {
        let k = kernel_by_name("gemm").expect("kernel");
        let scop = (k.build)();
        let req = OptimizeRequest {
            kernel: "gemm".into(),
            ..Default::default()
        };
        let knobs = resolve_knobs(&req, &k, &scop).expect("resolves");
        let out = optimize(&k, &scop, &knobs, 2, 1, Fault::None, &|| false).expect("optimizes");
        assert!(out.source.contains("fn main"));
        let ident = identity_source(&k, &scop, &knobs.params, 1).expect("identity");
        assert!(ident.contains("fn main"));
    }

    #[test]
    fn cancellation_stops_at_stage_boundary() {
        let k = kernel_by_name("gemm").expect("kernel");
        let scop = (k.build)();
        let req = OptimizeRequest {
            kernel: "gemm".into(),
            ..Default::default()
        };
        let knobs = resolve_knobs(&req, &k, &scop).expect("resolves");
        let e = optimize(&k, &scop, &knobs, 2, 1, Fault::None, &|| true)
            .expect_err("cancelled flight must not produce an entry");
        assert!(e.cancelled);
    }
}
