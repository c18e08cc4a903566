//! The names, units and bounds of everything the benchmark reports.
//! `BENCHMARK.json` at the root of the repository is the output of
//! `--manifest`; change the two together.

pub const RUN_SECONDS: u64 = 12;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const WORKLOADS: [(&str, &str); 7] = [
    ("compile", "41 (kernel, variant) cells through build_variant, certify and emit_source: the compiler's own cost, no rustc, no kernel run"),
    ("kernels-blas", "14 kernels whose shape fusion and permutation decide, poly+ast, run at standard on one thread: code quality of the DL-guided stage"),
    ("kernels-stencil", "6 stencils whose shape skewing, time tiling and inner guards decide: same layers as kernels-blas, used differently"),
    ("screen", "20 kernels x 3 variants x 16 parameter vectors through vm lower, certify and run: the tuner's cheap fidelity, certifier-bound"),
    ("tune", "two budgeted searches (gemm, jacobi-1d-imper): cache-model prune, vm screen, rustc confirm; the only workload where search policy shows"),
    ("serve-warm", "2 closed-loop clients draw Zipf keys over a filled cache: http, canonical_key and cache get, optimizer idle"),
    ("serve-cold", "2 closed-loop clients send never-repeated requests: every one runs optimize, certify_for_cache and persist"),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Reported by every workload, never zero. What a cell is differs per
/// workload (README.md, "End-to-end metrics").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "work_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cell_geomean_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cell_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cell_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
];

/// (name, unit, better). A metric is 0 on a workload whose path does not
/// touch the layer. `<span>_s` metrics are filled from the spans of that
/// name: seconds per traced pass (or per set-up, or per probe run).
pub const PER_LAYER: [(&str, &str, &str); 68] = [
    ("math.is_empty_s", "s", "lower"),
    ("math.polyhedra", "count", "lower"),
    ("deps.build_podg_s", "s", "lower"),
    ("deps.deps", "count", "lower"),
    ("core.affine_stage_s", "s", "lower"),
    ("core.optimize_poly_ast_s", "s", "lower"),
    ("core.ast_stages_s", "s", "lower"),
    ("pluto.schedule_s", "s", "lower"),
    ("pluto.optimize_s", "s", "lower"),
    ("codegen.generate_s", "s", "lower"),
    ("codegen.emit_s", "s", "lower"),
    ("codegen.src_bytes", "count", "lower"),
    ("ast.loops", "count", "lower"),
    ("ast.stmts", "count", "lower"),
    ("ast.interp_s", "s", "lower"),
    ("verify.certify_s", "s", "lower"),
    ("verify.certify_for_cache_s", "s", "lower"),
    ("verify.violations", "count", "lower"),
    ("compile.tail_s", "s", "lower"),
    ("bench.ensure_compiled_s", "s", "lower"),
    ("bench.run_binary_s", "s", "lower"),
    ("bench.rustc_cells", "count", "lower"),
    ("bench.bin_bytes", "count", "lower"),
    ("kernels.polyast_gflops_geomean", "GF/s", "higher"),
    ("kernels.native_gflops_geomean", "GF/s", "higher"),
    ("kernels.pocc_gflops_geomean", "GF/s", "higher"),
    ("kernels.vs_native_geomean", "ratio", "higher"),
    ("kernels.vs_native_min", "ratio", "higher"),
    ("kernels.below_native", "count", "lower"),
    ("vm.lower_s", "s", "lower"),
    ("vm.certify_s", "s", "lower"),
    ("vm.run_s", "s", "lower"),
    ("vm.instrs", "count", "lower"),
    ("vm.accesses_proven", "count", "higher"),
    ("vm.accesses_total", "count", "lower"),
    ("cachesim.batch_cost_s", "s", "lower"),
    ("autotune.search_s", "s", "lower"),
    ("autotune.build_candidates_s", "s", "lower"),
    ("autotune.candidates", "count", "lower"),
    ("autotune.pruned", "count", "higher"),
    ("autotune.vm_cells", "count", "lower"),
    ("autotune.rustc_cells", "count", "lower"),
    ("autotune.best_vs_native", "ratio", "higher"),
    ("service.request_s", "s", "lower"),
    ("service.canonical_key_s", "s", "lower"),
    ("service.cache_get_us", "us", "lower"),
    ("service.cache_insert_ms", "ms", "lower"),
    ("service.cache_open_s", "s", "lower"),
    ("service.optimize_s", "s", "lower"),
    ("service.transport_us", "us", "lower"),
    ("service.rps", "1/s", "higher"),
    ("service.p99_ms", "ms", "lower"),
    ("service.hit", "count", "higher"),
    ("service.miss", "count", "lower"),
    ("service.coalesced", "count", "lower"),
    ("service.shed", "count", "lower"),
    ("service.deadline", "count", "lower"),
    ("runtime.par_for_ns_per_iter", "ns", "lower"),
    ("runtime.reduce_array_ns_per_iter", "ns", "lower"),
    ("runtime.pipeline_2d_ns_per_cell", "ns", "lower"),
    ("runtime.taskgraph_2d_ns_per_cell", "ns", "lower"),
    ("process.peak_rss_mb", "MB", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("failed_share", "ratio", "lower"),
    ("passes.traced", "count", "higher"),
    ("passes.untraced", "count", "higher"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quoted = |xs: &[&str]| {
        xs.iter()
            .map(|x| format!("\"{x}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
