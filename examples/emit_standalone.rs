//! Source-to-source: emit an optimized kernel as a standalone Rust
//! program (what the benchmark harness compiles with `rustc -O`), the
//! reproduction's analogue of the paper's generated OpenMP C.
//!
//! ```text
//! cargo run --release --example emit_standalone > /tmp/gemm_opt.rs
//! rustc -O /tmp/gemm_opt.rs -o /tmp/gemm_opt && /tmp/gemm_opt
//! ```

use polymix::codegen::emit::{emit_rust, EmitOptions};
use polymix::core::{optimize_poly_ast, PolyAstOptions};
use polymix::polybench::kernel_by_name;

fn main() {
    let kernel = kernel_by_name("gemm").unwrap();
    let scop = (kernel.build)();
    let prog = match optimize_poly_ast(&scop, &PolyAstOptions::default()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gemm failed to optimize: {e}");
            std::process::exit(1);
        }
    };
    let params = kernel.dataset("small").params;
    let src = emit_rust(
        &prog,
        &EmitOptions {
            params: params.clone(),
            flops: (kernel.flops)(&params),
            threads: 4,
            init_rust: Some(kernel.init_rust(&prog.scop)),
            reps: 3,
        },
    );
    print!("{src}");
}
