//! DL-model validation (the premise of Sec. III-B): the model's
//! per-iteration memory cost must *rank* loop permutations and tile sizes
//! the same way the trace-driven cache simulator ranks their measured
//! misses. Runs gemm's update statement under all six loop permutations
//! and several tile sizes.

use polymix_bench::report::{Cli, Spec, Table};
use polymix_cachesim::{simulate, CacheConfig};
use polymix_codegen::from_poly::generate;
use polymix_dl::{mem_cost, CacheLevel, Machine, RefInfo};
use polymix_ir::builder::{con, ix, par, ScopBuilder};
use polymix_ir::{BinOp, Expr, Schedule, Scop};

fn matmul_update() -> Scop {
    let mut b = ScopBuilder::new("mmu", &["N"], &[48]);
    let c = b.array("C", &["N", "N"]);
    let a = b.array("A", &["N", "N"]);
    let bb = b.array("B", &["N", "N"]);
    b.enter("i", con(0), par("N"));
    b.enter("j", con(0), par("N"));
    b.enter("k", con(0), par("N"));
    let prod = Expr::mul(b.rd(a, &[ix("i"), ix("k")]), b.rd(bb, &[ix("k"), ix("j")]));
    b.stmt_update("S", c, &[ix("i"), ix("j")], BinOp::Add, prod);
    b.exit();
    b.exit();
    b.exit();
    b.finish().expect("well-formed SCoP")
}

fn perm_name(p: &[usize]) -> String {
    p.iter().map(|&i| ["i", "j", "k"][i]).collect()
}

fn main() {
    Cli::parse(&Spec::values(&[]));
    let scop = matmul_update();
    let machine = Machine::nehalem();
    let level: &CacheLevel = machine.primary_level();
    let params = vec![48i64];
    let cfg = CacheConfig {
        line_bytes: level.line_bytes,
        capacity_bytes: 8 * 1024, // deliberately small so misses differ
        ways: 8,
    };
    println!("== DL model validation: predicted cost vs simulated misses ==");
    println!("gemm update statement, N = 48, 8 KB simulated cache\n");
    let mut t = Table::new(&["order", "DL mem_cost", "simulated misses", "miss ratio"]);
    let mut pairs: Vec<(f64, u64)> = Vec::new();
    for perm in [
        [0usize, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ] {
        // Schedule sending original iterator perm[k] to level k.
        let sched = Schedule::from_permutation(&perm, 1);
        let st = &scop.statements[0];
        let refs: Vec<RefInfo> = st
            .accesses()
            .iter()
            .map(|(acc, _)| RefInfo::from_access(acc.array.0, acc, &sched, 1, 3, 8))
            .collect();
        // The DL cost over the *full* iteration space is permutation
        // invariant (the nest touches the same lines however ordered);
        // what discriminates permutations is the cost of an innermost
        // strip — one cache-resident sweep of the innermost loop — which
        // is exactly what the ∂mem_cost/∂t ranking optimizes.
        let cost = mem_cost(&refs, &[1.0, 1.0, 48.0], level);
        let prog = match generate(&scop, &[sched]) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{}: {e}", perm_name(&perm));
                continue;
            }
        };
        let mut arrays = polymix_ast::interp::alloc_arrays(&scop, &params);
        let stats = simulate(&prog, &params, &mut arrays, cfg);
        t.row(vec![
            perm_name(&perm),
            format!("{cost:.5}"),
            stats.misses.to_string(),
            format!("{:.3}", stats.miss_ratio()),
        ]);
        pairs.push((cost, stats.misses));
    }
    println!("{}", t.render());

    // Rank agreement (Spearman-style count of concordant pairs).
    let mut concordant = 0;
    let mut total = 0;
    for i in 0..pairs.len() {
        for j in i + 1..pairs.len() {
            if pairs[i].0 != pairs[j].0 && pairs[i].1 != pairs[j].1 {
                total += 1;
                if (pairs[i].0 < pairs[j].0) == (pairs[i].1 < pairs[j].1) {
                    concordant += 1;
                }
            }
        }
    }
    println!("rank agreement: {concordant}/{total} comparable pairs concordant");
}
