//! Zero-false-negative spot checks: hand-broken programs and kernel
//! sources must be rejected with the *right* violation kind.
//!
//! Each test takes a program the compiler really produces (so it
//! certifies cleanly), applies one adversarial mutation a buggy
//! transformation could plausibly introduce, and asserts the certifier
//! catches it. Together with `certify_polybench` (no false positives on
//! legal outputs) this pins the certifier from both sides.

use polymix_ast::tree::{Node, Par, Program, StmtNode};
use polymix_codegen::emit::{emit_rust, EmitOptions};
use polymix_core::{optimize_poly_ast, PolyAstOptions};
use polymix_ir::{con, ix, par, BinOp, ScopBuilder, SymAff};
use polymix_polybench::kernel_by_name;
use polymix_verify::{verify_program, verify_source, ViolationKind};

/// The untransformed textual-order program for `name` — always legal.
fn identity_program(name: &str) -> Program {
    let k = kernel_by_name(name).expect("kernel");
    let scop = (k.build)();
    let identity: Vec<_> = scop.statements.iter().map(|s| s.schedule.clone()).collect();
    polymix_codegen::generate(&scop, &identity).expect("generate")
}

/// The poly+AST program at the pipeline group's tile sizes (32, time tile
/// 5): tiles the DL model finds worth cutting, so the pipeline loop is a
/// tile loop (at 4 × 4 with time tile 2 it declines seidel-2d's tiles).
fn poly_ast_program(name: &str) -> Program {
    let k = kernel_by_name(name).expect("kernel");
    let scop = (k.build)();
    let opts = PolyAstOptions {
        tile: 32,
        time_tile: 5,
        ..Default::default()
    };
    optimize_poly_ast(&scop, &opts).expect("optimize")
}

fn mutate_stmts(node: &mut Node, f: &mut impl FnMut(&mut StmtNode)) {
    match node {
        Node::Seq(xs) => xs.iter_mut().for_each(|x| mutate_stmts(x, f)),
        Node::Loop(l) => mutate_stmts(&mut l.body, f),
        Node::Guard(_, b) => mutate_stmts(b, f),
        Node::Stmt(s) => f(s),
    }
}

fn assert_rejects(prog: &Program, kind: ViolationKind, label: &str) {
    let cert = verify_program(prog);
    assert!(
        !cert.is_certified(),
        "{label}: broken program certified clean"
    );
    assert!(
        cert.violations.iter().any(|v| v.kind == kind),
        "{label}: expected a {kind:?} violation, got:\n{}",
        cert.violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// [`assert_rejects`], and the violations of `kind` print exactly
/// `expected` — kind, statement pair, level, loop, dependence vector,
/// detail and fix. The vector is only classified once a violation is
/// being built; this pins that it still names every walked level.
fn assert_rejects_printing(prog: &Program, kind: ViolationKind, expected: &[&str], label: &str) {
    assert_rejects(prog, kind, label);
    let printed: Vec<String> = verify_program(prog)
        .violations
        .iter()
        .filter(|v| v.kind == kind)
        .map(|v| v.to_string())
        .collect();
    assert_eq!(printed, expected, "{label}");
}

const BACKWARD_FIX: &str = "(fix: the composed transformation reverses this dependence at this \
     level; reject the schedule or re-skew the nest)";

/// Row swap: exchanging the two outer rows of the inverse schedule is a
/// loop interchange. jacobi-1d carries `(1, -1)` dependences, so the
/// interchange runs some targets before their sources.
#[test]
fn illegal_interchange_is_rejected() {
    let mut prog = identity_program("jacobi-1d-imper");
    assert!(verify_program(&prog).is_certified(), "baseline must pass");
    mutate_stmts(&mut prog.body, &mut |s| {
        if s.iter_exprs.len() >= 2 {
            s.iter_exprs.swap(0, 1);
        }
    });
    assert_rejects_printing(
        &prog,
        ViolationKind::IllegalOrder,
        &[
            &format!(
                "[illegal-order] S0 -> S1 at level 0 (c1) vector [Const(-1)]: dependence runs \
                 backward at loop `c1` (target precedes source) {BACKWARD_FIX}"
            ),
            "[illegal-order] S1 -> S0 vector [Const(0)]: target occurs textually before source \
             while every shared loop level is tied (fix: reorder the statements or re-run \
             scheduling; the transformed program inverts this dependence)",
            &format!(
                "[illegal-order] S1 -> S0 at level 0 (c1) vector [Const(-1)]: dependence runs \
                 backward at loop `c1` (target precedes source) {BACKWARD_FIX}"
            ),
        ],
        "row swap",
    );
}

/// Reversing the innermost loop of seidel-2d turns its `(0, 0, 1)`
/// dependence backward two levels down: the violation's vector names
/// the two tied levels above the failing one, in order.
#[test]
fn reversed_inner_loop_reports_every_walked_level() {
    let mut prog = identity_program("seidel-2d");
    mutate_stmts(&mut prog.body, &mut |s| {
        s.iter_exprs[2] = s.iter_exprs[2].scale(-1);
    });
    assert_rejects_printing(
        &prog,
        ViolationKind::IllegalOrder,
        &[&format!(
            "[illegal-order] S0 -> S0 at level 2 (c3) vector [Const(0), Const(0), Const(-1)]: \
             dependence runs backward at loop `c3` (target precedes source) {BACKWARD_FIX}"
        )],
        "inner reversal",
    );
}

/// Sign flip: negating the time row of the inverse schedule makes the
/// program sweep time backwards — every `dt >= 1` dependence reverses.
#[test]
fn reversed_time_loop_is_rejected() {
    let mut prog = identity_program("jacobi-1d-imper");
    mutate_stmts(&mut prog.body, &mut |s| {
        s.iter_exprs[0] = s.iter_exprs[0].scale(-1);
    });
    assert_rejects(&prog, ViolationKind::IllegalOrder, "sign flip");
}

/// Bogus reduction: the time loop of a stencil carries ordinary flow
/// dependences, not associative self-updates; annotating it `Reduction`
/// must not discharge them.
#[test]
fn bogus_reduction_annotation_is_rejected() {
    let mut prog = identity_program("jacobi-1d-imper");
    let arrays: Vec<usize> = (0..prog.scop.arrays.len()).collect();
    mark_outermost(&mut prog, Par::Reduction(arrays));
    assert_rejects(&prog, ViolationKind::ReductionUnsafe, "bogus reduction");
}

/// Marks the program's first loop `par`.
fn mark_outermost(prog: &mut Program, par: Par) {
    let mut outer = true;
    prog.body.visit_loops_mut(&mut |l| {
        if outer {
            l.par = par.clone();
            outer = false;
        }
    });
}

/// The identity program of `for i { for j { W[w] op= X[i][j] } }`, or of
/// `for i { W[w] op= X[i][i] }` without `j`; `W` is array 1.
fn accumulation(op: BinOp, w: &[SymAff], two_deep: bool) -> Program {
    let mut b = ScopBuilder::new("acc", &["N"], &[8]);
    let x = b.array("X", &["N", "N"]);
    let acc = b.array("W", &["N", "N"][..w.len()]);
    b.enter("i", con(0), par("N"));
    let j = if two_deep {
        b.enter("j", con(0), par("N"));
        ix("j")
    } else {
        ix("i")
    };
    let rhs = b.rd(x, &[ix("i"), j]);
    b.stmt_update("S", acc, w, op, rhs);
    b.exit();
    if two_deep {
        b.exit();
    }
    let scop = b.finish().expect("well-formed SCoP");
    let identity: Vec<_> = scop.statements.iter().map(|s| s.schedule.clone()).collect();
    polymix_codegen::generate(&scop, &identity).expect("generate")
}

/// trmm's `B[i][j] += A[i][k] * B[j][k]` reads `B` off its own cell. The
/// poly+AST flow used to mark its `c3` loop a reduction that privatizes
/// `B`; a worker's copy is a zeroed whole array, so that read sees zeros
/// where other rows of `B` are. The certifier accepted it (the read
/// never lands on the written cell); the mark's list names `B`, and any
/// access to a listed array but the additive self-pair is an alias.
#[test]
fn trmm_privatizing_the_array_it_reads_is_rejected() {
    let k = kernel_by_name("trmm").expect("kernel");
    let mut prog = optimize_poly_ast(&(k.build)(), &PolyAstOptions::default()).expect("optimize");
    assert!(verify_program(&prog).is_certified(), "baseline must pass");
    let mut forged = 0;
    prog.body.visit_loops_mut(&mut |l| {
        if l.name == "c3" {
            l.par = Par::Reduction(vec![1]);
            forged += 1;
        }
    });
    assert_eq!(forged, 1, "trmm lost its c3 loop");
    assert_rejects(&prog, ViolationKind::ReductionAccumulatorAliased, "trmm privatizing B");
}

/// `Y[i + j] += X[i][j]` carries its update at `i`. A reduction mark on
/// `i` that does not privatize `Y` would have the workers race on it.
#[test]
fn a_reduction_that_omits_its_accumulator_is_rejected() {
    let mut prog = accumulation(BinOp::Add, &[ix("i") + ix("j")], true);
    mark_outermost(&mut prog, Par::Reduction(vec![1]));
    assert!(verify_program(&prog).is_certified(), "privatizing Y certifies");
    mark_outermost(&mut prog, Par::Reduction(vec![]));
    assert_rejects(&prog, ViolationKind::ReductionUnsafe, "reduction omitting Y");
}

/// `P[0] *= X[i][i]` is a reduction update, but private copies start at
/// zero and are combined by adding them: a product privatized that way
/// leaves `P` as it was. Listed, it is an alias; unlisted, its carried
/// update is unsafe.
#[test]
fn a_multiplicative_reduction_is_rejected() {
    let mut prog = accumulation(BinOp::Mul, &[con(0)], false);
    mark_outermost(&mut prog, Par::Reduction(vec![1]));
    assert_rejects(&prog, ViolationKind::ReductionAccumulatorAliased, "forged *= reduction");
    mark_outermost(&mut prog, Par::Reduction(vec![]));
    assert_rejects(&prog, ViolationKind::ReductionUnsafe, "unlisted *= reduction");
}

/// Annotation forgery: relabeling a certified pipeline loop as doall
/// drops the await cone the carried dependences rely on.
#[test]
fn pipeline_relabeled_doall_is_rejected() {
    let mut prog = poly_ast_program("seidel-2d");
    assert!(verify_program(&prog).is_certified(), "baseline must pass");
    let mut flipped = false;
    prog.body.visit_loops_mut(&mut |l| {
        if !flipped && l.par == Par::Pipeline {
            l.par = Par::Doall;
            flipped = true;
        }
    });
    assert!(flipped, "seidel-2d lost its pipeline loop");
    assert_rejects_printing(
        &prog,
        ViolationKind::DoallCarriesDep,
        &["[doall-carries-dep] S0 -> S0 at level 0 (u0t) vector [Plus]: doall loop `u0t` carries \
           this dependence (fix: demote the loop to sequential, or to reduction/pipeline if the \
           carried dependences qualify)"],
        "forged doall",
    );
}

/// Annotation forgery under reordered point loops: symm's joint nest 1
/// runs `redfor u0t, u1t, u2t { c2, c1, c3: acc[c2][c3] += .. }`, and
/// `c2`'s lower bound `max(1, u0t + 1, u1t)` mentions `u0t` without being
/// its point loop. Relabeled `doall`, `u0t` carries the accumulation over
/// `c1` from tile to tile. A certifier that proxied `u0t` by the first
/// loop mentioning it would read that dependence as tied at `u0t` (same
/// `c2`) and certify the forgery.
#[test]
fn doall_over_a_reordered_tile_is_rejected_through_its_clamped_point_loop() {
    let k = kernel_by_name("symm").expect("kernel");
    let mut prog = optimize_poly_ast(&(k.build)(), &PolyAstOptions::default()).expect("optimize");
    assert!(prog.tiling[1].reordered, "symm nest 1: {:?}", prog.tiling[1]);
    assert!(verify_program(&prog).is_certified(), "baseline must pass");
    let mut flipped = false;
    prog.body.visit_loops_mut(&mut |l| {
        if l.name == "u0t" && matches!(l.par, Par::Reduction(_)) {
            l.par = Par::Doall;
            flipped = true;
        }
    });
    assert!(flipped, "symm lost its reduction tile loop");
    assert_rejects(&prog, ViolationKind::DoallCarriesDep, "forged doall over reordered tile");
}

/// Emits `prog` for seidel-2d at four threads and checks that the
/// source lints clean while every tampering in `mutations` (a label and
/// a source rewrite) is rejected as a `KernelLint`.
fn assert_lint_rejects_tampering(prog: &Program, mutations: &[(&str, &dyn Fn(&str) -> String)]) {
    let k = kernel_by_name("seidel-2d").expect("kernel");
    let opts = EmitOptions {
        params: k.dataset("mini").params,
        threads: 4,
        ..Default::default()
    };
    let src = emit_rust(prog, &opts);
    let render = |cert: &polymix_verify::Certificate| {
        cert.violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let clean = verify_source("seidel-2d", &src);
    assert!(
        clean.is_certified(),
        "unmutated source must lint clean:\n{}",
        render(&clean)
    );
    for (label, mutate) in mutations {
        let broken = mutate(&src);
        assert_ne!(broken, src, "{label}: mutation did not apply");
        let cert = verify_source("seidel-2d", &broken);
        assert!(
            cert.violations
                .iter()
                .any(|v| v.kind == ViolationKind::KernelLint),
            "{label}: expected a KernelLint violation, got:\n{}",
            render(&cert)
        );
    }
}

/// The synchronization of an emitted pipeline kernel lives in the pasted
/// `kernel_rt` block; the source lint must reject every way of getting
/// around it: editing the block (a dropped await, a raw progress store,
/// an uncontained worker are all edits of it), threading or atomics of
/// the kernel's own, a region handed to the wrong entry point, and a
/// block that is cut short or missing.
#[test]
fn tampered_pipeline_kernel_is_rejected_by_source_lint() {
    let end = "// polymix kernel_rt end\n";
    assert_lint_rejects_tampering(
        &poly_ast_program("seidel-2d"),
        &[
            ("dropped await", &|s| {
                s.lines()
                    .filter(|l| !l.contains("wait(&progress[t - 1]"))
                    .collect::<Vec<_>>()
                    .join("\n")
            }),
            ("one byte in the block", &|s| {
                s.replacen("fetch_max(ph, Ordering::AcqRel)", "fetch_max(ph, Ordering::Relaxed)", 1)
            }),
            ("bare spawn", &|s| {
                s.replacen("fn main() {", "fn main() {\nstd::thread::spawn(|| ());", 1)
            }),
            ("raw progress store", &|s| {
                s.replacen(
                    "fn main() {",
                    "fn main() {\nkernel_rt::POISONED.store(false, std::sync::atomic::Ordering::Release);",
                    1,
                )
            }),
            ("pipeline relabeled doall", &|s| {
                s.replacen("kernel_rt::pipeline(", "kernel_rt::doall(", 1)
            }),
            ("missing end marker", &|s| s.replacen(end, "", 1)),
            ("no block at all", &|s| {
                let at = s.find(end).expect("end marker") + end.len();
                s[at..].to_string()
            }),
        ],
    );
}

/// The wavefront tiles of Pluto's seidel-2d come out as a
/// `kernel_rt::wavefront` region that the source lint certifies; handing
/// them to the doall entry point instead (no diagonal order at all) must
/// be flagged.
#[test]
fn tampered_wavefront_kernel_is_rejected_by_source_lint() {
    use polymix_pluto::{optimize_pluto, PlutoOptions};
    let k = kernel_by_name("seidel-2d").expect("kernel");
    let prog = optimize_pluto(&(k.build)(), &PlutoOptions::default()).expect("optimize");
    assert_lint_rejects_tampering(
        &prog,
        &[("wavefront relabeled doall", &|s| {
            s.replacen("kernel_rt::wavefront(", "kernel_rt::doall(", 1)
        })],
    );
}

/// Marks the loop `depth` loops below the root of the program's first
/// nest `jam: f`.
fn jam_loop(prog: &mut Program, depth: usize, f: i64) {
    let mut node = match &mut prog.body {
        Node::Seq(xs) => &mut xs[0],
        other => other,
    };
    for _ in 0..depth {
        let Node::Loop(l) = node else { panic!("no loop at depth {depth}") };
        node = &mut l.body;
    }
    let Node::Loop(l) = node else { panic!("no loop at depth {depth}") };
    l.jam = f;
}

/// seidel-2d reads `A[i-1][j+1]`, written one `i` earlier at a later
/// `j`: jammed by 2, the block runs that target at inner iteration
/// `j - 1`, before its source.
#[test]
fn a_jam_that_runs_a_dependence_backward_below_it_is_rejected() {
    let mut prog = identity_program("seidel-2d");
    assert!(verify_program(&prog).is_certified());
    jam_loop(&mut prog, 1, 2);
    assert_rejects(&prog, ViolationKind::JamUnsafe, "seidel-2d i jammed by 2");
}

/// jacobi-1d-imper's time loop runs `B = f(A)` then `A = B`; jammed by
/// 2, the block runs the first statement for both time steps before the
/// second, so step `t + 1` reads `A` before step `t` wrote it.
#[test]
fn a_jam_that_runs_a_later_statement_first_is_rejected() {
    let mut prog = identity_program("jacobi-1d-imper");
    jam_loop(&mut prog, 0, 2);
    let cert = verify_program(&prog);
    assert!(
        cert.violations.iter().any(|v| v.kind == ViolationKind::JamUnsafe
            && v.detail.contains("target's statement comes first")),
        "{:?}",
        cert.violations
    );
}

/// A jam no dependence crosses certifies: gemm's outer `i` loop, whose
/// instances 1 to 3 apart touch distinct rows of `C`.
#[test]
fn a_jam_no_dependence_crosses_is_certified() {
    let mut prog = identity_program("gemm");
    jam_loop(&mut prog, 0, 4);
    let cert = verify_program(&prog);
    assert!(cert.is_certified(), "{:?}", cert.violations);
}

/// adi's row sweep updates `X[i1][i2]` from `B[i1][i2 - 1]` (S0), then
/// `B[i1][i2]` (S1). In `pocc`'s tree both sit under the innermost `c3`,
/// the one innermost loop of `pocc+vect`'s (2, 2) that register tiling
/// leaves unjammed: jammed by 2, the block runs S0 at `c3 + 1` before S1
/// at `c3` wrote the `B` it reads.
#[test]
fn a_forged_jam_on_adi_s_row_sweep_is_rejected() {
    use polymix_pluto::{optimize_pluto, PlutoOptions};
    let k = kernel_by_name("adi").expect("kernel");
    let mut prog = optimize_pluto(&(k.build)(), &PlutoOptions::default()).expect("optimize");
    assert!(verify_program(&prog).is_certified());
    let mut forged = false;
    prog.body.visit_loops_mut(&mut |l| {
        if !forged && l.name == "c3" {
            l.jam = 2;
            forged = true;
        }
    });
    assert!(forged, "no c3 loop in adi pocc");
    let cert = verify_program(&prog);
    assert!(
        cert.violations
            .iter()
            .any(|v| v.kind == ViolationKind::JamUnsafe
                && v.detail.contains("target's statement comes first")),
        "{:?}",
        cert.violations
    );
}

/// The `(name, jam)` of every jammed loop of `prog`, in pre-order.
fn jams(prog: &Program) -> Vec<(String, i64)> {
    let mut out = Vec::new();
    prog.body.visit_loops(&mut |l| {
        if l.jam > 1 {
            out.push((l.name.clone(), l.jam));
        }
    });
    out
}

/// The flow's own register tiles certify: gemm's row loop `c1` and
/// vector loop `c3` jammed together by 2 around the reduction loop `c2`,
/// and correlation's `c1`, whose sum runs around every tile sweep of
/// `symmat`, jammed by 4.
#[test]
fn the_selected_register_tile_and_tile_wide_chain_jams_certify() {
    for (name, want) in [("gemm", vec![("c1", 2), ("c3", 2)]), ("correlation", vec![("c1", 4)])] {
        let k = kernel_by_name(name).expect("kernel");
        let prog = optimize_poly_ast(&(k.build)(), &PolyAstOptions::default()).expect("optimize");
        let want: Vec<(String, i64)> = want.into_iter().map(|(n, f)| (n.to_string(), f)).collect();
        assert_eq!(jams(&prog), want, "{name}");
        let cert = verify_program(&prog);
        assert!(cert.is_certified(), "{name}: {:?}", cert.violations);
    }
}

/// adi's time loop `c1` leaves the last sweep's write `X[c2][c3]`
/// invariant while `c2` moves it, so the selection asks for a tile-wide
/// chain jam of it. The selection refuses it: each sweep's anti-dependence
/// (`X[i1][i2 - 1]` read before the next step rewrites it) and the next
/// step's first sweeps, which read what this step's later sweeps wrote,
/// would run backward inside a block. Forged by 4, the certifier rejects
/// it too.
#[test]
fn a_forged_chain_jam_of_adi_s_time_loop_is_rejected() {
    let mut prog = poly_ast_program("adi");
    assert_eq!(jams(&prog), []);
    assert!(verify_program(&prog).is_certified());
    jam_loop(&mut prog, 0, 4);
    assert_eq!(jams(&prog), [("c1".to_string(), 4)]);
    assert_rejects(&prog, ViolationKind::JamUnsafe, "adi c1 jammed by 4");
}

/// The children of the one nest's root loop, as the poly+AST flow emits
/// cholesky (`S0; c2: S1; c2: S3, k: S4; S2; c2: S5`) and lu (`c2: S1;
/// c2: S0`).
fn root_body(prog: &mut Program) -> &mut Vec<Node> {
    let Node::Loop(l) = &mut prog.body else { panic!("one nest") };
    let Node::Seq(xs) = &mut l.body else { panic!("a sequence under c1") };
    xs
}

/// Guard separation splits lu's fused `c2` at `c1` into the piece of the
/// `S1` updates and that of the `S0` divisions, which read what the
/// updates of the same `c1` wrote: forged into reverse order, the pieces
/// are rejected. cholesky's two pieces under one `c1` share no dependence
/// (`S1` updates `tmpd`, `S3` and `S4` write `tmpo`, all read `A` only),
/// so their order is free and the reversed tree certifies; moving the
/// `S1` piece after `S2`, which reads `tmpd`, is rejected.
#[test]
fn split_pieces_forged_into_another_order_are_rejected_where_a_dependence_crosses() {
    let build = |name: &str| {
        let k = kernel_by_name(name).expect("kernel");
        optimize_poly_ast(&(k.build)(), &PolyAstOptions::default()).expect("optimize")
    };
    let mut lu = build("lu");
    assert!(verify_program(&lu).is_certified());
    root_body(&mut lu).swap(0, 1);
    assert_rejects(&lu, ViolationKind::IllegalOrder, "lu's c2 pieces reversed");
    let cholesky = build("cholesky");
    assert_eq!(jams(&cholesky), [("c2".to_string(), 4)]);
    let mut reversed = cholesky.clone();
    root_body(&mut reversed).swap(1, 2);
    let cert = verify_program(&reversed);
    assert!(cert.is_certified(), "{:?}", cert.violations);
    let mut late = cholesky;
    root_body(&mut late).swap(1, 3);
    assert_rejects(&late, ViolationKind::IllegalOrder, "cholesky's S1 piece after S2");
}

/// Before guard separation, cholesky's fused `c2` runs `S3` and the `k`
/// loop of `S4` under a guard `c2 ≥ ..` and `S1` under `c2 ≤ ..`. The
/// selection refuses to jam it: the replicas of a jammed loop must run the
/// same inner iterations, so no guard or bound below it may mention it.
#[test]
fn a_jam_of_cholesky_s_unsplit_c2_is_refused() {
    use polymix_codegen::opt::{jam_nest, loop_levels, nest_infos};
    fn mentioned(node: &Node, var: usize) -> bool {
        match node {
            Node::Seq(xs) => xs.iter().any(|x| mentioned(x, var)),
            Node::Guard(gs, b) => gs.iter().any(|g| g.coeff_of(var) != 0) || mentioned(b, var),
            Node::Loop(l) => mentioned(&l.body, var),
            Node::Stmt(_) => false,
        }
    }
    let k = kernel_by_name("cholesky").expect("kernel");
    let scop = (k.build)();
    let schedules = polymix_core::affine_stage(&scop, &polymix_dl::Machine::nehalem()).expect("affine stage");
    let prog = polymix_codegen::generate(&scop, &schedules).expect("generate");
    let mut guarded = false;
    prog.body.visit_loops(&mut |l| guarded |= l.name == "c2" && mentioned(&l.body, l.var));
    assert!(guarded, "a guard below c2 mentions it");
    let podg = polymix_deps::build_podg(&scop);
    let [info] = &nest_infos(&scop, &schedules, &podg, &prog)[..] else { panic!("one nest") };
    let mut selected = prog.body.clone();
    jam_nest(&scop, &mut selected, &info.deps, &loop_levels(&prog.body), 4);
    assert_eq!(jams(&prog.with_body(selected)), []);
}
