// proptest-regressions are intentionally not persisted for this fuzz target.
//! Schedule fuzzing: random `2d+1` schedules (signed permutations with
//! retiming and β interleavings) are generated for a two-statement
//! producer/consumer kernel; schedules that pass the legality checker
//! must execute bit-identically to the original program, and schedules
//! that the checker rejects are skipped. This cross-validates the
//! legality machinery against the code generator and interpreter.

use polymix::ast::interp::{alloc_arrays, execute};
use polymix::codegen::from_poly::{generate, original_program};
use polymix::deps::build_podg;
use polymix::deps::legality::schedules_legal_for_dep;
use polymix::ir::builder::{con, ix, par, ScopBuilder};
use polymix::ir::{Expr, Schedule, Scop};
use proptest::prelude::*;

fn kernel() -> Scop {
    // P: B[i][j] = A[i][j] + A[i][j+1];  Q: C[i][j] = B[i][j] * 0.5
    let mut b = ScopBuilder::new("fuzz", &["N"], &[7]);
    // Shifts range over ±2: assuming N ≥ 3 keeps shifted/reversed ranges
    // parametrically comparable, which the union-bound generator needs
    // (the same role PolyBench's own size assumptions play).
    b.assume_params_at_least(3);
    let a = b.array_dims("A", vec![par("N"), par("N") + con(1)]);
    let bb = b.array("B", &["N", "N"]);
    let c = b.array("C", &["N", "N"]);
    b.enter("i", con(0), par("N"));
    b.enter("j", con(0), par("N"));
    let body = Expr::add(
        b.rd(a, &[ix("i"), ix("j")]),
        b.rd(a, &[ix("i"), ix("j") + con(1)]),
    );
    b.stmt("P", bb, &[ix("i"), ix("j")], body);
    b.exit();
    b.exit();
    b.enter("i", con(0), par("N"));
    b.enter("j", con(0), par("N"));
    let body = Expr::mul(b.rd(bb, &[ix("i"), ix("j")]), Expr::Const(0.5));
    b.stmt("Q", c, &[ix("i"), ix("j")], body);
    b.exit();
    b.exit();
    b.finish().expect("well-formed SCoP")
}

/// A random restricted schedule for a 2-D statement.
#[derive(Clone, Debug)]
struct RandSched {
    perm: bool,     // swap the two loops
    rev: [bool; 2], // reverse each level
    shift: [i64; 2],
    beta: [i64; 3],
}

fn sched_strategy() -> impl Strategy<Value = RandSched> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        -2i64..=2,
        -2i64..=2,
        0i64..=1,
        0i64..=1,
        0i64..=1,
    )
        .prop_map(|(perm, r0, r1, s0, s1, b0, b1, b2)| RandSched {
            perm,
            rev: [r0, r1],
            shift: [s0, s1],
            beta: [b0, b1, b2],
        })
}

fn materialize(r: &RandSched, p: usize) -> Schedule {
    let mut s = if r.perm {
        Schedule::from_permutation(&[1, 0], p)
    } else {
        Schedule::from_permutation(&[0, 1], p)
    };
    for k in 0..2 {
        if r.rev[k] {
            s.reverse_level(k);
        }
        s.shift_level(k, &vec![0; p], r.shift[k]);
    }
    s.beta = r.beta.to_vec();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn legal_random_schedules_execute_exactly(rp in sched_strategy(), rq in sched_strategy()) {
        let scop = kernel();
        let podg = build_podg(&scop);
        let sp = materialize(&rp, 1);
        let sq = materialize(&rq, 1);
        let by_stmt = [sp, sq];
        let legal = podg.deps.iter().all(|d| {
            schedules_legal_for_dep(d, &by_stmt[d.src.0], &by_stmt[d.dst.0])
        });
        prop_assume!(legal);
        // The generator's documented contract excludes opposite-direction
        // fusions needing min-of-affine lower bounds; skip inputs it
        // rejects (it returns a typed error rather than emit wrong code).
        let Ok(prog) = generate(&scop, &by_stmt) else {
            return Ok(());
        };

        let n = 7i64;
        let reference = {
            let prog = original_program(&scop).expect("original program");
            let mut arrays = alloc_arrays(&scop, &[n]);
            for (ai, arr) in arrays.iter_mut().enumerate() {
                for (k, x) in arr.iter_mut().enumerate() {
                    *x = ((ai * 11 + k * 3) % 17) as f64;
                }
            }
            execute(&prog, &[n], &mut arrays);
            arrays
        };
        let mut arrays = alloc_arrays(&scop, &[n]);
        for (ai, arr) in arrays.iter_mut().enumerate() {
            for (k, x) in arr.iter_mut().enumerate() {
                *x = ((ai * 11 + k * 3) % 17) as f64;
            }
        }
        execute(&prog, &[n], &mut arrays);
        prop_assert_eq!(&arrays, &reference, "schedules {:?} / {:?}", rp, rq);
    }

    /// Deliberately illegal orderings must be caught by the checker:
    /// running Q strictly before P (β order flipped) breaks the flow
    /// dependence on B.
    #[test]
    fn q_before_p_is_always_rejected(shift in -2i64..=2) {
        let scop = kernel();
        let podg = build_podg(&scop);
        let mut sp = Schedule::from_permutation(&[0, 1], 1);
        sp.beta = vec![1, 0, 0];
        sp.shift_level(0, &[0], shift);
        let mut sq = Schedule::from_permutation(&[0, 1], 1);
        sq.beta = vec![0, 0, 0];
        let by_stmt = [sp, sq];
        let legal = podg.deps.iter().all(|d| {
            schedules_legal_for_dep(d, &by_stmt[d.src.0], &by_stmt[d.dst.0])
        });
        prop_assert!(!legal);
    }
}
