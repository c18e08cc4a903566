//! # polymix-verify — static legality & race certifier
//!
//! An independent end-of-pipeline auditor for transformed programs and
//! the parallel kernels emitted from them. Unlike the scheduler's
//! incremental legality bookkeeping ([`polymix_deps::DepState`]), which
//! tracks transformations as they are applied, this crate re-derives
//! everything from final artifacts only:
//!
//! 1. **Schedule legality** — the dependence relation is rebuilt from the
//!    SCoP ([`polymix_deps::build_podg`]) and every dependence is checked
//!    against the *transformed* AST: the statement instances'
//!    `iter_exprs` are inverted back into schedule rows and each
//!    (dependence, occurrence pair) is walked down the common loop nest
//!    with Fourier–Motzkin emptiness queries on violation polyhedra.
//! 2. **Parallel-annotation safety** — `doall` loops must carry nothing;
//!    `reduction` loops only additive self-updates of the arrays the mark
//!    privatizes, which nothing else under the loop touches; `pipeline`
//!    carried dependences must be covered by the await cone
//!    `{(-1, 0), (0, -1)}`; `wavefront` pairs must order every dependence
//!    forward across diagonals and race-free within them.
//!    A loop marked `jam: f` gets its own proof: the pairs 1 to `f - 1`
//!    apart in it that the unroll-and-jam puts in one block must not run
//!    backward below it (`PairWalk::run_jams`).
//! 3. **Emitted-kernel audit** — a structural lint over the Rust source
//!    produced by `polymix-codegen`, checking the progress/poison
//!    protocol (see [`lint`]).
//!
//! Failures come back as structured [`Violation`]s (kind, statement
//! pair, dependence vector, loop level, suggested fix) collected in a
//! [`Certificate`]; [`certify`] turns an uncertified program into a
//! [`polymix_ir::PolymixError`] for pipeline use. The certifier never
//! panics on unexpected shapes: anything outside its model is reported
//! as [`ViolationKind::Unsupported`], which limits coverage but does not
//! fail certification.

mod occurrence;
mod walk;

pub mod lint;
pub mod violation;
pub mod vmcert;

pub use lint::verify_source;
pub use vmcert::bytecode_certificate;
pub use violation::{Certificate, Violation, ViolationKind};

/// Cache-admission gate for the optimization service: an artifact may
/// only enter a replay cache — where one bad entry would be served to
/// every future structurally identical request — if the transformed
/// program certifies (schedule legality + annotation safety) **and**
/// the emitted source passes the kernel protocol lint. Stricter than
/// the debug-build [`certify`] hook, which only sees the program.
pub fn certify_for_cache(
    prog: &Program,
    kernel: &str,
    emitted: &str,
) -> Result<Certificate, PolymixError> {
    let cert = verify_program(prog).into_result()?;
    lint::verify_source(kernel, emitted).into_result()?;
    Ok(cert)
}

use occurrence::{LoopMeta, Occurrence, PStep};
use polymix_ast::parallel::additive_self_pair;
use polymix_ast::tree::{Par, Program};
use polymix_deps::build_podg;
use polymix_ir::{PolymixError, Scop};
use std::collections::{BTreeMap, HashSet};
use walk::PairWalk;

/// Re-derives the dependence relation of `prog.scop` and certifies that
/// the transformed loop tree (a) executes every dependence source before
/// its target and (b) carries only safe dependences at each parallel
/// annotation. Never panics; unmodeled shapes surface as
/// [`ViolationKind::Unsupported`].
pub fn verify_program(prog: &Program) -> Certificate {
    let _memo = polymix_math::memo::scope();
    let scop = &prog.scop;
    let podg = build_podg(scop);
    let occs = occurrence::collect(prog, scop.n_params());
    let mut by_stmt: Vec<Vec<usize>> = vec![Vec::new(); scop.statements.len()];
    for (k, o) in occs.iter().enumerate() {
        if let Some(slot) = by_stmt.get_mut(o.stmt) {
            slot.push(k);
        }
    }
    let sample = &scop.default_params;
    let mut violations = Vec::new();
    let mut pairs = 0usize;
    for dep in &podg.deps {
        let (Some(ss), Some(ds)) = (by_stmt.get(dep.src.0), by_stmt.get(dep.dst.0)) else {
            continue;
        };
        for &si in ss {
            for &di in ds {
                pairs += 1;
                let (occ_s, occ_d) = (&occs[si], &occs[di]);
                PairWalk::new(scop, dep, occ_s, occ_d, sample).run(&mut violations);
                if occ_s.jams().any(|j| occ_d.jams().any(|k| k == j)) {
                    PairWalk::new(scop, dep, occ_s, occ_d, sample).run_jams(&mut violations);
                }
            }
        }
    }
    reduction_alias_pass(scop, &occs, &mut violations);
    dedup(&mut violations);
    Certificate {
        kernel: scop.name.clone(),
        deps_checked: podg.deps.len(),
        pairs_checked: pairs,
        violations,
    }
}

/// [`verify_program`] plus error conversion: the pipeline's mandatory
/// debug-mode certification stage.
pub fn certify(prog: &Program) -> Result<Certificate, PolymixError> {
    verify_program(prog).into_result()
}

/// Drops repeated findings (same kind, statement pair, level and loop)
/// and orders errors before [`ViolationKind::Unsupported`] notes.
fn dedup(violations: &mut Vec<Violation>) {
    let mut seen = HashSet::new();
    violations.retain(|v| {
        seen.insert((
            v.kind,
            v.src.clone(),
            v.dst.clone(),
            v.level,
            v.loop_name.clone(),
        ))
    });
    violations.sort_by_key(|v| !v.kind.is_error());
}

/// The syntactic half of the reduction certificate: inside each
/// `reduction` loop, every access to an array the mark lists must be the
/// self-pair of an additive update (`polymix_ast::parallel::
/// additive_self_pair`). The emitter gives each worker zeroed private
/// copies of those arrays and sums them into the shared ones after the
/// join, so any other access would observe or clobber partial sums, and
/// an update by another operator would be combined wrongly.
fn reduction_alias_pass(scop: &Scop, occs: &[Occurrence], out: &mut Vec<Violation>) {
    // Reduction loops by the pre-order id `occurrence::collect` gave
    // them, each with its nesting depth and the occurrences under it.
    let mut loops: BTreeMap<usize, (&LoopMeta, usize, Vec<&Occurrence>)> = BTreeMap::new();
    for o in occs {
        let enclosing = o.path.iter().filter_map(|s| match s {
            PStep::Loop(l) => Some(l),
            _ => None,
        });
        for (depth, l) in enclosing.enumerate() {
            if matches!(l.par, Par::Reduction(_)) {
                let entry = loops.entry(l.id).or_insert((l, depth, Vec::new()));
                entry.2.push(o);
            }
        }
    }
    for (l, depth, members) in loops.into_values() {
        let Par::Reduction(reduced) = &l.par else { continue };
        let loop_name = &l.name;
        for o in &members {
            let Some(stmt) = scop.statements.get(o.stmt) else {
                continue;
            };
            for (acc, is_write) in stmt.accesses() {
                if !reduced.contains(&acc.array.0) || additive_self_pair(stmt, &acc) {
                    continue;
                }
                let arr = scop
                    .arrays
                    .get(acc.array.0)
                    .map(|a| a.name.clone())
                    .unwrap_or_else(|| format!("arr{}", acc.array.0));
                out.push(Violation {
                    kind: ViolationKind::ReductionAccumulatorAliased,
                    src: stmt.name.clone(),
                    dst: stmt.name.clone(),
                    vector: Vec::new(),
                    level: depth,
                    loop_name: loop_name.clone(),
                    detail: format!(
                        "accumulator `{arr}` of reduction loop `{loop_name}` is {} by `{}` \
                         other than by an additive self-update",
                        if is_write { "written" } else { "read" },
                        stmt.name
                    ),
                    fix: "privatization would expose partial sums; demote the loop to \
                          sequential or split the conflicting statement out of it"
                        .to_string(),
                });
            }
        }
    }
}
