//! The AST stages both optimizers (the Pluto-like baseline and the
//! paper's poly+AST flow) run on each top-level nest of a generated
//! program, and the driver that runs them ([`run_nests`]). Every stage
//! decides from one list, the nest's dependence records with their
//! vectors and carried levels ([`NestInfo`], [`NestDep`]):
//!
//! * extraction of that list, and skewing for tilability (Sec. IV-B);
//! * parallelism marking (Sec. IV-A);
//! * tiling in three forms — joint, chains, sunk ([`tile_nest`], DESIGN
//!   §19) — with the repair of marks a tile loop may not keep;
//! * point-loop order inside each tile ([`order_point_loops`]);
//! * register tiling, a `jam` mark on the loop whose unroll-and-jam breaks
//!   an add chain (at the innermost level or around a whole tile sweep)
//!   or a gather, or on the row and vector loops of a register tile
//!   (Sec. IV-C, [`jam_nest`]), or by request on the outer
//!   loop of each innermost pair and on each innermost loop
//!   ([`register_tile`]).

use polymix_ast::parallel::{outermost_parallel, runnable};
use polymix_ast::transforms::{self, Crossed};
use polymix_ast::tree::{LinExpr, Loop, Node, Par, Program, StmtNode, TileForm, TileReport};
use polymix_deps::{build_podg, dep_records, DepElem, NestDep, Podg};
use polymix_ir::{Schedule, Scop};
use polymix_math::IntMat;
use std::collections::HashMap;
use std::ops::Range;

/// Dependence summary of one top-level loop nest of a generated program.
#[derive(Clone, Debug)]
pub struct NestInfo {
    /// Statement indices (into `scop.statements`) inside the nest.
    pub stmts: Vec<usize>,
    /// Maximum loop depth of the nest.
    pub depth: usize,
    /// The records of the dependence edges internal to the nest, in PoDG
    /// order, with their vectors in the **transformed** loop coordinates.
    pub deps: Vec<NestDep>,
}

/// Runs one optimizer's AST stages over `prog`, the program generated
/// from `schedules`: builds the PoDG, splits the top level into nests,
/// computes each nest's [`NestInfo`] and hands every nest to `stage`,
/// which returns it transformed; the results, in order, become the new
/// body. `stage` gets the program (whose `tiling` record it extends) and
/// the PoDG (skewing recomputes vectors from it).
pub fn run_nests(
    scop: &Scop,
    schedules: &[Schedule],
    prog: &mut Program,
    mut stage: impl FnMut(&mut Program, &Podg, &NestInfo, Node) -> Node,
) {
    let podg = build_podg(scop);
    let tops: Vec<Node> = match std::mem::replace(&mut prog.body, Node::Seq(vec![])) {
        Node::Seq(xs) => xs,
        other => vec![other],
    };
    let infos: Vec<NestInfo> = tops.iter().map(|n| nest_info(scop, schedules, &podg, n)).collect();
    let mut out: Vec<Node> = tops
        .into_iter()
        .zip(&infos)
        .map(|(nest, info)| stage(prog, &podg, info, nest))
        .collect();
    prog.body = match out.len() {
        1 => out.remove(0),
        _ => Node::Seq(out),
    };
}

/// Splits the program's top level into nests and computes each nest's
/// dependence list under the given final schedules.
pub fn nest_infos(scop: &Scop, schedules: &[Schedule], podg: &Podg, prog: &Program) -> Vec<NestInfo> {
    match &prog.body {
        Node::Seq(xs) => xs.iter().map(|n| nest_info(scop, schedules, podg, n)).collect(),
        other => vec![nest_info(scop, schedules, podg, other)],
    }
}

fn nest_info(scop: &Scop, schedules: &[Schedule], podg: &Podg, nest: &Node) -> NestInfo {
    let (stmts, depth) = (stmts_of(nest), node_depth(nest));
    let deps = nest_deps(scop, schedules, podg, &stmts, &IntMat::identity(depth));
    NestInfo { stmts, depth, deps }
}

/// The dependence list of the nest of `stmts`: the records of each edge
/// with both ends in it ([`dep_records`]), each vector taken under the
/// schedules composed with the row transform `cmat`.
fn nest_deps(scop: &Scop, schedules: &[Schedule], podg: &Podg, stmts: &[usize], cmat: &IntMat) -> Vec<NestDep> {
    podg.deps
        .iter()
        .filter(|d| stmts.contains(&d.src.0) && stmts.contains(&d.dst.0))
        .flat_map(|d| dep_records(d, &schedules[d.src.0], &schedules[d.dst.0], cmat, &scop.default_params))
        .collect()
}

/// Maximum loop depth below `node` (counting nested loops on any path).
pub fn node_depth(node: &Node) -> usize {
    match node {
        Node::Seq(xs) => xs.iter().map(node_depth).max().unwrap_or(0),
        Node::Guard(_, b) => node_depth(b),
        Node::Loop(l) => 1 + node_depth(&l.body),
        Node::Stmt(_) => 0,
    }
}

/// Applies loop skewing so every dependence-vector element of the nest
/// `info` describes becomes non-negative where possible (the
/// preprocessing loop tiling requires, Sec. IV-B). The search walks
/// levels outermost-in; for a level with negative elements it tries skew
/// factors `f ∈ 1..=4` against each outer pivot level, *recomputing the
/// vectors exactly* from the dependence polyhedra after each tentative
/// skew (abstract updates lose too much precision for direction-vector
/// pivots). Returns the nest's dependence list with the records of the
/// skewed loops, or `None` when some negative element cannot be repaired.
///
/// The tree rewrite skews *every* loop at level `k` of the nest by the
/// variable of its enclosing level-`j` loop.
pub fn skew_nest_for_tilability(
    nest: &mut Node,
    scop: &Scop,
    schedules: &[Schedule],
    podg: &Podg,
    info: &NestInfo,
) -> Option<Vec<NestDep>> {
    let depth = info.depth;
    // Current row-combination matrix (identity = no skew yet).
    let mut cmat = IntMat::identity(depth);
    let mut deps = info.deps.clone();
    let bad_at = |deps: &[NestDep], k: usize| -> usize {
        deps.iter()
            .filter(|d| d.vector[..k].iter().all(|e| e.is_nonneg()) && d.at(k).may_be_negative())
            .count()
    };
    for k in 1..depth {
        let mut guard = 0;
        while bad_at(&deps, k) > 0 {
            guard += 1;
            if guard > depth * 4 {
                return None;
            }
            let mut fixed = false;
            'search: for j in (0..k).rev() {
                for f in 1..=4i64 {
                    let mut trial = cmat.clone();
                    for idx in 0..depth {
                        trial[(k, idx)] += f * cmat[(j, idx)];
                    }
                    let td = nest_deps(scop, schedules, podg, &info.stmts, &trial);
                    // Accept when this strictly reduces the bad count at k
                    // without breaking outer levels.
                    let outer_ok = (0..k).all(|m| bad_at(&td, m) == 0);
                    if outer_ok && bad_at(&td, k) < bad_at(&deps, k) {
                        apply_skew_at(nest, k, j, f)?;
                        cmat = trial;
                        deps = td;
                        fixed = true;
                        break 'search;
                    }
                }
            }
            if !fixed {
                return None;
            }
        }
    }
    Some(deps)
}

/// Skews every level-`k` loop of the nest by `factor ×` the variable of
/// its enclosing level-`j` loop. Returns `None` if the structure has no
/// loop at those levels.
fn apply_skew_at(node: &mut Node, k: usize, j: usize, factor: i64) -> Option<()> {
    // Collect (outer_var at level j, inner loop var at level k) pairs.
    fn walk(node: &mut Node, level: usize, j: usize, k: usize, outer: Option<usize>, out: &mut Vec<(usize, usize)>) {
        match node {
            Node::Seq(xs) => xs
                .iter_mut()
                .for_each(|x| walk(x, level, j, k, outer, out)),
            Node::Guard(_, b) => walk(b, level, j, k, outer, out),
            Node::Loop(l) => {
                let outer = if level == j { Some(l.var) } else { outer };
                if level == k {
                    if let Some(o) = outer {
                        out.push((o, l.var));
                    }
                } else {
                    walk(&mut l.body, level + 1, j, k, outer, out);
                }
            }
            Node::Stmt(_) => {}
        }
    }
    let mut pairs = Vec::new();
    walk(node, 0, j, k, None, &mut pairs);
    if pairs.is_empty() {
        return None;
    }
    for (outer, inner) in pairs {
        transforms::skew(node, inner, outer, factor);
    }
    Some(())
}

/// Marks the outermost parallel level of the nest (Sec. IV-A strategy:
/// "always use the loop parallelism at the outermost possible level
/// regardless of kind"). When `doall_only` is set, only [`Par::Doall`]
/// levels are considered (the comparison mode of Fig. 5).
/// Returns the chosen `(level, annotation)`.
///
/// A level whose loops the emitter cannot run as the region its vectors
/// allow ([`runnable`]) leaves the whole nest unmarked: a level further in
/// would start its threads once per step of the loops above it.
pub fn mark_parallelism(
    scop: &Scop,
    nest: &mut Node,
    deps: &[NestDep],
    depth: usize,
    doall_only: bool,
) -> Option<(usize, Par)> {
    let (level, par) = outermost_parallel(deps, depth, doall_only)?;
    let mut ok = true;
    at_level(nest, level, &mut |l| ok &= runnable(scop, l, &par));
    if !ok {
        return None;
    }
    at_level(nest, level, &mut |l| l.par = par.clone());
    Some((level, par))
}

/// Visits the loops `level` loops deep in `node`.
fn at_level(node: &mut Node, level: usize, f: &mut impl FnMut(&mut Loop)) {
    match node {
        Node::Seq(xs) => xs.iter_mut().for_each(|x| at_level(x, level, f)),
        Node::Guard(_, b) => at_level(b, level, f),
        Node::Loop(l) if level == 0 => f(l),
        Node::Loop(l) => at_level(&mut l.body, level - 1, f),
        Node::Stmt(_) => {}
    }
}

/// Loop variable → nest level of every loop of `nest` as it stands: its
/// depth below the nest root, the level of its component in the nest's
/// records. Taken before tiling: a loop keeps its variable through
/// strip-mining, distribution and interchange, so after them the map
/// still names the record level of every step-1 loop; tile loops are new
/// variables and absent.
pub fn loop_levels(nest: &Node) -> HashMap<usize, usize> {
    fn walk(node: &Node, level: usize, out: &mut HashMap<usize, usize>) {
        match node {
            Node::Seq(xs) => xs.iter().for_each(|x| walk(x, level, out)),
            Node::Guard(_, b) => walk(b, level, out),
            Node::Loop(l) => {
                out.insert(l.var, level);
                walk(&l.body, level + 1, out);
            }
            Node::Stmt(_) => {}
        }
    }
    let mut out = HashMap::new();
    walk(nest, 0, &mut out);
    out
}

/// Variables that several loops of `node` share: the copies of a point
/// loop [`tile_nest`]'s sunk form distributed. [`register_tile`] leaves
/// them unjammed, which keeps `pocc+vect`'s jams on the loops its
/// register tiling has always covered (DESIGN §19, "Why marks survive").
/// Most copies would pass [`jam_ok`]; jamming them is a separate change,
/// to be measured.
fn distributed_vars(node: &Node) -> Vec<usize> {
    let mut vars: Vec<usize> = Vec::new();
    node.visit_loops(&mut |l| vars.push(l.var));
    vars.iter()
        .filter(|v| vars.iter().filter(|w| w == v).count() > 1)
        .copied()
        .collect()
}

/// Register tiling by request (Sec. IV-C): marks the outer loop of every
/// innermost perfect pair `jam: outer_factor` and every innermost loop
/// `jam: inner_factor`, each where [`jam_ok`] allows it; a factor of 1
/// marks nothing. The emitter realizes a jam inside a jam as the
/// product of both (DESIGN §19). `levels` is [`loop_levels`] of the nest
/// before tiling. The copies of a distributed point loop get no jam
/// ([`distributed_vars`]).
pub fn register_tile(
    node: &mut Node,
    (outer_factor, inner_factor): (i64, i64),
    deps: &[NestDep],
    levels: &HashMap<usize, usize>,
) {
    let copies = distributed_vars(node);
    register_tile_in(node, (outer_factor, inner_factor), deps, levels, &copies);
}

fn register_tile_in(
    node: &mut Node,
    factors: (i64, i64),
    deps: &[NestDep],
    levels: &HashMap<usize, usize>,
    copies: &[usize],
) {
    match node {
        Node::Seq(xs) => xs
            .iter_mut()
            .for_each(|x| register_tile_in(x, factors, deps, levels, copies)),
        Node::Guard(_, b) => register_tile_in(b, factors, deps, levels, copies),
        Node::Loop(l) => {
            let f = match &l.body {
                Node::Loop(inner) if node_depth(&inner.body) == 0 => factors.0,
                body if node_depth(body) == 0 => factors.1,
                _ => 1,
            };
            if f > 1 && !copies.contains(&l.var) && jam_ok(l, f, deps, levels) {
                l.jam = f;
            }
            register_tile_in(&mut l.body, factors, deps, levels, copies);
        }
        Node::Stmt(_) => {}
    }
}

/// Register tiling the poly+AST flow chooses itself (Sec. IV-C, DESIGN
/// §19 "Register tiling is a mark"): for every innermost loop V whose body
/// holds statements only, the jams that break what binds it. A statement
/// of the body is
///
/// * **chain-bound** when it updates an element V does not move: its sum
///   is one chain of dependent adds, which the vector unit cannot split
///   without reassociating;
/// * **gather-bound** when a read's last subscript is fixed along V and
///   another subscript moves with it: every vector load is a gather.
///
/// For the first such statement, the loop jammed (J) is the nearest
/// enclosing one its write mentions; it must have step 1 (a tile loop
/// never does) and leave a gathered read invariant. It may be one copy of
/// a distributed point loop: the mark leaves its step alone, so the copies
/// still agree on where a tile's iterations sit. Where no statement is
/// either, V is a vector loop (step 1, the write's last subscript moving
/// with it), and the first updating statement picks one of two bindings:
///
/// * **register tile**: exactly one loop J above V also moves the write,
///   and a step-1 loop between them leaves it invariant (gemm's `C[i][j]`
///   under `i`, `k`, `j`). That loop carries the sum, so the `J × V`
///   accumulators stay in registers across it; J must leave a read
///   invariant (`B[k][j]`), which each replica of J then shares. J and V
///   are jammed together, the factor split evenly between them, V taking
///   the larger half;
/// * **tile-wide chain**: the nearest step-1 loop C above V that leaves
///   the write invariant while a loop between them moves it
///   (correlation's `symmat[j1][j2]`, summed along `i` around a whole tile
///   sweep). C is jammed, and each visit to a tile applies the updates of
///   `f` values of C.
///
/// The factor `f` is the largest power of two with `f ×` (statements of
/// the body) at most the FP add latency `latency`: enough independent
/// sums to keep the adder busy, no more; a register tile needs `f ≥ 4`.
/// Every jam must pass [`jam_ok`]; a binding's jams are set together or
/// not at all, one per loop (the first asked for), and none inside
/// another jam but its own binding's. `levels` is [`loop_levels`] of the
/// nest before tiling.
pub fn jam_nest(
    scop: &Scop,
    nest: &mut Node,
    deps: &[NestDep],
    levels: &HashMap<usize, usize>,
    latency: usize,
) {
    let mut picks: Vec<Jams> = Vec::new();
    pick_jams(scop, nest, &mut Vec::new(), &mut 0, latency, &mut picks);
    for pick in picks {
        let mut free = true;
        for &(id, f) in &pick {
            at_position(nest, id, false, &mut 0, &mut |l, under_jam| {
                let mut inner_jam = false;
                l.body.visit_loops(&mut |i| inner_jam |= i.jam > 1);
                free &= l.jam == 1 && !under_jam && !inner_jam && jam_ok(l, f, deps, levels);
            });
        }
        if free {
            for &(id, f) in &pick {
                at_position(nest, id, false, &mut 0, &mut |l, _| l.jam = f);
            }
        }
    }
}

/// One binding's jams, outermost first: each loop's pre-order position
/// among the nest's loops and its factor.
type Jams = Vec<(usize, i64)>;

/// Appends to `picks` the jams each innermost loop below `node` asks for
/// (copies of a distributed loop share a variable, not a position);
/// `above` holds the loops enclosing `node` with their positions,
/// outermost first.
fn pick_jams<'a>(
    scop: &Scop,
    node: &'a Node,
    above: &mut Vec<(usize, &'a Loop)>,
    next: &mut usize,
    latency: usize,
    picks: &mut Vec<Jams>,
) {
    match node {
        Node::Seq(xs) => xs.iter().for_each(|x| pick_jams(scop, x, above, next, latency, picks)),
        Node::Guard(_, b) => pick_jams(scop, b, above, next, latency, picks),
        Node::Stmt(_) => {}
        Node::Loop(l) => {
            *next += 1;
            let body: Option<Vec<&StmtNode>> = match &l.body {
                Node::Stmt(s) => Some(vec![s]),
                Node::Seq(xs) => xs
                    .iter()
                    .map(|x| match x {
                        Node::Stmt(s) => Some(s),
                        _ => None,
                    })
                    .collect(),
                _ => None,
            };
            let Some(body) = body else {
                above.push((*next - 1, l));
                pick_jams(scop, &l.body, above, next, latency, picks);
                above.pop();
                return;
            };
            let most = (latency / body.len()) as i64;
            let f = if most >= 2 { 1 << most.ilog2() } else { return };
            let (bound, vector): (Vec<_>, Vec<_>) = body
                .iter()
                .map(|s| stmt_jams(scop, s, (*next - 1, l), above, f))
                .unzip();
            picks.extend(bound.into_iter().chain(vector).flatten().next());
        }
    }
}

/// The jams statement `s` under the innermost loop `v` asks for, as
/// [`jam_nest`] defines them: the one that breaks its chain or gather,
/// and the register tile or tile-wide chain jam of a vector loop.
fn stmt_jams(
    scop: &Scop,
    s: &StmtNode,
    (vid, v): (usize, &Loop),
    above: &[(usize, &Loop)],
    f: i64,
) -> (Option<Jams>, Option<Jams>) {
    let stmt = &scop.statements[s.stmt_idx];
    let moves = |map: &[Vec<i64>], var: usize| s.subscript_coeffs(map, &[var]).iter().any(|row| row[0] != 0);
    let moves_last =
        |map: &[Vec<i64>], var: usize| map.last().is_some_and(|last| moves(std::slice::from_ref(last), var));
    let write = &stmt.write;
    let reads: Vec<_> = stmt.accesses().into_iter().filter(|(_, w)| !w).map(|(a, _)| a).collect();
    let update = reads.contains(write);
    let chain = !moves(&write.map, v.var) && update;
    let gathered = reads.iter().find(|a| !moves_last(&a.map, v.var) && moves(&a.map, v.var));
    if chain || gathered.is_some() {
        let j = above.iter().rev().find(|(_, j)| moves(&write.map, j.var));
        let fits = |j: &Loop| j.step == 1 && gathered.is_none_or(|a| !moves(&a.map, j.var));
        return (j.filter(|(_, j)| fits(j)).map(|&(id, _)| vec![(id, f)]), None);
    }
    if v.step != 1 || !moves_last(&write.map, v.var) || !update {
        return (None, None);
    }
    // A vector loop: first the register tile, then the tile-wide chain.
    let movers: Vec<usize> = (0..above.len()).filter(|&k| moves(&write.map, above[k].1.var)).collect();
    if let [k] = movers[..] {
        let (jid, j) = above[k];
        let carried = above[k + 1..].iter().any(|(_, c)| c.step == 1);
        if f >= 4 && carried && j.step == 1 && reads.iter().any(|a| !moves(&a.map, j.var)) {
            let split = 1 << (f.ilog2() / 2);
            return (None, Some(vec![(jid, split), (vid, f / split)]));
        }
    }
    let sweep = (0..above.len())
        .rev()
        .find(|&k| above[k].1.step == 1 && !movers.contains(&k) && movers.iter().any(|&m| m > k));
    (None, sweep.map(|k| vec![(above[k].0, f)]))
}

/// Calls `visit` on the loop at pre-order position `id` (counting from
/// `*next`), with whether a loop above it is jammed.
fn at_position(
    node: &mut Node,
    id: usize,
    under_jam: bool,
    next: &mut usize,
    visit: &mut impl FnMut(&mut Loop, bool),
) {
    match node {
        Node::Seq(xs) => xs.iter_mut().for_each(|x| at_position(x, id, under_jam, next, visit)),
        Node::Guard(_, b) => at_position(b, id, under_jam, next, visit),
        Node::Stmt(_) => {}
        Node::Loop(l) => {
            *next += 1;
            if *next - 1 == id {
                return visit(l, under_jam);
            }
            at_position(&mut l.body, id, under_jam || l.jam > 1, next, visit);
        }
    }
}

/// Whether `j` may be jammed by `f`: a step-1 loop of known level whose
/// body's loop bounds and guards do not mention it (each replica then
/// runs the same inner iterations), and whose records allow it.
///
/// The jammed order runs the body once per block of `f` consecutive
/// values of J, each statement replicated in place for the block's
/// values, so two instances whose J values differ by 1 to `f - 1` may
/// meet in one block: their order is then that of their positions in
/// the body and their inner iterations, and only on a tie that of J.
/// Every record still [open](NestDep::open_in) at J's level whose J
/// component may take such a value must therefore be non-negative on
/// every deeper level and run from a statement to itself or to a later
/// one: then no deeper loop and no position puts the target first (a
/// positive deeper component alone would not do — it may compare two
/// sibling loops, which run one after the other). Reduction self-updates
/// are records like any other: their sums keep their order and their
/// bits.
fn jam_ok(j: &Loop, f: i64, deps: &[NestDep], levels: &HashMap<usize, usize>) -> bool {
    let Some(&level) = levels.get(&j.var) else { return false };
    let mentions = |e: &LinExpr| e.coeff_of(j.var) != 0;
    let mut invariant = true;
    check_invariant(&j.body, &mentions, &mut invariant);
    if j.step != 1 || !invariant {
        return false;
    }
    let inside = stmts_of(&j.body);
    let pos = |s: usize| inside.iter().position(|&t| t == s);
    deps.iter().filter(|d| d.open_in(&inside, level)).all(|d| {
        let e = d.at(level);
        if e.is_zero() || matches!(e, DepElem::Const(c) if c >= f) {
            return true;
        }
        (level + 1..d.vector.len()).all(|k| d.at(k).is_nonneg()) && pos(d.src) <= pos(d.dst)
    })
}

/// Clears `ok` when a loop bound or guard below `node` satisfies
/// `mentions`.
fn check_invariant(node: &Node, mentions: &impl Fn(&LinExpr) -> bool, ok: &mut bool) {
    match node {
        Node::Seq(xs) => xs.iter().for_each(|x| check_invariant(x, mentions, ok)),
        Node::Guard(gs, b) => {
            *ok &= !gs.iter().any(mentions);
            check_invariant(b, mentions, ok);
        }
        Node::Loop(l) => {
            *ok &= !l.lo.exprs.iter().chain(&l.hi.exprs).any(|be| mentions(&be.expr));
            check_invariant(&l.body, mentions, ok);
        }
        Node::Stmt(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_poly::original_program;
    use polymix_ast::interp::{alloc_arrays, execute};
    use polymix_deps::build_podg;
    use polymix_ir::builder::{con, ix, par, ScopBuilder};
    use polymix_ir::Expr;

    /// seidel-like kernel: negative inner dependence component before
    /// skewing: A[i][j] = A[i-1][j+1] + A[i][j-1].
    fn antidiag() -> polymix_ir::Scop {
        let mut b = ScopBuilder::new("anti", &["N"], &[8]);
        b.assume_params_at_least(3);
        let a = b.array("A", &["N", "N"]);
        b.enter("i", con(1), par("N"));
        b.enter("j", con(1), par("N") - con(1));
        let body = Expr::add(
            b.rd(a, &[ix("i") - con(1), ix("j") + con(1)]),
            b.rd(a, &[ix("i"), ix("j") - con(1)]),
        );
        b.stmt("S", a, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        b.finish().expect("well-formed SCoP")
    }

    #[test]
    fn skewing_repairs_negative_components_and_preserves_semantics() {
        let scop = antidiag();
        let podg = build_podg(&scop);
        let schedules: Vec<_> = scop.statements.iter().map(|s| s.schedule.clone()).collect();
        let mut prog = original_program(&scop).expect("original program");
        let infos = nest_infos(&scop, &schedules, &podg, &prog);
        assert_eq!(infos.len(), 1);
        // There must be a negative element before skewing.
        assert!(infos[0]
            .deps
            .iter()
            .any(|d| d.vector.iter().any(|e| e.may_be_negative())));
        let mut body = prog.body.clone();
        let fixed = skew_nest_for_tilability(&mut body, &scop, &schedules, &podg, &infos[0]).expect("skewable");
        assert!(fixed.iter().all(|d| d.vector.iter().all(|e| e.is_nonneg())), "{fixed:?}");
        prog.body = body;
        // Semantics preserved.
        let reference = {
            let p0 = original_program(&scop).expect("original program");
            let mut arrays = alloc_arrays(&scop, &[8]);
            for (k, x) in arrays[0].iter_mut().enumerate() {
                *x = (k % 7) as f64;
            }
            execute(&p0, &[8], &mut arrays);
            arrays
        };
        let mut arrays = alloc_arrays(&scop, &[8]);
        for (k, x) in arrays[0].iter_mut().enumerate() {
            *x = (k % 7) as f64;
        }
        execute(&prog, &[8], &mut arrays);
        assert_eq!(arrays[0], reference[0]);
    }

    #[test]
    fn parallel_marking_picks_outermost_level() {
        // Vertical-only dependence: level 0 carried, level 1 doall... with
        // uniform (1,0) the detector reports pipeline at level 0 (valid and
        // outermost); doall_only mode must pick level 1 instead.
        let mut b = ScopBuilder::new("vert", &["N"], &[8]);
        let a = b.array("A", &["N", "N"]);
        b.enter("i", con(1), par("N"));
        b.enter("j", con(0), par("N"));
        let body = b.rd(a, &[ix("i") - con(1), ix("j")]);
        b.stmt("S", a, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let podg = build_podg(&scop);
        let schedules: Vec<_> = scop.statements.iter().map(|s| s.schedule.clone()).collect();
        let prog = original_program(&scop).expect("original program");
        let infos = nest_infos(&scop, &schedules, &podg, &prog);
        let mut body = prog.body.clone();
        let res = mark_parallelism(&scop, &mut body, &infos[0].deps, infos[0].depth, false);
        assert_eq!(res, Some((0, Par::Pipeline)));
        let mut body2 = prog.body.clone();
        let res2 = mark_parallelism(&scop, &mut body2, &infos[0].deps, infos[0].depth, true);
        assert_eq!(res2.map(|(k, _)| k), Some(1));
        // The marks landed on the right loops.
        if let Node::Loop(l) = &body {
            assert_eq!(l.par, Par::Pipeline);
        }
        if let Node::Loop(l) = &body2 {
            assert_eq!(l.par, Par::Seq);
            if let Node::Loop(inner) = &l.body {
                assert_eq!(inner.par, Par::Doall);
            }
        }
    }

    #[test]
    fn register_tiling_preserves_semantics() {
        let mut b = ScopBuilder::new("grid", &["N"], &[9]);
        let a = b.array("A", &["N", "N"]);
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        let body = Expr::add(b.rd(a, &[ix("i"), ix("j")]), Expr::Const(1.0));
        b.stmt("S", a, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let mut prog = original_program(&scop).expect("original program");
        let levels = loop_levels(&prog.body);
        register_tile(&mut prog.body, (2, 4), &[], &levels);
        let Node::Loop(i) = &prog.body else { panic!("nest root") };
        let Node::Loop(j) = &i.body else { panic!("inner loop") };
        assert_eq!((i.jam, i.step, j.jam, j.step), (2, 1, 4, 1));
        let mut arrays = alloc_arrays(&scop, &[9]);
        execute(&prog, &[9], &mut arrays);
        assert_eq!(arrays[0], vec![1.0; 81]);
    }

    /// `for i { for j: A[i][j] += 1 }` at `N = 9`.
    fn grid() -> polymix_ir::Scop {
        let mut b = ScopBuilder::new("grid", &["N"], &[9]);
        let a = b.array("A", &["N", "N"]);
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        let body = Expr::add(b.rd(a, &[ix("i"), ix("j")]), Expr::Const(1.0));
        b.stmt("S", a, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        b.finish().expect("well-formed SCoP")
    }

    /// The one nest of `scop` with its records, as the AST stages see it.
    fn nest_of(scop: &polymix_ir::Scop) -> (Node, Vec<NestDep>) {
        let podg = build_podg(scop);
        let schedules: Vec<_> = scop.statements.iter().map(|s| s.schedule.clone()).collect();
        let prog = original_program(scop).expect("original program");
        let info = nest_infos(scop, &schedules, &podg, &prog).remove(0);
        (prog.body, info.deps)
    }

    /// Register tiling by request marks the outer loop of the pair and
    /// leaves the tree's shape alone: the emitter realizes the jam.
    #[test]
    fn register_tile_jams_the_outer_loop_of_a_pair_by_two() {
        let (mut body, deps) = nest_of(&grid());
        let levels = loop_levels(&body);
        register_tile(&mut body, (2, 1), &deps, &levels);
        let Node::Loop(i) = &body else { panic!("nest root") };
        let Node::Loop(j) = &i.body else { panic!("inner loop") };
        assert_eq!((i.jam, i.step, j.jam, j.step), (2, 1, 1, 1));
    }

    /// A replica of a jammed loop must run the same inner iterations as
    /// the others: an inner bound that mentions the jammed variable
    /// refuses the jam.
    #[test]
    fn register_tile_refuses_a_jam_over_a_triangular_inner_loop() {
        let (mut body, deps) = nest_of(&grid());
        let levels = loop_levels(&body);
        let Node::Loop(i) = &mut body else { panic!("nest root") };
        let Node::Loop(j) = &mut i.body else { panic!("inner loop") };
        j.hi = polymix_ast::tree::Bound::of(polymix_ast::tree::LinExpr::var(i.var));
        register_tile(&mut body, (2, 1), &deps, &levels);
        let Node::Loop(i) = &body else { panic!("nest root") };
        assert_eq!(i.jam, 1);
    }

    /// `A[i][j] = A[i-1][j+1] + A[i][j-1]`: instances one `i` apart meet
    /// in one block of a jam of `i`, the target at the earlier `j`.
    #[test]
    fn a_jam_whose_block_would_run_a_dependence_backward_is_refused() {
        let (mut body, deps) = nest_of(&antidiag());
        let levels = loop_levels(&body);
        register_tile(&mut body, (2, 1), &deps, &levels);
        let Node::Loop(i) = &body else { panic!("nest root") };
        assert_eq!(i.jam, 1);
    }

    /// `for i { for j: y[i] += A[i][j] * x[j]; [z[i] += A[i][j]] }`: the
    /// sum over `j` is one chain of adds, and the loop its write mentions,
    /// `i`, is jammed by the largest power of two that fits the add
    /// latency with the body's statements.
    #[test]
    fn the_selection_jams_the_loop_the_chain_s_write_mentions() {
        let chain = |two: bool| {
            let mut b = ScopBuilder::new("mv", &["N"], &[9]);
            let (y, z) = (b.array("y", &["N"]), b.array("z", &["N"]));
            let (a, x) = (b.array("A", &["N", "N"]), b.array("x", &["N"]));
            b.enter("i", con(0), par("N"));
            b.enter("j", con(0), par("N"));
            let prod = Expr::mul(b.rd(a, &[ix("i"), ix("j")]), b.rd(x, &[ix("j")]));
            let body = Expr::add(b.rd(y, &[ix("i")]), prod);
            b.stmt("S", y, &[ix("i")], body);
            if two {
                let body = Expr::add(b.rd(z, &[ix("i")]), b.rd(a, &[ix("i"), ix("j")]));
                b.stmt("T", z, &[ix("i")], body);
            }
            b.exit();
            b.exit();
            b.finish().expect("well-formed SCoP")
        };
        for (two, latency, f) in [(false, 4, 4), (true, 4, 2), (false, 3, 2), (true, 3, 1), (false, 1, 1)] {
            let scop = chain(two);
            let (mut body, deps) = nest_of(&scop);
            let levels = loop_levels(&body);
            jam_nest(&scop, &mut body, &deps, &levels, latency);
            let Node::Loop(i) = &body else { panic!("nest root") };
            let Node::Loop(j) = &i.body else { panic!("inner loop") };
            assert_eq!((i.jam, j.jam), (f, 1), "two statements: {two}, latency {latency}");
        }
        // `A[i][j] += 1` updates an element that moves with `j`: no chain.
        let scop = grid();
        let (mut body, deps) = nest_of(&scop);
        let levels = loop_levels(&body);
        jam_nest(&scop, &mut body, &deps, &levels, 4);
        let Node::Loop(i) = &body else { panic!("nest root") };
        assert_eq!(i.jam, 1);
    }

    /// A one-statement update `W[w] += A[r0] * C[r1]` under `loops`
    /// (outermost first), every subscript a loop variable.
    fn update(loops: &[&str], w: &[&str], r0: &[&str], r1: &[&str]) -> polymix_ir::Scop {
        let mut b = ScopBuilder::new("upd", &["N"], &[9]);
        let arr = |b: &mut ScopBuilder, name: &str, rank: usize| b.array(name, &vec!["N"; rank]);
        let wa = arr(&mut b, "W", w.len());
        let (a, c) = (arr(&mut b, "A", r0.len()), arr(&mut b, "C", r1.len()));
        for v in loops {
            b.enter(v, con(0), par("N"));
        }
        let subs = |xs: &[&str]| xs.iter().map(|&x| ix(x)).collect::<Vec<_>>();
        let prod = Expr::mul(b.rd(a, &subs(r0)), b.rd(c, &subs(r1)));
        let body = Expr::add(b.rd(wa, &subs(w)), prod);
        b.stmt("S", wa, &subs(w), body);
        loops.iter().for_each(|_| b.exit());
        b.finish().expect("well-formed SCoP")
    }

    /// The jam factors of the nest's loops, outermost first, after the
    /// selection at add latency `latency`.
    fn selected(scop: &polymix_ir::Scop, latency: usize) -> Vec<i64> {
        let (mut body, deps) = nest_of(scop);
        let levels = loop_levels(&body);
        jam_nest(scop, &mut body, &deps, &levels, latency);
        let mut jams = Vec::new();
        body.visit_loops(&mut |l| jams.push(l.jam));
        jams
    }

    /// gemm's `C[i][j] += A[i][k] * B[k][j]` in `i, k, j` order: `i` is
    /// the one other loop that moves the write, `k` carries the sum, and
    /// `B` is invariant in `i`. The register tile jams `i` and `j`
    /// together, the add latency's power of two split evenly with the
    /// vector loop taking the larger half; under 4 there is no tile.
    #[test]
    fn the_selection_register_tiles_the_row_loop_with_the_vector_loop() {
        let gemm = update(&["i", "k", "j"], &["i", "j"], &["i", "k"], &["k", "j"]);
        let cases = [(4, [2, 1, 2]), (6, [2, 1, 2]), (8, [2, 1, 4]), (16, [4, 1, 4]), (3, [1, 1, 1])];
        for (latency, jams) in cases {
            assert_eq!(selected(&gemm, latency), jams, "latency {latency}");
        }
        // `k, i, j`: no loop between the row loop and the vector loop, so
        // no register tile; the sum over `k` runs around the whole `i, j`
        // sweep instead, a tile-wide chain.
        let kij = update(&["k", "i", "j"], &["i", "j"], &["i", "k"], &["k", "j"]);
        assert_eq!(selected(&kij, 4), [4, 1, 1]);
    }

    /// correlation's `symmat[j1][j2] += data[i][j1] * data[i][j2]` in
    /// `i, j1, j2` order: `i` leaves the write invariant while `j1`, below
    /// it, moves it — the chain runs around every sweep of `j1, j2`, and
    /// `i` is jammed by the add latency's power of two.
    #[test]
    fn the_selection_jams_a_chain_that_runs_around_a_whole_sweep() {
        let corr = update(&["i", "j1", "j2"], &["j1", "j2"], &["i", "j1"], &["i", "j2"]);
        assert_eq!(selected(&corr, 4), [4, 1, 1]);
        assert_eq!(selected(&corr, 6), [4, 1, 1]);
    }

    /// doitgen's `sum[r][q][p] += A[r][q][s] * C4[s][p]` in `r, q, s, p`
    /// order: two loops besides `p` move the write, so it is no register
    /// tile, and no loop that leaves the write invariant has one of them
    /// between it and `p`, so it is no tile-wide chain either. The tree is
    /// left alone.
    #[test]
    fn the_selection_leaves_a_write_two_loops_move_besides_the_vector_loop_alone() {
        let doitgen = update(&["r", "q", "s", "p"], &["r", "q", "p"], &["r", "q", "s"], &["s", "p"]);
        let (body, deps) = nest_of(&doitgen);
        let mut jammed = body.clone();
        jam_nest(&doitgen, &mut jammed, &deps, &loop_levels(&body), 4);
        assert_eq!(jammed, body);
    }

    /// adi's row sweep `X[i][j] += X[i][j-1] * A[i][j]` under a time loop:
    /// `t` leaves the write invariant while `i` moves it, so the selection
    /// asks for a tile-wide chain jam of `t`. Instances one `t` apart meet
    /// in one block with the read of `X[i][j-1]` at the later `t` due
    /// before the write of `X[i][j-1]` at the earlier one — a record
    /// `(+, 0, -1)` — and [`jam_ok`] refuses before the certifier has to.
    #[test]
    fn a_chain_jam_of_a_time_loop_that_carries_the_sweep_s_recurrence_is_refused() {
        let mut b = ScopBuilder::new("sweep", &["N"], &[9]);
        b.assume_params_at_least(2);
        let (x, a) = (b.array("X", &["N", "N"]), b.array("A", &["N", "N"]));
        b.enter("t", con(0), par("N"));
        b.enter("i", con(0), par("N"));
        b.enter("j", con(1), par("N"));
        let prod = Expr::mul(b.rd(x, &[ix("i"), ix("j") - con(1)]), b.rd(a, &[ix("i"), ix("j")]));
        let body = Expr::add(b.rd(x, &[ix("i"), ix("j")]), prod);
        b.stmt("S", x, &[ix("i"), ix("j")], body);
        (0..3).for_each(|_| b.exit());
        let sweep = b.finish().expect("well-formed SCoP");
        assert_eq!(selected(&sweep, 4), [1, 1, 1]);
        let (body, deps) = nest_of(&sweep);
        let Node::Loop(t) = &body else { panic!("nest root") };
        assert!(!jam_ok(t, 4, &deps, &loop_levels(&body)));
        assert!(deps.iter().any(|d| d.at(0).is_positive() && d.at(2).may_be_negative()));
    }

    #[test]
    fn nest_infos_counts_nests_and_stmts() {
        let scop = antidiag();
        let podg = build_podg(&scop);
        let schedules: Vec<_> = scop.statements.iter().map(|s| s.schedule.clone()).collect();
        let prog = original_program(&scop).expect("original program");
        let infos = nest_infos(&scop, &schedules, &podg, &prog);
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].stmts, vec![0]);
        assert_eq!(infos[0].depth, 2);
        assert!(!infos[0].deps.is_empty());
    }
}

/// Longest prefix of the `depth` loop levels of the nest of `stmts` that
/// is [permutable] — the outermost fully-permutable (tilable) band.
pub fn tilable_prefix(deps: &[NestDep], stmts: &[usize], depth: usize) -> usize {
    (0..depth).take_while(|&k| permutable(deps, stmts, 0..k + 1)).count()
}

/// Whether the loop levels `levels` are fully permutable among the
/// statements `stmts`: every record between them still
/// [open](NestDep::open_in) at the band's first level is non-negative on
/// each of its levels. Only records with **both ends inside** constrain
/// it (cross-statement vectors compare unrelated distributed loops and
/// would conservatively forbid everything).
fn permutable(deps: &[NestDep], stmts: &[usize], levels: Range<usize>) -> bool {
    deps.iter()
        .filter(|d| d.open_in(stmts, levels.start))
        .all(|d| levels.clone().all(|k| d.at(k).is_nonneg()))
}

/// Legality-aware tiling of one nest (Sec. IV-B). Every statement
/// should end up with its whole permutable band strip-mined; three forms
/// get it there (DESIGN, "Tiling forms"):
///
/// 1. **joint** — if the outermost `m = tilable_prefix(...)` levels form
///    a band of depth ≥ 2, the imperfect-nest capable clamping form is
///    tried first, at the full band and then at shorter prefixes. This is
///    what gives stencils their time tiles. The first band level uses
///    `time_tile`, the rest `tile`.
/// 2. **chains** — below the joint band (or from the root), every maximal
///    perfect chain whose band is at least two deep and dependence-safe
///    is strip-mined, tile loops above point loops.
/// 3. **sunk** — where a chain ends in a `Seq` of sub-nests (a fused
///    nest), its loops are strip-mined, their point loops distributed
///    over the children and sunk below each child's own tile loops:
///    "fuse the tile loops, distribute the point loops". Fusion then
///    costs no statement a band level. Only done when no dependence runs
///    from a later child to an earlier one inside a tile, and when some
///    child reaches a band of depth 3 (see [`Tiler::distributes`]).
///
/// Returns the tiled nest and its [`TileReport`], which the caller
/// appends to `prog.tiling` once it has settled the nest.
pub fn tile_nest(
    prog: &mut Program,
    nest: Node,
    deps: &[NestDep],
    depth: usize,
    tile: i64,
    time_tile: i64,
) -> (Node, TileReport) {
    let m = tilable_prefix(deps, &stmts_of(&nest), depth);
    // Try the joint (imperfect-capable) tiling at the full permutable
    // band first, then at shorter prefixes: a statement shallower than
    // the band blocks the full-depth form (it would be re-executed per
    // tile), but a 2-level joint tiling of, say, a fused (i, j) prefix is
    // still far better than none.
    let (nest, band) = (2..=m)
        .rev()
        .find_map(|band| {
            let mut sizes = vec![tile; band];
            sizes[0] = time_tile;
            let mut tiled = transforms::tile_imperfect(prog, nest.clone(), &sizes)?;
            repair_ctrl_marks(&mut tiled, deps, band);
            Some((tiled, band))
        })
        .unwrap_or((nest, 0));
    let mut t = Tiler {
        prog,
        deps,
        tile,
        joint: Vec::new(),
        chains: false,
        sunk: false,
        strips: Vec::new(),
    };
    let tiled = t.below_joint(nest, band);
    let form = match (t.sunk, band > 0, t.chains) {
        (true, _, _) => TileForm::Sunk,
        (_, true, _) => TileForm::Joint,
        (_, _, true) => TileForm::Chains,
        _ => TileForm::None,
    };
    let untiled = untiled_stmts(&tiled, &t.strips, false);
    let tile = if form == TileForm::None { 0 } else { tile };
    (tiled, TileReport { form, untiled, dl: None, reordered: false, tile, guards: 0 })
}

/// A point loop waiting to be placed: its header, and what a tile loop
/// hoisted above it may assume about its range.
#[derive(Clone)]
struct Point {
    hdr: Loop,
    crossed: Crossed,
}

/// Forms 2 and 3 of [`tile_nest`]: one walk over the nest below the joint
/// band.
struct Tiler<'a> {
    prog: &'a mut Program,
    deps: &'a [NestDep],
    tile: i64,
    /// `(tile variable, size)` of the levels the joint form strip-mined:
    /// a loop at such a level is already a point loop.
    joint: Vec<(usize, i64)>,
    chains: bool,
    sunk: bool,
    /// Variables of every tile loop and every point loop.
    strips: Vec<usize>,
}

impl Tiler<'_> {
    /// Walks past the `band` joint tile loops, then tiles what is below.
    fn below_joint(&mut self, node: Node, band: usize) -> Node {
        match node {
            Node::Loop(mut l) if band > 0 => {
                self.joint.push((l.var, l.step));
                self.strips.push(l.var);
                l.body = self.below_joint(l.body, band - 1);
                Node::Loop(l)
            }
            other => self.tile_tree(other, 0, Vec::new()),
        }
    }

    /// Tiles the subtree `node`, whose loops start at nest level `level`.
    /// `points` are the point loops of the levels just above it
    /// (`level - points.len() .. level`) that an enclosing distribution
    /// handed down: they go directly around this subtree's own point
    /// loops, below any tile loop made here.
    fn tile_tree(&mut self, node: Node, level: usize, points: Vec<Point>) -> Node {
        let chain = transforms::band_depth(&node);
        if chain == 0 {
            let inner = match node {
                Node::Seq(xs) => Node::Seq(
                    xs.into_iter()
                        .map(|x| self.tile_tree(x, level, Vec::new()))
                        .collect(),
                ),
                Node::Guard(g, b) => {
                    Node::Guard(g, Box::new(self.tile_tree(*b, level, Vec::new())))
                }
                other => other,
            };
            return transforms::nest_under(points.into_iter().map(|p| p.hdr), inner);
        }
        let (from, end) = (level - points.len(), level + chain);
        // Chain levels from `fresh` on are not strip-mined yet.
        let fresh = level.max(self.joint.len()).min(end);
        let inside = stmts_of(&node);
        let permutable = permutable(self.deps, &inside, from..end);
        let distributes = permutable && self.distributes(&node, from, fresh, end);
        // A band is worth strip-mining from depth 2 on; one that reaches
        // it only through handed-down point loops from depth 3 on, the
        // bar `distributes` sets for making such bands at all.
        let worth = end - from >= if points.is_empty() { 2 } else { 3 };
        let strips = permutable && fresh < end && worth;
        if !(distributes || strips) {
            // Nothing to do for the chain as a whole: try it without the
            // handed-down point loops, or without its first loop.
            if !points.is_empty() {
                let inner = self.tile_tree(node, level, Vec::new());
                return transforms::nest_under(points.into_iter().map(|p| p.hdr), inner);
            }
            let Node::Loop(mut l) = node else { return node };
            if level < self.joint.len() {
                self.strips.push(l.var);
            }
            l.body = self.tile_tree(l.body, level + 1, Vec::new());
            return Node::Loop(l);
        }
        let mut tiles: Vec<Loop> = Vec::new();
        let mut points = points;
        let mut cur = node;
        for k in level..end {
            let Node::Loop(mut l) = cur else { break };
            cur = std::mem::replace(&mut l.body, Node::Seq(Vec::new()));
            self.strips.push(l.var);
            if let Some(&(tile_var, size)) = self.joint.get(k) {
                let crossed = Crossed::point_loop(&l, tile_var, size);
                points.push(Point { hdr: *l, crossed });
                continue;
            }
            let crossed: Vec<_> = points.iter().map(|p| p.crossed.clone()).collect();
            let (mut tile, mut point) = transforms::strip_mine(self.prog, &l, self.tile, &crossed);
            if !tile_safe(self.deps, &inside, from, k, &l.par) {
                // The mark stays where its point-granularity argument
                // holds (a distribution never gets here).
                point.par = std::mem::replace(&mut tile.par, Par::Seq);
            }
            self.strips.push(tile.var);
            let crossed = Crossed::tile_box(point.var, tile.var, self.tile);
            points.push(Point { hdr: point, crossed });
            tiles.push(tile);
        }
        let body = match cur {
            Node::Seq(xs) if distributes => {
                self.sunk = true;
                Node::Seq(
                    distribution_groups(xs)
                        .into_iter()
                        .map(|mut g| {
                            let g = if g.len() == 1 { g.remove(0) } else { Node::Seq(g) };
                            self.tile_tree(g, end, points.clone())
                        })
                        .collect(),
                )
            }
            other => {
                self.chains = true;
                let inner = self.tile_tree(other, end, Vec::new());
                transforms::nest_under(points.into_iter().map(|p| p.hdr), inner)
            }
        };
        transforms::nest_under(tiles, body)
    }

    /// Whether the chain rooted at `node` (levels `from..end` with the
    /// handed-down point loops, not yet strip-mined from `fresh` on) ends
    /// in a `Seq` over which its point loops should be distributed:
    ///
    /// * some child must gain from it — reach, with the shared levels, a
    ///   band of depth 3. A child one loop deep under one shared loop is
    ///   a matrix–vector product: every matrix element is used once, and
    ///   strip-mining would only cut its unit-stride stream into pieces;
    /// * a loop strip-mined here is sequential or a `doall` whose mark
    ///   survives on the tile loop. A reduction loop stays whole: whether
    ///   its nests gain from distribution is not measured;
    /// * inside a tile all of one child's iterations run before the next
    ///   child's, so no dependence still open at `from` may lead from a
    ///   later child to an earlier one (true of doall prefixes, false of
    ///   time loops).
    fn distributes(&self, node: &Node, from: usize, fresh: usize, end: usize) -> bool {
        let mut last = node;
        let mut marks = Vec::new();
        while let Node::Loop(l) = last {
            marks.push(&l.par);
            last = &l.body;
        }
        let Node::Seq(children) = last else { return false };
        if end - from + node_depth(last) < 3 {
            return false;
        }
        let inside = stmts_of(node);
        let level = end - marks.len();
        if !(fresh..end).all(|k| match marks[k - level] {
            Par::Seq => true,
            Par::Doall => tile_safe(self.deps, &inside, from, k, &Par::Doall),
            _ => false,
        }) {
            return false;
        }
        let members: Vec<Vec<usize>> = distribution_groups(children)
            .iter()
            .map(|g| g.iter().flat_map(|c| stmts_of(c)).collect())
            .collect();
        let group = |s: usize| members.iter().position(|m| m.contains(&s));
        self.deps
            .iter()
            .filter(|d| d.open_in(&inside, from))
            .all(|d| group(d.src) <= group(d.dst))
    }
}

/// The children of a `Seq`, split the way a distribution treats them:
/// every sub-nest is a group of its own, every run of loop-free
/// neighbours one group, which gets one copy of the point loops.
fn distribution_groups<T: std::borrow::Borrow<Node>>(xs: impl IntoIterator<Item = T>) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = Vec::new();
    let mut in_run = false;
    for x in xs {
        let free = node_depth(x.borrow()) == 0;
        match out.last_mut() {
            Some(run) if free && in_run => run.push(x),
            _ => out.push(vec![x]),
        }
        in_run = free;
    }
    out
}

/// Statement indices occurring under `node`.
fn stmts_of(node: &Node) -> Vec<usize> {
    let mut inside: Vec<usize> = Vec::new();
    node.visit_stmts(&mut |s| {
        if !inside.contains(&s.stmt_idx) {
            inside.push(s.stmt_idx);
        }
    });
    inside
}

/// Statements of `node` with a loop around them that is neither a tile
/// loop nor a point loop (`strips` holds the variables of those).
fn untiled_stmts(node: &Node, strips: &[usize], under_untiled: bool) -> usize {
    match node {
        Node::Seq(xs) => xs.iter().map(|x| untiled_stmts(x, strips, under_untiled)).sum(),
        Node::Guard(_, b) => untiled_stmts(b, strips, under_untiled),
        Node::Loop(l) => untiled_stmts(&l.body, strips, under_untiled || !strips.contains(&l.var)),
        Node::Stmt(_) => usize::from(under_untiled),
    }
}

/// Whether a tile loop made from the loop at nest level `dim` may keep
/// that loop's annotation.
///
/// `strip_mine` / `tile_imperfect` move a point loop's annotation onto its
/// new tile controller, but point-level legality does not imply
/// tile-granularity legality: a dependence carried by a *deeper* point
/// level no longer orders cross-tile pairs, because that point loop now
/// runs inside each tile task. (Pre-tiling, `doall` at level `d` may be
/// justified by a carry at some sequential level `i < d`; after tiling,
/// point level `i` sits *below* controller `d` and the discharge
/// evaporates.) A controller may keep `Doall`/`Reduction` only when every
/// dependence between the statements `inside` the tiled subtree that is
/// not carried before level `from` — where the band starts — is zero at
/// `dim`; for `Reduction`, the reduction self-updates of the arrays it
/// lists excepted, which it privatizes per worker.
fn tile_safe(deps: &[NestDep], inside: &[usize], from: usize, dim: usize, par: &Par) -> bool {
    let reduced: &[usize] = match par {
        Par::Doall => &[],
        Par::Reduction(arrays) => arrays,
        _ => return true,
    };
    deps.iter()
        .filter(|d| d.open_in(inside, from))
        .all(|d| (d.reduction && reduced.contains(&d.array)) || d.at(dim).is_zero())
}

/// Post-tiling repair of the marks `tile_imperfect` moved onto the `band`
/// joint tile loops at the root of `node`: a controller that is not
/// [`tile_safe`] falls back to sequential.
fn repair_ctrl_marks(node: &mut Node, deps: &[NestDep], band: usize) {
    let inside = stmts_of(node);
    let mut cur = &mut *node;
    for d in 0..band {
        let Node::Loop(l) = cur else { return };
        if !tile_safe(deps, &inside, 0, d, &l.par) {
            l.par = Par::Seq;
        }
        cur = &mut l.body;
    }
}

/// Orders the point loops of every tile of a tiled `nest` for the vector
/// unit (DESIGN §19, "Point-loop order"). In each innermost run of point
/// loops — unmarked loops a tile loop clamps to one tile, directly nested,
/// with no loop below the last — it puts two loops at the bottom:
///
/// * innermost, a loop that carries no dependence inside the tile and
///   along which every written reference is unit-stride; of several, the
///   one with the most reads unit-stride or invariant along it;
/// * right above it, a loop no written reference mentions: the one that
///   carries the writes' reuse (gemm's i-k-j shape).
///
/// The other loops of the run keep their relative order, and a run whose
/// dependences are not all componentwise non-negative on its levels is
/// left alone — on such a band every permutation keeps every dependence,
/// so the iterations that update one element keep their order and the
/// results stay bit-identical. Tile loops never move. Runs before
/// register tiling: every loop of step > 1 is a tile loop, and the point
/// and untiled loops above a statement sit at its nest levels in order.
/// Returns whether any run was reordered.
pub fn order_point_loops(scop: &Scop, nest: &mut Node, deps: &[NestDep]) -> bool {
    PointRun { scop, deps }.walk(nest, &mut Vec::new(), 0)
}

/// The context of [`order_point_loops`]' walk.
struct PointRun<'a> {
    scop: &'a Scop,
    deps: &'a [NestDep],
}

impl PointRun<'_> {
    /// Reorders the runs below `node`, whose loops start at nest level
    /// `level` under the tile loops `tiles` (`(variable, step)`).
    fn walk(&self, node: &mut Node, tiles: &mut Vec<(usize, i64)>, level: usize) -> bool {
        match node {
            Node::Seq(xs) => xs
                .iter_mut()
                .fold(false, |moved, x| self.walk(x, tiles, level) | moved),
            Node::Guard(_, b) => self.walk(b, tiles, level),
            Node::Stmt(_) => false,
            Node::Loop(l) if l.step > 1 => {
                tiles.push((l.var, l.step));
                let moved = self.walk(&mut l.body, tiles, level);
                tiles.pop();
                moved
            }
            Node::Loop(_) => {
                let n = point_run(node, tiles);
                if n >= 2 {
                    return self.reorder(node, n, level);
                }
                let Node::Loop(l) = node else { return false };
                self.walk(&mut l.body, tiles, level + 1)
            }
        }
    }

    /// Puts the vector loop innermost and the write-invariant loop above
    /// it in the run of `n` point loops rooted at `node` (nest levels
    /// `level..level + n`), if the run allows it.
    fn reorder(&self, node: &mut Node, n: usize, level: usize) -> bool {
        let mut vars = Vec::with_capacity(n);
        let mut body = &*node;
        for _ in 0..n {
            let Node::Loop(l) = body else { return false };
            vars.push(l.var);
            body = &l.body;
        }
        let inside = stmts_of(body);
        if !permutable(self.deps, &inside, level..level + n) {
            return false;
        }
        let open: Vec<&NestDep> = self.deps.iter().filter(|d| d.open_in(&inside, level)).collect();
        // Each reference's subscript rows as coefficients of the run's
        // loops, with whether it is the statement's write.
        let mut refs: Vec<(bool, Vec<Vec<i64>>)> = Vec::new();
        body.visit_stmts(&mut |s| {
            for (acc, write) in self.scop.statements[s.stmt_idx].accesses() {
                refs.push((write, s.subscript_coeffs(&acc.map, &vars)));
            }
        });
        let unit = |rows: &[Vec<i64>], p: usize| {
            rows.split_last()
                .is_some_and(|(last, rest)| last[p] == 1 && rest.iter().all(|r| r[p] == 0))
        };
        let invariant = |rows: &[Vec<i64>], p: usize| rows.iter().all(|r| r[p] == 0);
        let writes = || refs.iter().filter(|(w, _)| *w).map(|(_, rows)| &rows[..]);
        let carries = |p: usize| {
            open.iter().any(|d| {
                !d.at(level + p).is_zero() && !(0..n).any(|q| q != p && d.at(level + q).is_positive())
            })
        };
        let Some(inner) = (0..n)
            .filter(|&p| writes().all(|rows| unit(rows, p)) && !carries(p))
            .max_by_key(|&p| {
                refs.iter()
                    .filter(|(w, rows)| !w && (unit(rows, p) || invariant(rows, p)))
                    .count()
            })
        else {
            return false;
        };
        let above = (0..n)
            .rev()
            .find(|&p| p != inner && writes().all(|rows| invariant(rows, p)));
        let mut order: Vec<usize> = (0..n).filter(|&p| p != inner && Some(p) != above).collect();
        order.extend(above);
        order.push(inner);
        if order.iter().copied().eq(0..n) {
            return false;
        }
        // Adjacent interchanges, each target loop bubbled up to its place.
        let mut moved = node.clone();
        let mut cur: Vec<usize> = (0..n).collect();
        for (k, &p) in order.iter().enumerate() {
            let Some(mut j) = cur.iter().position(|&q| q == p) else { return false };
            while j > k {
                if interchange_at(&mut moved, j - 1).is_none() {
                    return false;
                }
                cur.swap(j - 1, j);
                j -= 1;
            }
        }
        *node = moved;
        true
    }
}

/// Length of the run of point loops rooted at `node`: unmarked step-1
/// loops, each clamped to one tile by one of `tiles`, each the whole body
/// of the one above, with no loop below the last. 0 when `node` does not
/// start such a run.
fn point_run(node: &Node, tiles: &[(usize, i64)]) -> usize {
    let clamped =
        |l: &Loop| l.step == 1 && l.par == Par::Seq && tiles.iter().any(|&(t, s)| l.clamped_by(t, s));
    let mut n = 0;
    let mut cur = node;
    while let Node::Loop(l) = cur {
        if !clamped(l) {
            return 0;
        }
        n += 1;
        cur = &l.body;
    }
    if node_depth(cur) == 0 {
        n
    } else {
        0
    }
}

/// Interchanges the loop `depth` loops below `node` with its body loop.
fn interchange_at(node: &mut Node, depth: usize) -> Option<()> {
    let Node::Loop(l) = node else { return None };
    if depth > 0 {
        return interchange_at(&mut l.body, depth - 1);
    }
    *node = transforms::interchange(l)?;
    Some(())
}

#[cfg(test)]
mod tiling_tests {
    use super::*;
    use crate::from_poly::original_program;
    use polymix_ast::interp::{alloc_arrays, execute};
    use polymix_deps::build_podg;
    use polymix_ir::builder::{con, ix, par, ScopBuilder};
    use polymix_ir::{Expr, Scop};

    /// `for i { for j: T[i][j] = 0;  for k, j: T[i][j] += A[i][k] * B[k][j] }`
    /// — gemm as the affine stage fuses it: `i` is shared and carries
    /// nothing.
    fn fused_gemm() -> Scop {
        let mut b = ScopBuilder::new("fg", &["N"], &[9]);
        let t = b.array("T", &["N", "N"]);
        let a = b.array("A", &["N", "N"]);
        let bb = b.array("B", &["N", "N"]);
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        b.stmt("Z", t, &[ix("i"), ix("j")], Expr::Const(0.0));
        b.exit();
        b.enter("k", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        let prod = Expr::mul(b.rd(a, &[ix("i"), ix("k")]), b.rd(bb, &[ix("k"), ix("j")]));
        let body = Expr::add(b.rd(t, &[ix("i"), ix("j")]), prod);
        b.stmt("S", t, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        b.exit();
        b.finish().expect("well-formed SCoP")
    }

    /// `for i { for j: B[i][j] = A[i-1][j];  for k, j: A[i][j] += B[i][k] }`
    /// — the later child feeds the earlier one at the next `i`.
    fn backward_cross_child() -> Scop {
        let mut b = ScopBuilder::new("bw", &["N"], &[9]);
        b.assume_params_at_least(2);
        let a = b.array("A", &["N", "N"]);
        let bb = b.array("B", &["N", "N"]);
        b.enter("i", con(1), par("N"));
        b.enter("j", con(0), par("N"));
        let body = b.rd(a, &[ix("i") - con(1), ix("j")]);
        b.stmt("P", bb, &[ix("i"), ix("j")], body);
        b.exit();
        b.enter("k", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        let body = Expr::add(b.rd(a, &[ix("i"), ix("j")]), b.rd(bb, &[ix("i"), ix("k")]));
        b.stmt("Q", a, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        b.exit();
        b.finish().expect("well-formed SCoP")
    }

    fn run(prog: &Program, n: i64) -> Vec<Vec<f64>> {
        let mut arrays = alloc_arrays(&prog.scop, &[n]);
        for (a, arr) in arrays.iter_mut().enumerate() {
            for (k, x) in arr.iter_mut().enumerate() {
                *x = ((k * 7 + a * 3) % 11) as f64;
            }
        }
        execute(prog, &[n], &mut arrays);
        arrays
    }

    /// Marks and tiles the SCoP's one nest with 4-wide tiles.
    fn tiled(scop: &Scop) -> Program {
        let podg = build_podg(scop);
        let schedules: Vec<_> = scop.statements.iter().map(|s| s.schedule.clone()).collect();
        let mut prog = original_program(scop).expect("original program");
        let info = nest_infos(scop, &schedules, &podg, &prog).remove(0);
        let mut nest = prog.body.clone();
        mark_parallelism(scop, &mut nest, &info.deps, info.depth, false);
        let (body, report) = tile_nest(&mut prog, nest, &info.deps, info.depth, 4, 4);
        prog.body = body;
        prog.tiling.push(report);
        prog
    }

    /// Loops around each statement, outermost first, as `(step, par)`.
    fn paths(node: &Node, above: &mut Vec<(i64, Par)>, out: &mut Vec<(usize, Vec<(i64, Par)>)>) {
        match node {
            Node::Seq(xs) => xs.iter().for_each(|x| paths(x, above, out)),
            Node::Guard(_, b) => paths(b, above, out),
            Node::Loop(l) => {
                above.push((l.step, l.par.clone()));
                paths(&l.body, above, out);
                above.pop();
            }
            Node::Stmt(s) => out.push((s.stmt_idx, above.clone())),
        }
    }

    #[test]
    fn a_doall_prefix_is_strip_mined_and_its_point_loop_sunk_into_each_child() {
        let scop = fused_gemm();
        let prog = tiled(&scop);
        assert_eq!(prog.tiling, vec![TileReport { form: TileForm::Sunk, untiled: 1, dl: None, reordered: false, tile: 4, guards: 0 }]);
        let mut found = Vec::new();
        paths(&prog.body, &mut Vec::new(), &mut found);
        // Z: it { i { j } } — its own loop stays whole, a band of 2 is
        // not worth a distribution.  S: it { kt, jt { i, k, j } }.
        assert_eq!(found[0].1, [(4, Par::Doall), (1, Par::Seq), (1, Par::Seq)]);
        let steps: Vec<i64> = found[1].1.iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, [4, 4, 4, 1, 1, 1]);
        assert_eq!(found[1].1[0].1, Par::Doall);
        let reference = original_program(&scop).expect("original program");
        for n in [1, 3, 4, 9, 10] {
            assert_eq!(run(&prog, n), run(&reference, n), "n={n}");
        }
    }

    #[test]
    fn a_backward_dependence_between_children_keeps_the_shared_loop_whole() {
        let scop = backward_cross_child();
        let prog = tiled(&scop);
        assert_eq!(prog.tiling, vec![TileReport { form: TileForm::Chains, untiled: 2, dl: None, reordered: false, tile: 4, guards: 0 }]);
        let Node::Loop(i) = &prog.body else { panic!("nest root is the shared loop") };
        assert_eq!((i.step, i.name.as_str()), (1, "c1"));
        let reference = original_program(&scop).expect("original program");
        for n in [2, 5, 9] {
            assert_eq!(run(&prog, n), run(&reference, n), "n={n}");
        }
    }

    #[test]
    fn register_tiling_leaves_the_copies_of_a_distributed_point_loop_in_step() {
        let scop = fused_gemm();
        let mut prog = tiled(&scop);
        let mut body = prog.body.clone();
        let levels = loop_levels(&original_program(&scop).expect("original program").body);
        register_tile(&mut body, (2, 2), &[], &levels);
        prog.body = body;
        let mut i_loops = Vec::new();
        prog.body.visit_loops_mut(&mut |l| {
            if l.name == "c1" {
                i_loops.push((l.step, l.jam));
            }
        });
        assert_eq!(i_loops, [(1, 1), (1, 1)]);
        let reference = original_program(&scop).expect("original program");
        assert_eq!(run(&prog, 9), run(&reference, 9));
    }
}
