//! The loop-tree (AST) program representation.
//!
//! A [`Program`] owns a SCoP (for statement bodies, arrays and parameter
//! names) plus a tree of loops/guards/statement instances. Loop bounds are
//! `max`/`min` combinations of affine expressions over enclosing loop
//! variables and parameters — exactly what Fourier–Motzkin bound
//! projection produces — so triangular and tile-shaped loops are
//! first-class.
//!
//! Statement instances carry one [`LinExpr`] per *original* statement
//! iterator: the materialized inverse schedule. The interpreter and the
//! Rust emitter evaluate original subscripts through these expressions,
//! which keeps every transformation semantics-preserving by construction
//! as long as the expressions are updated consistently.

use polymix_ir::Scop;

/// An affine expression over AST loop variables and SCoP parameters:
/// `Σ c_v·var + Σ c_p·param + c`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    /// Sparse `(variable id, coefficient)` terms.
    pub var_coeffs: Vec<(usize, i64)>,
    /// Sparse `(parameter id, coefficient)` terms.
    pub param_coeffs: Vec<(usize, i64)>,
    /// Constant term.
    pub c: i64,
}

impl LinExpr {
    /// The constant expression `c`.
    pub fn con(c: i64) -> LinExpr {
        LinExpr {
            c,
            ..Default::default()
        }
    }

    /// The single-variable expression `var`.
    pub fn var(v: usize) -> LinExpr {
        LinExpr {
            var_coeffs: vec![(v, 1)],
            ..Default::default()
        }
    }

    /// The single-parameter expression `param`.
    pub fn param(p: usize) -> LinExpr {
        LinExpr {
            param_coeffs: vec![(p, 1)],
            ..Default::default()
        }
    }

    /// Coefficient of variable `v`.
    pub fn coeff_of(&self, v: usize) -> i64 {
        self.var_coeffs
            .iter()
            .filter(|(x, _)| *x == v)
            .map(|(_, c)| *c)
            .sum()
    }

    /// Sum of two expressions (normalized).
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.var_coeffs.extend(other.var_coeffs.iter().copied());
        out.param_coeffs.extend(other.param_coeffs.iter().copied());
        out.c += other.c;
        out.normalize();
        out
    }

    /// `self + k·other`.
    pub fn add_scaled(&self, other: &LinExpr, k: i64) -> LinExpr {
        let mut out = self.clone();
        out.var_coeffs
            .extend(other.var_coeffs.iter().map(|&(v, c)| (v, k * c)));
        out.param_coeffs
            .extend(other.param_coeffs.iter().map(|&(p, c)| (p, k * c)));
        out.c += k * other.c;
        out.normalize();
        out
    }

    /// `self` scaled by `k`.
    pub fn scale(&self, k: i64) -> LinExpr {
        LinExpr::con(0).add_scaled(self, k)
    }

    /// Adds a constant.
    pub fn plus(&self, c: i64) -> LinExpr {
        let mut out = self.clone();
        out.c += c;
        out
    }

    /// Substitutes `replacement` for variable `v`.
    pub fn subst(&self, v: usize, replacement: &LinExpr) -> LinExpr {
        let k = self.coeff_of(v);
        if k == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.var_coeffs.retain(|(x, _)| *x != v);
        out = out.add_scaled(replacement, k);
        out
    }

    /// Evaluates with variable values looked up in `vars` (indexed by
    /// variable id) and parameters in `params`.
    pub fn eval(&self, vars: &[i64], params: &[i64]) -> i64 {
        self.var_coeffs
            .iter()
            .map(|&(v, c)| c * vars[v])
            .sum::<i64>()
            + self
                .param_coeffs
                .iter()
                .map(|&(p, c)| c * params[p])
                .sum::<i64>()
            + self.c
    }

    fn normalize(&mut self) {
        self.var_coeffs.sort_by_key(|&(v, _)| v);
        self.var_coeffs.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 += b.1;
                true
            } else {
                false
            }
        });
        self.var_coeffs.retain(|&(_, c)| c != 0);
        self.param_coeffs.sort_by_key(|&(p, _)| p);
        self.param_coeffs.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 += b.1;
                true
            } else {
                false
            }
        });
        self.param_coeffs.retain(|&(_, c)| c != 0);
    }
}

/// One bound expression `expr / denom` (ceil for lower, floor for upper).
#[derive(Clone, Debug, PartialEq)]
pub struct BoundExpr {
    /// The affine numerator.
    pub expr: LinExpr,
    /// Positive divisor.
    pub denom: i64,
}

/// A loop bound: `max` (lower) or `min` (upper) over affine expressions.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Component expressions; never empty in a tree the optimizers build.
    /// An empty one evaluates to no iteration: `i64::MAX` as a lower
    /// bound, `i64::MIN` as an upper one.
    pub exprs: Vec<BoundExpr>,
}

impl Bound {
    /// Single-expression bound with unit denominator.
    pub fn of(e: LinExpr) -> Bound {
        Bound {
            exprs: vec![BoundExpr { expr: e, denom: 1 }],
        }
    }

    /// Constant bound.
    pub fn con(c: i64) -> Bound {
        Bound::of(LinExpr::con(c))
    }

    /// Evaluates as a lower bound (`max` of ceiling divisions).
    pub fn eval_lower(&self, vars: &[i64], params: &[i64]) -> i64 {
        self.exprs
            .iter()
            .map(|b| {
                let v = b.expr.eval(vars, params);
                -((-v).div_euclid(b.denom))
            })
            .max()
            .unwrap_or(i64::MAX)
    }

    /// Evaluates as an upper bound (`min` of floor divisions).
    pub fn eval_upper(&self, vars: &[i64], params: &[i64]) -> i64 {
        self.exprs
            .iter()
            .map(|b| b.expr.eval(vars, params).div_euclid(b.denom))
            .min()
            .unwrap_or(i64::MIN)
    }

    /// Applies a function to every component expression.
    pub fn map(&self, f: &impl Fn(&LinExpr) -> LinExpr) -> Bound {
        Bound {
            exprs: self
                .exprs
                .iter()
                .map(|b| BoundExpr {
                    expr: f(&b.expr),
                    denom: b.denom,
                })
                .collect(),
        }
    }

    /// True when the bound is the single constant `c`.
    pub fn is_const(&self) -> Option<i64> {
        if self.exprs.len() == 1
            && self.exprs[0].denom == 1
            && self.exprs[0].expr.var_coeffs.is_empty()
            && self.exprs[0].expr.param_coeffs.is_empty()
        {
            Some(self.exprs[0].expr.c)
        } else {
            None
        }
    }
}

/// Parallelism annotation of a loop (Sec. IV-A).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum Par {
    /// Sequential.
    #[default]
    Seq,
    /// Fully parallel iterations.
    Doall,
    /// Parallel modulo additive reductions into the listed arrays (sorted
    /// array indices): each worker accumulates into a zeroed private copy
    /// of every one, summed into the shared array after the join; every
    /// other array is written in place. The detector decides the list
    /// ([`crate::parallel::classify_level_in_nest`]), the emitter runs it
    /// and the certifier checks it.
    Reduction(Vec<usize>),
    /// Cross-iteration forward dependences only: point-to-point pipeline.
    Pipeline,
    /// Execute this loop and its immediate inner loop as diagonal
    /// wavefronts (`w = u + v`), each diagonal's cells in parallel with a
    /// barrier between diagonals — the doall-only alternative the paper's
    /// pipeline construct is compared against (Fig. 6). Sequential
    /// execution order remains legal, so the interpreter treats it as a
    /// plain loop.
    Wavefront,
}

/// A counted loop `for var in lo..=hi step step`.
#[derive(Clone, Debug, PartialEq)]
pub struct Loop {
    /// Variable id (index into the interpreter's variable frame).
    pub var: usize,
    /// Display name (e.g. `c1`, `i_t`).
    pub name: String,
    /// Lower bound (`max` of ceils).
    pub lo: Bound,
    /// Upper bound, **inclusive** (`min` of floors).
    pub hi: Bound,
    /// Step, strictly positive.
    pub step: i64,
    /// Parallelism annotation.
    pub par: Par,
    /// Unroll-and-jam factor (Sec. IV-C register tiling); 1 means none.
    /// Like `par` it is a mark: the optimizer sets it, the certifier
    /// proves it and the emitter realizes it — guard-free, where the loop
    /// is emitted sequentially with no parallel region below it
    /// (`polymix_codegen::emit`). Everything else runs the loop in its
    /// original order.
    pub jam: i64,
    /// Loop body.
    pub body: Node,
}

impl Loop {
    /// Whether the tile loop with variable `tile` and step `step` clamps
    /// this loop to one tile, `[tile, tile + step - 1]`: a lower bound that
    /// is the bare tile variable and an upper bound of it plus `step - 1`,
    /// the point loop `strip_mine` and `tile_imperfect` make. A loop whose
    /// bounds merely mention `tile` (an interchanged point loop of another
    /// level) is not clamped by it.
    pub fn clamped_by(&self, tile: usize, step: i64) -> bool {
        let has = |b: &Bound, e: &LinExpr| b.exprs.iter().any(|be| be.denom == 1 && be.expr == *e);
        has(&self.lo, &LinExpr::var(tile)) && has(&self.hi, &LinExpr::var(tile).plus(step - 1))
    }
}

/// A statement instance: executes `scop.statements[stmt_idx]` with each
/// original iterator computed from the enclosing AST variables.
#[derive(Clone, Debug, PartialEq)]
pub struct StmtNode {
    /// Index into the owning SCoP's statement list.
    pub stmt_idx: usize,
    /// One expression per original iterator of the statement.
    pub iter_exprs: Vec<LinExpr>,
}

impl StmtNode {
    /// The subscript rows `map` of one of the statement's references
    /// (`polymix_ir::Access::map`, one row per array dimension) as
    /// coefficients of the loops `vars`: row `r` becomes, for each `v`,
    /// `Σ_m r[m] · iter_exprs[m].coeff_of(v)`.
    pub fn subscript_coeffs(&self, map: &[Vec<i64>], vars: &[usize]) -> Vec<Vec<i64>> {
        map.iter()
            .map(|row| {
                vars.iter()
                    .map(|&v| self.iter_exprs.iter().zip(row).map(|(e, &r)| r * e.coeff_of(v)).sum())
                    .collect()
            })
            .collect()
    }
}

/// A node of the loop tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// Sequential composition.
    Seq(Vec<Node>),
    /// A loop.
    Loop(Box<Loop>),
    /// Conditional execution: body runs iff every expression is `>= 0`.
    Guard(Vec<LinExpr>, Box<Node>),
    /// A statement instance.
    Stmt(StmtNode),
}

impl Node {
    /// Convenience constructor.
    pub fn loop_(l: Loop) -> Node {
        Node::Loop(Box::new(l))
    }

    /// Depth-first mutable visit of every loop in the tree.
    pub fn visit_loops_mut(&mut self, f: &mut impl FnMut(&mut Loop)) {
        match self {
            Node::Seq(xs) => xs.iter_mut().for_each(|x| x.visit_loops_mut(f)),
            Node::Loop(l) => {
                f(l);
                l.body.visit_loops_mut(f);
            }
            Node::Guard(_, b) => b.visit_loops_mut(f),
            Node::Stmt(_) => {}
        }
    }

    /// Depth-first visit of every loop in the tree.
    pub fn visit_loops(&self, f: &mut impl FnMut(&Loop)) {
        match self {
            Node::Seq(xs) => xs.iter().for_each(|x| x.visit_loops(f)),
            Node::Loop(l) => {
                f(l);
                l.body.visit_loops(f);
            }
            Node::Guard(_, b) => b.visit_loops(f),
            Node::Stmt(_) => {}
        }
    }

    /// Depth-first visit of every statement node.
    pub fn visit_stmts(&self, f: &mut impl FnMut(&StmtNode)) {
        match self {
            Node::Seq(xs) => xs.iter().for_each(|x| x.visit_stmts(f)),
            Node::Loop(l) => l.body.visit_stmts(f),
            Node::Guard(_, b) => b.visit_stmts(f),
            Node::Stmt(s) => f(s),
        }
    }

    /// Rewrites every affine expression in the subtree (bounds, guards and
    /// statement iterator expressions) through `f`.
    pub fn map_exprs(&mut self, f: &impl Fn(&LinExpr) -> LinExpr) {
        match self {
            Node::Seq(xs) => xs.iter_mut().for_each(|x| x.map_exprs(f)),
            Node::Loop(l) => {
                l.lo = l.lo.map(f);
                l.hi = l.hi.map(f);
                l.body.map_exprs(f);
            }
            Node::Guard(gs, b) => {
                for g in gs.iter_mut() {
                    *g = f(g);
                }
                b.map_exprs(f);
            }
            Node::Stmt(s) => {
                for e in s.iter_exprs.iter_mut() {
                    *e = f(e);
                }
            }
        }
    }

    /// Substitutes `replacement` for variable `v` throughout the subtree.
    pub fn subst_var(&mut self, v: usize, replacement: &LinExpr) {
        self.map_exprs(&|e| e.subst(v, replacement));
    }

    /// Number of statement instances syntactically in the subtree.
    pub fn count_stmts(&self) -> usize {
        let mut n = 0;
        self.visit_stmts(&mut |_| n += 1);
        n
    }
}

/// A complete optimizable/executable program: the owning SCoP plus the
/// current loop tree.
#[derive(Clone, Debug)]
pub struct Program {
    /// The SCoP supplying statement bodies, arrays and parameters.
    pub scop: Scop,
    /// The loop tree.
    pub body: Node,
    /// Number of loop-variable slots allocated (ids are `0..n_vars`).
    pub n_vars: usize,
    /// What the tiling stage did, one entry per top-level nest it saw
    /// (empty for a program that never went through it). A record of
    /// the optimizer's decision: nothing executes or emits from it.
    pub tiling: Vec<TileReport>,
    /// Pipeline marks the poly+AST flow turned sequential because the
    /// certifier refused a phased pipeline (`polymix_core::flow`): a
    /// record, like `tiling`.
    pub demoted: usize,
}

/// The form the tiling stage gave one top-level nest
/// (`polymix_codegen::opt::tile_nest` explains them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileForm {
    /// No loop of the nest was strip-mined.
    None,
    /// Emitted untiled: no tree `tile_nest` built for the nest was priced
    /// 25 % below the untiled one (`TileReport::dl`).
    Declined,
    /// Perfect chains strip-mined where they stand.
    Chains,
    /// A shared outer band tiled jointly by clamping, possibly with
    /// chains below it.
    Joint,
    /// Shared loops strip-mined, their point loops distributed over the
    /// fused children and sunk under each child's own tile loops.
    Sunk,
}

/// Per-nest outcome of the tiling stage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TileReport {
    /// Which form the nest took.
    pub form: TileForm,
    /// Statements of the nest `tile_nest` left with a loop around them
    /// that was not strip-mined; 0 for a nest emitted untiled.
    pub untiled: usize,
    /// The DL prices per iteration of the trees the poly+AST flow
    /// compared: the untiled nest's and the cheapest tiled one's; `None`
    /// where nothing was priced (the Pluto baseline tiles every band).
    pub dl: Option<(f64, f64)>,
    /// The tile size of the emitted tree's space levels; 0 for a nest
    /// emitted untiled.
    pub tile: i64,
    /// Guard conjuncts the emitted tree no longer tests after guard
    /// separation (`crate::separate`); the Pluto baseline never asks.
    pub guards: usize,
    /// Whether some tile's point loops were put in vector order
    /// (`polymix_codegen::opt::order_point_loops`); the Pluto baseline
    /// never asks.
    pub reordered: bool,
}

impl Program {
    /// The same SCoP and variable slots around another loop tree, with
    /// no tiling record: how a stage asks the certifier about one nest
    /// of a program it is still building.
    pub fn with_body(&self, body: Node) -> Program {
        Program {
            scop: self.scop.clone(),
            body,
            n_vars: self.n_vars,
            tiling: Vec::new(),
            demoted: 0,
        }
    }

    /// Allocates a fresh loop-variable slot.
    pub fn fresh_var(&mut self) -> usize {
        self.n_vars += 1;
        self.n_vars - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linexpr_algebra() {
        let e = LinExpr::var(0).add_scaled(&LinExpr::var(1), 2).plus(3);
        assert_eq!(e.eval(&[10, 20], &[]), 10 + 40 + 3);
        let s = e.subst(1, &LinExpr::param(0).plus(-1));
        // 0: v0 + 2*(p0 - 1) + 3 = v0 + 2 p0 + 1
        assert_eq!(s.eval(&[10, 999], &[5]), 10 + 10 + 1);
        assert_eq!(s.coeff_of(1), 0);
    }

    #[test]
    fn linexpr_normalization_merges_terms() {
        let e = LinExpr::var(2).add(&LinExpr::var(2)).add(&LinExpr::var(1));
        assert_eq!(e.var_coeffs, vec![(1, 1), (2, 2)]);
        let z = e.add_scaled(&LinExpr::var(2), -2);
        assert_eq!(z.var_coeffs, vec![(1, 1)]);
    }

    #[test]
    fn bound_evaluation_max_min_and_division() {
        // lower: max(0, (v0 - 3)/2 ceil), upper: min(9, v0).
        let lo = Bound {
            exprs: vec![
                BoundExpr {
                    expr: LinExpr::con(0),
                    denom: 1,
                },
                BoundExpr {
                    expr: LinExpr::var(0).plus(-3),
                    denom: 2,
                },
            ],
        };
        let hi = Bound {
            exprs: vec![
                BoundExpr {
                    expr: LinExpr::con(9),
                    denom: 1,
                },
                BoundExpr {
                    expr: LinExpr::var(0),
                    denom: 1,
                },
            ],
        };
        assert_eq!(lo.eval_lower(&[8], &[]), 3); // ceil(5/2) = 3
        assert_eq!(lo.eval_lower(&[2], &[]), 0);
        assert_eq!(hi.eval_upper(&[7], &[]), 7);
        assert_eq!(hi.eval_upper(&[100], &[]), 9);
    }

    #[test]
    fn node_substitution_reaches_everything() {
        let mut n = Node::Loop(Box::new(Loop {
            var: 1,
            name: "j".into(),
            lo: Bound::of(LinExpr::var(0)),
            hi: Bound::of(LinExpr::var(0).plus(4)),
            step: 1,
            par: Par::Seq,
            jam: 1,
            body: Node::Stmt(StmtNode {
                stmt_idx: 0,
                iter_exprs: vec![LinExpr::var(0), LinExpr::var(1)],
            }),
        }));
        // Replace v0 by 2*v2 + 1 everywhere.
        let r = LinExpr::var(2).scale(2).plus(1);
        n.subst_var(0, &r);
        match &n {
            Node::Loop(l) => {
                assert_eq!(l.lo.exprs[0].expr.eval(&[0, 0, 3], &[]), 7);
                match &l.body {
                    Node::Stmt(s) => {
                        assert_eq!(s.iter_exprs[0].eval(&[0, 0, 3], &[]), 7);
                        assert_eq!(s.iter_exprs[1].eval(&[0, 9, 3], &[]), 9);
                    }
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn count_stmts_walks_guards_and_seqs() {
        let s = Node::Stmt(StmtNode {
            stmt_idx: 0,
            iter_exprs: vec![],
        });
        let g = Node::Guard(vec![LinExpr::con(1)], Box::new(s.clone()));
        let n = Node::Seq(vec![s, g]);
        assert_eq!(n.count_stmts(), 2);
    }

    #[test]
    fn is_const_detection() {
        assert_eq!(Bound::con(5).is_const(), Some(5));
        assert_eq!(Bound::of(LinExpr::var(0)).is_const(), None);
        assert_eq!(Bound::of(LinExpr::param(0)).is_const(), None);
    }
}
