//! Stable text rendering of programs, for diagnostics and snapshot tests.

use crate::tree::{Bound, LinExpr, Node, Par, Program};
use std::collections::HashMap;
use std::fmt::Write;

/// Renders the program's loop tree as indented pseudo-code.
pub fn render(prog: &Program) -> String {
    let mut names: HashMap<usize, String> = HashMap::new();
    collect_names(&prog.body, &mut names);
    let mut out = String::new();
    walk(prog, &prog.body, 0, &names, &mut out);
    out
}

fn collect_names(node: &Node, names: &mut HashMap<usize, String>) {
    match node {
        Node::Seq(xs) => xs.iter().for_each(|x| collect_names(x, names)),
        Node::Guard(_, b) => collect_names(b, names),
        Node::Loop(l) => {
            names.entry(l.var).or_insert_with(|| l.name.clone());
            collect_names(&l.body, names);
        }
        Node::Stmt(_) => {}
    }
}

fn expr_str(e: &LinExpr, names: &HashMap<usize, String>, params: &[String]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for &(v, c) in &e.var_coeffs {
        let n = names
            .get(&v)
            .cloned()
            .unwrap_or_else(|| format!("v{v}"));
        parts.push(term(c, &n, parts.is_empty()));
    }
    for &(p, c) in &e.param_coeffs {
        let n = params.get(p).cloned().unwrap_or_else(|| format!("p{p}"));
        parts.push(term(c, &n, parts.is_empty()));
    }
    if e.c != 0 || parts.is_empty() {
        if parts.is_empty() {
            parts.push(format!("{}", e.c));
        } else if e.c > 0 {
            parts.push(format!(" + {}", e.c));
        } else {
            parts.push(format!(" - {}", -e.c));
        }
    }
    parts.concat()
}

fn term(c: i64, name: &str, first: bool) -> String {
    match (c, first) {
        (1, true) => name.to_string(),
        (-1, true) => format!("-{name}"),
        (c, true) => format!("{c}*{name}"),
        (1, false) => format!(" + {name}"),
        (-1, false) => format!(" - {name}"),
        (c, false) if c > 0 => format!(" + {c}*{name}"),
        (c, false) => format!(" - {}*{name}", -c),
    }
}

fn bound_str(
    b: &Bound,
    lower: bool,
    names: &HashMap<usize, String>,
    params: &[String],
) -> String {
    let parts: Vec<String> = b
        .exprs
        .iter()
        .map(|be| {
            let s = expr_str(&be.expr, names, params);
            if be.denom == 1 {
                s
            } else if lower {
                format!("ceil({s}, {})", be.denom)
            } else {
                format!("floor({s}, {})", be.denom)
            }
        })
        .collect();
    if let [only] = parts.as_slice() {
        only.clone()
    } else if lower {
        format!("max({})", parts.join(", "))
    } else {
        format!("min({})", parts.join(", "))
    }
}

fn walk(
    prog: &Program,
    node: &Node,
    indent: usize,
    names: &HashMap<usize, String>,
    out: &mut String,
) {
    let pad = "  ".repeat(indent);
    match node {
        Node::Seq(xs) => xs.iter().for_each(|x| walk(prog, x, indent, names, out)),
        Node::Guard(gs, b) => {
            let conds: Vec<String> = gs
                .iter()
                .map(|g| format!("{} >= 0", expr_str(g, names, &prog.scop.params)))
                .collect();
            let _ = writeln!(out, "{pad}if {}:", conds.join(" && "));
            walk(prog, b, indent + 1, names, out);
        }
        Node::Loop(l) => {
            let kw = match l.par {
                Par::Seq => "for",
                Par::Doall => "parfor",
                Par::Reduction(_) => "redfor",
                Par::Pipeline => "pipefor",
                Par::Wavefront => "wavefor",
            };
            let lo = bound_str(&l.lo, true, names, &prog.scop.params);
            let hi = bound_str(&l.hi, false, names, &prog.scop.params);
            let step = if l.step == 1 {
                String::new()
            } else {
                format!(" step {}", l.step)
            };
            let jam = if l.jam > 1 {
                format!(" jam {}", l.jam)
            } else {
                String::new()
            };
            let _ = writeln!(out, "{pad}{kw} {} = {lo} .. {hi}{step}{jam}:", l.name);
            walk(prog, &l.body, indent + 1, names, out);
        }
        Node::Stmt(s) => {
            let stmt = &prog.scop.statements[s.stmt_idx];
            let args: Vec<String> = s
                .iter_exprs
                .iter()
                .map(|e| expr_str(e, names, &prog.scop.params))
                .collect();
            let _ = writeln!(out, "{pad}{}({})", stmt.name, args.join(", "));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Loop, StmtNode};
    use polymix_ir::builder::{con, ix, par, ScopBuilder};
    use polymix_ir::Expr;

    #[test]
    fn renders_loop_and_stmt() {
        let mut b = ScopBuilder::new("t", &["N"], &[4]);
        let a = b.array("A", &["N"]);
        b.enter("i", con(0), par("N"));
        b.stmt("S", a, &[ix("i")], Expr::Const(0.0));
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let prog = Program {
            scop,
            body: Node::loop_(Loop {
                var: 0,
                name: "i".into(),
                lo: Bound::con(0),
                hi: Bound::of(LinExpr::param(0).plus(-1)),
                step: 1,
                par: crate::tree::Par::Doall,
                jam: 1,
                body: Node::Stmt(StmtNode {
                    stmt_idx: 0,
                    iter_exprs: vec![LinExpr::var(0)],
                }),
            }),
            n_vars: 1,
            tiling: Vec::new(),
            demoted: 0,
        };
        let s = render(&prog);
        assert_eq!(s, "parfor i = 0 .. N - 1:\n  S(i)\n");
    }

    #[test]
    fn renders_max_min_bounds_and_guards() {
        let mut b = ScopBuilder::new("t", &["N"], &[4]);
        let a = b.array("A", &["N"]);
        b.enter("i", con(0), par("N"));
        b.stmt("S", a, &[ix("i")], Expr::Const(0.0));
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let lo = Bound {
            exprs: vec![
                crate::tree::BoundExpr {
                    expr: LinExpr::con(0),
                    denom: 1,
                },
                crate::tree::BoundExpr {
                    expr: LinExpr::param(0).plus(-8),
                    denom: 2,
                },
            ],
        };
        let prog = Program {
            scop,
            body: Node::loop_(Loop {
                var: 0,
                name: "i".into(),
                lo,
                hi: Bound::of(LinExpr::param(0).plus(-1)),
                step: 2,
                par: crate::tree::Par::Seq,
                jam: 1,
                body: Node::Guard(
                    vec![LinExpr::var(0).plus(-1)],
                    Box::new(Node::Stmt(StmtNode {
                        stmt_idx: 0,
                        iter_exprs: vec![LinExpr::var(0)],
                    })),
                ),
            }),
            n_vars: 1,
            tiling: Vec::new(),
            demoted: 0,
        };
        let s = render(&prog);
        assert!(s.contains("max(0, ceil(N - 8, 2))"), "{s}");
        assert!(s.contains("step 2"), "{s}");
        assert!(s.contains("if i - 1 >= 0:"), "{s}");
    }
}
