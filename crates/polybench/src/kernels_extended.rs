//! Extended suite: PolyBench kernels *beyond* the paper's Table II
//! (`lu`, `trmm`, `gramschmidt`). They are not part of the reproduced
//! figures, but their triangular, in-place and normalization-heavy
//! dependence patterns stress the optimizers in ways the Table II set
//! does not, so the equivalence tests include them.

use crate::kernel::{Dataset, Group, InitSpec, Kernel};
use polymix_ir::builder::{con, ix, par, ScopBuilder};
use polymix_ir::{BinOp, Expr, Scop};

fn a(v: f64) -> Expr {
    Expr::Const(v)
}

/// `lu`: in-place LU decomposition of a diagonally dominant matrix.
pub fn lu() -> Kernel {
    fn build() -> Scop {
        let mut b = ScopBuilder::new("lu", &["N"], &[8]);
        let aa = b.array("A", &["N", "N"]);
        b.enter("k", con(0), par("N"));
        b.enter("j", ix("k") + con(1), par("N"));
        let div = Expr::div(
            b.rd(aa, &[ix("k"), ix("j")]),
            b.rd(aa, &[ix("k"), ix("k")]),
        );
        b.stmt("S0", aa, &[ix("k"), ix("j")], div);
        b.exit();
        b.enter("i", ix("k") + con(1), par("N"));
        b.enter("j", ix("k") + con(1), par("N"));
        let prod = Expr::mul(
            b.rd(aa, &[ix("i"), ix("k")]),
            b.rd(aa, &[ix("k"), ix("j")]),
        );
        b.stmt_update("S1", aa, &[ix("i"), ix("j")], BinOp::Sub, prod);
        b.exit();
        b.exit();
        b.exit();
        b.finish().expect("well-formed SCoP")
    }
    fn reference(p: &[i64], arr: &mut [Vec<f64>]) {
        let n = p[0] as usize;
        let aa = &mut arr[0];
        for k in 0..n {
            for j in k + 1..n {
                aa[k * n + j] /= aa[k * n + k];
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    aa[i * n + j] -= aa[i * n + k] * aa[k * n + j];
                }
            }
        }
    }
    Kernel {
        name: "lu",
        description: "LU decomposition (extended suite)",
        group: Group::Reduction,
        build,
        reference,
        flops: |p| (2 * p[0] * p[0] * p[0] / 3) as u64,
        datasets: || {
            vec![
                Dataset { name: "mini", params: vec![16] },
                Dataset { name: "small", params: vec![128] },
                Dataset { name: "standard", params: vec![512] },
                Dataset { name: "large", params: vec![1024] },
            ]
        },
        init: InitSpec::diag(&[0]),
    }
}

/// `trmm`: triangular matrix multiply `B += alpha·A·B` with `A` strictly
/// lower-triangular accesses (the PolyBench/C 3.2 shape).
pub fn trmm() -> Kernel {
    const ALPHA: f64 = 1.5;
    fn build() -> Scop {
        let mut b = ScopBuilder::new("trmm", &["N"], &[8]);
        let aa = b.array("A", &["N", "N"]);
        let bb = b.array("B", &["N", "N"]);
        b.enter("i", con(1), par("N"));
        b.enter("j", con(0), par("N"));
        b.enter("k", con(0), ix("i"));
        let prod = Expr::mul(
            Expr::mul(a(1.5), b.rd(aa, &[ix("i"), ix("k")])),
            b.rd(bb, &[ix("j"), ix("k")]),
        );
        b.stmt_update("S", bb, &[ix("i"), ix("j")], BinOp::Add, prod);
        b.exit();
        b.exit();
        b.exit();
        b.finish().expect("well-formed SCoP")
    }
    fn reference(p: &[i64], arr: &mut [Vec<f64>]) {
        let n = p[0] as usize;
        let (aa, bb) = arr.split_at_mut(1);
        let (aa, bb) = (&aa[0], &mut bb[0]);
        for i in 1..n {
            for j in 0..n {
                for k in 0..i {
                    bb[i * n + j] += ALPHA * aa[i * n + k] * bb[j * n + k];
                }
            }
        }
    }
    Kernel {
        name: "trmm",
        description: "Triangular matrix multiply (extended suite)",
        group: Group::Reduction,
        build,
        reference,
        flops: |p| (p[0] * p[0] * p[0]) as u64,
        datasets: || {
            vec![
                Dataset { name: "mini", params: vec![14] },
                Dataset { name: "small", params: vec![96] },
                Dataset { name: "standard", params: vec![384] },
                Dataset { name: "large", params: vec![768] },
            ]
        },
        init: InitSpec::generic(),
    }
}

/// `gramschmidt`: modified Gram–Schmidt QR factorization (scalar `nrm`
/// expanded to `nrm[k]`).
pub fn gramschmidt() -> Kernel {
    fn build() -> Scop {
        let mut b = ScopBuilder::new("gramschmidt", &["N", "M"], &[8, 6]);
        // A is N x M (N rows, M columns); factorize columns.
        let aa = b.array("A", &["N", "M"]);
        let r = b.array("R", &["M", "M"]);
        let q = b.array("Q", &["N", "M"]);
        let nrm = b.array("nrm", &["M"]);
        b.enter("k", con(0), par("M"));
        b.stmt("N0", nrm, &[ix("k")], a(0.0));
        b.enter("i", con(0), par("N"));
        let sq = Expr::mul(b.rd(aa, &[ix("i"), ix("k")]), b.rd(aa, &[ix("i"), ix("k")]));
        b.stmt_update("N1", nrm, &[ix("k")], BinOp::Add, sq);
        b.exit();
        let rt = Expr::sqrt(b.rd(nrm, &[ix("k")]));
        b.stmt("N2", r, &[ix("k"), ix("k")], rt);
        b.enter("i", con(0), par("N"));
        let div = Expr::div(b.rd(aa, &[ix("i"), ix("k")]), b.rd(r, &[ix("k"), ix("k")]));
        b.stmt("Q0", q, &[ix("i"), ix("k")], div);
        b.exit();
        b.enter("j", ix("k") + con(1), par("M"));
        b.stmt("R0", r, &[ix("k"), ix("j")], a(0.0));
        b.enter("i", con(0), par("N"));
        let prod = Expr::mul(b.rd(q, &[ix("i"), ix("k")]), b.rd(aa, &[ix("i"), ix("j")]));
        b.stmt_update("R1", r, &[ix("k"), ix("j")], BinOp::Add, prod);
        b.exit();
        b.enter("i", con(0), par("N"));
        let prod = Expr::mul(b.rd(q, &[ix("i"), ix("k")]), b.rd(r, &[ix("k"), ix("j")]));
        b.stmt_update("A0", aa, &[ix("i"), ix("j")], BinOp::Sub, prod);
        b.exit();
        b.exit();
        b.exit();
        b.finish().expect("well-formed SCoP")
    }
    fn reference(p: &[i64], arr: &mut [Vec<f64>]) {
        let (n, m) = (p[0] as usize, p[1] as usize);
        let (aa, rest) = arr.split_at_mut(1);
        let aa = &mut aa[0];
        let (r, rest2) = rest.split_at_mut(1);
        let r = &mut r[0];
        let (q, nrm) = rest2.split_at_mut(1);
        let (q, nrm) = (&mut q[0], &mut nrm[0]);
        for k in 0..m {
            nrm[k] = 0.0;
            for i in 0..n {
                nrm[k] += aa[i * m + k] * aa[i * m + k];
            }
            r[k * m + k] = nrm[k].sqrt();
            for i in 0..n {
                q[i * m + k] = aa[i * m + k] / r[k * m + k];
            }
            for j in k + 1..m {
                r[k * m + j] = 0.0;
                for i in 0..n {
                    r[k * m + j] += q[i * m + k] * aa[i * m + j];
                }
                for i in 0..n {
                    aa[i * m + j] -= q[i * m + k] * r[k * m + j];
                }
            }
        }
    }
    Kernel {
        name: "gramschmidt",
        description: "Gram-Schmidt QR decomposition (extended suite)",
        group: Group::Reduction,
        build,
        reference,
        flops: |p| (p[1] * (2 * p[0] + 2) + p[1] * p[1] * 2 * p[0]) as u64,
        datasets: || {
            vec![
                Dataset { name: "mini", params: vec![10, 8] },
                Dataset { name: "small", params: vec![96, 96] },
                Dataset { name: "standard", params: vec![256, 256] },
                Dataset { name: "large", params: vec![512, 512] },
            ]
        },
        // The generic fill repeats a row of A every 1024 / gcd(M, 1024)
        // rows (4 at M = 256, 32 at M = 96): boost the diagonal for full
        // column rank, or a column's norm reaches zero.
        init: InitSpec::diag(&[0]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// At every size the sweeps run, every reference result is finite:
    /// the generic fill is periodic in the flat index and repeats rows,
    /// so a factorization whose input is not boosted can divide by zero
    /// (gramschmidt's did at `standard`).
    #[test]
    fn extended_kernels_run_finite() {
        for k in [lu(), trmm(), gramschmidt()] {
            let scop = (k.build)();
            for ds in ["mini", "small", "standard"] {
                let params = k.dataset(ds).params;
                let mut arrays = k.fresh_arrays(&scop, &params);
                (k.reference)(&params, &mut arrays);
                for (ai, arr) in arrays.iter().enumerate() {
                    assert!(
                        arr.iter().all(|x| x.is_finite()),
                        "{} {ds} array {ai} non-finite",
                        k.name
                    );
                }
                let sum = crate::checksum(&scop, &arrays);
                assert!(sum.is_finite(), "{} {ds}: checksum {sum}", k.name);
            }
        }
    }

    #[test]
    fn lu_factorization_reconstructs_matrix() {
        let k = lu();
        let scop = (k.build)();
        let params = vec![6i64];
        let mut arrays = k.fresh_arrays(&scop, &params);
        let orig = arrays[0].clone();
        (k.reference)(&params, &mut arrays);
        let n = 6usize;
        let f = &arrays[0];
        // This 3.2 formulation leaves, for i > k: A[i][k] = L[i][k]·U[k][k]
        // (the undivided multiplier column) and, for j > k:
        // A[k][j] = U[k][j]/U[k][k] (the scaled pivot row).
        let l = |i: usize, j: usize| {
            if i == j {
                1.0
            } else if j < i {
                f[i * n + j] / f[j * n + j]
            } else {
                0.0
            }
        };
        let u = |i: usize, j: usize| {
            if j > i { f[i * n + j] * f[i * n + i] } else if j == i { f[i * n + i] } else { 0.0 }
        };
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..n {
                    s += l(i, kk) * u(kk, j);
                }
                assert!(
                    (s - orig[i * n + j]).abs() < 1e-6 * orig[i * n + j].abs().max(1.0),
                    "LU[{i}][{j}] = {s} vs {}",
                    orig[i * n + j]
                );
            }
        }
    }

    #[test]
    fn gramschmidt_produces_orthonormal_columns() {
        let k = gramschmidt();
        let scop = (k.build)();
        let params = vec![12i64, 6];
        let mut arrays = k.fresh_arrays(&scop, &params);
        // The generic init is affine in the flat index, making small
        // matrices rank-deficient (Gram–Schmidt needs full column rank):
        // overwrite A with a nonlinear full-rank pattern.
        for (idx, x) in arrays[0].iter_mut().enumerate() {
            let (i, j) = (idx / 6, idx % 6);
            *x = ((i * i * 5 + 3 * i * j + j * j * 7 + 11) % 23) as f64 / 23.0 + 0.1;
        }
        (k.reference)(&params, &mut arrays);
        let (n, m) = (12usize, 6usize);
        let q = &arrays[2];
        for c1 in 0..m {
            for c2 in 0..m {
                let dot: f64 = (0..n).map(|i| q[i * m + c1] * q[i * m + c2]).sum();
                let expect = if c1 == c2 { 1.0 } else { 0.0 };
                assert!(
                    (dot - expect).abs() < 1e-6,
                    "Q^T Q [{c1}][{c2}] = {dot}"
                );
            }
        }
    }
}
