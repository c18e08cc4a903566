//! SCoP canonicalization: a structural key invariant under renaming.
//!
//! The service's cache must collapse structurally identical requests —
//! millions of clients optimizing the same GEMM shape should hit one
//! entry — so the cache key is derived from the SCoP's *structure*
//! (iteration domains, access functions, original schedules, statement
//! bodies) and never from names. Array, statement, iterator, parameter
//! and SCoP names are all excluded from the serialization; parameter
//! *positions* are normalized by minimizing the serialization over every
//! parameter-column permutation, so `gemm(NI, NJ, NK)` and the same
//! kernel written over `(P, Q, R)` in any order produce the same key.
//!
//! The dependence relation is a function of domains + accesses +
//! schedules, so including those three captures "dependence shape"
//! without re-running the dependence analysis on the request path.

use polymix_bench::runner::{fnv1a64, fnv1a64_lanes, FNV_OFFSET};
use polymix_ir::{BinOp, Expr, Scop, UnOp};
use polymix_math::CmpOp;
use std::fmt::Write as _;
use std::ops::Range;

/// Beyond this many structure parameters the permutation search
/// (factorial) is not worth it; the key falls back to the declared
/// parameter order and canonicalization is merely rename-invariant for
/// arrays/statements/iterators. PolyBench tops out at 4 parameters.
const MAX_PERM_PARAMS: usize = 6;

// Second, independent offset basis for the high half of the 128-bit
// key (a single 64-bit hash over millions of cached shapes is too
// collision-prone to gate replay of certified artifacts); the low half
// starts from the standard basis.
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;

/// The structural identity of a SCoP: 128 bits over the canonical
/// serialization. Used to shard the cache, key the circuit breaker, and
/// (together with a request fingerprint) name persistent cache entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalKey {
    /// High 64 bits (independent FNV basis).
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl CanonicalKey {
    /// 32-hex-digit rendering, used in entry file names.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Shard index in `0..shards` (from the high bits, which FNV mixes
    /// best).
    pub fn shard(&self, shards: usize) -> usize {
        (self.hi % shards.max(1) as u64) as usize
    }
}

/// Canonicalizes `scop` and returns its structural key.
pub fn canonical_key(scop: &Scop) -> CanonicalKey {
    let form = canonical_form(scop);
    let [hi, lo] = fnv1a64_lanes(form.as_bytes(), [FNV_OFFSET_B, FNV_OFFSET]);
    CanonicalKey { hi, lo }
}

/// The canonical serialization: the lexicographically smallest rendering
/// over all parameter-column permutations (identity only above
/// [`MAX_PERM_PARAMS`]). Exposed for tests; production callers want
/// [`canonical_key`].
///
/// Under every permutation the rendering is the same sequence of
/// segments, and a segment's renderings differ only in their numbers,
/// each followed by a separator, so none is a proper prefix of another:
/// the smallest whole is found by keeping, segment by segment, the
/// permutations whose segment is smallest, and appending that segment.
/// Usually the first array or two leave a single one, and the rest is
/// rendered once, for it, not `p!` times; permutations that survive
/// every segment render identically.
pub fn canonical_form(scop: &Scop) -> String {
    let p = scop.params.len();
    // Every permutation of `0..k` with `k` inserted at every place; above
    // the cap only at the end, which grows the identity alone.
    let mut candidates: Vec<Vec<usize>> = vec![Vec::new()];
    for k in 0..p {
        let first = if p <= MAX_PERM_PARAMS { 0 } else { k };
        let grown = |perm: &Vec<usize>| {
            let perm = perm.clone();
            (first..=k).map(move |at| [&perm[..at], &[k], &perm[at..]].concat())
        };
        candidates = candidates.iter().flat_map(grown).collect();
    }
    let mut out = String::with_capacity(1024);
    let (mut best, mut segment) = (String::new(), String::new());
    let mut k = 0;
    while k < segments(scop) && candidates.len() > 1 {
        let mut smallest = Vec::new();
        for perm in candidates {
            segment.clear();
            push_segment(&mut segment, scop, &perm, k);
            if smallest.is_empty() || segment < best {
                smallest.clear();
                std::mem::swap(&mut best, &mut segment);
            } else if segment != best {
                continue;
            }
            smallest.push(perm);
        }
        candidates = smallest;
        out.push_str(&best);
        k += 1;
    }
    for k in k..segments(scop) {
        push_segment(&mut out, scop, &candidates[0], k);
    }
    out
}

/// Serializes the SCoP structure with parameter columns reordered by
/// `perm` (`perm[j]` = the original parameter shown in column `j`).
/// Names never enter the output.
#[cfg(test)]
fn serialize(scop: &Scop, perm: &[usize]) -> String {
    let mut out = String::with_capacity(1024);
    for k in 0..segments(scop) {
        push_segment(&mut out, scop, perm, k);
    }
    out
}

/// How many segments [`push_segment`] renders: the header, one per
/// array, four per statement.
fn segments(scop: &Scop) -> usize {
    1 + scop.arrays.len() + 4 * scop.statements.len()
}

/// Segment `k` of the serialization under `perm`. Each ends in a
/// separator.
fn push_segment(out: &mut String, scop: &Scop, perm: &[usize], k: usize) {
    let Some(k) = k.checked_sub(1) else {
        out.push_str("scop p=");
        push_uint(out, perm.len());
        out.push(';');
        // Parameter lower bounds travel with their column.
        for &orig in perm {
            out.push_str("lb");
            push_int(out, scop.param_lower_bounds.get(orig).copied().unwrap_or(1));
            out.push(';');
        }
        return;
    };
    let Some(k) = k.checked_sub(scop.arrays.len()) else {
        let a = &scop.arrays[k];
        out.push_str("arr");
        for dim in &a.dims {
            push_param_row(out, dim, perm);
        }
        out.push('b');
        push_uint(out, a.elem_bytes);
        out.push(';');
        return;
    };
    let st = &scop.statements[k / 4];
    let d = st.dim;
    match k % 4 {
        0 => {
            out.push_str("stmt d=");
            push_uint(out, d);
            out.push_str(";dom");
            // Constraint order is not structural: normalize by sorting the
            // permuted renderings, each a range of one buffer.
            let mut rows = String::new();
            let mut ranges: Vec<Range<usize>> = st
                .domain
                .constraints()
                .map(|c| {
                    let start = rows.len();
                    rows.push_str(match c.op {
                        CmpOp::Ge => "Ge",
                        CmpOp::Eq => "Eq",
                    });
                    push_stmt_row(&mut rows, c.row, d, perm);
                    start..rows.len()
                })
                .collect();
            ranges.sort_by(|a, b| rows[a.clone()].cmp(&rows[b.clone()]));
            for r in ranges {
                out.push_str(&rows[r]);
            }
        }
        1 => {
            out.push('w');
            push_uint(out, st.write.array.0);
            for row in &st.write.map {
                push_stmt_row(out, row, d, perm);
            }
            out.push(';');
        }
        2 => {
            out.push_str("body");
            push_expr(out, &st.body, d, perm);
            out.push(';');
        }
        _ => {
            out.push_str("sch b");
            for &b in &st.schedule.beta {
                push_entry(out, b);
            }
            out.push('a');
            for r in 0..st.schedule.alpha.rows() {
                push_plain_row(out, st.schedule.alpha.row(r));
            }
            out.push('g');
            for row in &st.schedule.gamma {
                push_param_row(out, row, perm);
            }
            out.push(';');
        }
    }
}

/// Appends `v` in decimal, the digits `write!(out, "{v}")` appends,
/// without the formatting machinery: the permutation search renders
/// every integer of a segment once per surviving permutation.
fn push_int(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_digits(out, v.unsigned_abs());
}

/// [`push_int`] for a count or an index.
fn push_uint(out: &mut String, v: usize) {
    push_digits(out, v as u64);
}

fn push_digits(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Appends `v` followed by a comma: one entry of a rendered row.
fn push_entry(out: &mut String, v: i64) {
    push_int(out, v);
    out.push(',');
}

/// A row laid out `[params | 1]`: permute the parameter segment.
fn push_param_row(out: &mut String, row: &[i64], perm: &[usize]) {
    out.push('[');
    for &orig in perm {
        push_entry(out, row.get(orig).copied().unwrap_or(0));
    }
    out.push('|');
    push_int(out, row.last().copied().unwrap_or(0));
    out.push(']');
}

/// A statement-local row `[iters | params | 1]` (or `[iters | params]`
/// for domain constraint rows whose constant rides separately — the
/// caller passes whatever tail exists): iterator columns verbatim, then
/// the permuted parameter segment, then any remaining tail columns.
fn push_stmt_row(out: &mut String, row: &[i64], d: usize, perm: &[usize]) {
    let p = perm.len();
    out.push('[');
    for &c in row.iter().take(d) {
        push_entry(out, c);
    }
    out.push('|');
    for &orig in perm {
        push_entry(out, row.get(d + orig).copied().unwrap_or(0));
    }
    out.push('|');
    for &c in row.iter().skip(d + p) {
        push_entry(out, c);
    }
    out.push(']');
}

/// A row with no parameter columns (schedule α rows over iterators).
fn push_plain_row(out: &mut String, row: &[i64]) {
    out.push('[');
    for &c in row {
        push_entry(out, c);
    }
    out.push(']');
}

/// Expression skeleton: operators, array ids, subscript rows, literal
/// bit patterns. Iterator indices are positional (already canonical);
/// parameter references are shown at their permuted position. Operators
/// are spelled as their `Debug` names.
fn push_expr(out: &mut String, e: &Expr, d: usize, perm: &[usize]) {
    match e {
        Expr::Const(c) => {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            let bits = c.to_bits();
            out.push('c');
            let digit = |n: u64| char::from(HEX[(bits >> (4 * n)) as usize & 0xf]);
            out.extend((0..16).rev().map(digit));
        }
        Expr::Iter(k) => {
            out.push('i');
            push_uint(out, *k);
        }
        Expr::Param(k) => {
            out.push('p');
            push_uint(out, perm.iter().position(|&o| o == *k).unwrap_or(*k));
        }
        Expr::Read { array, subs } => {
            out.push('r');
            push_uint(out, array.0);
            for row in subs {
                push_stmt_row(out, row, d, perm);
            }
        }
        Expr::Bin(op, a, b) => {
            out.push('(');
            out.push_str(match op {
                BinOp::Add => "Add",
                BinOp::Sub => "Sub",
                BinOp::Mul => "Mul",
                BinOp::Div => "Div",
            });
            push_expr(out, a, d, perm);
            out.push(' ');
            push_expr(out, b, d, perm);
            out.push(')');
        }
        Expr::Un(op, a) => {
            out.push('(');
            out.push_str(match op {
                UnOp::Neg => "Neg",
                UnOp::Sqrt => "Sqrt",
                UnOp::Exp => "Exp",
            });
            push_expr(out, a, d, perm);
            out.push(')');
        }
    }
}

/// A 64-bit fingerprint over the request-side knobs that select *which*
/// optimized artifact is wanted for a canonical shape: variant, tile
/// sizes, unroll factors, concrete parameter values (emitted sources are
/// parameter-specialized until the parametric-bounds work lands), thread
/// count and timing reps. Together with the [`CanonicalKey`] this names
/// one persistent cache entry.
pub fn request_fingerprint(
    variant: &str,
    tile: i64,
    time_tile: i64,
    unroll: (i64, i64),
    params: &[i64],
    threads: usize,
    reps: usize,
) -> u64 {
    let mut s = String::with_capacity(64);
    let _ = write!(
        s,
        "v={variant};t={tile};tt={time_tile};u={},{};th={threads};r={reps};p=",
        unroll.0, unroll.1
    );
    for v in params {
        let _ = write!(s, "{v},");
    }
    fnv1a64(s.as_bytes(), FNV_OFFSET)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymix_ir::{con, ix, par, ScopBuilder};
    use polymix_polybench::{all_kernels, extended_kernels};

    /// The definition, by enumeration: every permutation serialized in
    /// full, the smallest string kept.
    fn permute_min(scop: &Scop, perm: &mut Vec<usize>, k: usize, best: &mut Option<String>) {
        if k == perm.len() {
            let s = serialize(scop, perm);
            if best.as_ref().is_none_or(|b| s < *b) {
                *best = Some(s);
            }
            return;
        }
        for i in k..perm.len() {
            perm.swap(k, i);
            permute_min(scop, perm, k + 1, best);
            perm.swap(k, i);
        }
    }

    #[test]
    fn canonical_form_is_the_brute_force_minimum() {
        let orders = [[0, 1, 2], [2, 0, 1], [1, 2, 0]];
        let gemms = orders.map(|o| gemm_like(["NI", "NJ", "NK"], o));
        let suite = all_kernels().into_iter().map(|k| (k.build)());
        for scop in suite.chain(gemms) {
            let mut best = None;
            let mut perm: Vec<usize> = (0..scop.params.len()).collect();
            permute_min(&scop, &mut perm, 0, &mut best);
            assert_eq!(Some(canonical_form(&scop)), best, "{}", scop.name);
        }
    }

    /// `C[i][j] += A[i][k] * B[k][j]` over (rows, cols, inner) with the
    /// given parameter names and declaration order.
    fn gemm_like(names: [&str; 3], order: [usize; 3]) -> Scop {
        // `order` maps semantic roles (NI, NJ, NK) to declaration slots.
        let mut decl = ["", "", ""];
        let mut defaults = [0i64; 3];
        let sizes = [8, 9, 10];
        for (role, &slot) in order.iter().enumerate() {
            decl[slot] = names[role];
            defaults[slot] = sizes[role];
        }
        let mut b = ScopBuilder::new("anon", &decl, &defaults);
        let ni = par(names[0]);
        let nj = par(names[1]);
        let nk = par(names[2]);
        let a = b.array_dims("A", vec![ni.clone(), nk.clone()]);
        let c = b.array_dims("B", vec![nk.clone(), nj.clone()]);
        let out = b.array_dims("C", vec![ni.clone(), nj.clone()]);
        b.enter("i", con(0), ni);
        b.enter("j", con(0), nj);
        b.enter("k", con(0), nk);
        let rhs = Expr::mul(
            b.rd(a, &[ix("i"), ix("k")]),
            b.rd(c, &[ix("k"), ix("j")]),
        );
        b.stmt_update("S", out, &[ix("i"), ix("j")], polymix_ir::BinOp::Add, rhs);
        b.exit();
        b.exit();
        b.exit();
        b.finish().expect("scop builds")
    }

    #[test]
    fn key_is_invariant_under_parameter_renaming_and_reordering() {
        let base = gemm_like(["NI", "NJ", "NK"], [0, 1, 2]);
        let renamed = gemm_like(["P", "Q", "R"], [0, 1, 2]);
        let reordered = gemm_like(["NI", "NJ", "NK"], [2, 0, 1]);
        let k0 = canonical_key(&base);
        assert_eq!(k0, canonical_key(&renamed), "renaming must not change the key");
        assert_eq!(
            k0,
            canonical_key(&reordered),
            "parameter declaration order must not change the key"
        );
    }

    #[test]
    fn key_distinguishes_structure() {
        let base = gemm_like(["NI", "NJ", "NK"], [0, 1, 2]);
        // Same loop nest, different body (add instead of mul).
        let mut b = ScopBuilder::new("anon", &["NI", "NJ", "NK"], &[8, 9, 10]);
        let ni = par("NI");
        let nj = par("NJ");
        let nk = par("NK");
        let a = b.array_dims("A", vec![ni.clone(), nk.clone()]);
        let c = b.array_dims("B", vec![nk.clone(), nj.clone()]);
        let out = b.array_dims("C", vec![ni.clone(), nj.clone()]);
        b.enter("i", con(0), ni);
        b.enter("j", con(0), nj);
        b.enter("k", con(0), nk);
        let rhs = Expr::add(
            b.rd(a, &[ix("i"), ix("k")]),
            b.rd(c, &[ix("k"), ix("j")]),
        );
        b.stmt_update("S", out, &[ix("i"), ix("j")], polymix_ir::BinOp::Add, rhs);
        b.exit();
        b.exit();
        b.exit();
        let other = b.finish().expect("scop builds");
        assert_ne!(canonical_key(&base), canonical_key(&other));
    }

    #[test]
    fn suite_kernels_have_distinct_keys() {
        let mut keys = std::collections::HashSet::new();
        for k in all_kernels() {
            let scop = (k.build)();
            assert!(
                keys.insert(canonical_key(&scop)),
                "{}: canonical key collides with another suite kernel",
                k.name
            );
        }
    }

    /// Every served kernel's key, as persisted in entry file names. A
    /// key that moves orphans every entry written before it, so a change
    /// that moves one must bump `CACHE_VERSION` and repin these.
    #[test]
    fn suite_keys_are_pinned() {
        let pinned = [
            ("2mm", "2c4ed131a718cb456db8bec60707a026"),
            ("3mm", "7642869d6a4a18a1969778b21f6db156"),
            ("adi", "4888b5d3b79d481e7b7b1d2f9a708f53"),
            ("atax", "505d6e915d3bb70fc214bf99fb65592a"),
            ("bicg", "a0cf6665602202c1e57c2f75a02fcd04"),
            ("cholesky", "db35356de568cbb135905e824f2aaeee"),
            ("correlation", "3e8a1a0ab90c3783aa213ada8e12493a"),
            ("covariance", "8e667e4feabd0f1d0c5ff036974e5be6"),
            ("doitgen", "f8ed7b189e23bfa60244c6987f65a40f"),
            ("fdtd-2d", "2c8f3692b84532b37cdec8d6d1754b82"),
            ("fdtd-apml", "f62cf09c19657719526c9ddb678c389c"),
            ("gemm", "8c924b01eced215a86953e539d3fcbb7"),
            ("gemver", "04b3b429ccfcd066413740fa98e29a6f"),
            ("gesummv", "8e70136019e5e268c9113f2a74e26ce7"),
            ("jacobi-1d-imper", "0408d8e01cf616203917c3d3d3e937b9"),
            ("jacobi-2d-imper", "06612de24847ef7125735c5f52c0a322"),
            ("mvt", "3b0fc89af1f1c10c12de396d9ef7429d"),
            ("seidel-2d", "9ab8bf0e8d4cb8ea9f0ebb5ae106e1c5"),
            ("symm", "cfd9cf3ba25a04140cbfb08d956dfbb7"),
            ("syr2k", "4ee55508e324fdbe8b5f20e3ced81bd1"),
            ("syrk", "971eca0cd7ebe82861af1953ac6494b1"),
            ("trisolv", "d44a5945ca6923bde8a3533cca52c8fa"),
            ("lu", "277ee4bf528463b3039c383202e1d636"),
            ("trmm", "68c8c01bdc47a0ba67905bc15ead00a9"),
            ("gramschmidt", "132dcfaf0e062622a84ef86fe6edfcc7"),
        ];
        let kernels = all_kernels().into_iter().chain(extended_kernels());
        let keys: Vec<(&str, String)> = kernels
            .map(|k| (k.name, canonical_key(&(k.build)()).hex()))
            .collect();
        let pinned: Vec<(&str, String)> = pinned.iter().map(|&(n, h)| (n, h.to_string())).collect();
        assert_eq!(keys, pinned);
    }

    #[test]
    fn fingerprint_feeds_every_knob() {
        let f = |t, tt, u, p: &[i64]| request_fingerprint("poly+ast", t, tt, u, p, 4, 2);
        let base = f(32, 32, (1, 1), &[8, 8, 8]);
        assert_ne!(base, f(16, 32, (1, 1), &[8, 8, 8]));
        assert_ne!(base, f(32, 5, (1, 1), &[8, 8, 8]));
        assert_ne!(base, f(32, 32, (2, 2), &[8, 8, 8]));
        assert_ne!(base, f(32, 32, (1, 1), &[8, 8, 16]));
        assert_ne!(
            base,
            request_fingerprint("pocc", 32, 32, (1, 1), &[8, 8, 8], 4, 2)
        );
    }
}
