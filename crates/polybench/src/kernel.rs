//! The kernel abstraction: SCoP builder + reference + metadata.

use polymix_ir::Scop;

/// Which figure of the paper's evaluation the benchmark belongs to,
/// following the stated grouping rule ("divided … based on the major
/// source of parallelism").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// Fig. 7 — doall parallelism is dominant.
    Doall,
    /// Fig. 8 — memory-bound / reduction-heavy kernels.
    Reduction,
    /// Fig. 9 — pipeline parallelism (time-iterated stencils).
    Pipeline,
}

/// A named problem size.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// `mini` / `small` / `standard` / `large`.
    pub name: &'static str,
    /// Parameter values, in the SCoP's parameter order.
    pub params: Vec<i64>,
}

/// Input initialization policy, implemented identically by the in-process
/// runner ([`Kernel::apply_init`]) and the emitted-Rust generator
/// ([`Kernel::init_rust`]).
///
/// Every element of every array starts at the generic value
/// `((k*7 + 13*array_index) % 1024 + 1) / 1024.0` — dense, nonzero,
/// deterministic — then the adjustments below are applied. They keep
/// numerically sensitive kernels (division pivots, `sqrt` arguments)
/// well-conditioned, the role PolyBench's own kernel-specific `init_array`
/// functions play.
#[derive(Clone, Debug, Default)]
pub struct InitSpec {
    /// Arrays whose main diagonal is boosted by the row extent
    /// (diagonal dominance for factorizations / triangular solves).
    pub diag_boost: Vec<usize>,
    /// Per-array multiplicative scaling applied after the generic fill.
    pub scale: Vec<(usize, f64)>,
    /// Per-array additive offset applied last.
    pub offset: Vec<(usize, f64)>,
}

impl InitSpec {
    /// The plain generic fill.
    pub fn generic() -> InitSpec {
        InitSpec::default()
    }

    /// Generic fill plus diagonal boosting of the listed arrays.
    pub fn diag(arrays: &[usize]) -> InitSpec {
        InitSpec {
            diag_boost: arrays.to_vec(),
            ..Default::default()
        }
    }
}

/// One PolyBench kernel. `Clone` (cheap: fn pointers + static strs +
/// the small [`InitSpec`]) so sweep jobs can own their kernel across
/// worker threads.
#[derive(Clone)]
pub struct Kernel {
    /// Benchmark name as in Table II (e.g. `"2mm"`).
    pub name: &'static str,
    /// Table II description.
    pub description: &'static str,
    /// Figure grouping.
    pub group: Group,
    /// Builds the SCoP.
    pub build: fn() -> Scop,
    /// Executes the original C semantics directly on the arrays
    /// (same array order as the SCoP's declarations).
    pub reference: fn(&[i64], &mut [Vec<f64>]),
    /// Total floating-point operations for the given parameters.
    pub flops: fn(&[i64]) -> u64,
    /// Problem sizes.
    pub datasets: fn() -> Vec<Dataset>,
    /// Input initialization policy.
    pub init: InitSpec,
}

impl Kernel {
    /// The dataset with the given name, or `None` when the kernel does
    /// not define it. CLI front-ends should use this to reject typos.
    pub fn try_dataset(&self, name: &str) -> Option<Dataset> {
        (self.datasets)().into_iter().find(|d| d.name == name)
    }

    /// The dataset with the given name; degrades to the smallest
    /// (first-listed) dataset when `name` is unknown, warning on
    /// stderr, so a bad `--dataset` cannot abort a sweep mid-run.
    pub fn dataset(&self, name: &str) -> Dataset {
        self.try_dataset(name).unwrap_or_else(|| {
            let fallback = (self.datasets)().into_iter().next().unwrap_or(Dataset {
                name: "mini",
                params: Vec::new(),
            });
            eprintln!(
                "kernel {} has no dataset {name}; falling back to {}",
                self.name, fallback.name
            );
            fallback
        })
    }

    /// Allocates and initializes arrays per the init policy.
    pub fn fresh_arrays(&self, scop: &Scop, params: &[i64]) -> Vec<Vec<f64>> {
        let mut arrays = polymix_ast::interp::alloc_arrays(scop, params);
        self.apply_init(scop, params, &mut arrays);
        arrays
    }

    /// Applies the init policy to existing storage.
    pub fn apply_init(&self, scop: &Scop, params: &[i64], arrays: &mut [Vec<f64>]) {
        for (ai, arr) in arrays.iter_mut().enumerate() {
            for (k, x) in arr.iter_mut().enumerate() {
                *x = generic_value(ai, k);
            }
        }
        for &(ai, f) in &self.init.scale {
            for x in arrays[ai].iter_mut() {
                *x *= f;
            }
        }
        for &ai in &self.init.diag_boost {
            let ext = scop.arrays[ai].extents(params);
            assert_eq!(ext.len(), 2, "diag_boost needs a 2-D array");
            let (n, m) = (ext[0], ext[1]);
            let d = n.min(m);
            for i in 0..d {
                arrays[ai][(i * m + i) as usize] += n as f64;
            }
        }
        for &(ai, off) in &self.init.offset {
            for x in arrays[ai].iter_mut() {
                *x += off;
            }
        }
    }

    /// The same initialization as Rust source for emitted programs.
    /// Arrays are in scope as `a_<lowercase name>` vectors.
    pub fn init_rust(&self, scop: &Scop) -> String {
        let mut out = String::new();
        for (ai, arr) in scop.arrays.iter().enumerate() {
            let n = format!("a_{}", sanitize(&arr.name));
            out.push_str(&format!(
                "for k in 0..{n}.len() {{ {n}[k] = (((k as i64) * 7 + 13 * {ai}) % 1024 + 1) as f64 / 1024.0; }}\n"
            ));
        }
        for &(ai, f) in &self.init.scale {
            let n = format!("a_{}", sanitize(&scop.arrays[ai].name));
            out.push_str(&format!("for x in {n}.iter_mut() {{ *x *= {f:?}; }}\n"));
        }
        for &ai in &self.init.diag_boost {
            let arr = &scop.arrays[ai];
            let n = format!("a_{}", sanitize(&arr.name));
            let rows = extent_rust(scop, &arr.dims[0]);
            let cols = extent_rust(scop, &arr.dims[1]);
            out.push_str(&format!(
                "{{ let rows = {rows}; let cols = {cols}; let d = rows.min(cols); for i in 0..d {{ {n}[(i * cols + i) as usize] += rows as f64; }} }}\n"
            ));
        }
        for &(ai, off) in &self.init.offset {
            let n = format!("a_{}", sanitize(&scop.arrays[ai].name));
            out.push_str(&format!("for x in {n}.iter_mut() {{ *x += {off:?}; }}\n"));
        }
        out
    }
}

/// The checksum every emitted kernel prints (`polymix-codegen`'s `emit`
/// writes the same formula as text): each array some statement writes,
/// in declaration order, reduced with `x * ((k % 31) + 1)` into one
/// running sum. Together with the init policy above this is the
/// measurement contract all executors of a program are compared under.
pub fn checksum(scop: &Scop, arrays: &[Vec<f64>]) -> f64 {
    let mut written: Vec<usize> = scop.statements.iter().map(|st| st.write.array.0).collect();
    written.sort_unstable();
    written.dedup();
    let mut sum = 0.0f64;
    for ai in written {
        for (k, &x) in arrays[ai].iter().enumerate() {
            sum += x * ((k % 31) as f64 + 1.0);
        }
    }
    sum
}

/// The generic init value for element `k` of array `ai`.
pub fn generic_value(ai: usize, k: usize) -> f64 {
    (((k as i64) * 7 + 13 * ai as i64) % 1024 + 1) as f64 / 1024.0
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

fn extent_rust(scop: &Scop, row: &[i64]) -> String {
    let p = scop.params.len();
    let mut parts: Vec<String> = Vec::new();
    for (k, &c) in row[..p].iter().enumerate() {
        if c != 0 {
            let name = format!(
                "P_{}",
                scop.params[k]
                    .chars()
                    .map(|c| if c.is_alphanumeric() { c.to_ascii_uppercase() } else { '_' })
                    .collect::<String>()
            );
            if c == 1 {
                parts.push(name);
            } else {
                parts.push(format!("{c} * {name}"));
            }
        }
    }
    if row[p] != 0 || parts.is_empty() {
        parts.push(format!("{}", row[p]));
    }
    format!("({})", parts.join(" + "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_values_are_nonzero_and_bounded() {
        for ai in 0..5 {
            for k in 0..5000 {
                let v = generic_value(ai, k);
                assert!(v > 0.0 && v <= 1.0, "v={v}");
            }
        }
    }

    #[test]
    fn generic_values_vary_within_columns() {
        // Any fixed stride through k produces non-constant values (needed
        // by correlation's stddev).
        let vals: Vec<f64> = (0..10).map(|i| generic_value(0, i * 16 + 3)).collect();
        assert!(vals.windows(2).any(|w| w[0] != w[1]));
    }
}
