//! # polymix-dl
//!
//! The **DL (Distinct Lines)** analytical memory cost model (Sec. III-B),
//! used by the polyhedral stage to pick loop permutations and decide
//! fusion profitability:
//!
//! * [`model`] — distinct-lines estimation of a (tiled) loop nest, the
//!   per-iteration `mem_cost`, its partial derivatives with respect to
//!   tile sizes, the induced best permutation order (Sec. III-B1), and
//!   the price of running a nest over a box of extents (`box_cost`, which
//!   decides whether the poly+AST flow tiles a nest);
//! * [`fusion`] — fusion profitability by comparing the minimum
//!   `mem_cost` reachable within cache capacity before and after fusion
//!   (Sec. III-B2);
//! * [`machine`] — cache/TLB geometries, including Nehalem-like and
//!   Power7-like presets matching the paper's two evaluation platforms.

pub mod fusion;
pub mod machine;
pub mod model;

pub use fusion::{fusion_profitable, min_mem_cost, min_mem_cost_with_free};
pub use machine::{CacheLevel, Machine};
pub use model::{box_cost, distinct_lines, mem_cost, permutation_priority, RefInfo};
