//! # polymix-dl
//!
//! The **DL (Distinct Lines)** analytical memory cost model (Sec. III-B),
//! used by the polyhedral stage to pick loop permutations and decide
//! fusion profitability:
//!
//! * [`model`] — distinct-lines estimation of a (tiled) loop nest, the
//!   per-iteration `mem_cost`, its partial derivatives with respect to
//!   tile sizes, the induced best permutation order (Sec. III-B1), and
//!   the price of running a nest over a box of extents (`box_cost`), and
//!   the tiled and untiled prices of a nest that decide whether the
//!   poly+AST flow tiles it (`tiling_costs`);
//! * [`fusion`] — fusion profitability by the same price: the fused nest
//!   against the two distributed ones (Sec. III-B2);
//! * [`machine`] — cache/TLB geometries, including Nehalem-like and
//!   Power7-like presets matching the paper's two evaluation platforms.

pub mod fusion;
pub mod machine;
pub mod model;

pub use fusion::fusion_profitable;
pub use machine::{CacheLevel, Machine};
pub use model::{
    box_cost, distinct_lines, mem_cost, permutation_priority, tiling_costs, RefInfo, NOMINAL_EXTENT,
};
