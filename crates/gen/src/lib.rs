//! # viewcap-gen
//!
//! Seeded workload generators for tests and benchmarks: random catalogs,
//! project–join expressions, instantiations, templates, and views, plus the
//! structured *chain* and *star* families.
//!
//! Everything is deterministic given a seed (`StdRng::seed_from_u64`), so
//! failures reproduce and benchmarks are stable.

pub mod families;
pub mod fleet;
pub mod random;

pub use families::{chain_join_expr, chain_world, star_join_expr, star_world, StructuredWorld};
pub use fleet::{fleet_stream, frontier_diff_stream, txn_stream, FleetScenario, FleetSpec, Zipf};
pub use random::{
    random_expr, random_instantiation, random_query, random_view, random_world, WorldSpec,
};
