//! Criterion benches and the experiments harness live in benches/ and src/bin/.
//!
//! This library crate hosts the shared workload fixtures used by both,
//! and the pre-slot environment the `env_repr` bench cases compare
//! against.
pub mod env;
pub mod fixtures;
