//! # dlm-bench
//!
//! Reproduction harness: one entry point per table and figure of the
//! paper's evaluation (Figures 2–7, Tables I–II), plus the baseline
//! comparison (DL vs simpler predictors) and the solver ablations.
//!
//! The [`ExperimentContext`] bundles the synthetic world and the four
//! representative cascades so every experiment runs off the same data.
//! The `repro` binary prints each experiment as text; the Criterion
//! benches time the same pipelines. Every `BENCH_*.json` those benches
//! emit goes through the [`artifact`] schema registry, so a malformed
//! artifact fails the writer and the tier-1 `bench_schema` test alike.

#![warn(missing_docs)]

pub mod artifact;
pub mod experiments;

pub use experiments::ExperimentContext;
