//! The repository's benchmark: an open-loop load generator that drives
//! `dlm-router` over two `dlm-serve` backends with seeded traffic mixes,
//! checks every answer, and reports end-to-end metrics; plus a traced
//! run that times each layer's public functions in-process.
//!
//! `python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` builds the release binaries and runs one measurement.

pub mod check;
pub mod deploy;
pub mod e2e;
pub mod load;
pub mod plan;
pub mod rng;
pub mod stats;
pub mod trace;
