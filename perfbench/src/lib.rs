//! Campaign benchmark for starsense.
//!
//! One command runs the three workloads (`fleet_oracle`, `paper_pipeline`,
//! `fleet_resume`) through the public `starsense-core` API and prints the
//! end-to-end metrics; `--trace 1` instead replays a workload serially
//! through the layer crates' public functions and prints the per-layer
//! metrics. See `README.md` in this directory for what each metric means
//! and which end-to-end metric it should move.

pub mod golden;
pub mod json;
pub mod replay;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
