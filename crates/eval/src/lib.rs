//! Evaluation harness: retrieval metrics and experiment tables.
//!
//! The paper evaluates SemTree on **efficiency** (running-time curves,
//! Figures 3–7) and **effectiveness** (average Precision/Recall over 100
//! k-NN queries, Figure 8, with `P = |T∩T*|/|T|` and `R = |T∩T*|/|T*|`).
//! This crate provides those computations plus the series/table plumbing
//! every `repro` binary prints with.

mod metrics;
mod plot;
mod series;

pub use metrics::{average_pr, precision, recall, PrPoint};
pub use plot::ascii_plot;
pub use series::{ExperimentTable, Series};
