//! Raw-engine exploration benchmark for the BinSym reproduction.
//!
//! Measures the formal-semantics engine (`SpecExecutor`, no persona cost
//! model) exploring bundled Table I programs to completion under four
//! engine configurations, checks every exploration's output, and
//! attributes wall time to the engine's layers by timing the calls into
//! their public seams from outside. The command line is in [`cli`], the
//! metric list in [`metrics`].

pub mod check;
pub mod cli;
pub mod engine;
pub mod metrics;
mod probe;
pub mod run;
pub mod stats;
pub mod wrap;
