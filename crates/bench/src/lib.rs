//! `binsym-bench` — benchmark programs, engine personas, and the harnesses
//! that regenerate the paper's evaluation (§V).
//!
//! * [`programs`] — the five benchmark programs of Table I / Fig. 6
//!   (three RIOT-derived modules: `base64-encode`, `clif-parser`,
//!   `uri-parser`; two synthetic sorts), written in RV32 assembly and
//!   assembled in-process.
//! * [`engines`] — the four engines compared in the paper, all running on
//!   the shared DSE loop and SMT solver: BinSym (formal semantics), BINSEC
//!   (optimized IR), SymEx-VP (BinSym semantics inside a SystemC-style DES
//!   simulation), and angr (buggy or fixed IR lifter, interpreted). One
//!   [`RunConfig`] selects sequential or sharded exploration on a
//!   work-stealing [`binsym::ParallelSession`], the [`SearchStrategy`]
//!   (depth-first, breadth-first, or coverage-guided with covered-PC
//!   reporting), the memory policy, instrumentation, and persistence;
//!   [`wire`] turns it into a session builder and [`run`] explores.
//! * [`cli`] — the shared flag reader, the typed [`BenchOpts`] behind every
//!   bin's `--workers`/`--strategy`/`--json` flags, and the
//!   dependency-free JSON writer behind the `BENCH_*.json`
//!   perf-trajectory summaries.
//!
//! Reproduce the paper's artifacts with:
//!
//! ```text
//! cargo run --release -p binsym-bench --bin table1
//! cargo run --release -p binsym-bench --bin fig6
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod engines;
pub mod programs;

pub use cli::{BenchOpts, Json};
pub use engines::{
    parse_memory_policy, policy_trajectory, run, wire, Engine, GhcRuntimeObserver,
    PolicyTrajectory, RunConfig, RunResult, SearchStrategy, VpObserver, VpStats, Wiring,
};
pub use programs::{all_programs, by_name, Program, TABLE_LOOKUP, TABLE_LOOKUP_SYMBOLIC_PATHS};
