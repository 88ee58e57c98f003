//! Outside-in layer timers: decorators around the engine's two public
//! seams, [`PathExecutor`] (the executor layer: `SpecExecutor` →
//! `binsym::machine` → the `binsym-isa` spec) and [`SolverBackend`] (the
//! solver layer: `BitblastBackend` → `binsym-smt`). Each wrapper times
//! every call into the inner object and forwards arguments and results
//! unchanged, so a wrapped exploration is the same program as an unwrapped
//! one.
//!
//! Statistics accumulate in the wrapper itself (no lock on the hot path)
//! and are folded into a shared [`Shared`] sink when the wrapper drops:
//! parallel sessions create one executor per worker thread and one backend
//! per replayed prescription, and all of them report into one sink.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use binsym::{Error, Observer, PathExecutor, PathOutcome, SolverBackend, TrailEntry};
use binsym_smt::{Model, SatResult, Term, TermManager};

/// A statistics sink shared by every wrapper of one exploration.
pub type Shared<T> = Arc<Mutex<T>>;

/// Calls into the executor layer.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ExecutorStats {
    /// Duration of every `execute_path` call, in nanoseconds.
    pub execute_ns: Vec<u64>,
    /// Instructions executed by successful `execute_path` calls.
    pub steps: u64,
    /// Total time in `execute_prefix` (prescription replay), nanoseconds.
    pub replay_ns: u64,
    /// Number of `execute_prefix` calls.
    pub replay_calls: u64,
}

impl ExecutorStats {
    fn merge(&mut self, other: &ExecutorStats) {
        self.execute_ns.extend_from_slice(&other.execute_ns);
        self.steps += other.steps;
        self.replay_ns += other.replay_ns;
        self.replay_calls += other.replay_calls;
    }

    /// Total time in `execute_path`, nanoseconds.
    pub fn execute_total_ns(&self) -> u64 {
        self.execute_ns.iter().sum()
    }
}

/// Calls into the solver layer.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SolverStats {
    /// Total time in `assert_term` (bit-blasting), nanoseconds.
    pub assert_ns: u64,
    /// Duration of every `check_sat` call, in nanoseconds.
    pub check_ns: Vec<u64>,
    /// `check_sat` calls that answered unsatisfiable.
    pub unsat: u64,
    /// Total time in `push`, `pop` and `model`, nanoseconds.
    pub frame_ns: u64,
}

impl SolverStats {
    fn merge(&mut self, other: &SolverStats) {
        self.assert_ns += other.assert_ns;
        self.check_ns.extend_from_slice(&other.check_ns);
        self.unsat += other.unsat;
        self.frame_ns += other.frame_ns;
    }

    /// Total time in `check_sat`, nanoseconds.
    pub fn check_total_ns(&self) -> u64 {
        self.check_ns.iter().sum()
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`PathExecutor`] that times every call into `inner`.
#[derive(Debug)]
pub struct TimedExecutor<E> {
    inner: E,
    local: ExecutorStats,
    sink: Shared<ExecutorStats>,
}

impl<E> TimedExecutor<E> {
    /// Wraps `inner`, reporting into `sink` when dropped.
    pub fn new(inner: E, sink: Shared<ExecutorStats>) -> Self {
        TimedExecutor {
            inner,
            local: ExecutorStats::default(),
            sink,
        }
    }
}

impl<E> Drop for TimedExecutor<E> {
    fn drop(&mut self) {
        // A poisoned sink means a sibling panicked mid-merge; the run is
        // failing anyway, so drop the numbers rather than panic in `drop`.
        if let Ok(mut sink) = self.sink.lock() {
            sink.merge(&self.local);
        }
    }
}

impl<E: PathExecutor> PathExecutor for TimedExecutor<E> {
    fn execute_path(
        &mut self,
        tm: &mut TermManager,
        input: &[u8],
        fuel: u64,
        obs: &mut dyn Observer,
    ) -> Result<PathOutcome, Error> {
        let start = Instant::now();
        let outcome = self.inner.execute_path(tm, input, fuel, obs);
        self.local.execute_ns.push(elapsed_ns(start));
        if let Ok(o) = &outcome {
            self.local.steps += o.steps;
        }
        outcome
    }

    fn execute_prefix(
        &mut self,
        tm: &mut TermManager,
        input: &[u8],
        fuel: u64,
        branch_limit: usize,
    ) -> Result<Vec<TrailEntry>, Error> {
        let start = Instant::now();
        let trail = self.inner.execute_prefix(tm, input, fuel, branch_limit);
        self.local.replay_ns += elapsed_ns(start);
        self.local.replay_calls += 1;
        trail
    }

    fn input_len(&self) -> u32 {
        self.inner.input_len()
    }

    fn policy(&self) -> binsym::AddressPolicyKind {
        self.inner.policy()
    }
}

/// A [`SolverBackend`] that times every call into `inner`.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    local: SolverStats,
    /// Time in `model`, which takes `&self`; folded into `frame_ns` on drop.
    model_ns: Cell<u64>,
    sink: Shared<SolverStats>,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`, reporting into `sink` when dropped.
    pub fn new(inner: B, sink: Shared<SolverStats>) -> Self {
        TimedBackend {
            inner,
            local: SolverStats::default(),
            model_ns: Cell::new(0),
            sink,
        }
    }
}

impl<B> Drop for TimedBackend<B> {
    fn drop(&mut self) {
        self.local.frame_ns += self.model_ns.get();
        if let Ok(mut sink) = self.sink.lock() {
            sink.merge(&self.local);
        }
    }
}

impl<B: SolverBackend> SolverBackend for TimedBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn push(&mut self) {
        let start = Instant::now();
        self.inner.push();
        self.local.frame_ns += elapsed_ns(start);
    }

    fn pop(&mut self) {
        let start = Instant::now();
        self.inner.pop();
        self.local.frame_ns += elapsed_ns(start);
    }

    fn assert_term(&mut self, tm: &mut TermManager, t: Term) {
        let start = Instant::now();
        self.inner.assert_term(tm, t);
        self.local.assert_ns += elapsed_ns(start);
    }

    fn check_sat(&mut self, tm: &mut TermManager) -> SatResult {
        let start = Instant::now();
        let r = self.inner.check_sat(tm);
        self.local.check_ns.push(elapsed_ns(start));
        if r == SatResult::Unsat {
            self.local.unsat += 1;
        }
        r
    }

    fn model(&self, tm: &TermManager) -> Option<Model> {
        let start = Instant::now();
        let model = self.inner.model(tm);
        self.model_ns.set(self.model_ns.get() + elapsed_ns(start));
        model
    }

    fn num_checks(&self) -> u64 {
        self.inner.num_checks()
    }
}
