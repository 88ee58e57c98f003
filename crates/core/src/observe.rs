//! Observation hooks into the execution and exploration loops.
//!
//! Instrumentation concerns — per-instruction cost models (the benchmark
//! personas), coverage tracking, progress reporting — used to require
//! writing a whole [`crate::PathExecutor`] that duplicated the machine
//! loop. An [`Observer`] instead receives callbacks from the executor and
//! the [`crate::Session`] loop, so instrumentation composes with *any*
//! executor without touching its internals.
//!
//! All hooks have empty default bodies: implement only what you need.

use std::sync::{Arc, Mutex};

use binsym_smt::{SatResult, Term};

use crate::session::PathOutcome;

/// A checkpoint lifecycle event, reported through
/// [`Observer::on_checkpoint`] by sessions with
/// [`crate::SessionBuilder::checkpoint`] or
/// [`crate::SessionBuilder::resume`] configured.
///
/// Checkpointing affects wall time only, never merged results. The
/// [`crate::Counter::CheckpointsWritten`] and [`crate::Counter::Resumes`]
/// metrics count these events; the hook exists for observers that must act
/// at the moment a checkpoint lands (e.g. snapshotting the file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointEvent {
    /// A checkpoint file was atomically written; `paths` is the number of
    /// committed path records it captures.
    Written {
        /// Committed path records in the checkpoint.
        paths: u64,
    },
    /// The session seeded itself from a resume checkpoint carrying
    /// `records` already-materialized records.
    Resumed {
        /// Records restored from the checkpoint.
        records: u64,
    },
}

/// Callbacks fired during path execution and exploration.
///
/// `on_step`/`on_branch` fire inside [`crate::PathExecutor::execute_path`];
/// `on_path`/`on_query` fire in the [`crate::Session`] exploration loop.
/// Engine-internal events (gate screenings, warm-cache reuse, phase
/// timings) are counted by [`crate::MetricsRegistry`] instead.
pub trait Observer {
    /// An instruction is about to execute at `pc`; `steps` instructions
    /// have completed on the current path so far.
    fn on_step(&mut self, pc: u32, steps: u64) {
        let _ = (pc, steps);
    }

    /// A symbolic branch was recorded on the trail; `pc` is the branch
    /// site (the address of the branching instruction).
    fn on_branch(&mut self, pc: u32, cond: Term, taken: bool) {
        let _ = (pc, cond, taken);
    }

    /// A path finished executing under `input`.
    fn on_path(&mut self, input: &[u8], outcome: &PathOutcome) {
        let _ = (input, outcome);
    }

    /// A branch-flip feasibility query was discharged by the solver. A
    /// query the static-analysis gate decides fires no `on_query`.
    fn on_query(&mut self, result: SatResult) {
        let _ = result;
    }

    /// A checkpoint was written, or the session resumed from one. Workers
    /// report [`CheckpointEvent::Written`] through their own observer; the
    /// coordinator reports [`CheckpointEvent::Resumed`] (and the final
    /// drain checkpoint) through an extra observer drawn from the factory.
    fn on_checkpoint(&mut self, event: CheckpointEvent) {
        let _ = event;
    }
}

/// Generates every forwarding [`Observer`] impl from one list of hook
/// signatures, so a new hook is declared in exactly two places — the trait
/// and this list — instead of being hand-copied into each wrapper impl (a
/// proven drift hazard while the catalog grows). Every hook argument is
/// `Copy` (scalars, `Term`, or shared references), which is what lets the
/// pair impl fan the same arguments out to both members.
macro_rules! forward_observer_hooks {
    ($(fn $hook:ident(&mut self $(, $arg:ident: $ty:ty)*);)+) => {
        /// Sharing an observer: the session takes ownership of its
        /// observer, so to read accumulated state back afterwards, wrap the
        /// observer in `Rc<RefCell<…>>`, keep a clone, and hand the other
        /// clone to the builder.
        impl<O: Observer> Observer for std::rc::Rc<std::cell::RefCell<O>> {
            $(fn $hook(&mut self $(, $arg: $ty)*) {
                self.borrow_mut().$hook($($arg),*);
            })+
        }

        /// Sharing an accumulator **across worker threads**: the
        /// `Rc<RefCell<…>>` wrapper above is not `Send`, so it cannot serve
        /// the per-worker observers of a [`crate::ParallelSession`]. Wrap
        /// the accumulator in `Arc<Mutex<…>>` instead, keep one clone, and
        /// hand further clones out of
        /// [`crate::SessionBuilder::observer_factory`] — every worker then
        /// feeds the same state behind the lock. (For high-frequency
        /// signals prefer a lock-free structure such as
        /// [`crate::CoverageMap`] with a dedicated observer, or the
        /// sharded [`crate::MetricsRegistry`]; the mutex forwarding is for
        /// arbitrary accumulators.)
        impl<O: Observer> Observer for Arc<Mutex<O>> {
            $(fn $hook(&mut self $(, $arg: $ty)*) {
                self.lock().expect("observer lock").$hook($($arg),*);
            })+
        }

        /// Boxed observers forward: lets composed observers (see the pair
        /// impl below) mix concrete and type-erased parts.
        impl<O: Observer + ?Sized> Observer for Box<O> {
            $(fn $hook(&mut self $(, $arg: $ty)*) {
                (**self).$hook($($arg),*);
            })+
        }

        /// Composing observers: a pair fans every callback out to both
        /// members (in order), so e.g. a persona cost model and a coverage
        /// tracker can watch the same session. Nest pairs for more than
        /// two.
        impl<A: Observer, B: Observer> Observer for (A, B) {
            $(fn $hook(&mut self $(, $arg: $ty)*) {
                self.0.$hook($($arg),*);
                self.1.$hook($($arg),*);
            })+
        }
    };
}

forward_observer_hooks! {
    fn on_step(&mut self, pc: u32, steps: u64);
    fn on_branch(&mut self, pc: u32, cond: Term, taken: bool);
    fn on_path(&mut self, input: &[u8], outcome: &PathOutcome);
    fn on_query(&mut self, result: SatResult);
    fn on_checkpoint(&mut self, event: CheckpointEvent);
}

/// The do-nothing observer (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// An observer counting its hook events — useful for tests, progress
/// displays, and cheap coverage proxies. Engine counters live in
/// [`crate::MetricsRegistry`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingObserver {
    /// Instructions executed across all paths.
    pub steps: u64,
    /// Symbolic branches recorded across all paths.
    pub branches: u64,
    /// Paths completed.
    pub paths: u64,
    /// Solver queries discharged (both SAT and UNSAT).
    pub queries: u64,
    /// Queries that came back satisfiable.
    pub sat_queries: u64,
}

impl CountingObserver {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        CountingObserver::default()
    }
}

impl Observer for CountingObserver {
    fn on_step(&mut self, _pc: u32, _steps: u64) {
        self.steps += 1;
    }

    fn on_branch(&mut self, _pc: u32, _cond: Term, _taken: bool) {
        self.branches += 1;
    }

    fn on_path(&mut self, _input: &[u8], _outcome: &PathOutcome) {
        self.paths += 1;
    }

    fn on_query(&mut self, result: SatResult) {
        self.queries += 1;
        if result == SatResult::Sat {
            self.sat_queries += 1;
        }
    }
}
