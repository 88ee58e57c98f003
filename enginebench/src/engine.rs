//! The four engine configurations the benchmark compares, each built
//! either plain (the end-to-end measurement) or with the outside-in layer
//! timers of [`crate::wrap`] and a [`MetricsRegistry`] attached (the
//! traced measurement).
//!
//! Every configuration explores fully: depth-first, static gate on, the
//! default `eq` address policy, no path limit and no observer.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use binsym::{
    encode_seq, BitblastBackend, Error, MetricsRegistry, MetricsReport, ParallelSession,
    PathExecutor, Session, SessionBuilder, SolverBackend, SpecExecutor, StepResult, Summary,
    TrailEntry,
};
use binsym_elf::ElfFile;
use binsym_isa::Spec;

use crate::wrap::{ExecutorStats, Shared, SolverStats, TimedBackend, TimedExecutor};

/// One engine configuration; [`Config::prefix`] names its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Config {
    /// The sequential incremental `Session` — the paper's engine.
    Seq,
    /// `workers(1).build_parallel()`: prescription replay, a fresh backend
    /// per query.
    Par1Cold,
    /// `workers(1).warm_start(true)`.
    Par1Warm,
    /// `workers(2).warm_start(true)`.
    Par2Warm,
}

impl Config {
    /// Every configuration, in reporting order.
    pub const ALL: [Config; 4] = [
        Config::Seq,
        Config::Par1Cold,
        Config::Par1Warm,
        Config::Par2Warm,
    ];

    /// The metric-name prefix.
    pub fn prefix(self) -> &'static str {
        match self {
            Config::Seq => "seq",
            Config::Par1Cold => "par1_cold",
            Config::Par1Warm => "par1_warm",
            Config::Par2Warm => "par2_warm",
        }
    }

    /// Worker threads exploring (1 for the sequential session).
    pub fn workers(self) -> usize {
        match self {
            Config::Par2Warm => 2,
            _ => 1,
        }
    }

    /// True for the prescription-replay engine.
    pub fn is_parallel(self) -> bool {
        self != Config::Seq
    }

    /// True when the warm-start cache is on.
    pub fn is_warm(self) -> bool {
        matches!(self, Config::Par1Warm | Config::Par2Warm)
    }

    /// True when solver calls go through a [`SolverBackend`] the
    /// benchmark can wrap (the warm cache drives `binsym-smt` directly).
    pub fn has_backend(self) -> bool {
        !self.is_warm()
    }
}

/// The layer timers of one traced exploration.
#[derive(Debug)]
pub struct Probes {
    /// Executor-layer calls.
    pub executor: Shared<ExecutorStats>,
    /// Solver-layer calls (configurations with a backend only).
    pub solver: Shared<SolverStats>,
    /// The engine's own phase registry (gate, warm cache, merge).
    pub registry: Arc<MetricsRegistry>,
}

impl Probes {
    /// Fresh, empty timers for `cfg`.
    pub fn new(cfg: Config) -> Self {
        Probes {
            executor: Arc::new(Mutex::new(ExecutorStats::default())),
            solver: Arc::new(Mutex::new(SolverStats::default())),
            registry: Arc::new(MetricsRegistry::new(cfg.workers())),
        }
    }

    /// The accumulated timings. Call after the session is dropped, so
    /// every wrapper has reported.
    pub fn collect(&self) -> LayerTimes {
        LayerTimes {
            executor: self.executor.lock().expect("executor sink lock").clone(),
            solver: self.solver.lock().expect("solver sink lock").clone(),
            report: self.registry.report(),
        }
    }
}

/// What the layer timers of one traced exploration recorded.
#[derive(Debug)]
pub struct LayerTimes {
    /// Executor-layer calls.
    pub executor: ExecutorStats,
    /// Solver-layer calls.
    pub solver: SolverStats,
    /// The engine's phase report.
    pub report: MetricsReport,
}

/// A built, not yet run, exploration.
pub enum Built {
    /// The sequential session.
    Seq(Session),
    /// The prescription-replay session.
    Par(ParallelSession),
}

/// Builds `cfg` over `elf`; with `probes`, the executor and backend are
/// wrapped in layer timers and the engine's phase registry is installed.
///
/// # Errors
/// Whatever the session builder refuses.
pub fn build(cfg: Config, elf: &ElfFile, probes: Option<&Probes>) -> Result<Built, Error> {
    let mut b = Session::builder(Spec::rv32im());
    let Some(probes) = probes else {
        b = b.binary(elf);
        return finish(cfg, b);
    };
    b = b.metrics(Arc::clone(&probes.registry));
    if cfg.is_parallel() {
        let (elf, sink) = (elf.clone(), Arc::clone(&probes.executor));
        b = b.executor_factory(move || {
            let inner = SpecExecutor::new(Spec::rv32im(), &elf, None)?;
            let wrapped: Box<dyn PathExecutor> =
                Box::new(TimedExecutor::new(inner, Arc::clone(&sink)));
            Ok(wrapped)
        });
        if cfg.has_backend() {
            let sink = Arc::clone(&probes.solver);
            b = b.backend_factory(move || -> Box<dyn SolverBackend> {
                Box::new(TimedBackend::new(BitblastBackend::new(), Arc::clone(&sink)))
            });
        }
    } else {
        let inner = SpecExecutor::new(Spec::rv32im(), elf, None)?;
        b = b
            .executor(TimedExecutor::new(inner, Arc::clone(&probes.executor)))
            .backend(TimedBackend::new(
                BitblastBackend::new(),
                Arc::clone(&probes.solver),
            ));
    }
    finish(cfg, b)
}

fn finish(cfg: Config, b: SessionBuilder) -> Result<Built, Error> {
    Ok(match cfg {
        Config::Seq => Built::Seq(b.build()?),
        _ => Built::Par(
            b.workers(cfg.workers())
                .warm_start(cfg.is_warm())
                .build_parallel()?,
        ),
    })
}

/// One explored path, in the engine-independent form the output check
/// compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathOut {
    /// Direction taken at each symbolic branch, in trail order.
    pub decisions: Vec<bool>,
    /// The witness input.
    pub input: Vec<u8>,
    /// How the path terminated.
    pub exit: StepResult,
    /// Instructions executed.
    pub steps: u64,
}

/// The result of one complete exploration.
#[derive(Debug, Clone)]
pub struct Explored {
    /// The engine's summary.
    pub summary: Summary,
    /// Every path, in discovery order.
    pub paths: Vec<PathOut>,
    /// The wire encoding of the merged `ParallelSession::records()`
    /// (prescription-replay configurations only).
    pub records: Option<Vec<u8>>,
}

/// Runs `built` to completion, returning the wall time of the exploration
/// alone and its result. The session is dropped before returning, so any
/// layer timers have reported.
pub fn explore(built: Built) -> (Duration, Result<Explored, Error>) {
    match built {
        Built::Seq(mut session) => {
            let start = Instant::now();
            let mut paths = Vec::new();
            let mut failure = None;
            for outcome in session.paths() {
                match outcome {
                    Ok(o) => paths.push(PathOut {
                        decisions: o
                            .trail
                            .iter()
                            .filter_map(|e| match e {
                                TrailEntry::Branch { taken, .. } => Some(*taken),
                                _ => None,
                            })
                            .collect(),
                        input: o.input,
                        exit: o.exit,
                        steps: o.steps,
                    }),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            let wall = start.elapsed();
            let summary = session.summary();
            drop(session);
            let result = match failure {
                Some(e) => Err(e),
                None => Ok(Explored {
                    summary,
                    paths,
                    records: None,
                }),
            };
            (wall, result)
        }
        Built::Par(mut session) => {
            let start = Instant::now();
            let summary = session.run_all();
            let wall = start.elapsed();
            let result = summary.map(|summary| Explored {
                summary,
                paths: session
                    .records()
                    .iter()
                    .map(|r| PathOut {
                        decisions: r.decisions.clone(),
                        input: r.input.clone(),
                        exit: r.exit,
                        steps: r.steps,
                    })
                    .collect(),
                records: Some(encode_seq(session.records())),
            });
            drop(session);
            (wall, result)
        }
    }
}
