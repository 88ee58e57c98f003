//! The four engines of the paper's evaluation, behind one interface.
//!
//! All engines run under the shared DSE loop and SMT solver of the `binsym`
//! core — the paper's experimental control (same Z3 version, same search
//! strategy for every engine); what differs is the binary→symbolic
//! translation layer and its execution environment:
//!
//! | Persona   | Translation                    | Environment                |
//! |-----------|--------------------------------|----------------------------|
//! | BINSEC    | hand-written IR lifter (fixed) | native, lift cache         |
//! | BinSym    | formal ISA specification       | native                     |
//! | SymEx-VP  | formal ISA specification       | SystemC-style DES kernel   |
//! | angr      | hand-written IR lifter (buggy) | interpreted (Python model) |
//!
//! The execution-environment personas (SymEx-VP's simulation kernel, the
//! GHC-runtime cost model) are [`binsym::Observer`]s attached to a plain
//! [`Session`] over the formal-semantics executor — they model per-
//! instruction cost through the `on_step` hook instead of re-implementing
//! the path-execution loop.
//!
//! Every bench run takes one path: a [`RunConfig`] (the knobs the bins
//! expose, parsed once by [`crate::BenchOpts::run_config`]) and an
//! [`Engine`] go through [`wire`] into a [`SessionBuilder`], which [`run`]
//! builds, explores, and reports as a [`RunResult`].

use std::cell::RefCell;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use binsym::{
    AddressPolicyKind, Bfs, Candidate, CoverageGuided, CoverageMap, CoverageObserver, Error,
    MetricsRegistry, MetricsReport, Observer, PathExecutor, Prescription, Session, SessionBuilder,
    Summary, TraceSink,
};
use binsym_des::{Bus, EventQueue, ProcessId, Time};
use binsym_elf::ElfFile;
use binsym_isa::Spec;
use binsym_lifter::{EngineConfig, LifterExecutor};

/// The path-selection policies the bench bins expose via `--strategy`.
///
/// [`SearchStrategy::Coverage`] allocates a fresh [`CoverageMap`] per run,
/// wires a [`CoverageObserver`] next to the persona's cost-model observer,
/// and reports the covered-PC count in [`RunResult::covered_pcs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Depth-first (the paper's policy, and the default).
    #[default]
    Dfs,
    /// Breadth-first.
    Bfs,
    /// Coverage-guided: prioritize flips under uncovered branch sites.
    Coverage,
}

impl SearchStrategy {
    /// All strategies the ablation harness compares.
    pub const ALL: [SearchStrategy; 3] = [
        SearchStrategy::Dfs,
        SearchStrategy::Bfs,
        SearchStrategy::Coverage,
    ];

    /// Display name (matches the `--strategy` spelling).
    pub fn name(self) -> &'static str {
        match self {
            SearchStrategy::Dfs => "dfs",
            SearchStrategy::Bfs => "bfs",
            SearchStrategy::Coverage => "coverage",
        }
    }

    /// Parses a `--strategy` value.
    pub fn parse(s: &str) -> Option<SearchStrategy> {
        match s {
            "dfs" => Some(SearchStrategy::Dfs),
            "bfs" => Some(SearchStrategy::Bfs),
            "coverage" => Some(SearchStrategy::Coverage),
            _ => None,
        }
    }
}

/// Parses a `--memory-policy` value — the [`AddressPolicyKind`] `Display`
/// spellings: `eq`, `min`, or `symbolic:N` with a nonzero window `N`.
pub fn parse_memory_policy(s: &str) -> Option<AddressPolicyKind> {
    match s {
        "eq" => Some(AddressPolicyKind::ConcretizeEq),
        "min" => Some(AddressPolicyKind::ConcretizeMin),
        _ => {
            let window = s.strip_prefix("symbolic:")?.parse().ok()?;
            (window > 0).then_some(AddressPolicyKind::Symbolic { window })
        }
    }
}

/// The knobs of one bench run. The default is the paper's configuration:
/// a sequential depth-first [`Session`] under the §III-B `eq`
/// concretization, without instrumentation or persistence.
///
/// Metrics, trace, and persistence are wall-time-only: the explored records
/// are byte-identical with and without them. The strategy changes only the
/// discovery order of a full exploration. The `policy` is *not*
/// wall-time-only: a non-default policy changes which cells
/// symbolic-address accesses touch, and with it the explored path set.
#[derive(Clone, Default)]
pub struct RunConfig {
    /// Worker threads of a sharded [`binsym::ParallelSession`]; 0 runs the
    /// sequential [`Session`].
    pub workers: usize,
    /// Path-selection policy (the shard policy of every worker when
    /// sharded).
    pub strategy: SearchStrategy,
    /// Address-concretization policy of the symbolic-memory layer.
    pub policy: AddressPolicyKind,
    /// Collect a fresh [`MetricsRegistry`] (one shard per worker) into
    /// [`RunResult::metrics`].
    pub metrics: bool,
    /// Span every phase into this sink (one track per worker).
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Write an atomic checkpoint to this path every N merged paths and on
    /// drain. Sharded runs only: the sequential builder rejects it.
    pub checkpoint: Option<(PathBuf, u64)>,
    /// Seed the exploration from this checkpoint instead of the root.
    /// Sharded runs only, like `checkpoint`.
    pub resume: Option<PathBuf>,
}

impl RunConfig {
    /// This configuration for one (engine, benchmark) session of a
    /// campaign: the checkpoint and resume paths become
    /// `BASE.<engine>.<benchmark>.ck`, with names slugged to `[a-z0-9-]`
    /// so personas like "angr (fixed)" stay filesystem-safe. Writing and
    /// resuming suffix alike, so `--checkpoint X` in one invocation pairs
    /// with `--resume X` in the next.
    pub fn for_run(&self, engine: &str, benchmark: &str) -> RunConfig {
        let slug = |s: &str| -> String {
            s.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '-'
                    }
                })
                .collect()
        };
        let target =
            |base: &Path| suffixed(base, &format!(".{}.{}.ck", slug(engine), slug(benchmark)));
        RunConfig {
            checkpoint: self
                .checkpoint
                .as_ref()
                .map(|(base, every)| (target(base), *every)),
            resume: self.resume.as_deref().map(target),
            ..self.clone()
        }
    }
}

/// `BASE<suffix>`, appended to the whole path so `BASE`'s own extension
/// stays in place — the one naming rule for every per-run file a bin
/// derives from a user-given base path.
pub fn suffixed(base: &Path, suffix: &str) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// The engines compared in the paper's §V, plus the raw formal-semantics
/// engine the ablation, trajectory, and shard harnesses measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// BINSEC: mature optimized IR engine (bug-free lifter, block cache).
    Binsec,
    /// BinSym: the paper's formal-semantics engine (this repo's core).
    BinSym,
    /// SymEx-VP: BinSym semantics inside a SystemC-style virtual prototype.
    SymExVp,
    /// angr before the paper's five bug reports (Table I).
    Angr,
    /// angr after the fixes (Fig. 6 uses the fixed version).
    AngrFixed,
    /// BinSym's formal-semantics engine without the persona cost model.
    Raw,
}

impl Engine {
    /// All engines, in the paper's Table I column order.
    pub const TABLE1: [Engine; 4] = [
        Engine::Angr,
        Engine::Binsec,
        Engine::SymExVp,
        Engine::BinSym,
    ];

    /// The engines of the Fig. 6 performance comparison (fixed angr).
    pub const FIG6: [Engine; 4] = [
        Engine::Binsec,
        Engine::BinSym,
        Engine::SymExVp,
        Engine::AngrFixed,
    ];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Binsec => "BINSEC",
            Engine::BinSym => "BinSym",
            Engine::SymExVp => "SymEx-VP",
            Engine::Angr => "angr",
            Engine::AngrFixed => "angr (fixed)",
            Engine::Raw => "raw",
        }
    }

    /// The IR-lifter configuration of the lifter personas (`None` for the
    /// formal-semantics engines).
    fn lifter(self) -> Option<EngineConfig> {
        match self {
            Engine::Binsec => Some(EngineConfig::binsec()),
            Engine::Angr => Some(EngineConfig::angr()),
            Engine::AngrFixed => Some(EngineConfig::angr_fixed()),
            Engine::BinSym | Engine::SymExVp | Engine::Raw => None,
        }
    }

    /// The persona's cost-model observer, when it has one (the lifter
    /// personas model their overhead inside the executor instead).
    fn persona_observer(self) -> Option<Box<dyn Observer>> {
        match self {
            Engine::BinSym => Some(Box::new(GhcRuntimeObserver::default())),
            Engine::SymExVp => Some(Box::new(VpObserver::new())),
            Engine::Binsec | Engine::Angr | Engine::AngrFixed | Engine::Raw => None,
        }
    }
}

/// A configured session builder plus the handles its run reports from.
pub struct Wiring {
    /// The builder; call `build()` when `workers == 0`, `build_parallel()`
    /// otherwise. Callers may chain further knobs (warm start, the static
    /// gate) before building.
    pub builder: SessionBuilder,
    /// The map the coverage strategy reads and every observer feeds
    /// (coverage runs only).
    pub coverage: Option<Arc<CoverageMap>>,
    /// The fresh registry the run's metrics land in (`metrics` runs only).
    pub metrics: Option<Arc<MetricsRegistry>>,
}

/// Wires `engine` on `elf` under `cfg` — the one place the bench harness
/// assembles a session:
///
/// * the engine: the spec executor over `elf`, or an IR-lifter executor
///   factory (one executor per worker) under `cfg.policy`, with the policy
///   also on the builder so its cross-check sees agreeing sides;
/// * the strategy, as a sequential frontier or as every worker's shard
///   policy, all coverage-guided frontiers reading one shared map;
/// * the observers: the persona's cost model first, then the coverage
///   feed — one pair per worker when sharded, so parallel timings stay
///   comparable with the sequential Fig. 6 personas;
/// * metrics, trace, checkpoint, and resume.
pub fn wire(engine: Engine, elf: &ElfFile, cfg: &RunConfig) -> Wiring {
    let policy = cfg.policy;
    let builder = match engine.lifter() {
        None => Session::builder(Spec::rv32im()).binary(elf),
        Some(config) => {
            let elf = elf.clone();
            Session::factory_builder(move || {
                Ok(
                    Box::new(LifterExecutor::new(&elf, config)?.with_policy(policy))
                        as Box<dyn PathExecutor>,
                )
            })
        }
    }
    .address_policy(policy);

    let sequential = cfg.workers == 0;
    let coverage = (cfg.strategy == SearchStrategy::Coverage).then(|| CoverageMap::shared_for(elf));
    let builder = match (&coverage, cfg.strategy) {
        (Some(map), _) if sequential => {
            builder.strategy(CoverageGuided::<Candidate>::new(Arc::clone(map)))
        }
        (Some(map), _) => {
            let map = Arc::clone(map);
            builder.shard_strategy(move |_| {
                Box::new(CoverageGuided::<Prescription>::new(Arc::clone(&map)))
            })
        }
        (None, SearchStrategy::Bfs) if sequential => builder.strategy(Bfs::<Candidate>::new()),
        (None, SearchStrategy::Bfs) => {
            builder.shard_strategy(|_| Box::new(Bfs::<Prescription>::new()))
        }
        (None, _) => builder,
    };

    let map = coverage.clone();
    let observer = move || compose_observer(engine.persona_observer(), map.as_ref());
    let mut builder = match observer() {
        None if sequential => builder,
        None => builder.workers(cfg.workers),
        Some(first) if sequential => builder.observer(first),
        Some(_) => builder.workers(cfg.workers).observer_factory(move |_| {
            observer().expect("every worker gets the observers of the first")
        }),
    };

    let metrics = cfg
        .metrics
        .then(|| Arc::new(MetricsRegistry::new(cfg.workers.max(1))));
    if let Some(registry) = &metrics {
        builder = builder.metrics(Arc::clone(registry));
    }
    if let Some(sink) = &cfg.trace {
        builder = builder.trace(Arc::clone(sink));
    }
    if let Some((path, every)) = &cfg.checkpoint {
        builder = builder.checkpoint(path, *every);
    }
    if let Some(path) = &cfg.resume {
        builder = builder.resume(path);
    }
    Wiring {
        builder,
        coverage,
        metrics,
    }
}

/// Composes a persona's cost-model observer with a coverage feed, when
/// either exists — the one place the pairing (and its callback order:
/// persona first) is defined.
fn compose_observer(
    persona: Option<Box<dyn Observer>>,
    map: Option<&Arc<CoverageMap>>,
) -> Option<Box<dyn Observer>> {
    match (persona, map) {
        (Some(persona), Some(map)) => {
            Some(Box::new((persona, CoverageObserver::new(Arc::clone(map)))))
        }
        (Some(persona), None) => Some(persona),
        (None, Some(map)) => Some(Box::new(CoverageObserver::new(Arc::clone(map)))),
        (None, None) => None,
    }
}

/// Result of running one engine on one benchmark.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Exploration summary (paths, error paths, solver statistics).
    pub summary: Summary,
    /// Wall-clock duration of the exploration.
    pub duration: Duration,
    /// Distinct text-segment instruction slots executed, out of the slots
    /// tracked — reported for coverage-strategy runs (`None` otherwise).
    pub covered_pcs: Option<(u64, u64)>,
    /// Merged phase-timing metrics — reported when the run was launched
    /// with metrics collection on (`None` otherwise).
    pub metrics: Option<MetricsReport>,
}

/// Runs `engine` on `elf` under `cfg` to full exploration, measuring wall
/// time.
///
/// # Errors
/// Returns [`Error`] if the binary lacks a `__sym_input` symbol, a path
/// fails to execute or replay (the buggy angr persona *can* fail on
/// binaries with custom instructions — that is part of the reproduction),
/// the configuration is invalid (persistence on a sequential run), or the
/// resume source is unreadable or incompatible ([`binsym::Error::Persist`]).
pub fn run(engine: Engine, elf: &ElfFile, cfg: &RunConfig) -> Result<RunResult, Error> {
    // The timed region includes engine construction (ELF clone, lifter
    // setup), matching the original measurement boundary of the Fig. 6
    // harness.
    let start = Instant::now();
    let Wiring {
        builder,
        coverage,
        metrics,
    } = wire(engine, elf, cfg);
    let summary = if cfg.workers == 0 {
        builder.build()?.run_all()?
    } else {
        builder.build_parallel()?.run_all()?
    };
    Ok(RunResult {
        summary,
        duration: start.elapsed(),
        covered_pcs: coverage.map(|m| (m.covered_count(), m.tracked_slots())),
        metrics: metrics.map(|r| r.report()),
    })
}

/// One memory-policy datapoint on one program: a full *sequential*
/// exploration (raw engine) under `strategy` and `policy`, with a
/// fresh [`CoverageMap`] observing every path. Shared by ablations 4 and 7
/// and the acceptance tests, so the two can never measure different
/// things. Note `paths_to_full_coverage` is paths to the run's *final*
/// coverage: when a concretizing policy leaves code unreached
/// (`covered_pcs < tracked_pcs`), it reports how fast the run saturated at
/// its — partial — ceiling.
#[derive(Debug, Clone, Copy)]
pub struct PolicyTrajectory {
    /// Total enumerated paths.
    pub paths: u64,
    /// Exploration feasibility queries discharged by the solver.
    pub solver_checks: u64,
    /// Wall-clock seconds of the exploration.
    pub seconds: f64,
    /// Paths until the run's final covered-PC count was first reached.
    pub paths_to_full_coverage: u64,
    /// Distinct text-segment instruction slots executed.
    pub covered_pcs: u64,
    /// Instruction slots tracked (the full-coverage target).
    pub tracked_pcs: u64,
}

/// Streams one full sequential exploration of `p` under `strategy` and
/// the given address-concretization `policy` (see [`PolicyTrajectory`]).
///
/// # Panics
/// Panics if the program fails to build, explore, or enumerate at least
/// one path — the bundled benchmarks are repo invariants.
pub fn policy_trajectory(
    p: &crate::Program,
    strategy: SearchStrategy,
    policy: AddressPolicyKind,
) -> PolicyTrajectory {
    let elf = p.build();
    let cfg = RunConfig {
        strategy,
        policy,
        ..RunConfig::default()
    };
    let Wiring {
        builder, coverage, ..
    } = wire(Engine::Raw, &elf, &cfg);
    // Only the coverage strategy feeds a map of its own; the trajectory
    // observes one under every strategy.
    let (builder, map) = match coverage {
        Some(map) => (builder, map),
        None => {
            let map = CoverageMap::shared_for(&elf);
            (
                builder.observer(CoverageObserver::new(Arc::clone(&map))),
                map,
            )
        }
    };
    let mut session = builder.build().expect("builds");
    let start = Instant::now();
    let mut per_path = Vec::new();
    for r in session.paths() {
        r.expect("explores");
        per_path.push(map.covered_count());
    }
    let seconds = start.elapsed().as_secs_f64();
    let summary = session.summary();
    let final_cov = *per_path.last().expect("at least one path");
    let to_full = per_path
        .iter()
        .position(|&c| c == final_cov)
        .expect("found") as u64
        + 1;
    PolicyTrajectory {
        paths: per_path.len() as u64,
        solver_checks: summary.solver_checks,
        seconds,
        paths_to_full_coverage: to_full,
        covered_pcs: final_cov,
        tracked_pcs: map.tracked_slots(),
    }
}

/// Process ids used by the virtual prototype.
const CPU: ProcessId = ProcessId(0);
const TIMER: ProcessId = ProcessId(1);

/// Deterministic busy work modeling the cost of a SystemC process context
/// switch (coroutine save/restore, channel update phase).
#[inline]
fn context_switch_spin(iters: u32) {
    let mut x = 0x51f1_5eedu32;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x = x.wrapping_add(i);
    }
    black_box(x);
}

/// The BinSym persona's cost model for *timing* comparisons.
///
/// Path semantics come from the unmodified [`binsym::SpecExecutor`]; this
/// observer only adds a calibrated busy-work cost per executed instruction,
/// modeling the GHC runtime of the paper's Haskell prototype (lazy
/// free-monad interpretation, thunk allocation). Without this, our Rust
/// re-implementation of the specification interpreter is as fast as the
/// optimized IR engine and the Fig. 6 ordering BINSEC < BinSym would not
/// be observable. The cost constant is documented in the README ("Path
/// counts and persona cost models"); path counts are unaffected.
#[derive(Debug, Clone, Copy)]
pub struct GhcRuntimeObserver {
    /// Busy-work iterations per executed instruction.
    pub runtime_cost: u32,
}

impl Default for GhcRuntimeObserver {
    fn default() -> Self {
        GhcRuntimeObserver { runtime_cost: 2500 }
    }
}

impl Observer for GhcRuntimeObserver {
    fn on_step(&mut self, _pc: u32, _steps: u64) {
        context_switch_spin(self.runtime_cost);
    }
}

/// Aggregate statistics of a [`VpObserver`] across all explored paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct VpStats {
    /// Total simulated time across all paths.
    pub simulated_time: Time,
    /// Total kernel events processed across all paths.
    pub events: u64,
}

/// The SymEx-VP persona: the formal-semantics engine executing inside a
/// SystemC-style discrete-event simulation, realized as an observer.
///
/// Per retired instruction the CPU process pays: a fetch transaction on the
/// TLM bus, an execute quantum, a kernel reschedule (event push + pop), and
/// a simulated SystemC process context switch. A peripheral timer process
/// keeps the event queue non-trivial, as in a real virtual prototype. The
/// paper attributes SymEx-VP's slowdown relative to BinSym to exactly this
/// simulation environment (§V-B).
///
/// The observer is moved into the session; keep the handle returned by
/// [`VpObserver::stats`] to read the accumulated statistics afterwards.
#[derive(Debug)]
pub struct VpObserver {
    queue: EventQueue,
    bus: Bus,
    /// Instruction execution quantum.
    pub quantum: Time,
    /// Modeled cost (in busy-work iterations) of one SystemC process
    /// context switch.
    pub context_switch_cost: u32,
    /// Totals folded in from *completed* paths; the shared stats are kept
    /// at `base + current path's queue state` after every step, so a path
    /// aborted mid-way (fuel exhaustion) is still accounted for.
    base: VpStats,
    stats: Rc<RefCell<VpStats>>,
}

impl VpObserver {
    /// Creates the virtual-prototype observer.
    pub fn new() -> Self {
        let mut queue = EventQueue::new();
        queue.schedule(TIMER, Time::from_ns(1000));
        VpObserver {
            queue,
            bus: Bus::default(),
            quantum: Time::from_ns(10),
            context_switch_cost: 8000,
            base: VpStats::default(),
            stats: Rc::new(RefCell::new(VpStats::default())),
        }
    }

    /// Shared handle to the accumulated simulation statistics.
    pub fn stats(&self) -> Rc<RefCell<VpStats>> {
        Rc::clone(&self.stats)
    }

    /// Publishes `base + current path` to the shared handle.
    fn publish(&self) {
        let mut stats = self.stats.borrow_mut();
        stats.simulated_time = self.base.simulated_time.saturating_add(self.queue.now());
        stats.events = self.base.events + self.queue.processed();
    }
}

impl Default for VpObserver {
    fn default() -> Self {
        VpObserver::new()
    }
}

impl Observer for VpObserver {
    fn on_step(&mut self, _pc: u32, _steps: u64) {
        // SystemC context switch into the CPU thread.
        context_switch_spin(self.context_switch_cost);
        // Fetch transaction + execution quantum: schedule the retire event
        // and run the kernel until the CPU is due again, processing any
        // peripheral events that fire in between.
        let delay = self.quantum + self.bus.transport(4);
        self.queue.schedule(CPU, delay);
        while let Some((_, pid)) = self.queue.pop() {
            match pid {
                CPU => break,
                TIMER => {
                    // Peripheral heartbeat: keeps the queue non-trivial.
                    context_switch_spin(self.context_switch_cost / 8);
                    self.queue.schedule(TIMER, Time::from_ns(1000));
                }
                other => unreachable!("unknown process {other:?}"),
            }
        }
        self.publish();
    }

    fn on_path(&mut self, _input: &[u8], _outcome: &binsym::PathOutcome) {
        // Fold this path's simulation into the base totals and reset the
        // kernel for the next path (each path restarts the SUT from
        // scratch).
        self.base.simulated_time = self.base.simulated_time.saturating_add(self.queue.now());
        self.base.events += self.queue.processed();
        self.queue = EventQueue::new();
        self.queue.schedule(TIMER, Time::from_ns(1000));
        self.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    fn small_program() -> ElfFile {
        binsym_asm::Assembler::new()
            .assemble(
                r#"
        .data
__sym_input: .byte 0
        .text
_start:
    la a0, __sym_input
    lbu a1, 0(a0)
    li a2, 50
    bltu a1, a2, small
    li a0, 0
    li a7, 93
    ecall
small:
    li a0, 0
    li a7, 93
    ecall
"#,
            )
            .expect("assembles")
    }

    #[test]
    fn all_engines_agree_on_small_program() {
        let elf = small_program();
        for engine in Engine::TABLE1 {
            let r = run(engine, &elf, &RunConfig::default()).expect("runs");
            assert_eq!(r.summary.paths, 2, "{}", engine.name());
        }
    }

    #[test]
    fn parallel_personas_match_sequential_path_counts() {
        let elf = small_program();
        for engine in Engine::TABLE1 {
            let seq = run(engine, &elf, &RunConfig::default())
                .expect("sequential")
                .summary;
            for workers in [1, 2] {
                let cfg = RunConfig {
                    workers,
                    ..RunConfig::default()
                };
                let par = run(engine, &elf, &cfg).expect("parallel").summary;
                assert_eq!(
                    par.paths,
                    seq.paths,
                    "{} with {workers} workers",
                    engine.name()
                );
                assert_eq!(par.error_paths.len(), seq.error_paths.len());
            }
        }
    }

    #[test]
    fn coverage_strategy_preserves_path_counts_and_reports_coverage() {
        let elf = small_program();
        let coverage = |workers| RunConfig {
            workers,
            strategy: SearchStrategy::Coverage,
            ..RunConfig::default()
        };
        for engine in [Engine::BinSym, Engine::Binsec] {
            let seq = run(engine, &elf, &coverage(0)).expect("seq");
            assert_eq!(seq.summary.paths, 2, "{} sequential", engine.name());
            let (covered, tracked) = seq.covered_pcs.expect("coverage reported");
            assert!(covered > 0 && covered <= tracked, "{}", engine.name());

            let par = run(engine, &elf, &coverage(2)).expect("par");
            assert_eq!(par.summary.paths, 2, "{} sharded", engine.name());
            assert_eq!(
                par.covered_pcs.expect("coverage reported"),
                (covered, tracked),
                "{}: full exploration covers the same PCs on any schedule",
                engine.name()
            );

            let dfs = run(engine, &elf, &RunConfig::default()).expect("dfs");
            assert_eq!(dfs.summary.paths, par.summary.paths);
            assert!(dfs.covered_pcs.is_none(), "dfs runs report no coverage");
        }
    }

    #[test]
    fn bfs_strategy_preserves_path_counts() {
        let elf = small_program();
        for workers in [0usize, 2] {
            let cfg = RunConfig {
                workers,
                strategy: SearchStrategy::Bfs,
                ..RunConfig::default()
            };
            let r = run(Engine::BinSym, &elf, &cfg).expect("explores");
            assert_eq!(r.summary.paths, 2, "{workers} workers");
            assert!(r.covered_pcs.is_none());
        }
    }

    #[test]
    fn search_strategy_parses_and_rejects() {
        assert_eq!(SearchStrategy::parse("dfs"), Some(SearchStrategy::Dfs));
        assert_eq!(SearchStrategy::parse("bfs"), Some(SearchStrategy::Bfs));
        assert_eq!(
            SearchStrategy::parse("coverage"),
            Some(SearchStrategy::Coverage)
        );
        assert_eq!(SearchStrategy::parse("dfS"), None);
        let opts = crate::cli::BenchOpts::parse(
            ["--strategy", "coverage"].map(String::from).into_iter(),
            None,
        );
        assert_eq!(opts.strategy, SearchStrategy::Coverage);
    }

    #[test]
    fn vp_accumulates_simulated_time() {
        let elf = small_program();
        let vp = VpObserver::new();
        let stats = vp.stats();
        let summary = Session::builder(Spec::rv32im())
            .binary(&elf)
            .observer(vp)
            .build()
            .expect("builds")
            .run_all()
            .expect("explores");
        let stats = stats.borrow();
        assert!(stats.simulated_time > Time::ZERO);
        assert!(
            stats.events >= summary.total_steps,
            "kernel processes at least one event per instruction"
        );
    }

    #[test]
    fn vp_stats_survive_fuel_exhaustion() {
        // A path aborted by the fuel budget must still contribute its
        // simulated time and kernel events (the pre-observer VpExecutor
        // accumulated them before returning OutOfFuel).
        let elf = small_program();
        let vp = VpObserver::new();
        let stats = vp.stats();
        let mut session = Session::builder(Spec::rv32im())
            .binary(&elf)
            .observer(vp)
            .fuel(3) // far less than the program needs
            .build()
            .expect("builds");
        assert!(matches!(
            session.run_all(),
            Err(binsym::Error::OutOfFuel { .. })
        ));
        let stats = stats.borrow();
        assert!(stats.simulated_time > Time::ZERO, "aborted path counted");
        assert!(stats.events >= 3, "one kernel event per executed step");
    }

    #[test]
    fn instrumented_runs_report_metrics_without_changing_results() {
        let elf = small_program();
        let sink = Arc::new(binsym::ChromeTraceSink::new());
        let trace: Arc<dyn TraceSink> = Arc::clone(&sink) as Arc<dyn TraceSink>;
        for workers in [0usize, 2] {
            let plain = RunConfig {
                workers,
                ..RunConfig::default()
            };
            let plain = run(Engine::BinSym, &elf, &plain).expect("plain run");
            assert!(plain.metrics.is_none(), "metrics are opt-in");
            let cfg = RunConfig {
                workers,
                metrics: true,
                trace: Some(Arc::clone(&trace)),
                ..RunConfig::default()
            };
            let instrumented = run(Engine::BinSym, &elf, &cfg).expect("instrumented run");
            assert_eq!(instrumented.summary.paths, plain.summary.paths);
            assert_eq!(
                instrumented.summary.solver_checks, plain.summary.solver_checks,
                "instrumentation is wall-time-only ({workers} workers)"
            );
            let report = instrumented.metrics.expect("metrics collected");
            assert_eq!(
                report.counter(binsym::Counter::Paths),
                instrumented.summary.paths
            );
            assert!(report.query_latency().total() > 0, "queries were timed");
        }
        assert!(!sink.is_empty(), "phases were traced");
        crate::cli::validate_trace(&sink.render()).expect("trace well-formed");
    }

    #[test]
    fn engines_disagree_only_where_documented() {
        // On the bug-neutral bubble-sort (n reduced via input override is
        // not available here, so use the real 6-element program sparingly:
        // this is the slowest unit test in the crate).
        let p = programs::BUBBLE_SORT;
        let elf = p.build();
        let correct = run(Engine::BinSym, &elf, &RunConfig::default())
            .expect("binsym")
            .summary;
        let buggy = run(Engine::Angr, &elf, &RunConfig::default())
            .expect("angr")
            .summary;
        assert_eq!(correct.paths, p.expected_paths);
        assert_eq!(buggy.paths, p.expected_paths_buggy_angr);
    }

    #[test]
    fn memory_policy_spellings_parse() {
        assert_eq!(
            parse_memory_policy("eq"),
            Some(AddressPolicyKind::ConcretizeEq)
        );
        assert_eq!(
            parse_memory_policy("min"),
            Some(AddressPolicyKind::ConcretizeMin)
        );
        assert_eq!(
            parse_memory_policy("symbolic:64"),
            Some(AddressPolicyKind::Symbolic { window: 64 })
        );
        // The Display form must round-trip through the parser, so the CLI
        // spelling and the JSON rows can never drift apart.
        for policy in [
            AddressPolicyKind::ConcretizeEq,
            AddressPolicyKind::ConcretizeMin,
            AddressPolicyKind::Symbolic { window: 128 },
        ] {
            assert_eq!(parse_memory_policy(&policy.to_string()), Some(policy));
        }
        for bad in ["", "EQ", "symbolic", "symbolic:", "symbolic:0", "window:8"] {
            assert_eq!(parse_memory_policy(bad), None, "{bad:?} must be rejected");
        }
    }
}
