//! One benchmark run: rounds of full explorations of every (program,
//! configuration) pair of a workload, in an order the seed shuffles anew
//! each round. The first round always completes; after it, explorations
//! go on until the next one would overrun the run's time budget, so the
//! last round may stop part-way. Set-up, output checks and the clone
//! probe run outside the timed explorations and outside the budget.
//!
//! An untraced run times the plain sessions and reports the end-to-end
//! metrics. A traced run explores every pair twice per round — once plain,
//! once with the layer timers attached, in a seeded order — and reports
//! the per-layer metrics, the tracing overhead, and how much of the wall
//! time the timed layers account for.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use binsym::{Phase, Summary};
use binsym_bench::programs::{BASE64_ENCODE, BUBBLE_SORT, CLIF_PARSER, INSERTION_SORT, URI_PARSER};
use binsym_bench::Program;
use binsym_elf::ElfFile;

use crate::check::Checker;
use crate::engine::{build, explore, Built, Config, LayerTimes, Probes};
use crate::probe::{clone_us, CLONE_DEPTHS};
use crate::stats::{mean, median, peak_rss_mib, percentile, SplitMix64};

/// A set of Table I programs explored together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// base64-encode + insertion-sort: deep trails, solver-bound.
    DeepSolve,
    /// uri-parser + clif-parser: short solves, executor-bound.
    ShallowExec,
    /// bubble-sort: the static gate refutes most flip queries.
    InfeasibleFlips,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::DeepSolve,
        Workload::ShallowExec,
        Workload::InfeasibleFlips,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepSolve => "deep-solve",
            Workload::ShallowExec => "shallow-exec",
            Workload::InfeasibleFlips => "infeasible-flips",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The programs explored.
    pub fn programs(self) -> &'static [Program] {
        match self {
            Workload::DeepSolve => &[BASE64_ENCODE, INSERTION_SORT],
            Workload::ShallowExec => &[URI_PARSER, CLIF_PARSER],
            Workload::InfeasibleFlips => &[BUBBLE_SORT],
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seeds the exploration order.
    pub seed: u64,
    /// Exploration time budget in seconds.
    pub seconds: f64,
    /// Per-layer (traced) rather than end-to-end metrics.
    pub trace: bool,
}

/// What one run measured.
#[derive(Debug)]
pub struct Report {
    /// Explorations attempted.
    pub attempted: u64,
    /// Explorations that returned an error or failed the output check.
    pub failed: u64,
    /// Why each failed exploration failed.
    pub failures: Vec<String>,
    /// The metric values, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable context: seed, order, exact work counters.
    pub notes: Vec<String>,
}

/// Setup samples taken per run at least, for a steady `setup_s` median.
const MIN_SETUP_SAMPLES: usize = 15;

/// The least share of a configuration's thread-seconds the traced layers
/// must account for; the remainder is the session loop, frontier
/// operations and idle workers.
const ATTRIBUTION_FLOOR: f64 = 0.90;

/// One (program, configuration) pair.
#[derive(Debug, Clone, Copy)]
struct Job {
    program: usize,
    cfg: Config,
}

/// One traced exploration.
struct Traced {
    program: usize,
    wall: f64,
    summary: Summary,
    layers: LayerTimes,
}

/// The sessions of one round, built ahead of the explorations.
struct Round {
    elfs: Vec<ElfFile>,
    sessions: Vec<(Built, Option<(Built, Probes)>)>,
}

/// Assembles `programs` and builds the sessions of `jobs` — the work
/// `setup_s` measures.
fn set_up(programs: &[Program], jobs: &[Job], trace: bool) -> Result<Round, String> {
    let elfs: Vec<ElfFile> = programs.iter().map(Program::build).collect();
    let mut sessions = Vec::with_capacity(jobs.len());
    for job in jobs {
        let elf = &elfs[job.program];
        let plain = build(job.cfg, elf, None).map_err(|e| format!("build: {e}"))?;
        let traced = if trace {
            let probes = Probes::new(job.cfg);
            let built = build(job.cfg, elf, Some(&probes)).map_err(|e| format!("build: {e}"))?;
            Some((built, probes))
        } else {
            None
        };
        sessions.push((plain, traced));
    }
    Ok(Round { elfs, sessions })
}

/// Runs the benchmark as `opts` asks.
///
/// # Errors
/// When a session cannot be built — a broken benchmark, not a failed
/// exploration.
pub fn run(opts: &Options) -> Result<Report, String> {
    let programs = opts.workload.programs();
    let mut rng = SplitMix64::new(opts.seed);
    let mut jobs: Vec<Job> = (0..programs.len())
        .flat_map(|program| Config::ALL.map(|cfg| Job { program, cfg }))
        .collect();
    let mut checkers: Vec<Checker> = Vec::new();
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut plain: BTreeMap<(usize, Config), Vec<f64>> = BTreeMap::new();
    let mut traced: BTreeMap<Config, Vec<Traced>> = BTreeMap::new();
    let mut counters: BTreeMap<(usize, Config), Summary> = BTreeMap::new();
    let mut last_job_s: BTreeMap<(usize, Config), f64> = BTreeMap::new();
    let mut setup_samples = Vec::new();
    let mut notes = vec![format!(
        "workload={} seed={} trace={}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    )];
    let mut explored_s = 0.0;
    let mut rounds = 0u32;

    // Every pair is explored once; after that, rounds go on until the next
    // exploration would overrun the budget, possibly mid-round.
    'rounds: loop {
        rng.shuffle(&mut jobs);
        if rounds == 0 {
            let order: Vec<String> = jobs
                .iter()
                .map(|j| format!("{}/{}", programs[j.program].name, j.cfg.prefix()))
                .collect();
            notes.push(format!("first-round order: {}", order.join(" ")));
        }
        let started = Instant::now();
        let round = set_up(programs, &jobs, opts.trace)?;
        setup_samples.push(started.elapsed().as_secs_f64());
        if checkers.is_empty() {
            checkers = programs
                .iter()
                .zip(&round.elfs)
                .map(|(p, elf)| Checker::new(*p, elf.clone()))
                .collect();
        }

        for (job, (plain_session, traced_session)) in jobs.iter().zip(round.sessions) {
            let key = (job.program, job.cfg);
            if rounds > 0 && explored_s + last_job_s[&key] > opts.seconds {
                break 'rounds;
            }
            let mut runs = vec![(plain_session, None)];
            if let Some((session, probes)) = traced_session {
                runs.push((session, Some(probes)));
                // A seeded coin decides which of the pair runs first, so
                // neither side systematically gets the warmer caches.
                if rng.next_u64() & 1 == 1 {
                    runs.swap(0, 1);
                }
            }
            let mut job_s = 0.0;
            for (session, probes) in runs {
                let (wall, result) = explore(session);
                let wall = wall.as_secs_f64();
                job_s += wall;
                attempted += 1;
                let name = programs[job.program].name;
                let explored = match result {
                    Ok(explored) => explored,
                    Err(e) => {
                        failures.push(format!("{name}/{}: {e}", job.cfg.prefix()));
                        continue;
                    }
                };
                let problems = checkers[job.program].check(job.cfg, &explored);
                if !problems.is_empty() {
                    failures.push(problems.join("; "));
                }
                match probes {
                    None => {
                        plain.entry(key).or_default().push(wall);
                        counters.entry(key).or_insert(explored.summary);
                    }
                    Some(probes) => traced.entry(job.cfg).or_default().push(Traced {
                        program: job.program,
                        wall,
                        summary: explored.summary,
                        layers: probes.collect(),
                    }),
                }
            }
            explored_s += job_s;
            last_job_s.insert(key, job_s);
            if !opts.trace {
                // One more set-up sample between every two explorations, so
                // the `setup_s` median spans the whole run rather than one
                // burst at its end.
                let started = Instant::now();
                drop(set_up(programs, &jobs, false)?);
                setup_samples.push(started.elapsed().as_secs_f64());
            }
        }
        rounds += 1;
    }
    notes.push(format!("full_rounds={rounds} explored_s={explored_s:.3}"));
    for cfg in Config::ALL {
        let firsts: Vec<&Summary> = (0..programs.len())
            .filter_map(|p| counters.get(&(p, cfg)))
            .collect();
        let samples: Vec<String> = (0..programs.len())
            .map(|p| {
                let mut walls = plain.get(&(p, cfg)).cloned().unwrap_or_default();
                let mid = median(&mut walls);
                format!(
                    "{}: n={} median={mid:.4} min={:.4} max={:.4}",
                    programs[p].name,
                    walls.len(),
                    walls.first().copied().unwrap_or(0.0),
                    walls.last().copied().unwrap_or(0.0),
                )
            })
            .collect();
        notes.push(format!(
            "{}: paths={} solver_checks={} total_steps={} max_trail_len={} wall_s {}",
            cfg.prefix(),
            firsts.iter().map(|s| s.paths).sum::<u64>(),
            firsts.iter().map(|s| s.solver_checks).sum::<u64>(),
            firsts.iter().map(|s| s.total_steps).sum::<u64>(),
            firsts.iter().map(|s| s.max_trail_len).max().unwrap_or(0),
            samples.join("; "),
        ));
    }

    let mut metrics = BTreeMap::new();
    if opts.trace {
        for cfg in Config::ALL {
            let rows = traced.get(&cfg).map(Vec::as_slice).unwrap_or_default();
            let plain_s: f64 = (0..programs.len())
                .map(|p| mean(plain.get(&(p, cfg)).map(Vec::as_slice).unwrap_or_default()))
                .sum();
            let attributed = layer_metrics(cfg, rows, plain_s, &mut metrics);
            if attributed < ATTRIBUTION_FLOOR {
                failures.push(format!(
                    "{}: traced layers account for {:.1}% of the thread-seconds, below {:.0}%",
                    cfg.prefix(),
                    attributed * 100.0,
                    ATTRIBUTION_FLOOR * 100.0
                ));
            }
        }
        for depth in CLONE_DEPTHS {
            metrics.insert(
                format!("smt.clone_us.d{depth}"),
                clone_us(depth, Duration::from_millis(100)),
            );
        }
    } else {
        for cfg in Config::ALL {
            let wall: f64 = (0..programs.len())
                .map(|p| {
                    median(
                        plain
                            .get_mut(&(p, cfg))
                            .map(Vec::as_mut_slice)
                            .unwrap_or_default(),
                    )
                })
                .sum();
            let paths: u64 = programs.iter().map(|p| p.expected_paths).sum();
            metrics.insert(format!("{}.paths_per_s", cfg.prefix()), paths as f64 / wall);
        }
        while setup_samples.len() < MIN_SETUP_SAMPLES {
            let started = Instant::now();
            drop(set_up(programs, &jobs, false)?);
            setup_samples.push(started.elapsed().as_secs_f64());
        }
        metrics.insert("setup_s".into(), median(&mut setup_samples));
        metrics.insert(
            "peak_rss_mib".into(),
            peak_rss_mib().ok_or("peak RSS is unavailable (no /proc/self/status)")?,
        );
        let failed = failures.len() as f64;
        metrics.insert(
            "ok_ratio".into(),
            (attempted as f64 - failed) / attempted as f64,
        );
    }
    notes.push(format!(
        "failed_ratio={}",
        failures.len() as f64 / attempted as f64
    ));
    Ok(Report {
        attempted,
        failed: failures.len() as u64,
        failures,
        metrics,
        notes,
    })
}

/// Writes the per-layer metrics of `cfg` from its traced explorations
/// `rows` into `out`, returning the share of thread-seconds the layers
/// account for. Times and counts are for one exploration of each program
/// (the mean over that program's rows, summed over programs); `plain_s` is
/// the same for the untraced explorations.
fn layer_metrics(
    cfg: Config,
    rows: &[Traced],
    plain_s: f64,
    out: &mut BTreeMap<String, f64>,
) -> f64 {
    let mut put = |suffix: &str, value: f64| {
        out.insert(format!("{}.{suffix}", cfg.prefix()), value);
    };
    // The mean over each program's rows, summed over programs: a program
    // explored once more than another (a round cut short) does not count
    // double, and counts that repeat exactly stay whole numbers.
    let programs: BTreeSet<usize> = rows.iter().map(|r| r.program).collect();
    let sum = |f: &dyn Fn(&Traced) -> f64| {
        programs
            .iter()
            .map(|&p| {
                let mine: Vec<f64> = rows.iter().filter(|r| r.program == p).map(f).collect();
                mean(&mine)
            })
            .sum::<f64>()
    };
    let secs = |ns: u64| ns as f64 * 1e-9;

    let wall = sum(&|r| r.wall);
    let phase = |p: Phase| sum(&|r| r.layers.report.phase_seconds(p));

    put("paths", sum(&|r| r.summary.paths as f64));
    let solver_checks = sum(&|r| r.summary.solver_checks as f64);
    put("solver_checks", solver_checks);
    put(
        "max_trail_len",
        rows.iter()
            .map(|r| r.summary.max_trail_len)
            .max()
            .unwrap_or(0) as f64,
    );

    let mut execute_ns: Vec<u64> = rows
        .iter()
        .flat_map(|r| r.layers.executor.execute_ns.iter().copied())
        .collect();
    let execute_s = sum(&|r| secs(r.layers.executor.execute_total_ns()));
    let steps = sum(&|r| r.layers.executor.steps as f64);
    put("executor.execute_s", execute_s);
    put(
        "executor.execute_calls",
        sum(&|r| r.layers.executor.execute_ns.len() as f64),
    );
    put("executor.steps", steps);
    put("executor.steps_per_s", steps / execute_s);
    put(
        "executor.execute_p50_us",
        percentile(&mut execute_ns, 0.50) as f64 / 1e3,
    );
    put(
        "executor.execute_p99_us",
        percentile(&mut execute_ns, 0.99) as f64 / 1e3,
    );
    let replay_s = sum(&|r| secs(r.layers.executor.replay_ns));
    let replay_calls = sum(&|r| r.layers.executor.replay_calls as f64);
    if cfg.is_parallel() {
        put("executor.replay_s", replay_s);
        put("executor.replay_calls", replay_calls);
    }
    let mut attributed = execute_s + replay_s;

    if cfg.has_backend() {
        let mut check_ns: Vec<u64> = rows
            .iter()
            .flat_map(|r| r.layers.solver.check_ns.iter().copied())
            .collect();
        let assert_s = sum(&|r| secs(r.layers.solver.assert_ns));
        let check_s = sum(&|r| secs(r.layers.solver.check_total_ns()));
        let frame_s = sum(&|r| secs(r.layers.solver.frame_ns));
        put("solver.assert_s", assert_s);
        put("solver.check_s", check_s);
        put(
            "solver.checks",
            sum(&|r| r.layers.solver.check_ns.len() as f64),
        );
        put("solver.unsat", sum(&|r| r.layers.solver.unsat as f64));
        put(
            "solver.check_p50_us",
            percentile(&mut check_ns, 0.50) as f64 / 1e3,
        );
        put(
            "solver.check_p99_us",
            percentile(&mut check_ns, 0.99) as f64 / 1e3,
        );
        put("solver.frame_s", frame_s);
        attributed += assert_s + check_s + frame_s;
    }

    let screened = sum(&|r| r.layers.report.phase_count(Phase::Gate) as f64);
    if cfg.is_warm() {
        let solve_s = phase(Phase::WarmSolve);
        let promote_s = phase(Phase::WarmPromote);
        // Parents queried too rarely to earn a retained context are solved
        // cold inside the cache, on `binsym-smt` directly.
        let cold_s = phase(Phase::BitBlast) + phase(Phase::Solve);
        put("warm.solve_s", solve_s);
        put("warm.promote_s", promote_s);
        put("warm.cold_solve_s", cold_s);
        put("warm.replay_skipped_ratio", 1.0 - replay_calls / screened);
        attributed += solve_s + promote_s + cold_s;
    }

    let gate_s = phase(Phase::Gate);
    let eliminated = screened - solver_checks;
    put("gate.screened", screened);
    put("gate.eliminated", eliminated);
    put("gate.eliminated_ratio", eliminated / screened);
    put("gate.s", gate_s);
    attributed += gate_s;

    // Thread-seconds the configuration had: every worker for the worker
    // phase, then the coordinator alone for the merge.
    let merge_s = phase(Phase::Merge);
    let workers = cfg.workers() as f64;
    let capacity = workers * (wall - merge_s) + merge_s;
    if cfg.is_parallel() {
        put("parallel.merge_s", merge_s);
        put("parallel.worker_busy_ratio", attributed / (workers * wall));
    }
    attributed += merge_s;
    put("unattributed_s", capacity - attributed);
    put("attributed_ratio", attributed / capacity);
    put("trace_overhead_ratio", wall / plain_s);
    attributed / capacity
}
