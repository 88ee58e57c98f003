//! Ablation harness for the design choices called out in DESIGN.md:
//!
//! 1. **Incremental solving** — the DSE loop's push/pop solver (shared
//!    bit-blast cache, learned clauses) vs. a fresh solver per branch-flip
//!    query, expressed as the two [`BitblastBackend`] modes plugged into
//!    otherwise identical [`Session`]s.
//! 2. **Lift caching** — the IR engine with and without its translation
//!    cache (the BINSEC-vs-angr structural difference, isolated from the
//!    interpretation-overhead model).
//! 3. **Worker scaling and warm start** — the sharded `ParallelSession`
//!    (replay-based exploration, fresh solver context per prescription) at
//!    1..=N workers vs. the sequential incremental engine, isolating what
//!    the prescription-replay model costs and what the parallelism buys
//!    back; each worker count also runs with the deterministic
//!    prefix-keyed warm start (`.warm_start(true)`), quantifying how much
//!    replayed-prefix cost the cache claws back (per-path seconds and
//!    cache hit/reuse counters in the `--json` rows) — with results
//!    byte-identical to the cache-off run by construction.
//! 4. **Search strategy vs. coverage velocity** — paths needed to reach
//!    full text-segment PC coverage under DFS, BFS, and the
//!    coverage-guided policy, on all five Table I programs. Every policy
//!    enumerates the same complete path set; what differs — and what a
//!    truncated exploration budget buys — is how *early* unexecuted code
//!    surfaces.
//! 5. **Static-analysis gate** — the word-level known-bits/interval
//!    screen (`.static_analysis(..)`) on vs. off, on all five Table I
//!    programs. The gate may only remove whole solver queries, never
//!    change results, so the run asserts
//!    `checks(off) == checks(on) + eliminated` alongside the path count.
//!    Only programs whose flip set contains infeasible branches (bubble
//!    sort in Table I) can show nonzero elimination; the rows carry the
//!    off-side unsat totals so the ceiling is visible next to the count.
//! 6. **Checkpoint overhead** — the atomic frontier persistence
//!    (`.checkpoint(path, every)`) off vs. every 16 merged paths vs. every
//!    single path, on the sharded engine. Checkpoints are wall-time-only
//!    (the resume determinism pins forbid result drift), so the rows
//!    quantify what the tmp+rename serialization of the full committed
//!    record set costs at each interval; `checkpoints_written` counts the
//!    writes.
//! 7. **Memory policy** — the address-concretization policies
//!    (`.address_policy(..)`) compared on the dedicated `table-lookup`
//!    benchmark and the five Table I programs: `eq` (the paper's §III-B
//!    pin), `min` (smallest feasible address), and `symbolic:64` (the
//!    window-relational array model). Path count, solver checks, wall
//!    time, and coverage per row. On the Table I programs every policy
//!    enumerates the same complete path set (their addresses are
//!    concrete); on `table-lookup` the concretizing policies saturate at
//!    partial coverage while `symbolic:64` reaches every instruction —
//!    the row carries `sym_fewer_paths_to_full: true` once that
//!    separation is asserted.
//!
//! ```text
//! cargo run --release -p binsym-bench --bin ablation \
//!     [--quick] [--smoke] [--workers N] [--runs N] [--json PATH] \
//!     [--metrics] [--trace PATH] [--checkpoint PATH]
//! ```
//!
//! `--checkpoint PATH` redirects ablation 6's checkpoint files from the
//! temp directory to `PATH.<every>.<benchmark>.ck` (and keeps them);
//! `--checkpoint-every` is fixed by the ablation grid (off / 16 / 1) and
//! `--resume` is ignored here — an ablation measures complete runs, and a
//! resumed round would skip the very work being timed.
//!
//! Ablations 3, 5 and 6 read their counters from a [`MetricsRegistry`]
//! installed on both sides of every comparison. `--metrics` adds its
//! per-phase seconds (execute vs solve vs gate, averaged over the rounds
//! like the wall times), every counter, and query-latency percentiles to
//! those JSON rows; `--trace PATH` records the campaign into one Chrome
//! trace-event file for `ui.perfetto.dev`.
//!
//! `--runs N` averages the timed ablations (3, 5 and 6) over N interleaved
//! rounds (default 1), damping scheduler noise on shared hardware. The
//! rows carry each counter's per-round mean, rounded: the path, query,
//! gate, and checkpoint counters are exact, so the mean is the value of
//! any single round; the warm-cache counters at two or more workers
//! depend on the work-stealing schedule and vary between rounds.
//!
//! `--smoke` is the CI-sized run: ablation 3 (warm start on/off, on the
//! smallest Table I program and on uri-parser — the structural-keying
//! canary, whose warm rows are asserted to show `warm_prefix_reused > 0`)
//! plus ablation 5 (gate on/off on the smallest program and on bubble
//! sort — the one with infeasible flips) plus ablation 7 (the three
//! memory policies on `table-lookup` and the smallest Table I program,
//! asserting the symbolic-coverage separation), so every merge exercises
//! the warm-start, queries-eliminated, and memory-policy datapoints
//! without the full matrix.

use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use binsym::{
    AddressPolicyKind, BitblastBackend, Counter, MetricsReport, Session, SessionBuilder, TraceSink,
};
use binsym_bench::cli::{
    counter_per_round, metrics_json, write_json, BenchOpts, CampaignTrace, Json,
};
use binsym_bench::engines::suffixed;
use binsym_bench::{
    all_programs, policy_trajectory, programs, run, wire, Engine, Program, RunConfig,
    SearchStrategy, Wiring, TABLE_LOOKUP, TABLE_LOOKUP_SYMBOLIC_PATHS,
};
use binsym_isa::Spec;
use binsym_lifter::{EngineConfig, LifterBugs, LifterExecutor};

fn main() {
    let opts = BenchOpts::from_env();
    if opts.resume.is_some() {
        eprintln!("--resume is ignored: ablations time complete runs only");
    }
    let mut json_rows = Vec::new();
    let trace = CampaignTrace::new(&opts);
    let sink = trace.sink();
    let sink = sink.as_ref();
    let runs = opts.runs.map_or(1, NonZeroUsize::get);
    let checkpoint_base = opts.checkpoint.as_ref().map(|(base, _)| base.as_path());

    if opts.smoke {
        let max_workers = opts.workers.unwrap_or(2);
        // uri-parser rides along in the CI-sized run because it is the
        // program whose flip set only shares prefixes *across* parents:
        // its `warm_prefix_reused` was exactly 0 under input keying, so
        // it is the regression canary for the structural context keys.
        ablation3(
            &[programs::CLIF_PARSER, programs::URI_PARSER],
            max_workers,
            runs,
            opts.metrics,
            sink,
            &mut json_rows,
        );
        assert_warm_prefix_reuse(&json_rows, "uri-parser");
        // Bubble sort is the Table I program whose flip set contains
        // infeasible branches, so it is the one that shows a nonzero
        // queries-eliminated count in CI.
        ablation5(
            &[programs::CLIF_PARSER, programs::BUBBLE_SORT],
            max_workers,
            runs,
            opts.metrics,
            sink,
            &mut json_rows,
        );
        // Checkpoint overhead on the smallest program: CI pins that the
        // every-1 row reports `checkpoints_written == paths + 1` (one per
        // committed path plus the drain write) without result drift.
        ablation6(
            &[programs::CLIF_PARSER],
            max_workers,
            runs,
            checkpoint_base,
            sink,
            &mut json_rows,
        );
        // The memory-policy separation: CI pins that `symbolic:64` reaches
        // full coverage on table-lookup while the concretizing policies
        // saturate below it.
        ablation7(&[TABLE_LOOKUP, programs::CLIF_PARSER], &mut json_rows);
        if let Some(path) = &opts.json {
            let doc = Json::O(vec![
                ("bin", Json::s("ablation")),
                ("smoke", Json::B(true)),
                ("max_workers", Json::U(max_workers as u64)),
                ("rows", Json::A(json_rows)),
            ]);
            write_json(path, &doc);
        }
        trace.finish();
        return;
    }

    let progs = [programs::CLIF_PARSER, programs::URI_PARSER];
    println!("ABLATION 1 — incremental vs. fresh-solver DSE (BinSym engine)\n");
    println!(
        "{:<16} {:>14} {:>14} {:>8}",
        "Benchmark", "incremental", "fresh/query", "speedup"
    );
    for p in &progs {
        let elf = p.build();
        let mut times = Vec::new();
        for fresh in [false, true] {
            let backend = if fresh {
                BitblastBackend::fresh_per_query()
            } else {
                BitblastBackend::new()
            };
            let mut session = Session::builder(Spec::rv32im())
                .binary(&elf)
                .backend(backend)
                .build()
                .expect("sym input");
            let start = Instant::now();
            let s = session.run_all().expect("explores");
            assert_eq!(s.paths, p.expected_paths, "ablation must not change paths");
            times.push(start.elapsed());
        }
        println!(
            "{:<16} {:>12.1?} {:>12.1?} {:>7.2}x",
            p.name,
            times[0],
            times[1],
            times[1].as_secs_f64() / times[0].as_secs_f64().max(1e-9),
        );
        json_rows.push(Json::O(vec![
            ("ablation", Json::s("incremental-solving")),
            ("benchmark", Json::s(p.name)),
            ("incremental_seconds", Json::F(times[0].as_secs_f64())),
            ("fresh_seconds", Json::F(times[1].as_secs_f64())),
        ]));
    }

    println!("\nABLATION 2 — IR-engine lift cache (no interpretation overhead)\n");
    println!(
        "{:<16} {:>14} {:>14} {:>12} {:>8}",
        "Benchmark", "cached", "uncached", "lifts(unc.)", "slowdown"
    );
    for p in &progs {
        let elf = p.build();
        let mut times = Vec::new();
        let mut lifts = 0;
        for cache in [true, false] {
            let exec = LifterExecutor::new(
                &elf,
                EngineConfig {
                    bugs: LifterBugs::NONE,
                    cache_blocks: cache,
                    interp_overhead: 0,
                },
            )
            .expect("sym input");
            // Shared handle: the session owns one clone, we keep the other
            // to read the lift counter after exploration.
            let exec = Rc::new(RefCell::new(exec));
            let mut session = Session::executor_builder(Rc::clone(&exec))
                .build()
                .expect("builds");
            let start = Instant::now();
            let s = session.run_all().expect("explores");
            assert_eq!(s.paths, p.expected_paths);
            times.push(start.elapsed());
            if !cache {
                lifts = exec.borrow().lift_count;
            }
        }
        println!(
            "{:<16} {:>12.1?} {:>12.1?} {:>12} {:>7.2}x",
            p.name,
            times[0],
            times[1],
            lifts,
            times[1].as_secs_f64() / times[0].as_secs_f64().max(1e-9),
        );
        json_rows.push(Json::O(vec![
            ("ablation", Json::s("lift-cache")),
            ("benchmark", Json::s(p.name)),
            ("cached_seconds", Json::F(times[0].as_secs_f64())),
            ("uncached_seconds", Json::F(times[1].as_secs_f64())),
            ("uncached_lifts", Json::U(lifts)),
        ]));
    }

    let max_workers = opts.workers.unwrap_or(4);
    // All five Table I programs: the structural context keys must show
    // nonzero prefix reuse on every one of them, so the full run records
    // warm counters for the whole table (`--quick` keeps the small ones).
    let table1: Vec<_> = all_programs()
        .into_iter()
        .filter(|p| !(opts.quick && p.expected_paths > 1000))
        .collect();
    ablation3(
        &table1,
        max_workers,
        runs,
        opts.metrics,
        sink,
        &mut json_rows,
    );
    for p in &table1 {
        assert_warm_prefix_reuse(&json_rows, p.name);
    }

    println!("\nABLATION 4 — paths to full PC coverage (search-strategy comparison)\n");
    println!(
        "{:<16} {:>8} {:>8} {:>10} {:>10} {:>12}",
        "Benchmark", "dfs", "bfs", "coverage", "text PCs", "total paths"
    );
    for p in &table1 {
        let mut to_full = Vec::new();
        let mut reference: Option<(u64, u64)> = None;
        for strategy in SearchStrategy::ALL {
            let t = policy_trajectory(p, strategy, AddressPolicyKind::default());
            assert_eq!(t.paths, p.expected_paths, "{}: full enumeration", p.name);
            match reference {
                None => reference = Some((t.covered_pcs, t.paths)),
                Some(r) => assert_eq!(
                    r,
                    (t.covered_pcs, t.paths),
                    "{}: final coverage is strategy-independent",
                    p.name
                ),
            }
            json_rows.push(Json::O(vec![
                ("ablation", Json::s("coverage-velocity")),
                ("benchmark", Json::s(p.name)),
                ("strategy", Json::s(strategy.name())),
                ("paths_to_full_coverage", Json::U(t.paths_to_full_coverage)),
                ("covered_pcs", Json::U(t.covered_pcs)),
                ("total_paths", Json::U(t.paths)),
            ]));
            to_full.push(t.paths_to_full_coverage);
        }
        let (final_cov, total) = reference.expect("ran");
        println!(
            "{:<16} {:>8} {:>8} {:>10} {:>10} {:>12}",
            p.name, to_full[0], to_full[1], to_full[2], final_cov, total
        );
    }

    ablation5(
        &table1,
        max_workers,
        runs,
        opts.metrics,
        sink,
        &mut json_rows,
    );
    ablation6(
        &table1,
        max_workers,
        runs,
        checkpoint_base,
        sink,
        &mut json_rows,
    );

    // table-lookup leads: it is the program the policies were built to
    // separate; the Table I programs ride along to pin that the policies
    // are inert where every address is concrete.
    let a7_progs: Vec<_> = std::iter::once(TABLE_LOOKUP).chain(table1).collect();
    ablation7(&a7_progs, &mut json_rows);

    if let Some(path) = &opts.json {
        let doc = Json::O(vec![
            ("bin", Json::s("ablation")),
            ("max_workers", Json::U(max_workers as u64)),
            ("rows", Json::A(json_rows)),
        ]);
        write_json(path, &doc);
    }
    trace.finish();
}

/// One variant's totals over the rounds of a timed comparison.
struct Timed {
    /// Mean wall seconds per round.
    seconds: f64,
    /// Mean solver checks per round.
    solver_checks: u64,
    /// Metrics merged over all rounds.
    report: MetricsReport,
}

/// Times `N` variants of the raw sharded engine on `p` over `runs` rounds,
/// interleaved so slow machine drift hits every variant equally.
/// `variant(slot, builder)` configures one variant on the wired builder.
/// Every variant carries the identical instrumentation (a metrics registry
/// per round, the campaign trace), so the deltas measure the variants
/// alone; every round must reproduce the pinned path count.
fn timed_variants<const N: usize>(
    p: &Program,
    workers: usize,
    runs: usize,
    trace: Option<&Arc<dyn TraceSink>>,
    variant: impl Fn(usize, SessionBuilder) -> SessionBuilder,
) -> [Timed; N] {
    let elf = p.build();
    let cfg = RunConfig {
        workers,
        metrics: true,
        trace: trace.cloned(),
        ..RunConfig::default()
    };
    let mut timed: [Timed; N] = std::array::from_fn(|_| Timed {
        seconds: 0.0,
        solver_checks: 0,
        report: MetricsReport::empty(),
    });
    for _ in 0..runs {
        for (slot, t) in timed.iter_mut().enumerate() {
            let Wiring {
                builder, metrics, ..
            } = wire(Engine::Raw, &elf, &cfg);
            let mut session = variant(slot, builder).build_parallel().expect("builds");
            let start = Instant::now();
            let s = session.run_all().expect("explores");
            t.seconds += start.elapsed().as_secs_f64();
            assert_eq!(
                s.paths, p.expected_paths,
                "{}: variant {slot} changed the path count",
                p.name
            );
            t.solver_checks += s.solver_checks;
            t.report.merge(&metrics.expect("metrics on").report());
        }
    }
    for t in &mut timed {
        t.seconds /= runs as f64;
        t.solver_checks /= runs as u64;
    }
    timed
}

/// Ablation 3: the sharded engine at 1..=N workers, each worker count
/// measured cold (fresh solver context per prescription) and warm
/// (deterministic prefix-keyed cache). The two runs produce byte-identical
/// results by construction; the delta — per-path seconds plus the cache's
/// hit/reuse counters — is the replayed-prefix cost the warm start claws
/// back.
fn ablation3(
    progs: &[Program],
    max_workers: usize,
    runs: usize,
    metrics: bool,
    trace: Option<&Arc<dyn TraceSink>>,
    json_rows: &mut Vec<Json>,
) {
    println!("\nABLATION 3 — worker scaling and warm start (replay-based sharded exploration)\n");
    println!(
        "{:<16} {:>12}   per worker count: cold/warm wall (cold→warm ms/path)",
        "Benchmark", "sequential"
    );
    for p in progs {
        let seq = run(Engine::Raw, &p.build(), &RunConfig::default()).expect("explores");
        assert_eq!(seq.summary.paths, p.expected_paths);
        let mut cells = Vec::new();
        let mut workers = 1usize;
        while workers <= max_workers {
            let timed: [Timed; 2] =
                timed_variants(p, workers, runs, trace, |slot, b| b.warm_start(slot == 1));
            for (t, warm) in timed.iter().zip([false, true]) {
                let mut row = vec![
                    ("ablation", Json::s("worker-scaling")),
                    ("benchmark", Json::s(p.name)),
                    ("workers", Json::U(workers as u64)),
                    ("warm_start", Json::B(warm)),
                    ("runs", Json::U(runs as u64)),
                    ("seconds", Json::F(t.seconds)),
                    (
                        "seconds_per_path",
                        Json::F(t.seconds / p.expected_paths as f64),
                    ),
                    ("sequential_seconds", Json::F(seq.duration.as_secs_f64())),
                ];
                if warm {
                    row.extend(
                        [
                            Counter::WarmHits,
                            Counter::WarmMisses,
                            Counter::WarmReplaysSkipped,
                            Counter::WarmPrefixReused,
                            Counter::WarmPrefixBlasted,
                            Counter::WarmContextKeys,
                            Counter::WarmCrossParentReuse,
                        ]
                        .map(|c| (c.name(), Json::U(counter_per_round(&t.report, c, runs)))),
                    );
                }
                if metrics {
                    row.push(("metrics", metrics_json(&t.report, runs)));
                }
                json_rows.push(Json::O(row));
            }
            let [cold, warm] = timed.map(|t| t.seconds);
            cells.push(format!(
                "{workers}w {cold:.2}s/{warm:.2}s ({:.1}→{:.1})",
                1e3 * cold / p.expected_paths as f64,
                1e3 * warm / p.expected_paths as f64,
            ));
            workers *= 2;
        }
        println!(
            "{:<16} {:>12.1?}   {}",
            p.name,
            seq.duration,
            cells.join("  ")
        );
    }
}

/// Asserts the `--smoke` structural-keying datapoint: every warm
/// worker-scaling row of `benchmark` must show nonzero retained-context
/// prefix reuse. Under the pre-structural input keying uri-parser sat at
/// `warm_prefix_reused: 0` — this is the counter CI pins above zero.
fn assert_warm_prefix_reuse(rows: &[Json], benchmark: &str) {
    let mut saw_warm_row = false;
    for row in rows {
        let Json::O(fields) = row else { continue };
        let field = |k: &str| fields.iter().find(|(n, _)| *n == k).map(|(_, v)| v);
        let is = |k: &str, want: &str| matches!(field(k), Some(Json::S(s)) if s == want);
        if !is("ablation", "worker-scaling") || !is("benchmark", benchmark) {
            continue;
        }
        if !matches!(field("warm_start"), Some(Json::B(true))) {
            continue;
        }
        saw_warm_row = true;
        let reused = match field("warm_prefix_reused") {
            Some(Json::U(v)) => *v,
            _ => panic!("warm row missing warm_prefix_reused"),
        };
        assert!(
            reused > 0,
            "{benchmark}: warm_prefix_reused must stay > 0 under structural context keys"
        );
    }
    assert!(saw_warm_row, "no warm worker-scaling rows for {benchmark}");
}

/// Ablation 5: the word-level static-analysis gate on vs. off, on the
/// sharded engine. The gate screens each branch-flip query against the
/// known-bits/interval facts of its path prefix and discharges the decided
/// ones without bit-blasting; by construction it may only *remove* solver
/// checks, never change results, which the run asserts via the path count
/// and the check-accounting identity.
fn ablation5(
    progs: &[Program],
    workers: usize,
    runs: usize,
    metrics: bool,
    trace: Option<&Arc<dyn TraceSink>>,
    json_rows: &mut Vec<Json>,
) {
    println!(
        "\nABLATION 5 — static-analysis gate (known-bits/interval screening of flip queries)\n"
    );
    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "Benchmark", "gate off", "gate on", "unsat flips", "eliminated", "facts"
    );
    for p in progs {
        // The gate's win shows up as solve seconds moving into gate seconds.
        let timed: [Timed; 2] = timed_variants(p, workers, runs, trace, |slot, b| {
            b.static_analysis(slot == 1)
        });
        let count = |t: &Timed, c: Counter| counter_per_round(&t.report, c, runs);
        let [off, on] = &timed;
        let eliminated = count(on, Counter::GateEliminated);
        // Every screened-out query must be accounted for one-to-one in
        // the solver-check delta.
        assert_eq!(
            off.solver_checks,
            on.solver_checks + eliminated,
            "{}: eliminated queries must explain the full check delta",
            p.name
        );
        println!(
            "{:<16} {:>9.2}s {:>9.2}s {:>12} {:>12} {:>10}",
            p.name,
            off.seconds,
            on.seconds,
            count(off, Counter::UnsatQueries),
            eliminated,
            count(on, Counter::GateFacts)
        );
        for (t, analysis) in timed.iter().zip([false, true]) {
            let mut row = vec![
                ("ablation", Json::s("static-analysis")),
                ("benchmark", Json::s(p.name)),
                ("workers", Json::U(workers as u64)),
                ("static_analysis", Json::B(analysis)),
                ("runs", Json::U(runs as u64)),
                ("seconds", Json::F(t.seconds)),
                ("solver_checks", Json::U(t.solver_checks)),
                ("queries", Json::U(count(t, Counter::Queries))),
                ("unsat_queries", Json::U(count(t, Counter::UnsatQueries))),
            ];
            if analysis {
                row.extend([
                    ("sa_queries", Json::U(count(t, Counter::GateScreened))),
                    ("sa_queries_eliminated", Json::U(eliminated)),
                    ("sa_facts", Json::U(count(t, Counter::GateFacts))),
                ]);
            }
            if metrics {
                row.push(("metrics", metrics_json(&t.report, runs)));
            }
            json_rows.push(Json::O(row));
        }
    }
}

/// Ablation 6: atomic checkpoint persistence off vs. every 16 merged paths
/// vs. every single one, on the sharded engine. Each write serializes the
/// full committed record set plus the live frontier through a tmp+rename
/// pair under the merge lock, so the every-1 column is the worst case —
/// one full-state write per path. The resume determinism pins forbid any
/// result drift, so the delta is pure wall time; the path count is still
/// asserted each round, and the every-1 write count must come out exact
/// (`paths + 1`: one per committed path plus the drain write).
///
/// The files land at `BASE.<every>.<benchmark>.ck` next to the
/// `--checkpoint` base when one was given (and are kept for inspection),
/// or next to a per-process temp base otherwise (and are removed).
fn ablation6(
    progs: &[Program],
    workers: usize,
    runs: usize,
    checkpoint_base: Option<&Path>,
    trace: Option<&Arc<dyn TraceSink>>,
    json_rows: &mut Vec<Json>,
) {
    const EVERY: [u64; 3] = [0, 16, 1];
    println!("\nABLATION 6 — checkpoint overhead (atomic tmp+rename frontier persistence)\n");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>12}",
        "Benchmark", "off", "every 16", "every 1", "writes(ev.1)"
    );
    let scratch = std::env::temp_dir().join(format!("binsym-ablation6-{}", std::process::id()));
    let base = checkpoint_base.unwrap_or(&scratch);
    for p in progs {
        let target = |every: u64| suffixed(base, &format!(".{every}.{}.ck", p.name));
        let timed: [Timed; 3] =
            timed_variants(p, workers, runs, trace, |slot, b| match EVERY[slot] {
                0 => b,
                every => b.checkpoint(target(every), every),
            });
        if checkpoint_base.is_none() {
            for every in &EVERY[1..] {
                let _ = std::fs::remove_file(target(*every));
            }
        }
        let written: [u64; 3] = std::array::from_fn(|slot| {
            counter_per_round(&timed[slot].report, Counter::CheckpointsWritten, runs)
        });
        assert_eq!(
            written[2],
            p.expected_paths + 1,
            "{}: every-1 must write once per committed path plus the drain",
            p.name
        );
        println!(
            "{:<16} {:>9.2}s {:>9.2}s {:>9.2}s {:>12}",
            p.name, timed[0].seconds, timed[1].seconds, timed[2].seconds, written[2]
        );
        for ((t, every), written) in timed.iter().zip(EVERY).zip(written) {
            json_rows.push(Json::O(vec![
                ("ablation", Json::s("checkpoint-overhead")),
                ("benchmark", Json::s(p.name)),
                ("workers", Json::U(workers as u64)),
                ("checkpoint_every", Json::U(every)),
                ("runs", Json::U(runs as u64)),
                ("seconds", Json::F(t.seconds)),
                (
                    "seconds_per_path",
                    Json::F(t.seconds / p.expected_paths as f64),
                ),
                ("paths", Json::U(p.expected_paths)),
                ("checkpoints_written", Json::U(written)),
            ]));
        }
    }
}

/// Ablation 7: the address-concretization policies on the memory-model
/// benchmark and the Table I programs, each a full sequential coverage-
/// guided exploration through [`policy_trajectory`] (the same datapoint
/// the acceptance tests pin). `eq` is the default and contractually
/// byte-identical to the pre-policy engine, so its rows must reproduce
/// `expected_paths` everywhere; on `table-lookup` the run additionally
/// asserts the policy separation — the concretizing policies saturate
/// below full coverage, `symbolic:64` reaches every tracked instruction
/// in exactly [`TABLE_LOOKUP_SYMBOLIC_PATHS`] paths — and stamps the
/// symbolic row with `sym_fewer_paths_to_full: true` once it holds.
fn ablation7(progs: &[Program], json_rows: &mut Vec<Json>) {
    const POLICIES: [(&str, AddressPolicyKind, u64); 3] = [
        ("eq", AddressPolicyKind::ConcretizeEq, 0),
        ("min", AddressPolicyKind::ConcretizeMin, 0),
        (
            "symbolic:64",
            AddressPolicyKind::Symbolic { window: 64 },
            64,
        ),
    ];
    println!("\nABLATION 7 — memory policy (address concretization vs. windowed array model)\n");
    println!(
        "{:<16} {:>24} {:>24} {:>24}",
        "Benchmark", "eq", "min", "symbolic:64"
    );
    println!(
        "{:<16} {:>24} {:>24} {:>24}",
        "", "paths/checks cov", "paths/checks cov", "paths/checks cov"
    );
    for &p in progs {
        let runs: Vec<_> = POLICIES
            .iter()
            .map(|&(_, policy, _)| policy_trajectory(&p, SearchStrategy::Coverage, policy))
            .collect();
        // The default policy is the byte-compat contract: its sequential
        // enumeration must reproduce the pinned path count on every
        // program, including the new benchmark.
        assert_eq!(
            runs[0].paths, p.expected_paths,
            "{}: eq must reproduce the pinned path count",
            p.name
        );
        let is_lookup = p.name == TABLE_LOOKUP.name;
        if is_lookup {
            let (eq, sym) = (&runs[0], &runs[2]);
            assert_eq!(
                sym.paths, TABLE_LOOKUP_SYMBOLIC_PATHS,
                "table-lookup: symbolic:64 path count is pinned"
            );
            assert_eq!(
                sym.covered_pcs, sym.tracked_pcs,
                "table-lookup: symbolic:64 must reach full coverage"
            );
            assert!(
                eq.covered_pcs < eq.tracked_pcs,
                "table-lookup: eq must leave the value-dependent leaves unreached"
            );
        }
        let cells: Vec<String> = runs
            .iter()
            .map(|t| {
                format!(
                    "{}/{} {}/{}",
                    t.paths, t.solver_checks, t.covered_pcs, t.tracked_pcs
                )
            })
            .collect();
        println!(
            "{:<16} {:>24} {:>24} {:>24}",
            p.name, cells[0], cells[1], cells[2]
        );
        for (&(name, _, window), t) in POLICIES.iter().zip(&runs) {
            let mut row = vec![
                ("ablation", Json::s("memory-policy")),
                ("benchmark", Json::s(p.name)),
                ("policy", Json::s(name)),
                ("window", Json::U(window)),
                ("paths", Json::U(t.paths)),
                ("solver_checks", Json::U(t.solver_checks)),
                ("seconds", Json::F(t.seconds)),
                ("paths_to_full_coverage", Json::U(t.paths_to_full_coverage)),
                ("covered_pcs", Json::U(t.covered_pcs)),
                ("tracked_pcs", Json::U(t.tracked_pcs)),
            ];
            if is_lookup && window > 0 {
                // Asserted above: the windowed model reaches full coverage
                // where the concretizing policies cannot, in finitely many
                // paths — the headline datapoint of the ablation.
                row.push(("sym_fewer_paths_to_full", Json::B(true)));
            }
            json_rows.push(Json::O(row));
        }
    }
}
