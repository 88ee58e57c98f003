//! Multi-process sharded hunts over the versioned wire format, plus the
//! single-process checkpointable hunt behind the CI kill/resume smoke.
//!
//! ```text
//! # Parent: partition the pending bag across K worker processes.
//! cargo run --release -p binsym-bench --bin shard -- \
//!     --benchmark NAME --procs K [--workers N] [--verify] [--json PATH] \
//!     [--metrics] [--trace PATH] [--dir PATH] \
//!     [--memory-policy eq|min|symbolic:N]
//!
//! # Single-process hunt (the checkpoint/resume smoke driver).
//! cargo run --release -p binsym-bench --bin shard -- \
//!     --hunt --benchmark NAME [--workers N] [--records PATH] \
//!     [--checkpoint PATH] [--checkpoint-every N] [--resume PATH] \
//!     [--memory-policy eq|min|symbolic:N]
//! ```
//!
//! The parent materializes the root path once, sorts the level-1
//! prescriptions by [`binsym::PathId`], splits them into `--procs`
//! contiguous chunks, and ships each chunk as a `BAG`-section
//! [`Document`] to a spawned `--child` copy of this binary. Each child
//! drains its bag on its own sharded session (warm cache + coverage +
//! static gate all on — the full instrumentation stack) and writes its
//! records, summary, and optional [`MetricsReport`] shard back as another
//! document. Because a `PathId`'s subtree occupies a contiguous interval
//! of the canonical order, the parent's merge is pure concatenation:
//! `[root record] + chunk0 + chunk1 + …` **is** the single-process merged
//! stream, byte-for-byte, at any `--procs`/`--workers` count. Summary
//! stats are rebuilt from the merged records; solver checks sum across
//! child summaries (the root replay issues none); metrics shards merge
//! associatively; `--trace` JSONL events concatenate per child segment.
//! Each child stamps timestamps from its own epoch, so child `i` writes
//! its worker tracks `0..=workers` shifted to `i*(workers+1)..` — the
//! segments then occupy disjoint track ranges, and the concatenation keeps
//! spans balanced and timestamps monotone per track.
//!
//! `--verify` re-runs the hunt in-process on the same configuration and
//! asserts the merged stream and summary are byte-identical — the paper
//! repo's scale-out determinism invariant, checked end to end.
//!
//! Unlike `table1`/`fig6` (which run many sessions per invocation and
//! suffix their checkpoint files per run), `--hunt` drives exactly one
//! session, so `--checkpoint`/`--resume` here name the file directly —
//! which is what the CI smoke needs to kill a run mid-hunt and resume
//! from the very file it watched appear.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use binsym::persist::section;
use binsym::{
    decode_one, decode_seq, encode_one, encode_seq, AddressPolicyKind, Dec, Document, Enc,
    JsonlTraceSink, MetricsReport, PathRecord, Prescription, Summary, TraceSink, Wire,
};
use binsym_bench::cli::{usage_error, write_json, Args, BenchOpts, Json};
use binsym_bench::engines::suffixed;
use binsym_bench::{
    programs, wire, Engine, RunConfig, SearchStrategy, Wiring, TABLE_LOOKUP,
    TABLE_LOOKUP_SYMBOLIC_PATHS,
};
use binsym_elf::ElfFile;

/// Flags specific to this bin, read with the same rules as the shared
/// [`BenchOpts`] (which ignores unknown arguments by design).
struct ShardArgs {
    benchmark: String,
    procs: usize,
    child: bool,
    hunt: bool,
    bag: Option<PathBuf>,
    out: Option<PathBuf>,
    records: Option<PathBuf>,
    dir: Option<PathBuf>,
    verify: bool,
}

impl ShardArgs {
    fn from_env() -> ShardArgs {
        let args = Args::from_env();
        let path = |flag: &str| args.value(flag).map(PathBuf::from);
        ShardArgs {
            benchmark: args
                .value("--benchmark")
                .map(String::from)
                .unwrap_or_else(|| {
                    usage_error("--benchmark NAME is required (one of the Table I programs)")
                }),
            procs: args.count("--procs").unwrap_or(2),
            child: args.has("--child"),
            hunt: args.has("--hunt"),
            bag: path("--bag"),
            out: path("--out"),
            records: path("--records"),
            dir: path("--dir"),
            verify: args.has("--verify"),
        }
    }
}

fn main() {
    let opts = BenchOpts::from_env();
    let args = ShardArgs::from_env();
    if args.child {
        run_child(&args, &opts);
    } else if args.hunt {
        run_hunt(&args, &opts);
    } else {
        run_parent(&args, &opts);
    }
}

/// The invariant configuration every mode runs under: sharded session with
/// the prefix-keyed warm cache, coverage-guided scheduling over a shared
/// map, and the word-level static gate — all on. Determinism must survive
/// the full stack, so the drivers exercise nothing less.
fn hunt_config(opts: &BenchOpts) -> RunConfig {
    RunConfig {
        workers: opts.workers.unwrap_or(2),
        strategy: SearchStrategy::Coverage,
        policy: opts.memory_policy,
        ..RunConfig::default()
    }
}

/// Wires the raw engine under `cfg` with the warm cache and the static gate
/// on (see [`hunt_config`]).
fn hunt(elf: &ElfFile, cfg: &RunConfig) -> Wiring {
    let wiring = wire(Engine::Raw, elf, cfg);
    Wiring {
        builder: wiring.builder.warm_start(true).static_analysis(true),
        ..wiring
    }
}

/// A [`TraceSink`] shifting every track by `offset`, so concurrently
/// running shard children write disjoint track ranges.
struct OffsetTracks {
    inner: Arc<dyn TraceSink>,
    offset: u32,
}

impl TraceSink for OffsetTracks {
    fn begin_span(&self, track: u32, name: &str) {
        self.inner.begin_span(self.offset + track, name);
    }

    fn end_span(&self, track: u32, name: &str) {
        self.inner.end_span(self.offset + track, name);
    }

    fn instant(&self, track: u32, name: &str) {
        self.inner.instant(self.offset + track, name);
    }
}

/// The first trace track of shard child `shard`: each child's session
/// uses tracks `0..=workers` (the workers plus the coordinator).
fn track_base(shard: u64, workers: usize) -> u32 {
    u32::try_from(shard * (workers as u64 + 1)).expect("track ids fit u32")
}

/// A bag's `META` section: the benchmark it was cut for and the child's
/// shard index.
fn encode_bag_meta(benchmark: &str, shard: u64) -> Vec<u8> {
    let mut enc = Enc::new();
    benchmark.to_string().encode(&mut enc);
    shard.encode(&mut enc);
    enc.into_bytes()
}

fn decode_bag_meta(bytes: &[u8]) -> (String, u64) {
    let mut dec = Dec::new(bytes);
    let benchmark = String::decode(&mut dec).expect("bag meta benchmark decodes");
    let shard = u64::decode(&mut dec).expect("bag meta shard decodes");
    dec.finish().expect("bag meta has no trailing bytes");
    (benchmark, shard)
}

fn program(name: &str) -> programs::Program {
    programs::by_name(name).unwrap_or_else(|| {
        usage_error(&format!(
            "unknown benchmark {name:?} (expected a Table I program name)"
        ))
    })
}

/// The pinned path count for `p` under `policy`. The concretizing
/// policies reproduce the Table I counts everywhere (`eq` is the default
/// semantics, and every other program's addresses are concrete); the
/// windowed model is pinned on `table-lookup` for any window covering the
/// whole table, and inert elsewhere.
fn expected_paths(p: &programs::Program, policy: AddressPolicyKind) -> u64 {
    match policy {
        AddressPolicyKind::Symbolic { window } if p.name == TABLE_LOOKUP.name => {
            assert!(
                window >= 64,
                "windows smaller than the table carry no pinned count"
            );
            TABLE_LOOKUP_SYMBOLIC_PATHS
        }
        _ => p.expected_paths,
    }
}

/// Rebuilds the merged [`Summary`] from the concatenated record stream —
/// the same accounting the in-process merge performs — with the solver
/// checks taken from the child summaries (unsat flips issue a query but
/// materialize no record, so they are only visible there).
fn summarize(records: &[PathRecord], solver_checks: u64) -> Summary {
    let mut summary = Summary {
        solver_checks,
        ..Summary::default()
    };
    for rec in records {
        summary.paths += 1;
        summary.total_steps += rec.steps;
        summary.max_trail_len = summary.max_trail_len.max(rec.trail_len);
        if rec.is_error() {
            summary.error_paths.push(binsym::ErrorPath {
                exit_code: match rec.exit {
                    binsym::StepResult::Exited(code) => Some(code),
                    _ => None,
                },
                input: rec.input.clone(),
            });
        }
    }
    summary
}

fn run_parent(args: &ShardArgs, opts: &BenchOpts) {
    let p = program(&args.benchmark);
    let elf = p.build();
    let cfg = hunt_config(opts);
    let procs = args.procs.max(1);
    let started = Instant::now();

    // Materialize the root once and partition its children: contiguous
    // chunks of the id-sorted level-1 prescriptions, so each child's
    // record stream is one contiguous interval of the canonical order.
    let parent = hunt(&elf, &cfg)
        .builder
        .build_parallel()
        .expect("parent session builds");
    let (root_record, mut level1) = parent.expand_root().expect("root replays");
    level1.sort_by(|a, b| a.id.cmp(&b.id));
    let chunk_size = level1.len().div_ceil(procs).max(1);
    let mut chunks = Vec::new();
    while !level1.is_empty() {
        let rest = level1.split_off(chunk_size.min(level1.len()));
        chunks.push(level1);
        level1 = rest;
    }

    let (dir, scratch) = match &args.dir {
        Some(dir) => (dir.clone(), false),
        None => (
            std::env::temp_dir().join(format!("binsym-shard-{}", std::process::id())),
            true,
        ),
    };
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("creating shard dir {}: {e}", dir.display()));
    let exe = std::env::current_exe().expect("own executable path");

    println!(
        "shard: {} — {} level-1 prescriptions across {} process(es), {} worker(s) each",
        p.name,
        chunks.iter().map(Vec::len).sum::<usize>(),
        chunks.len(),
        cfg.workers
    );
    let mut children = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        let bag_path = dir.join(format!("bag{i}.bsyw"));
        let out_path = dir.join(format!("out{i}.bsyw"));
        let mut doc = Document::new();
        doc.push(section::META, encode_bag_meta(&args.benchmark, i as u64));
        doc.push(section::BAG, encode_seq(chunk));
        doc.write_atomic(&bag_path)
            .unwrap_or_else(|e| panic!("writing bag {}: {e}", bag_path.display()));
        let mut cmd = Command::new(&exe);
        cmd.arg("--child")
            .arg("--benchmark")
            .arg(&args.benchmark)
            .arg("--bag")
            .arg(&bag_path)
            .arg("--out")
            .arg(&out_path)
            .arg("--workers")
            .arg(cfg.workers.to_string())
            .arg("--memory-policy")
            .arg(cfg.policy.to_string());
        if opts.metrics {
            cmd.arg("--metrics");
        }
        let trace_path = opts.trace.as_ref().map(|t| suffixed(t, &format!(".p{i}")));
        if let Some(tp) = &trace_path {
            cmd.arg("--trace").arg(tp);
        }
        let handle = cmd.spawn().expect("spawning shard child");
        children.push((out_path, trace_path, handle));
    }

    let mut records = vec![root_record];
    let mut solver_checks = 0u64;
    let mut merged_metrics = opts.metrics.then(MetricsReport::empty);
    for (i, (out_path, _, handle)) in children.iter_mut().enumerate() {
        let status = handle.wait().expect("waiting on shard child");
        assert!(status.success(), "shard child {i} failed: {status}");
        let doc = Document::read(out_path)
            .unwrap_or_else(|e| panic!("reading child output {}: {e}", out_path.display()));
        let recs: Vec<PathRecord> = decode_seq(doc.require(section::RECORDS).expect("records"))
            .expect("child records decode");
        let child_summary: Summary =
            decode_one(doc.require(section::SUMMARY).expect("summary")).expect("summary decodes");
        assert_eq!(
            child_summary.paths as usize,
            recs.len(),
            "child {i} accounting"
        );
        solver_checks += child_summary.solver_checks;
        records.extend(recs);
        if let Some(merged) = &mut merged_metrics {
            let shard: MetricsReport =
                decode_one(doc.require(section::METRICS).expect("metrics shard"))
                    .expect("metrics decode");
            merged.merge(&shard);
        }
    }
    // The concatenation must already BE the canonical order — any overlap
    // or inversion here means a chunk boundary split a subtree.
    assert!(
        records.windows(2).all(|w| w[0].id < w[1].id),
        "merged stream is not strictly id-sorted"
    );
    let summary = summarize(&records, solver_checks);
    assert_eq!(
        summary.paths,
        expected_paths(&p, cfg.policy),
        "sharding must not change the path count"
    );
    if let Some(trace) = &opts.trace {
        let mut all = Vec::new();
        for (_, trace_path, _) in &children {
            let tp = trace_path.as_ref().expect("children traced");
            all.extend(std::fs::read(tp).expect("child trace readable"));
        }
        std::fs::write(trace, all).expect("concatenated trace writes");
    }
    let seconds = started.elapsed().as_secs_f64();
    println!(
        "shard: {} paths, {} solver checks, {} error path(s) in {seconds:.2}s",
        summary.paths,
        summary.solver_checks,
        summary.error_paths.len()
    );

    if args.verify {
        let mut reference = hunt(&elf, &cfg)
            .builder
            .build_parallel()
            .expect("reference session builds");
        let ref_summary = reference.run_all().expect("reference explores");
        assert_eq!(
            encode_seq(&records),
            encode_seq(reference.records()),
            "merged stream must be byte-identical to the in-process run"
        );
        assert_eq!(summary, ref_summary, "summaries must agree");
        println!("verify: merged stream byte-identical to the in-process hunt");
    }

    if let Some(path) = &opts.json {
        let doc = Json::O(vec![
            ("bin", Json::s("shard")),
            ("benchmark", Json::s(p.name)),
            ("procs", Json::U(procs as u64)),
            ("workers", Json::U(cfg.workers as u64)),
            ("paths", Json::U(summary.paths)),
            ("solver_checks", Json::U(summary.solver_checks)),
            ("error_paths", Json::U(summary.error_paths.len() as u64)),
            ("seconds", Json::F(seconds)),
            ("verified", Json::B(args.verify)),
        ]);
        write_json(path, &doc);
    }
    if let Some(path) = &args.records {
        std::fs::write(path, encode_seq(&records)).expect("records file writes");
    }
    if scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn run_child(args: &ShardArgs, opts: &BenchOpts) {
    let bag_path = args
        .bag
        .as_ref()
        .unwrap_or_else(|| usage_error("--child needs --bag FILE"));
    let out_path = args
        .out
        .as_ref()
        .unwrap_or_else(|| usage_error("--child needs --out FILE"));
    let doc = Document::read(bag_path)
        .unwrap_or_else(|e| panic!("reading bag {}: {e}", bag_path.display()));
    let (meta, shard) = decode_bag_meta(doc.require(section::META).expect("bag meta"));
    if meta != args.benchmark {
        usage_error(&format!(
            "bag was cut for {meta:?}, not {:?}",
            args.benchmark
        ));
    }
    let bag: Vec<Prescription> =
        decode_seq(doc.require(section::BAG).expect("bag section")).expect("bag decodes");
    let p = program(&args.benchmark);
    let elf = p.build();
    let sink = opts
        .trace
        .as_ref()
        .map(|path| Arc::new(JsonlTraceSink::to_file(path).expect("child trace file opens")));
    let base = hunt_config(opts);
    let cfg = RunConfig {
        metrics: opts.metrics,
        trace: sink.clone().map(|s| {
            Arc::new(OffsetTracks {
                inner: s,
                offset: track_base(shard, base.workers),
            }) as Arc<dyn TraceSink>
        }),
        ..base
    };
    let Wiring {
        builder, metrics, ..
    } = hunt(&elf, &cfg);
    let mut session = builder.build_parallel().expect("child session builds");
    let summary = session.run_bag(bag).expect("child drains its bag");

    let mut out = Document::new();
    out.push(section::RECORDS, encode_seq(session.records()));
    out.push(section::SUMMARY, encode_one(&summary));
    if let Some(registry) = &metrics {
        out.push(section::METRICS, encode_one(&registry.report()));
    }
    if let Some(sink) = &sink {
        sink.flush().expect("child trace flushes");
    }
    out.write_atomic(out_path)
        .unwrap_or_else(|e| panic!("writing child output {}: {e}", out_path.display()));
}

fn run_hunt(args: &ShardArgs, opts: &BenchOpts) {
    let p = program(&args.benchmark);
    let elf = p.build();
    let cfg = RunConfig {
        checkpoint: opts.checkpoint.clone(),
        resume: opts.resume.clone(),
        ..hunt_config(opts)
    };
    let started = Instant::now();
    let builder = hunt(&elf, &cfg).builder;
    let mut session = builder.build_parallel().expect("hunt session builds");
    let summary = session.run_all().expect("hunt explores");
    assert_eq!(
        summary.paths,
        expected_paths(&p, cfg.policy),
        "checkpointing/resuming must not change the path count"
    );
    if let Some(path) = &args.records {
        std::fs::write(path, encode_seq(session.records())).expect("records file writes");
    }
    println!(
        "hunt: {} — {} paths, {} solver checks in {:.2}s{}",
        p.name,
        summary.paths,
        summary.solver_checks,
        started.elapsed().as_secs_f64(),
        if opts.resume.is_some() {
            " (resumed)"
        } else {
            ""
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use binsym_bench::cli::validate_trace;
    use std::io::Write;
    use std::sync::Mutex;
    use std::time::Duration;

    /// An in-memory JSONL target the test reads back.
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);

    impl Write for Buf {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(bytes.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One child's trace segment: a span on every track of a
    /// `workers`-worker session, stamped from the sink's own epoch after
    /// `delay`.
    fn segment(shard: u64, workers: usize, offset: bool, delay: Duration) -> String {
        let buf = Buf::default();
        let jsonl: Arc<dyn TraceSink> = Arc::new(JsonlTraceSink::new(buf.clone()));
        let sink: Arc<dyn TraceSink> = if offset {
            Arc::new(OffsetTracks {
                inner: jsonl,
                offset: track_base(shard, workers),
            })
        } else {
            jsonl
        };
        std::thread::sleep(delay);
        for track in 0..=workers as u32 {
            sink.begin_span(track, "execute");
            sink.end_span(track, "execute");
        }
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn offset_child_segments_concatenate_into_a_valid_trace() {
        let workers = 2;
        // The first child's clock runs ahead of the second's, as when its
        // run is longer: unshifted, their shared tracks go backwards.
        let concat = |offset: bool| {
            segment(0, workers, offset, Duration::from_millis(50))
                + &segment(1, workers, offset, Duration::ZERO)
        };
        let err = validate_trace(&concat(false)).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
        let shape = validate_trace(&concat(true)).expect("offset segments validate");
        assert_eq!(shape.tracks, 2 * (workers + 1));
    }

    #[test]
    fn bag_meta_round_trips() {
        let bytes = encode_bag_meta("clif-parser", 3);
        assert_eq!(decode_bag_meta(&bytes), ("clif-parser".to_string(), 3));
    }
}
