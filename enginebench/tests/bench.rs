//! The benchmark's own tests: the layer timers forward every call
//! unchanged, the output check rejects corrupted records and wrong
//! witnesses, and the metrics a run prints are exactly the ones
//! `BENCHMARK.json` declares.
//!
//! The exploration tests run whole engines; `cargo test --release` keeps
//! them to seconds.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use binsym::{
    decode_seq, encode_seq, AddressPolicyKind, BitblastBackend, Error, NullObserver, PathExecutor,
    PathOutcome, PathRecord, SolverBackend, StepResult,
};
use binsym_bench::programs::{BUBBLE_SORT, CLIF_PARSER};
use binsym_enginebench::check::{witness_failures, Checker};
use binsym_enginebench::engine::{build, explore, Config, Explored, Probes};
use binsym_enginebench::metrics::{end_to_end, expected, per_layer, result_line};
use binsym_enginebench::run::{run, Options, Workload};
use binsym_enginebench::stats::{median, percentile, SplitMix64};
use binsym_enginebench::wrap::{ExecutorStats, SolverStats, TimedBackend, TimedExecutor};
use binsym_smt::{SatResult, Term, TermManager};

// ---------------------------------------------------------------------------
// A minimal JSON reader for `BENCHMARK.json` and the result line.

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key `{key}`")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

fn parse_json(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing characters after JSON value");
    value
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect_byte(b: &[u8], pos: &mut usize, c: u8) {
    skip_ws(b, pos);
    assert_eq!(b.get(*pos), Some(&c), "expected `{}` at {pos}", c as char);
    *pos += 1;
}

fn parse_value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b[*pos] == b'}' {
                *pos += 1;
                return Json::Obj(fields);
            }
            loop {
                skip_ws(b, pos);
                let Json::Str(key) = parse_value(b, pos) else {
                    panic!("object key must be a string")
                };
                expect_byte(b, pos, b':');
                fields.push((key, parse_value(b, pos)));
                skip_ws(b, pos);
                *pos += 1;
                if b[*pos - 1] == b'}' {
                    return Json::Obj(fields);
                }
                assert_eq!(b[*pos - 1], b',', "expected `,` or `}}`");
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b[*pos] == b']' {
                *pos += 1;
                return Json::Arr(items);
            }
            loop {
                items.push(parse_value(b, pos));
                skip_ws(b, pos);
                *pos += 1;
                if b[*pos - 1] == b']' {
                    return Json::Arr(items);
                }
                assert_eq!(b[*pos - 1], b',', "expected `,` or `]`");
            }
        }
        b'"' => {
            *pos += 1;
            let start = *pos;
            while b[*pos] != b'"' {
                assert_ne!(b[*pos], b'\\', "escapes are not used in these files");
                *pos += 1;
            }
            *pos += 1;
            Json::Str(String::from_utf8(b[start..*pos - 1].to_vec()).expect("utf-8"))
        }
        b't' | b'f' | b'n' => {
            for (word, value) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                if b[*pos..].starts_with(word.as_bytes()) {
                    *pos += word.len();
                    return value;
                }
            }
            panic!("bad literal at {pos}");
        }
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).expect("ascii");
            Json::Num(
                text.parse()
                    .unwrap_or_else(|_| panic!("bad number `{text}`")),
            )
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark"))
}

fn declared(spec: &Json, section: &str) -> BTreeMap<String, String> {
    spec.get(section)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

fn as_map(names: Vec<(String, &'static str)>) -> BTreeMap<String, String> {
    let n = names.len();
    let map: BTreeMap<String, String> = names
        .into_iter()
        .map(|(name, unit)| (name, unit.to_owned()))
        .collect();
    assert_eq!(map.len(), n, "metric names must be unique");
    map
}

// ---------------------------------------------------------------------------
// Metric names.

#[test]
fn benchmark_json_declares_exactly_the_metrics_the_runner_prints() {
    let spec = benchmark_json();
    assert_eq!(declared(&spec, "end_to_end"), as_map(end_to_end()));
    assert_eq!(declared(&spec, "per_layer"), as_map(per_layer()));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let runner: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, runner);
    let setup = spec
        .get("end_to_end")
        .items()
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(setup.get("better").str(), "lower");
    for m in spec.get("end_to_end").items() {
        assert!(m.get("bound").num() > 0.0 && m.get("bound").num() <= 0.25);
        assert!(m.get("bound").num() <= setup.get("bound").num());
    }
}

#[test]
fn result_line_is_json_holding_every_declared_metric() {
    for trace in [false, true] {
        let names = expected(trace);
        let values: BTreeMap<String, f64> = names
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (n.clone(), i as f64 + 0.125))
            .collect();
        let line = result_line(trace, true, 12, 0, &values).expect("complete metrics");
        let json = parse_json(&line);
        assert_eq!(json.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), &Json::Bool(true));
        assert_eq!(json.get("attempted").num(), 12.0);
        let metrics = json.get("metrics");
        assert_eq!(metrics.keys().len(), names.len());
        for (i, (name, unit)) in names.iter().enumerate() {
            let m = metrics.get(name);
            assert_eq!(m.get("value").num(), i as f64 + 0.125);
            assert_eq!(m.get("unit").str(), *unit);
        }

        let mut missing = values.clone();
        missing.remove(&names[0].0);
        assert!(result_line(trace, true, 1, 0, &missing).is_err());
        let mut extra = values.clone();
        extra.insert("undeclared".into(), 1.0);
        assert!(result_line(trace, true, 1, 0, &extra).is_err());
        let mut nan = values;
        nan.insert(names[0].0.clone(), f64::NAN);
        assert!(result_line(trace, true, 1, 0, &nan).is_err());
    }
}

#[test]
fn a_full_run_prints_every_declared_metric() {
    let spec = benchmark_json();
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let report = run(&Options {
            workload: Workload::InfeasibleFlips,
            seed: 7,
            seconds: 1e-3,
            trace,
        })
        .expect("the benchmark runs");
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        let line = result_line(
            trace,
            true,
            report.attempted,
            report.failed,
            &report.metrics,
        )
        .expect("every metric measured");
        let json = parse_json(&line);
        let printed: BTreeMap<String, String> = json
            .get("metrics")
            .keys()
            .into_iter()
            .map(|k| {
                let unit = json.get("metrics").get(k).get("unit").str().to_owned();
                (k.to_owned(), unit)
            })
            .collect();
        assert_eq!(printed, declared(&spec, section));
        assert!(report.notes.iter().any(|n| n.contains("seed=7")));
    }
}

// ---------------------------------------------------------------------------
// The layer timers forward every call unchanged.

/// An executor that logs its arguments and answers from them.
#[derive(Debug, Default)]
struct Recorder {
    calls: Vec<String>,
}

impl PathExecutor for Recorder {
    fn execute_path(
        &mut self,
        _tm: &mut TermManager,
        input: &[u8],
        fuel: u64,
        _obs: &mut dyn binsym::Observer,
    ) -> Result<PathOutcome, Error> {
        self.calls.push(format!("path {input:?} {fuel}"));
        if input.first() == Some(&0xff) {
            return Err(Error::OutOfFuel {
                input: input.to_vec(),
            });
        }
        Ok(PathOutcome {
            exit: StepResult::Exited(u32::from(input[0])),
            trail: Vec::new(),
            steps: fuel / 2,
            input: input.to_vec(),
        })
    }

    fn execute_prefix(
        &mut self,
        _tm: &mut TermManager,
        input: &[u8],
        fuel: u64,
        branch_limit: usize,
    ) -> Result<Vec<binsym::TrailEntry>, Error> {
        self.calls
            .push(format!("prefix {input:?} {fuel} {branch_limit}"));
        Ok(Vec::new())
    }

    fn input_len(&self) -> u32 {
        7
    }

    fn policy(&self) -> AddressPolicyKind {
        AddressPolicyKind::ConcretizeMin
    }
}

#[test]
fn executor_timer_forwards_every_call_unchanged() {
    let recorder = Rc::new(RefCell::new(Recorder::default()));
    let sink = Arc::new(Mutex::new(ExecutorStats::default()));
    let mut tm = TermManager::new();
    {
        let mut timed = TimedExecutor::new(Rc::clone(&recorder), Arc::clone(&sink));
        assert_eq!(timed.input_len(), 7);
        assert_eq!(timed.policy(), AddressPolicyKind::ConcretizeMin);
        let ok = timed
            .execute_path(&mut tm, &[3, 1], 40, &mut NullObserver)
            .expect("recorder succeeds");
        assert_eq!(
            (ok.exit, ok.steps, ok.input),
            (StepResult::Exited(3), 20, vec![3, 1])
        );
        let err = timed
            .execute_path(&mut tm, &[0xff], 9, &mut NullObserver)
            .expect_err("recorder fails on 0xff");
        assert!(matches!(err, Error::OutOfFuel { input } if input == [0xff]));
        timed
            .execute_prefix(&mut tm, &[5], 11, 4)
            .expect("recorder succeeds");
        // Nothing reaches the sink before the wrapper drops.
        assert_eq!(*sink.lock().unwrap(), ExecutorStats::default());
    }
    assert_eq!(
        recorder.borrow().calls,
        ["path [3, 1] 40", "path [255] 9", "prefix [5] 11 4"]
    );
    let stats = sink.lock().unwrap().clone();
    assert_eq!(stats.execute_ns.len(), 2);
    assert_eq!(stats.steps, 20, "only successful paths count steps");
    assert_eq!(stats.replay_calls, 1);
}

/// A backend that logs its calls and answers from a script.
#[derive(Debug)]
struct Scripted {
    log: Rc<RefCell<Vec<String>>>,
    answers: Vec<SatResult>,
    checks: u64,
}

impl SolverBackend for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }
    fn push(&mut self) {
        self.log.borrow_mut().push("push".into());
    }
    fn pop(&mut self) {
        self.log.borrow_mut().push("pop".into());
    }
    fn assert_term(&mut self, _tm: &mut TermManager, t: Term) {
        self.log.borrow_mut().push(format!("assert {t:?}"));
    }
    fn check_sat(&mut self, _tm: &mut TermManager) -> SatResult {
        self.checks += 1;
        self.log.borrow_mut().push("check".into());
        self.answers.remove(0)
    }
    fn model(&self, _tm: &TermManager) -> Option<binsym_smt::Model> {
        self.log.borrow_mut().push("model".into());
        None
    }
    fn num_checks(&self) -> u64 {
        self.checks
    }
}

#[test]
fn backend_timer_forwards_every_call_unchanged() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let sink = Arc::new(Mutex::new(SolverStats::default()));
    let mut tm = TermManager::new();
    let x = tm.var("x", 8);
    let c = tm.bv_const(3, 8);
    let t = tm.ult(x, c);
    {
        let mut timed = TimedBackend::new(
            Scripted {
                log: Rc::clone(&log),
                answers: vec![SatResult::Unsat, SatResult::Sat],
                checks: 0,
            },
            Arc::clone(&sink),
        );
        assert_eq!(timed.name(), "scripted");
        timed.push();
        timed.assert_term(&mut tm, t);
        assert_eq!(timed.check_sat(&mut tm), SatResult::Unsat);
        assert_eq!(timed.check_sat(&mut tm), SatResult::Sat);
        assert!(timed.model(&tm).is_none());
        timed.pop();
        assert_eq!(timed.num_checks(), 2);
    }
    assert_eq!(
        *log.borrow(),
        [
            "push",
            &format!("assert {t:?}"),
            "check",
            "check",
            "model",
            "pop"
        ]
    );
    let stats = sink.lock().unwrap().clone();
    assert_eq!((stats.check_ns.len(), stats.unsat), (2, 1));
}

#[test]
fn backend_timer_returns_the_inner_solvers_models() {
    let mut tm = TermManager::new();
    let x = tm.var("in0", 8);
    let c = tm.bv_const(200, 8);
    let gt = tm.ult(c, x);
    let odd = {
        let one = tm.bv_const(1, 8);
        let low = tm.bv_and(x, one);
        tm.eq(low, one)
    };
    let sink = Arc::new(Mutex::new(SolverStats::default()));
    let mut plain = BitblastBackend::new();
    let mut timed = TimedBackend::new(BitblastBackend::new(), sink);
    for b in [&mut plain as &mut dyn SolverBackend, &mut timed] {
        b.push();
        b.assert_term(&mut tm, gt);
        b.assert_term(&mut tm, odd);
    }
    assert_eq!(plain.check_sat(&mut tm), timed.check_sat(&mut tm));
    let value = |b: &dyn SolverBackend| b.model(&tm).and_then(|m| m.value("in0"));
    assert_eq!(value(&plain), value(&timed));
    assert!(value(&timed).is_some_and(|v| v > 200 && v % 2 == 1));
}

#[test]
fn traced_explorations_equal_plain_ones() {
    let elf = CLIF_PARSER.build();
    for cfg in Config::ALL {
        let (_, plain) = explore(build(cfg, &elf, None).expect("builds"));
        let probes = Probes::new(cfg);
        let (_, traced) = explore(build(cfg, &elf, Some(&probes)).expect("builds"));
        let (plain, traced) = (plain.expect("explores"), traced.expect("explores"));
        assert_eq!(plain.summary, traced.summary, "{cfg:?}");
        assert_eq!(plain.paths, traced.paths, "{cfg:?}");
        assert_eq!(plain.records, traced.records, "{cfg:?}");
        let layers = probes.collect();
        assert_eq!(
            layers.executor.execute_ns.len() as u64,
            CLIF_PARSER.expected_paths,
            "{cfg:?}: one execute_path per path"
        );
        assert_eq!(layers.executor.steps, traced.summary.total_steps, "{cfg:?}");
        if cfg.has_backend() {
            assert_eq!(
                layers.solver.check_ns.len() as u64,
                traced.summary.solver_checks,
                "{cfg:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The output check.

fn genuine(cfg: Config) -> (Checker, Explored) {
    let elf = BUBBLE_SORT.build();
    let (_, explored) = explore(build(cfg, &elf, None).expect("builds"));
    let explored = explored.expect("explores");
    let mut checker = Checker::new(BUBBLE_SORT, elf);
    assert_eq!(checker.check(cfg, &explored), Vec::<String>::new());
    (checker, explored)
}

#[test]
fn output_check_accepts_every_configuration() {
    let (mut checker, _) = genuine(Config::Par1Cold);
    let elf = BUBBLE_SORT.build();
    for cfg in Config::ALL {
        let (_, explored) = explore(build(cfg, &elf, None).expect("builds"));
        assert_eq!(
            checker.check(cfg, &explored.expect("explores")),
            Vec::<String>::new(),
            "{cfg:?}"
        );
    }
}

#[test]
fn output_check_rejects_a_corrupted_record() {
    let (mut checker, explored) = genuine(Config::Par1Warm);
    let mut records: Vec<PathRecord> =
        decode_seq(explored.records.as_deref().expect("parallel records")).expect("decodes");
    let victim = records
        .iter()
        .position(|r| !r.decisions.is_empty())
        .expect("a path with a branch");
    let last = records[victim].decisions.len() - 1;
    records[victim].decisions[last] ^= true;
    let mut corrupted = explored.clone();
    corrupted.paths[victim].decisions[last] ^= true;
    corrupted.records = Some(encode_seq(&records));
    let failures = checker.check(Config::Par2Warm, &corrupted);
    assert!(
        failures.iter().any(|f| f.contains("byte-identical")),
        "{failures:?}"
    );
    assert!(
        failures.iter().any(|f| f.contains("decision")),
        "{failures:?}"
    );
}

#[test]
fn output_check_rejects_a_wrong_witness() {
    let (mut checker, explored) = genuine(Config::Seq);
    // Two paths with different step counts: each one's witness drives the
    // interpreter down the other's path.
    let a = 0;
    let b = explored
        .paths
        .iter()
        .position(|p| p.steps != explored.paths[a].steps)
        .expect("paths of different lengths");
    let mut swapped = explored.clone();
    let input_a = swapped.paths[a].input.clone();
    swapped.paths[a].input = swapped.paths[b].input.clone();
    swapped.paths[b].input = input_a;
    let failures = checker.check(Config::Seq, &swapped);
    assert!(
        failures.iter().any(|f| f.contains("2 witness(es)")),
        "{failures:?}"
    );

    let mut miscounted = explored.clone();
    miscounted.paths[b].steps += 1;
    let failures = checker.check(Config::Seq, &miscounted);
    assert!(
        failures.iter().any(|f| f.contains("1 witness(es)")),
        "{failures:?}"
    );
    assert_eq!(witness_failures(&BUBBLE_SORT.build(), &explored.paths), 0);
}

#[test]
fn output_check_rejects_a_lost_path_and_a_changed_summary() {
    let (mut checker, explored) = genuine(Config::Seq);
    let mut short = explored.clone();
    short.paths.pop();
    let failures = checker.check(Config::Seq, &short);
    assert!(
        failures.iter().any(|f| f.contains("expected 720")),
        "{failures:?}"
    );
    assert!(
        failures.iter().any(|f| f.contains("decision")),
        "{failures:?}"
    );

    let mut drifted = explored;
    drifted.summary.total_steps += 1;
    let failures = checker.check(Config::Seq, &drifted);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("summary"), "{failures:?}");
}

// ---------------------------------------------------------------------------
// Helpers.

#[test]
fn seeded_shuffles_repeat_and_differ() {
    let shuffled = |seed| {
        let mut items: Vec<u32> = (0..8).collect();
        SplitMix64::new(seed).shuffle(&mut items);
        items
    };
    assert_eq!(shuffled(3), shuffled(3));
    assert_ne!(shuffled(3), shuffled(4));
    let mut sorted = shuffled(3);
    sorted.sort_unstable();
    assert_eq!(sorted, (0..8).collect::<Vec<_>>());
}

#[test]
fn medians_and_percentiles() {
    assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    let mut v: Vec<u64> = (1..=100).rev().collect();
    assert_eq!(percentile(&mut v, 0.5), 50);
    assert_eq!(percentile(&mut v, 0.99), 99);
    assert_eq!(percentile(&mut [7], 0.99), 7);
}

#[test]
fn command_line_is_validated() {
    use binsym_enginebench::cli::parse;
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = parse(args(
        "--workload deep-solve --seed 4 --seconds 2.5 --trace 1",
    ))
    .expect("valid");
    assert_eq!(
        (ok.workload, ok.seed, ok.seconds, ok.trace),
        (Workload::DeepSolve, 4, 2.5, true)
    );
    for bad in [
        "--workload nope --seed 4 --seconds 2 --trace 0",
        "--workload deep-solve --seed x --seconds 2 --trace 0",
        "--workload deep-solve --seed 4 --seconds 0 --trace 0",
        "--workload deep-solve --seed 4 --seconds 2 --trace 2",
        "--workload deep-solve --seed 4 --seconds 2",
        "--workload deep-solve --seed 4 --seconds 2 --trace 0 --extra 1",
    ] {
        assert!(parse(args(bad)).is_err(), "{bad}");
    }
}
