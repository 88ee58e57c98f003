//! Sequential-engine equivalence across path-selection strategies and the
//! static-analysis gate.
//!
//! The sequential [`Session`] keeps its solver frames aligned with the path
//! it is exploring and, per query, pops only the frames past the prefix the
//! query shares with them. Strategies other than depth-first jump between
//! subtrees, and the gate answers some queries without touching the
//! backend, so both stress that resynchronization: every strategy, gate on
//! or off, must find the same paths with the same work as the depth-first
//! run — pinned path count, decision-vector set, error paths, solver checks
//! and executed steps.
//!
//! The witness *bytes* are solver model choices and differ per strategy,
//! but each (strategy, gate) run is deterministic: its witness stream is
//! pinned as an FNV-1a-64 hash of every path's input in discovery order,
//! so a refactor of the frontier or the solver-frame bookkeeping that
//! moves a single model byte fails here.
//!
//! `bubble-sort` (where the gate decides 70% of the flips) runs under
//! `#[ignore]` so the debug-mode tier-1 suite stays fast; CI runs it in
//! release with `--include-ignored`.

use std::sync::Arc;

use binsym_repro::bench::programs::{self, Program};
use binsym_repro::binsym::{
    Bfs, CoverageGuided, CoverageMap, CoverageObserver, Dfs, PathStrategy, RandomRestart, Session,
    Summary, TrailEntry,
};
use binsym_repro::isa::Spec;

/// Work counters of the depth-first run, per gate setting.
struct Pin {
    paths: u64,
    total_steps: u64,
    max_trail_len: usize,
    checks_gate_on: u64,
    checks_gate_off: u64,
}

/// Decision vector (branch directions in trail order) and exit code of
/// one path; witness bytes are solver model choices and are not compared.
type PathKey = (Vec<bool>, String);

/// One sequential exploration: its summary, sorted decision-vector set,
/// sorted error-path set, and witness-stream fingerprint.
struct Explored {
    summary: Summary,
    decisions: Vec<Vec<bool>>,
    errors: Vec<PathKey>,
    witnesses: u64,
}

/// FNV-1a-64 over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn explore(p: &Program, strategy: &str, analysis: bool) -> Explored {
    let elf = p.build();
    let map = CoverageMap::shared_for(&elf);
    let policy_map = Arc::clone(&map);
    let strategy = strategy.to_string();
    let mut session = Session::builder(Spec::rv32im())
        .binary(&elf)
        .static_analysis(analysis)
        .strategy(move |_| -> Box<dyn PathStrategy> {
            match strategy.as_str() {
                "dfs" => Box::new(Dfs::new()),
                "bfs" => Box::new(Bfs::new()),
                "random-restart" => Box::new(RandomRestart::new()),
                "coverage" => Box::new(CoverageGuided::new(Arc::clone(&policy_map))),
                other => unreachable!("unknown strategy {other}"),
            }
        })
        // Feeds the coverage strategy's map; the other strategies ignore it.
        .observer(CoverageObserver::new(map))
        .build()
        .expect("builds");
    let mut decisions = Vec::new();
    let mut errors = Vec::new();
    let mut witnesses = FNV_OFFSET;
    for outcome in session.paths() {
        let outcome = outcome.expect("path executes");
        witnesses = fnv1a(witnesses, &outcome.input);
        let d: Vec<bool> = outcome
            .trail
            .iter()
            .filter_map(|e| match *e {
                TrailEntry::Branch { taken, .. } => Some(taken),
                TrailEntry::Concretize { .. } => None,
            })
            .collect();
        if outcome.is_error() {
            errors.push((d.clone(), format!("{:?}", outcome.exit)));
        }
        decisions.push(d);
    }
    decisions.sort();
    errors.sort();
    Explored {
        summary: session.summary(),
        decisions,
        errors,
        witnesses,
    }
}

/// Witness-stream fingerprints per strategy, as `(strategy, gate on, gate
/// off)`.
type Witnesses = [(&'static str, u64, u64); 4];

fn check_strategies(p: &Program, pin: &Pin, witnesses: &Witnesses) {
    let pinned = |strategy: &str, analysis: bool| {
        let &(_, on, off) = witnesses
            .iter()
            .find(|w| w.0 == strategy)
            .expect("pinned strategy");
        if analysis {
            on
        } else {
            off
        }
    };
    for analysis in [true, false] {
        let Explored {
            summary: reference,
            decisions: ref_decisions,
            errors: ref_errors,
            witnesses: ref_witnesses,
        } = explore(p, "dfs", analysis);
        let checks = if analysis {
            pin.checks_gate_on
        } else {
            pin.checks_gate_off
        };
        let what = format!("{} dfs, gate {analysis}", p.name);
        assert_eq!(reference.paths, pin.paths, "{what}: paths");
        assert_eq!(reference.solver_checks, checks, "{what}: solver checks");
        assert_eq!(reference.total_steps, pin.total_steps, "{what}: steps");
        assert_eq!(reference.max_trail_len, pin.max_trail_len, "{what}");
        assert!(!reference.truncated, "{what}");
        assert!(
            ref_decisions.windows(2).all(|w| w[0] != w[1]),
            "{what}: duplicate path"
        );
        assert_eq!(ref_decisions.len() as u64, pin.paths, "{what}");
        assert_eq!(
            ref_errors.len(),
            reference.error_paths.len(),
            "{what}: error paths"
        );
        assert_eq!(ref_witnesses, pinned("dfs", analysis), "{what}: witnesses");

        for strategy in ["bfs", "random-restart", "coverage"] {
            let Explored {
                summary,
                decisions,
                errors,
                witnesses,
            } = explore(p, strategy, analysis);
            let what = format!("{} {strategy}, gate {analysis}", p.name);
            assert_eq!(summary.paths, pin.paths, "{what}: paths");
            assert_eq!(summary.solver_checks, checks, "{what}: solver checks");
            assert_eq!(summary.total_steps, pin.total_steps, "{what}: steps");
            assert_eq!(summary.max_trail_len, pin.max_trail_len, "{what}");
            assert_eq!(decisions, ref_decisions, "{what}: decision vectors");
            assert_eq!(errors, ref_errors, "{what}: error paths");
            assert_eq!(witnesses, pinned(strategy, analysis), "{what}: witnesses");
        }
    }
}

#[test]
fn clif_parser_every_strategy_matches_dfs() {
    check_strategies(
        &programs::CLIF_PARSER,
        &Pin {
            paths: 120,
            total_steps: 3738,
            max_trail_len: 10,
            checks_gate_on: 119,
            checks_gate_off: 119,
        },
        &[
            (
                "dfs",
                18_231_545_885_294_919_395,
                18_231_545_885_294_919_395,
            ),
            ("bfs", 4_322_064_395_041_548_982, 4_322_064_395_041_548_982),
            (
                "random-restart",
                13_203_323_258_179_125_642,
                13_203_323_258_179_125_642,
            ),
            (
                "coverage",
                10_449_794_359_400_575_733,
                10_449_794_359_400_575_733,
            ),
        ],
    );
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn bubble_sort_every_strategy_matches_dfs() {
    check_strategies(
        &programs::BUBBLE_SORT,
        &Pin {
            paths: 720,
            total_steps: 116_640,
            max_trail_len: 15,
            checks_gate_on: 719,
            checks_gate_off: 2421,
        },
        &[
            ("dfs", 5_107_667_048_996_585_023, 7_698_550_740_837_530_341),
            ("bfs", 17_931_760_510_743_087_848, 5_682_947_122_863_632_850),
            (
                "random-restart",
                7_927_981_281_171_874_306,
                10_099_232_367_759_210_837,
            ),
            (
                "coverage",
                5_107_667_048_996_585_023,
                7_698_550_740_837_530_341,
            ),
        ],
    );
}
