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
//! `bubble-sort` (where the gate decides 70% of the flips) runs under
//! `#[ignore]` so the debug-mode tier-1 suite stays fast; CI runs it in
//! release with `--include-ignored`.

use std::sync::Arc;

use binsym_repro::bench::programs::{self, Program};
use binsym_repro::binsym::{
    Bfs, Candidate, CoverageGuided, CoverageMap, CoverageObserver, Dfs, PathStrategy,
    RandomRestart, Session, Summary, TrailEntry,
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

/// One sequential exploration: its summary, sorted decision-vector set and
/// sorted error-path set.
fn explore(p: &Program, strategy: &str, analysis: bool) -> (Summary, Vec<Vec<bool>>, Vec<PathKey>) {
    let elf = p.build();
    let map = CoverageMap::shared_for(&elf);
    let policy: Box<dyn PathStrategy> = match strategy {
        "dfs" => Box::new(Dfs::<Candidate>::new()),
        "bfs" => Box::new(Bfs::<Candidate>::new()),
        "random-restart" => Box::new(RandomRestart::<Candidate>::new()),
        "coverage" => Box::new(CoverageGuided::<Candidate>::new(Arc::clone(&map))),
        other => unreachable!("unknown strategy {other}"),
    };
    let mut session = Session::builder(Spec::rv32im())
        .binary(&elf)
        .static_analysis(analysis)
        .strategy(policy)
        // Feeds the coverage strategy's map; the other strategies ignore it.
        .observer(CoverageObserver::new(map))
        .build()
        .expect("builds");
    let mut decisions = Vec::new();
    let mut errors = Vec::new();
    for outcome in session.paths() {
        let outcome = outcome.expect("path executes");
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
    (session.summary(), decisions, errors)
}

fn check_strategies(p: &Program, pin: &Pin) {
    for analysis in [true, false] {
        let (reference, ref_decisions, ref_errors) = explore(p, "dfs", analysis);
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

        for strategy in ["bfs", "random-restart", "coverage"] {
            let (summary, decisions, errors) = explore(p, strategy, analysis);
            let what = format!("{} {strategy}, gate {analysis}", p.name);
            assert_eq!(summary.paths, pin.paths, "{what}: paths");
            assert_eq!(summary.solver_checks, checks, "{what}: solver checks");
            assert_eq!(summary.total_steps, pin.total_steps, "{what}: steps");
            assert_eq!(summary.max_trail_len, pin.max_trail_len, "{what}");
            assert_eq!(decisions, ref_decisions, "{what}: decision vectors");
            assert_eq!(errors, ref_errors, "{what}: error paths");
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
    );
}
