//! Coverage-guided bug hunting under a path budget.
//!
//! The [`CoverageGuided`] strategy reads a lock-free [`CoverageMap`] fed
//! by a [`CoverageObserver`]: pending branch flips whose *direction* was
//! never observed are discharged first, so unexplored behaviour — and the
//! bug hiding in it — surfaces long before a depth-first sweep would
//! reach it.
//!
//! ```text
//! cargo run --release --example coverage_hunt [workers]
//! ```
//!
//! The SUT is a little command scanner: a "known command" fast path whose
//! 8 bit-tests span a 256-path subtree, and one rarely-taken escape
//! dispatch that ends in an `ebreak`. Depth-first order drains the fast
//! subtree before ever flipping the shallow escape branch; the
//! coverage-guided session pivots to it as soon as the fast-path branch
//! directions saturate, and finds the bug well inside a budget the
//! depth-first hunt exhausts empty-handed.
//!
//! Two determinism notes, demonstrated at the end: a *sequential* session
//! reproduces its exploration order exactly (the map is single-threaded),
//! and a *parallel* session's merged results are canonical — coverage maps
//! race across workers, but policies only shape scheduling, and truncated
//! runs return the budget-lowest-`PathId` prefix on every schedule.
//!
//! [`CoverageMap`]: binsym_repro::binsym::CoverageMap
//! [`CoverageObserver`]: binsym_repro::binsym::CoverageObserver
//! [`CoverageGuided`]: binsym_repro::binsym::CoverageGuided

use std::sync::Arc;

use binsym_repro::asm::Assembler;
use binsym_repro::binsym::{CoverageGuided, CoverageMap, CoverageObserver, Session};
use binsym_repro::isa::Spec;

const SCANNER: &str = r#"
        .data
        .globl __sym_input
__sym_input:
        .space 3

        .text
        .globl _start
_start:
        la   s0, __sym_input
        lbu  t0, 0(s0)          # opcode byte (symbolic)

        # The rarely-taken escape dispatch: opcode 0xab with args (2, 3)
        # traps. This is the shallowest branch of every fast-path trail,
        # so depth-first order flips it *last*.
        li   t1, 0xab
        beq  t0, t1, escape

        # The fast path: 8 independent bit-tests over the two argument
        # bytes — a 256-path subtree of boring "known command" behaviour.
        lbu  t2, 1(s0)
        lbu  t3, 2(s0)
        li   s1, 0              # popcount accumulator
        andi t4, t2, 1
        beqz t4, b1
        addi s1, s1, 1
b1:     andi t4, t2, 2
        beqz t4, b2
        addi s1, s1, 1
b2:     andi t4, t2, 4
        beqz t4, b3
        addi s1, s1, 1
b3:     andi t4, t2, 8
        beqz t4, b4
        addi s1, s1, 1
b4:     andi t4, t3, 1
        beqz t4, b5
        addi s1, s1, 1
b5:     andi t4, t3, 2
        beqz t4, b6
        addi s1, s1, 1
b6:     andi t4, t3, 4
        beqz t4, b7
        addi s1, s1, 1
b7:     andi t4, t3, 8
        beqz t4, done
        addi s1, s1, 1
done:
        li   a0, 0
        li   a7, 93
        ecall

escape:
        lbu  t2, 1(s0)
        li   t1, 2
        bne  t2, t1, harmless
        lbu  t3, 2(s0)
        li   t1, 3
        bne  t3, t1, harmless
        ebreak                  # opcode 0xab, args (2, 3): the bug
harmless:
        li   a0, 0
        li   a7, 93
        ecall
"#;

/// Streams a budgeted sequential hunt, returning (paths executed, path
/// index of the first bug if one surfaced within the budget).
fn budgeted_hunt(
    elf: &binsym_repro::elf::ElfFile,
    budget: usize,
    coverage: bool,
) -> (usize, Option<(usize, Vec<u8>)>) {
    let builder = Session::builder(Spec::rv32im()).binary(elf);
    let builder = if coverage {
        let map = CoverageMap::shared_for(elf);
        let policy_map = Arc::clone(&map);
        builder
            .strategy(move |_| Box::new(CoverageGuided::new(Arc::clone(&policy_map))))
            .observer(CoverageObserver::new(map))
    } else {
        builder
    };
    let mut session = builder.build().expect("builds");
    let mut bug = None;
    let mut paths = 0usize;
    for outcome in session.paths().take(budget) {
        let outcome = outcome.expect("executes");
        paths += 1;
        if bug.is_none() && outcome.is_error() {
            bug = Some((paths, outcome.input.clone()));
        }
    }
    (paths, bug)
}

fn main() {
    let workers: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let elf = Assembler::new().assemble(SCANNER).expect("assembles");
    let budget = 32;

    println!("budgeted sequential hunt ({budget} paths):\n");
    let (dfs_paths, dfs_bug) = budgeted_hunt(&elf, budget, false);
    println!(
        "  dfs              {dfs_paths} paths explored, bug found: {}",
        dfs_bug.is_some()
    );
    let (cov_paths, cov_bug) = budgeted_hunt(&elf, budget, true);
    let (bug_at, witness) = cov_bug.expect("coverage-guided finds the bug in budget");
    println!(
        "  coverage-guided  {cov_paths} paths explored, bug found at path {bug_at}: {witness:?}"
    );
    assert!(
        dfs_bug.is_none(),
        "dfs should drain the fast-path subtree first"
    );
    assert_eq!(witness, vec![0xab, 2, 3]);

    // Sequential coverage snapshots are single-threaded: the run replays
    // identically.
    assert_eq!(budgeted_hunt(&elf, budget, true).1, Some((bug_at, witness)));

    // Parallel coverage-guided exploration: the map races across workers,
    // but the merged (and budget-truncated) records are canonical for any
    // worker count.
    let parallel = |workers: usize| {
        let map = CoverageMap::shared_for(&elf);
        let policy_map = Arc::clone(&map);
        let mut session = Session::builder(Spec::rv32im())
            .binary(&elf)
            .workers(workers)
            .limit(budget as u64)
            .strategy(move |_| Box::new(CoverageGuided::new(Arc::clone(&policy_map))))
            .observer_factory(move |_| Box::new(CoverageObserver::new(Arc::clone(&map))))
            .build_parallel()
            .expect("builds");
        session.run_all().expect("explores");
        session.records().to_vec()
    };
    let first = parallel(workers);
    let again = parallel(workers + 3);
    assert_eq!(first, again, "canonical truncated merge");
    println!(
        "\nparallel hunts with {workers} and {} workers: identical {}-path records ✓",
        workers + 3,
        first.len()
    );
}
