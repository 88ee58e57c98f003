//! Integration test for the paper's Table I (path counts per engine).
//!
//! The full table (all five benchmarks × four engines) is regenerated by
//! `cargo run --release -p binsym-bench --bin table1`; this test pins the
//! table's *shape* on the benchmarks that explore quickly enough for CI:
//!
//! * all engines agree on the bug-neutral benchmarks;
//! * the buggy angr persona misses paths on exactly `base64-encode` and
//!   `uri-parser`;
//! * the sort path counts are n! (the paper's exact values).

use binsym_repro::bench::programs;
use binsym_repro::bench::{run, Engine, RunConfig};

#[test]
fn clif_parser_all_engines_agree() {
    let p = programs::CLIF_PARSER;
    let elf = p.build();
    let mut counts = Vec::new();
    for engine in Engine::TABLE1 {
        let r = run(engine, &elf, &RunConfig::default()).expect("explores");
        counts.push((engine.name(), r.summary.paths));
    }
    for (name, paths) in &counts {
        assert_eq!(*paths, p.expected_paths, "{name} on {}", p.name);
    }
}

#[test]
fn uri_parser_angr_misses_iri_paths() {
    let p = programs::URI_PARSER;
    let elf = p.build();
    let correct = run(Engine::BinSym, &elf, &RunConfig::default())
        .expect("binsym")
        .summary;
    let buggy = run(Engine::Angr, &elf, &RunConfig::default())
        .expect("angr")
        .summary;
    assert_eq!(correct.paths, p.expected_paths);
    assert_eq!(buggy.paths, p.expected_paths_buggy_angr);
    assert!(
        buggy.paths < correct.paths,
        "angr must miss the signed IRI check paths"
    );
}

#[test]
fn bubble_sort_has_factorial_paths() {
    let p = programs::BUBBLE_SORT;
    let elf = p.build();
    let s = run(Engine::BinSym, &elf, &RunConfig::default())
        .expect("binsym")
        .summary;
    assert_eq!(s.paths, 720, "6! orderings");
    assert!(
        s.error_paths.is_empty(),
        "sortedness verification must hold on every path"
    );
}

#[test]
fn base64_encode_angr_vs_correct() {
    let p = programs::BASE64_ENCODE;
    let elf = p.build();
    let correct = run(Engine::Binsec, &elf, &RunConfig::default())
        .expect("binsec")
        .summary;
    let buggy = run(Engine::Angr, &elf, &RunConfig::default())
        .expect("angr")
        .summary;
    assert_eq!(correct.paths, 6250, "the paper's exact Table I value");
    assert_eq!(buggy.paths, p.expected_paths_buggy_angr);
}

#[test]
fn three_element_sort_exhaustive_witnesses() {
    // A reduced sort whose six paths can be checked one by one: every
    // witness input replayed concretely must exit 0 and the explorer must
    // find exactly 3! paths.
    let src = r#"
        .data
        .globl __sym_input
__sym_input: .space 3
        .text
        .globl _start
_start:
        la   s0, __sym_input
        li   s1, 2
outer:
        beqz s1, done
        li   t0, 0
inner:
        bge  t0, s1, onext
        add  t1, s0, t0
        lbu  t2, 0(t1)
        lbu  t3, 1(t1)
        bgeu t3, t2, noswap
        sb   t3, 0(t1)
        sb   t2, 1(t1)
noswap: addi t0, t0, 1
        j    inner
onext:  addi s1, s1, -1
        j    outer
done:
        lbu  t2, 0(s0)
        lbu  t3, 1(s0)
        bgtu t2, t3, fail
        lbu  t2, 1(s0)
        lbu  t3, 2(s0)
        bgtu t2, t3, fail
        li   a0, 0
        li   a7, 93
        ecall
fail:   li   a0, 1
        li   a7, 93
        ecall
"#;
    let elf = binsym_repro::asm::Assembler::new()
        .assemble(src)
        .expect("assembles");
    let s = binsym_repro::binsym::Session::builder(binsym_repro::isa::Spec::rv32im())
        .binary(&elf)
        .build()
        .expect("sym input")
        .run_all()
        .expect("explores");
    assert_eq!(s.paths, 6);
    assert!(s.error_paths.is_empty());
}
