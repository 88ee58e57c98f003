//! The output check every exploration passes through, outside the timed
//! region:
//!
//! * the path count equals the program's pinned `expected_paths` and the
//!   run was not truncated;
//! * the model-independent set of decision vectors is duplicate-free and
//!   identical across every configuration;
//! * the merged `ParallelSession::records()` are byte-identical across the
//!   prescription-replay configurations (the repo's determinism contract);
//! * repeated explorations of one configuration — traced or not — return
//!   the same `Summary`;
//! * every witness input, re-run in the independent concrete interpreter
//!   `binsym-interp`, reaches the recorded exit status after exactly the
//!   recorded step count.

use std::collections::BTreeMap;

use binsym::{find_sym_input, StepResult, Summary};
use binsym_bench::Program;
use binsym_elf::ElfFile;
use binsym_interp::{Exit, Machine};
use binsym_isa::Spec;

use crate::engine::{Config, Explored, PathOut};

/// The reference outputs of one program: fixed by the first exploration
/// that finds the pinned path count, and compared against by every later
/// one.
#[derive(Debug)]
pub struct Checker {
    program: Program,
    elf: ElfFile,
    decisions: Option<Vec<Vec<bool>>>,
    records: Option<Vec<u8>>,
    summaries: BTreeMap<Config, Summary>,
    /// Path lists already replayed in the interpreter, with the number of
    /// witnesses that failed — identical outputs need no second replay.
    replayed: Vec<(Vec<PathOut>, usize)>,
}

impl Checker {
    /// A checker for `program`, assembled as `elf`.
    pub fn new(program: Program, elf: ElfFile) -> Self {
        Checker {
            program,
            elf,
            decisions: None,
            records: None,
            summaries: BTreeMap::new(),
            replayed: Vec::new(),
        }
    }

    /// Checks one exploration of `cfg`, returning a description of every
    /// check it fails (empty when it passes).
    pub fn check(&mut self, cfg: Config, explored: &Explored) -> Vec<String> {
        let name = self.program.name;
        let mut failures = Vec::new();
        let summary = &explored.summary;
        let expected = self.program.expected_paths;
        let count_ok = summary.paths == expected
            && explored.paths.len() as u64 == expected
            && !summary.truncated;
        if !count_ok {
            failures.push(format!(
                "{name}/{}: {} paths ({} listed, truncated: {}), expected {expected}",
                cfg.prefix(),
                summary.paths,
                explored.paths.len(),
                summary.truncated
            ));
        }

        let decisions = decision_set(&explored.paths);
        if decisions.len() != explored.paths.len() {
            failures.push(format!(
                "{name}/{}: {} duplicate decision vectors",
                cfg.prefix(),
                explored.paths.len() - decisions.len()
            ));
        }
        match &self.decisions {
            Some(reference) if *reference != decisions => failures.push(format!(
                "{name}/{}: decision-vector set differs from the other configurations",
                cfg.prefix()
            )),
            None if count_ok => self.decisions = Some(decisions),
            _ => {}
        }

        if let Some(bytes) = &explored.records {
            match &self.records {
                Some(reference) if reference != bytes => failures.push(format!(
                    "{name}/{}: merged records are not byte-identical to the other \
                     prescription-replay configurations",
                    cfg.prefix()
                )),
                None if count_ok => self.records = Some(bytes.clone()),
                _ => {}
            }
        }

        match self.summaries.get(&cfg) {
            Some(reference) if reference != summary => failures.push(format!(
                "{name}/{}: summary differs from an earlier exploration of the same \
                 configuration",
                cfg.prefix()
            )),
            None => {
                self.summaries.insert(cfg, summary.clone());
            }
            _ => {}
        }

        let bad = self.replay_witnesses(&explored.paths);
        if bad > 0 {
            failures.push(format!(
                "{name}/{}: {bad} witness(es) do not reproduce their path in the reference \
                 interpreter",
                cfg.prefix()
            ));
        }
        failures
    }

    fn replay_witnesses(&mut self, paths: &[PathOut]) -> usize {
        if let Some((_, bad)) = self.replayed.iter().find(|(p, _)| p == paths) {
            return *bad;
        }
        let bad = witness_failures(&self.elf, paths);
        self.replayed.push((paths.to_vec(), bad));
        bad
    }
}

/// The sorted, deduplicated decision vectors of `paths`.
fn decision_set(paths: &[PathOut]) -> Vec<Vec<bool>> {
    let mut set: Vec<Vec<bool>> = paths.iter().map(|p| p.decisions.clone()).collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// Re-runs every witness of `paths` in the concrete reference interpreter
/// and counts those that do not reach the recorded exit after exactly the
/// recorded number of steps.
pub fn witness_failures(elf: &ElfFile, paths: &[PathOut]) -> usize {
    let Ok((input_addr, _)) = find_sym_input(elf, None) else {
        return paths.len();
    };
    let mut loaded = Machine::new(Spec::rv32im());
    loaded.load_elf(elf);
    paths
        .iter()
        .filter(|p| {
            let mut m = loaded.clone();
            m.mem.store_slice(input_addr, &p.input);
            let reached = match m.run(p.steps) {
                Ok(Exit::Exited(code)) => p.exit == StepResult::Exited(code),
                Ok(Exit::Break) => p.exit == StepResult::Break,
                Ok(Exit::OutOfFuel) | Err(_) => false,
            };
            !(reached && m.steps == p.steps)
        })
        .count()
}
