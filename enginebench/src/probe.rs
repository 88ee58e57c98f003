//! Direct probe of the warm path's per-query scratch clone: the public
//! `SatSolver::clone_unlogged` + `BitBlaster::clone_unjournaled` pair a
//! retained prefix context pays on every flip, timed on a chain-shaped
//! prefix of a given depth (running 8-bit sums compared against
//! constants, as in the `binsym-smt` prefix tests).

use std::hint::black_box;
use std::time::{Duration, Instant};

use binsym_smt::bitblast::BitBlaster;
use binsym_smt::{SatSolver, TermManager};

/// Prefix depths the probe reports, in metric order.
pub(crate) const CLONE_DEPTHS: [usize; 5] = [16, 32, 64, 128, 256];

/// Clone pairs timed per batch.
const BATCH: u32 = 16;

/// Median microseconds per clone pair at prefix `depth`, over batches
/// timed for about `budget`.
pub(crate) fn clone_us(depth: usize, budget: Duration) -> f64 {
    let mut tm = TermManager::new();
    let mut sat = SatSolver::with_op_log();
    let mut blaster = BitBlaster::with_journal();
    let mut acc = tm.bv_const(0, 8);
    for i in 0..depth {
        let v = tm.var(&format!("in{i}"), 8);
        acc = tm.add(acc, v);
        let bound = tm.bv_const(200 + (i % 40) as u64, 8);
        let cond = tm.ult(acc, bound);
        let lit = blaster.blast_bool(&tm, &mut sat, cond);
        sat.add_clause(&[lit]);
    }
    let started = Instant::now();
    let mut batches = Vec::new();
    while batches.len() < 5 || started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box((sat.clone_unlogged(), blaster.clone_unjournaled()));
        }
        batches.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(BATCH));
    }
    crate::stats::median(&mut batches)
}
