//! The benchmark's metric names and units — the single list the runner
//! fills and the tests compare against `BENCHMARK.json` — and the JSON
//! result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::engine::Config;
use crate::probe::CLONE_DEPTHS;

/// A metric's name and unit.
pub type MetricName = (String, &'static str);

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end() -> Vec<MetricName> {
    let mut names: Vec<MetricName> = Config::ALL
        .iter()
        .map(|c| (format!("{}.paths_per_s", c.prefix()), "paths/s"))
        .collect();
    names.push(("setup_s".into(), "s"));
    names.push(("peak_rss_mib".into(), "MiB"));
    names.push(("ok_ratio".into(), "ratio"));
    names
}

/// The per-layer metrics, measured in the traced run.
pub fn per_layer() -> Vec<MetricName> {
    let mut names = Vec::new();
    for cfg in Config::ALL {
        let p = cfg.prefix();
        let mut add =
            |suffix: &str, unit: &'static str| names.push((format!("{p}.{suffix}"), unit));
        add("paths", "count");
        add("solver_checks", "count");
        add("max_trail_len", "count");
        add("executor.execute_s", "s");
        add("executor.execute_calls", "count");
        add("executor.steps", "count");
        add("executor.steps_per_s", "1/s");
        add("executor.execute_p50_us", "us");
        add("executor.execute_p99_us", "us");
        if cfg.is_parallel() {
            add("executor.replay_s", "s");
            add("executor.replay_calls", "count");
        }
        if cfg.has_backend() {
            add("solver.assert_s", "s");
            add("solver.check_s", "s");
            add("solver.checks", "count");
            add("solver.unsat", "count");
            add("solver.check_p50_us", "us");
            add("solver.check_p99_us", "us");
            add("solver.frame_s", "s");
        }
        if cfg.is_warm() {
            add("warm.solve_s", "s");
            add("warm.promote_s", "s");
            add("warm.cold_solve_s", "s");
            add("warm.replay_skipped_ratio", "ratio");
        }
        add("gate.screened", "count");
        add("gate.eliminated", "count");
        add("gate.eliminated_ratio", "ratio");
        add("gate.s", "s");
        if cfg.is_parallel() {
            add("parallel.merge_s", "s");
            add("parallel.worker_busy_ratio", "ratio");
        }
        add("unattributed_s", "s");
        add("attributed_ratio", "ratio");
        add("trace_overhead_ratio", "ratio");
    }
    for depth in CLONE_DEPTHS {
        names.push((format!("smt.clone_us.d{depth}"), "us"));
    }
    names
}

/// The names a run with `trace` must print.
pub fn expected(trace: bool) -> Vec<MetricName> {
    if trace {
        per_layer()
    } else {
        end_to_end()
    }
}

/// Renders the result line: `correct`, `attempted`, `failed`, and every
/// metric of `values` with its unit.
///
/// # Errors
/// When `values` does not hold exactly the metrics [`expected`] names for
/// `trace`, or holds a value that is not a finite number.
pub fn result_line(
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let names = expected(trace);
    if let Some(extra) = values.keys().find(|k| !names.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric `{extra}` is not a declared metric"));
    }
    let mut metrics = String::new();
    for (name, unit) in &names {
        let value = values
            .get(name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {value}"));
        }
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    ))
}
