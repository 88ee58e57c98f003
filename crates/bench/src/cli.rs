//! Shared command-line plumbing for the bench bins: one flag reader
//! ([`Args`]), the typed [`BenchOpts`] every bin parses once and turns
//! into a [`RunConfig`], the campaign trace sink, and a dependency-free
//! JSON writer for the machine-readable summaries tracked in
//! `BENCH_*.json`.

use std::io::Write as _;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use binsym::{AddressPolicyKind, ChromeTraceSink, TraceSink};

use crate::engines::{parse_memory_policy, RunConfig, SearchStrategy};

/// Command-line arguments under the bins' shared flag rules: a flag's
/// value is the next argument, which must exist and must not itself be a
/// `--flag`. Unknown arguments are ignored so bins can layer their own
/// flags over [`BenchOpts`].
#[derive(Debug, Clone)]
pub struct Args(Vec<String>);

impl Args {
    /// The process arguments, without the program name.
    pub fn from_env() -> Args {
        Args(std::env::args().skip(1).collect())
    }

    /// True when the switch `flag` is present.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// The value of `flag`, when given.
    ///
    /// # Panics
    /// Panics when the value slot is missing or holds another flag:
    /// `--workers --quick` used to silently consume `--quick` as the worker
    /// count and then panic with a misleading "invalid value" message; this
    /// fails with the real problem.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        match self.0.get(i + 1) {
            Some(v) if !v.starts_with("--") => Some(v),
            Some(v) => panic!("{flag} needs a value (found flag {v:?} instead)"),
            None => panic!("{flag} needs a value"),
        }
    }

    /// The value of `flag` run through `parse`; `hint` lists the accepted
    /// spellings in the failure message.
    ///
    /// # Panics
    /// Panics with `invalid value for FLAG` when `parse` rejects the value:
    /// silently falling back to a default would record a wrong datapoint in
    /// `BENCH_*.json`.
    pub fn parsed<T>(
        &self,
        flag: &str,
        hint: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        self.value(flag).map(|raw| checked(flag, raw, hint, parse))
    }

    /// The value of `flag` as a count (see [`Args::parsed`]).
    pub fn count(&self, flag: &str) -> Option<usize> {
        self.parsed(flag, "", |s| s.parse().ok())
    }
}

fn checked<T>(what: &str, raw: &str, hint: &str, parse: impl FnOnce(&str) -> Option<T>) -> T {
    parse(raw).unwrap_or_else(|| panic!("invalid value for {what}: {raw:?}{hint}"))
}

/// Options common to the bench bins, validated and typed at parse time: a
/// malformed value fails [`BenchOpts::from_env`] before any run starts.
#[derive(Debug, Clone, Default)]
pub struct BenchOpts {
    /// Worker threads for parallel sessions: `--workers N`, falling back
    /// to the `BINSYM_WORKERS` environment variable. `None` (or 0) means
    /// sequential.
    pub workers: Option<usize>,
    /// Path-selection strategy (`--strategy dfs|bfs|coverage`, default
    /// dfs).
    pub strategy: SearchStrategy,
    /// Address-concretization policy of the symbolic-memory layer
    /// (`--memory-policy eq|min|symbolic:N`, default eq).
    pub memory_policy: AddressPolicyKind,
    /// Where to write the machine-readable JSON summary (`--json PATH`).
    pub json: Option<PathBuf>,
    /// Skip the heavy benchmark rows (`--quick`).
    pub quick: bool,
    /// CI-sized run: only the fast programs and datapoints (`--smoke`).
    pub smoke: bool,
    /// Repetitions for timing harnesses (`--runs N`).
    pub runs: Option<NonZeroUsize>,
    /// Where to write a Chrome-trace-event file of the run
    /// (`--trace PATH`), openable in `ui.perfetto.dev`.
    pub trace: Option<PathBuf>,
    /// Collect phase-timing metrics and include them in the report
    /// (`--metrics`).
    pub metrics: bool,
    /// Base path for atomic exploration checkpoints (`--checkpoint PATH`)
    /// and the merged-path interval between writes (`--checkpoint-every
    /// N`, default 64). The bins run many (engine × benchmark) sessions per
    /// invocation, so each derives its own file via [`RunConfig::for_run`].
    /// Parallel runs only.
    pub checkpoint: Option<(PathBuf, u64)>,
    /// Base path to resume explorations from (`--resume PATH`), suffixed
    /// per (engine, benchmark) exactly like `--checkpoint`.
    pub resume: Option<PathBuf>,
}

impl BenchOpts {
    /// Parses the process arguments (and the `BINSYM_WORKERS` fallback).
    ///
    /// # Panics
    /// Panics on a malformed or missing flag value (see [`Args`]).
    pub fn from_env() -> BenchOpts {
        Self::parse(
            std::env::args().skip(1),
            std::env::var("BINSYM_WORKERS").ok(),
        )
    }

    pub(crate) fn parse(
        args: impl Iterator<Item = String>,
        workers_env: Option<String>,
    ) -> BenchOpts {
        let args = Args(args.collect());
        let workers = args
            .count("--workers")
            .or_else(|| {
                workers_env
                    .as_deref()
                    .filter(|s| !s.is_empty())
                    .map(|s| checked("BINSYM_WORKERS", s, "", |s| s.parse().ok()))
            })
            .filter(|&w| w > 0);
        let every = args.count("--checkpoint-every").map_or(64, |n| n as u64);
        BenchOpts {
            workers,
            strategy: args
                .parsed("--strategy", " (dfs|bfs|coverage)", SearchStrategy::parse)
                .unwrap_or_default(),
            memory_policy: args
                .parsed(
                    "--memory-policy",
                    " (eq|min|symbolic:N)",
                    parse_memory_policy,
                )
                .unwrap_or_default(),
            json: args.value("--json").map(PathBuf::from),
            quick: args.has("--quick"),
            smoke: args.has("--smoke"),
            runs: args.parsed("--runs", " (a positive count)", |s| s.parse().ok()),
            trace: args.value("--trace").map(PathBuf::from),
            metrics: args.has("--metrics"),
            checkpoint: args
                .value("--checkpoint")
                .map(|base| (PathBuf::from(base), every)),
            resume: args.value("--resume").map(PathBuf::from),
        }
    }

    /// The [`RunConfig`] of this invocation, carrying the campaign's trace
    /// sink; campaigns derive each (engine, benchmark) run from it with
    /// [`RunConfig::for_run`].
    ///
    /// # Errors
    /// `--checkpoint`/`--resume` without `--workers`: they persist the
    /// sharded frontier, which the sequential engine does not have.
    pub fn run_config(&self, trace: Option<Arc<dyn TraceSink>>) -> Result<RunConfig, String> {
        let workers = self.workers.unwrap_or(0);
        if workers == 0 && (self.checkpoint.is_some() || self.resume.is_some()) {
            return Err(
                "--checkpoint/--resume persist the sharded frontier: add --workers N".into(),
            );
        }
        Ok(RunConfig {
            workers,
            strategy: self.strategy,
            policy: self.memory_policy,
            metrics: self.metrics,
            trace,
            checkpoint: self.checkpoint.clone(),
            resume: self.resume.clone(),
        })
    }
}

/// Reports a flag combination a bin cannot run on stderr and exits with
/// status 2, before any run starts.
pub fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// The `--trace PATH` sink of one invocation: every run of the campaign
/// lands in a single Perfetto-openable Chrome trace file, timestamps from
/// one epoch.
pub struct CampaignTrace(Option<(PathBuf, Arc<ChromeTraceSink>)>);

impl CampaignTrace {
    /// A sink when `--trace` was given.
    pub fn new(opts: &BenchOpts) -> CampaignTrace {
        CampaignTrace(
            opts.trace
                .clone()
                .map(|path| (path, Arc::new(ChromeTraceSink::new()))),
        )
    }

    /// The sink every run of the campaign writes to.
    pub fn sink(&self) -> Option<Arc<dyn TraceSink>> {
        self.0
            .as_ref()
            .map(|(_, sink)| Arc::clone(sink) as Arc<dyn TraceSink>)
    }

    /// Writes the trace file, when `--trace` was given.
    ///
    /// # Panics
    /// Panics if the file cannot be written.
    pub fn finish(self) {
        if let Some((path, sink)) = self.0 {
            sink.write_to(&path)
                .unwrap_or_else(|e| panic!("writing trace to {}: {e}", path.display()));
            println!(
                "trace: {} events written to {} (open in ui.perfetto.dev)",
                sink.len(),
                path.display()
            );
        }
    }
}

/// A JSON value, built by hand — the build environment has no serde, and
/// the bench summaries only need objects/arrays of scalars.
#[derive(Debug, Clone)]
pub enum Json {
    /// The null value.
    Null,
    /// A string (escaped on render).
    S(String),
    /// An unsigned integer.
    U(u64),
    /// A float (rendered with full precision).
    F(f64),
    /// A boolean.
    B(bool),
    /// An array.
    A(Vec<Json>),
    /// An object with ordered keys.
    O(Vec<(&'static str, Json)>),
}

impl Json {
    /// Convenience constructor from anything string-like.
    pub fn s(v: impl Into<String>) -> Json {
        Json::S(v.into())
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::S(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::U(v) => out.push_str(&v.to_string()),
            Json::F(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::B(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::A(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::O(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::s(*k).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes a JSON summary to `path` (with a trailing newline) and reports
/// the destination on stdout.
///
/// # Panics
/// Panics if the file cannot be written — bench bins treat an unwritable
/// summary destination as a hard configuration error.
pub fn write_json(path: &Path, value: &Json) {
    let mut file = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    writeln!(file, "{}", value.render())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("\nJSON summary written to {}", path.display());
}

/// The per-round mean of `counter` in a report merged over `runs` rounds,
/// rounded to the nearest integer. On a complete run every counter but the
/// `Warm*` ones is exact, so its mean is the single-round value; the
/// warm-cache counters at two or more workers depend on the work-stealing
/// schedule, so for them this is a rounded mean.
pub fn counter_per_round(
    report: &binsym::MetricsReport,
    counter: binsym::Counter,
    runs: usize,
) -> u64 {
    let n = runs.max(1) as u64;
    (report.counter(counter) + n / 2) / n
}

/// Renders a [`binsym::Summary`] as a JSON object (shared row shape of
/// every bench bin).
pub fn summary_json(summary: &binsym::Summary, seconds: f64) -> Json {
    Json::O(vec![
        ("paths", Json::U(summary.paths)),
        ("error_paths", Json::U(summary.error_paths.len() as u64)),
        ("total_steps", Json::U(summary.total_steps)),
        ("solver_checks", Json::U(summary.solver_checks)),
        ("max_trail_len", Json::U(summary.max_trail_len as u64)),
        ("truncated", Json::B(summary.truncated)),
        ("seconds", Json::F(seconds)),
    ])
}

/// Renders a [`binsym::MetricsReport`] accumulated over `runs` rounds as a
/// JSON object: per-phase wall seconds (averaged back to one round, like
/// the timings), every [`binsym::Counter`] as its per-round mean (see
/// [`counter_per_round`]: exact for all but the warm-cache counters at two
/// or more workers), and the p50/p90/p99 solver-query latency percentiles
/// over the union histogram of all rounds.
pub fn metrics_json(report: &binsym::MetricsReport, runs: usize) -> Json {
    let n = runs.max(1) as u64;
    let phases: Vec<(&'static str, Json)> = binsym::Phase::ALL
        .iter()
        .map(|&p| (p.name(), Json::F(report.phase_seconds(p) / n as f64)))
        .collect();
    let counters: Vec<(&'static str, Json)> = binsym::Counter::ALL
        .iter()
        .map(|&c| (c.name(), Json::U(counter_per_round(report, c, runs))))
        .collect();
    let latency = report.query_latency();
    Json::O(vec![
        ("phase_seconds", Json::O(phases)),
        ("counters", Json::O(counters)),
        (
            "query_latency",
            Json::O(vec![
                ("p50_seconds", Json::F(latency.percentile(0.50))),
                ("p90_seconds", Json::F(latency.percentile(0.90))),
                ("p99_seconds", Json::F(latency.percentile(0.99))),
                ("count", Json::U(latency.total() / n)),
            ]),
        ),
    ])
}

/// A parsed JSON value — the reading counterpart of the [`Json`] writer
/// (whose object keys are `&'static str` and thus cannot hold parsed
/// input). Used by the `trace_check` bin to validate trace files without
/// serde.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; trace timestamps fit exactly).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, keys in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(JsonValue::Num)
                .ok_or_else(|| format!("invalid token at byte {start}"))
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so byte
                // boundaries are valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xc0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("valid utf8"));
            }
        }
    }
}

/// Shape summary of a validated trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceShape {
    /// Span-pair and instant events (metadata excluded).
    pub events: usize,
    /// Distinct tracks (`tid`s) carrying at least one event.
    pub tracks: usize,
}

/// Validates a trace file produced by `--trace` (the Chrome trace-event
/// document of `binsym::ChromeTraceSink`) or by `binsym::JsonlTraceSink`
/// (one event object per line): every event parses, every `B` has a
/// matching same-name `E` on its track, timestamps are monotone per track,
/// and at least one track carries at least one event.
///
/// # Errors
/// Returns a description of the first schema violation.
pub fn validate_trace(text: &str) -> Result<TraceShape, String> {
    let events: Vec<JsonValue> = match JsonValue::parse(text) {
        Ok(doc) => doc
            .get("traceEvents")
            .ok_or("document has no traceEvents array")?
            .as_array()
            .ok_or("traceEvents is not an array")?
            .to_vec(),
        // Not one JSON document: treat as JSONL, one event per line.
        Err(_) => text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|line| JsonValue::parse(line).map_err(|e| format!("unparseable JSONL line: {e}")))
            .collect::<Result<_, _>>()?,
    };
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> =
        std::collections::BTreeMap::new();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let mut counted = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i} has no ph"))?;
        if ph == "M" {
            continue; // metadata carries no timestamp/track semantics
        }
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i} has no name"))?;
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i} has no tid"))? as u64;
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i} has no ts"))?;
        let prev = last_ts.entry(tid).or_insert(ts);
        if ts < *prev {
            return Err(format!(
                "event {i} ({name}): ts {ts} goes backwards on track {tid}"
            ));
        }
        *prev = ts;
        counted += 1;
        match ph {
            "B" => stacks.entry(tid).or_default().push(name.to_string()),
            "E" => {
                let open = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .ok_or_else(|| format!("event {i}: E without open span on track {tid}"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: E {name:?} closes open span {open:?} on track {tid}"
                    ));
                }
            }
            "i" | "I" => {}
            other => return Err(format!("event {i}: unknown ph {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("track {tid}: span {open:?} never closed"));
        }
    }
    if counted == 0 {
        return Err("trace carries no events".into());
    }
    Ok(TraceShape {
        events: counted,
        tracks: last_ts.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> BenchOpts {
        BenchOpts::parse(args.iter().map(|s| s.to_string()), None)
    }

    #[test]
    fn parses_flags_and_env_fallback() {
        let o = opts(&["--workers", "4", "--json", "out.json"]);
        assert_eq!(o.workers, Some(4));
        assert_eq!(o.json.as_deref(), Some(Path::new("out.json")));
        assert!(!o.quick);

        let o = BenchOpts::parse(["--quick".to_string()].into_iter(), Some("2".into()));
        assert_eq!(o.workers, Some(2), "env fallback");
        assert!(o.quick);

        let o = opts(&["--workers", "0"]);
        assert_eq!(o.workers, None, "0 means sequential");

        let o = opts(&["--runs", "7"]);
        assert_eq!(o.runs.map(NonZeroUsize::get), Some(7));

        let o = opts(&["--strategy", "coverage"]);
        assert_eq!(o.strategy, SearchStrategy::Coverage);

        let o = opts(&["--memory-policy", "symbolic:64"]);
        assert_eq!(o.memory_policy, AddressPolicyKind::Symbolic { window: 64 });
        let o = opts(&["--quick"]);
        assert_eq!(o.strategy, SearchStrategy::Dfs, "strategy defaults to dfs");
        assert_eq!(
            o.memory_policy,
            AddressPolicyKind::default(),
            "policy defaults to the engine's"
        );
    }

    #[test]
    fn persistence_flags_parse_and_suffix_per_run() {
        let o = opts(&[
            "--workers",
            "2",
            "--checkpoint",
            "ck/base",
            "--checkpoint-every",
            "16",
        ]);
        assert_eq!(o.checkpoint, Some((PathBuf::from("ck/base"), 16)));
        let cfg = o.run_config(None).expect("sharded run");
        let run = cfg.for_run("angr (fixed)", "uri-parser");
        assert_eq!(
            run.checkpoint,
            Some((PathBuf::from("ck/base.angr--fixed-.uri-parser.ck"), 16))
        );
        assert_eq!(run.resume, None);
        assert_eq!(
            cfg.checkpoint,
            Some((PathBuf::from("ck/base"), 16)),
            "the campaign config keeps the base path"
        );

        let o = opts(&["--workers", "2", "--resume", "ck/base"]);
        let run = o.run_config(None).expect("sharded run");
        let run = run.for_run("BinSym", "bubble-sort");
        assert_eq!(
            run.resume.as_deref(),
            Some(Path::new("ck/base.binsym.bubble-sort.ck")),
            "resume suffixes identically to checkpoint"
        );

        let o = opts(&["--checkpoint", "ck/base"]);
        assert_eq!(
            o.checkpoint.map(|(_, every)| every),
            Some(64),
            "default interval"
        );

        let run = opts(&["--quick"]).run_config(None).expect("plain run");
        let run = run.for_run("BinSym", "bubble-sort");
        assert!(run.checkpoint.is_none() && run.resume.is_none());
    }

    #[test]
    fn persistence_without_workers_is_rejected() {
        for flag in ["--checkpoint", "--resume"] {
            let err = opts(&[flag, "ck/base"])
                .run_config(None)
                .err()
                .expect("sequential persistence is rejected");
            assert!(err.contains("add --workers N"), "{flag}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid value for --runs: \"0\"")]
    fn zero_runs_fails_loudly() {
        // Used to reach fig6's mean and divide a duration by zero.
        let _ = opts(&["--runs", "0"]);
    }

    #[test]
    #[should_panic(expected = "invalid value for --strategy")]
    fn malformed_strategy_fails_loudly() {
        let _ = opts(&["--strategy", "dfS"]);
    }

    #[test]
    #[should_panic(expected = "invalid value for --memory-policy")]
    fn malformed_memory_policy_fails_loudly() {
        let _ = opts(&["--memory-policy", "sym"]);
    }

    #[test]
    #[should_panic(expected = "invalid value for --workers")]
    fn malformed_workers_value_fails_loudly() {
        let args = vec!["--workers".to_string(), "fourr".to_string()];
        let _ = BenchOpts::parse(args.into_iter(), None);
    }

    #[test]
    #[should_panic(expected = "--workers needs a value")]
    fn trailing_workers_flag_fails_loudly() {
        let args = vec!["--workers".to_string()];
        let _ = BenchOpts::parse(args.into_iter(), None);
    }

    #[test]
    #[should_panic(expected = "--workers needs a value (found flag \"--quick\" instead)")]
    fn flag_as_value_is_rejected_with_the_real_problem() {
        // Used to silently take `--quick` as the worker count and then
        // panic with a misleading "invalid value for --workers" message.
        let args = vec!["--workers".to_string(), "--quick".to_string()];
        let _ = BenchOpts::parse(args.into_iter(), None);
    }

    #[test]
    #[should_panic(expected = "--json needs a value (found flag \"--workers\" instead)")]
    fn flag_as_value_is_rejected_for_string_flags_too() {
        let args = vec![
            "--json".to_string(),
            "--workers".to_string(),
            "2".to_string(),
        ];
        let _ = BenchOpts::parse(args.into_iter(), None);
    }

    #[test]
    fn negative_looking_values_are_not_flags() {
        // A single leading dash is a value, not a flag: only `--`-prefixed
        // tokens are rejected.
        let args = vec!["--json".to_string(), "-out.json".to_string()];
        let o = BenchOpts::parse(args.into_iter(), None);
        assert_eq!(o.json.as_deref(), Some(Path::new("-out.json")));
    }

    #[test]
    fn smoke_flag_parses() {
        let args = vec!["--smoke".to_string()];
        let o = BenchOpts::parse(args.into_iter(), None);
        assert!(o.smoke);
        assert!(!o.quick);
    }

    #[test]
    fn json_renders_escaped_and_nested() {
        let v = Json::O(vec![
            ("name", Json::s("a\"b\\c")),
            ("n", Json::U(42)),
            ("ok", Json::B(true)),
            ("xs", Json::A(vec![Json::F(1.5), Json::U(2)])),
            ("none", Json::Null),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"a\"b\\c","n":42,"ok":true,"xs":[1.5,2],"none":null}"#
        );
    }

    #[test]
    fn json_value_roundtrips_writer_output() {
        let doc = Json::O(vec![
            ("name", Json::s("sp\"an\\x")),
            ("n", Json::U(42)),
            ("f", Json::F(1.5)),
            ("ok", Json::B(true)),
            ("none", Json::Null),
            ("xs", Json::A(vec![Json::U(1), Json::U(2)])),
        ])
        .render();
        let v = JsonValue::parse(&doc).expect("parses");
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("sp\"an\\x"));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(42.0));
        assert_eq!(v.get("f").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        assert_eq!(
            v.get("xs").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        assert!(JsonValue::parse("{\"a\":1,}").is_err());
        assert!(JsonValue::parse("[1 2]").is_err());
        assert!(JsonValue::parse("{\"a\":1} trailing").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn metrics_json_averages_over_runs() {
        use binsym::{Counter, MetricsRegistry, Phase};
        let registry = MetricsRegistry::new(1);
        // Two rounds on shard 0: 4s of solving, 6 paths, 2 queries, 3404
        // gate eliminations total, and warm hits that differ per round
        // (2 then 3), as they do at two or more workers.
        for hits in [2, 3] {
            let shard = registry.shard(0);
            shard.record_phase(Phase::Solve, 2_000_000_000);
            shard.count(Counter::Paths, 3);
            shard.record_query(1_000_000);
            shard.count(Counter::GateEliminated, 1702);
            shard.count(Counter::WarmHits, hits);
        }
        let report = registry.report();
        // runs = 0 clamps to a single round.
        assert_eq!(counter_per_round(&report, Counter::Paths, 0), 6);
        let rendered = metrics_json(&report, 2).render();
        let doc = JsonValue::parse(&rendered).expect("metrics json parses");
        let phase = doc.get("phase_seconds").expect("phase_seconds");
        let solve = phase
            .get("solve")
            .and_then(JsonValue::as_f64)
            .expect("solve");
        assert!((solve - 2.0).abs() < 1e-9, "per-round solve secs: {solve}");
        let counters = doc.get("counters").expect("counters");
        let counter = |c: Counter| counters.get(c.name()).and_then(JsonValue::as_f64);
        assert_eq!(counter(Counter::Paths), Some(3.0));
        assert_eq!(counter(Counter::Queries), Some(1.0));
        assert_eq!(counter(Counter::GateEliminated), Some(1702.0));
        assert_eq!(counter(Counter::WarmHits), Some(3.0), "rounded mean of 2.5");
        assert_eq!(counter(Counter::Resumes), Some(0.0), "idle counters appear");
        let latency = doc.get("query_latency").expect("query_latency");
        assert_eq!(latency.get("count").and_then(JsonValue::as_f64), Some(1.0));
        let p99 = latency
            .get("p99_seconds")
            .and_then(JsonValue::as_f64)
            .expect("p99");
        assert!(p99 > 0.0);
        // Every phase name appears, even idle ones.
        for p in Phase::ALL {
            assert!(phase.get(p.name()).is_some(), "missing phase {}", p.name());
        }
    }

    #[test]
    fn validate_trace_accepts_real_sink_output() {
        use binsym::{ChromeTraceSink, JsonlTraceSink, TraceSink};
        let chrome = ChromeTraceSink::new();
        chrome.begin_span(0, "solve");
        chrome.begin_span(1, "execute");
        chrome.instant(0, "warm_rollback");
        chrome.end_span(1, "execute");
        chrome.end_span(0, "solve");
        let shape = validate_trace(&chrome.render()).expect("chrome trace valid");
        assert_eq!(shape.tracks, 2);
        assert_eq!(shape.events, 5);

        let dir = std::env::temp_dir().join(format!("binsym-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("trace.jsonl");
        {
            let jsonl = JsonlTraceSink::to_file(&path).expect("jsonl sink");
            jsonl.begin_span(3, "merge");
            jsonl.end_span(3, "merge");
        }
        let text = std::fs::read_to_string(&path).expect("read jsonl");
        let shape = validate_trace(&text).expect("jsonl trace valid");
        assert_eq!(shape.tracks, 1);
        assert_eq!(shape.events, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_trace_rejects_malformed_traces() {
        // Unbalanced: B without E.
        let dangling = r#"{"traceEvents":[
{"name":"solve","ph":"B","ts":1,"pid":1,"tid":0}
]}"#;
        assert!(validate_trace(dangling)
            .unwrap_err()
            .contains("never closed"));
        // E closing the wrong span name.
        let crossed = r#"{"traceEvents":[
{"name":"solve","ph":"B","ts":1,"pid":1,"tid":0},
{"name":"execute","ph":"E","ts":2,"pid":1,"tid":0}
]}"#;
        assert!(validate_trace(crossed)
            .unwrap_err()
            .contains("closes open span"));
        // Timestamps must be monotone per track.
        let backwards = r#"{"traceEvents":[
{"name":"a","ph":"i","ts":5,"pid":1,"tid":0,"s":"t"},
{"name":"b","ph":"i","ts":3,"pid":1,"tid":0,"s":"t"}
]}"#;
        assert!(validate_trace(backwards).unwrap_err().contains("backwards"));
        // An empty trace is a failure, not a vacuous pass.
        assert!(validate_trace(r#"{"traceEvents":[]}"#).is_err());
        assert!(validate_trace("not json at all").is_err());
    }
}
