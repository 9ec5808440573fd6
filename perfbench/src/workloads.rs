//! The three workloads: `kv`, `kv-ckpt` and `cf`.
//!
//! Each runs against the public API of `sdg-apps`/`sdg-runtime` under
//! `RuntimeConfig::default()` plus the workload's own listed settings. A
//! run is [`ROUNDS`] rounds, [`ROUNDS_PER_PROCESS`] to a process. A round
//! sets up
//! a fresh deployment (parse, translate, start, preload through `submit`,
//! quiesce), runs one phase of a saturated part and an open-loop part,
//! makes the workload's control calls and checks every output against a
//! sequential reference. [`combine`] merges the rounds.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdg_apps::cf::{parse_pairs, CF_SOURCE};
use sdg_apps::kv::KV_SOURCE;
use sdg_apps::workloads::{kv_requests, ratings, KvRequest, Rating};
use sdg_checkpoint::config::CheckpointConfig;
use sdg_common::codec::{decode_from_slice, encode_to_vec};
use sdg_common::error::SdgResult;
use sdg_common::obs::MetricsSnapshot;
use sdg_common::record;
use sdg_common::value::{Key, Record, Value};
use sdg_graph::model::Sdg;
use sdg_ir::parser::parse_program;
use sdg_runtime::config::RuntimeConfig;
use sdg_runtime::deploy::Deployment;
use sdg_runtime::reconfig::{ReconfigReport, ReconfigRequest};
use sdg_state::matrix::SparseMatrix;
use sdg_state::table::KeyedTable;
use sdg_translate::translate;

use crate::check::{diff_tables, kv_reference, CfModel, ValueHistory};
use crate::client::{open_loop, saturated, Ask, Clock, Drainer, PartStats, Reply, SubmitFn};
use crate::report::Metrics;
use crate::stats::{match_replies, median, percentile, Schedule};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Partitioned key/value store, checkpointing off.
    Kv,
    /// The same store and traffic with 1 s asynchronous checkpoints, an
    /// explicit checkpoint and a failure of partition 0 at the end.
    KvCkpt,
    /// Collaborative filtering: partitioned and partial matrix state.
    Cf,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] = [Workload::Kv, Workload::KvCkpt, Workload::Cf];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kv => "kv",
            Workload::KvCkpt => "kv-ckpt",
            Workload::Cf => "cf",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Run options from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (saturated plus open-loop part).
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
}

/// A failure that leaves the run unable to continue (a blocking call ran
/// out of time); the caller reports it and exits without waiting on the
/// stuck threads.
#[derive(Debug)]
pub struct Abort(pub String);

/// Everything a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: submits, control calls and checks.
    pub attempted: u64,
    /// Failed operations, one line per kind with its count.
    pub failures: Vec<(String, u64)>,
    /// Wrong outputs, one line per kind with its count.
    pub wrong: Vec<(String, u64)>,
    /// End-to-end and per-layer values.
    pub metrics: Metrics,
    /// Resolved scheduler and engine plus every non-default setting.
    pub settings: Vec<String>,
    /// Human-readable lines (sample counts, the ledger).
    pub notes: Vec<String>,
    /// Spans around the benchmark's calls into each layer:
    /// `(name, start_ns, end_ns)` on the round's clock.
    pub spans: Vec<(String, u64, u64)>,
}

impl Outcome {
    /// Total failed operations (wrong outputs included).
    pub fn failed(&self) -> u64 {
        self.failures
            .iter()
            .chain(&self.wrong)
            .map(|&(_, n)| n)
            .sum()
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// The outcome as lines, one fact each, that [`Outcome::parse`] reads
    /// back: how a round's process reports to the run.
    pub fn to_lines(&self) -> String {
        let mut s = format!("attempted {}\n", self.attempted);
        for (what, n) in &self.failures {
            s += &format!("fail {n} {what}\n");
        }
        for (what, n) in &self.wrong {
            s += &format!("wrong {n} {what}\n");
        }
        for (name, v) in self.metrics.iter() {
            s += &format!("metric {name} {v}\n");
        }
        for (name, t0, t1) in &self.spans {
            s += &format!("span {name} {t0} {t1}\n");
        }
        for line in &self.settings {
            s += &format!("setting {line}\n");
        }
        for line in &self.notes {
            s += &format!("note {line}\n");
        }
        s
    }

    /// Reads [`Outcome::to_lines`] output back.
    pub fn parse(text: &str) -> Outcome {
        let mut out = Outcome::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let (first, tail) = rest.split_once(' ').unwrap_or((rest, ""));
            match tag {
                "attempted" => out.attempted += first.parse().unwrap_or(0),
                "fail" => out.failures.push((tail.into(), first.parse().unwrap_or(1))),
                "wrong" => out.wrong.push((tail.into(), first.parse().unwrap_or(1))),
                "metric" => out.metrics.set(first, tail.parse().unwrap_or(f64::NAN)),
                "span" => {
                    let (t0, t1) = tail.split_once(' ').unwrap_or(("0", "0"));
                    let t0 = t0.parse().unwrap_or(0);
                    out.spans.push((first.into(), t0, t1.parse().unwrap_or(t0)));
                }
                "setting" => out.settings.push(rest.into()),
                "note" => out.notes.push(rest.into()),
                _ => out.fail(format!("unreadable report line: {line}"), 1),
            }
        }
        out
    }

    fn span(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        self.spans.push((name.into(), start_ns, end_ns));
    }

    fn fail(&mut self, what: impl Into<String>, n: u64) {
        if n > 0 {
            self.failures.push((one_line(what), n));
        }
    }

    fn wrong(&mut self, what: impl Into<String>, n: u64) {
        if n > 0 {
            self.wrong.push((one_line(what), n));
        }
    }
}

/// Keeps a report line on one line, as [`Outcome::parse`] needs.
pub fn one_line(text: impl Into<String>) -> String {
    text.into().replace(['\n', '\r'], " ")
}

/// Blocking calls give up after this long; a hang is a failed operation.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);
/// Processes per run. Throughput differs by several percent from one
/// process to the next and stays put within one, so a run spreads its
/// rounds over several processes.
pub const PROCESSES: u64 = 4;
/// Rounds per process.
pub const ROUNDS_PER_PROCESS: u64 = 3;
/// Rounds per run. A run reports the median over its rounds of every
/// metric in [`ROUND_MEDIANS`] and the last value set of the others.
pub const ROUNDS: u64 = PROCESSES * ROUNDS_PER_PROCESS;

/// Metrics a run reports as the median over its rounds.
pub const ROUND_MEDIANS: &[&str] = &[
    "items_per_s",
    "p50_ms",
    "setup_s",
    "peak_rss_mb",
    "ir.parse_ms",
    "translate.translate_ms",
    "runtime.deploy.start_ms",
    "runtime.deploy.preload_s",
];
/// Share of the measured seconds given to the saturated part.
const SATURATED_SHARE: f64 = 0.75;

const KV_PARTITIONS: usize = 2;
const KV_KEYS: usize = 100_000;
const KV_VALUE_BYTES: usize = 16;
const KV_READ_FRACTION: f64 = 0.1;
/// Requests per second the saturated kv part is sized for. A constant, so
/// the request count depends only on `--seconds`.
const KV_SIZING_RATE: f64 = 200_000.0;
/// Open-loop kv rate, about a third of the saturated rate.
const KV_OPEN_RATE: f64 = 100_000.0;
const KV_CKPT_INTERVAL: Duration = Duration::from_secs(10);

const CF_PARTITIONS: usize = 2;
const CF_PARTIALS: usize = 2;
const CF_USERS: usize = 10_000;
const CF_ITEMS: usize = 500;
const CF_PRELOAD: usize = 5_000;
/// One `getRec` after every this many ratings.
const CF_RATINGS_PER_REC: usize = 50;
const CF_SIZING_RATE: f64 = 8_000.0;
/// Open-loop cf rate, in ratings per second.
const CF_OPEN_RATE: f64 = 4_000.0;
/// Users whose recommendations are checked after the run.
const CF_CHECKED_USERS: i64 = 16;

/// Mixes `seed` with a part number into an independent stream seed.
fn stream_seed(seed: u64, part: u64) -> u64 {
    (seed ^ part.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Peak resident memory of this process (VmHWM), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs round `round` of `workload` and collects what it found. Per-layer
/// extras that are costly and need no repetition (the single-threaded
/// baseline, the codec costs) run in the last round only.
///
/// `peak_rss_mb` is the process's peak at the end of its first round.
/// Later rounds reuse the heap the earlier ones freed, so the process's
/// peak after them depends on the allocator's state more than on the
/// round.
pub fn run_round(workload: Workload, opts: Opts, round: u64) -> Result<Outcome, Abort> {
    let mut out = Outcome::default();
    let last = round + 1 == ROUNDS;
    match workload {
        Workload::Kv => run_kv(opts, false, round, last, &mut out)?,
        Workload::KvCkpt => run_kv(opts, true, round, last, &mut out)?,
        Workload::Cf => run_cf(opts, round, last, &mut out)?,
    }
    if round.is_multiple_of(ROUNDS_PER_PROCESS) {
        if let Some(rss) = peak_rss_mb() {
            out.metrics.set("peak_rss_mb", rss);
        }
    }
    Ok(out)
}

/// Merges the rounds of a run, given in round order. A traced run's
/// spans become notes.
pub fn combine(rounds: Vec<Outcome>, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut per_round: Vec<(String, Vec<f64>)> = Vec::new();
    for (i, round) in rounds.into_iter().enumerate() {
        out.attempted += round.attempted;
        out.failures.extend(round.failures);
        out.wrong.extend(round.wrong);
        out.settings = round.settings;
        out.notes
            .extend(round.notes.into_iter().map(|n| format!("round {i}: {n}")));
        let spans = round.spans.iter().filter(|_| traced);
        out.notes.extend(spans.map(|(name, t0, t1)| {
            format!(
                "round {i}: span {name} start {:.3} ms, took {:.3} ms",
                ms(*t0),
                ms(t1 - t0)
            )
        }));
        for (name, v) in round.metrics.iter() {
            out.metrics.set(name, v);
            match per_round.iter_mut().find(|(n, _)| n == name) {
                Some((_, vs)) => vs.push(v),
                None => per_round.push((name.to_string(), vec![v])),
            }
        }
    }
    for (name, vs) in per_round {
        if ROUND_MEDIANS.contains(&name.as_str()) {
            out.metrics.set(name.as_str(), median(&vs).unwrap_or(0.0));
            out.notes.push(format!("rounds {name}: {vs:?}"));
        }
    }
    out
}

// ---------------------------------------------------------------- set-up

/// Timings of one set-up, ns.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    parse: u64,
    translate: u64,
    start: u64,
    preload: u64,
    total: u64,
}

/// Parses and translates `source`, starts it with `config`, then runs
/// `preload` and waits for it to drain.
fn set_up(
    out: &mut Outcome,
    clock: &Clock,
    source: &str,
    config: &dyn Fn(&Sdg) -> (RuntimeConfig, Vec<String>),
    preload: &dyn Fn(&Deployment) -> (u64, u64),
) -> Result<(Arc<Deployment>, Sdg, SetupTimes), Abort> {
    let t0 = clock.now_ns();
    let prog = parse_program(source).map_err(|e| Abort(format!("parse: {e}")))?;
    let t1 = clock.now_ns();
    let sdg = translate(&prog).map_err(|e| Abort(format!("translate: {e}")))?;
    let t2 = clock.now_ns();
    let (cfg, settings) = config(&sdg);
    out.settings = settings;
    out.settings
        .insert(0, format!("scheduler={:?}", cfg.scheduler));
    out.settings.insert(1, format!("engine={:?}", cfg.engine));
    let dep = Deployment::start(sdg.clone(), cfg).map_err(|e| Abort(format!("deploy: {e}")))?;
    let t3 = clock.now_ns();
    let (ok, errors) = preload(&dep);
    out.attempted += ok + errors;
    out.fail("preload submit errors", errors);
    quiesce(&dep, out, "preload")?;
    let t4 = clock.now_ns();
    out.span("ir.parse", t0, t1);
    out.span("translate.translate", t1, t2);
    out.span("runtime.deploy.start", t2, t3);
    out.span("runtime.deploy.preload", t3, t4);
    let times = SetupTimes {
        parse: t1 - t0,
        translate: t2 - t1,
        start: t3 - t2,
        preload: t4 - t3,
        total: t4 - t0,
    };
    Ok((Arc::new(dep), sdg, times))
}

/// Records each set-up timing.
fn record_setup(out: &mut Outcome, t: SetupTimes) {
    let m = &mut out.metrics;
    m.set("setup_s", t.total as f64 / 1e9);
    m.set("ir.parse_ms", ms(t.parse));
    m.set("translate.translate_ms", ms(t.translate));
    m.set("runtime.deploy.start_ms", ms(t.start));
    m.set("runtime.deploy.preload_s", t.preload as f64 / 1e9);
}

/// Runs `request` on a helper thread and gives up after [`CALL_TIMEOUT`].
fn reconfigure(
    dep: &Arc<Deployment>,
    request: ReconfigRequest,
) -> Result<SdgResult<ReconfigReport>, Abort> {
    let (tx, rx) = mpsc::channel();
    let d = Arc::clone(dep);
    let handle = std::thread::spawn(move || {
        let _ = tx.send(d.reconfigure(request));
    });
    match rx.recv_timeout(CALL_TIMEOUT) {
        Ok(res) => {
            handle.join().expect("reconfigure thread panicked");
            Ok(res)
        }
        Err(_) => Err(Abort(format!(
            "{} did not return within {CALL_TIMEOUT:?}",
            request.kind()
        ))),
    }
}

fn quiesce(dep: &Deployment, out: &mut Outcome, what: &str) -> Result<(), Abort> {
    out.attempted += 1;
    if dep.quiesce(CALL_TIMEOUT) {
        Ok(())
    } else {
        Err(Abort(format!("{what}: quiesce timed out")))
    }
}

fn shutdown(dep: Arc<Deployment>) {
    // The drainer and control threads have been joined, so this is the
    // last handle.
    if let Ok(dep) = Arc::try_unwrap(dep) {
        dep.shutdown();
    }
}

// ------------------------------------------------------------- the phase

/// Client-side results of the saturated and open-loop parts.
struct Phase {
    sat: PartStats,
    open: PartStats,
    quiesce_ns: u64,
    /// Snapshots around the saturated part (traced runs).
    before_sat: Option<MetricsSnapshot>,
    after_sat: Option<MetricsSnapshot>,
}

/// One round's traffic: the saturated part's requests, and the open-loop
/// part's requests with their rate.
struct Parts<'a, R> {
    sat: &'a [R],
    open: &'a [R],
    open_rate: f64,
}

fn run_phase<R>(
    dep: &Deployment,
    clock: &Clock,
    opts: Opts,
    out: &mut Outcome,
    parts: Parts<'_, R>,
    submit: SubmitFn<'_, R>,
) -> Result<Phase, Abort> {
    let before_sat = opts.traced.then(|| {
        dep.reset_observations();
        dep.metrics()
    });
    let mut quiesce_at = (0, 0);
    let sat_start = clock.now_ns();
    let (sat, drained) = saturated(dep, clock, parts.sat, submit, opts.traced, || {
        let q0 = clock.now_ns();
        let ok = dep.quiesce(CALL_TIMEOUT);
        quiesce_at = (q0, clock.now_ns());
        ok
    });
    let quiesce_ns = quiesce_at.1 - quiesce_at.0;
    out.span("client.saturated", sat_start, sat_start + sat.window_ns);
    out.span("runtime.deploy.quiesce", quiesce_at.0, quiesce_at.1);
    out.attempted += sat.submitted + sat.errors + 1;
    out.fail("saturated submit errors", sat.errors);
    if !drained {
        return Err(Abort("saturated part: quiesce timed out".into()));
    }
    let after_sat = opts.traced.then(|| dep.metrics());
    let open_start = clock.now_ns();
    let schedule = Schedule::new(parts.open_rate);
    let open = open_loop(dep, clock, parts.open, schedule, submit, opts.traced);
    out.attempted += open.submitted + open.errors;
    out.fail("open-loop submit errors", open.errors);
    quiesce(dep, out, "open-loop part")?;
    out.span("client.open_loop", open_start, clock.now_ns());
    Ok(Phase {
        sat,
        open,
        quiesce_ns,
        before_sat,
        after_sat,
    })
}

/// Checks that every ask got exactly one reply (replays the runtime marks
/// as such aside) and records the round's rate and latency metrics.
fn account_replies(out: &mut Outcome, phase: &Phase, extra_asks: &[Ask], replies: &[Reply]) {
    let fresh: Vec<(u64, u64)> = replies
        .iter()
        .filter(|r| !r.replayed)
        .map(|r| (r.corr, r.recv_ns))
        .collect();
    let replayed = replies.len() - fresh.len();
    let all_asks: Vec<(u64, u64)> = phase
        .sat
        .asks
        .iter()
        .chain(&phase.open.asks)
        .chain(extra_asks)
        .map(|a| (a.corr, a.t_ns))
        .collect();
    let all = match_replies(&all_asks, &fresh);
    out.attempted += all_asks.len() as u64;
    out.fail("missing replies", all.missing);
    out.fail("duplicate replies", all.duplicates);
    out.fail("unexpected replies", all.unexpected);
    out.wrong(
        "malformed replies",
        replies.iter().filter(|r| r.malformed).count() as u64,
    );

    let open_asks: Vec<(u64, u64)> = phase.open.asks.iter().map(|a| (a.corr, a.t_ns)).collect();
    let open = match_replies(&open_asks, &fresh);
    let lat = &open.latencies_ns;
    out.metrics
        .set("client.p99_ms", percentile(lat, 0.99).map_or(0.0, ms));
    out.metrics.set("client.latency_samples", lat.len() as f64);
    let mut late = phase.open.late_ns.clone();
    late.sort_unstable();
    out.metrics
        .set("client.late_ms_p50", percentile(&late, 0.5).map_or(0.0, ms));
    out.metrics
        .set("client.late_ms_max", late.last().copied().map_or(0.0, ms));
    out.metrics
        .set("checkpoint.replayed_replies", replayed as f64);
    out.notes.push(format!(
        "open-loop replies: {} samples, p50 {:.4} ms, p99 {:.4} ms; generator late p50 {:.4} ms, max {:.3} ms",
        lat.len(),
        percentile(lat, 0.5).map_or(0.0, ms),
        percentile(lat, 0.99).map_or(0.0, ms),
        percentile(&late, 0.5).map_or(0.0, ms),
        late.last().copied().map_or(0.0, ms),
    ));
    let items_per_s = phase.sat.submitted as f64 / (phase.sat.window_ns as f64 / 1e9);
    out.metrics.set("items_per_s", items_per_s);
    out.metrics
        .set("p50_ms", percentile(lat, 0.5).map_or(0.0, ms));
}

/// Per-layer metrics read from the runtime's own snapshots, the client's
/// submit timings, and the ledger.
fn layer_metrics(out: &mut Outcome, clock: &Clock, phase: &Phase, last: &MetricsSnapshot) {
    let m = &mut out.metrics;
    let (Some(before), Some(after)) = (&phase.before_sat, &phase.after_sat) else {
        return;
    };
    let sat_items = phase.sat.submitted.max(1) as f64;
    // Tasks are reported by their source name; replicas are summed.
    let mut worker_ns = 0.0;
    for t in &after.tasks {
        let prior = before.task(&t.name).map_or(0, |b| b.processed);
        let done = t.processed.saturating_sub(prior);
        worker_ns += t.service.mean * done as f64;
        m.set(
            format!("runtime.worker.service_us_p50.{}", t.name),
            t.service.p50 as f64 / 1e3,
        );
    }
    for t in &last.tasks {
        m.set(
            format!("runtime.worker.processed.{}", t.name),
            t.processed as f64,
        );
        let service = after.task(&t.name).map_or(0, |a| a.service.p50);
        out.notes.push(format!(
            "task {}: service p50 {:.3} us (saturated part), {} processed",
            t.name,
            service as f64 / 1e3,
            t.processed
        ));
    }
    m.set("runtime.sched.polls", last.sched.polls as f64);
    m.set("runtime.sched.steals", last.sched.steals as f64);
    m.set("runtime.sched.parks", last.sched.parks as f64);
    for s in &last.states {
        m.set(format!("state.bytes.{}", s.name), s.bytes as f64);
        out.notes
            .push(format!("state {}: {} bytes", s.name, s.bytes));
    }
    let ck = &last.checkpoints;
    m.set("checkpoint.taken", ck.taken as f64);
    m.set("checkpoint.bytes", ck.bytes as f64);
    m.set("checkpoint.snapshot_ms_p50", ms(ck.snapshot.p50));
    m.set("checkpoint.persist_ms_p50", ms(ck.persist.p50));

    let mut submit_ns = phase.open.submit_ns.clone();
    submit_ns.sort_unstable();
    m.set(
        "runtime.deploy.submit_us_p50",
        percentile(&submit_ns, 0.5).map_or(0.0, |v| v as f64 / 1e3),
    );
    let busy_frac = phase.sat.busy_ns as f64 / phase.sat.window_ns.max(1) as f64;
    m.set("runtime.deploy.submit_busy_frac", busy_frac);
    m.set("runtime.deploy.quiesce_ms", ms(phase.quiesce_ns));
    // The ledger: wall ns per item of the saturated part against the sum
    // of what the layers spent per item. Workers and the client run in
    // parallel, so the sum can exceed the wall time (negative residue).
    let e2e = phase.sat.window_ns as f64 / sat_items;
    // Tracing adds two clock reads per submit to the submitting thread.
    m.set("trace.overhead_frac", 2.0 * clock.read_cost_ns() / e2e);
    let client = busy_frac * e2e;
    let worker = worker_ns / sat_items;
    let ckpt_window = after.checkpoints.snapshot.mean * after.checkpoints.snapshot.count as f64
        + after.checkpoints.persist.mean * after.checkpoints.persist.count as f64;
    let ckpt = ckpt_window / sat_items;
    let layers = client + worker + ckpt;
    m.set("ledger.e2e_ns_per_item", e2e);
    m.set("ledger.layers_ns_per_item", layers);
    m.set("ledger.residue_ns_per_item", e2e - layers);
    out.notes.push(format!(
        "ledger (saturated part, ns/item): e2e {e2e:.1} = client submit {client:.1} + worker service {worker:.1} + checkpoint {ckpt:.1} + residue {:.1}",
        e2e - layers
    ));
}

/// Encodes and decodes `records` with the wire codec; ns per record.
fn codec_costs(out: &mut Outcome, records: &[Record]) {
    let t0 = Instant::now();
    let bytes: Vec<Vec<u8>> = records.iter().map(encode_to_vec).collect();
    let enc = t0.elapsed().as_nanos() as f64;
    let t1 = Instant::now();
    let mut bad = 0u64;
    for (b, r) in bytes.iter().zip(records) {
        match decode_from_slice::<Record>(b) {
            Ok(d) if &d == r => {}
            _ => bad += 1,
        }
    }
    let dec = t1.elapsed().as_nanos() as f64;
    out.attempted += records.len() as u64;
    out.wrong("codec round trips", bad);
    let n = records.len().max(1) as f64;
    out.metrics.set("common.codec.encode_ns_per_item", enc / n);
    out.metrics.set("common.codec.decode_ns_per_item", dec / n);
}

/// Requests per round of the saturated part at `sizing_rate`, and of the
/// open-loop part at `open_rate`, for a run of `seconds`.
fn part_sizes(seconds: u64, sizing_rate: f64, open_rate: f64) -> (usize, usize) {
    let s = seconds as f64 / ROUNDS as f64;
    let sat = (s * SATURATED_SHARE * sizing_rate).ceil() as usize;
    let open = Schedule::new(open_rate).count_within(s * (1.0 - SATURATED_SHARE)) as usize;
    (sat.max(1), open.max(1))
}

// -------------------------------------------------------------------- kv

fn kv_submit(dep: &Deployment, r: &KvRequest) -> (SdgResult<u64>, Option<i64>) {
    match r {
        KvRequest::Put { .. } => (dep.submit("put", kv_record(r)), None),
        KvRequest::Get { key } => (dep.submit("get", kv_record(r)), Some(*key)),
    }
}

fn kv_record(r: &KvRequest) -> Record {
    match r {
        KvRequest::Put { key, value } => {
            record! {"k" => Value::Int(*key), "v" => Value::str(value)}
        }
        KvRequest::Get { key } => record! {"k" => Value::Int(*key)},
    }
}

/// One round's inputs: the preload and the two parts' streams.
struct KvInputs {
    preload: Vec<KvRequest>,
    sat: Vec<KvRequest>,
    open: Vec<KvRequest>,
}

impl KvInputs {
    fn new(opts: Opts, round: u64) -> Self {
        let (n_sat, n_open) = part_sizes(opts.seconds, KV_SIZING_RATE, KV_OPEN_RATE);
        let seed = |part| stream_seed(opts.seed, round * 8 + part);
        // Preload: every key once, so gets never miss.
        let preload = kv_requests(KV_KEYS, KV_KEYS, KV_VALUE_BYTES, 0.0, seed(0))
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                KvRequest::Put { value, .. } => KvRequest::Put {
                    key: i as i64,
                    value,
                },
                get => get,
            })
            .collect();
        let stream =
            |n, part| kv_requests(n, KV_KEYS, KV_VALUE_BYTES, KV_READ_FRACTION, seed(part));
        KvInputs {
            preload,
            sat: stream(n_sat, 1),
            open: stream(n_open, 2),
        }
    }

    fn all(&self) -> impl Iterator<Item = &KvRequest> {
        self.preload.iter().chain(&self.sat).chain(&self.open)
    }
}

fn run_kv(opts: Opts, ckpt: bool, round: u64, last: bool, out: &mut Outcome) -> Result<(), Abort> {
    let clock = Clock::new();
    let input = KvInputs::new(opts, round);
    kv_round(opts, ckpt, &clock, &input, last, out)?;
    if !(opts.traced && last) {
        return Ok(());
    }
    // Single-threaded baseline: the saturated stream on a bare table.
    let mut table = KeyedTable::new();
    for r in &input.preload {
        if let KvRequest::Put { key, value } = r {
            table.put(Key::Int(*key), Value::str(value));
        }
    }
    let t0 = Instant::now();
    for r in &input.sat {
        match r {
            KvRequest::Put { key, value } => {
                table.put(Key::Int(*key), Value::str(value));
            }
            KvRequest::Get { key } => {
                std::hint::black_box(table.get(&Key::Int(*key)));
            }
        }
    }
    let seq = input.sat.len() as f64 / t0.elapsed().as_secs_f64();
    out.metrics.set("state.seq_items_per_s", seq);
    let records: Vec<Record> = input.sat.iter().take(100_000).map(kv_record).collect();
    codec_costs(out, &records);
    Ok(())
}

/// One kv round: set up, run the phase, (kv-ckpt) checkpoint and fail
/// partition 0, then check the table and every reply.
fn kv_round(
    opts: Opts,
    ckpt: bool,
    clock: &Clock,
    input: &KvInputs,
    last: bool,
    out: &mut Outcome,
) -> Result<(), Abort> {
    let config = |sdg: &Sdg| {
        let mut cfg = RuntimeConfig::default();
        let kv = sdg.state_by_name("kv").expect("kv program declares kv").id;
        cfg.se_instances.insert(kv, KV_PARTITIONS);
        let mut settings = vec![format!("se_instances.kv={KV_PARTITIONS}")];
        if ckpt {
            cfg.checkpoint = CheckpointConfig {
                interval: KV_CKPT_INTERVAL,
                ..CheckpointConfig::default()
            };
            settings.push("checkpoint.enabled=true".into());
            settings.push(format!("checkpoint.interval={KV_CKPT_INTERVAL:?}"));
        }
        (cfg, settings)
    };
    let load = |dep: &Deployment| {
        let (mut ok, mut err) = (0, 0);
        for r in &input.preload {
            match kv_submit(dep, r).0 {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
        (ok, err)
    };
    let (dep, sdg, times) = set_up(out, clock, KV_SOURCE, &config, &load)?;
    record_setup(out, times);
    let kv = sdg.state_by_name("kv").expect("kv program declares kv").id;

    let drainer = Drainer::start(Arc::clone(&dep), *clock, true, |v| {
        matches!(v, Value::Str(_))
    });
    let parts = Parts {
        sat: &input.sat,
        open: &input.open,
        open_rate: KV_OPEN_RATE,
    };
    let phase = run_phase(&dep, clock, opts, out, parts, &kv_submit)?;
    let after_phase = opts.traced.then(|| dep.metrics());

    if ckpt {
        out.attempted += 2;
        let t0 = clock.now_ns();
        let explicit = reconfigure(&dep, ReconfigRequest::Checkpoint)?;
        let t1 = clock.now_ns();
        out.span("checkpoint.explicit", t0, t1);
        out.metrics.set("checkpoint.explicit_ms", ms(t1 - t0));
        if let Err(e) = explicit {
            out.fail(format!("explicit checkpoint: {e}"), 1);
        }
        let buffered = dep.metrics().checkpoints.buffered_bytes;
        out.metrics
            .set("checkpoint.buffered_bytes", buffered as f64);
        let t0 = clock.now_ns();
        let failure = ReconfigRequest::FailAndRecover {
            state: kv,
            replica: 0,
        };
        let recovered = reconfigure(&dep, failure)?;
        let t1 = clock.now_ns();
        out.span("checkpoint.recovery", t0, t1);
        let recovery_ns = t1 - t0;
        out.metrics.set("checkpoint.recovery_ms", ms(recovery_ns));
        match recovered {
            Ok(report) => {
                let restore_ms = report.restore.as_secs_f64() * 1e3;
                out.metrics.set("checkpoint.restore_ms", restore_ms);
                out.metrics
                    .set("checkpoint.replayed_items", report.replayed as f64);
                out.notes.push(format!(
                    "recovery_ms {:.3} ms (restore {restore_ms:.3} ms, {} items replayed); {buffered} bytes buffered after the explicit checkpoint",
                    ms(recovery_ns),
                    report.replayed
                ));
            }
            Err(e) => out.fail(format!("fail-and-recover: {e}"), 1),
        }
        quiesce(&dep, out, "after recovery")?;
    }
    let replies = drainer.finish();
    let final_snapshot = dep.metrics();

    // The final table equals a sequential replay (after the recovery too,
    // so kv-ckpt checks exactly-once), and every get read a value its key
    // held at some point.
    let want: HashMap<Key, Value> = kv_reference(input.all())
        .into_iter()
        .map(|(k, v)| (Key::Int(k), Value::str(v)))
        .collect();
    let mut got: HashMap<Key, Value> = HashMap::with_capacity(want.len());
    for replica in 0..KV_PARTITIONS as u32 {
        out.attempted += 1;
        let read = dep.with_state(kv, replica, |store| {
            store.as_table().map(|t| {
                t.for_each(|k, v| {
                    got.insert(k.clone(), v.clone());
                })
            })
        });
        if !matches!(read, Ok(Ok(()))) {
            out.fail(format!("reading partition {replica}"), 1);
        }
    }
    shutdown(dep);
    let diff = diff_tables(&got, &want);
    out.wrong("table keys missing", diff.missing);
    out.wrong("table keys extra", diff.extra);
    out.wrong("table values differing", diff.differing);
    let history = ValueHistory::from_requests(input.all());
    let keys: HashMap<u64, i64> = phase
        .sat
        .asks
        .iter()
        .chain(&phase.open.asks)
        .map(|a| (a.corr, a.tag))
        .collect();
    let bad_reads = replies
        .iter()
        .filter(|r| !r.replayed)
        .filter(|r| match (keys.get(&r.corr), &r.value) {
            (Some(&key), Some(Value::Str(s))) => !history.allows(key, s),
            _ => false,
        })
        .count();
    out.wrong(
        "get replies with a value the key never held",
        bad_reads as u64,
    );
    account_replies(out, &phase, &[], &replies);
    if opts.traced && last {
        layer_metrics(
            out,
            clock,
            &phase,
            after_phase.as_ref().unwrap_or(&final_snapshot),
        );
        if ckpt {
            // Checkpoint counters as of the end of the round.
            let ck = &final_snapshot.checkpoints;
            out.metrics.set("checkpoint.taken", ck.taken as f64);
            out.metrics.set("checkpoint.bytes", ck.bytes as f64);
            out.metrics
                .set("checkpoint.snapshot_ms_p50", ms(ck.snapshot.p50));
            out.metrics
                .set("checkpoint.persist_ms_p50", ms(ck.persist.p50));
        }
    }
    Ok(())
}

// -------------------------------------------------------------------- cf

/// One cf request.
#[derive(Debug, Clone, Copy)]
enum CfOp {
    Rate(Rating),
    Rec(i64),
}

fn rating_record(r: &Rating) -> Record {
    record! {
        "user" => Value::Int(r.user),
        "item" => Value::Int(r.item),
        "rating" => Value::Int(r.rating),
    }
}

fn cf_submit(dep: &Deployment, op: &CfOp) -> (SdgResult<u64>, Option<i64>) {
    match op {
        CfOp::Rate(r) => (dep.submit("addRating", rating_record(r)), None),
        CfOp::Rec(user) => (
            dep.submit("getRec", record! {"user" => Value::Int(*user)}),
            Some(*user),
        ),
    }
}

/// Interleaves one `getRec` (for the user who just rated) after every
/// [`CF_RATINGS_PER_REC`] ratings.
fn cf_ops(ratings: &[Rating]) -> Vec<CfOp> {
    let mut ops = Vec::with_capacity(ratings.len() + ratings.len() / CF_RATINGS_PER_REC);
    for (i, r) in ratings.iter().enumerate() {
        ops.push(CfOp::Rate(*r));
        if (i + 1) % CF_RATINGS_PER_REC == 0 {
            ops.push(CfOp::Rec(r.user));
        }
    }
    ops
}

/// One round's ratings: the preload and the two parts' request streams.
struct CfInputs {
    all: Vec<Rating>,
    sat: Vec<CfOp>,
    open: Vec<CfOp>,
}

impl CfInputs {
    fn new(opts: Opts, round: u64) -> Self {
        let (n_sat, n_open) = part_sizes(opts.seconds, CF_SIZING_RATE, CF_OPEN_RATE);
        let seed = stream_seed(opts.seed, round * 8 + 3);
        let all = ratings(CF_PRELOAD + n_sat + n_open, CF_USERS, CF_ITEMS, seed);
        let sat = cf_ops(&all[CF_PRELOAD..CF_PRELOAD + n_sat]);
        let open = cf_ops(&all[CF_PRELOAD + n_sat..]);
        CfInputs { all, sat, open }
    }

    fn preload(&self) -> &[Rating] {
        &self.all[..CF_PRELOAD]
    }
}

fn run_cf(opts: Opts, round: u64, last: bool, out: &mut Outcome) -> Result<(), Abort> {
    let clock = Clock::new();
    let input = CfInputs::new(opts, round);
    cf_round(opts, &clock, &input, last, out)?;
    if !(opts.traced && last) {
        return Ok(());
    }
    // Single-threaded baseline: the saturated stream on bare matrices.
    let mut user_item = SparseMatrix::new();
    let mut co_occ = SparseMatrix::new();
    let mut apply = |op: &CfOp| match op {
        CfOp::Rate(r) => {
            user_item.set(r.user, r.item, r.rating as f64);
            for (c, v) in user_item.row(r.user) {
                if v > 0.0 {
                    co_occ.add(r.item, c, 1.0);
                    co_occ.add(c, r.item, 1.0);
                }
            }
        }
        CfOp::Rec(u) => {
            std::hint::black_box(co_occ.multiply(&user_item.row(*u)));
        }
    };
    for r in input.preload() {
        apply(&CfOp::Rate(*r));
    }
    let t0 = Instant::now();
    for op in &input.sat {
        apply(op);
    }
    let seq = input.sat.len() as f64 / t0.elapsed().as_secs_f64();
    out.metrics.set("state.seq_items_per_s", seq);
    let records: Vec<Record> = input.all.iter().map(rating_record).collect();
    codec_costs(out, &records);
    Ok(())
}

/// One cf round: set up, run the phase, then check recommendations for a
/// fixed user set against the sequential model, and every reply.
fn cf_round(
    opts: Opts,
    clock: &Clock,
    input: &CfInputs,
    last: bool,
    out: &mut Outcome,
) -> Result<(), Abort> {
    let config = |sdg: &Sdg| {
        let mut cfg = RuntimeConfig::default();
        let user_item = sdg
            .state_by_name("userItem")
            .expect("cf declares userItem")
            .id;
        let co_occ = sdg.state_by_name("coOcc").expect("cf declares coOcc").id;
        cfg.se_instances.insert(user_item, CF_PARTITIONS);
        cfg.se_instances.insert(co_occ, CF_PARTIALS);
        let settings = vec![
            format!("se_instances.userItem={CF_PARTITIONS}"),
            format!("se_instances.coOcc={CF_PARTIALS}"),
        ];
        (cfg, settings)
    };
    let load = |dep: &Deployment| {
        let (mut ok, mut err) = (0, 0);
        for r in input.preload() {
            match dep.submit("addRating", rating_record(r)) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
        (ok, err)
    };
    let (dep, _sdg, times) = set_up(out, clock, CF_SOURCE, &config, &load)?;
    record_setup(out, times);

    let drainer = Drainer::start(Arc::clone(&dep), *clock, false, |v| parse_pairs(v).is_ok());
    let open_rate = CF_OPEN_RATE * (CF_RATINGS_PER_REC + 1) as f64 / CF_RATINGS_PER_REC as f64;
    let parts = Parts {
        sat: &input.sat,
        open: &input.open,
        open_rate,
    };
    let phase = run_phase(&dep, clock, opts, out, parts, &cf_submit)?;
    let after_phase = opts.traced.then(|| dep.metrics());

    // Post-quiesce recommendations for a fixed user set.
    drainer.keep_values(true);
    let mut checks = Vec::new();
    for user in 0..CF_CHECKED_USERS {
        out.attempted += 1;
        match cf_submit(&dep, &CfOp::Rec(user)).0 {
            Ok(corr) => checks.push(Ask {
                corr,
                t_ns: clock.now_ns(),
                tag: user,
            }),
            Err(_) => out.fail("check submit errors", 1),
        }
    }
    quiesce(&dep, out, "recommendation check")?;
    let replies = drainer.finish();
    let final_snapshot = dep.metrics();
    shutdown(dep);

    let mut model = CfModel::new();
    for r in &input.all {
        model.add_rating(*r);
    }
    let by_corr: HashMap<u64, &Reply> = replies.iter().map(|r| (r.corr, r)).collect();
    let wrong_recs = checks
        .iter()
        .filter(|ask| {
            let got = by_corr
                .get(&ask.corr)
                .and_then(|r| r.value.as_ref())
                .and_then(|v| parse_pairs(v).ok());
            got != Some(model.recommend(ask.tag))
        })
        .count();
    out.wrong(
        "recommendations differing from the reference",
        wrong_recs as u64,
    );
    account_replies(out, &phase, &checks, &replies);
    if opts.traced && last {
        layer_metrics(
            out,
            clock,
            &phase,
            after_phase.as_ref().unwrap_or(&final_snapshot),
        );
    }
    Ok(())
}
