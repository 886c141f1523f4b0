//! The lockbind benchmark: runs one named workload at a seed, checks the
//! program's outputs, and reports end-to-end metrics (untraced runs) or
//! per-layer metrics (traced runs).
//!
//! Workloads:
//!
//! * [`grid`] — the full headline grid on a fresh engine per pass,
//! * [`attack`] — the oracle-guided SAT attack on a fixed lock set,
//! * [`serve`] — closed-loop traffic against the daemon with a durable
//!   cache, across one restart.
//!
//! Every metric a run reports is named in [`END_TO_END`] or
//! [`PER_LAYER`]; `BENCHMARK.json` lists the same names (a test checks).

#![forbid(unsafe_code)]

pub mod attack;
pub mod grid;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use lockbind_obs::MetricsSnapshot;

use crate::trace::{layer_times, Span, BENCH_LAYER};

/// End-to-end metrics every workload reports from untraced runs.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("pass_s", "s")];

/// Per-layer metrics every workload reports from traced runs. A layer a
/// workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("mediabench.busy_ms", "ms"),
    ("mediabench.self_ms", "ms"),
    ("hls.busy_ms", "ms"),
    ("hls.self_ms", "ms"),
    ("core.busy_ms", "ms"),
    ("core.self_ms", "ms"),
    ("locking.busy_ms", "ms"),
    ("locking.self_ms", "ms"),
    ("netlist.busy_ms", "ms"),
    ("netlist.self_ms", "ms"),
    ("attacks.busy_ms", "ms"),
    ("attacks.self_ms", "ms"),
    ("serve.busy_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("durable.busy_ms", "ms"),
    ("durable.self_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_pct", "%"),
    ("hls.prepare_ms", "ms"),
    ("hls.class_context_ms", "ms"),
    ("hls.schedules", "count"),
    ("core.error_cell_ms", "ms"),
    ("core.combos_evaluated", "count"),
    ("core.combos_pruned", "count"),
    ("core.prune_ratio", "ratio"),
    ("core.sweep_update_us", "us"),
    ("core.sweep_solve_us", "us"),
    ("core.sweep_bound_us", "us"),
    ("core.sweep_updates", "count"),
    ("core.sweep_solves", "count"),
    ("core.sweep_bounds", "count"),
    ("core.locked_sim_ms", "ms"),
    ("locked_sim.frames", "count"),
    ("matching.warm_solves", "count"),
    ("matching.cold_solves", "count"),
    ("matching.augment_steps", "count"),
    ("matching.reaugment_ratio", "ratio"),
    ("locking.build_ms", "ms"),
    ("netlist.encode_us", "us"),
    ("netlist.cnf_clauses", "count"),
    ("netlist.eval_us", "us"),
    ("attacks.dips", "count"),
    ("attacks.dip_ms", "ms"),
    ("sat.propagations", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.props_per_dip", "count"),
    ("sat.conflicts_per_dip", "count"),
    ("sat.blocker_hit_rate", "ratio"),
    ("sat.props_per_s", "1/s"),
    ("engine.cache_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.miss_share", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.frame_rw_us", "us"),
    ("durable.append_us", "us"),
    ("durable.get_us", "us"),
    ("durable.recovery_ms", "ms"),
    ("durable.appends", "count"),
    ("durable.persisted_hits", "count"),
    ("grid_cell_p99_ms", "ms"),
    ("attack_dip_s", "s"),
    ("attack_search_s", "s"),
    ("serve_rps", "req/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
];

/// Minimum timed passes per run.
pub const MIN_PASSES: usize = 3;

/// Paces a run's passes: always starts the first `min`, then another only
/// while one as long as the previous still ends within the budget, so a
/// run ends close to its budget instead of overrunning it by a pass.
pub struct Pacer {
    started: Instant,
    budget: Duration,
    min: usize,
    done: usize,
    mark: Duration,
    last: Duration,
}

impl Pacer {
    /// A pacer for `budget`, starting now.
    pub fn new(budget: Duration, min: usize) -> Self {
        Pacer {
            started: Instant::now(),
            budget,
            min,
            done: 0,
            mark: Duration::ZERO,
            last: Duration::ZERO,
        }
    }

    /// Whether to start the next pass; call once before each.
    pub fn another(&mut self) -> bool {
        let now = self.started.elapsed();
        if self.done > 0 {
            self.last = now - self.mark;
        }
        self.mark = now;
        let go = self.done < self.min || now + self.last <= self.budget;
        self.done += usize::from(go);
        go
    }
}

/// Whether each pass of one pacing step is traced: an untraced run makes
/// one untraced pass; a traced run makes an untraced and a traced pass,
/// alternating which goes first so that neither always follows the other.
pub fn pass_modes(trace: bool, step: usize) -> &'static [bool] {
    match (trace, step % 2) {
        (false, _) => &[false],
        (true, 0) => &[false, true],
        (true, _) => &[true, false],
    }
}

/// Set-up repetitions before each pass; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;

/// The held-out seed: kept out of tuning, for confirming a later claim.
pub const HELD_OUT_SEED: u64 = 20_211_205;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The headline grid.
    Grid,
    /// The SAT attack on a fixed lock set.
    Attack,
    /// Closed-loop daemon traffic across a restart.
    Serve,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 3] = [Workload::Grid, Workload::Attack, Workload::Serve];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Attack => "attack",
            Workload::Serve => "serve",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Engine workers, daemon workers and client connections.
    pub workers: usize,
    /// Directory holding the committed goldens (`results/`).
    pub results_dir: PathBuf,
    /// Directory for spans, work counts and scratch stores.
    pub out_dir: PathBuf,
}

impl Args {
    /// Settings for `workload` at `seed`, otherwise the defaults.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Args {
            workload,
            seed,
            seconds: 10.0,
            trace: false,
            workers: 2,
            results_dir: PathBuf::from("results"),
            out_dir: PathBuf::from(".bench_build/perfbench-out"),
        }
    }

    /// The measured time as a [`Duration`].
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, lock attacks, requests).
    pub attempted: u64,
    /// Operations that failed, timed out or were lost.
    pub failed: u64,
    /// Correctness failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines (sample counts, per-lock detail).
    pub notes: Vec<String>,
    /// Deterministic work counts of one pass.
    pub counts: BTreeMap<String, u64>,
    /// Spans of the traced passes.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a correctness failure (once, however often it recurs).
    pub fn problem(&mut self, message: impl Into<String>) {
        let message = message.into();
        if !self.problems.contains(&message) {
            self.problems.push(message);
        }
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Per-layer busy/self time and `unattributed_ms` from the recorded
    /// spans, each divided by `passes` traced passes. Only layers the
    /// benchmark calls into directly have spans; `matching`, `sat` and
    /// `engine` are reached through other layers and are measured by
    /// their work counts.
    pub fn set_layer_times(&mut self, passes: usize) {
        let per_pass = |ns: u64| ns as f64 / 1e6 / passes.max(1) as f64;
        let times = layer_times(&self.spans);
        for (layer, busy, own) in [
            ("mediabench", "mediabench.busy_ms", "mediabench.self_ms"),
            ("hls", "hls.busy_ms", "hls.self_ms"),
            ("core", "core.busy_ms", "core.self_ms"),
            ("locking", "locking.busy_ms", "locking.self_ms"),
            ("netlist", "netlist.busy_ms", "netlist.self_ms"),
            ("attacks", "attacks.busy_ms", "attacks.self_ms"),
            ("serve", "serve.busy_ms", "serve.self_ms"),
            ("durable", "durable.busy_ms", "durable.self_ms"),
        ] {
            let t = times.get(layer).copied().unwrap_or_default();
            self.set(busy, per_pass(t.busy_ns));
            self.set(own, per_pass(t.self_ns));
        }
        let bench = times.get(BENCH_LAYER).copied().unwrap_or_default();
        self.set("unattributed_ms", per_pass(bench.self_ns));
        for (layer, t) in &times {
            self.note(format!(
                "layer {layer:<10} busy {:>10.3} ms  self {:>10.3} ms  spans {:>6}  (per traced pass)",
                per_pass(t.busy_ns),
                per_pass(t.self_ns),
                t.spans / passes.max(1) as u64
            ));
        }
    }

    /// The tracing overhead: the median over adjacent (untraced, traced)
    /// pass pairs of the traced pass's excess time, as a percentage.
    /// Pairing cancels machine-speed drift between pairs.
    pub fn set_overhead(&mut self, untraced: &[f64], traced: &[f64]) {
        let excess: Vec<f64> = untraced
            .iter()
            .zip(traced)
            .map(|(u, t)| 100.0 * stats::ratio(t - u, *u))
            .collect();
        let pct = stats::median(&excess);
        self.set("trace_overhead_pct", pct);
        self.note(format!(
            "tracing overhead {pct:+.2}% (median over {} pass pairs; median pass {:.4} s traced, {:.4} s untraced)",
            excess.len(),
            stats::median(traced),
            stats::median(untraced)
        ));
    }

    /// Mean duration in `unit_ns` units of the spans named `name`, and
    /// how many there were.
    pub fn span_mean(&self, name: &str, unit_ns: f64) -> (f64, usize) {
        let durs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / unit_ns)
            .collect();
        (
            stats::ratio(durs.iter().sum(), durs.len() as f64),
            durs.len(),
        )
    }

    /// Sets the matching/core/hls per-layer counts read off an obs delta
    /// of one pass.
    pub fn set_obs_layer_counts(&mut self, delta: &MetricsSnapshot) {
        let c = |name: &str| delta.counters.get(name).copied().unwrap_or(0) as f64;
        self.set("hls.schedules", c("hls.schedules"));
        self.set("core.combos_evaluated", c("codesign.combos_evaluated"));
        self.set("core.combos_pruned", c("codesign.combos_pruned"));
        self.set(
            "core.prune_ratio",
            stats::ratio(
                c("codesign.combos_pruned"),
                c("codesign.combos_pruned") + c("codesign.combos_evaluated"),
            ),
        );
        self.set("locked_sim.frames", c("locked_sim.frames"));
        self.set("matching.warm_solves", c("matching.warm_solves"));
        self.set("matching.cold_solves", c("matching.solves"));
        self.set("matching.augment_steps", c("matching.augment_steps"));
        self.set(
            "matching.reaugment_ratio",
            stats::ratio(
                c("matching.warm_rows_reaugmented"),
                c("matching.warm_rows_total"),
            ),
        );
        self.set("serve.coalesced", c("serve.coalesced"));
    }
}

/// Runs one workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = match args.workload {
        Workload::Grid => grid::run(args),
        Workload::Attack => attack::run(args),
        Workload::Serve => serve::run(args),
    };
    out.set("peak_rss_mb", peak_rss_mib());
    out
}

/// The counters of an obs delta as work counts (`obs.<name>`).
pub fn obs_counts(delta: &MetricsSnapshot) -> BTreeMap<String, u64> {
    delta
        .counters
        .iter()
        .map(|(name, &v)| (format!("obs.{name}"), v))
        .collect()
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// 64-bit FNV-1a digest of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// SplitMix64 step: the benchmark's input generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Set-up timings sampled across a run: [`SETUP_REPEATS`] repetitions
/// before every pass, so that their median spans the machine's states over
/// the whole run rather than one instant of it.
#[derive(Debug, Default)]
pub struct SetupSamples(Vec<f64>);

impl SetupSamples {
    /// Runs `setup` [`SETUP_REPEATS`] times, timing each, and returns the
    /// last result.
    pub fn sample<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            let (value, secs) = timed(&mut setup);
            self.0.push(secs);
            last = Some(value);
        }
        last.expect("SETUP_REPEATS is positive")
    }

    /// The median of every sample so far.
    pub fn median(&self) -> f64 {
        stats::median(&self.0)
    }
}

/// Compares `digest` with the one recorded for `key` by an earlier run in
/// `out_dir`, recording it when there is none. Returns a problem message
/// on a mismatch.
pub fn check_recorded_digest(out_dir: &std::path::Path, key: &str, digest: u64) -> Option<String> {
    let path = out_dir.join(format!("{key}.digest"));
    match std::fs::read_to_string(&path) {
        Ok(text) if text.trim() == format!("{digest:016x}") => None,
        Ok(text) => Some(format!(
            "{key}: output digest {digest:016x} differs from the {} recorded by an earlier run",
            text.trim()
        )),
        Err(_) => {
            let _ = std::fs::write(&path, format!("{digest:016x}\n"));
            None
        }
    }
}
