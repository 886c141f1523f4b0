//! The `attack` workload: the oracle-guided SAT attack, with the default
//! configuration (key verification included), on a fixed lock set.
//!
//! Two halves use the SAT layer differently. The DIP-heavy locks
//! (critical-minterm, anti-SAT, random logic locking on a 4-bit adder)
//! need hundreds of cheap DIPs, so CNF re-encoding and propagation
//! dominate. The search-heavy locks (4-stage permutation networks on 5-
//! and 6-bit adders) need a handful of DIPs with thousands of conflicts
//! each, so CDCL search dominates.
//!
//! Every pass makes the same layer calls per lock: build the lock
//! (`locking`), encode the two miter copies (`netlist`), attack
//! (`attacks`), query the oracle on each DIP (`netlist`) and re-verify
//! the recovered key exhaustively (`netlist`). Only the attack call is
//! the timed operation.

use std::time::Instant;

use lockbind_attacks::{sat_attack, AttackConfig, AttackStop, SatAttackOutcome};
use lockbind_locking::{
    lock_anti_sat, lock_critical_minterms, lock_permutation, lock_rll, LockedNetlist,
};
use lockbind_netlist::builders::adder_fu;
use lockbind_netlist::cnf::{encode_netlist, Cnf};
use lockbind_netlist::Netlist;
use lockbind_sat::SolverStats;

use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::{pass_modes, splitmix64, timed, Args, Outcome, Pacer, SetupSamples, MIN_PASSES};

/// How a lock stresses the SAT layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Half {
    /// Many DIPs, few conflicts each.
    DipHeavy,
    /// Few DIPs, many conflicts each.
    SearchHeavy,
}

/// One lock of the set: how to build it, and its half.
#[derive(Debug, Clone)]
pub struct LockSpec {
    /// Display name.
    pub name: String,
    /// The half it belongs to.
    pub half: Half,
    scheme: Scheme,
    width: u32,
}

#[derive(Debug, Clone)]
enum Scheme {
    CriticalMinterm(Vec<u64>),
    AntiSat,
    Rll { gates: usize, seed: u64 },
    Permutation { stages: usize },
}

impl LockSpec {
    /// Builds the locked module.
    pub fn build(&self) -> Result<LockedNetlist, String> {
        let adder = adder_fu(self.width);
        match &self.scheme {
            Scheme::CriticalMinterm(minterms) => lock_critical_minterms(&adder, minterms),
            Scheme::AntiSat => lock_anti_sat(&adder),
            Scheme::Rll { gates, seed } => lock_rll(&adder, *gates, *seed),
            Scheme::Permutation { stages } => lock_permutation(&adder, *stages),
        }
        .map_err(|e| format!("{}: {e}", self.name))
    }
}

/// The protected minterms of the critical-minterm lock. They are fixed
/// because the attack's cost depends on which minterms are locked far
/// more than on anything else: over nine seed-drawn sets it ranged from
/// 33 to 247 DIPs and from 0.06 to 2.3 s, which would bury run-to-run
/// changes under the draw. This set needs 209 DIPs.
pub const CRITICAL_MINTERMS: [u64; 3] = [90, 248, 71];

/// The lock set for `seed`. The seed places the random-logic-locking key
/// gates; the other locks are fixed by their widths (and
/// [`CRITICAL_MINTERMS`]).
pub fn lock_set(seed: u64) -> Vec<LockSpec> {
    let mut state = seed;
    let rll_seed = splitmix64(&mut state);
    let spec = |name: &str, half, scheme, width| LockSpec {
        name: name.to_string(),
        half,
        scheme,
        width,
    };
    vec![
        spec(
            "critical-minterm/adder4",
            Half::DipHeavy,
            Scheme::CriticalMinterm(CRITICAL_MINTERMS.to_vec()),
            4,
        ),
        spec("anti-sat/adder4", Half::DipHeavy, Scheme::AntiSat, 4),
        spec(
            "rll8/adder4",
            Half::DipHeavy,
            Scheme::Rll {
                gates: 8,
                seed: rll_seed,
            },
            4,
        ),
        spec(
            "permutation4/adder5",
            Half::SearchHeavy,
            Scheme::Permutation { stages: 4 },
            5,
        ),
        spec(
            "permutation4/adder6",
            Half::SearchHeavy,
            Scheme::Permutation { stages: 4 },
            6,
        ),
    ]
}

/// One 64-lane input word per input: lane `l` of word `w` is pattern
/// `64 * w + l`, restricted to the `n`-input space.
fn exhaustive_words(n: usize) -> Vec<(Vec<u64>, u64)> {
    const LANE: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    let patterns = 1u64 << n;
    let words = patterns.div_ceil(64);
    let mask = if patterns >= 64 {
        !0
    } else {
        (1u64 << patterns) - 1
    };
    (0..words)
        .map(|w| {
            let inputs = (0..n)
                .map(|i| {
                    if i < 6 {
                        LANE[i]
                    } else if (w >> (i - 6)) & 1 == 1 {
                        !0
                    } else {
                        0
                    }
                })
                .collect();
            (inputs, mask)
        })
        .collect()
}

fn key_words(key: &[bool]) -> Vec<u64> {
    key.iter().map(|&b| if b { !0 } else { 0 }).collect()
}

/// Checks `key` from outside the attack: the locked netlist under `key`
/// must equal the original on every input pattern.
pub fn key_is_correct(locked: &Netlist, original: &Netlist, key: &[bool]) -> Result<bool, String> {
    let keys = key_words(key);
    for (inputs, mask) in exhaustive_words(original.num_inputs()) {
        let got = locked.eval_u64(&inputs, &keys).map_err(|e| e.to_string())?;
        let want = original.eval_u64(&inputs, &[]).map_err(|e| e.to_string())?;
        if got.iter().zip(&want).any(|(g, w)| (g ^ w) & mask != 0) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// One lock's result in one pass.
#[derive(Debug, Clone)]
pub struct LockRun {
    /// Seconds in `sat_attack`.
    pub attack_s: f64,
    /// The attack's outcome.
    pub outcome: SatAttackOutcome,
    /// Clauses of one encoded copy of the locked netlist.
    pub clauses: u64,
    /// Whether the key re-verified from outside.
    pub verified: bool,
}

/// One pass over the lock set, every layer call inside a span.
pub fn pass(specs: &[LockSpec], tracer: &Tracer, tag: u64) -> Result<Vec<LockRun>, String> {
    tracer.span("bench.pass", tag, || {
        specs
            .iter()
            .map(|spec| {
                let locked = tracer.span("locking.build", tag, || spec.build())?;
                let nl = locked.netlist();
                let clauses = tracer.span("netlist.encode", tag, || {
                    let mut cnf = Cnf::new();
                    let x = cnf.new_vars(nl.num_inputs());
                    let k1 = cnf.new_vars(nl.num_keys());
                    let k2 = cnf.new_vars(nl.num_keys());
                    encode_netlist(nl, &mut cnf, &x, &k1);
                    let one = cnf.clauses().len();
                    encode_netlist(nl, &mut cnf, &x, &k2);
                    one as u64
                });
                let start = Instant::now();
                let outcome = tracer.span("attacks.sat_attack", tag, || {
                    sat_attack(&locked, &AttackConfig::default())
                });
                let attack_s = start.elapsed().as_secs_f64();
                let n = locked.oracle().num_inputs();
                tracer.span("netlist.eval", tag, || -> Result<(), String> {
                    for &dip in &outcome.dips {
                        let inputs: Vec<u64> = (0..n)
                            .map(|i| if (dip >> i) & 1 == 1 { !0 } else { 0 })
                            .collect();
                        locked
                            .oracle()
                            .eval_u64(&inputs, &[])
                            .map_err(|e| e.to_string())?;
                    }
                    Ok(())
                })?;
                let verified = tracer.span("netlist.verify", tag, || {
                    key_is_correct(nl, locked.oracle(), &outcome.key)
                })?;
                Ok(LockRun {
                    attack_s,
                    outcome,
                    clauses,
                    verified,
                })
            })
            .collect()
    })
}

/// The deterministic counts of one lock's attack.
fn lock_counts(name: &str, run: &LockRun) -> Vec<(String, u64)> {
    let s = &run.outcome.solver_stats;
    [
        ("dips", run.outcome.iterations),
        ("conflicts", s.conflicts),
        ("propagations", s.propagations),
        ("decisions", s.decisions),
        ("restarts", s.restarts),
        ("learnt_clauses", s.learnt_clauses),
        ("solves", s.solves),
        ("blocker_hits", s.blocker_hits),
        ("watcher_visits", s.watcher_visits),
        ("cnf_clauses", run.clauses),
    ]
    .into_iter()
    .map(|(k, v)| (format!("attack.{name}.{k}"), v))
    .collect()
}

/// Runs the `attack` workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let build = || {
        let specs = lock_set(args.seed);
        let locks: Result<Vec<LockedNetlist>, String> = specs.iter().map(LockSpec::build).collect();
        (specs, locks)
    };
    let mut setup = SetupSamples::default();
    let (specs, locks) = setup.sample(build);
    if let Err(e) = locks {
        out.problem(format!("lock construction: {e}"));
        return out;
    }

    let tracer = Tracer::new(args.trace);
    let quiet = Tracer::new(false);
    let mut pacer = Pacer::new(args.budget(), MIN_PASSES);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut half_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut first: Option<Vec<(String, u64)>> = None;
    let mut stats = Vec::new();
    let mut tag = 0;
    while pacer.another() {
        if let (_, Err(e)) = setup.sample(build) {
            out.problem(format!("lock construction: {e}"));
        }
        for &on in pass_modes(args.trace, untraced.len()) {
            tag += 1;
            let t = if on { &tracer } else { &quiet };
            let (result, secs) = timed(|| pass(&specs, t, tag));
            let runs = match result {
                Ok(runs) => runs,
                Err(e) => {
                    out.problem(format!("pass {tag}: {e}"));
                    return out;
                }
            };
            if on {
                traced.push(secs);
            } else {
                untraced.push(secs);
                let mut halves = [0.0, 0.0];
                for (spec, run) in specs.iter().zip(&runs) {
                    halves[(spec.half == Half::SearchHeavy) as usize] += run.attack_s;
                }
                half_s[0].push(halves[0]);
                half_s[1].push(halves[1]);
            }
            let mut counts = Vec::new();
            for (spec, run) in specs.iter().zip(&runs) {
                out.attempted += 1;
                if !run.outcome.success || run.outcome.stop != AttackStop::Completed {
                    out.failed += 1;
                }
                if !run.verified {
                    out.problem(format!(
                        "{}: recovered key fails exhaustive re-verification",
                        spec.name
                    ));
                }
                counts.extend(lock_counts(&spec.name, run));
            }
            match &first {
                None => {
                    stats = runs;
                    first = Some(counts);
                }
                Some(c) if *c != counts => {
                    out.problem(format!("pass {tag} work counts differ from pass 1"))
                }
                Some(_) => {}
            }
        }
    }
    out.counts.extend(first.unwrap_or_default());
    out.set("setup_s", setup.median());

    let totals: Vec<f64> = half_s[0]
        .iter()
        .zip(&half_s[1])
        .map(|(a, b)| a + b)
        .collect();
    out.set("pass_s", median(&totals));
    out.set("attack_dip_s", median(&half_s[0]));
    out.set("attack_search_s", median(&half_s[1]));
    out.note(format!(
        "attack_dip_s = {:.4} s, attack_search_s = {:.4} s (medians over {} passes)",
        median(&half_s[0]),
        median(&half_s[1]),
        half_s[0].len()
    ));
    for (spec, run) in specs.iter().zip(&stats) {
        out.note(format!(
            "lock {:<24} {:>4} key bits {:>5} DIPs {:>7} conflicts {:>10} props {:>8.4} s",
            spec.name,
            run.outcome.key.len(),
            run.outcome.iterations,
            run.outcome.solver_stats.conflicts,
            run.outcome.solver_stats.propagations,
            run.attack_s
        ));
    }

    if args.trace {
        out.spans = tracer.spans();
        out.set_overhead(&untraced, &traced);
        out.set_layer_times(traced.len());
        set_layer_metrics(&mut out, &stats);
    }
    out
}

/// Per-layer metrics of the traced passes and the first pass's outcomes.
fn set_layer_metrics(out: &mut Outcome, runs: &[LockRun]) {
    let mut sum = SolverStats::default();
    let mut dips = 0;
    let mut clauses = 0;
    let mut attack_s = 0.0;
    for run in runs {
        let s = &run.outcome.solver_stats;
        sum.propagations += s.propagations;
        sum.conflicts += s.conflicts;
        sum.decisions += s.decisions;
        sum.blocker_hits += s.blocker_hits;
        sum.watcher_visits += s.watcher_visits;
        dips += run.outcome.iterations;
        clauses += run.clauses;
        attack_s += run.attack_s;
    }
    let (build_ms, _) = out.span_mean("locking.build", 1e6);
    let (encode_us, _) = out.span_mean("netlist.encode", 1e3);
    let (attack_ms, attacks) = out.span_mean("attacks.sat_attack", 1e6);
    let eval_ns: f64 = out
        .spans
        .iter()
        .filter(|s| s.name == "netlist.eval")
        .map(|s| s.dur_ns() as f64)
        .sum();
    let traced_passes = ratio(attacks as f64, runs.len() as f64);
    out.set("locking.build_ms", build_ms);
    // One span encodes the two keyed copies of the miter.
    out.set("netlist.encode_us", encode_us / 2.0);
    out.set("netlist.cnf_clauses", clauses as f64);
    out.set(
        "netlist.eval_us",
        ratio(eval_ns / 1e3, dips as f64 * traced_passes),
    );
    out.set("attacks.dips", dips as f64);
    out.set(
        "attacks.dip_ms",
        ratio(attack_ms * attacks as f64, dips as f64 * traced_passes),
    );
    out.set("sat.propagations", sum.propagations as f64);
    out.set("sat.conflicts", sum.conflicts as f64);
    out.set("sat.decisions", sum.decisions as f64);
    out.set(
        "sat.props_per_dip",
        ratio(sum.propagations as f64, dips as f64),
    );
    out.set(
        "sat.conflicts_per_dip",
        ratio(sum.conflicts as f64, dips as f64),
    );
    out.set(
        "sat.blocker_hit_rate",
        ratio(sum.blocker_hits as f64, sum.watcher_visits as f64),
    );
    out.set("sat.props_per_s", ratio(sum.propagations as f64, attack_s));
}
