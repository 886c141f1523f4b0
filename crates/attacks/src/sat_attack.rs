//! The oracle-guided SAT attack (DIP loop).

use lockbind_locking::corruption::MAX_SWEEP_INPUT_BITS;
use lockbind_locking::LockedNetlist;
use lockbind_obs as obs;
use lockbind_resil::CancelToken;
use lockbind_sat::{SolveResult, Solver, SolverStats};

use crate::dip_loop::DipLoop;
use crate::is_functionally_correct;

/// Configuration for [`sat_attack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackConfig {
    /// Abort after this many DIP iterations (the outcome reports
    /// `success = false`). SAT-resilient locks are *expected* to hit this.
    pub max_iterations: u64,
    /// Verify the extracted key exhaustively against the oracle.
    pub verify: bool,
    /// Per-solve conflict budget forwarded to the CDCL solver; `None` is
    /// unlimited. A query that exhausts it ends the attack with
    /// [`AttackStop::BudgetExhausted`] — distinguishable from a genuine
    /// UNSAT "no DIP remains" answer.
    pub conflict_budget: Option<u64>,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            max_iterations: 200_000,
            verify: true,
            conflict_budget: None,
        }
    }
}

/// Why a [`sat_attack`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackStop {
    /// The DIP loop ran dry and a key was extracted (check
    /// [`SatAttackOutcome::success`] for whether it verified).
    Completed,
    /// [`AttackConfig::max_iterations`] was reached.
    IterationCap,
    /// A solver query ran out of its [`AttackConfig::conflict_budget`].
    BudgetExhausted,
    /// The cancel token passed to [`sat_attack_with_cancel`] fired.
    Interrupted,
}

/// Outcome of a [`sat_attack`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatAttackOutcome {
    /// The extracted key (meaningful only if `success`).
    pub key: Vec<bool>,
    /// DIP iterations performed.
    pub iterations: u64,
    /// The distinguishing input patterns found, packed LSB-first.
    pub dips: Vec<u64>,
    /// `true` if the attack terminated with a (verified, if configured)
    /// functionally-correct key; `false` if the iteration cap was hit,
    /// the attack was stopped early, or verification failed.
    pub success: bool,
    /// Why the attack ended (completion, iteration cap, conflict budget,
    /// or cooperative interrupt).
    pub stop: AttackStop,
    /// Cumulative statistics of the underlying CDCL solver.
    pub solver_stats: SolverStats,
    /// Solver conflicts spent in each DIP search — the per-iteration
    /// *runtime* proxy that distinguishes the exponential-iteration-runtime
    /// locking family (Full-Lock-style) from merely iteration-count-hard
    /// schemes (Sec. II-A / V-C of the paper).
    pub conflicts_per_iteration: Vec<u64>,
}

impl SatAttackOutcome {
    /// Mean solver conflicts per DIP iteration (0 if no iterations ran).
    pub fn mean_conflicts_per_iteration(&self) -> f64 {
        if self.conflicts_per_iteration.is_empty() {
            0.0
        } else {
            self.conflicts_per_iteration.iter().sum::<u64>() as f64
                / self.conflicts_per_iteration.len() as f64
        }
    }
}

/// Runs the SAT attack against a locked module, using its retained original
/// netlist as the activated-chip oracle (the standard threat model: the
/// attacker owns one unlocked chip plus the locked GDSII).
///
/// # Panics
/// Panics if the module has more than 63 inputs (DIP packing limit), or
/// more than 24 inputs with [`AttackConfig::verify`] set (exhaustive key
/// verification limit) — both before the DIP loop starts.
pub fn sat_attack(locked: &LockedNetlist, config: &AttackConfig) -> SatAttackOutcome {
    sat_attack_with_cancel(locked, config, &CancelToken::new())
}

/// [`sat_attack`] with a cooperative cancel token: the token is installed
/// into the CDCL solver (interrupting even a single pathological DIP
/// search) and checked between DIP iterations. A fired token ends the
/// attack with [`AttackStop::Interrupted`] and `success = false`.
///
/// # Panics
/// Panics if the module has more than 63 inputs (DIP packing limit), or
/// more than 24 inputs with [`AttackConfig::verify`] set (exhaustive key
/// verification limit) — both before the DIP loop starts.
pub fn sat_attack_with_cancel(
    locked: &LockedNetlist,
    config: &AttackConfig,
    cancel: &CancelToken,
) -> SatAttackOutcome {
    let nl = locked.netlist();
    let n = nl.num_inputs();
    let kb = nl.num_keys();
    let _span = obs::span!("attack.sat", inputs = n, key_bits = kb);
    let _timer = obs::timer!("attack.sat");
    obs::counter!("sat.attacks").inc();
    assert!(n <= 63, "sat attack DIP packing supports at most 63 inputs");
    assert!(
        !config.verify || n <= MAX_SWEEP_INPUT_BITS as usize,
        "sat attack key verification is exhaustive and supports at most \
         {MAX_SWEEP_INPUT_BITS} inputs"
    );

    let mut solver = Solver::new();
    solver.set_conflict_budget(config.conflict_budget);
    solver.set_interrupt(Some(cancel.clone()));
    let mut dip_loop = DipLoop::new(locked, solver);

    // Early-stop outcome: no key was extracted, so report the zero key and
    // the reason the attack could not finish.
    let aborted = |stop: AttackStop,
                   iterations: u64,
                   dips: Vec<u64>,
                   conflicts_per_iteration: Vec<u64>,
                   dip_loop: &DipLoop| {
        match stop {
            AttackStop::BudgetExhausted => obs::counter!("sat.budget_exhausted").inc(),
            AttackStop::Interrupted => obs::counter!("sat.interrupted").inc(),
            _ => obs::counter!("sat.iteration_capped").inc(),
        }
        dip_loop.record_metrics();
        SatAttackOutcome {
            key: vec![false; kb],
            iterations,
            dips,
            success: false,
            stop,
            solver_stats: dip_loop.stats(),
            conflicts_per_iteration,
        }
    };

    let mut iterations = 0u64;
    let mut dips = Vec::new();
    let mut conflicts_per_iteration = Vec::new();
    let mut last_conflicts = 0u64;
    loop {
        if cancel.is_cancelled() {
            return aborted(
                AttackStop::Interrupted,
                iterations,
                dips,
                conflicts_per_iteration,
                &dip_loop,
            );
        }
        obs::counter!("sat.queries").inc();
        let result = dip_loop.find_dip();
        let now = dip_loop.stats().conflicts;
        match result {
            SolveResult::Unsat => break,
            SolveResult::BudgetExhausted => {
                return aborted(
                    AttackStop::BudgetExhausted,
                    iterations,
                    dips,
                    conflicts_per_iteration,
                    &dip_loop,
                );
            }
            SolveResult::Interrupted => {
                return aborted(
                    AttackStop::Interrupted,
                    iterations,
                    dips,
                    conflicts_per_iteration,
                    &dip_loop,
                );
            }
            SolveResult::Sat => {
                iterations += 1;
                obs::counter!("sat.dips").inc();
                obs::histogram!("sat.conflicts_per_dip").record(now - last_conflicts);
                conflicts_per_iteration.push(now - last_conflicts);
                last_conflicts = now;
                let dip_bits = dip_loop.dip();
                let dip_packed = dip_bits
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i));
                dips.push(dip_packed);

                // Oracle query on the activated chip; both key copies must
                // reproduce it.
                dip_loop.learn(&dip_bits);

                if iterations >= config.max_iterations {
                    return aborted(
                        AttackStop::IterationCap,
                        iterations,
                        dips,
                        conflicts_per_iteration,
                        &dip_loop,
                    );
                }
            }
        }
    }

    // No DIP remains: any key consistent with the agreement constraints is
    // functionally correct. Deactivate the miter and extract one.
    obs::counter!("sat.queries").inc();
    let key = match dip_loop.find_key() {
        SolveResult::Sat => dip_loop.key(),
        SolveResult::Interrupted => {
            return aborted(
                AttackStop::Interrupted,
                iterations,
                dips,
                conflicts_per_iteration,
                &dip_loop,
            );
        }
        SolveResult::BudgetExhausted => {
            return aborted(
                AttackStop::BudgetExhausted,
                iterations,
                dips,
                conflicts_per_iteration,
                &dip_loop,
            );
        }
        SolveResult::Unsat => {
            unreachable!("the correct key always satisfies the agreement constraints")
        }
    };
    let success = if config.verify {
        is_functionally_correct(locked, &key)
    } else {
        true
    };
    dip_loop.record_metrics();
    SatAttackOutcome {
        key,
        iterations,
        dips,
        success,
        stop: AttackStop::Completed,
        solver_stats: dip_loop.stats(),
        conflicts_per_iteration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_locking::{lock_anti_sat, lock_critical_minterms, lock_permutation, lock_rll};
    use lockbind_netlist::builders::{adder_fu, multiplier_fu, xor_fu};

    #[test]
    fn breaks_rll_on_adder_quickly() {
        let locked = lock_rll(&adder_fu(4), 6, 11).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
        assert!(out.iterations <= 40, "iterations = {}", out.iterations);
    }

    #[test]
    fn breaks_rll_on_multiplier() {
        let locked = lock_rll(&multiplier_fu(4), 8, 5).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
    }

    #[test]
    fn extracted_key_may_differ_from_designers_but_is_functional() {
        let locked = lock_rll(&xor_fu(3), 4, 9).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
        assert!(is_functionally_correct(&locked, &out.key));
    }

    #[test]
    fn point_function_lock_needs_many_iterations_on_average() {
        // 3-bit operands -> 6 input bits, 6-bit key, 64 key values. Each DIP
        // eliminates ~1 wrong key, so the attack ends only when its DIP
        // sequence stumbles on the secret — ~32 iterations in expectation.
        // A single run can get lucky, so average over several secrets.
        let secrets = [
            0b101010u64,
            0b000001,
            0b111111,
            0b010011,
            0b100100,
            0b011110,
        ];
        let mut total = 0u64;
        for &s in &secrets {
            let locked = lock_critical_minterms(&xor_fu(3), &[s]).expect("lockable");
            let out = sat_attack(&locked, &AttackConfig::default());
            assert!(out.success, "secret {s:#b}");
            total += out.iterations;
        }
        let mean = total as f64 / secrets.len() as f64;
        assert!(
            mean >= 12.0,
            "point-function locks broke in only {mean} mean iterations"
        );
    }

    #[test]
    fn anti_sat_needs_many_iterations() {
        let locked = lock_anti_sat(&xor_fu(2)).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
        // 4 input bits -> g fires on single minterms; expect >= ~2^4/2 DIPs.
        assert!(out.iterations >= 4, "iterations = {}", out.iterations);
    }

    #[test]
    fn permutation_lock_is_breakable_but_not_instant() {
        let locked = lock_permutation(&adder_fu(3), 2).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
        assert!(out.iterations >= 1);
    }

    #[test]
    fn iteration_cap_reports_failure() {
        let locked = lock_critical_minterms(&adder_fu(4), &[0x11]).expect("lockable");
        let out = sat_attack(
            &locked,
            &AttackConfig {
                max_iterations: 3,
                ..AttackConfig::default()
            },
        );
        assert!(!out.success);
        assert_eq!(out.stop, AttackStop::IterationCap);
        assert_eq!(out.iterations, 3);
        assert_eq!(out.dips.len(), 3);
    }

    #[test]
    fn conflict_budget_stops_the_attack_without_claiming_proof() {
        // Anti-SAT on a wider adder needs plenty of conflicts; a 1-conflict
        // budget must end the attack as BudgetExhausted, never as a
        // "completed" run with a bogus key.
        let locked = lock_anti_sat(&adder_fu(4)).expect("lockable");
        let out = sat_attack(
            &locked,
            &AttackConfig {
                conflict_budget: Some(1),
                ..AttackConfig::default()
            },
        );
        assert!(!out.success);
        assert_eq!(out.stop, AttackStop::BudgetExhausted);
    }

    #[test]
    fn successful_attack_reports_completed() {
        let locked = lock_rll(&adder_fu(4), 6, 11).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
        assert_eq!(out.stop, AttackStop::Completed);
    }

    #[test]
    fn cancelled_token_interrupts_the_attack() {
        use lockbind_resil::CancelToken;
        let locked = lock_anti_sat(&adder_fu(4)).expect("lockable");
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = sat_attack_with_cancel(&locked, &AttackConfig::default(), &cancel);
        assert!(!out.success);
        assert_eq!(out.stop, AttackStop::Interrupted);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn deadline_token_interrupts_a_hard_attack() {
        use lockbind_resil::CancelToken;
        use std::time::{Duration, Instant};
        // A 5-bit anti-SAT attack needs ~2^10 DIPs — effectively unbounded
        // at test scale; a 50ms deadline must cut it short promptly.
        let locked = lock_anti_sat(&adder_fu(5)).expect("lockable");
        let cancel = CancelToken::with_deadline(Duration::from_millis(50));
        let started = Instant::now();
        let out = sat_attack_with_cancel(&locked, &AttackConfig::default(), &cancel);
        assert_eq!(out.stop, AttackStop::Interrupted);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "interrupt took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn per_iteration_profile_matches_iteration_count() {
        let locked = lock_rll(&adder_fu(4), 6, 11).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert_eq!(out.conflicts_per_iteration.len() as u64, out.iterations);
        assert!(out.mean_conflicts_per_iteration() >= 0.0);
    }

    #[test]
    fn permutation_stages_increase_per_iteration_hardness() {
        // The Full-Lock-family claim: more routing stages make each DIP
        // search harder. Compare mean conflicts/iteration at 1 vs 4 stages.
        let adder = adder_fu(3);
        let shallow = lock_permutation(&adder, 1).expect("lockable");
        let deep = lock_permutation(&adder, 4).expect("lockable");
        let a = sat_attack(&shallow, &AttackConfig::default());
        let b = sat_attack(&deep, &AttackConfig::default());
        assert!(a.success && b.success);
        let total_a: u64 = a.solver_stats.conflicts;
        let total_b: u64 = b.solver_stats.conflicts;
        assert!(
            total_b >= total_a,
            "4-stage network should cost at least as many conflicts ({total_b} vs {total_a})"
        );
    }

    #[test]
    fn attack_publishes_solver_metrics_to_the_registry() {
        // The registry is process-global and other tests in this binary
        // also run attacks concurrently, so assert deltas are *at least*
        // this attack's contribution rather than exactly it.
        let before = obs::Registry::global().snapshot();
        let locked = lock_rll(&adder_fu(4), 6, 11).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
        let after = obs::Registry::global().snapshot();

        let delta = |name: &str| {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        let st = out.solver_stats;
        assert!(delta("sat.solver.conflicts") >= st.conflicts);
        assert!(delta("sat.solver.propagations") >= st.propagations);
        assert!(delta("sat.solver.watcher_visits") >= st.watcher_visits);
        assert!(delta("sat.solver.blocker_hits") >= st.blocker_hits);
        assert!(st.propagations > 0, "attack should have propagated");

        let glue_total = |snap: &obs::MetricsSnapshot| {
            snap.histograms
                .get("sat.glue")
                .map(|h| h.count())
                .unwrap_or(0)
        };
        let learnt_total: u64 = st.glue_hist.iter().sum();
        assert!(learnt_total > 0, "attack should have learnt clauses");
        assert!(glue_total(&after) - glue_total(&before) >= learnt_total);
    }

    #[test]
    fn attack_publishes_dip_encoding_metrics_to_the_registry() {
        // Same delta discipline as above: other attacks in this binary may
        // add to the counters concurrently.
        let before = obs::Registry::global().snapshot();
        let locked = lock_anti_sat(&xor_fu(2)).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
        let after = obs::Registry::global().snapshot();
        let delta = |name: &str| {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        // Folding leaves each DIP copy a few key-gate variables at most
        // (the whole netlist has far more), and the repeated key-only
        // anti-SAT blocks must come out of the structural hash.
        let copies = 2 * out.iterations;
        assert!(copies > 0);
        assert!(delta("sat.dip_vars") > 0);
        assert!(
            delta("sat.dip_vars") < copies * locked.netlist().gate_count() as u64 / 2,
            "folded copies should keep under half the gates"
        );
        assert!(delta("sat.dip_clauses") >= delta("sat.dip_vars"));
        assert!(delta("sat.strash_hits") >= out.iterations);
    }

    #[test]
    #[should_panic(expected = "at most 24 inputs")]
    fn verified_attack_on_a_wide_module_fails_before_the_dip_loop() {
        // 26 inputs: within DIP packing, beyond exhaustive verification.
        let locked = lock_rll(&adder_fu(13), 4, 1).expect("lockable");
        let _ = sat_attack(&locked, &AttackConfig::default());
    }

    #[test]
    fn unverified_attack_on_a_wide_module_runs() {
        let locked = lock_rll(&adder_fu(13), 4, 1).expect("lockable");
        let out = sat_attack(
            &locked,
            &AttackConfig {
                verify: false,
                max_iterations: 2,
                ..AttackConfig::default()
            },
        );
        assert!(out.iterations >= 1);
    }

    #[test]
    fn dips_are_within_input_space() {
        let locked = lock_rll(&adder_fu(4), 5, 3).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        for d in out.dips {
            assert!(d < (1 << 8));
        }
    }
}
