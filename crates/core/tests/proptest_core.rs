//! Property-based validation of the security-aware binding algorithms on
//! random DFGs, traces, and locking configurations, and of the incremental
//! `ErrorSweep` against the cold binding path.

use std::collections::BTreeSet;
use std::ops::Range;

use lockbind_core::{
    bind_obfuscation_aware, bind_random, codesign_heuristic, combinations,
    expected_application_errors, ErrorSweep, LockingSpec,
};
use lockbind_hls::{
    bind_naive, schedule_asap, Allocation, Dfg, FuClass, FuId, Minterm, OccurrenceProfile, OpKind,
    Schedule, Trace, ValueRef,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Random layered DFG of adds (single class keeps specs simple) plus a
/// random trace.
fn scenario() -> impl Strategy<Value = (Dfg, Trace)> {
    layered(1..30)
}

/// [`scenario`] with the trace length drawn from `frames`.
fn layered(frames: Range<usize>) -> impl Strategy<Value = (Dfg, Trace)> {
    (2..5usize, 2..5usize, frames, any::<u64>()).prop_map(|(width_ops, layers, frames, seed)| {
        let mut d = Dfg::new(5);
        let inputs: Vec<ValueRef> = (0..width_ops + 1)
            .map(|i| d.input(format!("x{i}")))
            .collect();
        let mut prev: Vec<ValueRef> = (0..width_ops)
            .map(|i| ValueRef::Op(d.op(OpKind::Add, inputs[i], inputs[i + 1])))
            .collect();
        for l in 1..layers {
            prev = (0..width_ops)
                .map(|i| ValueRef::Op(d.op(OpKind::Add, prev[i], prev[(i + l) % width_ops])))
                .collect();
        }
        let mut s = seed;
        let trace: Trace = (0..frames)
            .map(|_| {
                (0..width_ops + 1)
                    .map(|_| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (s >> 33) % 32
                    })
                    .collect()
            })
            .collect();
        (d, trace)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn obf_aware_beats_naive_and_random((dfg, trace) in scenario(), seed in any::<u64>()) {
        let alloc = Allocation::new(5, 0);
        let schedule = schedule_asap(&dfg);
        let profile = OccurrenceProfile::from_trace(&dfg, &trace).expect("arity");
        let ops = dfg.ops_of_class(FuClass::Adder);
        let candidates = profile.top_candidates_among(&ops, 3);
        prop_assume!(!candidates.is_empty());
        let spec = LockingSpec::new(
            &alloc,
            vec![(FuId::new(FuClass::Adder, 0), candidates)],
        ).expect("valid");

        let obf = bind_obfuscation_aware(&dfg, &schedule, &alloc, &profile, &spec)
            .expect("feasible");
        let e_obf = expected_application_errors(&obf, &profile, &spec);

        let naive = bind_naive(&dfg, &schedule, &alloc).expect("feasible");
        prop_assert!(e_obf >= expected_application_errors(&naive, &profile, &spec));
        let random = bind_random(&dfg, &schedule, &alloc, seed).expect("feasible");
        prop_assert!(e_obf >= expected_application_errors(&random, &profile, &spec));
    }

    #[test]
    fn single_fu_single_input_codesign_equals_max_over_candidates((dfg, trace) in scenario()) {
        let alloc = Allocation::new(5, 0);
        let schedule = schedule_asap(&dfg);
        let profile = OccurrenceProfile::from_trace(&dfg, &trace).expect("arity");
        let ops = dfg.ops_of_class(FuClass::Adder);
        let candidates = profile.top_candidates_among(&ops, 4);
        prop_assume!(!candidates.is_empty());
        let fu = FuId::new(FuClass::Adder, 0);

        let cd = codesign_heuristic(&dfg, &schedule, &alloc, &profile, &[fu], 1, &candidates)
            .expect("feasible");
        let best_fixed = candidates
            .iter()
            .map(|&c| {
                let spec = LockingSpec::new(&alloc, vec![(fu, vec![c])]).expect("valid");
                let b = bind_obfuscation_aware(&dfg, &schedule, &alloc, &profile, &spec)
                    .expect("feasible");
                expected_application_errors(&b, &profile, &spec)
            })
            .max()
            .expect("candidates non-empty");
        prop_assert_eq!(cd.errors, best_fixed);
    }

    #[test]
    fn errors_are_monotone_in_the_minterm_set((dfg, trace) in scenario()) {
        // Locking a superset of minterms can only increase the maximum
        // achievable application errors.
        let alloc = Allocation::new(5, 0);
        let schedule = schedule_asap(&dfg);
        let profile = OccurrenceProfile::from_trace(&dfg, &trace).expect("arity");
        let ops = dfg.ops_of_class(FuClass::Adder);
        let candidates = profile.top_candidates_among(&ops, 3);
        prop_assume!(candidates.len() >= 2);
        let fu = FuId::new(FuClass::Adder, 0);

        let small = LockingSpec::new(&alloc, vec![(fu, candidates[..1].to_vec())]).expect("ok");
        let large = LockingSpec::new(&alloc, vec![(fu, candidates.clone())]).expect("ok");
        let e_small = {
            let b = bind_obfuscation_aware(&dfg, &schedule, &alloc, &profile, &small)
                .expect("feasible");
            expected_application_errors(&b, &profile, &small)
        };
        let e_large = {
            let b = bind_obfuscation_aware(&dfg, &schedule, &alloc, &profile, &large)
                .expect("feasible");
            expected_application_errors(&b, &profile, &large)
        };
        prop_assert!(e_large >= e_small);
    }

    #[test]
    fn locking_unused_fu_gives_zero((dfg, trace) in scenario()) {
        // With more FUs than concurrent ops, the obf-aware binder will pull
        // work onto a locked FU; but a spec locking NO minterms yields 0.
        let alloc = Allocation::new(5, 0);
        let schedule = schedule_asap(&dfg);
        let profile = OccurrenceProfile::from_trace(&dfg, &trace).expect("arity");
        let spec = LockingSpec::new(
            &alloc,
            vec![(FuId::new(FuClass::Adder, 0), vec![])],
        ).expect("valid");
        let b = bind_obfuscation_aware(&dfg, &schedule, &alloc, &profile, &spec)
            .expect("feasible");
        prop_assert_eq!(expected_application_errors(&b, &profile, &spec), 0);
        let _ = Minterm::pack(0, 0, 5);
    }
}

/// One step of a random `ErrorSweep` walk.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Load combination `.1` (mod the combination count) into slot `.0`.
    Set(usize, usize),
    /// Unlock slot `.0`.
    Clear(usize),
    /// Jump back to the configuration of an earlier step, so that already
    /// scored subproblem states recur and the sweep's memo gets hit.
    Revisit(usize),
}

fn walk(len: Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0..5u8, any::<usize>(), any::<usize>()), len).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, a, b)| match kind {
                0 | 1 => Step::Set(a, b),
                2 => Step::Clear(a),
                _ => Step::Revisit(a),
            })
            .collect()
    })
}

/// The cold score of one configuration: a fresh obf-aware bind and its
/// Eqn. 2 errors.
#[allow(clippy::too_many_arguments)]
fn cold_score(
    dfg: &Dfg,
    schedule: &Schedule,
    alloc: &Allocation,
    profile: &OccurrenceProfile,
    fus: &[FuId],
    combos: &[Vec<usize>],
    candidates: &[Minterm],
    assign: &[Option<usize>],
) -> u64 {
    let entries: Vec<(FuId, Vec<Minterm>)> = fus
        .iter()
        .zip(assign)
        .filter_map(|(&fu, ci)| {
            ci.map(|ci| (fu, combos[ci].iter().map(|&i| candidates[i]).collect()))
        })
        .collect();
    let spec = LockingSpec::new(alloc, entries).expect("valid");
    let binding = bind_obfuscation_aware(dfg, schedule, alloc, profile, &spec).expect("feasible");
    expected_application_errors(&binding, profile, &spec)
}

/// Drives an `ErrorSweep` through `steps`. At every step the bound read
/// before solving must dominate the exact score, and the exact score must
/// equal the cold path's.
#[allow(clippy::too_many_arguments)]
fn check_walk(
    dfg: &Dfg,
    schedule: &Schedule,
    alloc: &Allocation,
    profile: &OccurrenceProfile,
    fus: &[FuId],
    candidates: &[Minterm],
    inputs_per_fu: usize,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let combos = combinations(candidates.len(), inputs_per_fu);
    let mut sweep =
        ErrorSweep::new(dfg, schedule, alloc, profile, fus, candidates, &combos).expect("feasible");
    let mut assign: Vec<Option<usize>> = vec![None; fus.len()];
    let mut history = vec![assign.clone()];
    for (n, &step) in steps.iter().enumerate() {
        match step {
            Step::Set(slot, combo) => {
                let (slot, combo) = (slot % fus.len(), combo % combos.len());
                sweep.set_slot(slot, combo);
                assign[slot] = Some(combo);
            }
            Step::Clear(slot) => {
                let slot = slot % fus.len();
                sweep.clear_slot(slot);
                assign[slot] = None;
            }
            Step::Revisit(earlier) => {
                assign = history[earlier % history.len()].clone();
                for (slot, combo) in assign.iter().enumerate() {
                    match combo {
                        Some(combo) => sweep.set_slot(slot, *combo),
                        None => sweep.clear_slot(slot),
                    }
                }
            }
        }
        history.push(assign.clone());
        let bound = sweep.upper_bound();
        let exact = sweep.solve_errors().expect("feasible");
        let cold = cold_score(
            dfg, schedule, alloc, profile, fus, &combos, candidates, &assign,
        );
        prop_assert_eq!(exact, cold, "step {}: {:?} after {:?}", n, assign, step);
        prop_assert!(
            bound >= exact,
            "step {}: bound {} < exact {}",
            n,
            bound,
            exact
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sweep_walks_match_the_cold_bind(
        (dfg, trace) in scenario(),
        (slots, offset, num_candidates, inputs) in (1..=3usize, 0..5usize, 1..=8usize, 1..=3usize),
        steps in walk(1..40),
    ) {
        let alloc = Allocation::new(5, 0);
        let schedule = schedule_asap(&dfg);
        let profile = OccurrenceProfile::from_trace(&dfg, &trace).expect("arity");
        let ops = dfg.ops_of_class(FuClass::Adder);
        let candidates = profile.top_candidates_among(&ops, num_candidates);
        prop_assume!(inputs <= candidates.len());
        // Step 2 mod 5 keeps up to three slots on distinct FUs.
        let fus: Vec<FuId> = (0..slots)
            .map(|k| FuId::new(FuClass::Adder, (offset + 2 * k) % 5))
            .collect();
        check_walk(&dfg, &schedule, &alloc, &profile, &fus, &candidates, inputs, &steps)?;
    }

    #[test]
    fn sweep_walks_over_more_than_64_candidates_match_the_cold_bind(
        (dfg, trace) in layered(150..250),
        (slots, inputs) in (1..=3usize, 1..=2usize),
        steps in walk(1..30),
    ) {
        let alloc = Allocation::new(5, 0);
        let schedule = schedule_asap(&dfg);
        let profile = OccurrenceProfile::from_trace(&dfg, &trace).expect("arity");
        let ops = dfg.ops_of_class(FuClass::Adder);
        let candidates = profile.top_candidates_among(&ops, 70);
        prop_assert!(candidates.len() > 64, "only {} candidates", candidates.len());
        let fus: Vec<FuId> = (0..slots).map(|k| FuId::new(FuClass::Adder, 2 * k)).collect();
        check_walk(&dfg, &schedule, &alloc, &profile, &fus, &candidates, inputs, &steps)?;
    }

    #[test]
    fn sweep_walks_whose_id_tuples_cannot_be_packed_match_the_cold_bind(
        frames in 200..300usize,
        seed in any::<u64>(),
        steps in walk(1..30),
    ) {
        // Twelve concurrent adds on twelve locked adders, one combination
        // per candidate.
        const WIDE: usize = 12;
        let mut dfg = Dfg::new(4);
        let inputs: Vec<ValueRef> = (0..=WIDE).map(|i| dfg.input(format!("x{i}"))).collect();
        for i in 0..WIDE {
            dfg.op(OpKind::Add, inputs[i], inputs[i + 1]);
        }
        let mut s = seed;
        let trace: Trace = (0..frames)
            .map(|_| {
                (0..=WIDE)
                    .map(|_| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (s >> 33) % 16
                    })
                    .collect()
            })
            .collect();
        let alloc = Allocation::new(WIDE, 0);
        let schedule = schedule_asap(&dfg);
        let profile = OccurrenceProfile::from_trace(&dfg, &trace).expect("arity");
        let ops = dfg.ops_of_class(FuClass::Adder);
        let candidates = profile.top_candidates_among(&ops, 70);
        // The sweep's memo key packs one digit per locked slot, of radix
        // the subproblem's distinct column count, into 32 bits: with
        // twelve slots, 7 distinct columns already overflow it.
        let mut columns: BTreeSet<Vec<u64>> = BTreeSet::new();
        columns.insert(vec![0; WIDE]);
        for &c in &candidates {
            columns.insert(ops.iter().map(|&op| profile.count(op, c)).collect());
        }
        prop_assert!(
            (columns.len() as u128).pow(WIDE as u32) > u128::from(u32::MAX),
            "{} distinct columns pack into a 32-bit key",
            columns.len()
        );
        let fus: Vec<FuId> = (0..WIDE).map(|k| FuId::new(FuClass::Adder, k)).collect();
        check_walk(&dfg, &schedule, &alloc, &profile, &fus, &candidates, 1, &steps)?;
    }
}
