//! Differential oracle for the SAT attack's folded DIP copies: the folding,
//! structurally hashed encoder must describe exactly the same key
//! constraints as the plain Tseitin encoder, and the attack built on it
//! must keep recovering functionally correct keys.

use std::collections::BTreeSet;

use lockbind_attacks::{is_functionally_correct, sat_attack, AttackConfig, AttackStop};
use lockbind_locking::{lock_anti_sat, lock_critical_minterms, lock_permutation, lock_rll};
use lockbind_netlist::builders::{adder_fu, multiplier_fu, xor_fu};
use lockbind_netlist::cnf::{encode_netlist, Cnf, HashedEncoder};
use lockbind_netlist::{Netlist, Signal};
use lockbind_sat::{SolveResult, Solver};
use proptest::prelude::*;

/// Random keyed netlist: 1–6 inputs, 1–6 keys, up to 40 gates over the
/// signals so far (including constants and repeated operands, so every
/// folding rule fires), and 1–3 outputs taken from the last signals.
fn keyed_netlist_strategy() -> impl Strategy<Value = Netlist> {
    let gate = (0..6usize, 0..128usize, 0..128usize);
    (
        1..=6usize,
        1..=6usize,
        proptest::collection::vec(gate, 1..40),
        1..=3usize,
    )
        .prop_map(|(num_inputs, num_keys, gates, num_outputs)| {
            let mut nl = Netlist::new("random-keyed");
            let mut signals: Vec<Signal> = nl.add_inputs(num_inputs);
            signals.extend(nl.add_keys(num_keys));
            for (kind, a, b) in gates {
                let sa = signals[a % signals.len()];
                let sb = signals[b % signals.len()];
                let s = match kind {
                    0 => nl.and(sa, sb),
                    1 => nl.or(sa, sb),
                    2 => nl.xor(sa, sb),
                    3 => nl.not(sa),
                    4 => nl.xnor(sa, sa),
                    _ if b % 2 == 0 => nl.lit_false(),
                    _ => nl.lit_true(),
                };
                signals.push(s);
            }
            for s in signals.iter().rev().take(num_outputs) {
                nl.mark_output(*s);
            }
            nl
        })
}

fn bits_of(value: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| (value >> i) & 1 == 1).collect()
}

fn solver_for(cnf: &Cnf) -> Solver {
    let mut solver = Solver::new();
    solver.reserve_vars(cnf.num_vars());
    for cl in cnf.clauses() {
        solver.add_clause(cl);
    }
    solver
}

fn assume_key(key_lits: &[i32], key: &[bool]) -> Vec<i32> {
    key_lits
        .iter()
        .zip(key)
        .map(|(&l, &b)| if b { l } else { -l })
        .collect()
}

/// Every key the solver accepts under `key_lits`, by one solve per key.
fn consistent_keys(cnf: &Cnf, key_lits: &[i32]) -> BTreeSet<u64> {
    let mut solver = solver_for(cnf);
    (0..1u64 << key_lits.len())
        .filter(|&k| {
            let key = bits_of(k, key_lits.len());
            solver.solve_with_assumptions(&assume_key(key_lits, &key)) == SolveResult::Sat
        })
        .collect()
}

/// The four lock constructors on a small functional unit.
fn random_lock(
    scheme: usize,
    fu: usize,
    width: u32,
    param: u64,
) -> lockbind_locking::LockedNetlist {
    let original = match fu {
        0 => adder_fu(width),
        1 => xor_fu(width),
        _ => multiplier_fu(width),
    };
    let n = original.num_inputs();
    match scheme {
        0 => lock_rll(&original, 1 + (param % 8) as usize, param).expect("lockable"),
        1 => {
            let mask = (1u64 << n) - 1;
            let minterms: BTreeSet<u64> = [param, param >> 16, param >> 32]
                .iter()
                .take(1 + (param % 3) as usize)
                .map(|m| m & mask)
                .collect();
            let minterms: Vec<u64> = minterms.into_iter().collect();
            lock_critical_minterms(&original, &minterms).expect("lockable")
        }
        2 => lock_anti_sat(&original).expect("lockable"),
        _ => lock_permutation(&original, 1 + (param % 3) as usize).expect("lockable"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) For every key, each folded DIP copy's output literals take the
    /// simulated values. All copies share one formula and one table, as in
    /// the attack.
    #[test]
    fn folded_copies_match_simulation_for_every_key(
        nl in keyed_netlist_strategy(),
        dips in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let (n, kb) = (nl.num_inputs(), nl.num_keys());
        let mut cnf = Cnf::new();
        let keys = cnf.new_vars(kb);
        let mut enc = HashedEncoder::new(&mut cnf);
        let copies: Vec<(Vec<bool>, Vec<i32>)> = dips
            .iter()
            .map(|&d| {
                let bits = bits_of(d, n);
                let lits: Vec<i32> = bits.iter().map(|&b| enc.constant(b)).collect();
                let outs = enc.encode(&nl, &mut cnf, &lits, &keys);
                (bits, outs)
            })
            .collect();
        let mut solver = solver_for(&cnf);
        for k in 0..1u64 << kb {
            let key = bits_of(k, kb);
            prop_assert_eq!(
                solver.solve_with_assumptions(&assume_key(&keys, &key)),
                SolveResult::Sat
            );
            for (bits, outs) in &copies {
                let sim = nl.eval(bits, &key).expect("arity");
                let got: Vec<bool> = outs.iter().map(|&l| solver.model_value(l)).collect();
                prop_assert_eq!(got, sim, "key {:#b}", k);
            }
        }
    }

    /// (b) Constraining a key to reproduce a reference key's outputs on a
    /// DIP sequence admits exactly the same keys under the folded and the
    /// plain encodings — and exactly the keys simulation admits. The
    /// folded formula also carries a second key copy sharing the table.
    #[test]
    fn folded_and_plain_dip_constraints_admit_the_same_keys(
        nl in keyed_netlist_strategy(),
        dips in proptest::collection::vec(any::<u64>(), 1..8),
        reference in any::<u64>(),
    ) {
        let (n, kb) = (nl.num_inputs(), nl.num_keys());
        let reference = bits_of(reference, kb);
        let queries: Vec<(Vec<bool>, Vec<bool>)> = dips
            .iter()
            .map(|&d| {
                let bits = bits_of(d, n);
                let y = nl.eval(&bits, &reference).expect("arity");
                (bits, y)
            })
            .collect();
        let constrain = |cnf: &mut Cnf, outs: &[i32], y: &[bool]| {
            for (&o, &yv) in outs.iter().zip(y) {
                cnf.add_clause([if yv { o } else { -o }]);
            }
        };

        let mut plain = Cnf::new();
        let plain_keys = plain.new_vars(kb);
        let ct = plain.new_var();
        plain.add_clause([ct]);
        for (bits, y) in &queries {
            let lits: Vec<i32> = bits.iter().map(|&b| if b { ct } else { -ct }).collect();
            let outs = encode_netlist(&nl, &mut plain, &lits, &plain_keys);
            constrain(&mut plain, &outs, y);
        }

        let mut folded = Cnf::new();
        let k1 = folded.new_vars(kb);
        let k2 = folded.new_vars(kb);
        let mut enc = HashedEncoder::new(&mut folded);
        for (bits, y) in &queries {
            let lits: Vec<i32> = bits.iter().map(|&b| enc.constant(b)).collect();
            for keys in [&k1, &k2] {
                let outs = enc.encode(&nl, &mut folded, &lits, keys);
                constrain(&mut folded, &outs, y);
            }
        }

        let simulated: BTreeSet<u64> = (0..1u64 << kb)
            .filter(|&k| {
                let key = bits_of(k, kb);
                queries
                    .iter()
                    .all(|(bits, y)| &nl.eval(bits, &key).expect("arity") == y)
            })
            .collect();
        // Folding never spends more than a variable per gate, as the plain
        // encoder does, for each of the two copies.
        let kb32 = kb as u32;
        prop_assert!(folded.num_vars() - (2 * kb32 + 1) <= 2 * (plain.num_vars() - (kb32 + 1)));
        prop_assert_eq!(&consistent_keys(&plain, &plain_keys), &simulated);
        prop_assert_eq!(&consistent_keys(&folded, &k1), &simulated);
        prop_assert_eq!(&consistent_keys(&folded, &k2), &simulated);
    }

    /// (c) The attack on random locks from all four scheme constructors
    /// completes with a key that passes exhaustive verification.
    #[test]
    fn attack_on_random_locks_recovers_verified_keys(
        scheme in 0..4usize,
        fu in 0..3usize,
        width in 2..=3u32,
        param in any::<u64>(),
    ) {
        let locked = random_lock(scheme, fu, width, param);
        let out = sat_attack(&locked, &AttackConfig::default());
        prop_assert_eq!(out.stop, AttackStop::Completed);
        prop_assert!(out.success);
        prop_assert!(is_functionally_correct(&locked, &out.key));
    }
}
