//! CDCL solver smoke bench: runs the full oracle-guided SAT attack against
//! a reduced grid of the locking schemes whose resilience sweeps dominate
//! benchmark wall-clock (point-function / Anti-SAT locks, plus RLL and
//! permutation controls) and prints their deterministic verdict table
//! (work counts only, no wall clock). CI diffs it against
//! `results/BENCH_solver_smoke.txt`, so a changed search path shows up as
//! a diff. Wall-clock solver numbers come from perfbench's `attack`
//! workload.
//!
//! Usage: `cargo run -p lockbind-bench --release --bin solver_bench`
//! (no arguments).

use lockbind_attacks::{sat_attack, AttackConfig};
use lockbind_bench::report::render_table;
use lockbind_locking::{
    lock_anti_sat, lock_critical_minterms, lock_permutation, lock_rll, LockedNetlist,
};
use lockbind_netlist::builders::adder_fu;

/// The reduced grid: width-3 adders under each scheme family.
fn workloads() -> [(&'static str, LockedNetlist); 4] {
    let fu = adder_fu(3);
    [
        (
            "point-function",
            lock_critical_minterms(&fu, &[5, 11, 23]).expect("lockable"),
        ),
        ("anti-sat", lock_anti_sat(&fu).expect("lockable")),
        ("rll", lock_rll(&fu, 6, 42).expect("lockable")),
        ("permutation", lock_permutation(&fu, 4).expect("lockable")),
    ]
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("solver_bench: unexpected argument {arg:?} (it takes none)");
        std::process::exit(2);
    }

    let rows: Vec<Vec<String>> = workloads()
        .iter()
        .map(|(name, locked)| {
            let out = sat_attack(locked, &AttackConfig::default());
            let st = out.solver_stats;
            vec![
                name.to_string(),
                if out.success { "yes" } else { "no" }.to_string(),
                out.iterations.to_string(),
                st.conflicts.to_string(),
                st.propagations.to_string(),
                st.decisions.to_string(),
                st.restarts.to_string(),
                st.gc_runs.to_string(),
            ]
        })
        .collect();
    println!("solver workload verdicts (smoke grid):");
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "key found",
                "DIPs",
                "conflicts",
                "propagations",
                "decisions",
                "restarts",
                "gc runs",
            ],
            &rows
        )
    );
}
