//! Regenerates **Fig. 5**: impact of the locking configuration (number of
//! locked FUs, number of locked inputs) on the error increase of each
//! security-aware binding algorithm, averaged over all other parameters and
//! normalized to area/power-aware binding with the identical configuration.
//!
//! Usage: `cargo run -p lockbind-bench --release --bin fig5 --
//! [FRAMES] [SEED] [--threads N] [--json PATH] [--fail-fast]`

use lockbind_bench::errors_experiment::geomean;
use lockbind_bench::report::{fmt_ratio, render_table};
use lockbind_bench::{collect_error_records, error_grid, ExperimentParams, SecurityAlgo};
use lockbind_engine::{Engine, EngineArgs};
use lockbind_mediabench::Kernel;

fn main() {
    let args = EngineArgs::parse("fig5");
    let params = ExperimentParams::default();
    let obs = args.obs_session();

    println!("Fig. 5 — error increase vs locking configuration (normalized to the");
    println!("same configuration under area/power-aware binding)");
    println!();

    let engine = Engine::new(args.engine_config());
    let cells = error_grid(&Kernel::ALL, args.frames, args.seed, &params);
    let report = engine.run(&cells);
    let (records, failures) = collect_error_records(&report.results);

    let series = [
        ("Obf.-Aware vs Area-Aware", SecurityAlgo::ObfAware, true),
        ("Obf.-Aware vs Power-Aware", SecurityAlgo::ObfAware, false),
        (
            "P-Time Bind-Obf. Co-Design vs Area-Aware",
            SecurityAlgo::CoDesignHeuristic,
            true,
        ),
        (
            "P-Time Bind-Obf. Co-Design vs Power-Aware",
            SecurityAlgo::CoDesignHeuristic,
            false,
        ),
    ];

    type ConfigFilter = Box<dyn Fn(usize, usize) -> bool>;
    let buckets: [(&str, ConfigFilter); 7] = [
        ("1 FU", Box::new(|f, _| f == 1)),
        ("2 FUs", Box::new(|f, _| f == 2)),
        ("3 FUs", Box::new(|f, _| f == 3)),
        ("1 Lock Inp.", Box::new(|_, i| i == 1)),
        ("2 Lock Inp.", Box::new(|_, i| i == 2)),
        ("3 Lock Inp.", Box::new(|_, i| i == 3)),
        ("Avg.", Box::new(|_, _| true)),
    ];

    let headers: Vec<&str> = std::iter::once("series")
        .chain(buckets.iter().map(|(n, _)| *n))
        .collect();
    let mut rows = Vec::new();
    for (label, algo, vs_area) in series {
        let mut row = vec![label.to_string()];
        for (_, pred) in &buckets {
            let vals: Vec<f64> = records
                .iter()
                .filter(|r| r.algo == algo && pred(r.locked_fus, r.locked_inputs))
                .map(|r| if vs_area { r.vs_area } else { r.vs_power })
                .collect();
            row.push(if vals.is_empty() {
                "-".into()
            } else {
                fmt_ratio(geomean(vals))
            });
        }
        rows.push(row);
    }
    println!("{}", render_table(&headers, &rows));

    args.finish("fig5", obs, Some(&report.metrics), &failures);
}
