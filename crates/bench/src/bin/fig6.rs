//! Regenerates **Fig. 6**: design overhead of the security-aware binding
//! algorithms — register-count increase over area-aware binding (top) and
//! switching-rate increase over power-aware binding (bottom), per benchmark
//! and averaged (paper: ~+4.7 registers, ~+0.03 switching rate).
//!
//! Usage: `cargo run -p lockbind-bench --release --bin fig6 --
//! [FRAMES] [SEED] [--threads N] [--json PATH] [--fail-fast]`

use lockbind_bench::report::render_table;
use lockbind_bench::{OverheadCell, SecurityAlgo};
use lockbind_engine::{CellResult, Engine, EngineArgs};
use lockbind_mediabench::Kernel;

fn main() {
    let args = EngineArgs::parse("fig6");
    let obs = args.obs_session();

    println!("Fig. 6 — design overhead of security-aware binding");
    println!();

    let engine = Engine::new(args.engine_config());
    let cells: Vec<OverheadCell> = Kernel::ALL
        .into_iter()
        .map(|kernel| OverheadCell {
            kernel,
            frames: args.frames,
            seed: args.seed,
            num_candidates: 10,
        })
        .collect();
    let report = engine.run(&cells);

    let mut rows = Vec::new();
    let mut sums = [0.0f64; 4];
    let mut failures = Vec::new();
    let mut measured = 0usize;
    for (cell, result) in cells.iter().zip(&report.results) {
        let records = match result {
            CellResult::Ok { output, .. } => output,
            CellResult::Failed { cell, message } => {
                failures.push((cell.clone(), message.clone()));
                continue;
            }
            CellResult::TimedOut { cell, message } => {
                failures.push((cell.clone(), format!("timed out: {message}")));
                continue;
            }
        };
        let get = |algo: SecurityAlgo| -> (f64, f64) {
            records
                .iter()
                .find(|r| r.algo == algo)
                .map(|r| (r.register_increase, r.switching_increase))
                .unwrap_or((f64::NAN, f64::NAN))
        };
        let (obf_reg, obf_sw) = get(SecurityAlgo::ObfAware);
        let (cd_reg, cd_sw) = get(SecurityAlgo::CoDesignHeuristic);
        sums[0] += obf_reg;
        sums[1] += cd_reg;
        sums[2] += obf_sw;
        sums[3] += cd_sw;
        measured += 1;
        rows.push(vec![
            cell.kernel.name().to_string(),
            format!("{obf_reg:+.2}"),
            format!("{cd_reg:+.2}"),
            format!("{obf_sw:+.4}"),
            format!("{cd_sw:+.4}"),
        ]);
    }
    let n = measured.max(1) as f64;
    rows.push(vec![
        "Avg.".to_string(),
        format!("{:+.2}", sums[0] / n),
        format!("{:+.2}", sums[1] / n),
        format!("{:+.4}", sums[2] / n),
        format!("{:+.4}", sums[3] / n),
    ]);

    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "Δregisters obf-aware",
                "Δregisters co-design",
                "Δswitching obf-aware",
                "Δswitching co-design",
            ],
            &rows
        )
    );
    println!("(registers vs area-aware binding; switching rate vs power-aware binding)");

    args.finish("fig6", obs, Some(&report.metrics), &failures);
}
