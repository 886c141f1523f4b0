//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Trace skew** — sweep the workload's hot-value probability on a
//!    tunable synthetic kernel and watch the error-increase ratios go from
//!    ~1x (uniform operands: nothing for binding to exploit) into the
//!    paper's 10-150x band (heavily skewed media-like operands).
//! 2. **Ratio smoothing** — sensitivity of the headline ratios to the
//!    Laplace constant used for zero-error baselines.
//! 3. **Register model** — the binding-dependent per-FU register-bank model
//!    vs the binding-independent global left-edge lower bound.
//! 4. **Switching baselines** — power-aware binding vs naive/random binding
//!    switching rates (validates the Fig.-6 power baseline).
//!
//! Parts 1, 3, and 4 run their independent cells on the execution engine
//! (each part keeps its own fixed frames/seed so results stay comparable
//! with the documented deviations); `--threads` controls the pool.
//!
//! Usage: `cargo run -p lockbind-bench --release --bin ablation --
//! [--threads N] [--fail-fast] [--trace PATH] [--profile]`

use lockbind_bench::grid::cached_prepared;
use lockbind_bench::report::render_table;
use lockbind_bench::{ErrorRecord, ExperimentParams, PreparedKernel};
use lockbind_core::{
    bind_area_aware, bind_obfuscation_aware, bind_power_aware, bind_random,
    expected_application_errors, LockingSpec,
};
use lockbind_engine::{Engine, EngineArgs, Job, JobCtx};
use lockbind_hls::metrics::{register_count, register_lower_bound, switching};
use lockbind_hls::{bind_naive, FuClass, FuId};
use lockbind_mediabench::{synthetic_benchmark, Kernel, SkewParams};

const SKEW_HOTS: [f64; 6] = [0.0, 0.3, 0.5, 0.7, 0.9, 0.99];
const SKEW_SEEDS: [u64; 3] = [9, 77, 1234];

/// One synthetic-workload experiment of the skew sweep.
struct SkewCell {
    hot: f64,
    seed: u64,
    params: ExperimentParams,
}

impl Job for SkewCell {
    type Output = Vec<ErrorRecord>;

    fn label(&self) -> String {
        format!("skew/h{:.2}/s{}", self.hot, self.seed)
    }

    fn stage(&self) -> &'static str {
        "skew-sweep"
    }

    fn run(&self, _ctx: &mut JobCtx<'_>) -> Result<Self::Output, String> {
        let bench = synthetic_benchmark(
            &SkewParams {
                hot_probability: self.hot,
                lanes: 6,
            },
            400,
            self.seed,
        );
        let prepared = PreparedKernel::from_benchmark(bench);
        lockbind_bench::run_error_experiment(&prepared, &self.params).map_err(|e| e.to_string())
    }
}

fn skew_sweep(engine: &Engine) -> Result<(), Vec<(String, String)>> {
    println!("== 1. trace-skew sweep (synthetic MAC kernel, full Fig.-4-style cell) ==");
    println!("(mean ratios over all configurations and candidate combinations)");
    let params = ExperimentParams {
        num_candidates: 8,
        max_locked_fus: 2,
        max_locked_inputs: 2,
        max_assignments: 400,
        optimal_budget: 0,
        seed: 11,
    };
    let cells: Vec<SkewCell> = SKEW_HOTS
        .iter()
        .flat_map(|&hot| {
            SKEW_SEEDS
                .iter()
                .map(move |&seed| SkewCell { hot, seed, params })
        })
        .collect();
    let report = engine.run(&cells);
    let failures: Vec<(String, String)> = report
        .failures()
        .map(|(c, m)| (c.to_string(), m.to_string()))
        .collect();
    if !failures.is_empty() {
        return Err(failures);
    }

    let mut rows = Vec::new();
    for (hi, &hot) in SKEW_HOTS.iter().enumerate() {
        // Average over the per-hot workload seeds to damp combination luck.
        let mut obf = (0.0, 0.0);
        let mut cd = (0.0, 0.0);
        let mut n = 0.0;
        for result in &report.results[hi * SKEW_SEEDS.len()..(hi + 1) * SKEW_SEEDS.len()] {
            let records = result.output().expect("failures handled above");
            for r in records.iter().filter(|r| r.class == FuClass::Multiplier) {
                match r.algo {
                    lockbind_bench::SecurityAlgo::ObfAware => {
                        obf.0 += r.vs_area;
                        obf.1 += r.vs_power;
                        n += 1.0;
                    }
                    lockbind_bench::SecurityAlgo::CoDesignHeuristic => {
                        cd.0 += r.vs_area;
                        cd.1 += r.vs_power;
                    }
                    lockbind_bench::SecurityAlgo::CoDesignOptimal => {}
                }
            }
        }
        rows.push(vec![
            format!("{hot:.2}"),
            format!("{:.1}x", obf.0 / n),
            format!("{:.1}x", obf.1 / n),
            format!("{:.1}x", cd.0 / n),
            format!("{:.1}x", cd.1 / n),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "hot prob",
                "obf vs area",
                "obf vs power",
                "co-design vs area",
                "co-design vs power"
            ],
            &rows
        )
    );
    println!("(uniform operands leave binding nothing to exploit; media-like skew");
    println!(" pushes the gains into the paper's 10-150x band)");
    Ok(())
}

fn smoothing_sweep() {
    println!("== 2. ratio-smoothing sensitivity (jctrans2 multipliers, 1 FU x 2 inputs) ==");
    let p = PreparedKernel::new(Kernel::Jctrans2, 300, 2021);
    let candidates = p.candidates(FuClass::Multiplier, 10);
    let area = bind_area_aware(&p.dfg, &p.schedule, &p.alloc).expect("feasible");
    let fu = FuId::new(FuClass::Multiplier, 0);

    // Enumerate all C(10,2) combinations; compute mean ratio per constant.
    let combos = lockbind_core::combinations(candidates.len(), 2);
    let mut rows = Vec::new();
    for c in [0.1f64, 0.5, 1.0, 2.0, 5.0] {
        let mut sum = 0.0;
        for combo in &combos {
            let ms: Vec<_> = combo.iter().map(|&i| candidates[i]).collect();
            let spec = LockingSpec::new(&p.alloc, vec![(fu, ms)]).expect("valid");
            let obf = bind_obfuscation_aware(&p.dfg, &p.schedule, &p.alloc, &p.profile, &spec)
                .expect("feasible");
            let e_obf = expected_application_errors(&obf, &p.profile, &spec) as f64;
            let e_area = expected_application_errors(&area, &p.profile, &spec) as f64;
            sum += (c + e_obf) / (c + e_area);
        }
        rows.push(vec![
            format!("{c:.1}"),
            format!("{:.1}x", sum / combos.len() as f64),
        ]);
    }
    println!(
        "{}",
        render_table(&["laplace constant", "mean obf-aware vs area ratio"], &rows)
    );
    println!("(many combinations leave the area-aware baseline at ZERO errors, so the");
    println!(" reported magnitude scales roughly as 1/c — the *ordering* between");
    println!(" algorithms and kernels is invariant; we report c = 1 throughout, the");
    println!(" most conservative choice that still counts zero-error baselines)");
    println!();
}

/// One kernel row of the register-model comparison (part 3).
struct RegisterRowCell {
    kernel: Kernel,
}

impl Job for RegisterRowCell {
    type Output = Vec<String>;

    fn label(&self) -> String {
        format!("{}/registers", self.kernel.name())
    }

    fn stage(&self) -> &'static str {
        "register-models"
    }

    fn run(&self, ctx: &mut JobCtx<'_>) -> Result<Self::Output, String> {
        let p = cached_prepared(ctx.cache, self.kernel, 100, 5);
        let area = bind_area_aware(&p.dfg, &p.schedule, &p.alloc).map_err(|e| e.to_string())?;
        let naive = bind_naive(&p.dfg, &p.schedule, &p.alloc).map_err(|e| e.to_string())?;
        let lb = register_lower_bound(&p.dfg, &p.schedule);
        Ok(vec![
            self.kernel.name().to_string(),
            lb.to_string(),
            register_count(&p.dfg, &p.schedule, &area, &p.alloc).to_string(),
            register_count(&p.dfg, &p.schedule, &naive, &p.alloc).to_string(),
        ])
    }
}

fn register_models(engine: &Engine) -> Result<(), Vec<(String, String)>> {
    println!(
        "== 3. register models: per-FU banks (binding-dependent) vs global left-edge bound =="
    );
    let cells: Vec<RegisterRowCell> = Kernel::ALL
        .into_iter()
        .map(|kernel| RegisterRowCell { kernel })
        .collect();
    let report = engine.run(&cells);
    let failures: Vec<(String, String)> = report
        .failures()
        .map(|(c, m)| (c.to_string(), m.to_string()))
        .collect();
    if !failures.is_empty() {
        return Err(failures);
    }
    let rows: Vec<Vec<String>> = report.outputs().cloned().collect();
    println!(
        "{}",
        render_table(
            &[
                "kernel",
                "global lower bound",
                "area-aware (per-FU)",
                "naive (per-FU)"
            ],
            &rows
        )
    );
    println!("(the per-FU model responds to binding choices; the bound does not)");
    println!();
    Ok(())
}

/// One kernel row of the switching-baseline comparison (part 4).
struct SwitchingRowCell {
    kernel: Kernel,
}

impl Job for SwitchingRowCell {
    type Output = Vec<String>;

    fn label(&self) -> String {
        format!("{}/switching", self.kernel.name())
    }

    fn stage(&self) -> &'static str {
        "switching-baselines"
    }

    fn run(&self, ctx: &mut JobCtx<'_>) -> Result<Self::Output, String> {
        let p = cached_prepared(ctx.cache, self.kernel, 150, 5);
        let power = bind_power_aware(&p.dfg, &p.schedule, &p.alloc, &p.switching)
            .map_err(|e| e.to_string())?;
        let naive = bind_naive(&p.dfg, &p.schedule, &p.alloc).map_err(|e| e.to_string())?;
        let random = bind_random(&p.dfg, &p.schedule, &p.alloc, 7).map_err(|e| e.to_string())?;
        let rate = |b| switching(&p.schedule, b, &p.alloc, &p.switching).rate;
        Ok(vec![
            self.kernel.name().to_string(),
            format!("{:.4}", rate(&power)),
            format!("{:.4}", rate(&naive)),
            format!("{:.4}", rate(&random)),
        ])
    }
}

fn switching_baselines(engine: &Engine) -> Result<(), Vec<(String, String)>> {
    println!("== 4. switching rates: power-aware vs naive vs random binding ==");
    let cells: Vec<SwitchingRowCell> =
        [Kernel::Dct, Kernel::Jdmerge4, Kernel::Motion2, Kernel::Fft]
            .into_iter()
            .map(|kernel| SwitchingRowCell { kernel })
            .collect();
    let report = engine.run(&cells);
    let failures: Vec<(String, String)> = report
        .failures()
        .map(|(c, m)| (c.to_string(), m.to_string()))
        .collect();
    if !failures.is_empty() {
        return Err(failures);
    }
    let rows: Vec<Vec<String>> = report.outputs().cloned().collect();
    println!(
        "{}",
        render_table(&["kernel", "power-aware", "naive", "random"], &rows)
    );
    println!("(power-aware must be the column minimum — it is the Fig. 6 baseline)");
    Ok(())
}

fn main() {
    let args = EngineArgs::parse("ablation");
    if args.json.is_some() {
        eprintln!("ablation: --json is not supported: its three engine runs have no single metrics report");
        std::process::exit(2);
    }
    // One obs session spans all three engine runs of the ablation.
    let obs = args.obs_session();
    let engine = Engine::new(args.engine_config());

    let mut all_failures = Vec::new();
    if let Err(f) = skew_sweep(&engine) {
        all_failures.extend(f);
    }
    println!();
    smoothing_sweep();
    if let Err(f) = register_models(&engine) {
        all_failures.extend(f);
    }
    if let Err(f) = switching_baselines(&engine) {
        all_failures.extend(f);
    }

    args.finish("ablation", obs, None, &all_failures);
}
