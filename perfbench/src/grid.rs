//! The `grid` workload: the full headline grid — every error-ratio cell,
//! one locked-simulation cell per kernel and the width-3 SAT-attack cells
//! — on a fresh engine per pass, so no cell result carries over between
//! passes and kernel preparation is part of every pass.
//!
//! Untraced runs time whole passes through the engine. Traced runs add
//! passes that call the same layer functions serially from the
//! benchmark, alternating traced and untraced, plus a replay of the
//! `ErrorSweep` calls over the grid's own configurations.
//!
//! The summary rendering (in the `headline` binary), the SAT cells' locks,
//! the locked-simulation cell body and the assignment enumeration are not
//! public in `lockbind-bench`, so this module mirrors them. The mirrors are
//! checked on every run: the summary against `results/HEADLINE_smoke.txt`,
//! the serial pass's records against the engine pass's byte for byte, and
//! the sweep replay's bounds against its exact scores.

use std::time::Instant;

use lockbind_attacks::{sat_attack, AttackConfig};
use lockbind_bench::codec::{encode_error_records, impact_record_json, sat_record_json};
use lockbind_bench::errors_experiment::geomean;
use lockbind_bench::{
    collect_headline_records, headline_grid, run_error_cell, ClassContext, ErrorRecord,
    ExperimentParams, HeadlineCell, ImpactRecord, PreparedKernel, SatRecord, SatScheme,
    SecurityAlgo,
};
use lockbind_core::locked_sim::{output_corruption, wrong_keys};
use lockbind_core::{codesign_heuristic, combinations, realize_locked_modules, ErrorSweep};
use lockbind_engine::{Engine, EngineConfig};
use lockbind_hls::{FuClass, FuId};
use lockbind_locking::{lock_anti_sat, lock_critical_minterms, lock_permutation, lock_rll};
use lockbind_mediabench::Kernel;
use lockbind_netlist::builders::adder_fu;
use lockbind_obs::Registry;

use crate::stats::{beyond, median, quantile};
use crate::trace::Tracer;
use crate::{
    check_recorded_digest, fnv64, obs_counts, pass_modes, splitmix64, timed, Args, Outcome, Pacer,
    SetupSamples, MIN_PASSES,
};

/// Profiling frames per kernel (the headline default).
pub const FRAMES: usize = 300;

/// The smoke configuration whose summary is committed as
/// `results/HEADLINE_smoke.txt`.
pub const SMOKE: (usize, u64) = (60, 5);

/// The records of one grid pass, in grid order.
#[derive(Debug, Clone, Default)]
pub struct GridRecords {
    /// Error-ratio records.
    pub errors: Vec<ErrorRecord>,
    /// Locked-simulation records, one per kernel.
    pub impacts: Vec<ImpactRecord>,
    /// SAT-attack records, one per scheme.
    pub sats: Vec<SatRecord>,
}

impl GridRecords {
    /// Every record, rendered exactly (the checkpoint codec for error
    /// records, the wire JSON for the others).
    pub fn render(&self) -> String {
        let mut out = encode_error_records(&self.errors);
        out.push('\n');
        for r in &self.impacts {
            out.push_str(&impact_record_json(r).render());
            out.push('\n');
        }
        for r in &self.sats {
            out.push_str(&sat_record_json(r).render());
            out.push('\n');
        }
        out
    }
}

fn engine(workers: usize, seed: u64) -> Engine {
    Engine::new(EngineConfig {
        threads: workers,
        root_seed: seed,
        progress: false,
        ..EngineConfig::default()
    })
}

/// One engine pass: the records, each cell's wall time in ms, and the
/// number of cells that failed, timed out or were skipped.
pub fn engine_pass(
    cells: &[HeadlineCell],
    workers: usize,
    seed: u64,
) -> (GridRecords, Vec<f64>, u64) {
    let report = engine(workers, seed).run(cells);
    let (errors, impacts, sats, failures) = collect_headline_records(&report.results);
    let cell_ms = report
        .metrics
        .cells
        .iter()
        .map(|c| c.wall.as_secs_f64() * 1e3)
        .collect();
    let failed = failures.len() as u64 + report.metrics.cells_skipped as u64;
    (
        GridRecords {
            errors,
            impacts,
            sats,
        },
        cell_ms,
        failed,
    )
}

/// The `headline` binary's summary of a grid's records, byte for byte.
pub fn render_summary(records: &GridRecords) -> String {
    use std::fmt::Write;
    let collect = |algo: SecurityAlgo, vs_area: bool| -> Vec<f64> {
        records
            .errors
            .iter()
            .filter(|r| r.algo == algo)
            .map(|r| if vs_area { r.vs_area } else { r.vs_power })
            .collect()
    };
    let amean = |vals: &[f64]| vals.iter().sum::<f64>() / vals.len() as f64;
    let obf_area = collect(SecurityAlgo::ObfAware, true);
    let obf_power = collect(SecurityAlgo::ObfAware, false);
    let cd_area = collect(SecurityAlgo::CoDesignHeuristic, true);
    let cd_power = collect(SecurityAlgo::CoDesignHeuristic, false);

    let mut s = String::new();
    let _ = writeln!(
        s,
        "Headline numbers over all kernels/configs/combination assignments;"
    );
    let _ = writeln!(
        s,
        "arithmetic mean of per-config mean ratios (the paper's convention),"
    );
    let _ = writeln!(
        s,
        "geometric mean in (parens); paper reference values in [brackets]"
    );
    let _ = writeln!(s);
    let _ = writeln!(s, "obfuscation-aware binding:");
    let _ = writeln!(
        s,
        "  vs area-aware : {:7.1}x ({:.1}x)   [22x]",
        amean(&obf_area),
        geomean(obf_area.iter().copied())
    );
    let _ = writeln!(
        s,
        "  vs power-aware: {:7.1}x ({:.1}x)   [29x]",
        amean(&obf_power),
        geomean(obf_power.iter().copied())
    );
    let _ = writeln!(
        s,
        "  combined      : {:7.1}x   [26x]",
        (amean(&obf_area) + amean(&obf_power)) / 2.0
    );
    let _ = writeln!(s);
    let _ = writeln!(s, "binding-obfuscation co-design (P-time heuristic):");
    let _ = writeln!(
        s,
        "  vs area-aware : {:7.1}x ({:.1}x)   [82x]",
        amean(&cd_area),
        geomean(cd_area.iter().copied())
    );
    let _ = writeln!(
        s,
        "  vs power-aware: {:7.1}x ({:.1}x)   [115x]",
        amean(&cd_power),
        geomean(cd_power.iter().copied())
    );
    let _ = writeln!(
        s,
        "  combined      : {:7.1}x   [99x]",
        (amean(&cd_area) + amean(&cd_power)) / 2.0
    );
    let _ = writeln!(s);

    let mut degradations = Vec::new();
    for opt in records
        .errors
        .iter()
        .filter(|r| r.algo == SecurityAlgo::CoDesignOptimal)
    {
        if let Some(heur) = records.errors.iter().find(|h| {
            h.algo == SecurityAlgo::CoDesignHeuristic
                && h.kernel == opt.kernel
                && h.class == opt.class
                && h.locked_fus == opt.locked_fus
                && h.locked_inputs == opt.locked_inputs
        }) {
            if opt.mean_errors > 0.0 {
                degradations.push(1.0 - heur.mean_errors / opt.mean_errors);
            }
        }
    }
    if degradations.is_empty() {
        let _ = writeln!(
            s,
            "heuristic vs optimal: no tractable optimal configs were run"
        );
    } else {
        let mean = degradations.iter().sum::<f64>() / degradations.len() as f64;
        let max = degradations.iter().cloned().fold(0.0f64, f64::max);
        let _ = writeln!(
            s,
            "heuristic vs optimal co-design: mean degradation {:.3}% (max {:.3}%) over {} configs   [<0.5%]",
            mean * 100.0,
            max * 100.0,
            degradations.len()
        );
    }

    let _ = writeln!(s);
    let _ = writeln!(s, "end-to-end pipeline checks:");
    let corrupted = records
        .impacts
        .iter()
        .filter(|i| i.frames_corrupted > 0)
        .count();
    let _ = writeln!(
        s,
        "  locked-sim : {}/{} kernels corrupted under a wrong key",
        corrupted,
        records.impacts.len()
    );
    for r in &records.sats {
        let _ = writeln!(
            s,
            "  sat-attack : {:<17} {} key bits, {} DIPs, {} conflicts, {} props, {} GCs, key {}",
            r.scheme,
            r.key_bits,
            r.iterations,
            r.conflicts,
            r.propagations,
            r.gc_runs,
            if r.success { "found" } else { "NOT found" }
        );
    }
    s
}

/// The SAT-attack cells' lock, as the headline grid builds it.
fn sat_cell_lock(scheme: SatScheme, width: u32) -> Result<lockbind_locking::LockedNetlist, String> {
    let adder = adder_fu(width);
    match scheme {
        SatScheme::CriticalMinterm => lock_critical_minterms(&adder, &[5, 11]),
        SatScheme::Rll => lock_rll(&adder, 6, 11),
        SatScheme::AntiSat => lock_anti_sat(&adder),
        SatScheme::Permutation => lock_permutation(&adder, 2),
    }
    .map_err(|e| e.to_string())
}

/// Runs the grid serially from the benchmark, one layer call per span:
/// kernel generation (`mediabench`), preparation and class contexts
/// (`hls`), error cells, co-design, realization and locked simulation
/// (`core`), lock construction (`locking`) and SAT attacks (`attacks`).
/// Produces the same records as an engine pass, which the caller checks.
pub fn serial_pass(seed: u64, tracer: &Tracer, tag: u64) -> Result<GridRecords, String> {
    let params = ExperimentParams::default();
    tracer.span("bench.pass", tag, || {
        let mut out = GridRecords::default();
        let mut prepared_all = Vec::new();
        for kernel in Kernel::ALL {
            let bench = tracer.span("mediabench.generate", tag, || {
                kernel.benchmark(FRAMES, seed)
            });
            let trace = bench.trace.clone();
            let prepared =
                tracer.span("hls.prepare", tag, || PreparedKernel::from_benchmark(bench));
            for class in FuClass::ALL {
                let ctx = tracer
                    .span("hls.class_context", tag, || {
                        ClassContext::build(&prepared, class, params.num_candidates)
                    })
                    .map_err(|e| format!("{}/{class:?}: class context: {e}", kernel.name()))?;
                for fus in 1..=params.max_locked_fus {
                    for inputs in 1..=params.max_locked_inputs {
                        if let Some(ctx) = &ctx {
                            let records = tracer
                                .span("core.error_cell", tag, || {
                                    run_error_cell(&prepared, ctx, &params, fus, inputs)
                                })
                                .map_err(|e| format!("{}/{class:?}: {e}", kernel.name()))?;
                            out.errors.extend(records);
                        }
                    }
                }
            }
            prepared_all.push((prepared, trace));
        }
        for (prepared, trace) in &prepared_all {
            out.impacts.push(impact(prepared, trace, tracer, tag)?);
        }
        for scheme in SatScheme::ALL {
            let locked = tracer.span("locking.build", tag, || sat_cell_lock(scheme, 3))?;
            let outcome = tracer.span("attacks.sat_attack", tag, || {
                sat_attack(&locked, &AttackConfig::default())
            });
            out.sats.push(SatRecord {
                scheme: scheme.label(),
                key_bits: locked.key_bits(),
                iterations: outcome.iterations,
                success: outcome.success,
                conflicts: outcome.solver_stats.conflicts,
                propagations: outcome.solver_stats.propagations,
                gc_runs: outcome.solver_stats.gc_runs,
            });
        }
        Ok(out)
    })
}

/// One locked-simulation cell, as the headline grid runs it.
fn impact(
    prepared: &PreparedKernel,
    trace: &lockbind_hls::Trace,
    tracer: &Tracer,
    tag: u64,
) -> Result<ImpactRecord, String> {
    let class = if prepared.alloc.count(FuClass::Multiplier) > 0 {
        FuClass::Multiplier
    } else {
        FuClass::Adder
    };
    let candidates = prepared.candidates(class, 8);
    let design = tracer
        .span("core.codesign", tag, || {
            codesign_heuristic(
                &prepared.dfg,
                &prepared.schedule,
                &prepared.alloc,
                &prepared.profile,
                &[FuId::new(class, 0)],
                2.min(candidates.len()),
                &candidates,
            )
        })
        .map_err(|e| e.to_string())?;
    let modules = tracer
        .span("core.realize", tag, || {
            realize_locked_modules(&design.spec, prepared.dfg.width())
        })
        .map_err(|e| e.to_string())?;
    let keys = wrong_keys(&modules, 1);
    let corruption = tracer
        .span("core.locked_sim", tag, || {
            output_corruption(&prepared.dfg, &design.binding, &modules, &keys, trace)
        })
        .map_err(|e| e.to_string())?;
    Ok(ImpactRecord {
        kernel: prepared.name.clone(),
        frame_rate: corruption.frame_rate(),
        frames_corrupted: corruption.frames_corrupted,
        frames_total: corruption.frames_total,
    })
}

/// Per-call times of the `ErrorSweep` replay.
#[derive(Debug, Default)]
pub struct SweepReplay {
    /// `set_slot` calls and their summed seconds.
    pub updates: (u64, f64),
    /// `solve_errors` calls and their summed seconds.
    pub solves: (u64, f64),
    /// `upper_bound` calls and their summed seconds.
    pub bounds: (u64, f64),
}

/// The combination assignments the obf-aware cell scores for one
/// configuration: exhaustive when the product fits `max_assignments`,
/// otherwise the same seeded subsample.
fn assignments(
    params: &ExperimentParams,
    fus: usize,
    combos: usize,
    inputs: usize,
) -> Vec<Vec<usize>> {
    let total = (combos as u128)
        .checked_pow(fus as u32)
        .unwrap_or(u128::MAX);
    if total <= params.max_assignments as u128 {
        let mut all = Vec::new();
        let mut counter = vec![0usize; fus];
        'outer: loop {
            all.push(counter.clone());
            for digit in counter.iter_mut() {
                *digit += 1;
                if *digit < combos {
                    continue 'outer;
                }
                *digit = 0;
            }
            break;
        }
        all
    } else {
        let mut state = params.seed ^ ((fus as u64) << 32) ^ inputs as u64;
        (0..params.max_assignments)
            .map(|_| {
                (0..fus)
                    .map(|_| (splitmix64(&mut state) as usize) % combos)
                    .collect()
            })
            .collect()
    }
}

/// Drives `ErrorSweep` over every error-cell configuration of the grid at
/// `seed`, timing each `set_slot`, `upper_bound` and `solve_errors` call.
pub fn sweep_replay(seed: u64) -> Result<SweepReplay, String> {
    let params = ExperimentParams::default();
    let mut replay = SweepReplay::default();
    let clock = |acc: &mut (u64, f64), start: Instant| {
        acc.0 += 1;
        acc.1 += start.elapsed().as_secs_f64();
    };
    for kernel in Kernel::ALL {
        let prepared = PreparedKernel::new(kernel, FRAMES, seed);
        for class in FuClass::ALL {
            let Some(ctx) = ClassContext::build(&prepared, class, params.num_candidates)
                .map_err(|e| e.to_string())?
            else {
                continue;
            };
            let max_fus = params.max_locked_fus.min(prepared.alloc.count(class));
            let max_inputs = params.max_locked_inputs.min(ctx.candidates.len());
            for fus in 1..=max_fus {
                for inputs in 1..=max_inputs {
                    let ids: Vec<FuId> = (0..fus).map(|i| FuId::new(class, i)).collect();
                    let combos = combinations(ctx.candidates.len(), inputs);
                    let mut sweep = ErrorSweep::new(
                        &prepared.dfg,
                        &prepared.schedule,
                        &prepared.alloc,
                        &prepared.profile,
                        &ids,
                        &ctx.candidates,
                        &combos,
                    )
                    .map_err(|e| e.to_string())?;
                    for assign in assignments(&params, fus, combos.len(), inputs) {
                        for (slot, &combo) in assign.iter().enumerate() {
                            let start = Instant::now();
                            sweep.set_slot(slot, combo);
                            clock(&mut replay.updates, start);
                        }
                        let start = Instant::now();
                        let bound = sweep.upper_bound();
                        clock(&mut replay.bounds, start);
                        let start = Instant::now();
                        let errors = sweep.solve_errors().map_err(|e| e.to_string())?;
                        clock(&mut replay.solves, start);
                        if bound < errors {
                            return Err(format!(
                                "{}/{class:?}: sweep bound {bound} below exact errors {errors}",
                                kernel.name()
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(replay)
}

/// Runs the `grid` workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let params = ExperimentParams::default();

    // Correctness: the smoke grid reproduces the committed summary.
    let golden_path = args.results_dir.join("HEADLINE_smoke.txt");
    match std::fs::read_to_string(&golden_path) {
        Ok(golden) => {
            let cells = headline_grid(&Kernel::ALL, SMOKE.0, SMOKE.1, &params);
            let (records, _, failed) = engine_pass(&cells, args.workers, SMOKE.1);
            if failed > 0 || render_summary(&records) != golden {
                out.problem(format!(
                    "headline {} {} summary differs from {}",
                    SMOKE.0,
                    SMOKE.1,
                    golden_path.display()
                ));
            }
        }
        Err(e) => out.problem(format!("cannot read {}: {e}", golden_path.display())),
    }

    let make = || {
        let cells = headline_grid(&Kernel::ALL, FRAMES, args.seed, &params);
        drop(engine(args.workers, args.seed));
        cells
    };
    let mut setup = SetupSamples::default();
    let cells = setup.sample(make);

    // Engine passes: all of an untraced run, a third of a traced one.
    let budget = if args.trace {
        args.budget() / 3
    } else {
        args.budget()
    };
    let started = Instant::now();
    let mut pacer = Pacer::new(budget, MIN_PASSES);
    let mut pass_s = Vec::new();
    let mut cell_ms = Vec::new();
    let mut first: Option<(String, String)> = None;
    while pacer.another() {
        setup.sample(make);
        let before = Registry::global().snapshot();
        let ((records, cells_ms, failed), secs) =
            timed(|| engine_pass(&cells, args.workers, args.seed));
        let counts = Registry::global().snapshot().delta_from(&before);
        out.attempted += cells.len() as u64;
        out.failed += failed;
        pass_s.push(secs);
        cell_ms.extend(cells_ms);
        let rendered = records.render();
        let counts_text = counts.render_deterministic();
        match &first {
            None => {
                out.counts.extend(obs_counts(&counts));
                out.set_obs_layer_counts(&counts);
                first = Some((rendered, counts_text));
            }
            Some((r, c)) => {
                if *r != rendered {
                    out.problem(format!("pass {} records differ from pass 1", pass_s.len()));
                }
                if *c != counts_text {
                    out.problem(format!(
                        "pass {} work counts differ from pass 1",
                        pass_s.len()
                    ));
                }
            }
        }
    }
    let (rendered, _) = first.expect("at least one pass");
    let digest = fnv64(rendered.as_bytes());
    out.counts.insert("grid.records_digest".into(), digest);
    if let Some(p) = check_recorded_digest(
        &args.out_dir,
        &format!("grid-{}-seed{}", FRAMES, args.seed),
        digest,
    ) {
        out.problem(p);
    }
    out.set("setup_s", setup.median());
    out.set("pass_s", median(&pass_s));
    out.note(format!(
        "pass times (s): {}",
        pass_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let p99 = quantile(&cell_ms, 0.99);
    out.set("grid_cell_p99_ms", p99);
    out.note(format!(
        "grid_pass_s = {:.4} s (median of {} passes of {} cells at {} workers)",
        median(&pass_s),
        pass_s.len(),
        cells.len(),
        args.workers
    ));
    out.note(format!(
        "grid_cell_p99_ms = {p99:.3} ms (p99 of {} cell times, {} beyond; median {:.3} ms)",
        cell_ms.len(),
        beyond(cell_ms.len(), 0.99),
        median(&cell_ms)
    ));

    if args.trace {
        traced(args, &rendered, started, &mut out);
    }
    out
}

/// The traced part of a `grid` run: alternating untraced and traced
/// serial passes for the rest of the budget, then the sweep replay.
fn traced(args: &Args, engine_rendered: &str, started: Instant, out: &mut Outcome) {
    let tracer = Tracer::new(true);
    let quiet = Tracer::new(false);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut tag = 0;
    let mut pacer = Pacer::new(args.budget().saturating_sub(started.elapsed()), 2);
    while pacer.another() {
        for &on in pass_modes(true, untraced.len()) {
            tag += 1;
            let t = if on { &tracer } else { &quiet };
            let (result, secs) = timed(|| serial_pass(args.seed, t, tag));
            if on {
                traced.push(secs);
            } else {
                untraced.push(secs);
            }
            match result {
                Ok(records) if records.render() == engine_rendered => {}
                Ok(_) => out.problem("serial pass records differ from the engine pass"),
                Err(e) => out.problem(format!("serial pass failed: {e}")),
            }
        }
    }
    out.spans = tracer.spans();
    out.set_overhead(&untraced, &traced);
    out.set_layer_times(traced.len());
    let kernels = Kernel::ALL.len() as f64;
    let (prepare, _) = out.span_mean("hls.prepare", 1e6);
    let (class_ctx, _) = out.span_mean("hls.class_context", 1e6);
    let (cell, cells) = out.span_mean("core.error_cell", 1e6);
    let (sim, _) = out.span_mean("core.locked_sim", 1e6);
    let (build, _) = out.span_mean("locking.build", 1e6);
    out.set("hls.prepare_ms", prepare);
    out.set("hls.class_context_ms", class_ctx);
    out.set("core.error_cell_ms", cell);
    out.set("core.locked_sim_ms", sim);
    out.set("locking.build_ms", build);
    out.note(format!(
        "per call: prepare {prepare:.3} ms x {kernels}, class context {class_ctx:.3} ms, error cell {cell:.3} ms ({cells} calls), locked sim {sim:.3} ms"
    ));

    match sweep_replay(args.seed) {
        Ok(r) => {
            let us = |(n, s): (u64, f64)| crate::stats::ratio(s * 1e6, n as f64);
            out.set("core.sweep_update_us", us(r.updates));
            out.set("core.sweep_solve_us", us(r.solves));
            out.set("core.sweep_bound_us", us(r.bounds));
            out.set("core.sweep_updates", r.updates.0 as f64);
            out.set("core.sweep_solves", r.solves.0 as f64);
            out.set("core.sweep_bounds", r.bounds.0 as f64);
            out.counts.insert("sweep.updates".into(), r.updates.0);
            out.counts.insert("sweep.solves".into(), r.solves.0);
            out.counts.insert("sweep.bounds".into(), r.bounds.0);
            out.note(format!(
                "sweep replay: set_slot {} calls {:.3} s, upper_bound {} calls {:.3} s, solve_errors {} calls {:.3} s",
                r.updates.0, r.updates.1, r.bounds.0, r.bounds.1, r.solves.0, r.solves.1
            ));
        }
        Err(e) => out.problem(format!("sweep replay: {e}")),
    }
}
