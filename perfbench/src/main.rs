//! Command line of the lockbind benchmark:
//!
//! ```text
//! lockbind-perfbench --workload grid|attack|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics of an untraced run, or the per-layer
//! metrics of a traced run). Exits 1 when a correctness check fails and
//! 2 on bad arguments or unwritable output.

use std::process::ExitCode;

use lockbind_perfbench::trace::write_spans;
use lockbind_perfbench::{run, Args, Workload, END_TO_END, HELD_OUT_SEED, PER_LAYER};

fn parse() -> Result<Args, String> {
    let mut args = Args::new(Workload::Grid, 0);
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lockbind-perfbench: {e}");
            eprintln!(
                "usage: lockbind-perfbench --workload grid|attack|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "lockbind-perfbench: cannot create {}: {e}",
            args.out_dir.display()
        );
        return ExitCode::from(2);
    }
    let mut outcome = run(&args);

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let counts: String = outcome
        .counts
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    let counts_path = args.out_dir.join(format!("{stem}.counts"));
    if let Err(e) = std::fs::write(&counts_path, &counts) {
        eprintln!(
            "lockbind-perfbench: cannot write {}: {e}",
            counts_path.display()
        );
        return ExitCode::from(2);
    }
    if args.trace {
        let spans_path = args.out_dir.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = write_spans(&spans_path, &outcome.spans) {
            eprintln!(
                "lockbind-perfbench: cannot write {}: {e}",
                spans_path.display()
            );
            return ExitCode::from(2);
        }
        println!(
            "spans: {} written to {}",
            outcome.spans.len(),
            spans_path.display()
        );
    }

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            outcome.problem(format!("metric {name} is not finite"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    if outcome.attempted == 0 {
        outcome.problem("no operation was attempted");
    }
    if !args.trace
        && END_TO_END
            .iter()
            .any(|(name, _)| !outcome.metrics.contains_key(name))
    {
        outcome.problem("an end-to-end metric was not measured");
    }

    println!(
        "workload {} seed {} ({} s, trace {}; held-out seed {HELD_OUT_SEED})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &outcome.notes {
        println!("  {line}");
    }
    println!(
        "  ops attempted {}, ops_failed {}",
        outcome.attempted, outcome.failed
    );
    println!(
        "  work counts: {} written to {}",
        outcome.counts.len(),
        counts_path.display()
    );
    for (name, unit) in wanted {
        println!(
            "  {name:<28} {:>16.6} {unit}",
            outcome.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    for p in &outcome.problems {
        println!("  CHECK FAILED: {p}");
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
