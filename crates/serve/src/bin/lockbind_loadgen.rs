//! `lockbind_loadgen`: seeded heavy-tail load generator and fixed
//! replay client for `lockbind-serve`.
//!
//! Modes:
//! * default — Pareto-gap load run; prints a summary and optionally
//!   writes the benchmark JSON (`--json PATH`);
//! * `--fixed` — replays the deterministic probe list and prints one
//!   response line per probe (CI diffs this against a golden file);
//! * `--one-shot KIND` — sends a single request of `KIND` and prints
//!   the response.

use std::io::Write;

use lockbind_obs::Json;
use lockbind_serve::client::ServeClient;
use lockbind_serve::loadgen::{run_fixed, run_load, scrape, LoadConfig};

fn usage() -> ! {
    eprintln!(
        "usage: lockbind_loadgen [--addr HOST:PORT] [--requests N] [--concurrency N] \
         [--seed N] [--alpha X] [--scale-ms X] [--tenants N] [--deadline-ms MS] \
         [--json PATH] [--fixed] [--one-shot KIND] [--scrape HOST:PORT]\n\
         \n\
         --addr HOST:PORT   daemon address (default 127.0.0.1:7641)\n\
         --requests N       total requests, 1..=1000000 (default 200)\n\
         --concurrency N    connections, 1..=256 (default 4)\n\
         --seed N           base RNG seed (default 228663329)\n\
         --alpha X          Pareto shape > 0.1 (default 1.3)\n\
         --scale-ms X       Pareto scale in ms >= 0 (default 2.0)\n\
         --tenants N        tenant pool size, 1..=64 (default 3)\n\
         --deadline-ms MS   per-request deadline (default: none)\n\
         --json PATH        write the benchmark report JSON\n\
         --fixed            replay the deterministic probe list and print responses\n\
         --one-shot KIND    send one request of KIND (ping, stats, introspect, bind, codesign,\n\
                            error_rate, locked_sim, sat_attack) and print the response\n\
         --scrape HOST:PORT fetch one Prometheus exposition document from the daemon's\n\
                            --telemetry-addr endpoint and print it"
    );
    std::process::exit(2);
}

fn bad_arg(message: &str) -> ! {
    eprintln!("lockbind_loadgen: {message}");
    usage();
}

fn parse_u64(flag: &str, value: &str, min: u64, max: u64) -> u64 {
    let parsed: u64 = value
        .parse()
        .unwrap_or_else(|_| bad_arg(&format!("{flag}: '{value}' is not a non-negative integer")));
    if !(min..=max).contains(&parsed) {
        bad_arg(&format!("{flag}: must be between {min} and {max}"));
    }
    parsed
}

fn parse_f64(flag: &str, value: &str, min: f64) -> f64 {
    let parsed: f64 = value
        .parse()
        .unwrap_or_else(|_| bad_arg(&format!("{flag}: '{value}' is not a number")));
    if !parsed.is_finite() || parsed < min {
        bad_arg(&format!("{flag}: must be a finite number >= {min}"));
    }
    parsed
}

fn one_shot_request(kind: &str) -> Json {
    let params: Vec<(&str, Json)> = match kind {
        "ping" | "stats" | "introspect" => Vec::new(),
        "bind" => vec![
            ("kernel", Json::from("fir")),
            ("frames", Json::from(60u64)),
            ("locked_fus", Json::from(1u64)),
            ("locked_inputs", Json::from(2u64)),
        ],
        "codesign" => vec![
            ("kernel", Json::from("fir")),
            ("frames", Json::from(60u64)),
            ("locked_fus", Json::from(1u64)),
            ("inputs_per_fu", Json::from(2u64)),
        ],
        "error_rate" => vec![
            ("kernel", Json::from("fir")),
            ("frames", Json::from(40u64)),
            ("locked_fus", Json::from(1u64)),
            ("locked_inputs", Json::from(1u64)),
            ("num_candidates", Json::from(6u64)),
            ("max_assignments", Json::from(200u64)),
            ("optimal_budget", Json::from(2000u64)),
        ],
        "locked_sim" => vec![("kernel", Json::from("fir")), ("frames", Json::from(60u64))],
        "sat_attack" => vec![("scheme", Json::from("rll")), ("width", Json::from(3u64))],
        other => bad_arg(&format!("--one-shot: unknown kind '{other}'")),
    };
    let mut fields = vec![("id", Json::from(1u64)), ("kind", Json::from(kind))];
    if !params.is_empty() {
        fields.push(("params", Json::obj(params)));
    }
    Json::obj(fields)
}

fn main() {
    let mut cfg = LoadConfig::default();
    let mut json_path: Option<std::path::PathBuf> = None;
    let mut fixed = false;
    let mut one_shot: Option<String> = None;
    let mut scrape_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| -> String {
            args.next()
                .unwrap_or_else(|| bad_arg(&format!("{flag}: missing value")))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value_of("--addr"),
            "--requests" => {
                cfg.requests =
                    parse_u64("--requests", &value_of("--requests"), 1, 1_000_000) as usize;
            }
            "--concurrency" => {
                cfg.concurrency =
                    parse_u64("--concurrency", &value_of("--concurrency"), 1, 256) as usize;
            }
            "--seed" => cfg.seed = parse_u64("--seed", &value_of("--seed"), 0, u64::MAX),
            "--alpha" => cfg.alpha = parse_f64("--alpha", &value_of("--alpha"), 0.1),
            "--scale-ms" => cfg.scale_ms = parse_f64("--scale-ms", &value_of("--scale-ms"), 0.0),
            "--tenants" => {
                cfg.tenants = parse_u64("--tenants", &value_of("--tenants"), 1, 64) as usize;
            }
            "--deadline-ms" => {
                cfg.deadline_ms = Some(parse_u64(
                    "--deadline-ms",
                    &value_of("--deadline-ms"),
                    1,
                    3_600_000,
                ));
            }
            "--json" => json_path = Some(std::path::PathBuf::from(value_of("--json"))),
            "--fixed" => fixed = true,
            "--one-shot" => one_shot = Some(value_of("--one-shot")),
            "--scrape" => scrape_addr = Some(value_of("--scrape")),
            "--help" | "-h" => usage(),
            other => bad_arg(&format!("unknown argument '{other}'")),
        }
    }
    if (fixed as usize) + (one_shot.is_some() as usize) + (scrape_addr.is_some() as usize) > 1 {
        bad_arg("--fixed, --one-shot, and --scrape are mutually exclusive");
    }

    if let Some(addr) = scrape_addr {
        match scrape(&addr) {
            Ok(body) => print!("{body}"),
            Err(e) => {
                eprintln!("lockbind_loadgen: scrape failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(kind) = one_shot {
        let request = one_shot_request(&kind);
        let mut client = ServeClient::connect(&cfg.addr).unwrap_or_else(|e| {
            eprintln!("lockbind_loadgen: cannot connect to {}: {e}", cfg.addr);
            std::process::exit(1);
        });
        match client.call(&request) {
            Ok(outcome) => println!("{}", outcome.response.render()),
            Err(e) => {
                eprintln!("lockbind_loadgen: request failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if fixed {
        match run_fixed(&cfg.addr) {
            Ok(lines) => {
                for line in lines {
                    println!("{line}");
                }
            }
            Err(e) => {
                eprintln!("lockbind_loadgen: fixed replay failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let report = match run_load(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("lockbind_loadgen: load run failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "[loadgen] sent {} | ok {} error {} shed {} deadline_exceeded {} interrupted {}",
        report.sent,
        report.ok,
        report.error,
        report.shed,
        report.deadline_exceeded,
        report.interrupted
    );
    let lat = report.latency_summary();
    println!(
        "[loadgen] p50 {} us | p90 {} us | p99 {} us | p999 {} us | max {} us",
        lat.p50, lat.p90, lat.p99, lat.p999, lat.max
    );
    println!(
        "[loadgen] throughput {:.1} rps | shed rate {:.3} | cache hit rate {:.3}",
        report.throughput_rps(),
        report.shed_rate(),
        report.cache_hit_rate()
    );
    if let Some(path) = json_path {
        let rendered = report.to_json(&cfg).render();
        let write = std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(rendered.as_bytes()).and_then(|()| writeln!(f)));
        match write {
            Ok(()) => eprintln!("[loadgen] report written to {}", path.display()),
            Err(e) => {
                eprintln!("lockbind_loadgen: cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
}
