//! The benchmark's own checks: `BENCHMARK.json` names exactly the metrics
//! the binary reports, and every workload's deterministic work counts
//! repeat exactly across runs at one seed (and, for `grid`, across 1 and
//! 2 engine workers).
//!
//! Run in release mode (the workloads are full size):
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

use lockbind_obs::Json;
use lockbind_perfbench::{run, Args, Workload, END_TO_END, PER_LAYER};
use lockbind_serve::jsonin;

/// Workload runs share the process-global metrics registry, so they must
/// not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn checkout() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn counts(workload: Workload, seed: u64, workers: usize) -> BTreeMap<String, u64> {
    let mut args = Args::new(workload, seed);
    args.seconds = 0.0;
    args.workers = workers;
    args.results_dir = checkout().join("results");
    args.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test");
    std::fs::create_dir_all(&args.out_dir).expect("out dir");
    let outcome = run(&args);
    assert!(
        outcome.problems.is_empty(),
        "{workload:?}: {:?}",
        outcome.problems
    );
    assert_eq!(outcome.failed, 0, "{workload:?} failed ops");
    assert!(
        !outcome.counts.is_empty(),
        "{workload:?} recorded no work counts"
    );
    outcome.counts
}

#[test]
fn grid_counts_repeat_across_runs_and_worker_counts() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let first = counts(Workload::Grid, 7, 2);
    assert_eq!(
        first,
        counts(Workload::Grid, 7, 2),
        "second run at 2 workers"
    );
    assert_eq!(first, counts(Workload::Grid, 7, 1), "run at 1 worker");
}

#[test]
fn attack_counts_repeat_across_runs() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(
        counts(Workload::Attack, 7, 2),
        counts(Workload::Attack, 7, 2)
    );
}

#[test]
fn serve_counts_repeat_across_runs() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(counts(Workload::Serve, 7, 2), counts(Workload::Serve, 7, 2));
}

fn field<'a>(doc: &'a Json, name: &str) -> &'a Json {
    match doc {
        Json::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {name}")),
        _ => panic!("not an object where {name} was expected"),
    }
}

fn names(doc: &Json, list: &str) -> Vec<(String, String)> {
    let Json::Array(items) = field(doc, list) else {
        panic!("{list} is not an array");
    };
    items
        .iter()
        .map(|item| {
            let text = |k: &str| match field(item, k) {
                Json::Str(s) => s.clone(),
                _ => panic!("{list}.{k} is not a string"),
            };
            let unit = if list == "workloads" {
                String::new()
            } else {
                text("unit")
            };
            (text("name"), unit)
        })
        .collect()
}

#[test]
fn benchmark_json_names_the_reported_metrics() {
    let text = std::fs::read(checkout().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = jsonin::parse(&text).expect("BENCHMARK.json parses");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = names(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
