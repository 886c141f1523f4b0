//! The `serve` workload: the daemon, started in-process with two workers
//! and a durable cache in a fresh directory, answers a closed loop of two
//! connections with no think time. Stream A runs, the daemon restarts on
//! the same directory, then stream B runs. One such cycle is a pass;
//! every pass starts from an empty directory, so each one does the same
//! work.
//!
//! Requests follow the load generator's kind mix (bind 50%, codesign 20%,
//! error_rate 10%, locked_sim 10%, sat_attack 10%). Each request's
//! kernel-preparation seed is drawn from a pool sized so that about half
//! of stream A's requests are first seen: misses compute and take an
//! fsync'd durable append, repeats are in-memory hits, and after the
//! restart the first touch of a key is a durable read.
//!
//! Every pass ends by replaying its own recorded frames through the wire
//! parser and framing, and its (key, value) pairs through a scratch
//! durable store, so those layers are timed from outside.

use std::collections::{BTreeMap, HashMap};
use std::io::Cursor;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lockbind_durable::{SegmentStore, StoreConfig};
use lockbind_obs::{Json, Registry};
use lockbind_serve::client::{response_status, result_field};
use lockbind_serve::proto::{decode_request, RequestKind};
use lockbind_serve::wire::{read_frame, write_frame, FrameRead, DEFAULT_MAX_FRAME};
use lockbind_serve::{jsonin, run_fixed, start, ServeClient, ServerConfig, ServerHandle};

use crate::stats::{beyond, median, quantile, ratio};
use crate::trace::Tracer;
use crate::{obs_counts, pass_modes, splitmix64, Args, Outcome, Pacer, MIN_PASSES};

/// Requests per stream.
pub const STREAM_LEN: usize = 600;

const KERNELS: [&str; 4] = ["fir", "dct", "fft", "motion2"];
const SCHEMES: [&str; 4] = ["critical-minterm", "rll", "anti-sat", "permutation"];

/// One request of a stream: its identity (kind and parameters, without
/// id or tenant) and the parameters to send.
#[derive(Debug, Clone)]
pub struct Request {
    /// Kind and rendered parameters: equal keys ask the same question.
    pub key: String,
    kind: &'static str,
    params: Json,
}

impl Request {
    fn doc(&self, id: u64) -> Json {
        Json::obj([
            ("id", Json::from(id)),
            ("kind", Json::from(self.kind)),
            ("tenant", Json::from(format!("t{}", id % 2))),
            ("params", self.params.clone()),
        ])
    }
}

fn draw(state: &mut u64, pool: u64, seed_base: u64) -> Request {
    let kernel = KERNELS[(splitmix64(state) % KERNELS.len() as u64) as usize];
    let pick = splitmix64(state) % 10;
    let scheme = SCHEMES[(splitmix64(state) % SCHEMES.len() as u64) as usize];
    let seed = seed_base + splitmix64(state) % pool;
    let (kind, params) = match pick {
        0..=4 => (
            "bind",
            vec![
                ("kernel", Json::from(kernel)),
                ("frames", Json::from(60u64)),
                ("seed", Json::from(seed)),
                ("locked_fus", Json::from(1u64)),
                ("locked_inputs", Json::from(2u64)),
                ("num_candidates", Json::from(8u64)),
            ],
        ),
        5 | 6 => (
            "codesign",
            vec![
                ("kernel", Json::from(kernel)),
                ("frames", Json::from(60u64)),
                ("seed", Json::from(seed)),
                ("locked_fus", Json::from(1u64)),
                ("inputs_per_fu", Json::from(2u64)),
            ],
        ),
        7 => (
            "error_rate",
            vec![
                ("kernel", Json::from("fir")),
                ("frames", Json::from(40u64)),
                ("seed", Json::from(seed)),
                ("locked_fus", Json::from(1u64)),
                ("locked_inputs", Json::from(1u64)),
                ("num_candidates", Json::from(6u64)),
                ("max_assignments", Json::from(200u64)),
                ("optimal_budget", Json::from(2000u64)),
            ],
        ),
        8 => (
            "locked_sim",
            vec![
                ("kernel", Json::from(kernel)),
                ("frames", Json::from(60u64)),
                ("seed", Json::from(seed)),
            ],
        ),
        _ => (
            "sat_attack",
            vec![("scheme", Json::from(scheme)), ("width", Json::from(3u64))],
        ),
    };
    let params = Json::obj(params);
    Request {
        key: format!("{kind} {}", params.render()),
        kind,
        params,
    }
}

fn first_seen_share(stream: &[Request]) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let fresh = stream
        .iter()
        .filter(|r| seen.insert(r.key.as_str()))
        .count();
    ratio(fresh as f64, stream.len() as f64)
}

/// Streams A and B for `seed`, with the seed pool sized so that stream
/// A's first-seen share is closest to one half.
pub fn streams(seed: u64) -> (Vec<Request>, Vec<Request>) {
    let mut base_state = seed;
    let seed_base = 1 + splitmix64(&mut base_state) % 1_000_000;
    let gen = |pool: u64, len: usize, skip: usize| -> Vec<Request> {
        let mut state = seed ^ 0x5EED_5E4E;
        (0..skip + len)
            .map(|_| draw(&mut state, pool, seed_base))
            .skip(skip)
            .collect()
    };
    let pool = (1..=STREAM_LEN as u64)
        .min_by(|&a, &b| {
            let da = (first_seen_share(&gen(a, STREAM_LEN, 0)) - 0.5).abs();
            let db = (first_seen_share(&gen(b, STREAM_LEN, 0)) - 0.5).abs();
            da.total_cmp(&db)
        })
        .expect("non-empty range");
    (gen(pool, STREAM_LEN, 0), gen(pool, STREAM_LEN, STREAM_LEN))
}

/// One answered (or lost) request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Index into the stream.
    pub index: usize,
    /// Client-side latency in milliseconds.
    pub latency_ms: f64,
    /// The response frame, or `None` when it was lost.
    pub raw: Option<Vec<u8>>,
}

/// Runs one stream as a closed loop of `conns` connections.
fn stream(
    addr: &str,
    requests: &[Request],
    conns: usize,
    id_base: u64,
    tracer: &Tracer,
) -> Result<(Vec<Reply>, f64), String> {
    let next = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::with_capacity(requests.len()));
    let parent = tracer.current();
    let clients: Vec<ServeClient> = (0..conns)
        .map(|_| ServeClient::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect::<Result<_, _>>()?;
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (conn, mut client) in clients.into_iter().enumerate() {
            let (next, replies) = (&next, &replies);
            scope.spawn(move || {
                tracer.adopt(parent, || {
                    tracer.span("bench.conn", conn as u64, || loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= requests.len() {
                            return;
                        }
                        let id = id_base + index as u64;
                        let doc = requests[index].doc(id);
                        let sent = Instant::now();
                        let result = tracer.span("serve.call", id, || client.call(&doc));
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let raw = match result {
                            Ok(outcome) => Some(outcome.raw),
                            Err(_) => {
                                if let Ok(fresh) = ServeClient::connect(addr) {
                                    client = fresh;
                                }
                                None
                            }
                        };
                        replies.lock().expect("replies poisoned").push(Reply {
                            index,
                            latency_ms,
                            raw,
                        });
                    });
                });
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let mut replies = replies.into_inner().expect("replies poisoned");
    replies.sort_by_key(|r| r.index);
    Ok((replies, wall))
}

fn server(dir: &Path, workers: usize) -> Result<ServerHandle, String> {
    start(ServerConfig {
        workers,
        cache_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))
}

/// The daemon's `stats` body.
fn stats(addr: &str) -> Result<Json, String> {
    let mut client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
    let doc = Json::obj([("id", Json::from(0u64)), ("kind", Json::from("stats"))]);
    let outcome = client.call(&doc).map_err(|e| format!("stats: {e}"))?;
    result_field(&outcome.response, "cache")
        .zip(result_field(&outcome.response, "durable"))
        .map(|(c, d)| Json::obj([("cache", c.clone()), ("durable", d.clone())]))
        .ok_or_else(|| "stats response lacks cache/durable".to_string())
}

fn num(doc: &Json, path: &[&str]) -> u64 {
    let mut cur = doc;
    for key in path {
        match cur {
            Json::Object(pairs) => match pairs.iter().find(|(k, _)| k == key) {
                Some((_, v)) => cur = v,
                None => return 0,
            },
            _ => return 0,
        }
    }
    match cur {
        Json::UInt(v) => *v,
        Json::Float(v) => *v as u64,
        _ => 0,
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Daemon start plus restart (with recovery), in seconds.
    pub setup_s: f64,
    /// Stream A plus stream B wall time, in seconds.
    pub streams_s: f64,
    /// Whole pass wall time, in seconds.
    pub pass_s: f64,
    /// Replies of both streams (stream B's indices offset by its start).
    pub replies: Vec<Reply>,
    /// Cache hits and misses (both daemons), durable appends and
    /// persisted hits.
    pub cache: [u64; 4],
    /// Mean seconds per frame of `jsonin::parse` and of a frame write
    /// plus read, over every recorded frame.
    pub wire_s: (f64, f64),
    /// Mean seconds per durable append and get, and seconds to reopen
    /// the replayed store.
    pub durable_s: (f64, f64, f64),
}

/// One pass: start, stream A, restart, stream B, stop, then replay the
/// recorded frames and (key, value) pairs.
pub fn pass(
    args: &Args,
    a: &[Request],
    b: &[Request],
    tracer: &Tracer,
    tag: u64,
) -> Result<PassResult, String> {
    let dir = args
        .out_dir
        .join(format!("serve-{}-{tag}", std::process::id()));
    let replay_dir = args
        .out_dir
        .join(format!("serve-{}-{tag}-replay", std::process::id()));
    for d in [&dir, &replay_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    let started = Instant::now();
    let result = tracer.span("bench.pass", tag, || -> Result<PassResult, String> {
        let mut out = PassResult::default();
        for (i, requests) in [a, b].into_iter().enumerate() {
            let t = Instant::now();
            let handle = tracer.span("serve.start", tag, || server(&dir, args.workers))?;
            out.setup_s += t.elapsed().as_secs_f64();
            let id_base = 1 + (i * STREAM_LEN) as u64;
            let run = stream(&handle.addr(), requests, args.workers, id_base, tracer);
            let stats = stats(&handle.addr());
            let summary = tracer.span("serve.drain", tag, || handle.drain_and_join());
            let (replies, wall) = run?;
            let stats = stats?;
            if summary.dropped > 0 {
                return Err(format!(
                    "daemon dropped {} admitted requests",
                    summary.dropped
                ));
            }
            out.streams_s += wall;
            out.replies.extend(replies.into_iter().map(|mut r| {
                r.index += i * STREAM_LEN;
                r
            }));
            out.cache[0] += num(&stats, &["cache", "hits"]);
            out.cache[1] += num(&stats, &["cache", "misses"]);
            out.cache[2] += num(&stats, &["durable", "appends"]);
            out.cache[3] += num(&stats, &["durable", "persisted_hits"]);
        }
        out.wire_s = tracer.span("bench.replay_wire", tag, || {
            replay_wire(a, b, &out.replies, tracer, tag)
        })?;
        out.durable_s = tracer.span("bench.replay_durable", tag, || {
            replay_durable(&replay_dir, a, b, &out.replies, tracer, tag)
        })?;
        Ok(out)
    });
    for d in [&dir, &replay_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    let mut out = result?;
    out.pass_s = started.elapsed().as_secs_f64();
    Ok(out)
}

fn request_of<'r>(a: &'r [Request], b: &'r [Request], index: usize) -> &'r Request {
    if index < a.len() {
        &a[index]
    } else {
        &b[index - a.len()]
    }
}

/// Replays every recorded request and response frame through
/// `jsonin::parse` and through `write_frame` + `read_frame`.
fn replay_wire(
    a: &[Request],
    b: &[Request],
    replies: &[Reply],
    tracer: &Tracer,
    tag: u64,
) -> Result<(f64, f64), String> {
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(2 * replies.len());
    for r in replies {
        let id = 1 + r.index as u64;
        frames.push(request_of(a, b, r.index).doc(id).render().into_bytes());
        if let Some(raw) = &r.raw {
            frames.push(raw.clone());
        }
    }
    let t = Instant::now();
    tracer.span("serve.parse", tag, || -> Result<(), String> {
        for f in &frames {
            jsonin::parse(f).map_err(|e| format!("replayed frame does not parse: {e}"))?;
        }
        Ok(())
    })?;
    let parse_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    tracer.span("serve.frames", tag, || -> Result<(), String> {
        let mut buf = Vec::new();
        for f in &frames {
            buf.clear();
            write_frame(&mut buf, f).map_err(|e| e.to_string())?;
            match read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME, None, None) {
                Ok(FrameRead::Frame(back)) if back == *f => {}
                _ => return Err("a replayed frame did not read back intact".into()),
            }
        }
        Ok(())
    })?;
    let frames_s = t.elapsed().as_secs_f64();
    let n = frames.len().max(1) as f64;
    Ok((parse_s / n, frames_s / n))
}

/// The durable (key, value) pair the daemon stores for a reply: the
/// work's cache key, and `O` plus the rendered result.
fn durable_pair(request: &Request, raw: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
    let doc = request.doc(0);
    let RequestKind::Work(work) = decode_request(&doc, false).ok()?.kind else {
        return None;
    };
    let response = jsonin::parse(raw).ok()?;
    let result = match &response {
        Json::Object(pairs) => pairs.iter().find(|(k, _)| k == "result").map(|(_, v)| v)?,
        _ => return None,
    };
    let mut value = vec![b'O'];
    value.extend_from_slice(result.render().as_bytes());
    Some((work.cache_key().as_bytes().to_vec(), value))
}

/// Appends the pass's distinct (key, value) pairs to a fresh store, reads
/// each back, then reopens the store (recovery over every record).
fn replay_durable(
    dir: &Path,
    a: &[Request],
    b: &[Request],
    replies: &[Reply],
    tracer: &Tracer,
    tag: u64,
) -> Result<(f64, f64, f64), String> {
    let mut pairs = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for r in replies {
        let request = request_of(a, b, r.index);
        if let (Some(raw), true) = (&r.raw, seen.insert(request.key.as_str())) {
            pairs.extend(durable_pair(request, raw));
        }
    }
    let cfg = || StoreConfig {
        fingerprint: 0x00BE_7C4B,
        ..StoreConfig::default()
    };
    let mut store = tracer
        .span("durable.open", tag, || SegmentStore::open(dir, cfg()))
        .map_err(|e| format!("replay store: {e}"))?
        .0;
    let t = Instant::now();
    for (k, v) in &pairs {
        tracer
            .span("durable.append", tag, || store.append(k, v))
            .map_err(|e| format!("replay append: {e}"))?;
    }
    let append_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for (k, v) in &pairs {
        if tracer.span("durable.get", tag, || store.get(k)).as_deref() != Some(v.as_slice()) {
            return Err("replayed durable record did not read back intact".into());
        }
    }
    let get_s = t.elapsed().as_secs_f64();
    drop(store);
    let t = Instant::now();
    let (_, report) = tracer
        .span("durable.recover", tag, || SegmentStore::open(dir, cfg()))
        .map_err(|e| format!("replay reopen: {e}"))?;
    let recover_s = t.elapsed().as_secs_f64();
    if report.live_records != pairs.len() as u64 {
        return Err(format!(
            "replayed store recovered {} of {} records",
            report.live_records,
            pairs.len()
        ));
    }
    let n = pairs.len().max(1) as f64;
    Ok((append_s / n, get_s / n, recover_s))
}

/// The response bytes after the echoed id: equal for equal questions.
fn body(raw: &[u8]) -> &[u8] {
    raw.iter()
        .position(|&c| c == b',')
        .map_or(raw, |i| &raw[i..])
}

/// Checks the fixed probe replay against the committed golden, on a
/// daemon of its own.
fn fixed_replay(args: &Args, out: &mut Outcome) {
    let golden_path = args.results_dir.join("SERVE_baseline.txt");
    let golden = match std::fs::read_to_string(&golden_path) {
        Ok(g) => g,
        Err(e) => return out.problem(format!("cannot read {}: {e}", golden_path.display())),
    };
    let dir = args
        .out_dir
        .join(format!("serve-{}-fixed", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = server(&dir, args.workers).and_then(|handle| {
        let lines = run_fixed(&handle.addr()).map_err(|e| format!("fixed replay: {e}"));
        handle.drain_and_join();
        lines
    });
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(lines) if lines.iter().map(|l| format!("{l}\n")).collect::<String>() == golden => {}
        Ok(_) => out.problem(format!(
            "fixed probe replay differs from {}",
            golden_path.display()
        )),
        Err(e) => out.problem(e),
    }
}

/// Runs the `serve` workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    fixed_replay(args, &mut out);
    let (a, b) = streams(args.seed);
    let miss_share = first_seen_share(&a);
    out.set("serve.miss_share", miss_share);

    let tracer = Tracer::new(args.trace);
    let quiet = Tracer::new(false);
    let mut setups = Vec::new();
    let mut streams_s = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut latencies = Vec::new();
    let mut ok = 0u64;
    let mut first_body: HashMap<&str, Vec<u8>> = HashMap::new();
    let mut first_counts: Option<BTreeMap<String, u64>> = None;
    let mut layer = PassResult::default();
    let mut tag = 0;
    let mut pacer = Pacer::new(args.budget(), MIN_PASSES);
    while pacer.another() {
        for &on in pass_modes(args.trace, untraced.len()) {
            tag += 1;
            let before = Registry::global().snapshot();
            let result = pass(args, &a, &b, if on { &tracer } else { &quiet }, tag);
            let delta = Registry::global().snapshot().delta_from(&before);
            let p = match result {
                Ok(p) => p,
                Err(e) => {
                    out.problem(format!("pass {tag}: {e}"));
                    return out;
                }
            };
            for r in &p.replies {
                out.attempted += 1;
                let request = request_of(&a, &b, r.index);
                match &r.raw {
                    Some(raw) => {
                        let status_ok = jsonin::parse(raw)
                            .map(|doc| response_status(&doc) == "ok")
                            .unwrap_or(false);
                        if status_ok {
                            if !on {
                                ok += 1;
                            }
                        } else {
                            out.failed += 1;
                        }
                        let seen = first_body
                            .entry(request.key.as_str())
                            .or_insert_with(|| body(raw).to_vec());
                        if seen.as_slice() != body(raw) {
                            out.problem(format!(
                                "request {} ({}) answered differently from its first answer",
                                r.index + 1,
                                request.key
                            ));
                        }
                    }
                    None => out.failed += 1,
                }
                if !on {
                    latencies.push(r.latency_ms);
                }
            }
            let mut counts = obs_counts(&delta);
            counts.insert("durable.appends".into(), p.cache[2]);
            counts.insert("durable.persisted_hits".into(), p.cache[3]);
            match &first_counts {
                None => {
                    out.set_obs_layer_counts(&delta);
                    first_counts = Some(counts);
                }
                Some(c) if *c != counts => {
                    out.problem(format!("pass {tag} work counts differ from pass 1"));
                }
                Some(_) => {}
            }
            if on {
                traced.push(p.pass_s);
                layer = p;
            } else {
                untraced.push(p.pass_s);
                setups.push(p.setup_s);
                streams_s.push(p.streams_s);
                if !args.trace {
                    layer = p;
                }
            }
        }
    }
    out.counts = first_counts.unwrap_or_default();

    let total_s: f64 = streams_s.iter().sum();
    let rps = ratio(ok as f64, total_s);
    let p50 = quantile(&latencies, 0.5);
    let p99 = quantile(&latencies, 0.99);
    out.set("setup_s", median(&setups));
    out.set("pass_s", median(&streams_s));
    out.set("serve_rps", rps);
    out.set("serve_p50_ms", p50);
    out.set("serve_p99_ms", p99);
    out.note(format!(
        "serve_rps = {rps:.1} req/s ({ok} ok over {total_s:.3} s of streams, {} passes of 2 x {STREAM_LEN} requests, {} connections)",
        streams_s.len(),
        args.workers
    ));
    out.note(format!(
        "serve_p50_ms = {p50:.4} ms, serve_p99_ms = {p99:.4} ms ({} samples, {} beyond p99)",
        latencies.len(),
        beyond(latencies.len(), 0.99)
    ));
    let [hits, misses, appends, persisted] = layer.cache;
    out.note(format!(
        "stream A first-seen share {miss_share:.3}; per pass: cache hits {hits}, misses {misses}, durable appends {appends}, persisted hits {persisted}"
    ));
    out.set(
        "engine.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    out.set("durable.appends", appends as f64);
    out.set("durable.persisted_hits", persisted as f64);
    out.set("serve.parse_us", layer.wire_s.0 * 1e6);
    out.set("serve.frame_rw_us", layer.wire_s.1 * 1e6);
    out.set("durable.append_us", layer.durable_s.0 * 1e6);
    out.set("durable.get_us", layer.durable_s.1 * 1e6);
    out.set("durable.recovery_ms", layer.durable_s.2 * 1e3);

    if args.trace {
        out.spans = tracer.spans();
        out.set_overhead(&untraced, &traced);
        out.set_layer_times(traced.len());
    }
    out
}
