//! The traced run: one untraced and one traced session of the workload
//! (their difference is the tracing overhead), then timed calls into
//! each layer's public functions on the workload's own inputs.

use crate::campaign;
use crate::inputs::serve_options;
use crate::refs::Refs;
use crate::serve::{self, Kind};
use crate::session::{Session, Source};
use crate::spans::Spans;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::Metrics;
use respin_core::arch::{ArchConfig, PolicyKind};
use respin_core::experiments::common::{canonical_key, ResultBacking};
use respin_core::experiments::RunCache;
use respin_core::persist::JournalRecord;
use respin_core::runner::{self, RunOptions};
use respin_serve::protocol::{decode_event, encode_event, event, Event, ResultSource};
use respin_serve::ResultStore;
use respin_sim::profile::{PhaseAccum, PhaseProfiler, PHASE_COUNT, PHASE_NAMES};
use respin_sim::{L1Org, RunResult};
use respin_variation::{VariationConfig, VariationMap};
use respin_workloads::gen::ThreadGen;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What the traced session produced: its session figures, the distinct
/// runs behind its units, and the probe.
struct Traced {
    session: Session,
    runs: Vec<(RunOptions, RunResult)>,
    /// Key of the unit the single-key layer figures use, and that
    /// unit's latency in the session.
    probe: (RunOptions, f64),
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `reps` timings of `f`, in ms.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms_since(t)
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

fn shared_l1(o: &RunOptions) -> bool {
    o.chip_config().l1_org == L1Org::SharedPerCluster
}

fn session_pair(
    workload: &str,
    seed: u64,
    work: &Path,
    refs: &Refs,
    spans: &Arc<Spans>,
) -> (Session, Traced) {
    let socket = work.join("d.sock");
    match workload {
        "campaign" => {
            let (plain, _) = campaign::session(seed, refs, None);
            let (session, runs) = campaign::session(seed, refs, Some(spans.clone()));
            // The probe is one of fig11's SH-STT runs, which the pool
            // executes at width 1.
            let probe = runs
                .iter()
                .map(|r| (options_of(&r.key), r.ms))
                .find(|(o, _)| o.arch == ArchConfig::ShStt)
                .expect("fig11 runs SH-STT");
            let runs = runs
                .into_iter()
                .map(|r| (options_of(&r.key), r.result))
                .collect();
            (
                plain,
                Traced {
                    session,
                    runs,
                    probe,
                },
            )
        }
        _ => {
            let kind = if workload == "serve_cold" {
                Kind::Cold
            } else {
                Kind::Warm
            };
            let store = work.join("store");
            let fresh = |n: &str| {
                let dir = work.join(n);
                let _ = std::fs::remove_dir_all(&dir);
                dir
            };
            let (plain_store, traced_store) = match kind {
                Kind::Cold => (fresh("cold-a"), fresh("cold-b")),
                Kind::Warm => {
                    crate::prepare_warm_in_child(seed, &store);
                    (store.clone(), store.clone())
                }
            };
            let plain = serve::session(kind, seed, 0, &plain_store, &socket, refs, None).session;
            let traced = serve::session(kind, seed, 0, &traced_store, &socket, refs, Some(spans));
            let runs: Vec<(RunOptions, RunResult)> = traced
                .results
                .iter()
                .map(|(&index, result)| (serve_options(index), result.clone()))
                .collect();
            let probe = match kind {
                // The first shared-L1 request: it ran on a daemon thread.
                Kind::Cold => traced
                    .served
                    .iter()
                    .map(|s| (serve_options(s.index), s.ms))
                    .find(|(o, _)| shared_l1(o))
                    .expect("serve_cold requests shared-L1 configurations"),
                // The most requested key, and its median memo-hit latency.
                Kind::Warm => {
                    let mut counts = std::collections::BTreeMap::new();
                    for s in &traced.served {
                        *counts.entry(s.index).or_insert(0usize) += 1;
                    }
                    let hot = counts
                        .iter()
                        .max_by_key(|(i, n)| (**n, std::cmp::Reverse(**i)))
                        .map(|(i, _)| *i)
                        .expect("served something");
                    let memo: Vec<f64> = traced
                        .served
                        .iter()
                        .filter(|s| s.index == hot && s.source == Source::Memo)
                        .map(|s| s.ms)
                        .collect();
                    (serve_options(hot), median(&memo).unwrap_or(0.0))
                }
            };
            (
                plain,
                Traced {
                    session: traced.session,
                    runs,
                    probe,
                },
            )
        }
    }
}

fn options_of(key: &str) -> RunOptions {
    serde_json::from_str(key).expect("canonical keys parse back into options")
}

pub fn traced(workload: &str, seed: u64, work: &Path, refs: &Refs) -> (bool, u64, u64, Metrics) {
    let spans = Arc::new(Spans::new());
    let (plain, t) = session_pair(workload, seed, work, refs, &spans);
    for line in spans.report() {
        println!("{line}");
    }
    println!(
        "trace_overhead wall_s traced={:.6} untraced={:.6} diff={:+.6}",
        t.session.wall_s,
        plain.wall_s,
        t.session.wall_s - plain.wall_s
    );
    println!(
        "trace_overhead setup_s traced={:.6} untraced={:.6} diff={:+.6}",
        t.session.setup_s,
        plain.setup_s,
        t.session.setup_s - plain.setup_s
    );
    let mut errors: Vec<String> = plain
        .errors
        .iter()
        .chain(&t.session.errors)
        .cloned()
        .collect();
    if plain.counters != t.session.counters {
        errors.push(format!(
            "work counters differ between the untraced and traced sessions: {:?} vs {:?}",
            plain.counters, t.session.counters
        ));
    }
    let mut m: Metrics = Vec::new();
    sim_layers(&t.runs, &mut m, &mut errors);
    let (probe, probe_ms) = &t.probe;
    runner_layers(probe, *probe_ms, workload, &mut m);
    pool_and_cache(&t, probe, &mut m, &mut errors);
    store_layers(&t.runs, &work.join("layer-store"), &mut m, &mut errors);
    let store_hits = crate::session::store_hit_ms(&t.session);
    for (name, p) in [("store_hit_p50_ms", 0.5), ("store_hit_p90_ms", 0.9)] {
        m.push((name, quantile(&store_hits, p).unwrap_or(0.0), "ms"));
    }
    protocol_layers(&t.runs, &mut m, &mut errors);
    m.push((
        "client.hello_rtt_us",
        serve::hello_rtt_us(&work.join("h.sock")),
        "us",
    ));
    for (name, v, unit) in &m {
        println!("metric {name} = {v} {unit}");
    }
    for (name, v) in &t.session.counters {
        println!("counter {name} = {v}");
    }
    println!("info traced-run vm_hwm_mb = {}", peak_rss_mb());
    for e in &errors {
        println!("error {e}");
    }
    // Each failed operation left one error; drift and layer checks add
    // theirs.
    let failed = errors.len() as u64;
    let attempted = (plain.attempted + t.session.attempted).max(failed);
    (errors.is_empty(), attempted, failed, m)
}

/// Metric names of the profiler's phases, index-aligned with
/// `PHASE_NAMES`.
const PHASE_METRICS: [&str; PHASE_COUNT] = [
    "sim.shared_l1_tick.ns_per_tick",
    "sim.event_drain.ns_per_tick",
    "sim.core_execute.ns_per_tick",
    "sim.sync_replay.ns_per_tick",
    "sim.epoch_maintenance.ns_per_tick",
];

/// Phase timings from profiled replays of the workload's runs, plus the
/// deterministic work counts of its results.
fn sim_layers(runs: &[(RunOptions, RunResult)], m: &mut Metrics, errors: &mut Vec<String>) {
    let mut acc = PhaseAccum::default();
    let mut skipped = 0u64;
    let mut prepare_ms = Vec::new();
    for (opts, result) in runs {
        let t = Instant::now();
        let mut chip = runner::prepare_chip(opts);
        prepare_ms.push(ms_since(t));
        let skipped_at_warm = chip.ticks_skipped();
        let origin = Instant::now();
        let mut clock =
            move || u64::try_from(origin.elapsed().as_nanos()).expect("run under 584 years");
        let mut profiler = PhaseProfiler::new(&mut clock);
        while !chip.run_epoch_profiled(&mut profiler).finished {}
        acc.merge(&profiler.acc);
        skipped += chip.ticks_skipped() - skipped_at_warm;
        // Without a consolidation policy the profiled loop is the whole
        // run, so it must reproduce the workload's result bit for bit.
        if opts.arch.policy() == PolicyKind::None && &chip.result() != result {
            errors.push(format!(
                "profiled replay of {} diverged",
                canonical_key(opts)
            ));
        }
    }
    let ticks = acc.executed_ticks.max(1) as f64;
    for (i, name) in PHASE_METRICS.iter().enumerate() {
        debug_assert!(name.contains(PHASE_NAMES[i]));
        m.push((name, acc.ns[i] as f64 / ticks, "ns"));
    }
    m.push((
        "sim.ns_per_executed_tick",
        acc.total_ns() as f64 / ticks,
        "ns",
    ));
    m.push((
        "runner.prepare_chip_ms",
        median(&prepare_ms).unwrap_or(0.0),
        "ms",
    ));

    let results = runs.iter().map(|(_, r)| r);
    let mut l1 = respin_sim::SharedL1Stats::default();
    let (mut l2_hits, mut l2_misses, mut l3_hits, mut l3_misses) = (0u64, 0u64, 0u64, 0u64);
    let (mut instructions, mut coherence, mut switches) = (0u64, 0u64, 0u64);
    for r in results {
        instructions += r.instructions;
        l1.merge(&r.stats.shared_l1d_merged());
        for l in &r.stats.l2 {
            l2_hits += l.hits;
            l2_misses += l.misses;
        }
        l3_hits += r.stats.l3.hits;
        l3_misses += r.stats.l3.misses;
        coherence += r.stats.coherence_messages;
        switches += r.stats.context_switches;
    }
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.push(("sim.instructions", instructions as f64, "count"));
    m.push(("sim.executed_ticks", acc.executed_ticks as f64, "count"));
    m.push(("sim.ticks_skipped", skipped as f64, "count"));
    m.push(("shared_l1.reads", l1.reads as f64, "count"));
    m.push((
        "shared_l1.half_miss_frac",
        frac(l1.half_misses, l1.reads),
        "share",
    ));
    m.push((
        "shared_l1.read_miss_frac",
        frac(l1.read_misses, l1.reads),
        "share",
    ));
    m.push((
        "l2.miss_rate",
        frac(l2_misses, l2_hits + l2_misses),
        "share",
    ));
    m.push((
        "l3.miss_rate",
        frac(l3_misses, l3_hits + l3_misses),
        "share",
    ));
    m.push(("coherence.messages", coherence as f64, "count"));
    m.push(("context_switches", switches as f64, "count"));

    let mut benches: Vec<_> = runs.iter().map(|(o, _)| (o.benchmark, o.seed)).collect();
    benches.sort_by_key(|(b, s)| (b.name(), *s));
    benches.dedup();
    const OPS_PER_THREAD: usize = 100_000;
    let t = Instant::now();
    let mut ops = 0usize;
    for (b, seed) in &benches {
        let spec = b.spec();
        for thread in 0..4 {
            let mut gen = ThreadGen::new(&spec, thread, *seed);
            for _ in 0..OPS_PER_THREAD {
                black_box(gen.next_op());
            }
            ops += OPS_PER_THREAD;
        }
    }
    m.push((
        "workloads.next_op_ns",
        t.elapsed().as_secs_f64() * 1e9 / ops as f64,
        "ns",
    ));
}

/// Single-key figures: run time at the default and at width 1, chip
/// set-up pieces, and the three consolidation policies.
fn runner_layers(probe: &RunOptions, probe_ms: f64, workload: &str, m: &mut Metrics) {
    let mut default_width = probe.clone();
    default_width.cluster_workers = None;
    let mut width1 = probe.clone();
    width1.cluster_workers = Some(1);
    let default_ms = time_ms(3, || {
        black_box(runner::run(&default_width));
    });
    let width1_ms = time_ms(3, || {
        black_box(runner::run(&width1));
    });
    m.push(("runner.run_ms.default_width", default_ms, "ms"));
    m.push(("runner.run_ms.width1", width1_ms, "ms"));
    m.push((
        "runner.resolved_cluster_workers",
        default_width.resolved_cluster_workers() as f64,
        "count",
    ));

    let cfg = probe.chip_config();
    let var = VariationConfig {
        cores: cfg.total_cores(),
        ..VariationConfig::default()
    };
    m.push((
        "variation.generate_ms",
        time_ms(101, || {
            black_box(VariationMap::generate(
                &var,
                cfg.core_vdd,
                cfg.band,
                probe.seed,
            ));
        }),
        "ms",
    ));

    let mut greedy_result = None;
    for (arch, name) in [
        (ArchConfig::ShStt, "runner.drive_policy_ms.none"),
        (ArchConfig::ShSttCc, "runner.drive_policy_ms.greedy"),
        (ArchConfig::ShSttCcOracle, "runner.drive_policy_ms.oracle"),
    ] {
        let mut o = probe.clone();
        o.arch = arch;
        let mut chip = runner::prepare_chip(&o);
        let t = Instant::now();
        let r = runner::drive_policy(&o, &mut chip);
        m.push((name, ms_since(t), "ms"));
        if arch == ArchConfig::ShSttCc {
            greedy_result = Some(r);
        }
    }
    let greedy = greedy_result.expect("greedy policy ran");
    m.push(("consolidation.epochs", greedy.stats.epochs as f64, "count"));
    m.push((
        "consolidation.migrations",
        greedy.stats.migrations as f64,
        "count",
    ));

    // What the front end adds over producing the same result in process:
    // the daemon over a bare run (serve_cold), the campaign's cache over
    // a bare run on the pool's width (campaign), and the daemon over a
    // memo hit (serve_warm, added in `pool_and_cache`).
    match workload {
        "serve_cold" => m.push(("serve.overhead_ms", probe_ms - default_ms, "ms")),
        "campaign" => m.push(("serve.overhead_ms", probe_ms - width1_ms, "ms")),
        _ => {}
    }
}

fn pool_and_cache(t: &Traced, probe: &RunOptions, m: &mut Metrics, errors: &mut Vec<String>) {
    let threads = respin_pool::Pool::current().threads();
    let busy_s: f64 = t.session.units.iter().map(|u| u.ms / 1e3).sum();
    m.push((
        "pool.utilisation",
        busy_s / (t.session.wall_s * threads as f64),
        "share",
    ));
    m.push((
        "run_cache.unique_runs",
        t.session
            .counters
            .get("run_cache.unique_runs")
            .copied()
            .unwrap_or(0) as f64,
        "count",
    ));
    let (_, result) = t
        .runs
        .iter()
        .find(|(o, _)| o == probe)
        .expect("the probe key is one of the workload's runs");
    let cache = RunCache::new();
    cache.warm(&[JournalRecord::ok(canonical_key(probe), result)]);
    let hit_ms = time_ms(1001, || {
        black_box(cache.run(probe));
    });
    if cache.run(probe).as_ref() != result {
        errors.push("run_cache: memo hit differs from the stored result".into());
    }
    m.push(("run_cache.hit_us", hit_ms * 1e3, "us"));
    if !m.iter().any(|(n, _, _)| *n == "serve.overhead_ms") {
        m.push(("serve.overhead_ms", t.probe.1 - hit_ms, "ms"));
    }
}

fn store_layers(
    runs: &[(RunOptions, RunResult)],
    dir: &Path,
    m: &mut Metrics,
    errors: &mut Vec<String>,
) {
    let _ = std::fs::remove_dir_all(dir);
    let keys: Vec<String> = runs.iter().map(|(o, _)| canonical_key(o)).collect();
    let save_us: Vec<f64> = {
        let store = ResultStore::open(dir, 0).expect("open layer store");
        keys.iter()
            .zip(runs)
            .map(|(k, (_, r))| {
                let t = Instant::now();
                store.save(k, r);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    };
    let open_ms = time_ms(5, || {
        black_box(ResultStore::open(dir, 0).expect("reopen layer store"));
    });
    let store = ResultStore::open(dir, 0).expect("reopen layer store");
    let mut load_us = Vec::new();
    for (k, (_, r)) in keys.iter().zip(runs) {
        let t = Instant::now();
        let got = store.load(k);
        load_us.push(t.elapsed().as_secs_f64() * 1e6);
        if got.as_ref() != Some(r) {
            errors.push(format!("store: load of {k} differs from the saved result"));
        }
    }
    let stats = store.stats();
    m.push(("store.open_ms", open_ms, "ms"));
    m.push(("store.load_us", median(&load_us).unwrap_or(0.0), "us"));
    m.push(("store.save_us", median(&save_us).unwrap_or(0.0), "us"));
    m.push(("store.entries", stats.entries as f64, "count"));
    m.push(("store.bytes", stats.bytes as f64, "bytes"));
    m.push(("store.hits", stats.hits as f64, "count"));
    m.push(("store.misses", stats.misses as f64, "count"));
    m.push(("store.evictions", stats.evictions as f64, "count"));
    let _ = std::fs::remove_dir_all(dir);
}

fn protocol_layers(runs: &[(RunOptions, RunResult)], m: &mut Metrics, errors: &mut Vec<String>) {
    const REPS: usize = 21;
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut bytes = 0usize;
    for (_, r) in runs {
        let env = event(
            1,
            Event::Result {
                index: 0,
                source: ResultSource::Live,
                result: Box::new(r.clone()),
            },
        );
        let line = encode_event(&env);
        bytes += line.len();
        encode_us.push(
            time_ms(REPS, || {
                black_box(encode_event(&env));
            }) * 1e3,
        );
        decode_us.push(
            time_ms(REPS, || {
                black_box(decode_event(&line).expect("own line decodes"));
            }) * 1e3,
        );
        if decode_event(&line).ok().as_ref() != Some(&env) {
            errors.push("protocol: Result event does not round-trip".into());
        }
    }
    m.push((
        "protocol.encode_result_us",
        median(&encode_us).unwrap_or(0.0),
        "us",
    ));
    m.push((
        "protocol.decode_result_us",
        median(&decode_us).unwrap_or(0.0),
        "us",
    ));
    m.push((
        "protocol.result_line_bytes",
        bytes as f64 / runs.len().max(1) as f64,
        "bytes",
    ));
}
