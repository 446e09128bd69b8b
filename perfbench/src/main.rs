//! The Respin repository benchmark. Run it through `run.py`, which
//! builds this package and passes the arguments on:
//!
//! ```text
//! python3 perfbench/run.py --workload campaign|serve_cold|serve_warm \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is its own
//! invocation that records spans and times each layer's public calls.
//! The last stdout line is the JSON result. See README.md.

mod campaign;
mod heap;
mod inputs;
mod layers;
mod refs;
mod serve;
mod session;
mod spans;
mod stats;

use session::{repeat, summarise};
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Scratch space, relative to the checkout root the benchmark runs in
/// (relative, so the daemon's socket path stays short).
const WORK_DIR: &str = ".perfbench_work";

/// Sessions every untraced run measures at least: one for each of the
/// campaign's `ExpParams` seeds, which its sessions take in turn.
const MIN_SESSIONS: usize = inputs::CAMPAIGN_SEEDS.len();

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload campaign|serve_cold|serve_warm --seed N --seconds S --trace 0|1\n\
         \x20      perfbench --write-refs\n\
         \x20      perfbench --prepare-warm --seed N --store DIR"
    );
    std::process::exit(2);
}

fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a valid value");
        usage()
    })
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut store: Option<PathBuf> = None;
    let mut prepare = false;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--workload" => args.workload = value(&mut argv, "--workload"),
            "--seed" => args.seed = value(&mut argv, "--seed"),
            "--seconds" => args.seconds = value(&mut argv, "--seconds"),
            "--trace" => args.trace = value::<u8>(&mut argv, "--trace") == 1,
            "--store" => store = Some(value(&mut argv, "--store")),
            "--prepare-warm" => prepare = true,
            "--write-refs" => {
                refs::write_refs();
                return;
            }
            _ => usage(),
        }
    }
    if prepare {
        serve::prepare_warm(args.seed, &store.unwrap_or_else(|| usage()));
        return;
    }
    if !["campaign", "serve_cold", "serve_warm"].contains(&args.workload.as_str()) {
        usage();
    }
    let refs = refs::Refs::load().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let work = Path::new(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).expect("create work dir");
    print_host(&args);
    let (correct, attempted, failed, metrics) = if args.trace {
        layers::traced(&args.workload, args.seed, &work, &refs)
    } else {
        untraced(&args, &work, &refs)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// A JSON number with every digit Rust prints (non-finite → 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Host and configuration, so figures from different hosts are never
/// compared unawares.
fn print_host(args: &Args) {
    let probe = inputs::serve_options(1);
    println!(
        "host nproc={} pool_threads={} resolved_cluster_workers={} clients={} profile={} \
         workload={} seed={} seconds={} trace={}",
        stats::nproc(),
        respin_pool::Pool::current().threads(),
        probe.resolved_cluster_workers(),
        if args.workload == "campaign" {
            0
        } else {
            serve::clients()
        },
        stats::build_profile(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
}

fn untraced(args: &Args, work: &Path, refs: &refs::Refs) -> (bool, u64, u64, Metrics) {
    let socket = work.join("d.sock");
    let store = work.join("store");
    if args.workload == "serve_warm" {
        prepare_warm_in_child(args.seed, &store);
    }
    let mut round = 0;
    let session = || {
        round += 1;
        match args.workload.as_str() {
            // Session k replays the campaign of the k-th `ExpParams`
            // seed after the one `--seed` selects: each seed's campaign
            // does a different amount of work, so a run covers them all.
            "campaign" => campaign::session(args.seed.wrapping_add(round - 1), refs, None).0,
            "serve_cold" => {
                let kind = serve::Kind::Cold;
                let s = serve::session(kind, args.seed, round, &store, &socket, refs, None);
                let _ = std::fs::remove_dir_all(&store);
                s.session
            }
            _ => {
                let kind = serve::Kind::Warm;
                serve::session(kind, args.seed, round, &store, &socket, refs, None).session
            }
        }
    };
    let sessions = repeat(args.seconds, MIN_SESSIONS, session);
    for (i, s) in sessions.iter().enumerate() {
        let mut ms: Vec<f64> = s.units.iter().map(|u| u.ms).collect();
        ms.sort_by(f64::total_cmp);
        println!(
            "session {i} group={} setup_s={:.6} wall_s={:.3} peak_heap_mb={:.1} units={} unit_ms={:.1?}",
            s.group,
            s.setup_s,
            s.wall_s,
            s.heap_mb,
            s.units.len(),
            &ms[ms.len().saturating_sub(4)..],
        );
    }
    // For reference only: the lifetime resident-set peak depends on how
    // many malloc arenas the run's threads happened to touch.
    println!("info vm_hwm_mb = {}", stats::peak_rss_mb());
    let summary = summarise(&sessions);
    report(&summary);
    (
        summary.errors.is_empty() && summary.failed == 0,
        summary.attempted,
        summary.failed,
        summary.metrics,
    )
}

pub fn prepare_warm_in_child(seed: u64, store: &Path) {
    let exe = std::env::current_exe().expect("own executable path");
    let status = std::process::Command::new(exe)
        .args(["--prepare-warm", "--seed", &seed.to_string(), "--store"])
        .arg(store)
        .status()
        .expect("spawn warm-store preparation");
    assert!(status.success(), "warm-store preparation failed: {status}");
}

fn report(summary: &session::Summary) {
    for (name, v, unit) in &summary.metrics {
        println!("metric {name} = {v} {unit}");
    }
    for (group, counters) in &summary.counters {
        for (name, v) in counters {
            if summary.counters.len() > 1 {
                println!("counter [group {group}] {name} = {v}");
            } else {
                println!("counter {name} = {v}");
            }
        }
    }
    for (name, n) in &summary.samples {
        println!("samples {name} = {n}");
    }
    for e in &summary.errors {
        println!("error {e}");
    }
}
