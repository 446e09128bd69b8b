//! One measured repetition of a workload, and the summary over many.

use crate::stats::{median, quantile};
use std::collections::BTreeMap;

/// Where a unit of work got its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Simulated during the session.
    Live,
    /// Loaded from the persistent store (first touch of a warm key).
    Store,
    /// Served from the process's in-memory memo (repeat touch).
    Memo,
}

/// One unit of work: a served request, or one simulated run inside a
/// campaign.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    pub ms: f64,
    pub source: Source,
}

/// Everything one session measured. Sessions of one run with the same
/// `group` replay the same inputs, so their `counters` must agree
/// exactly.
#[derive(Debug, Default)]
pub struct Session {
    /// Which inputs the session replayed: the campaign's `ExpParams`
    /// seed; 0 on the serve workloads, whose sessions all replay one
    /// key set.
    pub group: u64,
    pub setup_s: f64,
    pub wall_s: f64,
    /// Peak heap held while the session ran, above what was live when
    /// it started, MiB.
    pub heap_mb: f64,
    pub instructions: u64,
    pub units: Vec<Unit>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Deterministic work counters (ordered, so they compare and print
    /// the same way every time).
    pub counters: BTreeMap<&'static str, u64>,
}

pub struct Summary {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Work counters per session group.
    pub counters: BTreeMap<u64, BTreeMap<&'static str, u64>>,
    pub samples: BTreeMap<&'static str, usize>,
}

/// Latencies of the session's store-loaded units, ms; where nothing
/// read the store (campaign, serve_cold), of its first-touch units.
pub fn store_hit_ms(s: &Session) -> Vec<f64> {
    let any_store = s.units.iter().any(|u| u.source == Source::Store);
    s.units
        .iter()
        .filter(|u| {
            if any_store {
                u.source == Source::Store
            } else {
                u.source != Source::Memo
            }
        })
        .map(|u| u.ms)
        .collect()
}

/// Runs `session` until `seconds` have passed and at least
/// `min_sessions` completed, recording each session's peak heap.
pub fn repeat(
    seconds: f64,
    min_sessions: usize,
    mut session: impl FnMut() -> Session,
) -> Vec<Session> {
    let start = std::time::Instant::now();
    let mut out = Vec::new();
    while out.len() < min_sessions || start.elapsed().as_secs_f64() < seconds {
        let heap = crate::heap::PeakSampler::start();
        let mut s = session();
        s.heap_mb = heap.finish();
        out.push(s);
    }
    out
}

/// Folds sessions into the end-to-end metrics: each time, rate and
/// heap figure is the median over a group's sessions, then the median
/// over the groups, so every group weighs the same however many of its
/// sessions a run fit, and one outlying session or group cannot set
/// the figure. p50 and p90 latencies are taken over all units of the
/// run, p99 per session.
pub fn summarise(sessions: &[Session]) -> Summary {
    let mut groups: BTreeMap<u64, Vec<&Session>> = BTreeMap::new();
    for s in sessions {
        groups.entry(s.group).or_default().push(s);
    }
    let per = |f: &dyn Fn(&Session) -> f64| -> f64 {
        let medians: Vec<f64> = groups
            .values()
            .filter_map(|g| median(&g.iter().map(|s| f(s)).collect::<Vec<_>>()))
            .collect();
        median(&medians).unwrap_or(0.0)
    };
    // No unit was simulated (serve_warm): the cold figures fall back
    // to every unit, as the warm ones do where nothing is warm.
    let any_live = sessions
        .iter()
        .any(|s| s.units.iter().any(|u| u.source == Source::Live));
    let cold = |u: &Unit| !any_live || u.source == Source::Live;
    let kept = |s: &Session, keep: &dyn Fn(&Unit) -> bool| -> Vec<f64> {
        s.units.iter().filter(|u| keep(u)).map(|u| u.ms).collect()
    };
    // p50 and p90 pool the units of every session: a session holds only
    // 16 to 18 units on campaign and serve_cold, too few for a tail,
    // while a run has at least ten beyond its p90.
    let pooled = |keep: &dyn Fn(&Unit) -> bool, p: f64| -> f64 {
        let ms: Vec<f64> = sessions.iter().flat_map(|s| kept(s, keep)).collect();
        quantile(&ms, p).unwrap_or(0.0)
    };
    // p99 is taken per session and folded like the other figures: a
    // campaign or serve_cold run has fewer than two units beyond its
    // p99, which would read as the run's slowest unit, set by a single
    // burst of host contention.
    let per_session = |keep: &dyn Fn(&Unit) -> bool, p: f64| -> f64 {
        per(&|s| quantile(&kept(s, keep), p).unwrap_or(0.0))
    };
    let count = |keep: &dyn Fn(&Unit) -> bool| -> usize {
        sessions
            .iter()
            .map(|s| s.units.iter().filter(|u| keep(u)).count())
            .sum()
    };

    let mut errors: Vec<String> = sessions.iter().flat_map(|s| s.errors.clone()).collect();
    let mut failed: u64 = sessions.iter().map(|s| s.failed).sum();
    let attempted: u64 = sessions.iter().map(|s| s.attempted).sum();
    let mut counters: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (i, s) in sessions.iter().enumerate() {
        let first = counters
            .entry(s.group)
            .or_insert_with(|| s.counters.clone());
        if s.counters != *first {
            errors.push(format!(
                "work counters drifted in session {i}: {:?} vs {:?}",
                s.counters, first
            ));
            failed += 1;
        }
    }
    let metrics = vec![
        ("setup_s", per(&|s| s.setup_s), "s"),
        ("wall_s", per(&|s| s.wall_s), "s"),
        (
            "sim_ips",
            per(&|s| s.instructions as f64 / s.wall_s),
            "instr/s",
        ),
        ("peak_heap_mb", per(&|s| s.heap_mb), "MB"),
        ("cold_p50_ms", pooled(&cold, 0.5), "ms"),
        ("cold_p90_ms", pooled(&cold, 0.9), "ms"),
        ("warm_p50_ms", pooled(&|_| true, 0.5), "ms"),
        ("warm_p99_ms", per_session(&|_| true, 0.99), "ms"),
        (
            "requests_per_s",
            per(&|s| s.units.len() as f64 / s.wall_s),
            "1/s",
        ),
    ];
    let mut samples = BTreeMap::new();
    samples.insert("sessions", sessions.len());
    samples.insert("units", count(&|_| true));
    samples.insert("cold_units", count(&cold));
    Summary {
        metrics,
        attempted,
        failed,
        errors,
        counters,
        samples,
    }
}
