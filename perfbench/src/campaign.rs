//! `campaign`: fig11, fig12 and resilience through
//! `experiments::generate_named` on a fresh `RunCache`, no daemon, at
//! the default thread settings.

use crate::inputs::{campaign_params, CAMPAIGN_EXPERIMENTS};
use crate::refs::Refs;
use crate::session::{Session, Source, Unit};
use crate::spans::Spans;
use respin_core::experiments::common::ResultBacking;
use respin_core::experiments::{generate_named, RunCache};
use respin_sim::RunResult;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A simulated run the campaign paid for.
pub struct Run {
    pub key: String,
    pub result: RunResult,
    pub ms: f64,
}

/// Observes the campaign's cache misses without storing anything: the
/// cache's single winner calls `load` just before it simulates a key
/// and `save` just after, so the pair brackets exactly one run.
#[derive(Default)]
struct RunHook {
    started: Mutex<BTreeMap<String, (Instant, Option<usize>)>>,
    first_start: Mutex<Option<Instant>>,
    runs: Mutex<Vec<Run>>,
    spans: Option<Arc<Spans>>,
    experiment_span: AtomicUsize,
}

impl ResultBacking for RunHook {
    fn load(&self, key: &str) -> Option<RunResult> {
        let now = Instant::now();
        self.first_start
            .lock()
            .expect("hook poisoned")
            .get_or_insert(now);
        let span = self.spans.as_ref().map(|s| {
            let parent = self.experiment_span.load(Ordering::SeqCst);
            s.begin("run_cache.simulate", Some(parent))
        });
        self.started
            .lock()
            .expect("hook poisoned")
            .insert(key.to_string(), (now, span));
        None
    }

    fn save(&self, key: &str, result: &RunResult) {
        let (t0, span) = self
            .started
            .lock()
            .expect("hook poisoned")
            .remove(key)
            .expect("save follows load for the same key");
        if let (Some(spans), Some(id)) = (&self.spans, span) {
            spans.end(id);
        }
        self.runs.lock().expect("hook poisoned").push(Run {
            key: key.to_string(),
            result: result.clone(),
            ms: t0.elapsed().as_secs_f64() * 1e3,
        });
    }
}

/// One campaign. Returns the session and the runs it simulated, in
/// canonical key order.
pub fn session(seed: u64, refs: &Refs, spans: Option<Arc<Spans>>) -> (Session, Vec<Run>) {
    let start = Instant::now();
    let hook = Arc::new(RunHook {
        spans: spans.clone(),
        ..RunHook::default()
    });
    let cache = RunCache::new().with_backing(hook.clone() as Arc<dyn ResultBacking>);
    let params = campaign_params(seed);
    let root = spans.as_ref().map(|s| s.begin("campaign", None));
    let mut s = Session::default();
    for name in CAMPAIGN_EXPERIMENTS {
        let span = spans.as_ref().map(|sp| {
            let id = sp.begin(format!("experiment.{name}"), root);
            hook.experiment_span.store(id, Ordering::SeqCst);
            id
        });
        let out = generate_named(name, &cache, &params, None, None);
        if let (Some(sp), Some(id)) = (&spans, span) {
            sp.end(id);
        }
        s.attempted += 1;
        match out {
            Some((text, json)) if refs.campaign_ok(seed, name, &text, &json) => {}
            Some(_) => {
                s.failed += 1;
                s.errors.push(format!("{name}: artifact digest mismatch"));
            }
            None => {
                s.failed += 1;
                s.errors.push(format!("{name}: unknown experiment"));
            }
        }
    }
    s.wall_s = start.elapsed().as_secs_f64();
    if let (Some(sp), Some(id)) = (&spans, root) {
        sp.end(id);
    }
    let first = hook
        .first_start
        .lock()
        .expect("hook poisoned")
        .unwrap_or(start);
    s.setup_s = first.duration_since(start).as_secs_f64();
    let mut runs = std::mem::take(&mut *hook.runs.lock().expect("hook poisoned"));
    runs.sort_by(|a, b| a.key.cmp(&b.key));
    s.instructions = runs.iter().map(|r| r.result.instructions).sum();
    s.units = runs
        .iter()
        .map(|r| Unit {
            ms: r.ms,
            source: Source::Live,
        })
        .collect();
    s.group = params.seed;
    s.counters.insert("sim.instructions", s.instructions);
    s.counters
        .insert("sim.ticks", runs.iter().map(|r| r.result.ticks).sum());
    s.counters
        .insert("run_cache.unique_runs", cache.len() as u64);
    s.counters.insert("store.entries", 0);
    (s, runs)
}
