//! `serve_cold` and `serve_warm`: an in-process daemon with default
//! `ServeOptions` (only the socket and store directory set) and two
//! closed-loop clients.

use crate::inputs::{cold_requests, serve_options, warm_keys, warm_requests};
use crate::refs::Refs;
use crate::session::{Session, Source, Unit};
use crate::spans::Spans;
use respin_core::experiments::common::ResultBacking;
use respin_core::experiments::RunCache;
use respin_serve::protocol::{Event, ResultSource};
use respin_serve::{Client, ResultStore, ServeOptions, Server};
use respin_sim::RunResult;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Warm,
}

/// Closed-loop clients: one per host CPU, at most two.
pub fn clients() -> usize {
    crate::stats::nproc().clamp(1, 2)
}

/// A served request.
pub struct Served {
    pub index: usize,
    pub ms: f64,
    pub source: Source,
}

pub struct ServeSession {
    pub session: Session,
    pub served: Vec<Served>,
    /// The result of each key served, as first received: repeats are
    /// checked against the references like every request, but keeping
    /// thousands of copies would put the load generator's bookkeeping
    /// into the heap figure.
    pub results: BTreeMap<usize, RunResult>,
}

/// Median `Hello` round trip, in µs, on an idle storeless daemon.
pub fn hello_rtt_us(socket: &Path) -> f64 {
    let server = Server::bind(&ServeOptions::new(socket)).expect("bind daemon");
    let mut client = Client::connect(socket).expect("connect client");
    let daemon = std::thread::spawn(move || server.run());
    client.hello().expect("hello");
    let rtts: Vec<f64> = (0..500)
        .map(|_| {
            let t = Instant::now();
            client.hello().expect("hello");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    client.shutdown().expect("shutdown daemon");
    drop(client);
    daemon
        .join()
        .expect("daemon thread panicked")
        .expect("daemon accept loop");
    crate::stats::median(&rtts).unwrap_or(0.0)
}

/// Fills `store` with the `serve_warm` entries for `seed`. Runs in a
/// child process so the measured process's peak memory excludes it.
pub fn prepare_warm(seed: u64, store: &Path) {
    let opened = Arc::new(ResultStore::open(store, 0).expect("open warm store"));
    let cache = RunCache::new().with_backing(opened.clone() as Arc<dyn ResultBacking>);
    let batch: Vec<_> = warm_keys(seed).into_iter().map(serve_options).collect();
    cache.run_all(&batch);
    assert_eq!(opened.len(), batch.len(), "warm store holds every key");
}

/// One daemon lifetime over `store`: bind, handshake, both clients'
/// request lists for session `round`, then shutdown.
pub fn session(
    kind: Kind,
    seed: u64,
    round: u64,
    store: &Path,
    socket: &Path,
    refs: &Refs,
    spans: Option<&Spans>,
) -> ServeSession {
    let nclients = clients();
    let start = Instant::now();
    let mut opts = ServeOptions::new(socket);
    opts.store_dir = Some(store.to_path_buf());
    let server = Server::bind(&opts).expect("bind daemon");
    // Connect before the accept loop starts: the listener queues the
    // connections, so the first accept finds them without waiting out
    // the loop's idle poll.
    let mut conns: Vec<Client> = (0..nclients)
        .map(|_| Client::connect(socket).expect("connect client"))
        .collect();
    let daemon = std::thread::spawn(move || server.run());
    let hello = conns[0].hello().expect("first hello");
    let setup_s = start.elapsed().as_secs_f64();
    for c in &mut conns[1..] {
        c.hello().expect("hello");
    }

    let plans = match kind {
        Kind::Cold => cold_requests(seed, round, nclients),
        Kind::Warm => warm_requests(seed, nclients),
    };
    let root = spans.map(|s| s.begin("serve.session", None));
    let out: Mutex<(Session, Vec<Served>, BTreeMap<usize, RunResult>)> =
        Mutex::new((Session::default(), Vec::new(), BTreeMap::new()));
    // Warm first touches take turns, one store load in flight at a
    // time: each load's index write is then one fsync, not one queued
    // behind the other client's. The repeats start together once
    // every key is in the memo.
    let turn = Mutex::new(());
    let loaded = std::sync::Barrier::new(nclients);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (client, plan) in conns.iter_mut().zip(&plans) {
            let (out, turn, loaded) = (&out, &turn, &loaded);
            scope.spawn(move || {
                for (pos, &index) in plan.requests.iter().enumerate() {
                    if pos == plan.first_touches {
                        loaded.wait();
                    }
                    let my_turn =
                        (pos < plan.first_touches).then(|| turn.lock().expect("turn poisoned"));
                    let span = spans.map(|s| s.begin("client.request", root));
                    let t = Instant::now();
                    let reply = client.run(serve_options(index), false);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    drop(my_turn);
                    if let (Some(s), Some(id)) = (spans, span) {
                        s.end(id);
                    }
                    let mut guard = out.lock().expect("session poisoned");
                    let (session, served, results) = &mut *guard;
                    session.attempted += 1;
                    let problem = match &reply {
                        Err(e) => Some(format!("request {index}: {e}")),
                        Ok(o) if !o.errors.is_empty() => {
                            Some(format!("request {index}: {}", o.errors[0]))
                        }
                        Ok(o) => match (&o.results[0], o.sources[0]) {
                            (None, _) | (_, None) => Some(format!("request {index}: no result")),
                            (Some(r), _) if !refs.serve_ok(index, r) => {
                                Some(format!("request {index}: result digest mismatch"))
                            }
                            _ if kind == Kind::Warm && o.done.live != 0 => {
                                Some(format!("request {index}: live simulation on a warm store"))
                            }
                            _ => None,
                        },
                    };
                    if let Some(p) = problem {
                        session.failed += 1;
                        session.errors.push(p);
                        continue;
                    }
                    let mut o = reply.expect("checked above");
                    let result = o.results[0].take().expect("checked above");
                    let source = match o.sources[0].expect("checked above") {
                        ResultSource::Live => Source::Live,
                        ResultSource::WarmStore => Source::Store,
                        ResultSource::WarmMemo => Source::Memo,
                    };
                    session.instructions += result.instructions;
                    session.units.push(Unit { ms, source });
                    served.push(Served { index, ms, source });
                    results.entry(index).or_insert(result);
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    if let (Some(s), Some(id)) = (spans, root) {
        s.end(id);
    }
    let (mut session, mut served, results) = out.into_inner().expect("session poisoned");
    session.setup_s = setup_s;
    session.wall_s = wall_s;
    // Cold sessions `SERVE_RUN_SEEDS` apart replay the same keys.
    session.group = match kind {
        Kind::Cold => round % crate::inputs::SERVE_RUN_SEEDS,
        Kind::Warm => 0,
    };

    let mut control = conns.pop().expect("at least one client");
    let (memo_runs, store_entries) = match control.stats() {
        Ok(Event::Stats {
            memo_runs,
            store_entries,
            ..
        }) => (memo_runs, store_entries),
        other => panic!("stats request failed: {other:?}"),
    };
    control.shutdown().expect("shutdown daemon");
    drop(control);
    drop(conns);
    daemon
        .join()
        .expect("daemon thread panicked")
        .expect("daemon accept loop");

    served.sort_by_key(|s| s.index);
    session
        .counters
        .insert("sim.instructions", session.instructions);
    session
        .counters
        .insert("run_cache.unique_runs", memo_runs as u64);
    session
        .counters
        .insert("store.entries", store_entries as u64);
    session
        .counters
        .insert("store.entries_at_hello", hello.store_entries as u64);
    ServeSession {
        session,
        served,
        results,
    }
}
