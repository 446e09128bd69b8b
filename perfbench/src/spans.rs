//! In-memory spans recorded by the traced run around the calls the
//! benchmark makes into each layer, printed when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run under 584 years")
    }

    /// Opens a span and returns its id; close it with [`Spans::end`].
    pub fn begin(&self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: usize) {
        let now = self.now_ns();
        self.spans.lock().expect("span log poisoned")[id].end_ns = now;
    }

    /// Per span name: count, total ms, and self ms (duration minus the
    /// part covered by child spans, children merged so overlapping
    /// parallel children are not counted twice).
    pub fn report(&self) -> Vec<String> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut agg: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&i) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            let e = agg.entry(s.name.as_str()).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e6;
            e.2 += total.saturating_sub(covered) as f64 / 1e6;
        }
        agg.into_iter()
            .map(|(name, (n, total, own))| {
                format!("span {name}: count={n} total_ms={total:.3} self_ms={own:.3}")
            })
            .collect()
    }
}
