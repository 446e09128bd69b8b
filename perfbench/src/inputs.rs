//! Seeded workload inputs.
//!
//! Every input a workload can draw comes from a small finite universe,
//! so `refs.txt` can hold a reference digest for each one and every run
//! is checked, whatever `--seed` it was given.

use respin_core::arch::ArchConfig;
use respin_core::experiments::ExpParams;
use respin_core::RunOptions;
use respin_workloads::Benchmark;

/// splitmix64: a tiny, dependency-free, seedable generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_be9c_4a11_0b5e)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The campaign's experiments, in the order they run.
pub const CAMPAIGN_EXPERIMENTS: [&str; 3] = ["fig11", "fig12", "resilience"];

/// `ExpParams::seed` values a campaign can draw.
pub const CAMPAIGN_SEEDS: [u64; 4] = [42, 7, 1_001, 65_537];

/// The campaign's one fixed scale: small enough that fig12's off-pool
/// runs finish in seconds at the parent's default intra-run width,
/// with the paper's 4 × 16-core shared-L1 chip shape.
pub fn campaign_params(seed: u64) -> ExpParams {
    ExpParams {
        instructions_per_thread: 500,
        warmup_per_thread: 125,
        epoch_instructions: 500,
        seed: CAMPAIGN_SEEDS[(seed % CAMPAIGN_SEEDS.len() as u64) as usize],
    }
}

/// Architectures a served request can name: one private-L1 baseline
/// and the two shared-L1 STT-RAM organisations (with and without
/// consolidation).
pub const SERVE_ARCHS: [ArchConfig; 3] =
    [ArchConfig::PrSramNt, ArchConfig::ShStt, ArchConfig::ShSttCc];

/// Benchmarks a served request can name.
pub const SERVE_BENCHES: [Benchmark; 6] = [
    Benchmark::Fft,
    Benchmark::Lu,
    Benchmark::Radix,
    Benchmark::Ocean,
    Benchmark::WaterNsq,
    Benchmark::Swaptions,
];

/// `RunOptions::seed` values a served request can name.
pub const SERVE_RUN_SEEDS: u64 = 8;

/// Size of the served-request universe.
pub const SERVE_UNIVERSE: usize =
    SERVE_ARCHS.len() * SERVE_BENCHES.len() * SERVE_RUN_SEEDS as usize;

/// The `i`-th served request of the universe: the paper's 4 × 16-core
/// chip with a small instruction budget, so a request is one short run.
pub fn serve_options(i: usize) -> RunOptions {
    let arch = SERVE_ARCHS[i % SERVE_ARCHS.len()];
    let bench = SERVE_BENCHES[i / SERVE_ARCHS.len() % SERVE_BENCHES.len()];
    let run_seed = (i / (SERVE_ARCHS.len() * SERVE_BENCHES.len())) as u64 + 1;
    let mut o = RunOptions::new(arch, bench);
    o.instructions_per_thread = Some(300);
    o.warmup_per_thread = 100;
    o.epoch_instructions = Some(150);
    o.seed = run_seed;
    o
}

/// One universe index per (architecture, benchmark) pair, each with a
/// seeded `RunOptions::seed`, in seeded order. Every draw covers every
/// pair once, so draws of different seeds do the same mix of work and
/// only the runs' seeds and the order change.
fn pair_draw(seed: u64) -> Vec<usize> {
    let pairs = SERVE_ARCHS.len() * SERVE_BENCHES.len();
    let mut rng = Rng::new(seed);
    let mut picks: Vec<usize> = (0..pairs)
        .map(|p| p + pairs * rng.below(SERVE_RUN_SEEDS as usize))
        .collect();
    rng.shuffle(&mut picks);
    picks
}

/// Deals `items` round-robin into one list per client.
fn deal(items: &[usize], clients: usize) -> Vec<Vec<usize>> {
    (0..clients)
        .map(|c| items.iter().skip(c).step_by(clients).copied().collect())
        .collect()
}

/// The `serve_cold` request plans of session `round`, one per client:
/// one key per (architecture, benchmark) pair, all distinct, so every
/// request misses. Each pair starts at a seeded `RunOptions::seed` and
/// steps to the next one every session, so over `SERVE_RUN_SEEDS`
/// sessions it visits every run seed once: the runs' costs depend on
/// their seeds, and a run that replayed one key set would measure that
/// set. The order is reshuffled every session, so which requests run
/// beside each other varies within a run too.
pub fn cold_requests(seed: u64, round: u64, clients: usize) -> Vec<Plan> {
    let pairs = SERVE_ARCHS.len() * SERVE_BENCHES.len();
    let mut rng = Rng::new(seed);
    let mut keys: Vec<usize> = (0..pairs)
        .map(|p| {
            let run_seed = (rng.below(SERVE_RUN_SEEDS as usize) as u64 + round) % SERVE_RUN_SEEDS;
            p + pairs * run_seed as usize
        })
        .collect();
    Rng::new(seed ^ round.wrapping_mul(0x2545_f491_4f6c_dd1d)).shuffle(&mut keys);
    deal(&keys, clients)
        .into_iter()
        .map(|requests| Plan {
            first_touches: 0,
            requests,
        })
        .collect()
}

/// The `serve_warm` store contents (universe indices), hottest first.
/// Ranks cycle through the architectures in a fixed order: their result
/// sizes differ, so leaving the hot keys' architectures to the seed
/// would move the latency median between seeds.
pub fn warm_keys(seed: u64) -> Vec<usize> {
    let draw = pair_draw(seed ^ 0x3a3a_3a3a);
    let by_arch: Vec<Vec<usize>> = (0..SERVE_ARCHS.len())
        .map(|a| {
            draw.iter()
                .copied()
                .filter(|i| i % SERVE_ARCHS.len() == a)
                .collect()
        })
        .collect();
    (0..SERVE_BENCHES.len())
        .flat_map(|rank| by_arch.iter().map(move |keys| keys[rank]))
        .collect()
}

/// Repeat requests each client sends in one `serve_warm` session:
/// enough that the memo hits, not the 18 fsync-bound store loads, take
/// most of the session's time.
pub const WARM_PER_CLIENT: usize = 25_000;

/// One client's requests in a session. The first `first_touches` of
/// them are its share of the warm store's keys, each touched once.
pub struct Plan {
    pub first_touches: usize,
    pub requests: Vec<usize>,
}

/// The `serve_warm` request plans, one per client. Each client first
/// touches its share of the store's keys (the session takes these in
/// turns, see `serve::session`), then sends a seeded skewed (Zipf,
/// s = 1) sequence of repeats, so a few hot keys take most requests.
pub fn warm_requests(seed: u64, clients: usize) -> Vec<Plan> {
    let keys = warm_keys(seed);
    let weights: Vec<f64> = (1..=keys.len()).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = Rng::new(seed ^ 0x77a1);
    deal(&keys, clients)
        .into_iter()
        .map(|mut list| {
            let first_touches = list.len();
            list.extend((0..WARM_PER_CLIENT).map(|_| {
                let mut u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
                let mut pick = keys.len() - 1;
                for (r, w) in weights.iter().enumerate() {
                    if u < *w {
                        pick = r;
                        break;
                    }
                    u -= w;
                }
                keys[pick]
            }));
            Plan {
                first_touches,
                requests: list,
            }
        })
        .collect()
}
