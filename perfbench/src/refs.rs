//! Reference digests kept with the benchmark (`refs.txt`).
//!
//! Lines are `serve <universe index> <digest>` for every request a
//! serve workload can draw, and `campaign <ExpParams seed> <experiment>
//! <txt|json> <digest>` for every campaign a seed can select. The file
//! is written by `--write-refs`, which computes each entry through the
//! same public calls the workloads make.

use crate::inputs::{
    campaign_params, serve_options, CAMPAIGN_EXPERIMENTS, CAMPAIGN_SEEDS, SERVE_UNIVERSE,
};
use crate::stats::{digest, result_digest};
use respin_core::experiments::{generate_named, RunCache};
use std::collections::BTreeMap;
use std::path::Path;

pub const REFS_FILE: &str = "perfbench/refs.txt";

pub struct Refs(BTreeMap<String, String>);

impl Refs {
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string(REFS_FILE).map_err(|e| format!("{REFS_FILE}: {e}"))?;
        let mut map = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let (key, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("{REFS_FILE}: malformed line '{line}'"))?;
            map.insert(key.to_string(), value.to_string());
        }
        Ok(Self(map))
    }

    /// True when `got` matches the stored digest for `key`.
    fn check(&self, key: &str, got: &str) -> bool {
        self.0.get(key).is_some_and(|want| want == got)
    }

    pub fn serve_ok(&self, index: usize, result: &respin_sim::RunResult) -> bool {
        self.check(&format!("serve {index}"), &result_digest(result))
    }

    pub fn campaign_ok(&self, seed: u64, experiment: &str, text: &str, json: &str) -> bool {
        let seed = campaign_params(seed).seed;
        self.check(
            &format!("campaign {seed} {experiment} txt"),
            &digest(text.as_bytes()),
        ) && self.check(
            &format!("campaign {seed} {experiment} json"),
            &digest(json.as_bytes()),
        )
    }
}

/// Recomputes every reference digest and writes `refs.txt`.
pub fn write_refs() {
    let mut out = String::from(
        "# Reference digests (FNV-1a 64) of every input the workloads can draw.\n\
         # Regenerate with: python3 perfbench/run.py --write-refs\n",
    );
    let indices: Vec<usize> = (0..SERVE_UNIVERSE).collect();
    let results = respin_pool::par_map(&indices, |&i| respin_core::runner::run(&serve_options(i)));
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!("serve {i} {}\n", result_digest(r)));
    }
    for (k, &seed) in CAMPAIGN_SEEDS.iter().enumerate() {
        let params = campaign_params(k as u64);
        assert_eq!(params.seed, seed);
        let cache = RunCache::new();
        for name in CAMPAIGN_EXPERIMENTS {
            let (text, json) =
                generate_named(name, &cache, &params, None, None).expect("known experiment");
            out.push_str(&format!(
                "campaign {seed} {name} txt {}\n",
                digest(text.as_bytes())
            ));
            out.push_str(&format!(
                "campaign {seed} {name} json {}\n",
                digest(json.as_bytes())
            ));
        }
    }
    respin_core::persist::atomic_write(Path::new(REFS_FILE), out.as_bytes())
        .expect("write refs.txt");
    eprintln!("wrote {REFS_FILE}");
}
