//! Terminal-scale campaign sweep on the full gen1 constellation.
//!
//! Not a paper figure — the throughput harness behind the DESIGN §5 and
//! EXPERIMENTS.md scaling numbers. For each terminal count it runs an
//! oracle-mode campaign (the hidden scheduler observed directly, so the
//! measurement isolates the prepare + sharded-schedule + observe phases
//! from the DTW pipeline) over the ~4k-satellite gen1 catalog and
//! reports slots/s and slot·terminals/s, then re-runs the largest point
//! single-threaded/single-sharded and requires the two observation streams
//! to fingerprint equal ([`fingerprint_observations`] covers every field
//! of every observation bit for bit).
//!
//! Env knobs:
//!
//! * `STARSENSE_SWEEP_TERMINALS` — comma-separated terminal counts
//!   (default `100,1000,10000`);
//! * `STARSENSE_SLOTS` — slots per campaign (default 4);
//! * `STARSENSE_THREADS` — worker threads (default 0 = auto-detect);
//! * `STARSENSE_SHARDS` — terminal shards (default 0 = derive from the
//!   thread count).

use starsense_astro::frames::Geodetic;
use starsense_core::campaign::{Campaign, CampaignConfig, SlotObservation};
use starsense_core::fingerprint_observations;
use starsense_core::report::{csv, text_table};
use starsense_experiments::{
    campaign_start, slots_from_env, standard_constellation, write_artifact, WORLD_SEED,
};
use starsense_scheduler::Terminal;
use std::time::Instant;

/// `n` terminals on a deterministic golden-ratio lattice over the
/// populated latitudes — the same synthetic workload the bench sweep
/// uses, so numbers are comparable across harnesses.
fn sweep_terminals(n: usize) -> Vec<Terminal> {
    (0..n)
        .map(|i| {
            let lat = -55.0 + 110.0 * ((i as f64 * 0.618_033_988_749_895).fract());
            let lon = -180.0 + 360.0 * ((i as f64 * 0.754_877_666_246_693).fract());
            Terminal::new(i, format!("sweep{i}"), Geodetic::new(lat, lon, 0.1))
        })
        .collect()
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn terminal_counts() -> Vec<usize> {
    let raw =
        std::env::var("STARSENSE_SWEEP_TERMINALS").unwrap_or_else(|_| "100,1000,10000".to_string());
    let counts: Vec<usize> =
        raw.split(',').filter_map(|s| s.trim().parse().ok()).filter(|&n| n > 0).collect();
    assert!(!counts.is_empty(), "STARSENSE_SWEEP_TERMINALS parsed to no positive counts: {raw:?}");
    counts
}

/// Runs one oracle campaign and returns `(observations, seconds)`.
fn timed_run(
    constellation: &starsense_constellation::Constellation,
    n: usize,
    slots: usize,
    threads: usize,
    shards: usize,
) -> (Vec<SlotObservation>, f64) {
    let config = CampaignConfig { threads, shards, ..CampaignConfig::default() };
    let campaign = Campaign::oracle(constellation, sweep_terminals(n), config, WORLD_SEED);
    let start = Instant::now();
    let obs = campaign.run(campaign_start(), slots);
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(obs.len(), slots * n, "every (slot, terminal) cell must be observed");
    (obs, elapsed)
}

fn main() {
    let slots = slots_from_env(4);
    let threads = env_usize("STARSENSE_THREADS", 0);
    let shards = env_usize("STARSENSE_SHARDS", 0);
    let counts = terminal_counts();
    let constellation = standard_constellation();

    // starlint: allow(Q201, reason = "experiment bins report their configuration on stdout by design")
    println!(
        "terminal-scale sweep: {} satellites, {slots} slots, threads={threads}, \
         shards={shards}",
        constellation.len()
    );

    let mut rows = Vec::new();
    let mut largest: Option<(usize, Vec<SlotObservation>)> = None;
    for &n in &counts {
        let (obs, secs) = timed_run(&constellation, n, slots, threads, shards);
        let slots_per_sec = slots as f64 / secs;
        let cells_per_sec = (slots * n) as f64 / secs;
        rows.push(vec![
            n.to_string(),
            slots.to_string(),
            format!("{secs:.3}"),
            format!("{slots_per_sec:.1}"),
            format!("{cells_per_sec:.1}"),
        ]);
        largest = Some((n, obs));
    }

    let header = ["terminals", "slots", "seconds", "slots_per_sec", "slot_terminals_per_sec"];
    // starlint: allow(Q201, reason = "experiment bins print their result table on stdout by design")
    println!("{}", text_table(&header, &rows));
    write_artifact("sweep_scale.csv", &csv(&header, &rows));

    // Cross-check: the largest point re-run on one thread and one shard
    // must merge to the exact same observation stream — the sharded
    // workers are an implementation detail, never a semantic one.
    // starlint: allow(P102, reason = "the sweep always has at least one point; terminal_counts asserts non-empty")
    let (n, parallel_obs) = largest.expect("at least one sweep point");
    let (serial_obs, _) = timed_run(&constellation, n, slots, 1, 1);
    assert_eq!(
        fingerprint_observations(&parallel_obs),
        fingerprint_observations(&serial_obs),
        "sharded run diverged from the serial run at {n} terminals"
    );
    // starlint: allow(Q201, reason = "experiment bins report their verdict on stdout by design")
    println!("bit-identity: ok ({n} terminals, threads={threads}/shards={shards} vs 1/1)");
}
