//! The traced replay: one workload walked serially through the public
//! functions of `constellation`, `scheduler`, `ident`, `obstruction`,
//! `dtw`, `checkpoint` and `core`, with a span around each call.
//!
//! The replay mirrors what a `threads: 1` `Campaign::run` does — prepare,
//! one scheduler over all terminals, per-slot snapshot → field of view →
//! allocate, then per-terminal dish and identification — and records the
//! truth and chosen id of every cell so they can be compared with the
//! untraced run. What the replay cannot reach (the campaign's private
//! observation building and merge) shows up as `core.unattributed_s`.
//!
//! Two kinds of span exist. *Layer* spans wrap calls the campaign itself
//! makes, inside the [`ROOT`] span; their self times add up to the
//! replayed campaign. *Probe* spans run after the root closes and
//! re-execute work on the frames the replay saw, only to measure it
//! separately: XOR isolation plus trajectory extraction, and the counted
//! DTW match on that trajectory.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use starsense_astro::frames::Geodetic;
use starsense_astro::time::JulianDate;
use starsense_checkpoint::{load_latest, write_rotating};
use starsense_constellation::PropagationCache;
use starsense_core::{fingerprint_observations, ResumeConfig, SlotObservation};
use starsense_ident::{
    identify_from_trajectory_counted, slot_boundary_epochs, verdict_slot_tracked, DishSimulator,
    IdentVerdict, SlotCapture, TrackCache, CANDIDATE_SAMPLES_PER_SLOT, MIN_CANDIDATE_ELEVATION_DEG,
};
use starsense_obstruction::{extract_trajectory, isolate, ObstructionMap};
use starsense_scheduler::{slot_start, Allocation, GlobalScheduler, SLOT_PERIOD_SECONDS};

use crate::trace::{self_seconds_by_name, Tracer};
use crate::workloads::{
    campaign_start, characterize_all, clear_dir, config, train_all, Inputs, Workload,
};

/// Root span of one replayed campaign.
pub const ROOT: &str = "core.campaign_replay";

/// Counters gathered while replaying.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Distinct epochs prepared (truth snapshots plus published rows).
    pub prepare_epochs: usize,
    /// Slot·terminal cells.
    pub cells: usize,
    /// Field-of-view entries summed over cells.
    pub fov_candidates: usize,
    /// Allocations that served a satellite.
    pub served: usize,
    /// Cells identified by the §4 pipeline.
    pub identified: usize,
    /// Track-cache counters summed over terminals.
    pub tracks_prefiltered: usize,
    /// Satellites that took the exact full-track path.
    pub tracks_surviving: usize,
    /// Interior single-satellite propagations.
    pub interior_propagations: usize,
    /// DTW cells the pruned matcher evaluated.
    pub dtw_cells_evaluated: usize,
    /// DTW cells an exhaustive scan would evaluate.
    pub dtw_cells_full: usize,
}

/// The replay's per-cell result, in slot-major, terminal-minor order:
/// `(truth id, chosen id)`.
pub type CellIds = Vec<(Option<u32>, Option<u32>)>;

/// Per-cell ids of an observation stream, for comparison with a replay.
pub fn cell_ids(obs: &[SlotObservation]) -> CellIds {
    obs.iter().map(|o| (o.truth_id, o.chosen.as_ref().map(|c| c.norad_id))).collect()
}

/// A differenced frame pair the replay identified from, kept for the
/// probes.
struct Frames {
    before: ObstructionMap,
    after: ObstructionMap,
    observer: Geodetic,
    slot_start: JulianDate,
}

/// Replays the campaign of `inputs` serially under a [`ROOT`] span, then
/// runs the probes over the frames it identified from.
pub fn replay_campaign(tr: &mut Tracer, inputs: &Inputs) -> (CellIds, Counts) {
    let root = tr.enter(ROOT);
    let constellation = &inputs.constellation;
    let identified = inputs.workload.identified();
    let cfg = config(1);
    let mut counts = Counts::default();

    let first_mid = slot_start(campaign_start()).plus_seconds(SLOT_PERIOD_SECONDS / 2.0);
    let mids: Vec<_> = (0..inputs.size.slots)
        .map(|k| first_mid.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS))
        .collect();
    let starts: Vec<_> = mids.iter().map(|&at| slot_start(at)).collect();
    let boundaries: Vec<_> = if identified {
        starts.iter().flat_map(|&s| slot_boundary_epochs(s, CANDIDATE_SAMPLES_PER_SLOT)).collect()
    } else {
        Vec::new()
    };
    counts.prepare_epochs = distinct(&starts) + distinct(&boundaries);
    let cache = tr.time("constellation.prepare", || {
        let cache = PropagationCache::new(constellation);
        cache.prepare(&starts, &boundaries, 1);
        cache
    });

    let terminals = &inputs.terminals;
    let mut scheduler = tr.time("scheduler.new", || {
        GlobalScheduler::new(cfg.policy.clone(), terminals.to_vec(), inputs.seeds.campaign)
    });
    let column_of: BTreeMap<usize, usize> =
        terminals.iter().enumerate().map(|(j, t)| (t.id, j)).collect();
    let mut columns: Vec<Vec<Allocation>> = terminals.iter().map(|_| Vec::new()).collect();
    for &at in &mids {
        let snapshot = tr.time("constellation.snapshot", || cache.snapshot(slot_start(at)));
        let fov =
            tr.time("scheduler.fov", || scheduler.fields_of_view_cohort(constellation, &snapshot));
        counts.fov_candidates += fov.iter().map(Vec::len).sum::<usize>();
        let allocs = tr.time("scheduler.allocate", || scheduler.allocate_from_available(at, fov));
        for alloc in allocs {
            columns[column_of[&alloc.terminal_id]].push(alloc);
        }
    }

    let mut per_terminal: Vec<Vec<(Option<u32>, Option<u32>)>> = Vec::with_capacity(columns.len());
    let mut frames = Vec::new();
    for (tid, allocs) in columns.iter().enumerate() {
        counts.cells += allocs.len();
        counts.served += allocs.iter().filter(|a| a.chosen.is_some()).count();
        per_terminal.push(if identified {
            observe_identified(tr, &cache, inputs, tid, allocs, &mut counts, &mut frames)
        } else {
            allocs.iter().map(|a| (a.chosen_id(), a.chosen_id())).collect()
        });
    }
    tr.exit(root);

    for f in &frames {
        let trajectory =
            tr.time("obstruction.isolate", || extract_trajectory(&isolate(&f.before, &f.after)));
        let counted = tr.time("dtw.match_counted", || {
            identify_from_trajectory_counted(&trajectory, constellation, f.observer, f.slot_start)
        });
        if let Some((_, prune)) = counted {
            counts.dtw_cells_evaluated += prune.cells_evaluated;
            counts.dtw_cells_full += prune.cells_full;
        }
    }

    let slots = inputs.size.slots;
    let mut ids = Vec::with_capacity(counts.cells);
    for k in 0..slots {
        ids.extend(per_terminal.iter().filter_map(|col| col.get(k).copied()));
    }
    (ids, counts)
}

fn distinct(epochs: &[JulianDate]) -> usize {
    let mut keys: Vec<u64> = epochs.iter().map(|e| e.0.to_bits()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// One terminal's identified-mode observation loop with the campaign's
/// default fault-free configuration, returning `(truth, chosen)` per slot.
fn observe_identified(
    tr: &mut Tracer,
    cache: &PropagationCache<'_>,
    inputs: &Inputs,
    tid: usize,
    allocs: &[Allocation],
    counts: &mut Counts,
    frames: &mut Vec<Frames>,
) -> Vec<(Option<u32>, Option<u32>)> {
    let cfg = config(1);
    let location = inputs.terminals[tid].location;
    let mut dish = DishSimulator::new(location);
    let mut tracks =
        TrackCache::new(cache, location, MIN_CANDIDATE_ELEVATION_DEG, CANDIDATE_SAMPLES_PER_SLOT);
    let mut prev: Option<SlotCapture> = None;
    let mut out = Vec::with_capacity(allocs.len());
    for alloc in allocs {
        let truth = alloc.chosen_id();
        let fetch = tr.time("ident.dish", || {
            dish.play_slot_faulted(
                &inputs.constellation,
                alloc.slot,
                alloc.slot_start,
                truth,
                &cfg.faults,
                tid as u64,
                cfg.frame_retries,
            )
        });
        let Some(capture) = fetch.capture else {
            prev = None;
            out.push((truth, None));
            continue;
        };
        let baseline = if capture.after_reset { None } else { prev.take() };
        let chosen = baseline.and_then(|before| {
            let verdict = tr.time("ident.verdict", || {
                verdict_slot_tracked(
                    &mut tracks,
                    &before.map,
                    &capture.map,
                    alloc.slot_start,
                    cfg.min_margin,
                )
            });
            frames.push(Frames {
                before: before.map,
                after: capture.map.clone(),
                observer: location,
                slot_start: alloc.slot_start,
            });
            match verdict {
                IdentVerdict::Identified { sat, .. } => {
                    counts.identified += 1;
                    alloc.available.iter().find(|v| v.norad_id == sat.norad_id).map(|v| v.norad_id)
                }
                IdentVerdict::Ambiguous { .. } | IdentVerdict::NoData(_) => None,
            }
        });
        prev = Some(capture);
        out.push((truth, chosen));
    }
    let stats = tracks.stats();
    counts.tracks_prefiltered += stats.prefiltered;
    counts.tracks_surviving += stats.surviving;
    counts.interior_propagations += stats.interior_propagations;
    out
}

/// One traced pass over a workload: an untraced `threads: 1` campaign,
/// the replay, and the workload's own stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Per-layer metric values, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Check failures found in this pass.
    pub failures: Vec<String>,
}

/// Runs one traced pass. `scratch` is a directory the checkpoint stages
/// empty before and after use.
pub fn traced_pass(tr: &mut Tracer, inputs: &Inputs, scratch: &Path) -> Result<Pass, String> {
    let mut failures = Vec::new();
    let campaign = inputs.campaign(1);
    let from = campaign_start();
    let slots = inputs.size.slots;

    let start = Instant::now();
    let obs = campaign.run(from, slots);
    let untraced_s = start.elapsed().as_secs_f64();
    let want = cell_ids(&obs);

    let first_span = tr.spans().len();
    let (got, counts) = replay_campaign(tr, inputs);
    if got != want {
        let diff = got.iter().zip(&want).filter(|(a, b)| a != b).count();
        failures.push(format!(
            "replay differs from the untraced run in {diff} cells ({} replayed, {} observed)",
            got.len(),
            want.len()
        ));
    }
    // The root and its layer spans come first; the probes follow it.
    let spans = &tr.spans()[first_span..];
    let replay_s = spans[0].duration_ns() as f64 * 1e-9;
    let rebased: Vec<_> = spans
        .iter()
        .map(|s| crate::trace::Span { parent: s.parent.map(|p| p - first_span), ..s.clone() })
        .collect();
    let root_len =
        rebased.iter().skip(1).position(|s| s.parent.is_none()).map_or(rebased.len(), |p| p + 1);
    let layer_s: f64 = self_seconds_by_name(&rebased[..root_len])
        .iter()
        .filter(|(name, _)| **name != ROOT)
        .map(|(_, s)| s)
        .sum();
    let selfs = self_seconds_by_name(&rebased);
    let own = |name: &str| selfs.get(name).copied().unwrap_or(0.0);

    let cells = counts.cells.max(1) as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("constellation.prepare_s", own("constellation.prepare"));
    m.insert("constellation.prepare_epochs", counts.prepare_epochs as f64);
    m.insert("constellation.snapshot_s", own("constellation.snapshot"));
    m.insert("scheduler.new_s", own("scheduler.new"));
    m.insert("scheduler.fov_s", own("scheduler.fov"));
    m.insert("scheduler.fov_candidates_per_cell", counts.fov_candidates as f64 / cells);
    m.insert("scheduler.allocate_s", own("scheduler.allocate"));
    m.insert("scheduler.served_share", counts.served as f64 / cells);
    m.insert("ident.dish_s", own("ident.dish"));
    m.insert("ident.verdict_s", own("ident.verdict"));
    m.insert("obstruction.isolate_s", own("obstruction.isolate"));
    m.insert("ident.tracks_prefiltered", counts.tracks_prefiltered as f64);
    m.insert("ident.tracks_surviving", counts.tracks_surviving as f64);
    m.insert("ident.interior_propagations", counts.interior_propagations as f64);
    m.insert("ident.identified_share", counts.identified as f64 / cells);
    m.insert("dtw.cells_evaluated", counts.dtw_cells_evaluated as f64);
    m.insert("dtw.cells_full", counts.dtw_cells_full as f64);
    m.insert(
        "dtw.pruned_ratio",
        if counts.dtw_cells_full == 0 {
            0.0
        } else {
            1.0 - counts.dtw_cells_evaluated as f64 / counts.dtw_cells_full as f64
        },
    );
    m.insert("core.unattributed_s", untraced_s - layer_s);
    m.insert("trace.overhead_s", replay_s - untraced_s);

    let (characterize_s, train_s, rf_top5) = if inputs.workload == Workload::PaperPipeline {
        let n = inputs.terminals.len();
        let c0 = tr.spans().len();
        tr.time("core.characterize", || characterize_all(&obs, n));
        let rf = tr.time("core.train", || train_all(&obs, n, inputs.seeds.campaign));
        let s = &tr.spans()[c0..];
        (s[0].duration_ns() as f64 * 1e-9, s[1].duration_ns() as f64 * 1e-9, rf)
    } else {
        (0.0, 0.0, 0.0)
    };
    m.insert("core.characterize_s", characterize_s);
    m.insert("core.train_s", train_s);
    m.insert("rf_top5_accuracy", rf_top5);

    let resume = if inputs.workload == Workload::FleetResume {
        let r = checkpoint_stages(tr, inputs, scratch, fingerprint_observations(&obs))?;
        failures.extend(r.failure.clone());
        r
    } else {
        CheckpointStages::default()
    };
    m.insert("checkpoint.segment_s", resume.segment_s);
    m.insert("checkpoint.write_s", resume.write_s);
    m.insert("checkpoint.load_s", resume.load_s);
    m.insert("checkpoint.bytes_written", resume.bytes_written as f64);
    m.insert("checkpoint.count", resume.count as f64);
    m.insert("checkpoint_mb", resume.final_bytes as f64 / (1024.0 * 1024.0));
    m.insert("core.fingerprint_s", resume.fingerprint_s);
    Ok(Pass { metrics: m, failures })
}

/// What the checkpoint stages of a `fleet_resume` pass measured.
#[derive(Debug, Clone, Default, PartialEq)]
struct CheckpointStages {
    segment_s: f64,
    write_s: f64,
    load_s: f64,
    bytes_written: u64,
    count: usize,
    final_bytes: u64,
    fingerprint_s: f64,
    failure: Option<String>,
}

/// Runs the campaign one checkpoint per `run_resumable` call until it
/// completes, then times loading the final snapshot, writing it again to
/// a scratch path, and fingerprinting the resumed stream (a proxy for the
/// observation codec). The resumed stream must fingerprint-equal the
/// one-shot stream `want`.
fn checkpoint_stages(
    tr: &mut Tracer,
    inputs: &Inputs,
    scratch: &Path,
    want: u64,
) -> Result<CheckpointStages, String> {
    clear_dir(scratch)?;
    let campaign = inputs.campaign(1);
    let path = scratch.join("campaign.ckpt");
    let opts = ResumeConfig {
        checkpoint_every: inputs.size.checkpoint_every,
        stop_after_checkpoints: Some(1),
        ..ResumeConfig::new(&path)
    };
    let mut out = CheckpointStages::default();
    let secs = |tr: &Tracer, at: usize| tr.spans()[at].duration_ns() as f64 * 1e-9;
    let obs = loop {
        let at = tr.spans().len();
        let (obs, _, report) = tr
            .time("checkpoint.segment", || {
                campaign.run_resumable(campaign_start(), inputs.size.slots, &opts)
            })
            .map_err(|e| e.to_string())?;
        out.segment_s += secs(tr, at);
        out.count += report.checkpoints_written;
        out.bytes_written += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        if report.completed {
            break obs;
        }
        if report.segments_run == 0 {
            return Err("a resumable call made no progress".into());
        }
    };
    out.final_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();

    let at = tr.spans().len();
    let loaded = tr.time("checkpoint.load", || load_latest(&path)).map_err(|e| e.to_string())?;
    out.load_s = secs(tr, at);
    let (bytes, _) = loaded.snapshot.ok_or("the final snapshot did not load")?;
    let copy = scratch.join("rewrite.ckpt");
    let at = tr.spans().len();
    tr.time("checkpoint.write", || write_rotating(&copy, &bytes)).map_err(|e| e.to_string())?;
    out.write_s = secs(tr, at);

    let at = tr.spans().len();
    let got = tr.time("core.fingerprint", || fingerprint_observations(&obs));
    out.fingerprint_s = secs(tr, at);
    if got != want {
        out.failure = Some(format!(
            "segmented stream fingerprint {got:#018x} differs from one-shot {want:#018x}"
        ));
    }
    clear_dir(scratch)?;
    Ok(out)
}
