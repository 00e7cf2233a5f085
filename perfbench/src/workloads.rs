//! The three benchmark workloads: how their inputs follow from the seed,
//! how one timed iteration runs through the public `starsense-core` API,
//! and what a correct output looks like.

use std::path::Path;
use std::time::Instant;

use starsense_astro::frames::Geodetic;
use starsense_astro::time::JulianDate;
use starsense_constellation::{Constellation, ConstellationBuilder};
use starsense_core::characterize::{
    aoe_analysis, azimuth_analysis, launch_analysis, sunlit_analysis,
};
use starsense_core::model::default_grid;
use starsense_core::{
    fingerprint_observations, paper_terminals, train_and_evaluate, Campaign, CampaignConfig,
    ResumeConfig, SlotObservation, SlotOutcome,
};
use starsense_scheduler::Terminal;

/// The seed a run uses when none is given; the golden values in
/// [`crate::golden`] are recorded for it.
pub const DEFAULT_SEED: u64 = 1;

/// Index of k = 5 in [`starsense_core::ModelEvaluation::rf_top_k`]
/// (which holds k = 1..=9).
const TOP5: usize = 4;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10 000 lattice terminals in oracle mode: scheduler-bound.
    FleetOracle,
    /// The paper's four terminals through identification, §5 and §6.
    PaperPipeline,
    /// 1 000 lattice terminals through a stop-then-resume checkpointed run.
    FleetResume,
}

/// How big one iteration of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Lattice terminals (ignored by `paper_pipeline`, which always uses
    /// the paper's four sites).
    pub terminals: usize,
    /// Consecutive 15-second slots per campaign.
    pub slots: usize,
    /// Slots per checkpoint segment (`fleet_resume` only).
    pub checkpoint_every: usize,
    /// Checkpoints after which the first resumable call stops
    /// (`fleet_resume` only).
    pub stop_after: usize,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::FleetOracle, Workload::PaperPipeline, Workload::FleetResume];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetOracle => "fleet_oracle",
            Workload::PaperPipeline => "paper_pipeline",
            Workload::FleetResume => "fleet_resume",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the campaign observes through the §4 identification
    /// pipeline rather than reading the scheduler.
    pub fn identified(self) -> bool {
        self == Workload::PaperPipeline
    }

    /// The size the benchmark measures.
    pub fn size(self) -> Size {
        match self {
            Workload::FleetOracle => {
                Size { terminals: 10_000, slots: 12, checkpoint_every: 0, stop_after: 0 }
            }
            Workload::PaperPipeline => {
                Size { terminals: 4, slots: 240, checkpoint_every: 0, stop_after: 0 }
            }
            Workload::FleetResume => {
                Size { terminals: 1_000, slots: 96, checkpoint_every: 24, stop_after: 2 }
            }
        }
    }

    /// The smallest size that still runs every stage of the workload
    /// (training needs 50 labelled slots per terminal).
    pub fn smoke_size(self) -> Size {
        match self {
            Workload::FleetOracle => {
                Size { terminals: 16, slots: 2, checkpoint_every: 0, stop_after: 0 }
            }
            Workload::PaperPipeline => {
                Size { terminals: 4, slots: 72, checkpoint_every: 0, stop_after: 0 }
            }
            Workload::FleetResume => {
                Size { terminals: 8, slots: 4, checkpoint_every: 1, stop_after: 2 }
            }
        }
    }
}

/// Per-purpose seeds derived from the workload seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seeds {
    /// Constellation builder seed (launch dates, TLE staleness, fit noise).
    pub constellation: u64,
    /// Campaign seed (scheduler randomness, forest training).
    pub campaign: u64,
    /// Phase offsets of the terminal lattice in latitude and longitude.
    pub lattice: (f64, f64),
}

/// SplitMix64 finalizer: a fixed, well-mixed function of its input.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_interval(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl Seeds {
    /// The seeds for workload seed `seed`.
    pub fn derive(seed: u64) -> Seeds {
        Seeds {
            constellation: mix(seed ^ 0xC0),
            campaign: mix(seed ^ 0xCA),
            lattice: (unit_interval(mix(seed ^ 0x1A)), unit_interval(mix(seed ^ 0x10))),
        }
    }
}

/// Campaign window start: 2023-06-01 00:00 UTC, inside the paper's
/// measurement period.
pub fn campaign_start() -> JulianDate {
    JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0)
}

/// The gen1 catalog (4 236 satellites) for `seeds`.
pub fn build_constellation(seeds: &Seeds) -> Constellation {
    ConstellationBuilder::starlink_gen1().seed(seeds.constellation).build()
}

/// `n` terminals on a golden-ratio lattice over the populated latitudes,
/// shifted by the seed's phase offsets.
pub fn lattice_terminals(n: usize, seeds: &Seeds) -> Vec<Terminal> {
    let (phase_lat, phase_lon) = seeds.lattice;
    (0..n)
        .map(|i| {
            let lat = -55.0 + 110.0 * ((i as f64 * 0.618_033_988_749_895 + phase_lat).fract());
            let lon = -180.0 + 360.0 * ((i as f64 * 0.754_877_666_246_693 + phase_lon).fract());
            Terminal::new(i, format!("lattice{i}"), Geodetic::new(lat, lon, 0.1))
        })
        .collect()
}

/// The terminals a workload measures.
pub fn terminals(w: Workload, size: Size, seeds: &Seeds) -> Vec<Terminal> {
    match w {
        Workload::PaperPipeline => paper_terminals(),
        _ => lattice_terminals(size.terminals, seeds),
    }
}

/// Campaign configuration with `threads` workers.
pub fn config(threads: usize) -> CampaignConfig {
    CampaignConfig { threads, ..CampaignConfig::default() }
}

/// A runnable campaign for `w` over `constellation`.
pub fn campaign<'a>(
    w: Workload,
    constellation: &'a Constellation,
    terminals: Vec<Terminal>,
    threads: usize,
    seeds: &Seeds,
) -> Campaign<'a> {
    if w.identified() {
        Campaign::identified(constellation, terminals, config(threads), seeds.campaign)
    } else {
        Campaign::oracle(constellation, terminals, config(threads), seeds.campaign)
    }
}

/// The generated inputs of one workload run.
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// Its size.
    pub size: Size,
    /// Seeds derived from the workload seed.
    pub seeds: Seeds,
    /// The catalog.
    pub constellation: Constellation,
    /// The terminals.
    pub terminals: Vec<Terminal>,
}

impl Inputs {
    /// Slot·terminal cells of one campaign.
    pub fn cells(&self) -> usize {
        self.size.slots * self.terminals.len()
    }

    /// A campaign over these inputs with `threads` workers.
    pub fn campaign(&self, threads: usize) -> Campaign<'_> {
        campaign(self.workload, &self.constellation, self.terminals.clone(), threads, &self.seeds)
    }
}

/// Builds the inputs once and returns them with the set-up time: the
/// constellation build, terminal generation and `Campaign` construction.
pub fn set_up(w: Workload, size: Size, seed: u64, threads: usize) -> (Inputs, f64) {
    let seeds = Seeds::derive(seed);
    let start = Instant::now();
    let constellation = build_constellation(&seeds);
    let made = campaign(w, &constellation, terminals(w, size, &seeds), threads, &seeds);
    let seconds = start.elapsed().as_secs_f64();
    let terminals = made.terminals().to_vec();
    drop(made);
    (Inputs { workload: w, size, seeds, constellation, terminals }, seconds)
}

impl Inputs {
    /// Inputs around an already built constellation.
    pub fn from_parts(
        w: Workload,
        size: Size,
        seeds: Seeds,
        constellation: Constellation,
    ) -> Inputs {
        let terminals = terminals(w, size, &seeds);
        Inputs { workload: w, size, seeds, constellation, terminals }
    }
}

/// What one iteration produced.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationOutput {
    /// Wall time of the whole iteration, seconds.
    pub wall_s: f64,
    /// Time spent inside the campaign calls, seconds.
    pub campaign_s: f64,
    /// Fingerprint of the final observation stream.
    pub fingerprint: u64,
    /// Cells whose chosen satellite is the true one, over all cells.
    pub ident_accuracy: f64,
    /// Mean top-5 forest accuracy over the terminals (`paper_pipeline`).
    pub rf_top5_accuracy: Option<f64>,
    /// Final snapshot size on disk, bytes (`fleet_resume`).
    pub checkpoint_bytes: Option<u64>,
}

/// Runs one timed iteration. `scratch` is a directory the iteration may
/// fill; it is emptied before and after use, so a failed iteration cannot
/// leave a snapshot for the next one to resume from.
pub fn run_iteration(
    inputs: &Inputs,
    threads: usize,
    scratch: &Path,
) -> Result<IterationOutput, String> {
    let campaign = inputs.campaign(threads);
    let from = campaign_start();
    let slots = inputs.size.slots;
    match inputs.workload {
        Workload::FleetOracle => {
            let start = Instant::now();
            let obs = std::hint::black_box(campaign.run(from, slots));
            let wall_s = start.elapsed().as_secs_f64();
            check_stream(inputs, &obs)?;
            Ok(IterationOutput {
                wall_s,
                campaign_s: wall_s,
                fingerprint: fingerprint_observations(&obs),
                ident_accuracy: ident_accuracy(&obs),
                rf_top5_accuracy: None,
                checkpoint_bytes: None,
            })
        }
        Workload::PaperPipeline => {
            let start = Instant::now();
            let obs = campaign.run(from, slots);
            let campaign_s = start.elapsed().as_secs_f64();
            characterize_all(&obs, inputs.terminals.len());
            let rf_top5 = train_all(&obs, inputs.terminals.len(), inputs.seeds.campaign);
            let wall_s = start.elapsed().as_secs_f64();
            check_stream(inputs, &obs)?;
            check_accuracy("rf_top5_accuracy", rf_top5)?;
            Ok(IterationOutput {
                wall_s,
                campaign_s,
                fingerprint: fingerprint_observations(&obs),
                ident_accuracy: ident_accuracy(&obs),
                rf_top5_accuracy: Some(rf_top5),
                checkpoint_bytes: None,
            })
        }
        Workload::FleetResume => {
            clear_dir(scratch)?;
            let path = scratch.join("campaign.ckpt");
            let first = ResumeConfig {
                checkpoint_every: inputs.size.checkpoint_every,
                stop_after_checkpoints: Some(inputs.size.stop_after),
                ..ResumeConfig::new(&path)
            };
            let rest = ResumeConfig { stop_after_checkpoints: None, ..first.clone() };
            let start = Instant::now();
            let (_, _, stopped) =
                campaign.run_resumable(from, slots, &first).map_err(|e| e.to_string())?;
            let (obs, _, resumed) =
                campaign.run_resumable(from, slots, &rest).map_err(|e| e.to_string())?;
            let wall_s = start.elapsed().as_secs_f64();
            let bytes = std::fs::metadata(&path).map_err(|e| format!("final snapshot: {e}"))?.len();
            clear_dir(scratch)?;
            let resume_at = inputs.size.stop_after * inputs.size.checkpoint_every;
            if stopped.completed || stopped.checkpoints_written != inputs.size.stop_after {
                return Err(format!(
                    "first call did not stop after {} checkpoints: {stopped:?}",
                    inputs.size.stop_after
                ));
            }
            if !resumed.completed || resumed.resumed_at_slot != Some(resume_at) {
                return Err(format!("second call did not resume at slot {resume_at}: {resumed:?}"));
            }
            check_stream(inputs, &obs)?;
            Ok(IterationOutput {
                wall_s,
                campaign_s: wall_s,
                fingerprint: fingerprint_observations(&obs),
                ident_accuracy: ident_accuracy(&obs),
                rf_top5_accuracy: None,
                checkpoint_bytes: Some(bytes),
            })
        }
    }
}

/// The four §5 analyses for every terminal.
pub fn characterize_all(obs: &[SlotObservation], terminals: usize) {
    for tid in 0..terminals {
        std::hint::black_box((
            aoe_analysis(obs, tid),
            azimuth_analysis(obs, tid),
            launch_analysis(obs, tid),
            sunlit_analysis(obs, tid),
        ));
    }
}

/// §6 training with the default grid for every terminal; returns the
/// mean top-5 forest accuracy.
pub fn train_all(obs: &[SlotObservation], terminals: usize, seed: u64) -> f64 {
    let grid = default_grid();
    let total: f64 =
        (0..terminals).map(|tid| train_and_evaluate(obs, tid, &grid, seed).rf_top_k[TOP5]).sum();
    total / terminals.max(1) as f64
}

/// Share of cells whose chosen satellite is the scheduler's real pick.
pub fn ident_accuracy(obs: &[SlotObservation]) -> f64 {
    let right = obs
        .iter()
        .filter(|o| o.truth_id.is_some() && o.chosen.as_ref().map(|c| c.norad_id) == o.truth_id)
        .count();
    right as f64 / obs.len().max(1) as f64
}

fn check_accuracy(name: &str, v: f64) -> Result<(), String> {
    if v > 0.0 && v <= 1.0 {
        Ok(())
    } else {
        Err(format!("{name} {v} outside (0, 1]"))
    }
}

/// Structural checks any correct observation stream passes, whatever the
/// seed: one observation per cell in slot-major, terminal-minor order;
/// `chosen` present exactly for observed cells; in oracle mode the
/// chosen satellite is always the truth; and an accuracy in (0, 1].
pub fn check_stream(inputs: &Inputs, obs: &[SlotObservation]) -> Result<(), String> {
    let n = inputs.terminals.len();
    if obs.len() != inputs.cells() {
        return Err(format!("{} observations for {} cells", obs.len(), inputs.cells()));
    }
    for (i, o) in obs.iter().enumerate() {
        if o.terminal_id != i % n || o.slot != obs[0].slot + (i / n) as i64 {
            return Err(format!("observation {i} out of slot-major, terminal-minor order"));
        }
        if o.chosen.is_some() != matches!(o.outcome, SlotOutcome::Observed { .. }) {
            return Err(format!("observation {i}: chosen disagrees with outcome {:?}", o.outcome));
        }
        if !inputs.workload.identified() && o.chosen.as_ref().map(|c| c.norad_id) != o.truth_id {
            return Err(format!("observation {i}: oracle pick differs from the truth"));
        }
    }
    check_accuracy("ident_accuracy", ident_accuracy(obs))
}

/// Removes everything inside `dir`, keeping the directory.
pub fn clear_dir(dir: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let removed = if path.is_dir() {
            std::fs::remove_dir_all(&path)
        } else {
            std::fs::remove_file(&path)
        };
        removed.map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}
