//! Absolute golden pins for campaign output.
//!
//! Every other determinism test compares one run with another (threads,
//! shards, cohorts, resume), so a change that shifts every layout the
//! same way passes them all. These tests pin the bits themselves: the
//! observation fingerprint of oracle, identified and fault-injected
//! campaigns on `starlink_mini`, and the per-section checksums of a small
//! checkpoint snapshot. A refactor of the campaign engine must leave
//! every value here unchanged.
//!
//! The snapshot's META section is deliberately not pinned: it carries the
//! configuration fingerprint and payload version, which change whenever
//! the fingerprint's definition does. The sections pinned here are the
//! campaign state itself.

use starsense_astro::frames::Geodetic;
use starsense_astro::time::JulianDate;
use starsense_checkpoint::{fnv1a, Snapshot};
use starsense_constellation::{Constellation, ConstellationBuilder};
use starsense_core::campaign::{Campaign, CampaignConfig};
use starsense_core::resume::{
    fingerprint_observations, ResumeConfig, SEC_DISH, SEC_OBS, SEC_SCHED, SEC_STATS,
};
use starsense_faults::{FaultPlan, FaultRates};
use starsense_scheduler::Terminal;

const SLOTS: usize = 12;

fn start() -> JulianDate {
    JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0)
}

fn mini(seed: u64) -> Constellation {
    ConstellationBuilder::starlink_mini().seed(seed).build()
}

fn terminals() -> Vec<Terminal> {
    vec![
        Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2)),
        Terminal::new(1, "Seattle", Geodetic::new(47.61, -122.33, 0.1)),
        Terminal::new(2, "Cedar Rapids", Geodetic::new(41.98, -91.67, 0.25)),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Oracle,
    Identified,
    Faulted,
}

fn campaign(c: &Constellation, mode: Mode, seed: u64, threads: usize) -> Campaign<'_> {
    let config = CampaignConfig { threads, ..CampaignConfig::default() };
    match mode {
        Mode::Oracle => Campaign::oracle(c, terminals(), config, seed),
        Mode::Identified => Campaign::identified(c, terminals(), config, seed),
        Mode::Faulted => {
            let config = CampaignConfig {
                faults: FaultPlan::new(seed ^ 0x5EED, FaultRates::uniform(0.12)),
                min_margin: starsense_ident::DEFAULT_MIN_MARGIN,
                quarantine_after: 2,
                ..config
            };
            Campaign::identified(c, terminals(), config, seed)
        }
    }
}

/// Asserts that the campaign's fingerprint equals `golden` at one and two
/// worker threads.
fn assert_pinned(mode: Mode, seed: u64, golden: u64) {
    let c = mini(seed);
    for threads in [1, 2] {
        let obs = campaign(&c, mode, seed, threads).run(start(), SLOTS);
        assert_eq!(obs.len(), SLOTS * terminals().len());
        let fp = fingerprint_observations(&obs);
        assert_eq!(
            fp, golden,
            "{mode:?} seed {seed} threads {threads}: fingerprint {fp:#018x}, golden {golden:#018x}"
        );
    }
}

#[test]
fn oracle_campaigns_match_golden_fingerprints() {
    assert_pinned(Mode::Oracle, 33, 0x6c86_9963_9bf8_3b4f);
    assert_pinned(Mode::Oracle, 34, 0x2bc7_a210_d53f_9077);
}

#[test]
fn identified_campaigns_match_golden_fingerprints() {
    assert_pinned(Mode::Identified, 33, 0xa721_0f04_7b0b_9140);
    assert_pinned(Mode::Identified, 34, 0x0de2_2f75_3548_aca5);
}

#[test]
fn fault_injected_campaigns_match_golden_fingerprints() {
    assert_pinned(Mode::Faulted, 33, 0xa5b3_2657_7c5f_ac0e);
    assert_pinned(Mode::Faulted, 34, 0xa6bb_49cf_147a_7f08);
}

/// FNV-1a of the SCHED, DISH, OBS and STATS sections of the snapshot a
/// campaign writes after its first 4-slot segment.
fn first_snapshot_sections(mode: Mode, tag: &str) -> [u64; 4] {
    let c = mini(33);
    let dir = std::env::temp_dir().join(format!("starsense-golden-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("campaign.ckpt");
    let _ = std::fs::remove_file(&path);
    let opts = ResumeConfig {
        checkpoint_every: 4,
        stop_after_checkpoints: Some(1),
        ..ResumeConfig::new(&path)
    };
    let (_, _, report) =
        campaign(&c, mode, 33, 1).run_resumable(start(), SLOTS, &opts).expect("first segment");
    assert_eq!(report.checkpoints_written, 1);
    let bytes = std::fs::read(&path).expect("read snapshot");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    let snap = Snapshot::parse(&bytes).expect("parse snapshot");
    [SEC_SCHED, SEC_DISH, SEC_OBS, SEC_STATS]
        .map(|id| fnv1a(snap.require_section(id).expect("section present")))
}

fn assert_sections(mode: Mode, tag: &str, golden: [u64; 4]) {
    let got = first_snapshot_sections(mode, tag);
    for (name, (g, want)) in ["SCHED", "DISH", "OBS", "STATS"].iter().zip(got.iter().zip(golden)) {
        assert_eq!(*g, want, "{mode:?} {name} section: fnv1a {g:#018x}, golden {want:#018x}");
    }
}

#[test]
fn identified_snapshot_sections_match_golden_checksums() {
    assert_sections(
        Mode::Identified,
        "identified",
        [
            0xac11_8960_6e63_2769,
            0x2e87_c399_1d51_cc9f,
            0x2de7_89d4_2caa_3105,
            0x81d2_3fd7_003c_2305,
        ],
    );
}

#[test]
fn oracle_snapshot_sections_match_golden_checksums() {
    // Oracle campaigns never paint a dish, so this pins the blank-map
    // encoding of the DISH section.
    assert_sections(
        Mode::Oracle,
        "oracle",
        [
            0xac11_8960_6e63_2769,
            0x1175_2980_c3fa_b48d,
            0x0831_d323_74dd_9643,
            0x81d2_3fd7_003c_2305,
        ],
    );
}
