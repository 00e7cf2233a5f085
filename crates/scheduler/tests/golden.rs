//! Absolute golden pins for the scheduler.
//!
//! The scheduler's equality tests compare a fast path with a reference
//! path, so a change that moves both the same way passes them. These pins
//! hold the bits themselves: the fused GSO query over a fixed grid of
//! sites and look angles, and the allocation stream (chosen and eligible
//! ids) of `allocate_range` on `starlink_mini`. An optimization of the GSO
//! zone or the allocation loop must leave every value here unchanged.

use starsense_astro::frames::{Geodetic, LookAngles};
use starsense_astro::time::JulianDate;
use starsense_checkpoint::fnv1a;
use starsense_constellation::ConstellationBuilder;
use starsense_core::vantage::paper_terminals;
use starsense_scheduler::{Allocation, GlobalScheduler, GsoExclusion, SchedulerPolicy, Terminal};

/// Sites spanning both poles' neighbourhoods, both mid-latitude belts and
/// the equator, at sea level and at altitude.
const SITES: [(f64, f64, f64); 8] = [
    (-89.9, 0.0, 0.0),
    (-82.5, 166.7, 3.5),
    (-41.66, 130.0, 0.2),
    (0.0, 0.0, 0.0),
    (0.0, 17.2, 0.2),
    (41.66, -91.53, 0.2),
    (67.0, -20.0, 0.1),
    (84.0, 100.0, 3.5),
];

/// fnv1a over every `separation_if_clear` answer on a grid of look angles:
/// a `0` byte for `None` (excluded), a `1` byte plus the separation's bits
/// otherwise.
fn fused_query_hash(half_angle_deg: f64) -> u64 {
    let mut bytes = Vec::new();
    for &(lat, lon, alt) in &SITES {
        let zone = GsoExclusion::for_site(Geodetic::new(lat, lon, alt), half_angle_deg);
        for el10 in (0..=900).step_by(37) {
            for az10 in (0..3600).step_by(53) {
                let look = LookAngles {
                    elevation_deg: el10 as f64 / 10.0,
                    azimuth_deg: az10 as f64 / 10.0,
                    range_km: 1000.0,
                };
                match zone.separation_if_clear(&look) {
                    None => bytes.push(0),
                    Some(sep) => {
                        bytes.push(1);
                        bytes.extend_from_slice(&sep.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }
    fnv1a(&bytes)
}

/// fnv1a over the allocation stream: terminal id, slot, chosen id (`0`
/// tag for an outage) and the eligible ids of every allocation.
fn allocation_hash(allocs: &[Allocation]) -> u64 {
    let mut bytes = Vec::new();
    for a in allocs {
        bytes.extend_from_slice(&(a.terminal_id as u64).to_le_bytes());
        bytes.extend_from_slice(&a.slot.to_le_bytes());
        match a.chosen_id() {
            None => bytes.push(0),
            Some(id) => {
                bytes.push(1);
                bytes.extend_from_slice(&id.to_le_bytes());
            }
        }
        bytes.extend_from_slice(&(a.eligible_ids.len() as u64).to_le_bytes());
        for id in &a.eligible_ids {
            bytes.extend_from_slice(&id.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

fn allocate(terminals: Vec<Terminal>, seed: u64, slots: usize) -> Vec<Allocation> {
    let c = ConstellationBuilder::starlink_mini().seed(seed).build();
    let mut g = GlobalScheduler::new(SchedulerPolicy::default(), terminals, seed);
    g.allocate_range(&c, JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0), slots)
}

/// A coarse world lattice, so the allocation pins cover the equator and
/// the southern hemisphere too (the paper's sites are all northern).
fn lattice() -> Vec<Terminal> {
    let mut out = Vec::new();
    for (i, lat) in [-78.0, -52.0, -23.5, 0.0, 23.5, 52.0, 78.0].into_iter().enumerate() {
        for (j, lon) in [-150.0, -60.0, 30.0, 120.0].into_iter().enumerate() {
            let id = i * 4 + j;
            out.push(Terminal::new(id, format!("l{id}"), Geodetic::new(lat, lon, 0.1)));
        }
    }
    out
}

#[test]
fn fused_gso_query_is_pinned() {
    for (half, golden) in [(12.0, 0x7ab2_cc90_b940_cbb8), (15.0, 0x1e09_10f2_9245_c208)] {
        let h = fused_query_hash(half);
        assert_eq!(h, golden, "half-angle {half}: hash {h:#018x}, golden {golden:#018x}");
    }
}

#[test]
fn paper_terminal_allocations_are_pinned() {
    for (seed, golden) in [(5, 0xe2a2_25b4_5ea9_7d96), (77, 0x3fbe_e11a_3623_bb63)] {
        let h = allocation_hash(&allocate(paper_terminals(), seed, 40));
        assert_eq!(h, golden, "seed {seed}: hash {h:#018x}, golden {golden:#018x}");
    }
}

#[test]
fn lattice_allocations_are_pinned() {
    for (seed, golden) in [(5, 0xa967_3e81_5a4d_b9a1), (77, 0x1e7b_ca81_3595_217f)] {
        let h = allocation_hash(&allocate(lattice(), seed, 12));
        assert_eq!(h, golden, "seed {seed}: hash {h:#018x}, golden {golden:#018x}");
    }
}
