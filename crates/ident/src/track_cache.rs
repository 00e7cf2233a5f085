//! Cross-slot candidate-track generation with an exact elevation prefilter.
//!
//! [`crate::candidate_tracks`] pays for the whole catalog at every one of
//! a slot's 16 sample epochs — propagation plus look angles — even though
//! the overwhelming majority of satellites are below the horizon the
//! entire slot. [`TrackCache`] removes that waste in two ways, without
//! changing a single bit of the produced candidate set:
//!
//! 1. **Elevation prefilter.** Before any per-epoch work, each satellite's
//!    elevation is checked at just the slot's two boundary epochs. A bound
//!    on how fast a line of sight can swing (§ *Soundness* below) gives a
//!    margin such that a satellite below `min_elevation − margin` at both
//!    boundaries provably stays below `min_elevation` for the whole slot —
//!    so it would fail [`crate::candidates`]' `any_above` filter anyway and
//!    can be discarded with zero interior work. Survivors (typically a few
//!    dozen of hundreds) get their full tracks built exactly as before,
//!    reading interior positions through a private sparse
//!    per-(satellite, epoch) memo instead of full catalog rows.
//!
//! 2. **Boundary-row reuse.** Consecutive 15-second slots share a boundary
//!    instant: slot *t*'s last sample epoch is slot *t+1*'s first. The
//!    cache keeps the previous slot's end-boundary looks (keyed by the
//!    epoch's exact bit pattern, so reuse can never be approximate) and
//!    hands them to the next slot's prefilter and track heads for free.
//!
//! # Soundness
//!
//! Let `d(el)` be the smallest possible observer–satellite distance at
//! elevation `el` for a satellite of orbital radius ≥ [`R_FLOOR_KM`]:
//! `d(el) = sqrt(R_s² − R_o² cos²el) − R_o sin el`, which decreases as
//! `el` grows. A unit line-of-sight vector rotates at most `v_rel / d`
//! radians per second, and elevation changes no faster than the line of
//! sight rotates, so while a satellite sits above `min_elevation − margin`
//! its elevation rate is at most `v_max / d(min_elevation − margin)`...
//! but more simply: any sample epoch is within [`HORIZON_S`] seconds of a
//! boundary epoch, and on that interval elevation can change by at most
//! `ω_max × HORIZON_S` where `ω_max = v_max / d_min` uses the smallest
//! distance attainable anywhere at elevations up to the cutoff — which is
//! `d(min_elevation)`, since `d` decreases with elevation. Here `v_max`
//! bounds the relative TEME speed: satellite speed ≤ `sqrt(2μ/r)` for any
//! bound orbit of radius `r ≥ R_FLOOR_KM`, plus the observer's Earth-
//! rotation speed. The radius premise is itself guarded: a satellite is
//! only discarded when its propagated radius at both boundaries is at
//! least [`R_GUARD_KM`], which exceeds the floor by more than the largest
//! radial drift a bound orbit can manage in [`HORIZON_S`] seconds. An
//! extra [`SLACK_DEG`] absorbs the small geodetic-vs-geocentric zenith
//! difference in the look-angle model. Satellites that fail propagation at
//! a boundary are never discarded — they take the exact path.

use crate::candidates::{finish_track, sample_epochs, CandidateTrack};
use starsense_astro::frames::{geodetic_to_ecef, look_angles_teme, Geodetic};
use starsense_astro::time::JulianDate;
use starsense_constellation::{PropagationCache, SparseMemo};
use starsense_obstruction::PolarSample;
use starsense_sgp4::wgs72;

/// Orbital-radius floor (km) used by the velocity and distance bounds:
/// ~120 km altitude, far below anything that completes an orbit.
pub const R_FLOOR_KM: f64 = 6500.0;

/// Minimum propagated boundary radius (km) for the prefilter to apply —
/// the floor plus the largest radial drift (`sqrt(2μ/R_FLOOR) × HORIZON_S`
/// ≈ 85 km) a bound orbit can manage between a boundary and any sample.
pub const R_GUARD_KM: f64 = 6585.0;

/// Maximum time (s) from any sample epoch to the nearer slot boundary:
/// half a 15-second slot, plus slack for float epoch rounding.
pub const HORIZON_S: f64 = 7.6;

/// Extra margin (deg) absorbing the geodetic-vs-geocentric zenith
/// difference (≤ 0.2°) and every other small-model generosity.
pub const SLACK_DEG: f64 = 1.0;

/// Earth rotation rate (rad/s), bounding the observer's TEME speed.
const OMEGA_EARTH_RAD_S: f64 = 7.292_115_9e-5;

/// Work counters for the prefilter, reported by the benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrackCacheStats {
    /// Slots served.
    pub slots: usize,
    /// Satellites discarded by the boundary elevation check, summed over
    /// slots — each saved all of its interior propagation and look work.
    pub prefiltered: usize,
    /// Satellites that took the exact full-track path, summed over slots.
    pub surviving: usize,
    /// Slots whose start-boundary looks were reused from the previous
    /// slot's end boundary (bit-identical epoch).
    pub boundary_rows_reused: usize,
    /// Interior single-satellite lookups answered without propagating
    /// (prepared row or local memo).
    pub interior_hits: usize,
    /// Interior single-satellite lookups that propagated one satellite.
    pub interior_propagations: usize,
}

/// One satellite's look angles and orbital radius at a boundary epoch
/// (`None` where the published TLE failed to propagate).
#[derive(Debug, Clone, Copy)]
struct BoundaryLook {
    elevation_deg: f64,
    azimuth_deg: f64,
    radius_km: f64,
}

/// Per-observer candidate-track generator that reuses boundary work across
/// consecutive slots and prefilters never-visible satellites. Produces
/// candidate sets bit-identical to [`crate::candidate_tracks`] on the
/// [`PropagationCache`]'s catalog (property-tested in this module).
#[derive(Debug)]
pub struct TrackCache<'a, 'c> {
    cache: &'c PropagationCache<'a>,
    observer: Geodetic,
    min_elevation_deg: f64,
    samples_per_slot: u32,
    /// Keep every satellite whose boundary elevation reaches this; below
    /// it (at both boundaries, radius guard passing) is provably invisible
    /// all slot.
    discard_below_deg: f64,
    /// The previous slot's end-boundary row, keyed by the epoch's bits.
    last_end: Option<(u64, Vec<Option<BoundaryLook>>)>,
    /// Single-owner interior-position memo: this track cache's sparse
    /// lookups never cross threads and never take a lock, so shard workers
    /// running one `TrackCache` each cannot contend with one another.
    memo: SparseMemo,
    stats: TrackCacheStats,
}

/// The prefilter margin (deg) for an observer and elevation cutoff: how
/// much elevation a satellite could possibly gain between a boundary and a
/// sample epoch, per the module-level soundness argument.
pub fn prefilter_margin_deg(observer: Geodetic, min_elevation_deg: f64) -> f64 {
    let r_o = geodetic_to_ecef(observer).norm();
    let el = min_elevation_deg.to_radians();
    // Nearest a guarded satellite can be while at the cutoff elevation —
    // the minimum over all elevations up to the cutoff, since distance
    // shrinks as elevation grows.
    let d_min = (R_FLOOR_KM * R_FLOOR_KM - r_o * r_o * el.cos() * el.cos()).sqrt() - r_o * el.sin();
    let v_max = (2.0 * wgs72::MU / R_FLOOR_KM).sqrt() + OMEGA_EARTH_RAD_S * r_o;
    (v_max / d_min * HORIZON_S).to_degrees() + SLACK_DEG
}

impl<'a, 'c> TrackCache<'a, 'c> {
    /// Creates a track cache for one observer over `cache`'s catalog,
    /// matching [`crate::candidate_tracks`]' `min_elevation_deg` and
    /// `samples_per_slot` parameters.
    pub fn new(
        cache: &'c PropagationCache<'a>,
        observer: Geodetic,
        min_elevation_deg: f64,
        samples_per_slot: u32,
    ) -> TrackCache<'a, 'c> {
        let margin = prefilter_margin_deg(observer, min_elevation_deg);
        TrackCache {
            cache,
            observer,
            min_elevation_deg,
            samples_per_slot,
            discard_below_deg: min_elevation_deg - margin,
            last_end: None,
            memo: SparseMemo::new(),
            stats: TrackCacheStats::default(),
        }
    }

    /// The shared propagation cache this generator reads through.
    pub fn propagation_cache(&self) -> &'c PropagationCache<'a> {
        self.cache
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> TrackCacheStats {
        let mut s = self.stats;
        s.interior_hits = self.memo.hits();
        s.interior_propagations = self.memo.misses();
        s
    }

    /// Candidate set for the slot starting at `slot_start` — bit-identical
    /// to `candidate_tracks(cache.constellation(), observer, slot_start, ...)`.
    pub fn candidate_tracks(&mut self, slot_start: JulianDate) -> Vec<CandidateTrack> {
        let n = self.samples_per_slot.max(2) as usize;
        let epochs = sample_epochs(slot_start, n as u32);
        let first = epochs[0];
        let last = epochs[n - 1];

        let row0 = match self.last_end.take() {
            Some((bits, row)) if bits == first.0.to_bits() => {
                self.stats.boundary_rows_reused += 1;
                row
            }
            _ => self.boundary_row(first),
        };
        let row1 = self.boundary_row(last);

        let sats = self.cache.constellation().sats();
        let mut out = Vec::new();
        for (si, sat) in sats.iter().enumerate() {
            if let (Some(a), Some(b)) = (&row0[si], &row1[si]) {
                if a.radius_km >= R_GUARD_KM
                    && b.radius_km >= R_GUARD_KM
                    && a.elevation_deg.max(b.elevation_deg) < self.discard_below_deg
                {
                    // Provably below `min_elevation_deg` at every sample
                    // epoch: `any_above` would be false, the track `None`.
                    self.stats.prefiltered += 1;
                    continue;
                }
            }
            self.stats.surviving += 1;
            let mut samples = Vec::with_capacity(n);
            let mut any_above = false;
            for (k, &t) in epochs.iter().enumerate() {
                // Boundary looks were already computed for the prefilter;
                // interior epochs go through this cache's own sparse memo
                // (lock-free; prepared epochs answer from the shared
                // immutable table) so discarded satellites never get
                // propagated there.
                let (elevation_deg, azimuth_deg) = if k == 0 || k == n - 1 {
                    let row = if k == 0 { &row0 } else { &row1 };
                    let Some(look) = row[si] else { continue };
                    (look.elevation_deg, look.azimuth_deg)
                } else {
                    let Some(teme) = self.memo.published_position_of(self.cache, si, t) else {
                        continue;
                    };
                    let look = look_angles_teme(self.observer, teme, t);
                    (look.elevation_deg, look.azimuth_deg)
                };
                if elevation_deg >= self.min_elevation_deg {
                    any_above = true;
                }
                samples.push(PolarSample { elevation_deg, azimuth_deg });
            }
            if let Some(track) = finish_track(sat.norad_id, any_above, samples) {
                out.push(track);
            }
        }

        self.stats.slots += 1;
        self.last_end = Some((last.0.to_bits(), row1));
        out
    }

    /// Looks and radii of the full catalog at a boundary epoch, read
    /// through the shared full-row position cache (boundary epochs are
    /// sample epochs, so the rows are shared with every other consumer).
    fn boundary_row(&self, at: JulianDate) -> Vec<Option<BoundaryLook>> {
        let positions = self.cache.published_positions(at);
        positions
            .iter()
            .map(|pos| {
                pos.map(|teme| {
                    let look = look_angles_teme(self.observer, teme, at);
                    BoundaryLook {
                        elevation_deg: look.elevation_deg,
                        azimuth_deg: look.azimuth_deg,
                        radius_km: teme.norm(),
                    }
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::candidate_tracks;
    use starsense_constellation::ConstellationBuilder;
    use starsense_scheduler::slots::{slot_start, SLOT_PERIOD_SECONDS};

    fn assert_same_tracks(direct: &[CandidateTrack], tracked: &[CandidateTrack]) {
        assert_eq!(direct.len(), tracked.len());
        for (a, b) in direct.iter().zip(tracked) {
            assert_eq!(a.norad_id, b.norad_id);
            assert_eq!(a.samples.len(), b.samples.len());
            for (sa, sb) in a.samples.iter().zip(&b.samples) {
                assert_eq!(sa.elevation_deg.to_bits(), sb.elevation_deg.to_bits());
                assert_eq!(sa.azimuth_deg.to_bits(), sb.azimuth_deg.to_bits());
            }
        }
    }

    #[test]
    fn margin_is_positive_and_sane() {
        let m = prefilter_margin_deg(Geodetic::new(41.66, -91.53, 0.2), 25.0);
        assert!(m > SLACK_DEG, "margin {m} should exceed the slack alone");
        assert!(m < 45.0, "margin {m} should leave the filter useful");
    }

    #[test]
    fn tracked_candidates_match_direct_over_consecutive_slots() {
        let c = ConstellationBuilder::starlink_gen1().seed(5).build();
        let cache = PropagationCache::new(&c);
        let loc = Geodetic::new(41.66, -91.53, 0.2);
        let mut tracks = TrackCache::new(&cache, loc, 25.0, 16);
        let first = slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0));
        for k in 0..8 {
            let start = slot_start(first.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS + 1.0));
            let direct = candidate_tracks(&c, loc, start, 25.0, 16);
            let tracked = tracks.candidate_tracks(start);
            assert_same_tracks(&direct, &tracked);
        }
        let s = tracks.stats();
        assert_eq!(s.slots, 8);
        assert!(s.prefiltered > s.surviving, "prefilter should discard most of the catalog: {s:?}");
        assert!(s.boundary_rows_reused > 0, "consecutive slots should share boundaries: {s:?}");
    }

    #[test]
    fn misaligned_slot_starts_are_still_exact() {
        // The soundness argument only uses the slot's own first/last sample
        // epochs, so a start that is not on the global :12 grid must still
        // reproduce the direct generator bit for bit.
        let c = ConstellationBuilder::starlink_mini().seed(42).build();
        let cache = PropagationCache::new(&c);
        let loc = Geodetic::new(47.6, -122.3, 0.1);
        let mut tracks = TrackCache::new(&cache, loc, 25.0, 16);
        let first = JulianDate::from_ymd_hms(2023, 6, 1, 9, 0, 3.7);
        for k in 0..6 {
            let start = first.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS);
            let direct = candidate_tracks(&c, loc, start, 25.0, 16);
            let tracked = tracks.candidate_tracks(start);
            assert_same_tracks(&direct, &tracked);
        }
    }

    #[test]
    fn sweeping_observers_and_cutoffs_stays_exact() {
        // A small property sweep: several sites and elevation cutoffs, a
        // couple of slots each, all bit-identical to the direct path.
        let c = ConstellationBuilder::starlink_mini().seed(7).build();
        let sites = [
            Geodetic::new(41.66, -91.53, 0.2),
            Geodetic::new(-33.9, 18.4, 0.05),
            Geodetic::new(64.1, -21.9, 0.1),
        ];
        let first = slot_start(JulianDate::from_ymd_hms(2023, 6, 2, 3, 0, 13.0));
        for &site in &sites {
            for &cutoff in &[25.0, 40.0] {
                let cache = PropagationCache::new(&c);
                let mut tracks = TrackCache::new(&cache, site, cutoff, 16);
                for k in 0..3 {
                    let start =
                        slot_start(first.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS + 1.0));
                    let direct = candidate_tracks(&c, site, start, cutoff, 16);
                    let tracked = tracks.candidate_tracks(start);
                    assert_same_tracks(&direct, &tracked);
                }
            }
        }
    }

    #[test]
    fn prefilter_avoids_interior_propagation_for_discarded_sats() {
        let c = ConstellationBuilder::starlink_gen1().seed(5).build();
        let cache = PropagationCache::new(&c);
        let loc = Geodetic::new(41.66, -91.53, 0.2);
        let mut tracks = TrackCache::new(&cache, loc, 25.0, 16);
        let start = slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0));
        let _ = tracks.candidate_tracks(start);
        // Only the two boundary epochs took full catalog rows (each an
        // unprepared miss); interior epochs propagated survivors alone,
        // through the local memo.
        assert_eq!(cache.stats().misses, 2);
        let s = tracks.stats();
        assert!(
            s.interior_propagations < c.len() * 14,
            "interior propagation should cover survivors only: {} of {}",
            s.interior_propagations,
            c.len() * 14
        );
    }
}
