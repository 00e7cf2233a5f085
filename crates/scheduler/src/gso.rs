//! The geostationary-orbit exclusion zone.
//!
//! §5.1's rationale for the northward azimuth skew: "The International
//! Telecommunication Union has imposed a mandatory geo-stationary orbit
//! exclusion zone, which prohibits LEO satellites from transmitting to or
//! receiving from a ground station while being in the protected part of
//! the sky" (47 CFR §25.289). For a terminal in the northern mid-latitudes
//! the GSO belt arcs across the southern sky at moderate elevation, so
//! avoiding it removes much of the southern field of view — the scheduler
//! crate implements the zone as a hard constraint and the azimuth
//! preference of Figure 5 *emerges* from the geometry rather than being
//! baked in as a weight.

use starsense_astro::frames::{Geodetic, LookAngles, Topocentric};
use starsense_astro::vec3::Vec3;
use std::sync::OnceLock;

/// Radius of the geostationary belt, km.
pub const GSO_RADIUS_KM: f64 = 42_164.0;

/// Belt samples per site: one every half degree of longitude.
const BELT_SAMPLES: usize = 720;

/// Elevation cut, degrees: only belt samples strictly above it enter the
/// arc. It sits a few degrees below the horizon so a zone whose arc
/// skims the horizon still excludes the low sky next to it.
const ELEVATION_CUT_DEG: f64 = -5.0;

/// Slack subtracted from `sin(ELEVATION_CUT_DEG)` in the construction
/// prefilter (see [`GsoExclusion::for_site`]).
const PREFILTER_MARGIN: f64 = 1e-9;

/// The 720 belt points in ECEF, km — site-independent, so built once per
/// process with the historical per-site expression (same bits).
fn belt() -> &'static [Vec3; BELT_SAMPLES] {
    static BELT: OnceLock<[Vec3; BELT_SAMPLES]> = OnceLock::new();
    BELT.get_or_init(|| {
        std::array::from_fn(|k| {
            let lon = k as f64 * 0.5;
            Vec3::new(
                GSO_RADIUS_KM * lon.to_radians().cos(),
                GSO_RADIUS_KM * lon.to_radians().sin(),
                0.0,
            )
        })
    })
}

/// The exclusion test for one terminal location.
///
/// Construction samples the GSO arc as seen from the terminal once;
/// per-satellite tests are then a handful of dot products. (The arc is
/// fixed in the terminal's sky — GSO satellites do not move in ECEF.)
#[derive(Debug, Clone)]
pub struct GsoExclusion {
    /// Unit vectors (ENU-style local frame) toward the sampled GSO arc
    /// points above the −5° elevation cut, in belt-longitude order.
    arc_dirs: Vec<Vec3>,
    /// Bounding caps over consecutive runs of `arc_dirs`, for the
    /// segment-pruned scan of [`GsoExclusion::separation_if_clear`].
    segments: Vec<ArcSegment>,
    /// Protection half-angle, degrees: a satellite within this angular
    /// separation of the arc is excluded. Private because `cos_half` is
    /// derived from it at construction.
    half_angle_deg: f64,
    /// `cos(half_angle)` — the exclusion threshold, hoisted out of the
    /// per-satellite test.
    cos_half: f64,
}

/// Arc samples per bounding segment: small enough that a segment's cap is
/// tight (8 samples span ≤ 4° of belt longitude, so the sqrt-free
/// Lipschitz pre-filter in the scan kills all but the near-arc segments),
/// large enough that the two-level scan replaces ~340 dot products per
/// query with ~45 cheap segment bounds plus the few surviving runs.
const SEGMENT_LEN: usize = 8;

/// Upper bound on the segment count: the belt sampling caps it.
const MAX_SEGMENTS: usize = BELT_SAMPLES.div_ceil(SEGMENT_LEN);

/// Padding (radians) added to a segment's measured angular radius,
/// dominating the rounding error of `angle_to` so the stored cap provably
/// contains every member.
const SEGMENT_RHO_PAD: f64 = 1e-9;

/// Slack added to the algebraic dot upper bound, dominating the rounding
/// of its three-term evaluation. Together with [`SEGMENT_RHO_PAD`] it
/// keeps the bound rigorous: a pruned segment's members can never hold
/// the true maximum, which is what makes the pruned scan bit-identical to
/// the exhaustive folds.
const SEGMENT_UB_GUARD: f64 = 1e-12;

/// A bounding cap over one run of consecutive arc samples: all members lie
/// within angle `rho` of `center` (with `cos_rho`/`sin_rho` stored for the
/// closed-form dot bound).
#[derive(Debug, Clone, Copy)]
struct ArcSegment {
    /// Member range `arc_dirs[start..end]`.
    start: usize,
    end: usize,
    /// Unit center of the cap.
    center: Vec3,
    /// Angular radius of the cap, radians (with its cosine and sine
    /// stored for the closed-form dot bound).
    rho: f64,
    cos_rho: f64,
    sin_rho: f64,
}

impl ArcSegment {
    /// Upper bound on `dot(q, a)` over every member `a`, given
    /// `d = dot(q, center)` for a unit query `q`: the maximum of the dot
    /// product over a spherical cap of radius ρ is `cos(θ − ρ)` for query
    /// angle θ ≥ ρ (expanded via `d` and `sqrt(1 − d²)`) and 1 inside the
    /// cap.
    fn dot_upper_bound(&self, d: f64) -> f64 {
        if d >= self.cos_rho {
            1.0
        } else {
            d * self.cos_rho + (1.0 - d * d).max(0.0).sqrt() * self.sin_rho + SEGMENT_UB_GUARD
        }
    }
}

/// Builds the bounding segments over the sampled arc.
fn build_segments(arc_dirs: &[Vec3]) -> Vec<ArcSegment> {
    arc_dirs
        .chunks(SEGMENT_LEN)
        .enumerate()
        .map(|(k, chunk)| {
            let start = k * SEGMENT_LEN;
            let sum = chunk.iter().fold(Vec3::new(0.0, 0.0, 0.0), |acc, a| acc + *a);
            let (center, rho) = if sum.norm() > 1e-9 {
                let center = sum.unit();
                let rho =
                    chunk.iter().map(|a| a.angle_to(center)).fold(0.0, f64::max) + SEGMENT_RHO_PAD;
                (center, rho)
            } else {
                // Degenerate (members cancel): a whole-sphere cap that
                // never prunes, keeping the bound trivially valid.
                (chunk[0], std::f64::consts::PI)
            };
            ArcSegment {
                start,
                end: start + chunk.len(),
                center,
                rho,
                cos_rho: rho.cos(),
                sin_rho: rho.sin(),
            }
        })
        .collect()
}

/// Dot-product slack under which two arc points count as tied for closest
/// (see [`GsoExclusion::separation_deg`]). An arc point whose dot product
/// with the query trails the winner by more than this is separated by a
/// strictly larger angle — the guard is ~6 orders of magnitude above the
/// combined rounding error of the dot products and `angle_to`, and ties
/// merely add a redundant term to a `min` fold.
const DOT_TIE_GUARD: f64 = 1e-9;

/// Converts look angles to a local unit direction vector (east, north, up).
fn look_to_unit(look: &LookAngles) -> Vec3 {
    let el = look.elevation_deg.to_radians();
    let az = look.azimuth_deg.to_radians();
    Vec3::new(el.cos() * az.sin(), el.cos() * az.cos(), el.sin())
}

impl GsoExclusion {
    /// Builds the exclusion tester for a terminal at `site` with a given
    /// protection half-angle (degrees).
    ///
    /// Every belt point goes through one cached [`Topocentric`] frame for
    /// the site — the free `look_angles` is that frame's method, so the
    /// arc is the same, bit for bit, as 720 `look_angles(site, ..)` calls.
    /// Points on the far side of the Earth skip the `asin`/`atan2` of
    /// [`Topocentric::look_angles`]: a point whose elevation sine falls
    /// below `sin(−5°) − PREFILTER_MARGIN` is provably rejected by the
    /// exact `elevation_deg > −5` test. `sin_elevation` is the very
    /// quotient `look_angles` feeds to `asin`, `asin` is increasing with
    /// slope ≥ 1, so such a point's elevation lies at least 1e-9 rad
    /// (≈ 6e-8°) below the cut — seven orders of magnitude above the
    /// few-ulp rounding of `asin`, `to_degrees` and the threshold's own
    /// `sin`.
    pub fn for_site(site: Geodetic, half_angle_deg: f64) -> GsoExclusion {
        let frame = Topocentric::new(site);
        let sin_floor = ELEVATION_CUT_DEG.to_radians().sin() - PREFILTER_MARGIN;
        // Collect on the stack, then allocate the arc at its exact size.
        let mut visible = [Vec3::default(); BELT_SAMPLES];
        let mut n = 0;
        for &gso in belt() {
            if frame.sin_elevation(gso) < sin_floor {
                continue;
            }
            let look = frame.look_angles(gso);
            if look.elevation_deg > ELEVATION_CUT_DEG {
                visible[n] = look_to_unit(&look);
                n += 1;
            }
        }
        let arc_dirs = visible[..n].to_vec();
        let segments = build_segments(&arc_dirs);
        GsoExclusion {
            arc_dirs,
            segments,
            half_angle_deg,
            cos_half: half_angle_deg.to_radians().cos(),
        }
    }

    /// A disabled zone (never excludes) — the ablation configuration.
    pub fn disabled() -> GsoExclusion {
        GsoExclusion {
            arc_dirs: Vec::new(),
            segments: Vec::new(),
            half_angle_deg: 0.0,
            cos_half: 1.0,
        }
    }

    /// Protection half-angle, degrees (0 for a disabled zone).
    pub fn half_angle_deg(&self) -> f64 {
        self.half_angle_deg
    }

    /// True when a satellite seen at `look` falls inside the protected zone.
    pub fn excludes(&self, look: &LookAngles) -> bool {
        if self.arc_dirs.is_empty() {
            return false;
        }
        let dir = look_to_unit(look);
        self.arc_dirs.iter().any(|a| a.dot(dir) > self.cos_half)
    }

    /// Minimum angular separation (degrees) between `look` and the visible
    /// GSO arc; `f64::INFINITY` when the arc is below the horizon entirely.
    ///
    /// The historical implementation evaluated `angle_to` (a cross
    /// product, a square root and an `atan2`) against every arc point.
    /// The angle is monotone in the dot product, so this version finds the
    /// winning arc point with dot products alone and evaluates the exact
    /// historical formula only for points tied with it (within
    /// a small fixed dot-product guard, conservatively). The fold over the survivors
    /// yields the same minimum, bit for bit: every skipped point is
    /// separated by a strictly larger angle, and `min` ignores it either
    /// way.
    pub fn separation_deg(&self, look: &LookAngles) -> f64 {
        let dir = look_to_unit(look);
        let mut best_dot = f64::NEG_INFINITY;
        for a in &self.arc_dirs {
            best_dot = best_dot.max(a.dot(dir));
        }
        let mut min_deg = f64::INFINITY;
        for a in &self.arc_dirs {
            if a.dot(dir) >= best_dot - DOT_TIE_GUARD {
                min_deg = min_deg.min(a.angle_to(dir).to_degrees());
            }
        }
        min_deg
    }

    /// Fused exclusion + separation query — the one GSO call the
    /// scheduler's scoring loop makes per candidate. Returns `None` when
    /// `look` falls inside the protected zone (exactly when
    /// [`GsoExclusion::excludes`] returns true) and
    /// `Some(separation_deg)` (bit-identical to
    /// [`GsoExclusion::separation_deg`]) otherwise.
    ///
    /// The fusion is exact, not approximate: `excludes` asks whether *any*
    /// arc sample's dot product beats `cos_half`, which is the same
    /// question as whether the *maximum* dot product does. The scan below
    /// folds that maximum over bounding segments of the arc:
    ///
    /// 1. It scans the segment whose *center* is closest to the query
    ///    first: the argmax sample almost always lives there, so the seed
    ///    is tight and most other segments' bounds fail on the spot.
    /// 2. One sweep over the other segments rescans only those whose cap
    ///    bound beats the running best, and lists those within
    ///    the dot-product tie guard of it for the tie fold. A skipped segment
    ///    provably holds no sample above the running best, so the final
    ///    best is the exact maximum, bit for bit, whatever the visit
    ///    order.
    /// 3. The running best only grows, so the query returns `None` as soon
    ///    as it clears `cos_half` — after the seed or any rescan — without
    ///    finishing the sweep.
    /// 4. The historical tie-guarded `min` fold then runs over the seed
    ///    and the listed segments. A rescanned segment is listed with its
    ///    exact maximum, any other with its cap bound; either way a
    ///    segment below the final threshold holds no sample that passes
    ///    the fold's `≥ threshold` test, so skipping it leaves the minimum
    ///    unchanged.
    pub fn separation_if_clear(&self, look: &LookAngles) -> Option<f64> {
        debug_assert!(self.segments.len() <= MAX_SEGMENTS);
        let dir = look_to_unit(look);

        // Center dot products, then the argmax — two tight array passes
        // pipeline better than one fused compare-and-branch chain.
        let mut center_d = [f64::NEG_INFINITY; MAX_SEGMENTS];
        for (k, seg) in self.segments.iter().enumerate() {
            center_d[k] = seg.center.dot(dir);
        }
        let mut seed = 0usize;
        for k in 1..self.segments.len() {
            if center_d[k] > center_d[seed] {
                seed = k;
            }
        }

        // Exact scan of the seed segment, keeping its member dots so the
        // tie fold below does not recompute them.
        let mut best_dot = f64::NEG_INFINITY;
        let mut seed_dots = [f64::NEG_INFINITY; SEGMENT_LEN];
        let mut seed_start = 0usize;
        let mut seed_len = 0usize;
        if let Some(seg) = self.segments.get(seed) {
            seed_start = seg.start;
            seed_len = seg.end - seg.start;
            for (j, a) in self.arc_dirs[seg.start..seg.end].iter().enumerate() {
                let d = a.dot(dir);
                seed_dots[j] = d;
                best_dot = best_dot.max(d);
            }
        }
        if best_dot > self.cos_half {
            return None;
        }

        // One sweep decides every other segment's fate for BOTH folds. A
        // segment whose member-dot upper bound sits strictly below
        // `best_dot − DOT_TIE_GUARD` can neither raise the maximum nor
        // hold a tie-fold survivor (the running best only grows, so the
        // final threshold is at least this one). The sqrt-free over-bound
        // `cosθ + ρ` (cosine is 1-Lipschitz) fails far segments on one
        // add; only near-arc segments pay the sqrt of the exact cap bound.
        let mut listed = [(0usize, 0.0f64); MAX_SEGMENTS];
        let mut n_listed = 0usize;
        for (k, seg) in self.segments.iter().enumerate() {
            if k == seed {
                continue;
            }
            let cheap = center_d[k] + seg.rho + SEGMENT_UB_GUARD;
            if cheap < best_dot - DOT_TIE_GUARD {
                continue;
            }
            let mut bound = seg.dot_upper_bound(center_d[k]);
            if bound < best_dot - DOT_TIE_GUARD {
                continue;
            }
            if bound > best_dot {
                let seg_max = self.arc_dirs[seg.start..seg.end]
                    .iter()
                    .fold(f64::NEG_INFINITY, |m, a| m.max(a.dot(dir)));
                best_dot = best_dot.max(seg_max);
                if best_dot > self.cos_half {
                    return None;
                }
                bound = seg_max;
            }
            listed[n_listed] = (k, bound);
            n_listed += 1;
        }

        // The historical tie-guarded min fold, over the seed's stored
        // dots plus the listed segments — the same survivor samples the
        // exhaustive fold admits, so the same minimum, bit for bit.
        let threshold = best_dot - DOT_TIE_GUARD;
        let mut min_deg = f64::INFINITY;
        for (j, &d) in seed_dots[..seed_len].iter().enumerate() {
            if d >= threshold {
                min_deg = min_deg.min(self.arc_dirs[seed_start + j].angle_to(dir).to_degrees());
            }
        }
        for &(k, bound) in &listed[..n_listed] {
            if bound < threshold {
                continue;
            }
            let seg = &self.segments[k];
            for a in &self.arc_dirs[seg.start..seg.end] {
                if a.dot(dir) >= threshold {
                    min_deg = min_deg.min(a.angle_to(dir).to_degrees());
                }
            }
        }
        Some(min_deg)
    }

    /// Whether any part of the belt is visible from the site at all.
    pub fn arc_visible(&self) -> bool {
        !self.arc_dirs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starsense_astro::frames::look_angles;

    fn iowa() -> Geodetic {
        Geodetic::new(41.66, -91.53, 0.2)
    }

    fn look(el: f64, az: f64) -> LookAngles {
        LookAngles { elevation_deg: el, azimuth_deg: az, range_km: 1000.0 }
    }

    #[test]
    fn gso_arc_peaks_due_south_at_midlatitude() {
        let z = GsoExclusion::for_site(iowa(), 12.0);
        assert!(z.arc_visible());
        // The arc's highest point from 41.66°N is due south at elevation
        // ~41-43° (geometry of the belt). A satellite there must be excluded.
        assert!(z.excludes(&look(42.0, 180.0)));
        // Straight north at the same elevation: far from the belt.
        assert!(!z.excludes(&look(42.0, 0.0)));
    }

    #[test]
    fn zenith_is_outside_the_zone_at_midlatitude() {
        let z = GsoExclusion::for_site(iowa(), 15.0);
        assert!(!z.excludes(&look(90.0, 0.0)));
        assert!(z.separation_deg(&look(90.0, 0.0)) > 30.0);
    }

    #[test]
    fn southern_low_sky_is_excluded_northern_low_sky_is_not() {
        let z = GsoExclusion::for_site(iowa(), 15.0);
        // Low southern sky hugs the belt for a wide azimuth span.
        assert!(z.excludes(&look(35.0, 160.0)));
        assert!(z.excludes(&look(35.0, 200.0)));
        assert!(!z.excludes(&look(35.0, 330.0)));
        assert!(!z.excludes(&look(35.0, 30.0)));
    }

    #[test]
    fn separation_shrinks_toward_the_belt() {
        let z = GsoExclusion::for_site(iowa(), 15.0);
        let near = z.separation_deg(&look(45.0, 180.0));
        let far = z.separation_deg(&look(80.0, 0.0));
        assert!(near < far, "near {near} vs far {far}");
    }

    #[test]
    fn pruned_separation_matches_the_exhaustive_fold_bit_for_bit() {
        let zones = [
            GsoExclusion::for_site(iowa(), 12.0),
            GsoExclusion::for_site(Geodetic::new(0.0, 17.2, 0.0), 12.0),
            GsoExclusion::for_site(Geodetic::new(-41.66, 130.0, 0.2), 15.0),
            GsoExclusion::for_site(Geodetic::new(67.0, -20.0, 0.1), 12.0),
        ];
        for z in &zones {
            for el10 in (250..=900).step_by(23) {
                for az in (0..360).step_by(7) {
                    let l = look(el10 as f64 / 10.0, az as f64);
                    let dir = look_to_unit(&l);
                    let exhaustive = z
                        .arc_dirs
                        .iter()
                        .map(|a| a.angle_to(dir).to_degrees())
                        .fold(f64::INFINITY, f64::min);
                    assert_eq!(
                        z.separation_deg(&l).to_bits(),
                        exhaustive.to_bits(),
                        "el {} az {az}",
                        el10 as f64 / 10.0
                    );
                }
            }
        }
    }

    #[test]
    fn fused_query_matches_the_reference_bit_for_bit() {
        // The fused query is what the scheduler's hot path calls; it must
        // agree with the exhaustive reference tests on every output bit
        // across sites on both hemispheres, the equator and near the poles:
        // `None` exactly on exclusion, the reference separation bits
        // otherwise.
        let zones = [
            GsoExclusion::for_site(iowa(), 12.0),
            GsoExclusion::for_site(Geodetic::new(0.0, 17.2, 0.0), 12.0),
            GsoExclusion::for_site(Geodetic::new(-41.66, 130.0, 0.2), 15.0),
            GsoExclusion::for_site(Geodetic::new(67.0, -20.0, 0.1), 12.0),
            GsoExclusion::for_site(Geodetic::new(-88.0, 5.0, 0.0), 12.0),
            GsoExclusion::for_site(Geodetic::new(80.5, 140.0, 3.5), 12.0),
        ];
        for z in &zones {
            for el10 in (0..=900).step_by(13) {
                for az in (0..360).step_by(5) {
                    let l = look(el10 as f64 / 10.0, az as f64);
                    assert_eq!(
                        z.separation_if_clear(&l).map(f64::to_bits),
                        (!z.excludes(&l)).then(|| z.separation_deg(&l).to_bits()),
                        "fused el {} az {az}",
                        el10 as f64 / 10.0
                    );
                }
            }
        }
    }

    #[test]
    fn fused_query_handles_zones_without_an_arc() {
        let disabled = GsoExclusion::disabled();
        assert_eq!(disabled.separation_if_clear(&look(42.0, 180.0)), Some(f64::INFINITY));
        // From 89.9°N the whole belt sits below the −5° cut.
        let polar = GsoExclusion::for_site(Geodetic::new(89.9, 0.0, 0.0), 12.0);
        assert!(!polar.arc_visible());
        assert_eq!(polar.separation_if_clear(&look(10.0, 180.0)), Some(f64::INFINITY));
    }

    /// The historical construction: one free `look_angles` call (and so
    /// one observer frame) per belt point, no prefilter, grown by `push`.
    fn reference_arc(site: Geodetic) -> Vec<Vec3> {
        let mut arc_dirs = Vec::new();
        for k in 0..720 {
            let lon = k as f64 * 0.5;
            let gso = Vec3::new(
                GSO_RADIUS_KM * lon.to_radians().cos(),
                GSO_RADIUS_KM * lon.to_radians().sin(),
                0.0,
            );
            let look = look_angles(site, gso);
            if look.elevation_deg > -5.0 {
                arc_dirs.push(look_to_unit(&look));
            }
        }
        arc_dirs
    }

    #[test]
    fn cached_frame_construction_matches_the_reference_bit_for_bit() {
        // Latitudes −89.9…89.9 at three altitudes, with the longitude
        // swept too: the arc, its length and every component's bits must
        // match the per-point `look_angles` construction. Near-cut belt
        // points (within 0.05° of −5°) occur throughout, so the
        // prefilter's boundary is exercised.
        let mut near_cut = 0usize;
        for alt in [0.0, 0.2, 3.5] {
            for lat10 in (-899..=899).step_by(7) {
                let lat = lat10 as f64 / 10.0;
                let lon = (lat10 as f64 * 7.3).rem_euclid(360.0) - 180.0;
                let site = Geodetic::new(lat, lon, alt);
                let z = GsoExclusion::for_site(site, 12.0);
                let reference = reference_arc(site);
                assert_eq!(z.arc_dirs.len(), reference.len(), "site {site:?}");
                assert_eq!(z.arc_dirs.capacity(), z.arc_dirs.len(), "site {site:?}");
                for (a, b) in z.arc_dirs.iter().zip(&reference) {
                    assert_eq!(a.x.to_bits(), b.x.to_bits(), "site {site:?}");
                    assert_eq!(a.y.to_bits(), b.y.to_bits(), "site {site:?}");
                    assert_eq!(a.z.to_bits(), b.z.to_bits(), "site {site:?}");
                }
                near_cut += belt()
                    .iter()
                    .filter(|&&p| (look_angles(site, p).elevation_deg + 5.0).abs() < 0.05)
                    .count();
            }
        }
        assert!(near_cut > 100, "only {near_cut} near-cut belt points");
    }

    #[test]
    fn half_angle_getter_reports_the_construction_value() {
        assert_eq!(GsoExclusion::for_site(iowa(), 12.5).half_angle_deg(), 12.5);
        assert_eq!(GsoExclusion::disabled().half_angle_deg(), 0.0);
    }

    #[test]
    fn disabled_zone_never_excludes() {
        let z = GsoExclusion::disabled();
        assert!(!z.excludes(&look(42.0, 180.0)));
        assert!(!z.arc_visible());
        assert_eq!(z.separation_deg(&look(42.0, 180.0)), f64::INFINITY);
    }

    #[test]
    fn equatorial_site_has_belt_overhead() {
        let z = GsoExclusion::for_site(Geodetic::new(0.0, 0.0, 0.0), 12.0);
        // From the equator the belt passes through zenith.
        assert!(z.excludes(&look(89.0, 90.0)) || z.excludes(&look(89.0, 270.0)));
    }

    #[test]
    fn southern_hemisphere_mirror_image() {
        // From 41°S the belt is in the *northern* sky: the exclusion flips,
        // which is exactly the generalization limitation §8 of the paper
        // calls out.
        let z = GsoExclusion::for_site(Geodetic::new(-41.66, -91.53, 0.2), 12.0);
        assert!(z.excludes(&look(42.0, 0.0)));
        assert!(!z.excludes(&look(42.0, 180.0)));
    }

    #[test]
    fn wider_half_angle_excludes_more() {
        let narrow = GsoExclusion::for_site(iowa(), 5.0);
        let wide = GsoExclusion::for_site(iowa(), 25.0);
        let probe = look(55.0, 180.0);
        if narrow.excludes(&probe) {
            assert!(wide.excludes(&probe));
        }
        // A direction excluded by the wide zone but not the narrow one
        // must exist somewhere along the southern sky.
        let mut found = false;
        for el in 25..80 {
            let l = look(el as f64, 180.0);
            if wide.excludes(&l) && !narrow.excludes(&l) {
                found = true;
                break;
            }
        }
        assert!(found);
    }
}
