//! Reference-frame transforms.
//!
//! Three frames matter for the reproduction:
//!
//! * **TEME** — the true-equator/mean-equinox inertial frame SGP4 outputs,
//! * **ECEF** — Earth-centred Earth-fixed, rotating with the planet,
//! * **topocentric SEZ** at a terminal, from which look angles
//!   (angle-of-elevation, azimuth, range) are derived.
//!
//! Polar motion and UT1−UTC are neglected (tens of metres / milliseconds),
//! far below the obstruction-map pixel quantization (~1.4° per pixel) that
//! dominates the paper's identification error budget.

use crate::mat3::Mat3;
use crate::time::JulianDate;
use crate::vec3::Vec3;
use crate::{EARTH_FLATTENING, EARTH_RADIUS_KM};

/// Geodetic coordinates on the WGS-84 ellipsoid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geodetic {
    /// Geodetic latitude in degrees, north positive.
    pub lat_deg: f64,
    /// Longitude in degrees, east positive, `(-180, 180]`.
    pub lon_deg: f64,
    /// Height above the ellipsoid in kilometres.
    pub alt_km: f64,
}

impl Geodetic {
    /// Creates a geodetic position.
    pub const fn new(lat_deg: f64, lon_deg: f64, alt_km: f64) -> Self {
        Geodetic { lat_deg, lon_deg, alt_km }
    }
}

/// Topocentric look angles from an observer to a target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookAngles {
    /// Angle of elevation above the local horizon, degrees, `[-90, 90]`.
    pub elevation_deg: f64,
    /// Azimuth measured clockwise from true north, degrees, `[0, 360)`.
    pub azimuth_deg: f64,
    /// Slant range to the target in kilometres.
    pub range_km: f64,
}

/// Rotates a TEME position to ECEF at the given instant.
///
/// The TEME→PEF rotation is a single spin about the pole by GMST; PEF≈ECEF
/// under the neglect of polar motion.
pub fn teme_to_ecef(r_teme: Vec3, at: JulianDate) -> Vec3 {
    Mat3::rot_z(at.gmst_rad()) * r_teme
}

/// Rotates an ECEF position back to TEME at the given instant.
pub fn ecef_to_teme(r_ecef: Vec3, at: JulianDate) -> Vec3 {
    Mat3::rot_z(-at.gmst_rad()) * r_ecef
}

/// Converts geodetic coordinates to an ECEF position vector (km).
pub fn geodetic_to_ecef(geo: Geodetic) -> Vec3 {
    let lat = geo.lat_deg.to_radians();
    let lon = geo.lon_deg.to_radians();
    let e2 = EARTH_FLATTENING * (2.0 - EARTH_FLATTENING);
    let sin_lat = lat.sin();
    let n = EARTH_RADIUS_KM / (1.0 - e2 * sin_lat * sin_lat).sqrt();
    Vec3::new(
        (n + geo.alt_km) * lat.cos() * lon.cos(),
        (n + geo.alt_km) * lat.cos() * lon.sin(),
        (n * (1.0 - e2) + geo.alt_km) * sin_lat,
    )
}

/// Converts an ECEF position to geodetic coordinates (iterative, converges in
/// a handful of iterations for any point outside the Earth's core).
pub fn ecef_to_geodetic(r: Vec3) -> Geodetic {
    let e2 = EARTH_FLATTENING * (2.0 - EARTH_FLATTENING);
    let p = (r.x * r.x + r.y * r.y).sqrt();
    let lon = r.y.atan2(r.x);

    let mut lat = (r.z / (p * (1.0 - e2))).atan();
    let mut alt = 0.0;
    for _ in 0..8 {
        let sin_lat = lat.sin();
        let n = EARTH_RADIUS_KM / (1.0 - e2 * sin_lat * sin_lat).sqrt();
        alt = if lat.abs() < 1.3 { p / lat.cos() - n } else { r.z / sin_lat - n * (1.0 - e2) };
        lat = (r.z / (p * (1.0 - e2 * n / (n + alt)))).atan();
    }

    Geodetic { lat_deg: lat.to_degrees(), lon_deg: lon.to_degrees(), alt_km: alt }
}

/// A precomputed observer frame for repeated look-angle queries from one
/// site: the observer's ECEF position and the four latitude/longitude
/// trigonometric factors of the ECEF→SEZ rotation, hoisted out of the
/// per-target evaluation.
///
/// [`Topocentric::look_angles`] runs the exact arithmetic of the free
/// [`look_angles`] function (which delegates here), so answering a query
/// through a cached frame is bit-identical to calling the free function —
/// only the per-call recomputation of the observer-side factors goes away.
#[derive(Debug, Clone, Copy)]
pub struct Topocentric {
    ecef: Vec3,
    sin_lat: f64,
    cos_lat: f64,
    sin_lon: f64,
    cos_lon: f64,
}

impl Topocentric {
    /// Builds the frame for an observer at `geo`.
    pub fn new(geo: Geodetic) -> Topocentric {
        let ecef = geodetic_to_ecef(geo);
        let lat = geo.lat_deg.to_radians();
        let lon = geo.lon_deg.to_radians();
        let (sin_lat, cos_lat) = lat.sin_cos();
        let (sin_lon, cos_lon) = lon.sin_cos();
        Topocentric { ecef, sin_lat, cos_lat, sin_lon, cos_lon }
    }

    /// The observer's ECEF position, km.
    pub fn ecef(&self) -> Vec3 {
        self.ecef
    }

    /// Look angles from this observer to `target_ecef` — the shared
    /// implementation behind the free [`look_angles`] function.
    pub fn look_angles(&self, target_ecef: Vec3) -> LookAngles {
        let rho = target_ecef - self.ecef;

        // ECEF → SEZ (south, east, zenith) at the observer.
        let s = self.sin_lat * self.cos_lon * rho.x + self.sin_lat * self.sin_lon * rho.y
            - self.cos_lat * rho.z;
        let e = -self.sin_lon * rho.x + self.cos_lon * rho.y;
        let z = self.cos_lat * self.cos_lon * rho.x
            + self.cos_lat * self.sin_lon * rho.y
            + self.sin_lat * rho.z;

        let range = rho.norm();
        let elevation = (z / range).asin();
        // Azimuth clockwise from north: atan2(east, north) with north = -south.
        let azimuth = e.atan2(-s);

        LookAngles {
            elevation_deg: elevation.to_degrees(),
            azimuth_deg: azimuth.to_degrees().rem_euclid(360.0),
            range_km: range,
        }
    }

    /// Sine of the elevation angle to `target_ecef`: the `z / range`
    /// quotient [`Topocentric::look_angles`] passes to `asin`, evaluated
    /// with the same arithmetic but without the two inverse-trigonometric
    /// calls — a cheap horizon test for callers that discard low targets.
    pub fn sin_elevation(&self, target_ecef: Vec3) -> f64 {
        let rho = target_ecef - self.ecef;
        let z = self.cos_lat * self.cos_lon * rho.x
            + self.cos_lat * self.sin_lon * rho.y
            + self.sin_lat * rho.z;
        z / rho.norm()
    }
}

/// Computes look angles from an observer to a target, both in ECEF.
///
/// The azimuth convention matches the obstruction map: 0° = true north,
/// increasing clockwise (90° = east), exactly as recovered in §4.1 of the
/// paper.
pub fn look_angles(observer_geo: Geodetic, target_ecef: Vec3) -> LookAngles {
    Topocentric::new(observer_geo).look_angles(target_ecef)
}

/// Look angles to a satellite given in TEME at a known instant.
pub fn look_angles_teme(observer_geo: Geodetic, sat_teme: Vec3, at: JulianDate) -> LookAngles {
    look_angles(observer_geo, teme_to_ecef(sat_teme, at))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geodetic_ecef_round_trip() {
        for &(lat, lon, alt) in &[
            (0.0, 0.0, 0.0),
            (41.66, -91.53, 0.2),   // Iowa City
            (42.44, -76.50, 0.3),   // Ithaca
            (40.42, -3.70, 0.65),   // Madrid
            (-33.86, 151.21, 0.05), // Sydney
            (78.0, 15.0, 0.0),      // Svalbard
        ] {
            let geo = Geodetic::new(lat, lon, alt);
            let back = ecef_to_geodetic(geodetic_to_ecef(geo));
            assert!((back.lat_deg - lat).abs() < 1e-6, "lat for {geo:?}");
            assert!((back.lon_deg - lon).abs() < 1e-6, "lon for {geo:?}");
            assert!((back.alt_km - alt).abs() < 1e-6, "alt for {geo:?}");
        }
    }

    #[test]
    fn equator_ecef_has_expected_radius() {
        let r = geodetic_to_ecef(Geodetic::new(0.0, 0.0, 0.0));
        assert!((r.x - EARTH_RADIUS_KM).abs() < 1e-9);
        assert!(r.y.abs() < 1e-9 && r.z.abs() < 1e-9);
    }

    #[test]
    fn zenith_target_has_90_elevation() {
        let geo = Geodetic::new(45.0, 10.0, 0.0);
        let obs = geodetic_to_ecef(geo);
        let target = obs * ((obs.norm() + 550.0) / obs.norm());
        let la = look_angles(geo, target);
        // Straight up along the geocentric radial is within a fraction of a
        // degree of geodetic zenith at 45° latitude (deflection ~0.19°·h/R).
        assert!(la.elevation_deg > 89.0, "elevation {}", la.elevation_deg);
    }

    #[test]
    fn due_north_target_has_zero_azimuth() {
        let geo = Geodetic::new(40.0, 0.0, 0.0);
        // A point further north at satellite altitude.
        let target = geodetic_to_ecef(Geodetic::new(48.0, 0.0, 550.0));
        let la = look_angles(geo, target);
        assert!(la.azimuth_deg < 1.0 || la.azimuth_deg > 359.0, "az {}", la.azimuth_deg);
        assert!(la.elevation_deg > 0.0);
    }

    #[test]
    fn due_east_target_has_90_azimuth() {
        let geo = Geodetic::new(0.0, 0.0, 0.0);
        let target = geodetic_to_ecef(Geodetic::new(0.0, 5.0, 550.0));
        let la = look_angles(geo, target);
        assert!((la.azimuth_deg - 90.0).abs() < 1.0, "az {}", la.azimuth_deg);
    }

    #[test]
    fn cached_topocentric_frame_is_bit_identical_to_look_angles() {
        for &(lat, lon, alt) in &[
            (0.0, 0.0, 0.0),
            (41.66, -91.53, 0.2),
            (-33.86, 151.21, 0.05),
            (78.0, 15.0, 0.0),
            (-89.5, 179.9, 0.0),
        ] {
            let geo = Geodetic::new(lat, lon, alt);
            let frame = Topocentric::new(geo);
            assert_eq!(frame.ecef(), geodetic_to_ecef(geo));
            for k in 0..40 {
                let t = k as f64;
                let target = Vec3::new(
                    6900.0 * (t * 0.37).cos(),
                    6900.0 * (t * 0.37).sin(),
                    3000.0 * (t * 0.11).sin(),
                );
                let a = look_angles(geo, target);
                let b = frame.look_angles(target);
                assert_eq!(a.elevation_deg.to_bits(), b.elevation_deg.to_bits());
                assert_eq!(a.azimuth_deg.to_bits(), b.azimuth_deg.to_bits());
                assert_eq!(a.range_km.to_bits(), b.range_km.to_bits());
                let el = frame.sin_elevation(target).asin().to_degrees();
                assert_eq!(el.to_bits(), a.elevation_deg.to_bits());
            }
        }
    }

    #[test]
    fn teme_ecef_round_trip() {
        let at = JulianDate::from_ymd_hms(2023, 4, 2, 10, 30, 0.0);
        let r = Vec3::new(-4400.594, 1932.87, 4760.712);
        let back = ecef_to_teme(teme_to_ecef(r, at), at);
        assert!((back - r).norm() < 1e-9);
    }

    #[test]
    fn teme_to_ecef_preserves_norm_and_z() {
        let at = JulianDate::from_ymd_hms(2023, 4, 2, 10, 30, 0.0);
        let r = Vec3::new(-4400.594, 1932.87, 4760.712);
        let e = teme_to_ecef(r, at);
        assert!((e.norm() - r.norm()).abs() < 1e-9);
        assert!((e.z - r.z).abs() < 1e-12); // rotation is about the pole
    }

    #[test]
    fn range_to_overhead_leo_satellite_is_its_altitude() {
        let geo = Geodetic::new(30.0, -100.0, 0.0);
        let obs = geodetic_to_ecef(geo);
        let target = obs.unit() * (obs.norm() + 550.0);
        let la = look_angles(geo, target);
        assert!((la.range_km - 550.0).abs() < 1.0);
    }
}
