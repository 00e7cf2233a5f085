//! Ablation cost benches: the per-slot cost of the hidden global scheduler
//! under each policy variant DESIGN.md calls out, plus the cost of the GSO
//! geometry itself: zone construction, the exhaustive reference folds and
//! the fused query the scheduler runs.
//!
//! (The *effect* of each ablation on the paper's findings is measured by
//! the `tab_ablation` experiment binary; these benches track what each
//! policy term costs in scheduler time.)

use criterion::{criterion_group, criterion_main, Criterion};
use starsense_astro::frames::{Geodetic, LookAngles};
use starsense_astro::time::JulianDate;
use starsense_constellation::ConstellationBuilder;
use starsense_core::vantage::paper_terminals;
use starsense_scheduler::{GlobalScheduler, GsoExclusion, SchedulerPolicy};
use std::hint::black_box;

fn bench_scheduler_variants(c: &mut Criterion) {
    let constellation = ConstellationBuilder::starlink_mini().seed(5).build();
    let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 5.0);

    let variants: Vec<(&str, SchedulerPolicy)> = vec![
        ("full", SchedulerPolicy::default()),
        (
            "no_gso",
            SchedulerPolicy {
                gso_half_angle_deg: None,
                w_gso_margin: 0.0,
                ..SchedulerPolicy::default()
            },
        ),
        ("no_elevation", SchedulerPolicy { w_elevation: 0.0, ..SchedulerPolicy::default() }),
    ];

    let mut g = c.benchmark_group("scheduler_allocate_mini");
    for (name, policy) in variants {
        g.bench_function(name, |b| {
            let mut sched = GlobalScheduler::new(policy.clone(), paper_terminals(), 5);
            b.iter(|| black_box(sched.allocate(&constellation, black_box(at))))
        });
    }
    g.finish();
}

fn bench_gso(c: &mut Criterion) {
    let iowa = Geodetic::new(41.66, -91.53, 0.2);
    c.bench_function("gso/build_site_zone", |b| {
        b.iter(|| black_box(GsoExclusion::for_site(black_box(iowa), 12.0)))
    });
    let zone = GsoExclusion::for_site(iowa, 12.0);
    let look = LookAngles { elevation_deg: 42.0, azimuth_deg: 180.0, range_km: 900.0 };
    c.bench_function("gso/excludes_query", |b| {
        b.iter(|| black_box(zone.excludes(black_box(&look))))
    });
    c.bench_function("gso/separation_query", |b| {
        b.iter(|| black_box(zone.separation_deg(black_box(&look))))
    });

    // The fused query the scheduler actually runs, over a sky grid at and
    // above the default 25° minimum elevation, so each sample mixes
    // early-exit (excluded) and full-scan (clear) directions.
    let sky: Vec<LookAngles> = (0..8)
        .flat_map(|i| {
            (0..12).map(move |j| LookAngles {
                elevation_deg: 25.0 + 8.0 * i as f64,
                azimuth_deg: 30.0 * j as f64 + 7.0,
                range_km: 900.0,
            })
        })
        .collect();
    let mut g = c.benchmark_group("gso/fused_query");
    for (name, site) in [
        ("north", iowa),
        ("equator", Geodetic::new(0.0, 17.2, 0.0)),
        ("south", Geodetic::new(-41.66, 130.0, 0.2)),
    ] {
        let zone = GsoExclusion::for_site(site, 12.0);
        g.bench_function(name, |b| {
            b.iter(|| {
                sky.iter()
                    .map(|l| zone.separation_if_clear(black_box(l)).unwrap_or(-1.0))
                    .sum::<f64>()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scheduler_variants, bench_gso);
criterion_main!(benches);
