//! The metrics the benchmark reports, as declared in `BENCHMARK.json`.
//! A self-test keeps the two lists identical.

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("wall_s", "s", Lower, 0.25),
    e2e("slot_terminals_per_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("ident_accuracy", "ratio", Higher, 0.15),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`).
pub const PER_LAYER: [MetricSpec; 31] = [
    layer("constellation.build_s", "s", Lower),
    layer("constellation.prepare_s", "s", Lower),
    layer("constellation.prepare_epochs", "count", Lower),
    layer("constellation.snapshot_s", "s", Lower),
    layer("scheduler.new_s", "s", Lower),
    layer("scheduler.fov_s", "s", Lower),
    layer("scheduler.fov_candidates_per_cell", "count", Lower),
    layer("scheduler.allocate_s", "s", Lower),
    layer("scheduler.served_share", "ratio", Higher),
    layer("ident.dish_s", "s", Lower),
    layer("ident.verdict_s", "s", Lower),
    layer("obstruction.isolate_s", "s", Lower),
    layer("ident.tracks_prefiltered", "count", Higher),
    layer("ident.tracks_surviving", "count", Lower),
    layer("ident.interior_propagations", "count", Lower),
    layer("ident.identified_share", "ratio", Higher),
    layer("dtw.cells_evaluated", "count", Lower),
    layer("dtw.cells_full", "count", Lower),
    layer("dtw.pruned_ratio", "ratio", Higher),
    layer("core.characterize_s", "s", Lower),
    layer("core.train_s", "s", Lower),
    layer("rf_top5_accuracy", "ratio", Higher),
    layer("checkpoint.segment_s", "s", Lower),
    layer("checkpoint.write_s", "s", Lower),
    layer("checkpoint.load_s", "s", Lower),
    layer("checkpoint.bytes_written", "bytes", Lower),
    layer("checkpoint.count", "count", Lower),
    layer("checkpoint_mb", "MB", Lower),
    layer("core.fingerprint_s", "s", Lower),
    layer("core.unattributed_s", "s", Lower),
    layer("trace.overhead_s", "s", Lower),
];
