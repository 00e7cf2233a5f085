//! Golden outputs of every workload at its benchmark size for
//! [`crate::workloads::DEFAULT_SEED`]. They pin the observation stream
//! absolutely, not only run against run: a change that shifts every run
//! the same way still fails here.

use crate::workloads::{IterationOutput, Workload};

/// What a workload must produce for the default seed.
struct Golden {
    fingerprint: u64,
    /// `f64::to_bits` of the mean top-5 forest accuracy.
    rf_top5_bits: Option<u64>,
    /// Final snapshot size on disk.
    checkpoint_bytes: Option<u64>,
}

fn golden(w: Workload) -> Golden {
    match w {
        Workload::FleetOracle => Golden {
            fingerprint: 0x12e9_c50b_5b9b_ef4f,
            rf_top5_bits: None,
            checkpoint_bytes: None,
        },
        Workload::PaperPipeline => Golden {
            fingerprint: 0x290a_d9e6_08e6_1546,
            rf_top5_bits: Some(0x3fdd_5d56_97b0_4f82),
            checkpoint_bytes: None,
        },
        Workload::FleetResume => Golden {
            fingerprint: 0x2dc2_9882_b487_3b37,
            rf_top5_bits: None,
            checkpoint_bytes: Some(114_926_364),
        },
    }
}

/// Compares a default-seed iteration with the recorded golden values.
pub fn check(w: Workload, out: &IterationOutput) -> Result<(), String> {
    let g = golden(w);
    let mut diffs = Vec::new();
    if out.fingerprint != g.fingerprint {
        diffs
            .push(format!("fingerprint {:#018x}, golden {:#018x}", out.fingerprint, g.fingerprint));
    }
    let rf = out.rf_top5_accuracy.map(f64::to_bits);
    if rf != g.rf_top5_bits {
        diffs.push(format!("rf_top5_accuracy bits {rf:#x?}, golden {:#x?}", g.rf_top5_bits));
    }
    if out.checkpoint_bytes != g.checkpoint_bytes {
        diffs.push(format!(
            "checkpoint bytes {:?}, golden {:?}",
            out.checkpoint_bytes, g.checkpoint_bytes
        ));
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!("{} golden mismatch: {}", w.name(), diffs.join("; ")))
    }
}
