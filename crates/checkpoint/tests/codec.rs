//! Property tests for the snapshot codec: encode→decode identity for
//! arbitrary section sets, and *no input* — random bytes, truncations,
//! bit flips, mangled headers — may panic the parser or hand back a
//! snapshot that fails checksum validation silently.

use proptest::prelude::*;
use starsense_checkpoint::{
    fnv1a, ByteReader, ByteWriter, CheckpointError, Snapshot, SnapshotBuilder, MAGIC, VERSION,
};

fn build(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut b = SnapshotBuilder::new();
    for (id, payload) in sections {
        b.add_section(*id, payload.clone());
    }
    b.finish().expect("ids deduplicated by generator")
}

fn section_set() -> impl Strategy<Value = Vec<(u32, Vec<u8>)>> {
    proptest::collection::vec((0u32..50, proptest::collection::vec(0u8..=255, 0..200)), 0..6)
        .prop_map(|mut sections| {
            // Deduplicate ids, keeping first occurrence, so finish() succeeds.
            let mut seen = Vec::new();
            sections.retain(|(id, _)| {
                if seen.contains(id) {
                    false
                } else {
                    seen.push(*id);
                    true
                }
            });
            sections
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode→parse returns exactly the sections that went in, ids and
    /// payload bytes alike.
    #[test]
    fn round_trip_identity(sections in section_set()) {
        let bytes = build(&sections);
        let snap = Snapshot::parse(&bytes).expect("freshly built snapshot must parse");
        let ids: Vec<u32> = sections.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(snap.section_ids(), ids);
        for (id, payload) in &sections {
            prop_assert_eq!(snap.section(*id).expect("present"), payload.as_slice());
        }
    }

    /// Serialization is a pure function of the section list.
    #[test]
    fn encoding_is_deterministic(sections in section_set()) {
        prop_assert_eq!(build(&sections), build(&sections));
    }

    /// Truncating a valid snapshot anywhere fails validation cleanly.
    #[test]
    fn truncation_always_errors(sections in section_set(), cut in 0usize..10_000) {
        let bytes = build(&sections);
        let keep = cut % bytes.len();
        prop_assert!(Snapshot::parse(&bytes[..keep]).is_err());
    }

    /// Flipping any single bit fails validation cleanly.
    #[test]
    fn bit_flip_always_detected(sections in section_set(), pos in 0usize..10_000, bit in 0u8..8) {
        let mut bytes = build(&sections);
        let i = pos % bytes.len();
        bytes[i] ^= 1 << bit;
        prop_assert!(Snapshot::parse(&bytes).is_err());
    }

    /// Arbitrary garbage never panics the parser (it may occasionally be
    /// rejected with any error variant, but must always return).
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..400)) {
        let _ = Snapshot::parse(&bytes);
    }

    /// Garbage prefixed with a valid-looking header start still never
    /// panics — exercises the table/checksum paths rather than dying on
    /// the magic check.
    #[test]
    fn magic_prefixed_garbage_never_panics(tail in proptest::collection::vec(0u8..=255, 0..400)) {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&tail);
        let _ = Snapshot::parse(&bytes);
    }

    /// The primitive reader tolerates arbitrary input for every getter.
    #[test]
    fn byte_reader_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let mut r = ByteReader::new(&bytes);
        let _ = r.get_u8("a");
        let _ = r.get_bool("b");
        let _ = r.get_u32("c");
        let _ = r.get_u64("d");
        let _ = r.get_i64("e");
        let _ = r.get_f64_bits("f");
        let _ = r.get_bytes("g");
        let _ = r.get_str("h");
        let _ = r.expect_exhausted("i");
    }
}

#[test]
fn writer_reader_agree_on_mixed_stream() {
    let mut w = ByteWriter::with_capacity(64);
    w.put_usize(3);
    w.put_bytes(&[0xFF, 0x00]);
    w.put_f64_bits(f64::INFINITY);
    let buf = w.into_bytes();
    let mut r = ByteReader::new(&buf);
    assert_eq!(r.get_usize("n").expect("usize"), 3);
    assert_eq!(r.get_bytes("blob").expect("bytes"), &[0xFF, 0x00]);
    assert_eq!(r.get_f64_bits("inf").expect("f64"), f64::INFINITY);
    r.expect_exhausted("end").expect("consumed");
}

#[test]
fn fnv1a_matches_reference_vectors() {
    // Standard FNV-1a test vectors (64-bit).
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn version_is_pinned() {
    // Bumping the format version is a deliberate act: it invalidates every
    // snapshot in the field. This pin makes that show up in review.
    assert_eq!(VERSION, 1);
    assert_eq!(&MAGIC, b"SSCP");
    let err = {
        let mut bytes = build(&[(1, vec![1, 2, 3])]);
        bytes[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        Snapshot::parse(&bytes).expect_err("future version must be rejected")
    };
    assert_eq!(err, CheckpointError::UnsupportedVersion { found: VERSION + 1 });
}
