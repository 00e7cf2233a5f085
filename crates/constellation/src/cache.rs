//! Per-epoch propagation cache.
//!
//! A measurement campaign asks for the same instants over and over: every
//! terminal's field-of-view query hits the slot's epoch, and every
//! terminal's candidate generator hits the same slot boundary epochs.
//! [`PropagationCache`] holds both the **true** catalog snapshot
//! (scheduler side) and the **published**-TLE positions (identification
//! side) per exact epoch, so the constellation is SGP4-propagated once per
//! instant no matter how many terminals — or worker threads — observe it.
//!
//! The epochs are known before the hot loops start, so the cache is one
//! immutable, sorted epoch table built by [`PropagationCache::prepare`] (a
//! single batched, optionally parallel fill through the struct-of-arrays
//! SGP4 path). Lookups against it are a binary search over a frozen `Vec`
//! behind a `OnceLock`: **no lock, no write, no contention** on the hot
//! read path, which is what lets the sharded campaign workers scale with
//! cores. The campaign engine prepares every slot epoch (and, in
//! identified mode, every slot boundary epoch) per segment. A lookup of an
//! epoch nobody prepared is computed on the spot, returned unmemoized and
//! counted as a miss, so a campaign's [`CacheStats::misses`] reads zero
//! exactly when every epoch it reads was prepared.
//!
//! Per-(satellite, epoch) sparse lookups do not go through the shared
//! table: [`SparseMemo`] is a plain single-owner memo a caller (one
//! identification track cache, one shard worker) holds privately, so
//! sparse traffic never crosses threads and never takes a lock.
//!
//! Determinism: an epoch is keyed by the exact bit pattern of its Julian
//! date, and every value is a pure function of (catalog, epoch), so a
//! prepared hit, a sparse-memo hit and a recomputation are bit-identical.

use crate::catalog::{Constellation, Snapshot};
use starsense_astro::time::JulianDate;
use starsense_astro::vec3::Vec3;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Hit/miss counters, for benches and capacity planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the prepared table.
    pub hits: usize,
    /// Lookups of an unprepared epoch, which propagated a full catalog
    /// row or snapshot.
    pub misses: usize,
    /// Prepared true-snapshot epochs.
    pub truth_entries: usize,
    /// Prepared published-position epochs.
    pub published_entries: usize,
}

/// The immutable epoch table: sorted epoch keys with their propagated
/// rows, built once and never mutated, so readers need no synchronization
/// beyond the `OnceLock` publication.
#[derive(Debug, Default)]
struct PreparedEpochs {
    truth_keys: Vec<u64>,
    truth_rows: Vec<Arc<Snapshot>>,
    published_keys: Vec<u64>,
    published_rows: Vec<Arc<Vec<Option<Vec3>>>>,
}

/// A thread-safe table of per-epoch propagation results for one
/// [`Constellation`] (see the module docs).
#[derive(Debug)]
pub struct PropagationCache<'a> {
    constellation: &'a Constellation,
    prepared: OnceLock<PreparedEpochs>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// Sorted, deduplicated bit-pattern keys for a list of epochs.
fn sorted_keys(epochs: &[JulianDate]) -> Vec<u64> {
    let mut keys: Vec<u64> = epochs.iter().map(|at| at.0.to_bits()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Computes `rows[i] = make(keys[i])` across up to `threads` scoped
/// workers. Workers take interleaved indices and return `(index, row)`
/// pairs that are merged by index, so the output order — and therefore
/// everything downstream — is independent of scheduling.
fn fill_rows<R: Send>(
    keys: &[u64],
    threads: usize,
    make: impl Fn(JulianDate) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(keys.len().max(1));
    if threads <= 1 {
        return keys.iter().map(|&k| make(JulianDate(f64::from_bits(k)))).collect();
    }
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(keys.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..threads {
            let make = &make;
            handles.push(scope.spawn(move || {
                keys.iter()
                    .enumerate()
                    .skip(worker)
                    .step_by(threads)
                    .map(|(i, &k)| (i, make(JulianDate(f64::from_bits(k)))))
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            let part = handle.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            indexed.extend(part);
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

impl<'a> PropagationCache<'a> {
    /// Creates an empty cache over `constellation`.
    pub fn new(constellation: &'a Constellation) -> PropagationCache<'a> {
        PropagationCache {
            constellation,
            prepared: OnceLock::new(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// The catalog this cache propagates.
    pub fn constellation(&self) -> &'a Constellation {
        self.constellation
    }

    /// Builds the immutable epoch table: true snapshots for every epoch in
    /// `truth_epochs` and published-TLE rows for every epoch in
    /// `published_epochs`, filled by one batched pass fanned across up to
    /// `threads` scoped workers (≤ 1 fills serially).
    ///
    /// Returns `false` (and changes nothing) if the table was already
    /// built — the table is write-once by design, so callers prepare every
    /// epoch they need in one call before the hot loops start. Epochs are
    /// deduplicated; later lookups of a prepared epoch touch no lock.
    pub fn prepare(
        &self,
        truth_epochs: &[JulianDate],
        published_epochs: &[JulianDate],
        threads: usize,
    ) -> bool {
        if self.prepared.get().is_some() {
            return false;
        }
        let truth_keys = sorted_keys(truth_epochs);
        let published_keys = sorted_keys(published_epochs);
        let truth_rows =
            fill_rows(&truth_keys, threads, |at| Arc::new(self.constellation.snapshot(at)));
        let published_rows = fill_rows(&published_keys, threads, |at| {
            Arc::new(self.constellation.published_row(at))
        });
        let table = PreparedEpochs { truth_keys, truth_rows, published_keys, published_rows };
        self.prepared.set(table).is_ok()
    }

    /// Lookup of a prepared true snapshot.
    fn prepared_truth(&self, key: u64) -> Option<&Arc<Snapshot>> {
        let p = self.prepared.get()?;
        let i = p.truth_keys.binary_search(&key).ok()?;
        Some(&p.truth_rows[i])
    }

    /// Lookup of a prepared published row.
    fn prepared_published(&self, key: u64) -> Option<&Arc<Vec<Option<Vec3>>>> {
        let p = self.prepared.get()?;
        let i = p.published_keys.binary_search(&key).ok()?;
        Some(&p.published_rows[i])
    }

    /// Counts a lookup answered from the prepared table.
    fn hit<T>(&self, row: &Arc<T>) -> Arc<T> {
        self.hits.fetch_add(1, Ordering::Relaxed);
        Arc::clone(row)
    }

    /// Counts a lookup of an unprepared epoch and wraps its fresh value.
    fn miss<T>(&self, value: T) -> Arc<T> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        Arc::new(value)
    }

    /// True-position snapshot at `at` (bit-exact epoch key). A prepared
    /// epoch is answered lock-free; any other is propagated on the spot,
    /// not memoized, and counted as a miss.
    pub fn snapshot(&self, at: JulianDate) -> Arc<Snapshot> {
        match self.prepared_truth(at.0.to_bits()) {
            Some(row) => self.hit(row),
            None => self.miss(self.constellation.snapshot(at)),
        }
    }

    /// Published-TLE TEME positions of every catalog satellite at `at`
    /// (`None` where propagation fails), indexed like
    /// [`Constellation::sats`]. A prepared epoch is answered lock-free;
    /// any other is propagated on the spot, not memoized, and counted as a
    /// miss.
    pub fn published_positions(&self, at: JulianDate) -> Arc<Vec<Option<Vec3>>> {
        match self.prepared_published(at.0.to_bits()) {
            Some(row) => self.hit(row),
            None => self.miss(self.constellation.published_row(at)),
        }
    }

    /// Current hit/miss counters and prepared-table sizes.
    pub fn stats(&self) -> CacheStats {
        let (truth_entries, published_entries) = match self.prepared.get() {
            Some(p) => (p.truth_keys.len(), p.published_keys.len()),
            None => (0, 0),
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            truth_entries,
            published_entries,
        }
    }
}

/// A single-owner per-(satellite, epoch) published-position memo.
///
/// Each consumer that needs pruned single-satellite lookups — one
/// identification track cache, inside one campaign shard worker — owns its
/// own `SparseMemo`. The memo never crosses threads, so lookups take no
/// lock and sparse traffic from one shard cannot contend with another.
/// Values are bit-identical to `cache.published_positions(at)[si]`
/// whichever way they are answered.
#[derive(Debug, Default)]
pub struct SparseMemo {
    // Determinism audit: accessed by key only (`get`, `entry`, `len`);
    // hash order is never observed.
    map: HashMap<(u64, u32), Option<Vec3>>,
    hits: usize,
    misses: usize,
}

impl SparseMemo {
    /// Creates an empty memo.
    pub fn new() -> SparseMemo {
        SparseMemo::default()
    }

    /// Published-TLE TEME position of the satellite at catalog index `si`
    /// at `at`. A prepared full row answers lock-free; otherwise the local
    /// memo answers, and only then is one satellite propagated (and
    /// memoized locally).
    pub fn published_position_of(
        &mut self,
        cache: &PropagationCache<'_>,
        si: usize,
        at: JulianDate,
    ) -> Option<Vec3> {
        let key = at.0.to_bits();
        if let Some(row) = cache.prepared_published(key) {
            self.hits += 1;
            return row[si];
        }
        let sparse_key = (key, si as u32);
        if let Some(hit) = self.map.get(&sparse_key) {
            self.hits += 1;
            return *hit;
        }
        let pos = cache.constellation().sats()[si].published_position(at);
        self.misses += 1;
        *self.map.entry(sparse_key).or_insert(pos)
    }

    /// Lookups answered without propagating (prepared row or local memo).
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Lookups that propagated one satellite.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Entries currently memoized locally.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the memo holds no local entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ConstellationBuilder;
    use starsense_astro::frames::Geodetic;

    fn mini() -> Constellation {
        ConstellationBuilder::starlink_mini().seed(42).build()
    }

    fn assert_same_position(a: Vec3, b: Vec3) {
        assert_eq!(a.x.to_bits(), b.x.to_bits());
        assert_eq!(a.y.to_bits(), b.y.to_bits());
        assert_eq!(a.z.to_bits(), b.z.to_bits());
    }

    fn assert_same_snapshot(a: &Snapshot, b: &Snapshot) {
        assert_eq!(a.at().0.to_bits(), b.at().0.to_bits());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.entries().iter().zip(b.entries()) {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_same_position(x.teme, y.teme);
                    assert_same_position(x.ecef, y.ecef);
                    assert_eq!(x.sunlit, y.sunlit);
                }
                other => panic!("entry mismatch: {other:?}"),
            }
        }
    }

    fn assert_same_row(a: &[Option<Vec3>], b: &[Option<Vec3>]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => assert_same_position(*x, *y),
                other => panic!("row mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn snapshot_through_cache_matches_direct() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 9, 30, 0.0);
        let iowa = Geodetic::new(41.66, -91.53, 0.2);

        let direct = c.field_of_view(iowa, at, 25.0);
        let cached = c.field_of_view_from(&cache.snapshot(at), iowa, 25.0);
        assert_eq!(direct.len(), cached.len());
        for (a, b) in direct.iter().zip(&cached) {
            assert_eq!(a.norad_id, b.norad_id);
            assert_eq!(a.look, b.look);
            assert_eq!(a.sunlit, b.sunlit);
        }
    }

    #[test]
    fn repeat_lookups_hit() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 9, 30, 0.0);
        assert!(cache.prepare(&[at], &[], 1));
        let first = cache.snapshot(at);
        let second = cache.snapshot(at);
        assert!(Arc::ptr_eq(&first, &second), "same epoch must share one snapshot");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.truth_entries), (2, 0, 1));
    }

    #[test]
    fn unprepared_lookups_match_direct_propagation_and_count_misses() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let prepared_at = at.plus_seconds(15.0);
        assert!(cache.prepare(&[prepared_at], &[prepared_at], 1));
        for round in 1..=2 {
            assert_same_snapshot(&cache.snapshot(at), &c.snapshot(at));
            assert_same_row(&cache.published_positions(at), &c.published_row(at));
            // Nothing is memoized: every round propagates both rows again.
            let s = cache.stats();
            assert_eq!((s.hits, s.misses), (0, 2 * round));
            assert_eq!((s.truth_entries, s.published_entries), (1, 1));
        }
    }

    #[test]
    fn published_positions_match_satellite_calls() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        assert!(cache.prepare(&[], &[at], 1));
        let cached = cache.published_positions(at);
        assert_eq!(cached.len(), c.len());
        for (sat, pos) in c.sats().iter().zip(cached.iter()) {
            assert_eq!(*pos, sat.published_position(at));
        }
        // Second lookup shares the prepared row.
        let again = cache.published_positions(at);
        assert!(Arc::ptr_eq(&cached, &again));
    }

    #[test]
    fn distinct_epochs_get_distinct_entries() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let t0 = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let t1 = t0.plus_seconds(15.0);
        assert!(cache.prepare(&[t0, t1], &[], 1));
        assert_eq!(cache.stats().truth_entries, 2);
        assert!(!Arc::ptr_eq(&cache.snapshot(t0), &cache.snapshot(t1)));
    }

    #[test]
    fn prepared_epochs_answer_without_a_miss() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let t0 = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let truth: Vec<JulianDate> = (0..6).map(|k| t0.plus_seconds(15.0 * k as f64)).collect();
        let published: Vec<JulianDate> = (0..3).map(|k| t0.plus_seconds(5.0 * k as f64)).collect();
        assert!(cache.prepare(&truth, &published, 3));

        let s = cache.stats();
        assert_eq!((s.truth_entries, s.published_entries), (6, 3));

        for &at in &truth {
            let snap = cache.snapshot(at);
            assert_eq!(snap.len(), c.len());
        }
        for &at in &published {
            let row = cache.published_positions(at);
            for (sat, pos) in c.sats().iter().zip(row.iter()) {
                assert_eq!(*pos, sat.published_position(at));
            }
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (9, 0));
    }

    #[test]
    fn prepare_is_write_once() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let t0 = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        assert!(cache.prepare(&[t0], &[], 1));
        assert!(!cache.prepare(&[t0.plus_seconds(15.0)], &[], 1));
        // The second call changed nothing: the extra epoch is a miss.
        let _ = cache.snapshot(t0.plus_seconds(15.0));
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn prepare_deduplicates_epochs_and_matches_direct_propagation() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let t0 = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let epochs = [t0, t0.plus_seconds(15.0), t0, t0.plus_seconds(15.0)];
        assert!(cache.prepare(&epochs, &epochs, 2));
        let s = cache.stats();
        assert_eq!((s.truth_entries, s.published_entries), (2, 2));

        // Prepared rows are bit-identical to direct propagation.
        for at in [t0, t0.plus_seconds(15.0)] {
            assert_same_snapshot(&cache.snapshot(at), &c.snapshot(at));
            assert_same_row(&cache.published_positions(at), &c.published_row(at));
        }
    }

    #[test]
    fn sparse_memo_matches_direct_propagation_and_memoizes() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let mut memo = SparseMemo::new();
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        for si in [0usize, 7, c.len() - 1] {
            assert_eq!(
                memo.published_position_of(&cache, si, at),
                c.sats()[si].published_position(at)
            );
        }
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (0, 3, 3));
        // Re-asking is a memo hit and adds no entries.
        let _ = memo.published_position_of(&cache, 7, at);
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (1, 3, 3));
        // Full-row counters are untouched by sparse traffic.
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn prepared_row_answers_sparse_lookups_lock_free() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        assert!(cache.prepare(&[], &[at], 1));
        let mut memo = SparseMemo::new();
        for si in 0..c.len() {
            assert_eq!(
                memo.published_position_of(&cache, si, at),
                c.sats()[si].published_position(at)
            );
        }
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (c.len(), 0, 0));
        assert!(memo.is_empty());
    }

    #[test]
    fn parallel_readers_share_the_prepared_row() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        assert!(cache.prepare(&[at], &[], 1));
        let warm = cache.snapshot(at);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| assert!(Arc::ptr_eq(&warm, &cache.snapshot(at))));
            }
        });
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.truth_entries), (5, 0, 1));
    }
}
