//! The snapshot record/view recycling arena — see [`SnapArena`].

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{SnapRecord, Word};

/// Cumulative allocation telemetry of one [`SnapArena`]. All counters
/// are monotone over the arena's lifetime; isolate a window with
/// [`SnapArenaStats::since`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapArenaStats {
    /// [`SnapRecord`]s freshly heap-allocated (arena miss, or recycling
    /// disabled).
    pub records_fresh: u64,
    /// Updates served by mutating a retired record in place.
    pub records_recycled: u64,
    /// Direct-scan views freshly collected (arena miss, or recycling
    /// disabled).
    pub views_fresh: u64,
    /// Direct-scan views served by refilling a retired buffer in place.
    pub views_recycled: u64,
    /// Direct scans that returned the scanner's generation-tagged cached
    /// view because no register changed since its last direct scan.
    pub view_cache_hits: u64,
    /// Most records the arena ever tracked at once — the steady-state
    /// record footprint of the object (registers + pending installs).
    pub peak_records: u64,
    /// Most view buffers the arena ever tracked at once.
    pub peak_views: u64,
}

impl SnapArenaStats {
    /// Folds another window in: counters add, peaks take the max.
    pub fn merge(&mut self, other: &SnapArenaStats) {
        self.records_fresh += other.records_fresh;
        self.records_recycled += other.records_recycled;
        self.views_fresh += other.views_fresh;
        self.views_recycled += other.views_recycled;
        self.view_cache_hits += other.view_cache_hits;
        self.peak_records = self.peak_records.max(other.peak_records);
        self.peak_views = self.peak_views.max(other.peak_views);
    }

    /// The telemetry accumulated since an `earlier` reading of the same
    /// arena: counters subtract (saturating), peaks keep the current
    /// values.
    #[must_use]
    pub fn since(&self, earlier: &SnapArenaStats) -> SnapArenaStats {
        SnapArenaStats {
            records_fresh: self.records_fresh.saturating_sub(earlier.records_fresh),
            records_recycled: self
                .records_recycled
                .saturating_sub(earlier.records_recycled),
            views_fresh: self.views_fresh.saturating_sub(earlier.views_fresh),
            views_recycled: self.views_recycled.saturating_sub(earlier.views_recycled),
            view_cache_hits: self.view_cache_hits.saturating_sub(earlier.view_cache_hits),
            peak_records: self.peak_records,
            peak_views: self.peak_views,
        }
    }

    /// Objects freshly heap-allocated in this window — the number the
    /// recycling layer exists to drive to zero at steady state.
    #[must_use]
    pub fn fresh_allocations(&self) -> u64 {
        self.records_fresh + self.views_fresh
    }

    /// Buffers served from the arena in this window (in-place refills
    /// plus cached-view hits).
    #[must_use]
    pub fn recycled(&self) -> u64 {
        self.records_recycled + self.views_recycled + self.view_cache_hits
    }
}

/// Per-[`Snapshot`](crate::Snapshot) record/view recycling arena.
///
/// A snapshot object's memory is dominated by its [`SnapRecord`]s: every
/// component register holds one, and every record embeds a length-`n`
/// view, so one object materializes O(n²) words — and, without
/// recycling, every update heap-allocates a fresh record and every
/// successful direct scan collects a fresh view, making the snapshot the
/// last steady-state allocator of pooled trial loops.
///
/// The arena turns those allocations into in-place refills. It tracks
/// every record an [`UpdateOp`](crate::snapshot::UpdateOp) installs and
/// every view a [`ScanOp`](crate::snapshot::ScanOp) returns from a
/// direct double-collect, as `Arc` clones in two free-lists. A tracked
/// buffer is **reclaimable** exactly when its `Arc` is unique again —
/// the arena's clone is the only one left, meaning the record has been
/// displaced from its register and its update has let go of it (resp.
/// the view is no longer embedded in any live record, cached or
/// borrowed by any scanner, or held by any caller). Scanners keep tags
/// and values, not records, so a displaced record frees up as soon as
/// the write lands. Reclaim checks are
/// [`Arc::get_mut`]-based, so a buffer is only ever mutated under whole-
/// `Arc` exclusivity: concurrent readers can never observe a refill,
/// which is why recycling is invisible to linearizability — and it
/// changes no operation sequence, so traces are bit-identical with the
/// arena on or off ([`Snapshot::recycling`](crate::Snapshot::recycling)
/// keeps the never-recycling baseline available as a differential-test
/// oracle).
///
/// Both free-lists are append-only: buffers are never dropped, so once a
/// trial loop's peak demand has been stretched (warm-up), steady-state
/// snapshot traffic performs **zero** heap allocations and zero frees
/// (`tests/alloc_free.rs` proves it with a counting global allocator).
/// The flip side of never dropping is that a tracked entry pinned by an
/// external holder (a caller retaining a returned view forever) stays on
/// the list — it is skipped by every reclaim scan and retained for the
/// object's lifetime. That retention is bounded by the peak number of
/// simultaneously held buffers (registers, pending installs, scanner
/// views and whatever callers keep), which is exactly the object's live footprint; evicting
/// instead would turn those entries into steady-state frees and break
/// the zero-churn guarantee, so the arena deliberately does not.
///
/// Locking: the free-lists (and the recycled/peak telemetry maintained
/// while they are touched) live behind one `parking_lot::Mutex`; the
/// fresh-allocation and cache-hit counters are plain atomics, so the
/// cheapest paths — a scanner's cached-view hit, and every operation of
/// a `recycling(false)` baseline object — never take the lock.
pub struct SnapArena {
    initial_view: Arc<[Word]>,
    recycling: AtomicBool,
    records_fresh: AtomicU64,
    views_fresh: AtomicU64,
    view_cache_hits: AtomicU64,
    inner: Mutex<ArenaInner>,
}

/// Free-lists plus the telemetry only ever updated while they are
/// locked anyway.
#[derive(Default)]
struct ArenaInner {
    records: Vec<Arc<SnapRecord>>,
    views: Vec<Arc<[Word]>>,
    /// Where the next record reclaim scan starts. Scans restart where
    /// the last take succeeded instead of at index 0: `swap_remove`
    /// gradually concentrates pinned (non-unique) entries into whatever
    /// region scans keep starting from, and a fixed origin would make
    /// every take re-walk that pinned prefix — O(pinned) per reclaim.
    /// Rotating amortizes the walk to O(tracked / reclaimable).
    record_cursor: usize,
    /// Where the next view reclaim scan starts; same rotation rationale.
    view_cursor: usize,
    records_recycled: u64,
    views_recycled: u64,
    peak_records: u64,
    peak_views: u64,
}

/// Scans `list` circularly from `*cursor` for a uniquely owned entry,
/// removes and returns it, leaving `*cursor` at the vacated index (now
/// holding the swapped-in tail element).
fn take_unique<T>(list: &mut Vec<Arc<T>>, cursor: &mut usize) -> Option<Arc<T>>
where
    T: ?Sized,
{
    let len = list.len();
    if len == 0 {
        return None;
    }
    let start = *cursor % len;
    for off in 0..len {
        let i = start + off;
        let i = if i < len { i } else { i - len };
        // Every tracked record pins its view, so a reservation sized to
        // its holder bound leaves some probes to miss: a plain count
        // load rejects them, and only a candidate pays for `get_mut`'s
        // read-modify-write on the weak count.
        if Arc::strong_count(&list[i]) == 1 && Arc::get_mut(&mut list[i]).is_some() {
            *cursor = i;
            return Some(list.swap_remove(i));
        }
    }
    None
}

impl SnapArena {
    /// An arena for an `n`-component snapshot object, recycling enabled.
    #[must_use]
    pub(crate) fn new(n: usize) -> Self {
        SnapArena {
            initial_view: vec![Word::Null; n].into(),
            recycling: AtomicBool::new(true),
            records_fresh: AtomicU64::new(0),
            views_fresh: AtomicU64::new(0),
            view_cache_hits: AtomicU64::new(0),
            inner: Mutex::new(ArenaInner::default()),
        }
    }

    /// The object's shared all-null view (every component at generation
    /// 0) — one allocation per object, every scanner's first cached
    /// direct view.
    #[must_use]
    pub(crate) fn initial_view(&self) -> &Arc<[Word]> {
        &self.initial_view
    }

    /// Whether in-place recycling is enabled (it is by default; see
    /// [`Snapshot::recycling`](crate::Snapshot::recycling)).
    #[must_use]
    pub fn recycling_enabled(&self) -> bool {
        self.recycling.load(Ordering::Relaxed)
    }

    pub(crate) fn set_recycling(&self, on: bool) {
        self.recycling.store(on, Ordering::Relaxed);
    }

    /// A snapshot of the arena's cumulative telemetry.
    #[must_use]
    pub fn stats(&self) -> SnapArenaStats {
        let inner = self.inner.lock();
        SnapArenaStats {
            records_fresh: self.records_fresh.load(Ordering::Relaxed),
            records_recycled: inner.records_recycled,
            views_fresh: self.views_fresh.load(Ordering::Relaxed),
            views_recycled: inner.views_recycled,
            view_cache_hits: self.view_cache_hits.load(Ordering::Relaxed),
            peak_records: inner.peak_records,
            peak_views: inner.peak_views,
        }
    }

    /// Records currently tracked (for tests and capacity audits).
    #[must_use]
    pub fn cached_records(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// View buffers currently tracked.
    #[must_use]
    pub fn cached_views(&self) -> usize {
        self.inner.lock().views.len()
    }

    /// Pre-populates the free-lists with `records` reclaimable records
    /// and `views` reclaimable view buffers, all uniquely owned and
    /// sized for this object's component count.
    ///
    /// Recycling alone only reaches zero steady-state allocations once
    /// warm-up has stretched the lists to the workload's high-water
    /// demand — a *later* excursion past that mark still allocates.
    /// Bounded workloads (a service harness with a fixed client-slot
    /// count, a pooled sweep with a known machine population) call this
    /// once at construction with a bound on peak live buffers, so even
    /// the first excursion is served from the free-lists. A no-op when
    /// recycling is off.
    pub fn reserve(&self, records: usize, views: usize) {
        if !self.recycling_enabled() {
            return;
        }
        let n = self.initial_view.len();
        let mut inner = self.inner.lock();
        inner.records.reserve(records);
        inner.views.reserve(views + records);
        for _ in 0..records {
            // The record's embedded view must be tracked too: when an
            // update later refills the record, the displaced view would
            // otherwise drop its last reference — a steady-state free.
            let view: Arc<[Word]> = vec![Word::Null; n].into();
            inner.views.push(Arc::clone(&view));
            inner.records.push(Arc::new(SnapRecord {
                seq: 0,
                value: Word::Null,
                view,
            }));
        }
        for _ in 0..views {
            inner.views.push(vec![Word::Null; n].into());
        }
        inner.peak_records = inner.peak_records.max(inner.records.len() as u64);
        inner.peak_views = inner.peak_views.max(inner.views.len() as u64);
    }

    /// Takes a reclaimable (uniquely owned) record off the free-list, if
    /// recycling is on and one exists. The caller owns the only `Arc`
    /// and may mutate the record in place; it must hand the record back
    /// through [`SnapArena::put_record`] once rebuilt.
    pub(crate) fn take_record(&self) -> Option<Arc<SnapRecord>> {
        if !self.recycling_enabled() {
            return None;
        }
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let rec = take_unique(&mut inner.records, &mut inner.record_cursor)?;
        inner.records_recycled += 1;
        Some(rec)
    }

    /// Registers an installed record with the arena (tracking it for
    /// future reclaim) and counts the allocation when `fresh`. With
    /// recycling off only the (atomic) counter is kept — the baseline
    /// drops displaced records exactly as the pre-arena code did, and
    /// never takes the lock.
    pub(crate) fn put_record(&self, rec: &Arc<SnapRecord>, fresh: bool) {
        if fresh {
            self.records_fresh.fetch_add(1, Ordering::Relaxed);
        }
        if self.recycling_enabled() {
            let mut inner = self.inner.lock();
            inner.records.push(Arc::clone(rec));
            inner.peak_records = inner.peak_records.max(inner.records.len() as u64);
        }
    }

    /// Takes a reclaimable view buffer off the free-list, if recycling
    /// is on and one exists; the caller owns the only `Arc` and refills
    /// it in place.
    pub(crate) fn take_view(&self) -> Option<Arc<[Word]>> {
        if !self.recycling_enabled() {
            return None;
        }
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let view = take_unique(&mut inner.views, &mut inner.view_cursor)?;
        inner.views_recycled += 1;
        Some(view)
    }

    /// Registers a direct-scan view with the arena; see
    /// [`SnapArena::put_record`].
    pub(crate) fn put_view(&self, view: &Arc<[Word]>, fresh: bool) {
        if fresh {
            self.views_fresh.fetch_add(1, Ordering::Relaxed);
        }
        if self.recycling_enabled() {
            let mut inner = self.inner.lock();
            inner.views.push(Arc::clone(view));
            inner.peak_views = inner.peak_views.max(inner.views.len() as u64);
        }
    }

    /// Counts a direct scan served from a scanner's generation-tagged
    /// cached view. Lock-free: this is the cheapest scan outcome and
    /// must stay that way.
    pub(crate) fn note_view_cache_hit(&self) {
        self.view_cache_hits.fetch_add(1, Ordering::Relaxed);
    }
}

impl fmt::Debug for SnapArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (records, views) = {
            let inner = self.inner.lock();
            (inner.records.len(), inner.views.len())
        };
        f.debug_struct("SnapArena")
            .field("n", &self.initial_view.len())
            .field("recycling", &self.recycling_enabled())
            .field("records", &records)
            .field("views", &views)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_reclaimed_only_when_unique() {
        let arena = SnapArena::new(2);
        let rec = Arc::new(SnapRecord {
            seq: 1,
            value: Word::Int(5),
            view: vec![Word::Null; 2].into(),
        });
        arena.put_record(&rec, true);
        // Still shared with `rec` — not reclaimable.
        assert!(arena.take_record().is_none());
        drop(rec);
        let back = arena.take_record().expect("unique record reclaimed");
        assert_eq!(back.seq, 1);
        assert_eq!(arena.cached_records(), 0);
        let stats = arena.stats();
        assert_eq!(stats.records_fresh, 1);
        assert_eq!(stats.records_recycled, 1);
        assert_eq!(stats.peak_records, 1);
    }

    #[test]
    fn views_are_reclaimed_only_when_unique() {
        let arena = SnapArena::new(3);
        let view: Arc<[Word]> = vec![Word::Int(1); 3].into();
        let held = Arc::clone(&view);
        arena.put_view(&view, true);
        drop(view);
        assert!(arena.take_view().is_none(), "caller still holds the view");
        drop(held);
        assert!(arena.take_view().is_some());
        assert_eq!(arena.stats().views_recycled, 1);
    }

    #[test]
    fn disabling_recycling_keeps_counters_but_tracks_nothing() {
        let arena = SnapArena::new(1);
        arena.set_recycling(false);
        let rec = Arc::new(SnapRecord::initial(1));
        arena.put_record(&rec, true);
        drop(rec);
        assert_eq!(arena.cached_records(), 0);
        assert!(arena.take_record().is_none());
        assert_eq!(arena.stats().records_fresh, 1);
    }

    #[test]
    fn reserved_buffers_are_immediately_reclaimable() {
        let arena = SnapArena::new(2);
        arena.reserve(3, 1);
        assert_eq!(arena.cached_records(), 3);
        // Each reserved record's embedded view is tracked too, so a
        // later displacement recycles it instead of freeing it.
        assert_eq!(arena.cached_views(), 4);
        let held: Vec<_> = (0..3)
            .map(|_| arena.take_record().expect("reserved record"))
            .collect();
        assert!(held.iter().all(|rec| rec.view.len() == 2));
        assert!(arena.take_record().is_none());
        // The plain reserved view is free now; the record views stay
        // pinned by the records handed out above.
        assert!(arena.take_view().is_some());
        assert!(arena.take_view().is_none());
        drop(held);
        let stats = arena.stats();
        assert_eq!(stats.records_fresh, 0, "reserve must not count as a miss");
        assert_eq!(stats.records_recycled, 3);
        assert_eq!(stats.views_recycled, 1);
    }

    #[test]
    fn reserve_is_a_no_op_with_recycling_off() {
        let arena = SnapArena::new(1);
        arena.set_recycling(false);
        arena.reserve(4, 4);
        assert_eq!(arena.cached_records(), 0);
        assert_eq!(arena.cached_views(), 0);
    }

    #[test]
    fn stats_windows_subtract_and_merge() {
        let mut a = SnapArenaStats {
            records_fresh: 5,
            views_fresh: 3,
            records_recycled: 7,
            views_recycled: 2,
            view_cache_hits: 4,
            peak_records: 9,
            peak_views: 6,
        };
        let earlier = SnapArenaStats {
            records_fresh: 2,
            views_fresh: 1,
            ..SnapArenaStats::default()
        };
        let window = a.since(&earlier);
        assert_eq!(window.records_fresh, 3);
        assert_eq!(window.views_fresh, 2);
        assert_eq!(window.fresh_allocations(), 5);
        assert_eq!(window.recycled(), 13);
        assert_eq!(window.peak_records, 9);
        let before = a;
        a.merge(&SnapArenaStats {
            records_fresh: 1,
            peak_records: 20,
            ..SnapArenaStats::default()
        });
        assert_eq!(a.records_fresh, before.records_fresh + 1);
        assert_eq!(a.peak_records, 20);
    }
}
