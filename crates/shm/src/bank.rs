//! Register-bank storage backends for the step-machine engine.
//!
//! The engine's register bank was historically a `Vec<Word>` — one enum
//! word per register, with [`Word::Snap`] variants holding an `Arc` to
//! the snapshot record. That representation is kept as [`ArcBank`], the
//! differential oracle only, and [`SlabBank`] is the engine's default:
//! registers are [`SlabEntry`]s — `Copy` payloads with the common small
//! variants (`Null`/`Int`/`Pair`) inlined and snapshot records referenced
//! by an `(index, generation)` handle into contiguous slab storage. A
//! steady-state grant on an inline word is a plain 16-byte store with no
//! drop glue and no refcount traffic; only snapshot-bearing registers
//! touch the slab.
//!
//! Handle lifecycle invariants (asserted in debug builds):
//!
//! * a handle is minted by [`SlabBank::write`] installing a `Snap` word
//!   and stays valid until that register is overwritten or the bank is
//!   reset;
//! * freeing a slot bumps its generation, so a stale handle can never
//!   alias a recycled slot;
//! * the slot's `Arc<SnapRecord>` is dropped at free time — the same
//!   moment the displaced `Word` of an [`ArcBank`] would drop — so the
//!   snapshot arena's uniqueness-based record recycling behaves
//!   identically on both backends (this is what makes slab-vs-Arc trials
//!   bit-identical; see `tests/pooled_determinism.rs`).
//!
//! Both backends implement [`RegisterBank`], the storage interface of
//! `exsel_sim::StepEngine`.

use crate::mem::RegId;
use crate::word::Word;

/// Borrowed result of reading a never-written / nulled register.
static NULL_WORD: Word = Word::Null;

/// Storage interface of the step-machine engine's register bank.
///
/// `read` takes `&mut self` so implementations may decode into an
/// internal scratch cell; the returned borrow is only required to live
/// until the next bank operation (the engine hands it straight to
/// `StepMachine::advance`).
pub trait RegisterBank {
    /// Re-initializes the bank to `num_registers` null registers,
    /// keeping allocated capacity (called by the engine's per-trial
    /// reset).
    fn reset(&mut self, num_registers: usize);

    /// Number of registers.
    fn len(&self) -> usize;

    /// Whether the bank has no registers.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current word of `reg`, borrowed for immediate consumption.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    fn read(&mut self, reg: RegId) -> &Word;

    /// Installs `word` in `reg`. The displaced value is dropped after
    /// the new one is in place (assignment semantics).
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    fn write(&mut self, reg: RegId, word: Word);

    /// Materializes the current word of `reg` — the inspection path for
    /// post-trial audits and differential comparisons, available without
    /// `&mut` access.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    fn load(&self, reg: RegId) -> Word;
}

/// The historical register bank: one [`Word`] per register. Reads
/// borrow the word in place; writes are enum assignments (drop glue runs
/// on the displaced word). Kept only as the differential oracle for
/// [`SlabBank`]; engines name it through `StepEngine::reusable_with`.
#[derive(Debug, Default)]
pub struct ArcBank {
    words: Vec<Word>,
}

impl ArcBank {
    /// An empty bank; size it with [`RegisterBank::reset`].
    #[must_use]
    pub fn new() -> Self {
        ArcBank::default()
    }

    /// The register words as a slice, indexed by [`RegId`] — what the
    /// bank's [`Fingerprint`](crate::Fingerprint) hashes.
    #[must_use]
    pub(crate) fn words(&self) -> &[Word] {
        &self.words
    }
}

impl RegisterBank for ArcBank {
    fn reset(&mut self, num_registers: usize) {
        self.words.clear();
        self.words.resize(num_registers, Word::Null);
    }

    fn len(&self) -> usize {
        self.words.len()
    }

    fn read(&mut self, reg: RegId) -> &Word {
        &self.words[reg.0]
    }

    fn write(&mut self, reg: RegId, word: Word) {
        self.words[reg.0] = word;
    }

    fn load(&self, reg: RegId) -> Word {
        self.words[reg.0].clone()
    }
}

/// One register of a [`SlabBank`]: the small [`Word`] variants inlined
/// (16 bytes, `Copy`, no drop glue), snapshot records as generation-tagged
/// handles into the bank's slot storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlabEntry {
    /// The initial "empty" register contents.
    Null,
    /// Inlined [`Word::Int`].
    Int(u64),
    /// Inlined [`Word::Pair`].
    Pair(u64, u64),
    /// Handle to a [`Word::Snap`] parked in slot storage. `gen` must
    /// match the slot's current generation — a mismatch means the handle
    /// outlived its slot (a lifecycle bug, caught in debug builds).
    Snap { slot: u32, gen: u32 },
}

/// One slot of the slab's snapshot-record storage.
#[derive(Debug)]
struct SnapSlot {
    /// Generation tag; bumped every time the slot is freed so stale
    /// handles can never alias a recycled slot.
    gen: u32,
    /// The parked word ([`Word::Snap`] while the slot is live,
    /// [`Word::Null`] while it sits on the free list).
    word: Word,
}

/// The mega-scale register bank: contiguous `Copy` entries with inline
/// small payloads, snapshot records behind `(index, generation)` handles
/// into slab slots. See the module docs for the lifecycle invariants.
#[derive(Debug, Default)]
pub struct SlabBank {
    entries: Vec<SlabEntry>,
    slots: Vec<SnapSlot>,
    /// Indices of free slots, reused LIFO.
    free: Vec<u32>,
    /// Decode cell for borrowing inline entries as `&Word`.
    scratch: Word,
    /// Currently live (snapshot-holding) slots.
    live: usize,
    /// High-water mark of `live` since construction.
    peak_live: usize,
    /// Registers currently holding a non-null entry (inline or slab).
    occupied: usize,
    /// High-water mark of `occupied` since construction.
    peak_occupied: usize,
}

impl SlabBank {
    /// An empty bank; size it with [`RegisterBank::reset`].
    #[must_use]
    pub fn new() -> Self {
        SlabBank::default()
    }

    /// Slots currently holding a snapshot record.
    #[must_use]
    pub fn live_slots(&self) -> usize {
        self.live
    }

    /// High-water mark of [`SlabBank::live_slots`] since construction
    /// (reset does not clear it — it tracks the slab's real footprint
    /// across a sweep).
    #[must_use]
    pub fn peak_slots(&self) -> usize {
        self.peak_live
    }

    /// Slots ever allocated (live + free); the slab's capacity
    /// footprint.
    #[must_use]
    pub fn allocated_slots(&self) -> usize {
        self.slots.len()
    }

    /// Registers currently holding a non-null word — inline `Int`/`Pair`
    /// entries included, not just slab-parked snapshot records. This is
    /// the occupancy the mega-scale telemetry reports: algorithms whose
    /// registers only ever hold integers (the majority sweep) have
    /// `live_slots() == 0` forever, but their real footprint is here.
    #[must_use]
    pub fn live_entries(&self) -> usize {
        self.occupied
    }

    /// High-water mark of [`SlabBank::live_entries`] since construction
    /// (reset does not clear it — like [`SlabBank::peak_slots`], it
    /// tracks the real footprint across a sweep).
    #[must_use]
    pub fn peak_entries(&self) -> usize {
        self.peak_occupied
    }

    /// Pre-seeds the slab's snapshot-slot storage so at least
    /// `snap_slots` slots exist (live or free). Slots otherwise grow
    /// lazily on the first `Snap` write each; a harness that promises a
    /// zero-allocation steady state (the sharded service runs build one
    /// bank per shard) reserves its per-bank high-water up front so the
    /// slot vector never grows mid-run. Reserved slots survive
    /// [`RegisterBank::reset`], which rebuilds the free list over every
    /// allocated slot.
    pub fn reserve_slots(&mut self, snap_slots: usize) {
        while self.slots.len() < snap_slots {
            let slot = u32::try_from(self.slots.len()).expect("slab slot index fits u32");
            self.slots.push(SnapSlot {
                gen: 0,
                word: Word::Null,
            });
            self.free.push(slot);
        }
    }

    /// Parks `word` in a slot and returns its handle.
    fn alloc_slot(&mut self, word: Word) -> (u32, u32) {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.word.is_null(), "free slot still holds a record");
            s.word = word;
            (slot, s.gen)
        } else {
            let slot = u32::try_from(self.slots.len()).expect("slab slot index fits u32");
            self.slots.push(SnapSlot { gen: 0, word });
            (slot, 0)
        }
    }

    /// Releases a slot: drops its record **now** (matching the drop a
    /// `Vec<Word>` assignment would perform), bumps the generation and
    /// returns the slot to the free list.
    fn free_slot(&mut self, slot: u32, gen: u32) {
        let s = &mut self.slots[slot as usize];
        debug_assert_eq!(s.gen, gen, "stale slab handle freed");
        s.word = Word::Null;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
    }
}

impl RegisterBank for SlabBank {
    fn reset(&mut self, num_registers: usize) {
        self.entries.clear();
        self.entries.resize(num_registers, SlabEntry::Null);
        // Free every slot (dropping parked records) and rebuild the free
        // list in slot order — deterministic, and capacity-preserving so
        // steady-state sweeps allocate nothing.
        self.free.clear();
        for (i, s) in self.slots.iter_mut().enumerate() {
            if !s.word.is_null() {
                s.word = Word::Null;
                s.gen = s.gen.wrapping_add(1);
            }
            self.free.push(i as u32);
        }
        self.live = 0;
        self.occupied = 0;
        self.scratch = Word::Null;
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn read(&mut self, reg: RegId) -> &Word {
        match self.entries[reg.0] {
            SlabEntry::Null => &NULL_WORD,
            SlabEntry::Int(v) => {
                self.scratch = Word::Int(v);
                &self.scratch
            }
            SlabEntry::Pair(a, b) => {
                self.scratch = Word::Pair(a, b);
                &self.scratch
            }
            SlabEntry::Snap { slot, gen } => {
                let s = &self.slots[slot as usize];
                debug_assert_eq!(s.gen, gen, "stale slab handle read");
                &s.word
            }
        }
    }

    fn write(&mut self, reg: RegId, word: Word) {
        let old = self.entries[reg.0];
        let new = match word {
            Word::Null => SlabEntry::Null,
            Word::Int(v) => SlabEntry::Int(v),
            Word::Pair(a, b) => SlabEntry::Pair(a, b),
            snap @ Word::Snap(_) => {
                let (slot, gen) = self.alloc_slot(snap);
                SlabEntry::Snap { slot, gen }
            }
        };
        self.entries[reg.0] = new;
        match (old == SlabEntry::Null, new == SlabEntry::Null) {
            (true, false) => {
                self.occupied += 1;
                self.peak_occupied = self.peak_occupied.max(self.occupied);
            }
            (false, true) => self.occupied -= 1,
            _ => {}
        }
        // Drop the displaced record only after the new word is in place —
        // assignment semantics, keeping arena recycling in lock-step with
        // the Arc bank.
        if let SlabEntry::Snap { slot, gen } = old {
            self.free_slot(slot, gen);
        }
    }

    fn load(&self, reg: RegId) -> Word {
        match self.entries[reg.0] {
            SlabEntry::Null => Word::Null,
            SlabEntry::Int(v) => Word::Int(v),
            SlabEntry::Pair(a, b) => Word::Pair(a, b),
            SlabEntry::Snap { slot, gen } => {
                let s = &self.slots[slot as usize];
                debug_assert_eq!(s.gen, gen, "stale slab handle loaded");
                s.word.clone()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::SnapRecord;
    use std::sync::Arc;

    fn snap_word(seq: u64) -> Word {
        Word::Snap(Arc::new(SnapRecord {
            seq,
            value: Word::Int(seq),
            view: vec![Word::Null; 2].into(),
        }))
    }

    #[test]
    fn inline_words_roundtrip_on_both_banks() {
        let words = [Word::Null, Word::Int(7), Word::Pair(3, 4)];
        let mut arc = ArcBank::new();
        let mut slab = SlabBank::new();
        arc.reset(words.len());
        slab.reset(words.len());
        for (i, w) in words.iter().enumerate() {
            arc.write(RegId(i), w.clone());
            slab.write(RegId(i), w.clone());
        }
        for (i, w) in words.iter().enumerate() {
            assert_eq!(arc.read(RegId(i)), w);
            assert_eq!(slab.read(RegId(i)), w);
            assert_eq!(arc.load(RegId(i)), *w);
            assert_eq!(slab.load(RegId(i)), *w);
        }
        assert_eq!(slab.live_slots(), 0, "inline words must not touch slots");
    }

    #[test]
    fn snap_words_share_the_parked_arc() {
        let mut slab = SlabBank::new();
        slab.reset(1);
        let w = snap_word(5);
        let rec = w.as_snap().unwrap().clone();
        slab.write(RegId(0), w);
        assert_eq!(slab.live_slots(), 1);
        // The read borrow is the parked Arc itself, not a clone.
        let read = slab.read(RegId(0)).as_snap().unwrap();
        assert!(Arc::ptr_eq(read, &rec));
        assert_eq!(Arc::strong_count(&rec), 2); // ours + the slab's
    }

    #[test]
    fn overwriting_a_snap_frees_its_slot_and_bumps_the_generation() {
        let mut slab = SlabBank::new();
        slab.reset(2);
        let first = snap_word(1);
        let rec = first.as_snap().unwrap().clone();
        slab.write(RegId(0), first);
        assert_eq!(Arc::strong_count(&rec), 2);

        slab.write(RegId(0), Word::Int(9));
        assert_eq!(Arc::strong_count(&rec), 1, "displaced record dropped");
        assert_eq!(slab.live_slots(), 0);

        // The freed slot is recycled under a new generation.
        slab.write(RegId(1), snap_word(2));
        assert_eq!(slab.allocated_slots(), 1, "slot recycled, not grown");
        assert_eq!(slab.live_slots(), 1);
        assert_eq!(slab.peak_slots(), 1);
    }

    #[test]
    fn reset_frees_slots_but_keeps_capacity() {
        let mut slab = SlabBank::new();
        slab.reset(3);
        for i in 0..3 {
            slab.write(RegId(i), snap_word(i as u64));
        }
        assert_eq!(slab.live_slots(), 3);
        slab.reset(3);
        assert_eq!(slab.live_slots(), 0);
        assert_eq!(slab.allocated_slots(), 3);
        assert_eq!(slab.peak_slots(), 3, "peak survives reset");
        assert!(slab.load(RegId(0)).is_null());
        // Steady state: the same trial shape reuses the same slots.
        for i in 0..3 {
            slab.write(RegId(i), snap_word(10 + i as u64));
        }
        assert_eq!(slab.allocated_slots(), 3);
    }

    #[test]
    fn entry_occupancy_counts_inline_words() {
        let mut slab = SlabBank::new();
        slab.reset(4);
        assert_eq!(slab.live_entries(), 0);
        slab.write(RegId(0), Word::Int(1));
        slab.write(RegId(1), Word::Pair(2, 3));
        slab.write(RegId(2), snap_word(9));
        assert_eq!(slab.live_entries(), 3);
        assert_eq!(slab.peak_entries(), 3);
        assert_eq!(slab.live_slots(), 1, "only the snap touches slots");
        // Overwrite in place: occupancy unchanged.
        slab.write(RegId(0), Word::Int(7));
        assert_eq!(slab.live_entries(), 3);
        // Nulling a register releases its occupancy.
        slab.write(RegId(1), Word::Null);
        assert_eq!(slab.live_entries(), 2);
        assert_eq!(slab.peak_entries(), 3, "peak is a high-water mark");
        // Reset clears live occupancy, peak survives (sweep footprint).
        slab.reset(4);
        assert_eq!(slab.live_entries(), 0);
        assert_eq!(slab.peak_entries(), 3);
    }

    #[test]
    fn reserved_slots_preempt_lazy_growth_and_survive_reset() {
        let mut slab = SlabBank::new();
        slab.reset(4);
        slab.reserve_slots(3);
        assert_eq!(slab.allocated_slots(), 3);
        assert_eq!(slab.live_slots(), 0);
        // Writes park records in the reserved slots without growing.
        for i in 0..3 {
            slab.write(RegId(i), snap_word(i as u64));
        }
        assert_eq!(slab.allocated_slots(), 3);
        assert_eq!(slab.live_slots(), 3);
        // Reset keeps the reserved capacity; a smaller reserve is a
        // no-op on an already-large slab.
        slab.reset(4);
        slab.reserve_slots(2);
        assert_eq!(slab.allocated_slots(), 3);
        for i in 0..3 {
            slab.write(RegId(i), snap_word(10 + i as u64));
        }
        assert_eq!(slab.allocated_slots(), 3, "steady state must not grow");
    }

    #[test]
    fn load_matches_read_for_snap_entries() {
        let mut slab = SlabBank::new();
        slab.reset(1);
        let w = snap_word(8);
        slab.write(RegId(0), w.clone());
        assert_eq!(slab.load(RegId(0)), w);
        assert_eq!(*slab.read(RegId(0)), w);
    }
}
