//! Outside-in layer attribution for the traced run.
//!
//! Every layer is observed from the benchmark's side of its public API,
//! through pass-through wrappers the public generics already accept:
//! [`TracedBank`] wraps a [`RegisterBank`], [`TracedPolicy`] a
//! [`Policy`] and [`TracedMachine`] a [`StepMachine`]. A wrapper forwards
//! each call unchanged and counts it. One call in every
//! `2^SAMPLE_SHIFT` of its layer is also timed. Counts are exact; a
//! layer's time is its sampled mean times its exact count. One timed call
//! in `2^SPAN_SHIFT` is kept as a span in a pre-sized buffer that
//! [`write_spans`] writes out at exit.
//!
//! Segments (`run_until` calls, engine trials, exploration walks) are
//! timed in full, so a parent's time is measured and only its children
//! are estimated. The benchmark is single-threaded, so all counters live
//! in one thread-local [`Tracer`].

use std::cell::{Cell, OnceCell, RefCell};
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use exsel_shm::{
    Fingerprint, OpKind, Pid, Poll, RegId, RegisterBank, ShmOp, StateHasher, StepMachine, TokenMap,
    Word,
};
use exsel_sim::{Action, PendingOp, Policy};

/// One call in `2^SAMPLE_SHIFT` of each sampled layer is timed.
pub const SAMPLE_SHIFT: u32 = 6;
const SAMPLE_MASK: u64 = (1 << SAMPLE_SHIFT) - 1;
/// Of the timed leaf calls, one in `2^SPAN_SHIFT` is also kept as a
/// span, so the span buffer covers a whole run.
const SPAN_SHIFT: u32 = 6;
const SPAN_MASK: u64 = (1 << SPAN_SHIFT) - 1;
/// Spans kept per process; later spans are counted as dropped.
pub const SPAN_CAPACITY: usize = 1 << 15;
const NO_PARENT: u32 = u32::MAX;
/// No leaf call of the stack takes 100 µs; a timed call that did was
/// interrupted by the host.
const INTERRUPTED_NS: i64 = 100_000;

/// The machine families the engine workloads drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `AdaptiveRename` machines (Theorem 4).
    Adaptive = 0,
    /// `Compete-For-Register` machines.
    Compete = 1,
    /// Store&collect first stores.
    FirstStore = 2,
}

/// Number of [`Family`] variants.
pub const FAMILIES: usize = 3;

impl Family {
    /// Every family, in index order.
    pub const ALL: [Family; FAMILIES] = [Family::Adaptive, Family::Compete, Family::FirstStore];

    /// The metric prefix of the family's layer.
    pub fn name(self) -> &'static str {
        match self {
            Family::Adaptive => "core.adaptive",
            Family::Compete => "core.compete",
            Family::FirstStore => "storecollect.first_store",
        }
    }
}

/// A layer boundary the benchmark observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One `run_until` segment of a service run.
    Segment,
    /// One engine trial (`StepEngine::run_pool`).
    Trial,
    /// One reducer walk (`explore_pool_sleep`).
    Explore,
    /// One policy decision.
    Policy,
    /// One register-bank read or write.
    Bank,
    /// One machine `advance`.
    Advance(Family),
    /// One machine `peek` or `op` query.
    Peek(Family),
}

impl Layer {
    fn name(self) -> String {
        match self {
            Layer::Segment => "sim.service.run_until".into(),
            Layer::Trial => "sim.engine.run_pool".into(),
            Layer::Explore => "sim.reduce.explore".into(),
            Layer::Policy => "sim.policy.decide".into(),
            Layer::Bank => "shm.bank".into(),
            Layer::Advance(f) => format!("{}.advance", f.name()),
            Layer::Peek(f) => format!("{}.peek", f.name()),
        }
    }
}

/// Calls through one boundary: all counted, some timed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub timed: u64,
    /// Nanoseconds spent in the timed calls. Signed: a leaf call's time
    /// is a difference of two timer readings, which can come out
    /// negative for calls shorter than the timer's jitter.
    pub timed_ns: i64,
}

impl Tally {
    /// Mean nanoseconds per timed call (0 when none was timed).
    pub fn ns_per_call(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            (self.timed_ns as f64 / self.timed as f64).max(0.0)
        }
    }

    /// Estimated nanoseconds across every call.
    pub fn total_ns(&self) -> f64 {
        self.ns_per_call() * self.calls as f64
    }

    fn add(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
    }
}

/// A [`Tally`] in cells, so the hot path updates it without borrowing.
#[derive(Default)]
struct TallyCell {
    calls: Cell<u64>,
    timed: Cell<u64>,
    timed_ns: Cell<i64>,
}

impl TallyCell {
    /// Counts a call; `true` when this call is the layer's sample (the
    /// last of every `2^SAMPLE_SHIFT`, so a layer's cold first call is
    /// never the sample).
    #[inline]
    fn tick(&self) -> bool {
        let c = self.calls.get();
        self.calls.set(c + 1);
        c & SAMPLE_MASK == SAMPLE_MASK
    }

    /// Adds one timed call; `true` when it is also kept as a span.
    fn timed(&self, ns: i64) -> bool {
        let t = self.timed.get();
        self.timed.set(t + 1);
        self.timed_ns.set(self.timed_ns.get() + ns);
        t & SPAN_MASK == 0
    }

    fn take(&self) -> Tally {
        Tally {
            calls: self.calls.replace(0),
            timed: self.timed.replace(0),
            timed_ns: self.timed_ns.replace(0),
        }
    }
}

/// The counters of one phase of a run, taken with [`take`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Register-bank reads and writes.
    pub bank: Tally,
    /// Bank reads.
    pub reads: u64,
    /// Bank writes.
    pub writes: u64,
    /// Bank writes of snapshot records (the slab-slot path).
    pub snap_writes: u64,
    /// Bank calls per shared object, by register range (service worlds
    /// only): naming, store&collect, deposit.
    pub by_object: [u64; 3],
    /// Policy decisions.
    pub policy: Tally,
    /// Pending operations summed over decisions.
    pub pending_sum: u64,
    /// Machine advances per family.
    pub advance: [Tally; FAMILIES],
    /// Machine `peek`/`op` queries per family.
    pub peek: [Tally; FAMILIES],
    /// Service `run_until` segments (timed in full).
    pub segment: Tally,
    /// Engine trials (timed in full).
    pub trial: Tally,
    /// Reducer walks (timed in full).
    pub explore: Tally,
}

impl Snapshot {
    /// Folds another phase into this one.
    pub fn add(&mut self, o: &Snapshot) {
        self.bank.add(&o.bank);
        self.reads += o.reads;
        self.writes += o.writes;
        self.snap_writes += o.snap_writes;
        for (a, b) in self.by_object.iter_mut().zip(o.by_object) {
            *a += b;
        }
        self.policy.add(&o.policy);
        self.pending_sum += o.pending_sum;
        for f in 0..FAMILIES {
            self.advance[f].add(&o.advance[f]);
            self.peek[f].add(&o.peek[f]);
        }
        self.segment.add(&o.segment);
        self.trial.add(&o.trial);
        self.explore.add(&o.explore);
    }

    /// Machine advances across every family.
    pub fn advances(&self) -> u64 {
        self.advance.iter().map(|t| t.calls).sum()
    }

    /// Estimated nanoseconds inside machines (advances and queries).
    pub fn machine_ns(&self) -> f64 {
        self.advance
            .iter()
            .chain(&self.peek)
            .map(Tally::total_ns)
            .sum()
    }
}

#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    parent: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// The thread's counters and span buffer.
struct Tracer {
    epoch: OnceCell<Instant>,
    bank: TallyCell,
    reads: Cell<u64>,
    writes: Cell<u64>,
    snap_writes: Cell<u64>,
    by_object: [Cell<u64>; 3],
    policy: TallyCell,
    pending_sum: Cell<u64>,
    advance: [TallyCell; FAMILIES],
    peek: [TallyCell; FAMILIES],
    segment: TallyCell,
    trial: TallyCell,
    explore: TallyCell,
    spans: RefCell<Vec<Span>>,
    dropped: Cell<u64>,
    interrupted: Cell<u64>,
    open: Cell<u32>,
}

thread_local! {
    static TRACER: Tracer = Tracer {
        epoch: OnceCell::new(),
        bank: TallyCell::default(),
        reads: Cell::new(0),
        writes: Cell::new(0),
        snap_writes: Cell::new(0),
        by_object: Default::default(),
        policy: TallyCell::default(),
        pending_sum: Cell::new(0),
        advance: Default::default(),
        peek: Default::default(),
        segment: TallyCell::default(),
        trial: TallyCell::default(),
        explore: TallyCell::default(),
        spans: RefCell::new(Vec::new()),
        dropped: Cell::new(0),
        interrupted: Cell::new(0),
        open: Cell::new(NO_PARENT),
    };
}

/// Nanoseconds from `a` to `b`.
fn nanos(a: Instant, b: Instant) -> i64 {
    i64::try_from(b.duration_since(a).as_nanos()).unwrap_or(i64::MAX)
}

impl Tracer {
    fn tally(&self, layer: Layer) -> &TallyCell {
        match layer {
            Layer::Segment => &self.segment,
            Layer::Trial => &self.trial,
            Layer::Explore => &self.explore,
            Layer::Policy => &self.policy,
            Layer::Bank => &self.bank,
            Layer::Advance(f) => &self.advance[f as usize],
            Layer::Peek(f) => &self.peek[f as usize],
        }
    }

    /// Reserves a span slot (its duration is filled in by `close_span`);
    /// `NO_PARENT` when the buffer is full.
    fn open_span(&self, layer: Layer, start: Instant) -> u32 {
        let mut spans = self.spans.borrow_mut();
        if spans.len() >= SPAN_CAPACITY {
            self.dropped.set(self.dropped.get() + 1);
            return NO_PARENT;
        }
        let epoch = *self.epoch.get_or_init(|| start);
        spans.push(Span {
            layer,
            parent: self.open.get(),
            start_ns: nanos(epoch, start).max(0) as u64,
            dur_ns: 0,
        });
        u32::try_from(spans.len() - 1).expect("span capacity fits u32")
    }

    fn close_span(&self, idx: u32, dur_ns: i64) {
        if idx != NO_PARENT {
            self.spans.borrow_mut()[idx as usize].dur_ns = dur_ns.max(0) as u64;
        }
    }

    /// Records one sampled leaf call timed by the readings `t0`, `t1`,
    /// `t2` around it (see [`leaf`]). A call that took longer than
    /// `INTERRUPTED_NS` was descheduled mid-call: it is counted apart and
    /// left out of the layer's mean, where one such sample would outweigh
    /// thousands of real ones.
    fn leaf_sample(&self, layer: Layer, t0: Instant, t1: Instant, t2: Instant) {
        let raw = nanos(t1, t2);
        if raw > INTERRUPTED_NS {
            self.interrupted.set(self.interrupted.get() + 1);
            return;
        }
        let ns = raw - nanos(t0, t1);
        if self.tally(layer).timed(ns) {
            let idx = self.open_span(layer, t1);
            self.close_span(idx, ns);
        }
    }
}

/// Runs `f`, timing it as one sampled call of `layer` when `sampled`.
///
/// A sampled call reads the clock three times: the first pair measures
/// what one reading costs right now, in the cache state the call meets
/// (every 64th call, the timer is seldom hot), and that cost is taken
/// off the second pair, which brackets the call.
#[inline]
fn leaf<R>(layer: Layer, sampled: bool, f: impl FnOnce() -> R) -> R {
    if !sampled {
        return f();
    }
    let t0 = Instant::now();
    let t1 = Instant::now();
    let out = f();
    let t2 = Instant::now();
    TRACER.with(|t| t.leaf_sample(layer, t0, t1, t2));
    out
}

/// Times `f` in full as one call of a segment layer. The call becomes the
/// parent of the spans recorded inside it; it is kept as a span itself
/// when it is its layer's sample (segments and walks are always kept).
pub fn segment<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let (keep, prev) = TRACER.with(|t| {
        let sampled = t.tally(layer).tick();
        (sampled || layer != Layer::Trial, t.open.get())
    });
    let start = Instant::now();
    let idx = if keep {
        TRACER.with(|t| {
            let idx = t.open_span(layer, start);
            t.open.set(idx);
            idx
        })
    } else {
        NO_PARENT
    };
    let out = f();
    let end = Instant::now();
    TRACER.with(|t| {
        let ns = nanos(start, end);
        let _ = t.tally(layer).timed(ns);
        t.close_span(idx, ns);
        t.open.set(prev);
    });
    out
}

/// Returns the counters accumulated since the last `take` and zeroes them.
pub fn take() -> Snapshot {
    TRACER.with(|t| Snapshot {
        bank: t.bank.take(),
        reads: t.reads.replace(0),
        writes: t.writes.replace(0),
        snap_writes: t.snap_writes.replace(0),
        by_object: [
            t.by_object[0].replace(0),
            t.by_object[1].replace(0),
            t.by_object[2].replace(0),
        ],
        policy: t.policy.take(),
        pending_sum: t.pending_sum.replace(0),
        advance: [
            t.advance[0].take(),
            t.advance[1].take(),
            t.advance[2].take(),
        ],
        peek: [t.peek[0].take(), t.peek[1].take(), t.peek[2].take()],
        segment: t.segment.take(),
        trial: t.trial.take(),
        explore: t.explore.take(),
    })
}

/// Spans recorded, spans dropped for lack of buffer space, and timed
/// leaf calls left out as interrupted.
pub fn span_counts() -> (usize, u64, u64) {
    TRACER.with(|t| (t.spans.borrow().len(), t.dropped.get(), t.interrupted.get()))
}

/// Writes every recorded span as JSON Lines: one header object, then
/// one object per span (`id`, `layer`, `parent`, `start_ns`, `dur_ns`;
/// `parent` is -1 for a root).
///
/// # Errors
///
/// Returns the I/O error of creating or writing `path`.
pub fn write_spans(path: &std::path::Path, header: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    TRACER.with(|t| {
        let spans = t.spans.borrow();
        let _ = writeln!(
            out,
            "{{{header}, \"sample_shift\": {SAMPLE_SHIFT}, \"span_shift\": {SPAN_SHIFT}, \"spans\": {}, \"dropped\": {}}}",
            spans.len(),
            t.dropped.get()
        );
        for (id, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"layer\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"dur_ns\": {}}}",
                s.layer.name(),
                s.start_ns,
                s.dur_ns
            );
        }
    });
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())?;
    file.flush()
}

/// A register bank that counts and samples every call into `B`.
///
/// `objects` holds the register boundaries between a service world's
/// naming, store&collect and deposit objects, so each call is also
/// charged to the object it touches.
pub struct TracedBank<B> {
    inner: B,
    objects: Option<[usize; 2]>,
}

impl<B: RegisterBank> TracedBank<B> {
    /// Wraps `inner`; `objects` as in the type docs.
    pub fn new(inner: B, objects: Option<[usize; 2]>) -> Self {
        TracedBank { inner, objects }
    }

    /// Counts one call on `reg`; `true` when it is the bank's sample.
    #[inline]
    fn enter(&self, reg: RegId, write: Option<&Word>) -> bool {
        TRACER.with(|t| {
            match write {
                None => t.reads.set(t.reads.get() + 1),
                Some(word) => {
                    t.writes.set(t.writes.get() + 1);
                    if matches!(word, Word::Snap(_)) {
                        t.snap_writes.set(t.snap_writes.get() + 1);
                    }
                }
            }
            if let Some([naming_end, sc_end]) = self.objects {
                let object = usize::from(reg.0 >= naming_end) + usize::from(reg.0 >= sc_end);
                let cell = &t.by_object[object];
                cell.set(cell.get() + 1);
            }
            t.bank.tick()
        })
    }
}

impl<B: RegisterBank> RegisterBank for TracedBank<B> {
    fn reset(&mut self, num_registers: usize) {
        self.inner.reset(num_registers);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn read(&mut self, reg: RegId) -> &Word {
        let sampled = self.enter(reg, None);
        leaf(Layer::Bank, sampled, || self.inner.read(reg))
    }

    fn write(&mut self, reg: RegId, word: Word) {
        let sampled = self.enter(reg, Some(&word));
        leaf(Layer::Bank, sampled, || self.inner.write(reg, word));
    }

    fn load(&self, reg: RegId) -> Word {
        self.inner.load(reg)
    }
}

impl<B: Fingerprint> Fingerprint for TracedBank<B> {
    fn fingerprint(&self, hasher: &mut StateHasher, map: &TokenMap) {
        self.inner.fingerprint(hasher, map);
    }
}

/// A policy that counts and samples every decision of the policy it
/// borrows.
pub struct TracedPolicy<'p>(pub &'p mut dyn Policy);

impl Policy for TracedPolicy<'_> {
    fn decide(&mut self, pending: &[PendingOp]) -> Action {
        let sampled = TRACER.with(|t| {
            t.pending_sum
                .set(t.pending_sum.get() + pending.len() as u64);
            t.policy.tick()
        });
        leaf(Layer::Policy, sampled, || self.0.decide(pending))
    }
}

/// A step machine that counts and samples every call into `M`, charged
/// to `family`.
pub struct TracedMachine<M> {
    inner: M,
    family: Family,
}

impl<M> TracedMachine<M> {
    /// Wraps `inner` as a machine of `family`.
    pub fn new(inner: M, family: Family) -> Self {
        TracedMachine { inner, family }
    }
}

impl<M: StepMachine> StepMachine for TracedMachine<M> {
    type Output = M::Output;

    fn op(&self) -> ShmOp {
        let layer = Layer::Peek(self.family);
        let sampled = TRACER.with(|t| t.tally(layer).tick());
        leaf(layer, sampled, || self.inner.op())
    }

    fn peek(&self) -> (OpKind, RegId) {
        let layer = Layer::Peek(self.family);
        let sampled = TRACER.with(|t| t.tally(layer).tick());
        leaf(layer, sampled, || self.inner.peek())
    }

    fn advance(&mut self, input: &Word) -> Poll<Self::Output> {
        let layer = Layer::Advance(self.family);
        let sampled = TRACER.with(|t| t.tally(layer).tick());
        leaf(layer, sampled, || self.inner.advance(input))
    }

    fn reset(&mut self, pid: Pid) {
        self.inner.reset(pid);
    }
}

impl<M: Fingerprint> Fingerprint for TracedMachine<M> {
    fn fingerprint(&self, hasher: &mut StateHasher, map: &TokenMap) {
        self.inner.fingerprint(hasher, map);
    }
}

/// How an engine workload is built: [`Plain`] for the measured run,
/// [`Traced`] for the attribution run. Both build the same slab bank and
/// the same machines; `Traced` wraps them.
pub trait Wrap {
    /// The register bank the engine runs on.
    type Bank: RegisterBank;
    /// A machine of the workload as the pool holds it.
    type Machine<M: StepMachine>: StepMachine<Output = M::Output>;
    /// The bank for one engine.
    fn bank() -> Self::Bank;
    /// The pooled form of `m`, a machine of `family`.
    fn machine<M: StepMachine>(m: M, family: Family) -> Self::Machine<M>;
    /// Runs one trial of `pool` under `policy`.
    fn trial<M: StepMachine>(
        engine: &mut exsel_sim::StepEngine<Self::Bank>,
        policy: &mut dyn Policy,
        pool: &mut exsel_sim::MachinePool<M>,
    );
}

/// The untraced build: the program as its users call it.
pub struct Plain;

impl Wrap for Plain {
    type Bank = exsel_shm::SlabBank;
    type Machine<M: StepMachine> = M;

    fn bank() -> Self::Bank {
        exsel_shm::SlabBank::new()
    }

    fn machine<M: StepMachine>(m: M, _: Family) -> M {
        m
    }

    fn trial<M: StepMachine>(
        engine: &mut exsel_sim::StepEngine<Self::Bank>,
        policy: &mut dyn Policy,
        pool: &mut exsel_sim::MachinePool<M>,
    ) {
        engine.run_pool(policy, pool);
    }
}

/// The traced build: every bank, machine and policy call is counted and
/// sampled, and every trial is timed in full.
pub struct Traced;

impl Wrap for Traced {
    type Bank = TracedBank<exsel_shm::SlabBank>;
    type Machine<M: StepMachine> = TracedMachine<M>;

    fn bank() -> Self::Bank {
        TracedBank::new(exsel_shm::SlabBank::new(), None)
    }

    fn machine<M: StepMachine>(m: M, family: Family) -> TracedMachine<M> {
        TracedMachine::new(m, family)
    }

    fn trial<M: StepMachine>(
        engine: &mut exsel_sim::StepEngine<Self::Bank>,
        policy: &mut dyn Policy,
        pool: &mut exsel_sim::MachinePool<M>,
    ) {
        segment(Layer::Trial, || {
            engine.run_pool(&mut TracedPolicy(policy), pool);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_shm::SlabBank;

    #[test]
    fn bank_calls_are_counted_per_kind_and_object() {
        let _ = take();
        let mut bank = TracedBank::new(SlabBank::new(), Some([2, 4]));
        bank.reset(6);
        bank.write(RegId(0), Word::Int(1));
        bank.write(RegId(3), Word::Int(2));
        assert_eq!(bank.read(RegId(0)), &Word::Int(1));
        let _ = bank.read(RegId(5));
        let s = take();
        assert_eq!((s.reads, s.writes, s.bank.calls), (2, 2, 4));
        assert_eq!(s.by_object, [2, 1, 1]);
        // Four calls hold no sample: the 64th call of a layer is its first.
        assert_eq!(s.bank.timed, 0);
        assert_eq!(take(), Snapshot::default(), "take zeroes the counters");
    }
}
