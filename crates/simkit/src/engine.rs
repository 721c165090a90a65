//! The discrete-event engine.
//!
//! [`Sim`] owns a pending-event set and a user-supplied *world* — the
//! mutable state the events act upon. Events come in two flavours: a
//! boxed `FnOnce(&mut W, &mut Scheduler<W>)` for arbitrary captured
//! state, and an allocation-free *raw* form — a plain function pointer
//! plus one `u64` payload — for the hot paths that only need to name a
//! host index. Handlers stage follow-up events on the [`Scheduler`],
//! which the engine merges into the queue when the handler returns.
//!
//! Internally the engine is **not** a binary heap. Pending events live
//! in a slab-allocated arena (slots recycled through a free list) and
//! are indexed by a calendar/bucket queue keyed on `(time, seq)`:
//! compact `{at, seq, slot}` references hashed into power-of-two time
//! buckets, popped by scanning the bucket window containing the
//! current clock. Recurring deadlines (retransmit timers) get
//! permanent *timer slots* registered once and re-armed with zero
//! allocation per firing.
//!
//! Two events at the same timestamp execute in the order they were
//! scheduled (FIFO tie-break via a monotone sequence number), and the
//! queue always pops the strict minimum of `(time, seq)` — exactly the
//! total order the previous heap implementation used — which makes
//! every simulation run fully deterministic and bit-identical across
//! engine implementations.

use crate::time::SimTime;

/// The type of a boxed event handler.
///
/// The first argument is the simulation world, the second a
/// [`Scheduler`] for staging follow-up events.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Scheduler<W>)>;

/// The type of a *raw* event handler: a plain function pointer taking
/// the world, the scheduler, and the `u64` payload captured when the
/// event was scheduled.
///
/// Raw events cost no allocation to schedule — the function pointer
/// and payload are stored inline in the event arena — so the per-event
/// hot paths (software interrupts, application wakeups, timer
/// firings) should prefer them over boxed closures.
pub type RawEventFn<W> = fn(&mut W, &mut Scheduler<W>, u64);

/// The type of a post-event observer (see [`Sim::set_observer`]).
///
/// Called after every executed event with the world, the event's
/// timestamp, and its label. Observers get a shared borrow only: they
/// can check invariants but never perturb the simulation.
pub type ObserverFn<W> = Box<dyn FnMut(&W, SimTime, &'static str)>;

/// Handle to a permanent timer slot (see [`Sim::register_timer`]).
///
/// A timer slot stores its label, handler, and payload once; each
/// [`Sim::arm_timer`] / [`Scheduler::arm_timer`] afterwards enqueues a
/// firing with zero allocation. Arming the same slot for several
/// deadlines fires it once per deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId(u32);

/// Slab allocator for pending *boxed* events: a vector of slots
/// recycled through a free list, so steady-state scheduling never
/// grows the backing storage. Raw events and timer firings never
/// touch it — their handlers live inline in the calendar entry.
struct Arena<W> {
    slots: Vec<Option<(&'static str, EventFn<W>)>>,
    free: Vec<u32>,
}

impl<W> Arena<W> {
    fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, label: &'static str, f: EventFn<W>) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some((label, f));
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("event arena overflow");
            self.slots.push(Some((label, f)));
            idx
        }
    }

    fn take(&mut self, idx: u32) -> (&'static str, EventFn<W>) {
        let slot = self.slots[idx as usize]
            .take()
            .expect("event slot already taken");
        self.free.push(idx);
        slot
    }
}

/// What fires when a calendar entry comes due. Raw handlers are a
/// `Copy` function pointer plus payload, so they ride inline in the
/// entry — the hot path never allocates and never chases an arena
/// slot. Boxed closures and timer slots are referenced by index.
enum Payload<W> {
    /// An inline function-pointer event.
    Raw(&'static str, RawEventFn<W>, u64),
    /// An arena slot holding a boxed closure.
    Boxed(u32),
    /// A permanent timer slot (see [`Sim::register_timer`]).
    Timer(u32),
}

// Derived Clone/Copy would demand `W: Copy`; every variant is Copy
// regardless of `W` (a `fn` pointer mentioning `W` is still `fn`).
impl<W> Clone for Payload<W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<W> Copy for Payload<W> {}

/// A pending event: its execution time, FIFO tie-breaker, and payload.
struct EventRef<W> {
    at: SimTime,
    seq: u64,
    payload: Payload<W>,
}

impl<W> Clone for EventRef<W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<W> Copy for EventRef<W> {}

/// Smallest bucket width: 2^6 = 64 ns (one clock tick is 40 ns).
const MIN_SHIFT: u32 = 6;
/// Largest bucket width: 2^22 ns ≈ 4.2 ms (covers retransmit timers).
const MAX_SHIFT: u32 = 22;
/// Bucket-count bounds (both powers of two).
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 4096;

/// The calendar/bucket queue over [`EventRef`]s.
///
/// Events hash into `buckets[(at >> shift) & mask]`; a pop scans the
/// window containing the current clock and returns the strict minimum
/// of `(at, seq)`, advancing window by window. A full fruitless lap
/// (the next event is more than a "year" away) falls back to a direct
/// scan for the global minimum and re-centres the cursor there, so
/// arbitrarily sparse schedules stay correct.
struct Calendar<W> {
    buckets: Vec<Vec<EventRef<W>>>,
    /// `buckets.len() - 1`; the length is always a power of two.
    mask: usize,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// Total pending events.
    len: usize,
    /// Index of the bucket whose window contains the clock floor.
    cur: usize,
    /// Exclusive upper time bound of `cur`'s current window, in ns
    /// (u128 so the far-future wrap never overflows).
    bucket_top: u128,
    /// Timestamp of the most recent pop — the clock floor. Every
    /// pending event is at or after this, which is what keeps the
    /// cursor invariant (`window_start(cur) <= floor`) valid.
    floor_ns: u64,
}

impl<W> Calendar<W> {
    fn new() -> Self {
        let shift = 12; // 4.1 µs buckets: a good fit for protocol events.
        Calendar {
            buckets: vec![Vec::new(); MIN_BUCKETS],
            mask: MIN_BUCKETS - 1,
            shift,
            len: 0,
            cur: 0,
            bucket_top: 1 << shift,
            floor_ns: 0,
        }
    }

    fn bucket_of(&self, ns: u64) -> usize {
        ((ns >> self.shift) as usize) & self.mask
    }

    fn push(&mut self, ev: EventRef<W>) {
        // Keep roughly one pending event per bucket, so a full lap
        // (one calendar "year") covers the whole pending span.
        if self.len + 1 > self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild(self.buckets.len() * 2);
        }
        let idx = self.bucket_of(ev.at.as_ns());
        self.buckets[idx].push(ev);
        self.len += 1;
    }

    /// The bucket width best matching the current pending set: mean
    /// spacing between pending events, as a power of two, clamped.
    /// A pure function of the pending set, so callers can compare it
    /// against `self.shift` without committing to a rebuild.
    fn ideal_shift(&self) -> u32 {
        let mut min = u64::MAX;
        let mut max = 0;
        let mut n = 0u64;
        for ev in self.buckets.iter().flatten() {
            let ns = ev.at.as_ns();
            min = min.min(ns);
            max = max.max(ns);
            n += 1;
        }
        if n == 0 {
            return self.shift;
        }
        let target = ((max - min) / n).max(1).next_power_of_two();
        target.trailing_zeros().clamp(MIN_SHIFT, MAX_SHIFT)
    }

    /// Redistributes every pending event across `nbuckets` buckets,
    /// re-deriving the bucket width from the current event spread and
    /// re-centring the cursor on the clock floor. Deterministic: the
    /// new layout is a pure function of the pending set and the floor.
    fn rebuild(&mut self, nbuckets: usize) {
        self.shift = self.ideal_shift();
        let all: Vec<EventRef<W>> = self.buckets.iter_mut().flat_map(|b| b.drain(..)).collect();
        self.buckets = vec![Vec::new(); nbuckets];
        self.mask = nbuckets - 1;
        self.cur = self.bucket_of(self.floor_ns);
        self.bucket_top = ((u128::from(self.floor_ns) >> self.shift) + 1) << self.shift;
        for ev in all {
            let idx = self.bucket_of(ev.at.as_ns());
            self.buckets[idx].push(ev);
        }
    }

    /// Removes and returns the pending event with the smallest
    /// `(at, seq)`, or `None` if the queue is empty or that minimum
    /// lies strictly beyond `bound`.
    fn pop(&mut self, bound: Option<SimTime>) -> Option<EventRef<W>> {
        if self.len == 0 {
            return None;
        }
        // A fruitless lap whose re-derived bucket width differs from
        // the current one rebuilds and retries once: the pending set
        // is unchanged, so the second lap's ideal equals its shift.
        for _attempt in 0..2 {
            if let Some(found) = self.pop_windowed(bound) {
                return found;
            }
            let ideal = self.ideal_shift();
            if ideal == self.shift {
                break;
            }
            self.rebuild(self.buckets.len());
        }
        self.pop_rescan(bound)
    }

    /// The fast path: walks windows from the cursor looking for the
    /// first window holding a qualifying event. Returns `None` after
    /// a full fruitless lap (outer `Option`); `Some(None)` means a
    /// minimum was found but lies beyond `bound`.
    #[allow(clippy::option_option)]
    fn pop_windowed(&mut self, bound: Option<SimTime>) -> Option<Option<EventRef<W>>> {
        let width = 1u128 << self.shift;
        let mut cur = self.cur;
        let mut top = self.bucket_top;
        for _ in 0..self.buckets.len() {
            let bucket = &self.buckets[cur];
            let mut best: Option<(usize, SimTime, u64)> = None;
            for (i, ev) in bucket.iter().enumerate() {
                if u128::from(ev.at.as_ns()) < top
                    && best.is_none_or(|(_, at, seq)| (ev.at, ev.seq) < (at, seq))
                {
                    best = Some((i, ev.at, ev.seq));
                }
            }
            if let Some((i, at, _)) = best {
                // The first window with a qualifying event holds the
                // global minimum: earlier windows were exhausted.
                if bound.is_some_and(|b| at > b) {
                    return Some(None);
                }
                let ev = self.buckets[cur].swap_remove(i);
                self.cur = cur;
                self.bucket_top = top;
                self.floor_ns = ev.at.as_ns();
                self.len -= 1;
                return Some(Some(ev));
            }
            cur = (cur + 1) & self.mask;
            top += width;
        }
        None
    }

    /// The slow path after a fruitless lap at the ideal bucket width:
    /// the next event is beyond one calendar "year" even though the
    /// width fits the spread. Find the global minimum directly and
    /// re-centre on it.
    fn pop_rescan(&mut self, bound: Option<SimTime>) -> Option<EventRef<W>> {
        let mut best: Option<(usize, usize, SimTime, u64)> = None;
        for (bi, bucket) in self.buckets.iter().enumerate() {
            for (i, ev) in bucket.iter().enumerate() {
                if best.is_none_or(|(_, _, at, seq)| (ev.at, ev.seq) < (at, seq)) {
                    best = Some((bi, i, ev.at, ev.seq));
                }
            }
        }
        let (bi, i, at, _) = best.expect("non-empty calendar has a minimum");
        if bound.is_some_and(|b| at > b) {
            return None;
        }
        let ev = self.buckets[bi].swap_remove(i);
        let ns = ev.at.as_ns();
        self.cur = self.bucket_of(ns);
        self.bucket_top = ((u128::from(ns) >> self.shift) + 1) << self.shift;
        self.floor_ns = ns;
        self.len -= 1;
        Some(ev)
    }
}

/// One event staged by a handler, merged into the queue after the
/// handler returns.
enum Staged<W> {
    /// A boxed follow-up event.
    Boxed(SimTime, &'static str, EventFn<W>),
    /// A raw (function pointer + payload) follow-up event.
    Raw(SimTime, &'static str, RawEventFn<W>, u64),
    /// A timer-slot firing.
    Timer(SimTime, TimerId),
}

/// Staging area handed to event handlers for scheduling follow-up work.
///
/// Times passed to [`Scheduler::schedule_at`] must not be earlier than
/// the current simulation time; scheduling into the past is a logic
/// error and panics, since it would silently corrupt causality.
///
/// The staging buffer is owned by the [`Sim`] and lent to each handler
/// in turn, so steady-state event dispatch allocates nothing for it.
pub struct Scheduler<W> {
    now: SimTime,
    staged: Vec<Staged<W>>,
}

impl<W> Scheduler<W> {
    /// Current simulation time (the timestamp of the running event).
    #[inline]
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Stages an event to run `delay` after the current time.
    pub fn schedule<F>(&mut self, delay: SimTime, label: &'static str, f: F)
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    {
        self.schedule_at(self.now + delay, label, f);
    }

    /// Stages an event to run at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at<F>(&mut self, at: SimTime, label: &'static str, f: F)
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    {
        self.check_future(at, label);
        self.staged.push(Staged::Boxed(at, label, Box::new(f)));
    }

    /// Stages a raw (allocation-free) event to run `delay` after the
    /// current time. `data` is passed back to `f` when it fires.
    pub fn schedule_raw(
        &mut self,
        delay: SimTime,
        label: &'static str,
        f: RawEventFn<W>,
        data: u64,
    ) {
        self.schedule_raw_at(self.now + delay, label, f, data);
    }

    /// Stages a raw (allocation-free) event at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_raw_at(
        &mut self,
        at: SimTime,
        label: &'static str,
        f: RawEventFn<W>,
        data: u64,
    ) {
        self.check_future(at, label);
        self.staged.push(Staged::Raw(at, label, f, data));
    }

    /// Stages a firing of the permanent timer slot `id` at the
    /// absolute time `at` — zero allocation.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn arm_timer(&mut self, id: TimerId, at: SimTime) {
        self.check_future(at, "timer");
        self.staged.push(Staged::Timer(at, id));
    }

    fn check_future(&self, at: SimTime, label: &'static str) {
        assert!(
            at >= self.now,
            "event '{label}' scheduled into the past: {at:?} < now {:?}",
            self.now
        );
    }
}

/// The simulation: an event queue plus the world `W` it drives.
///
/// # Examples
///
/// ```
/// use simkit::{Sim, SimTime};
///
/// let mut sim = Sim::new(0u32);
/// sim.schedule(SimTime::from_us(1), "tick", |w: &mut u32, s| {
///     *w += 1;
///     // Events may schedule further events.
///     s.schedule(SimTime::from_us(1), "tock", |w: &mut u32, _| *w += 10);
/// });
/// sim.run();
/// assert_eq!(sim.world, 11);
/// assert_eq!(sim.now(), SimTime::from_us(2));
/// ```
pub struct Sim<W> {
    /// The simulation world, freely accessible between runs.
    pub world: W,
    now: SimTime,
    seq: u64,
    calendar: Calendar<W>,
    arena: Arena<W>,
    timers: Vec<(&'static str, RawEventFn<W>, u64)>,
    /// Reused staging buffer lent to each handler's [`Scheduler`].
    staged_pool: Vec<Staged<W>>,
    executed: u64,
    observer: Option<ObserverFn<W>>,
}

impl<W> Sim<W> {
    /// Creates a simulation at time zero over the given world.
    #[must_use]
    pub fn new(world: W) -> Self {
        Sim {
            world,
            now: SimTime::ZERO,
            seq: 0,
            calendar: Calendar::new(),
            arena: Arena::new(),
            timers: Vec::new(),
            staged_pool: Vec::new(),
            executed: 0,
            observer: None,
        }
    }

    /// Installs an observer called after every executed event with
    /// `(world, event_time, event_label)`.
    ///
    /// Observation is strictly read-only and fires outside the
    /// handler, so it cannot change event order, timing, or world
    /// state — the runtime invariant engine hooks in here. With no
    /// observer installed (the default) the per-event cost is a
    /// single `Option` check.
    pub fn set_observer(&mut self, obs: ObserverFn<W>) {
        self.observer = Some(obs);
    }

    /// Current simulation time.
    #[inline]
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    #[must_use]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending.
    #[inline]
    #[must_use]
    pub fn events_pending(&self) -> usize {
        self.calendar.len
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule<F>(&mut self, delay: SimTime, label: &'static str, f: F)
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    {
        self.schedule_at(self.now + delay, label, f);
    }

    /// Schedules an event at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at<F>(&mut self, at: SimTime, label: &'static str, f: F)
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    {
        self.assert_future(at, label);
        let slot = self.arena.insert(label, Box::new(f));
        self.push_ref(at, Payload::Boxed(slot));
    }

    /// Schedules a raw (allocation-free) event `delay` after the
    /// current time. `data` is passed back to `f` when it fires.
    pub fn schedule_raw(
        &mut self,
        delay: SimTime,
        label: &'static str,
        f: RawEventFn<W>,
        data: u64,
    ) {
        self.schedule_raw_at(self.now + delay, label, f, data);
    }

    /// Schedules a raw (allocation-free) event at the absolute time
    /// `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_raw_at(
        &mut self,
        at: SimTime,
        label: &'static str,
        f: RawEventFn<W>,
        data: u64,
    ) {
        self.assert_future(at, label);
        self.push_ref(at, Payload::Raw(label, f, data));
    }

    /// Registers a permanent timer slot: the label, handler, and
    /// payload are stored once, and every subsequent
    /// [`Sim::arm_timer`] / [`Scheduler::arm_timer`] enqueues a firing
    /// with zero allocation.
    pub fn register_timer(&mut self, label: &'static str, f: RawEventFn<W>, data: u64) -> TimerId {
        let id = u32::try_from(self.timers.len()).expect("timer slot overflow");
        self.timers.push((label, f, data));
        TimerId(id)
    }

    /// Arms the timer slot `id` to fire at the absolute time `at`.
    /// Arming the slot for several deadlines fires it once per
    /// deadline.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn arm_timer(&mut self, id: TimerId, at: SimTime) {
        self.assert_future(at, self.timers[id.0 as usize].0);
        self.push_ref(at, Payload::Timer(id.0));
    }

    fn assert_future(&self, at: SimTime, label: &'static str) {
        assert!(
            at >= self.now,
            "event '{label}' scheduled into the past: {at:?} < now {:?}",
            self.now
        );
    }

    #[inline]
    fn push_ref(&mut self, at: SimTime, payload: Payload<W>) {
        self.calendar.push(EventRef {
            at,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Pops-and-runs one event; shared body of [`Sim::step`] and
    /// [`Sim::run_until`].
    fn step_bounded(&mut self, bound: Option<SimTime>) -> bool {
        let Some(ev) = self.calendar.pop(bound) else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "event violates causality");
        self.now = ev.at;
        self.executed += 1;
        let mut sched = Scheduler {
            now: self.now,
            staged: core::mem::take(&mut self.staged_pool),
        };
        let label = match ev.payload {
            Payload::Raw(label, f, data) => {
                f(&mut self.world, &mut sched, data);
                label
            }
            Payload::Timer(id) => {
                let (label, f, data) = self.timers[id as usize];
                f(&mut self.world, &mut sched, data);
                label
            }
            Payload::Boxed(slot) => {
                let (label, f) = self.arena.take(slot);
                f(&mut self.world, &mut sched);
                label
            }
        };
        let mut staged = sched.staged;
        for st in staged.drain(..) {
            match st {
                Staged::Raw(at, label, f, data) => self.push_ref(at, Payload::Raw(label, f, data)),
                Staged::Boxed(at, label, f) => {
                    let slot = self.arena.insert(label, f);
                    self.push_ref(at, Payload::Boxed(slot));
                }
                Staged::Timer(at, id) => self.push_ref(at, Payload::Timer(id.0)),
            }
        }
        self.staged_pool = staged;
        if let Some(obs) = self.observer.as_mut() {
            obs(&self.world, self.now, label);
        }
        true
    }

    /// Executes the next pending event, if any.
    ///
    /// Returns `true` if an event ran, `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.step_bounded(None)
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue is empty or the clock passes `deadline`.
    ///
    /// Events at exactly `deadline` still execute; the first event
    /// strictly beyond it is left in the queue.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.step_bounded(Some(deadline)) {}
    }

    /// Executes pending events while `keep_going` returns `true`,
    /// checking the predicate **after** every executed event.
    ///
    /// Returns `true` when the predicate stopped the run (it returned
    /// `false` after some event), and `false` when the queue drained
    /// first — including a queue that was empty on entry, in which
    /// case zero events run and the predicate is never called. When
    /// the queue is non-empty at least one event executes, even if
    /// `keep_going` would already have returned `false` beforehand.
    pub fn run_while<P: FnMut(&W) -> bool>(&mut self, mut keep_going: P) -> bool {
        loop {
            if !self.step() {
                return false;
            }
            if !keep_going(&self.world) {
                return true;
            }
        }
    }
}

/// Compile-time witness that a world type can be fanned out across
/// sweep worker threads.
///
/// A [`Sim`] itself is never sent anywhere — its event queue holds
/// non-`Send` boxed closures, so each worker builds and runs its own
/// simulation locally. The only requirement parallel sweeps place on a
/// simulation is therefore that the *world* (and whatever results are
/// extracted from it) crosses threads: assert it once, next to the
/// world type, as `const _: () = simkit::assert_world_send::<MyWorld>();`.
pub const fn assert_world_send<W: Send>() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(Vec::new());
        sim.schedule(SimTime::from_us(3), "c", |w: &mut Vec<u32>, _| w.push(3));
        sim.schedule(SimTime::from_us(1), "a", |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule(SimTime::from_us(2), "b", |w: &mut Vec<u32>, _| w.push(2));
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn equal_timestamps_run_fifo() {
        let mut sim = Sim::new(Vec::new());
        for i in 0..10u32 {
            sim.schedule(SimTime::from_us(7), "same", move |w: &mut Vec<u32>, _| {
                w.push(i)
            });
        }
        sim.run();
        assert_eq!(sim.world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut sim = Sim::new(0u64);
        fn tick(w: &mut u64, s: &mut Scheduler<u64>) {
            *w += 1;
            if *w < 100 {
                s.schedule(SimTime::from_us(1), "tick", tick);
            }
        }
        sim.schedule(SimTime::ZERO, "tick", tick);
        sim.run();
        assert_eq!(sim.world, 100);
        assert_eq!(sim.now(), SimTime::from_us(99));
    }

    #[test]
    fn run_until_stops_at_deadline_inclusive() {
        let mut sim = Sim::new(Vec::new());
        for us in [1u64, 2, 3, 4] {
            sim.schedule(SimTime::from_us(us), "e", move |w: &mut Vec<u64>, _| {
                w.push(us)
            });
        }
        sim.run_until(SimTime::from_us(2));
        assert_eq!(sim.world, vec![1, 2]);
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3, 4]);
    }

    #[test]
    fn run_while_predicate() {
        let mut sim = Sim::new(0u32);
        for _ in 0..10 {
            sim.schedule(SimTime::from_us(1), "inc", |w: &mut u32, _| *w += 1);
        }
        let satisfied = sim.run_while(|w| *w < 4);
        assert!(satisfied);
        assert_eq!(sim.world, 4);
        // The predicate is consulted only after an event executes: one
        // that is already false still lets exactly one event run.
        let satisfied = sim.run_while(|w| *w < 1);
        assert!(satisfied);
        assert_eq!(sim.world, 5);
        let exhausted = sim.run_while(|w| *w < 1000);
        assert!(!exhausted);
        assert_eq!(sim.world, 10);
    }

    #[test]
    fn run_while_on_an_empty_queue_reports_drained() {
        // Zero events ran, so the result must be "queue drained", not
        // "predicate satisfied" — and the predicate is never called.
        let mut sim = Sim::new(0u32);
        let drained = !sim.run_while(|_| panic!("predicate called with no events"));
        assert!(drained);
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Sim::new(());
        sim.schedule(SimTime::from_us(5), "later", |_: &mut (), s| {
            s.schedule_at(SimTime::from_us(1), "past", |_, _| {});
        });
        sim.run();
    }

    #[test]
    fn step_on_empty_queue_returns_false() {
        let mut sim = Sim::new(());
        assert!(!sim.step());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn observer_sees_every_event_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;

        type Seen = Vec<(u32, u64, &'static str)>;
        let seen: Rc<RefCell<Seen>> = Rc::default();
        let log = Rc::clone(&seen);
        let mut sim = Sim::new(0u32);
        sim.set_observer(Box::new(move |w, at, label| {
            log.borrow_mut().push((*w, at.as_ns(), label));
        }));
        sim.schedule(SimTime::from_us(2), "b", |w: &mut u32, _| *w += 10);
        sim.schedule(SimTime::from_us(1), "a", |w: &mut u32, _| *w += 1);
        sim.run();
        // The observer runs after each handler, with its effects
        // already applied, in execution order.
        assert_eq!(*seen.borrow(), vec![(1, 1000, "a"), (11, 2000, "b")]);
    }

    #[test]
    fn raw_and_boxed_events_share_one_fifo_order() {
        fn push_raw(w: &mut Vec<u32>, _: &mut Scheduler<Vec<u32>>, data: u64) {
            w.push(data as u32);
        }
        let mut sim = Sim::new(Vec::new());
        let t = SimTime::from_us(5);
        sim.schedule_raw_at(t, "raw0", push_raw, 0);
        sim.schedule_at(t, "boxed1", |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_raw_at(t, "raw2", push_raw, 2);
        sim.schedule_at(t, "boxed3", |w: &mut Vec<u32>, _| w.push(3));
        sim.run();
        assert_eq!(sim.world, vec![0, 1, 2, 3]);
    }

    #[test]
    fn raw_events_can_stage_raw_followups() {
        fn tick(w: &mut u64, s: &mut Scheduler<u64>, data: u64) {
            *w += data;
            if *w < 10 {
                s.schedule_raw(SimTime::from_us(1), "tick", tick, data);
            }
        }
        let mut sim = Sim::new(0u64);
        sim.schedule_raw(SimTime::ZERO, "tick", tick, 2);
        sim.run();
        assert_eq!(sim.world, 10);
        assert_eq!(sim.events_executed(), 5);
    }

    #[test]
    fn timer_slots_rearm_without_allocation() {
        fn fire(w: &mut Vec<u64>, s: &mut Scheduler<Vec<u64>>, data: u64) {
            w.push(s.now().as_ns());
            let _ = data;
        }
        let mut sim = Sim::new(Vec::new());
        let t = sim.register_timer("tmr", fire, 7);
        sim.arm_timer(t, SimTime::from_us(1));
        sim.arm_timer(t, SimTime::from_us(3));
        sim.run();
        assert_eq!(sim.world, vec![1_000, 3_000]);
        // Re-arm after a drain: the slot is permanent.
        sim.arm_timer(t, SimTime::from_us(9));
        sim.run();
        assert_eq!(sim.world, vec![1_000, 3_000, 9_000]);
    }

    #[test]
    fn timers_can_be_armed_from_handlers() {
        struct W {
            fired: u32,
            timer: Option<TimerId>,
        }
        fn fire(w: &mut W, s: &mut Scheduler<W>, _: u64) {
            w.fired += 1;
            if w.fired < 5 {
                s.arm_timer(w.timer.unwrap(), s.now() + SimTime::from_us(2));
            }
        }
        let mut sim = Sim::new(W {
            fired: 0,
            timer: None,
        });
        let t = sim.register_timer("tmr", fire, 0);
        sim.world.timer = Some(t);
        sim.arm_timer(t, SimTime::from_us(1));
        sim.run();
        assert_eq!(sim.world.fired, 5);
        assert_eq!(sim.now(), SimTime::from_us(9));
    }

    #[test]
    fn calendar_handles_far_future_jumps() {
        // An event many calendar "years" beyond the bucket span forces
        // the direct-search fallback; order must still hold.
        let mut sim = Sim::new(Vec::new());
        sim.schedule_at(SimTime::from_us(1), "near", |w: &mut Vec<u64>, s| {
            w.push(1);
            // ~0.5 s away: far beyond any bucket lap at µs widths.
            s.schedule_at(SimTime::from_ns(500_000_000), "rto", |w, _| w.push(2));
        });
        sim.schedule_at(
            SimTime::from_ns(500_000_040),
            "after",
            |w: &mut Vec<u64>, _| w.push(3),
        );
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_ns(500_000_040));
    }

    #[test]
    fn calendar_grows_under_load_and_stays_ordered() {
        // Enough same-burst events to trigger several rebuilds, with
        // deliberately awkward clustering.
        let mut sim = Sim::new(Vec::new());
        let mut expect = Vec::new();
        for i in 0..500u64 {
            let at = SimTime::from_ns((i % 7) * 1_000_000 + i * 13);
            sim.schedule_at(at, "e", move |w: &mut Vec<(u64, u64)>, _| {
                w.push((at.as_ns(), i))
            });
            expect.push((at.as_ns(), i));
        }
        sim.run();
        // Sort by (time, insertion seq) — the engine's contract.
        expect.sort_by_key(|&(at, i)| (at, i));
        assert_eq!(sim.world, expect);
    }

    #[test]
    fn run_until_with_sparse_future_events() {
        let mut sim = Sim::new(0u32);
        sim.schedule_at(SimTime::from_ns(1_000_000_000), "late", |w: &mut u32, _| {
            *w += 1
        });
        // Deadline before the only event: nothing runs, event stays.
        sim.run_until(SimTime::from_us(10));
        assert_eq!(sim.world, 0);
        assert_eq!(sim.events_pending(), 1);
        sim.run_until(SimTime::from_ns(1_000_000_000));
        assert_eq!(sim.world, 1);
        assert_eq!(sim.events_pending(), 0);
    }
}
