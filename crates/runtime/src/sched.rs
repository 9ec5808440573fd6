//! The `Pool` scheduler, the default: a work-stealing cooperative executor
//! running every TE instance as an *actor*.
//!
//! The reference `Threads` scheduler spends one OS thread per TE replica;
//! at the replica counts the reconfiguration plane can reach, deployment
//! cost and context-switch pressure grow linearly with instances, and every
//! ingest hands an item to another thread. This module multiplexes
//! instances onto a fixed pool instead (`RuntimeConfig::sched_threads`
//! workers; `SDG_SCHED=threads` or `RuntimeConfig::scheduler` selects the
//! reference path):
//!
//! - **Serial mailboxes.** Each instance is an actor: a FIFO mailbox plus
//!   the instance's [`Worker`]. At most one pool worker runs an actor at a
//!   time, so per-instance ordering and dedupe semantics are exactly those
//!   of a dedicated thread. One mutex guards both the queue and the
//!   actor's run state, so a push can never race an idle transition into a
//!   lost wakeup.
//! - **Work stealing.** Runnable actors sit in per-worker local deques
//!   (owner pops newest) or a global injector; an idle worker takes its
//!   own work first, then the injector, then steals the *oldest* work from
//!   randomly probed victims. Idle workers park on a condvar; a global
//!   injection epoch closes the scan-then-park window.
//! - **Credit-based backpressure.** A send from inside an actor never
//!   blocks the pool thread: the message is pushed unconditionally and, if
//!   the destination is at capacity, the *producer actor* suspends after
//!   its slice, registering itself as a waiter on each over-full mailbox.
//!   The pop that drains a mailbox to its low-water mark (a sixteenth of
//!   the capacity below full) reschedules its waiters and wakes blocked
//!   external senders, so a producer that outruns its consumer wakes once
//!   per batch of items, not once per item.
//!   Suspension only ever propagates upstream (consumers never
//!   wait on producers), so on a DAG the sinks always drain and, by
//!   induction over reverse topological order, every suspended actor is
//!   eventually resumed — no deadlock. External threads (ingest, control
//!   plane) block on the mailbox condvar instead, like a bounded channel.
//! - **Timer heap.** Micro-batch linger deadlines move from per-thread
//!   `recv_timeout` waits to one shared min-heap; pool workers fire due
//!   entries between slices and bound their park time by the earliest
//!   deadline.
//! - **Service time as a suspension.** Modelled per-item service time
//!   (`RuntimeConfig::work_ns`) is charged to [`Worker::resume_at`]. A
//!   dedicated thread sleeps it out; an actor instead ends its slice and
//!   parks `Sleeping` on the timer heap, so N sleeping replicas overlap
//!   like N machines without holding N pool workers. Pushes queue behind
//!   the deadline without scheduling it; only its timer wakes the actor.
//!
//! Shutdown and disconnect mirror the thread-per-instance semantics:
//! `Stop` flushes pending batches and retires the actor; dropping the last
//! [`PoolSender`] (the scale-in/recovery slot swap) lets the actor drain
//! what is queued and then retire, exactly as a dedicated thread exits on
//! channel disconnect. Sends to a retired actor fail like sends to a
//! disconnected channel.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdg_common::obs::SchedInstruments;

use crate::worker::{SendClosed, Worker, WorkerMsg};

/// Messages an actor processes per activation before rescheduling itself:
/// long enough to amortise wakeup cost over a batch drain, short enough
/// that one busy mailbox cannot monopolise a pool worker.
const RUN_SLICE: usize = 128;

/// Longest a pool worker parks before re-checking for work; bounds the
/// staleness of a timer registered while every worker was asleep.
const MAX_PARK: Duration = Duration::from_millis(50);

/// Run state of an actor, kept under the mailbox lock so queue contents
/// and scheduling decisions can never disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    /// Not queued anywhere; the next push (or timer) schedules it.
    Idle,
    /// Sitting in a pool deque awaiting a worker.
    Scheduled,
    /// Owned by a pool worker right now.
    Running,
    /// Waiting for credit on one or more full downstream mailboxes.
    Suspended,
    /// Serving modelled service time until the given instant. Pushes queue
    /// without scheduling; only the actor's timer makes it runnable.
    Sleeping(Instant),
}

/// Everything guarded by the mailbox lock.
struct MailboxInner {
    queue: VecDeque<WorkerMsg>,
    state: RunState,
    /// Live [`PoolSender`] clones. Zero mirrors channel disconnect.
    senders: usize,
    /// The actor retired (`Stop` processed, or disconnect drain finished):
    /// further sends fail like sends to a dropped receiver.
    closed: bool,
    /// All senders dropped; retire once the queue drains.
    disconnected: bool,
    /// Producer actors suspended on this mailbox's credit.
    waiters: Vec<Arc<Actor>>,
    /// External senders blocked on `not_full`.
    blocked: usize,
}

/// One TE instance scheduled on the pool: a serial mailbox plus the
/// instance's [`Worker`] (present until the actor retires).
struct Actor {
    mb: Mutex<MailboxInner>,
    /// Signals external (non-actor) senders blocked on a full mailbox.
    not_full: Condvar,
    /// Mailbox capacity (`RuntimeConfig::channel_capacity`). In-actor and
    /// forced sends may overfill past it; the overfill is repaid through
    /// producer suspension.
    cap: usize,
    worker: Mutex<Option<Worker>>,
    shared: Arc<PoolShared>,
}

/// Per-thread context present while a pool worker runs an actor slice.
struct ActorCtx {
    /// The actor being run (self-sends are exempt from suspension: the
    /// actor drains its own mailbox, so waiting on it would never end).
    actor: Arc<Actor>,
    /// Over-capacity destinations pushed into during the slice.
    blocked: Vec<Arc<Actor>>,
    /// Index of the pool worker running the slice, for local rescheduling.
    me: usize,
}

thread_local! {
    static CURRENT: RefCell<Option<ActorCtx>> = const { RefCell::new(None) };
}

/// The pool-worker index of the slice running on this thread, if any.
fn ctx_worker() -> Option<usize> {
    CURRENT.with(|c| c.borrow().as_ref().map(|ctx| ctx.me))
}

/// Sending half of an actor mailbox — the pool analogue of a bounded
/// channel sender. Clones are counted: when the last clone drops, the
/// mailbox disconnects and the actor drains what is queued, then retires,
/// exactly like a dedicated worker thread observing channel disconnect.
pub struct PoolSender {
    actor: Arc<Actor>,
}

impl PoolSender {
    /// Delivers `msg`. From inside a pool slice this never blocks the pool
    /// thread: the message is pushed unconditionally and an over-full
    /// destination suspends the producer actor after its slice. External
    /// threads block on the mailbox condvar, like a bounded channel send.
    pub fn send(&self, msg: WorkerMsg) -> Result<(), SendClosed> {
        self.actor.push(msg, false)
    }

    /// Delivers `msg` without waiting for space even from an external
    /// thread. Used by paths that run under the target-list write guards
    /// (recovery replay, victim `Stop`), where waiting could stall every
    /// pool worker behind the same guards.
    pub fn force_send(&self, msg: WorkerMsg) -> Result<(), SendClosed> {
        self.actor.push(msg, true)
    }

    /// Messages queued in the mailbox.
    pub fn len(&self) -> usize {
        self.actor.mb.lock().expect("mailbox lock").queue.len()
    }

    /// Whether the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the actor holds a pool thread right now. The supervisor's
    /// hang detection only suspects `Running` actors: `Idle`, `Scheduled`
    /// and `Suspended` actors legitimately sit on stalled heartbeat
    /// epochs while parked behind busy workers or awaiting send credit.
    pub(crate) fn is_running(&self) -> bool {
        self.actor.mb.lock().expect("mailbox lock").state == RunState::Running
    }
}

impl Clone for PoolSender {
    fn clone(&self) -> Self {
        self.actor.mb.lock().expect("mailbox lock").senders += 1;
        PoolSender {
            actor: Arc::clone(&self.actor),
        }
    }
}

impl Drop for PoolSender {
    fn drop(&mut self) {
        let schedule = {
            let mut mb = self.actor.mb.lock().expect("mailbox lock");
            mb.senders -= 1;
            if mb.senders > 0 || mb.closed {
                false
            } else {
                // Last sender gone: the thread-per-instance equivalent is
                // a disconnecting channel. Schedule the actor so it drains
                // the remaining queue and retires.
                mb.disconnected = true;
                if mb.state == RunState::Idle {
                    mb.state = RunState::Scheduled;
                    true
                } else {
                    false
                }
            }
        };
        if schedule {
            self.actor
                .shared
                .schedule(Arc::clone(&self.actor), ctx_worker());
        }
    }
}

impl Actor {
    fn push(self: &Arc<Self>, msg: WorkerMsg, force: bool) -> Result<(), SendClosed> {
        let in_ctx = CURRENT.with(|c| c.borrow().is_some());
        let mut mb = self.mb.lock().expect("mailbox lock");
        if !in_ctx && !force {
            while !mb.closed && mb.queue.len() >= self.cap {
                mb.blocked += 1;
                mb = self.not_full.wait(mb).expect("mailbox lock");
                mb.blocked -= 1;
            }
        }
        if mb.closed {
            return Err(SendClosed);
        }
        mb.queue.push_back(msg);
        let schedule = mb.state == RunState::Idle;
        if schedule {
            mb.state = RunState::Scheduled;
        }
        let over = in_ctx && mb.queue.len() >= self.cap;
        drop(mb);
        if schedule {
            self.shared.schedule(Arc::clone(self), ctx_worker());
        }
        if over {
            // Record the over-full destination; the producer suspends on
            // it once its slice ends. Self-sends are exempt (the actor is
            // the one draining this mailbox).
            CURRENT.with(|c| {
                if let Some(ctx) = c.borrow_mut().as_mut() {
                    if !Arc::ptr_eq(&ctx.actor, self)
                        && !ctx.blocked.iter().any(|a| Arc::ptr_eq(a, self))
                    {
                        ctx.blocked.push(Arc::clone(self));
                    }
                }
            });
        }
        Ok(())
    }

    /// Queue length at which a draining mailbox hands credit back to
    /// blocked senders and suspended producers: a sixteenth of the
    /// capacity below full (at least one slot). Handing it back at every
    /// pop below capacity costs a producer that outruns its consumer one
    /// wake-up per item; handing it back much lower makes that producer's
    /// sends bursty, which delays whatever else it feeds.
    fn low_water(&self) -> usize {
        self.cap - (self.cap / 16).max(1)
    }

    /// Pops one message. Returns the message, the waiters to resume when
    /// the pop drained the mailbox to its low-water mark, and the
    /// disconnect flag.
    fn pop(&self) -> (Option<WorkerMsg>, Vec<Arc<Actor>>, bool) {
        let mut mb = self.mb.lock().expect("mailbox lock");
        let msg = mb.queue.pop_front();
        let mut waiters = Vec::new();
        let mut notify = false;
        if msg.is_some() && mb.queue.len() == self.low_water() {
            // Drained to the low-water mark: hand the credit to suspended
            // producers and blocked external senders. Everyone waiting saw
            // the mailbox full, and pops shrink it one at a time, so every
            // wait passes this point.
            waiters = std::mem::take(&mut mb.waiters);
            notify = mb.blocked > 0;
        }
        let disconnected = mb.disconnected;
        drop(mb);
        if notify {
            self.not_full.notify_all();
        }
        (msg, waiters, disconnected)
    }
}

/// Bumped on every global injection; parking workers re-check it under the
/// idle lock to close the scan-then-park window.
struct IdleState {
    epoch: u64,
    parked: usize,
}

/// A linger or wake-up deadline for one actor, ordered by `(deadline, seq)`.
struct TimerEntry {
    at: Instant,
    seq: u64,
    actor: Arc<Actor>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The shared deadline min-heap.
struct TimerHeap {
    heap: BinaryHeap<Reverse<TimerEntry>>,
    seq: u64,
}

/// State shared by all pool workers, senders and actors.
struct PoolShared {
    /// Global FIFO of runnable actors (external injections).
    injector: Mutex<VecDeque<Arc<Actor>>>,
    /// Per-worker deques: owner pushes/pops the back, thieves steal the
    /// front.
    locals: Vec<Mutex<VecDeque<Arc<Actor>>>>,
    idle: Mutex<IdleState>,
    idle_cv: Condvar,
    timers: Mutex<TimerHeap>,
    /// Actors not yet retired; `join` waits for zero.
    live: Mutex<usize>,
    done: Condvar,
    shutdown: AtomicBool,
    obs: Arc<SchedInstruments>,
}

impl PoolShared {
    /// Queues a runnable actor: onto the scheduling worker's own deque
    /// when called from a pool slice (locality), onto the global injector
    /// otherwise.
    fn schedule(&self, actor: Arc<Actor>, me: Option<usize>) {
        if let Some(me) = me {
            self.locals[me].lock().expect("deque lock").push_back(actor);
            return;
        }
        self.injector
            .lock()
            .expect("injector lock")
            .push_back(actor);
        let mut idle = self.idle.lock().expect("idle lock");
        idle.epoch += 1;
        // Only a fully parked pool needs a kick: any awake worker scans
        // the injector on its next loop iteration.
        if idle.parked == self.locals.len() {
            drop(idle);
            self.idle_cv.notify_one();
        }
    }

    /// Resumes suspended actors whose awaited credit arrived.
    fn resume(&self, waiters: Vec<Arc<Actor>>, me: Option<usize>) {
        for actor in waiters {
            let schedule = {
                let mut mb = actor.mb.lock().expect("mailbox lock");
                if mb.state == RunState::Suspended {
                    mb.state = RunState::Scheduled;
                    true
                } else {
                    // Already rescheduled through another mailbox's credit
                    // (or retired); stale registrations are no-ops.
                    false
                }
            };
            if schedule {
                self.obs.resumes.inc();
                self.schedule(actor, me);
            }
        }
    }

    /// Registers a deadline for `actor`.
    fn register_timer(&self, at: Instant, actor: Arc<Actor>) {
        {
            let mut t = self.timers.lock().expect("timer lock");
            t.seq += 1;
            let seq = t.seq;
            t.heap.push(Reverse(TimerEntry { at, seq, actor }));
        }
        // A parked worker may be sleeping past the new deadline: wake one
        // so it re-parks against the updated heap minimum.
        let idle = self.idle.lock().expect("idle lock");
        if idle.parked > 0 {
            drop(idle);
            self.idle_cv.notify_one();
        }
    }

    /// Schedules every idle actor whose deadline passed by `now`, and every
    /// sleeping actor whose service time ended; returns the count.
    fn fire_due_timers(&self, me: usize, now: Instant) -> usize {
        let mut fired = 0;
        loop {
            let actor = {
                let mut t = self.timers.lock().expect("timer lock");
                match t.heap.peek() {
                    Some(Reverse(e)) if e.at <= now => t.heap.pop().expect("peeked").0.actor,
                    _ => break,
                }
            };
            let schedule = {
                let mut mb = actor.mb.lock().expect("mailbox lock");
                // Scheduled/Running actors flush expired batches on their
                // own; a suspended actor flushes when its credit arrives
                // (flushing from here would push into the very mailboxes
                // it is waiting on). A sleeping actor wakes only once its
                // own deadline passed: an older linger entry must not cut
                // its service time short.
                let due = match mb.state {
                    RunState::Idle => true,
                    RunState::Sleeping(until) => until <= now,
                    _ => false,
                };
                if !mb.closed && due {
                    mb.state = RunState::Scheduled;
                    true
                } else {
                    false
                }
            };
            if schedule {
                self.obs.timer_fires.inc();
                self.schedule(actor, Some(me));
                fired += 1;
            }
        }
        fired
    }

    fn next_timer(&self) -> Option<Instant> {
        self.timers
            .lock()
            .expect("timer lock")
            .heap
            .peek()
            .map(|e| e.0.at)
    }

    fn retire_one(&self) {
        let mut live = self.live.lock().expect("live lock");
        *live -= 1;
        if *live == 0 {
            self.done.notify_all();
        }
    }
}

/// A minimal xorshift generator for victim selection — deterministic per
/// worker, no shared state.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift((seed.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// The work-stealing actor pool. One per deployment when
/// `RuntimeConfig::scheduler` is `Pool`.
pub struct Pool {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// Starts `threads` pool workers reporting through `obs`.
    pub(crate) fn start(threads: usize, obs: Arc<SchedInstruments>) -> Arc<Pool> {
        let n = threads.max(1);
        obs.workers.set(n as u64);
        let shared = Arc::new(PoolShared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(IdleState {
                epoch: 0,
                parked: 0,
            }),
            idle_cv: Condvar::new(),
            timers: Mutex::new(TimerHeap {
                heap: BinaryHeap::new(),
                seq: 0,
            }),
            live: Mutex::new(0),
            done: Condvar::new(),
            shutdown: AtomicBool::new(false),
            obs,
        });
        let handles = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sdg-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(Pool {
            shared,
            threads: Mutex::new(handles),
        })
    }

    /// Registers `worker` as a pool actor with mailbox capacity `cap` and
    /// returns its sending half.
    pub(crate) fn spawn_actor(&self, worker: Worker, cap: usize) -> PoolSender {
        *self.shared.live.lock().expect("live lock") += 1;
        let actor = Arc::new(Actor {
            mb: Mutex::new(MailboxInner {
                queue: VecDeque::new(),
                state: RunState::Idle,
                senders: 1,
                closed: false,
                disconnected: false,
                waiters: Vec::new(),
                blocked: 0,
            }),
            not_full: Condvar::new(),
            cap: cap.max(1),
            worker: Mutex::new(Some(worker)),
            shared: Arc::clone(&self.shared),
        });
        PoolSender { actor }
    }

    /// Waits until every actor has retired, then stops and joins the pool
    /// workers. Called by `Deployment::shutdown` after `Stop` fan-out.
    pub(crate) fn join(&self) {
        {
            let mut live = self.shared.live.lock().expect("live lock");
            while *live > 0 {
                // The timeout only guards a hypothetically missed notify;
                // retirement always signals `done`.
                let (guard, _) = self
                    .shared
                    .done
                    .wait_timeout(live, Duration::from_millis(50))
                    .expect("live lock");
                live = guard;
            }
        }
        self.stop_workers();
    }

    fn stop_workers(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Take the idle lock so no worker can re-park between the flag
        // store and the broadcast.
        drop(self.shared.idle.lock().expect("idle lock"));
        self.idle_cv_notify_all();
        for handle in self.threads.lock().expect("thread list").drain(..) {
            let _ = handle.join();
        }
    }

    fn idle_cv_notify_all(&self) {
        self.shared.idle_cv.notify_all();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // A deployment dropped without `shutdown()` abandons queued work,
        // exactly as dedicated threads abandon their channels — but the
        // pool workers themselves must still exit.
        self.stop_workers();
    }
}

/// Main loop of one pool worker.
fn worker_loop(shared: &Arc<PoolShared>, me: usize) {
    let mut rng = XorShift::new(me as u64);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Due timers first, so a steady stream of runnable actors cannot
        // starve a sleeping one past its wake-up time.
        shared.fire_due_timers(me, Instant::now());
        let epoch = shared.idle.lock().expect("idle lock").epoch;
        if let Some(actor) = find_task(shared, me, &mut rng) {
            run_actor(shared, me, actor);
            continue;
        }
        // Park. Re-check the injection epoch under the idle lock so an
        // injection racing the scan above is never slept through.
        let mut idle = shared.idle.lock().expect("idle lock");
        if idle.epoch != epoch || shared.shutdown.load(Ordering::Acquire) {
            continue;
        }
        let wait = shared
            .next_timer()
            .map(|at| at.saturating_duration_since(Instant::now()))
            .unwrap_or(MAX_PARK)
            .min(MAX_PARK);
        idle.parked += 1;
        shared.obs.parks.inc();
        let (mut idle, _) = shared.idle_cv.wait_timeout(idle, wait).expect("idle lock");
        idle.parked -= 1;
    }
}

/// Finds the next runnable actor: own deque (newest), then the injector,
/// then randomized stealing of the oldest work from other workers.
fn find_task(shared: &PoolShared, me: usize, rng: &mut XorShift) -> Option<Arc<Actor>> {
    if let Some(actor) = shared.locals[me].lock().expect("deque lock").pop_back() {
        return Some(actor);
    }
    if let Some(actor) = shared.injector.lock().expect("injector lock").pop_front() {
        return Some(actor);
    }
    let n = shared.locals.len();
    if n > 1 {
        for _ in 0..2 * n {
            let victim = (rng.next() as usize) % n;
            if victim == me {
                continue;
            }
            if let Some(actor) = shared.locals[victim]
                .lock()
                .expect("deque lock")
                .pop_front()
            {
                shared.obs.steals.inc();
                return Some(actor);
            }
        }
    }
    None
}

/// Runs one actor slice: drain up to [`RUN_SLICE`] messages, then hand the
/// actor back to the scheduler in the appropriate state.
fn run_actor(shared: &Arc<PoolShared>, me: usize, actor: Arc<Actor>) {
    {
        let mut mb = actor.mb.lock().expect("mailbox lock");
        if mb.closed {
            // A stale deque or timer entry for a retired actor.
            mb.state = RunState::Idle;
            return;
        }
        debug_assert_eq!(mb.state, RunState::Scheduled);
        mb.state = RunState::Running;
    }
    let Some(mut worker) = actor.worker.lock().expect("worker slot").take() else {
        actor.mb.lock().expect("mailbox lock").state = RunState::Idle;
        return;
    };
    shared.obs.polls.inc();
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(ActorCtx {
            actor: Arc::clone(&actor),
            blocked: Vec::new(),
            me,
        });
    });
    let mut stopped = false;
    let mut processed = 0usize;
    let mut asleep = None;
    loop {
        // Timer-heap-driven linger: flush expired micro-batches before
        // draining further input, so a parked batch is never starved by a
        // steady arrival stream (mirrors `Worker::run`'s post-message
        // flush under the `Threads` scheduler).
        worker.flush_expired();
        let blocked = CURRENT.with(|c| c.borrow().as_ref().is_some_and(|x| !x.blocked.is_empty()));
        if blocked {
            break;
        }
        // Charged service time: the instance is busy until `resume_at`,
        // so give the pool thread back and sleep on the timer heap.
        if let Some(at) = worker.resume_at {
            if at > Instant::now() {
                asleep = Some(at);
                break;
            }
            worker.resume_at = None;
        }
        let (msg, waiters, disconnected) = actor.pop();
        if !waiters.is_empty() {
            shared.resume(waiters, Some(me));
        }
        match msg {
            None => {
                if disconnected {
                    // All senders dropped: a dedicated thread would see
                    // channel disconnect here — flush and exit.
                    worker.flush_or_discard();
                    stopped = true;
                }
                break;
            }
            Some(msg) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.step(msg))) {
                    Ok(true) => {
                        stopped = true;
                        break;
                    }
                    Ok(false) => {
                        processed += 1;
                        if processed >= RUN_SLICE {
                            break;
                        }
                    }
                    Err(payload) => {
                        // The actor dies the way a panicking dedicated
                        // thread would: report the caught panic, drop the
                        // worker (its `OutEdge`s repay parked batches on
                        // drop), and retire the mailbox so producers see
                        // disconnect instead of a wedged queue — the pool
                        // worker itself survives to run other actors.
                        let probe = worker.panic_probe();
                        CURRENT.with(|c| {
                            c.borrow_mut().take();
                        });
                        drop(worker);
                        probe.report(payload.as_ref());
                        retire(shared, &actor, Some(me));
                        return;
                    }
                }
            }
        }
    }
    let ctx = CURRENT
        .with(|c| c.borrow_mut().take())
        .expect("actor ctx set for the slice");
    if stopped {
        drop(worker);
        retire(shared, &actor, Some(me));
        return;
    }
    // Pending micro-batches flush through the shared timer heap. The
    // worker goes back before any state transition so whichever pool
    // thread runs the actor next finds it in place.
    let deadline = worker.earliest_deadline();
    *actor.worker.lock().expect("worker slot") = Some(worker);
    if !ctx.blocked.is_empty() {
        // No timer while suspended: the resumed slice flushes expired
        // batches first thing (or goes to sleep if service time is still
        // owed), and `fire_due_timers` drops entries for suspended actors.
        suspend(shared, me, actor, ctx.blocked);
        return;
    }
    if let Some(at) = asleep {
        // The wake-up timer also covers pending linger deadlines: the
        // woken slice flushes expired batches first thing. As with linger
        // timers, register only once the state is observable.
        actor.mb.lock().expect("mailbox lock").state = RunState::Sleeping(at);
        shared.register_timer(at, actor);
        return;
    }
    let schedule = {
        let mut mb = actor.mb.lock().expect("mailbox lock");
        if mb.queue.is_empty() && !mb.disconnected {
            mb.state = RunState::Idle;
            false
        } else {
            // More input arrived during the slice, or the disconnect
            // drain still has to observe the empty queue.
            mb.state = RunState::Scheduled;
            true
        }
    };
    if schedule {
        // The next slice's top-of-loop `flush_expired` honours the
        // deadline; no timer entry needed.
        shared.schedule(actor, Some(me));
    } else if let Some(at) = deadline {
        // Register only after the actor is observably Idle: the fire path
        // drops entries for non-Idle actors, so registering while still
        // Running races a concurrent `fire_due_timers` into losing the
        // only wakeup for a parked micro-batch. A push that schedules the
        // actor between the transition and this registration merely makes
        // the entry stale — firing on a busy (or re-idled and re-armed)
        // actor is harmless.
        shared.register_timer(at, Arc::clone(&actor));
    }
}

/// Suspends `actor` on its over-full destinations (credit wait).
fn suspend(shared: &Arc<PoolShared>, me: usize, actor: Arc<Actor>, blocked: Vec<Arc<Actor>>) {
    actor.mb.lock().expect("mailbox lock").state = RunState::Suspended;
    let mut registered = 0usize;
    for dest in blocked {
        let mut dm = dest.mb.lock().expect("mailbox lock");
        // Re-check under the destination's lock: a drained (or retired)
        // destination owes no credit. A still-full one holds our
        // registration until a pop drains it to its low-water mark — the same
        // lock serialises that pop against this check, so the wakeup
        // cannot be missed.
        if !dm.closed && dm.queue.len() >= dest.cap {
            dm.waiters.push(Arc::clone(&actor));
            registered += 1;
        }
    }
    if registered == 0 {
        // Every destination drained while the slice was finishing.
        let schedule = {
            let mut mb = actor.mb.lock().expect("mailbox lock");
            if mb.state == RunState::Suspended {
                mb.state = RunState::Scheduled;
                true
            } else {
                false
            }
        };
        if schedule {
            shared.schedule(actor, Some(me));
        }
    } else {
        shared.obs.suspends.inc();
    }
}

/// Retires an actor: marks the mailbox closed, drops whatever is still
/// queued (as a dedicated thread drops its channel on exit), releases
/// blocked senders and suspended producers, and signals `join`.
fn retire(shared: &Arc<PoolShared>, actor: &Arc<Actor>, me: Option<usize>) {
    let waiters = {
        let mut mb = actor.mb.lock().expect("mailbox lock");
        mb.closed = true;
        mb.state = RunState::Idle;
        mb.queue.clear();
        std::mem::take(&mut mb.waiters)
    };
    actor.not_full.notify_all();
    shared.resume(waiters, me);
    shared.retire_one();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_obs() -> Arc<SchedInstruments> {
        Arc::new(SchedInstruments::default())
    }

    /// A bare actor shell for mailbox-protocol tests (no worker).
    fn shell(cap: usize) -> (Arc<PoolShared>, Arc<Actor>) {
        let shared = Arc::new(PoolShared {
            injector: Mutex::new(VecDeque::new()),
            locals: vec![Mutex::new(VecDeque::new())],
            idle: Mutex::new(IdleState {
                epoch: 0,
                parked: 0,
            }),
            idle_cv: Condvar::new(),
            timers: Mutex::new(TimerHeap {
                heap: BinaryHeap::new(),
                seq: 0,
            }),
            live: Mutex::new(1),
            done: Condvar::new(),
            shutdown: AtomicBool::new(false),
            obs: test_obs(),
        });
        let actor = Arc::new(Actor {
            mb: Mutex::new(MailboxInner {
                queue: VecDeque::new(),
                state: RunState::Idle,
                senders: 1,
                closed: false,
                disconnected: false,
                waiters: Vec::new(),
                blocked: 0,
            }),
            not_full: Condvar::new(),
            cap,
            worker: Mutex::new(None),
            shared: Arc::clone(&shared),
        });
        (shared, actor)
    }

    fn marker(corr: u64) -> WorkerMsg {
        WorkerMsg::Item(crate::item::Item {
            edge: sdg_common::ids::EdgeId(1),
            src_replica: 0,
            ts: corr + 1,
            corr,
            expect: 1,
            payload: Arc::new(sdg_common::value::Record::with_capacity(0)),
            submitted_at: None,
        })
    }

    #[test]
    fn mailbox_preserves_fifo_order() {
        let (_shared, actor) = shell(16);
        for i in 0..5u64 {
            actor.push(marker(i), true).unwrap();
        }
        for i in 0..5u64 {
            let (msg, _, _) = actor.pop();
            match msg {
                Some(WorkerMsg::Item(item)) => assert_eq!(item.corr, i),
                other => panic!("expected item, got {other:?}"),
            }
        }
        let (none, _, _) = actor.pop();
        assert!(none.is_none());
    }

    #[test]
    fn push_schedules_an_idle_actor_exactly_once() {
        let (shared, actor) = shell(16);
        actor.push(WorkerMsg::Stop, true).unwrap();
        actor.push(WorkerMsg::Stop, true).unwrap();
        // One injection for two pushes: the second saw `Scheduled`.
        assert_eq!(shared.injector.lock().unwrap().len(), 1);
        assert_eq!(actor.mb.lock().unwrap().state, RunState::Scheduled);
        assert_eq!(shared.idle.lock().unwrap().epoch, 1);
    }

    #[test]
    fn closed_mailbox_rejects_sends_like_a_disconnected_channel() {
        let (shared, actor) = shell(16);
        retire(&shared, &actor, None);
        assert_eq!(actor.push(WorkerMsg::Stop, false), Err(SendClosed));
        assert_eq!(actor.push(WorkerMsg::Stop, true), Err(SendClosed));
        assert_eq!(*shared.live.lock().unwrap(), 0);
    }

    #[test]
    fn pop_crossing_capacity_returns_waiters_once() {
        let (shared, actor) = shell(2);
        let (_, producer) = shell(2);
        producer.mb.lock().unwrap().state = RunState::Suspended;
        for _ in 0..3 {
            actor.push(WorkerMsg::Stop, true).unwrap();
        }
        actor.mb.lock().unwrap().waiters.push(Arc::clone(&producer));
        // len 3 → 2: still at capacity, no credit yet.
        let (_, waiters, _) = actor.pop();
        assert!(waiters.is_empty());
        // len 2 → 1: drained to the low-water mark, credit handed out.
        let (_, waiters, _) = actor.pop();
        assert_eq!(waiters.len(), 1);
        shared.resume(waiters, None);
        assert_eq!(producer.mb.lock().unwrap().state, RunState::Scheduled);
        assert_eq!(shared.obs.resumes.get(), 1);
        // Subsequent pops find no stale registrations.
        let (_, waiters, _) = actor.pop();
        assert!(waiters.is_empty());
    }

    #[test]
    fn credit_returns_a_sixteenth_below_capacity() {
        let (_, actor) = shell(32);
        let (_, producer) = shell(2);
        for _ in 0..32 {
            actor.push(WorkerMsg::Stop, true).unwrap();
        }
        actor.mb.lock().unwrap().waiters.push(producer);
        // 32 → 31: one free slot is not yet worth a wake-up.
        assert!(actor.pop().1.is_empty());
        // 31 → 30: two slots (32 / 16) free, credit handed out.
        assert_eq!(actor.pop().1.len(), 1);
    }

    #[test]
    fn resume_skips_actors_already_rescheduled() {
        let (shared, actor) = shell(2);
        let (_, producer) = shell(2);
        producer.mb.lock().unwrap().state = RunState::Scheduled;
        shared.resume(vec![Arc::clone(&producer)], None);
        assert_eq!(shared.obs.resumes.get(), 0);
        assert_eq!(producer.mb.lock().unwrap().state, RunState::Scheduled);
        drop(actor);
    }

    #[test]
    fn last_sender_drop_disconnects_and_schedules_the_drain() {
        let (shared, actor) = shell(4);
        let tx = PoolSender {
            actor: Arc::clone(&actor),
        };
        let tx2 = tx.clone();
        drop(tx);
        assert!(!actor.mb.lock().unwrap().disconnected);
        drop(tx2);
        let mb = actor.mb.lock().unwrap();
        assert!(mb.disconnected);
        assert_eq!(mb.state, RunState::Scheduled);
        drop(mb);
        assert_eq!(shared.injector.lock().unwrap().len(), 1);
    }

    #[test]
    fn timer_heap_fires_in_deadline_order() {
        let (shared, a) = shell(4);
        let (_, b) = shell(4);
        let now = Instant::now();
        shared.register_timer(now + Duration::from_millis(200), Arc::clone(&b));
        shared.register_timer(now, Arc::clone(&a));
        // Only `a` is due; it is idle, so firing schedules it.
        let fired = shared.fire_due_timers(0, now);
        assert_eq!(fired, 1);
        assert_eq!(a.mb.lock().unwrap().state, RunState::Scheduled);
        assert_eq!(b.mb.lock().unwrap().state, RunState::Idle);
        assert_eq!(shared.next_timer(), Some(now + Duration::from_millis(200)));
        assert_eq!(shared.obs.timer_fires.get(), 1);
    }

    #[test]
    fn due_timer_skips_non_idle_actors() {
        let (shared, a) = shell(4);
        a.mb.lock().unwrap().state = RunState::Suspended;
        shared.register_timer(Instant::now(), Arc::clone(&a));
        assert_eq!(shared.fire_due_timers(0, Instant::now()), 0);
        assert_eq!(a.mb.lock().unwrap().state, RunState::Suspended);
    }

    #[test]
    fn sleeping_actor_runs_only_when_its_timer_is_due() {
        let (shared, a) = shell(4);
        let wake = Instant::now() + Duration::from_millis(5);
        a.mb.lock().unwrap().state = RunState::Sleeping(wake);
        shared.register_timer(wake, Arc::clone(&a));
        // A push queues behind the service time without scheduling.
        a.push(marker(1), false).unwrap();
        assert_eq!(a.mb.lock().unwrap().queue.len(), 1);
        assert!(shared.injector.lock().unwrap().is_empty());
        assert!(shared.locals[0].lock().unwrap().is_empty());
        // A stale linger entry due now must not cut the sleep short.
        shared.register_timer(wake - Duration::from_millis(4), Arc::clone(&a));
        assert_eq!(
            shared.fire_due_timers(0, wake - Duration::from_millis(1)),
            0
        );
        assert_eq!(a.mb.lock().unwrap().state, RunState::Sleeping(wake));
        assert_eq!(shared.next_timer(), Some(wake));
        // At the deadline the timer makes it runnable, on the local deque.
        assert_eq!(shared.fire_due_timers(0, wake), 1);
        assert_eq!(a.mb.lock().unwrap().state, RunState::Scheduled);
        assert_eq!(shared.locals[0].lock().unwrap().len(), 1);
        assert_eq!(shared.next_timer(), None);
    }

    #[test]
    fn timer_entries_order_by_deadline_then_seq() {
        let (_, a) = shell(1);
        let t = Instant::now();
        let early = TimerEntry {
            at: t,
            seq: 2,
            actor: Arc::clone(&a),
        };
        let late = TimerEntry {
            at: t + Duration::from_millis(1),
            seq: 1,
            actor: Arc::clone(&a),
        };
        let tie = TimerEntry {
            at: t,
            seq: 3,
            actor: Arc::clone(&a),
        };
        let twin = TimerEntry {
            at: t,
            seq: 2,
            actor: a,
        };
        assert!(early < late);
        assert!(early < tie);
        assert!(early == twin);
    }

    #[test]
    fn xorshift_is_deterministic_and_covers_victims() {
        let mut a = XorShift::new(3);
        let mut b = XorShift::new(3);
        let mut seen = [false; 4];
        for _ in 0..64 {
            let v = a.next();
            assert_eq!(v, b.next());
            seen[(v % 4) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all victims probed: {seen:?}");
    }

    #[test]
    fn schedule_prefers_the_local_deque() {
        let (shared, actor) = shell(4);
        shared.schedule(Arc::clone(&actor), Some(0));
        assert_eq!(shared.locals[0].lock().unwrap().len(), 1);
        assert!(shared.injector.lock().unwrap().is_empty());
        // Epoch untouched: local pushes are consumed by their own worker.
        assert_eq!(shared.idle.lock().unwrap().epoch, 0);
    }
}
