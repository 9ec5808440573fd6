//! The load generator: one submitter (the calling thread) and one output
//! drainer thread.
//!
//! A phase has two parts. The saturated part submits as fast as `submit`
//! backpressure allows. The open-loop part submits on a fixed schedule and
//! times every reply from the request's *due* time, so a stalled
//! generator charges its delay to the requests it held back.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdg_common::error::SdgResult;
use sdg_common::value::Value;
use sdg_runtime::deploy::Deployment;

use crate::stats::{lateness_ns, Schedule};

/// The run's time base: every timestamp is ns since `start`.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
}

impl Clock {
    /// A clock starting now.
    pub fn new() -> Self {
        Clock {
            start: Instant::now(),
        }
    }

    /// What one [`Clock::now_ns`] costs, in ns, averaged over many calls.
    pub fn read_cost_ns(&self) -> f64 {
        const CALLS: u32 = 100_000;
        let t0 = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(self.now_ns());
        }
        t0.elapsed().as_nanos() as f64 / f64::from(CALLS)
    }

    /// Nanoseconds since the clock started.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Sleeps until `due_ns`. A sleep overshoots by tens of microseconds,
    /// so at high rates the requests that fell due meanwhile go out
    /// together; their lateness is recorded and charged to their latency.
    /// Spinning instead would take one of the host's cores from the
    /// runtime.
    pub fn wait_until(&self, due_ns: u64) {
        let now = self.now_ns();
        if now < due_ns {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

/// A request that expects a reply: its correlation id, the time its
/// latency counts from and a workload tag (the key read, the user asked
/// about).
#[derive(Debug, Clone, Copy)]
pub struct Ask {
    /// Correlation id returned by `submit`.
    pub corr: u64,
    /// ns timestamp latency counts from: the due time in the open-loop
    /// part, 0 in the saturated part (which times no replies).
    pub t_ns: u64,
    /// Workload-defined tag.
    pub tag: i64,
}

/// One output the drainer received.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Correlation id.
    pub corr: u64,
    /// Receipt time, ns.
    pub recv_ns: u64,
    /// The value, when the drainer was asked to keep values.
    pub value: Option<Value>,
    /// The value failed the workload's shape check.
    pub malformed: bool,
    /// The runtime marked the output as a replayed duplicate (no
    /// client-visible latency): re-emitted by recovery's upstream replay.
    pub replayed: bool,
}

/// The drainer thread and its switches.
pub struct Drainer {
    stop: Arc<AtomicBool>,
    keep: Arc<AtomicBool>,
    handle: JoinHandle<Vec<Reply>>,
}

impl Drainer {
    /// Starts draining `dep`'s outputs. `well_formed` checks each value's
    /// shape; values are kept only while [`Drainer::keep_values`] is on.
    pub fn start(
        dep: Arc<Deployment>,
        clock: Clock,
        keep_values: bool,
        well_formed: fn(&Value) -> bool,
    ) -> Drainer {
        let stop = Arc::new(AtomicBool::new(false));
        let keep = Arc::new(AtomicBool::new(keep_values));
        let (stop2, keep2) = (Arc::clone(&stop), Arc::clone(&keep));
        let handle = std::thread::spawn(move || {
            let mut out = Vec::new();
            loop {
                match dep.outputs().recv_timeout(Duration::from_millis(5)) {
                    Ok(ev) => {
                        let recv_ns = clock.now_ns();
                        let malformed = !well_formed(&ev.value);
                        let value = keep2.load(Ordering::Acquire).then_some(ev.value);
                        out.push(Reply {
                            corr: ev.corr,
                            recv_ns,
                            value,
                            malformed,
                            replayed: ev.latency.is_none(),
                        });
                    }
                    Err(_) if stop2.load(Ordering::Acquire) => return out,
                    Err(_) => {}
                }
            }
        });
        Drainer { stop, keep, handle }
    }

    /// Turns value keeping on or off for outputs received from now on.
    pub fn keep_values(&self, on: bool) {
        self.keep.store(on, Ordering::Release);
    }

    /// Stops the drainer once the sink has been idle for a moment and
    /// returns every reply it received.
    pub fn finish(self) -> Vec<Reply> {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("drainer thread panicked")
    }
}

/// What one part of a phase did on the client side.
#[derive(Debug, Default)]
pub struct PartStats {
    /// Requests submitted successfully.
    pub submitted: u64,
    /// `submit` calls that returned an error.
    pub errors: u64,
    /// Requests expecting a reply.
    pub asks: Vec<Ask>,
    /// First submit to the end of the part (ns).
    pub window_ns: u64,
    /// Time inside `submit` (ns); traced runs only.
    pub busy_ns: u64,
    /// Per-call `submit` durations (ns); recorded only when traced.
    pub submit_ns: Vec<u64>,
    /// Per-request lateness against the schedule (open-loop part only).
    pub late_ns: Vec<u64>,
}

/// How one request is sent: returns the correlation id and, when the
/// request expects a reply, its tag.
pub type SubmitFn<'a, R> = &'a dyn Fn(&Deployment, &R) -> (SdgResult<u64>, Option<i64>);

/// Submits `reqs` as fast as backpressure allows. The window ends when
/// the caller's `drain` (a quiesce) returns; `drain` reports success.
pub fn saturated<R>(
    dep: &Deployment,
    clock: &Clock,
    reqs: &[R],
    submit: SubmitFn<'_, R>,
    traced: bool,
    drain: impl FnOnce() -> bool,
) -> (PartStats, bool) {
    let mut st = PartStats::default();
    let t0 = clock.now_ns();
    for r in reqs {
        let s0 = if traced { clock.now_ns() } else { 0 };
        let (res, tag) = submit(dep, r);
        if traced {
            st.busy_ns += clock.now_ns() - s0;
        }
        record(&mut st, res, tag, 0);
    }
    let ok = drain();
    st.window_ns = clock.now_ns() - t0;
    (st, ok)
}

/// Submits `reqs` on `schedule`, starting a millisecond from now. Latency
/// of a request counts from its due time.
pub fn open_loop<R>(
    dep: &Deployment,
    clock: &Clock,
    reqs: &[R],
    schedule: Schedule,
    submit: SubmitFn<'_, R>,
    traced: bool,
) -> PartStats {
    let mut st = PartStats {
        late_ns: Vec::with_capacity(reqs.len()),
        ..PartStats::default()
    };
    let start_ns = clock.now_ns() + 1_000_000;
    for (i, r) in reqs.iter().enumerate() {
        let due = start_ns + schedule.due_ns(i as u64);
        clock.wait_until(due);
        let sent = clock.now_ns();
        st.late_ns.push(lateness_ns(due, sent));
        let (res, tag) = submit(dep, r);
        if traced {
            let d = clock.now_ns() - sent;
            st.busy_ns += d;
            st.submit_ns.push(d);
        }
        record(&mut st, res, tag, due);
    }
    st.window_ns = clock.now_ns() - start_ns;
    st
}

fn record(st: &mut PartStats, res: SdgResult<u64>, tag: Option<i64>, t_ns: u64) {
    match res {
        Ok(corr) => {
            st.submitted += 1;
            if let Some(tag) = tag {
                st.asks.push(Ask { corr, t_ns, tag });
            }
        }
        Err(_) => st.errors += 1,
    }
}
