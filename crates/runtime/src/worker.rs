//! TE instance workers: the pipelined processing loops.
//!
//! Each TE instance is one serial consumer of a bounded mailbox: a
//! dedicated worker thread under the `Threads` scheduler, or a cooperative
//! actor multiplexed onto a fixed worker pool under `Pool` (see
//! [`crate::sched`]). Producers dispatch directly into consumer mailboxes
//! (no central scheduler), so a full mailbox applies backpressure
//! upstream — this is the paper's fully pipelined execution (§3.1).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use sdg_checkpoint::buffer::{BufferedItem, OutputBuffer};
use sdg_checkpoint::cell::StateCell;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{EdgeId, TaskId};
use sdg_common::metrics::Histogram;
use sdg_common::obs::TaskInstruments;
use sdg_common::time::TsGen;
use sdg_common::value::{Record, Value};
use sdg_graph::model::{Dispatch, NativeTask, TaskCode, TaskContext};
use sdg_ir::te_compiled::CompiledTe;

use crate::compile::{run_compiled, Scratch};
use crate::config::{BatchConfig, ExecEngine};
use crate::fault::{FailureHub, FaultAction, FaultTrigger, PanicProbe};
use crate::interp::{run_te, Effects};
use crate::item::{lane, Item};

/// Messages delivered to a worker.
#[derive(Debug)]
pub enum WorkerMsg {
    /// A data item to process.
    Item(Item),
    /// A micro-batch of items, processed in order. One channel message —
    /// producers coalesce per destination to amortise channel signalling
    /// (see [`crate::config::BatchConfig`]).
    Batch(Vec<Item>),
    /// Graceful stop.
    Stop,
}

/// The shared list of consumer-instance senders for one task.
pub type Targets = Arc<RwLock<Vec<MailboxSender>>>;

/// Error returned by [`MailboxSender::send`]: the consumer is gone (its
/// thread exited, or its actor retired), matching a disconnected channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendClosed;

/// One consumer endpoint: where producers hand a [`WorkerMsg`] to a TE
/// instance.
///
/// Under the `Threads` scheduler this is the bounded crossbeam channel of
/// a dedicated worker thread; under `Pool` it is the serial mailbox of a
/// pool-scheduled actor. Either way a full destination applies
/// backpressure — channel sends block the producer thread, mailbox sends
/// suspend the producer actor cooperatively (see [`crate::sched`]).
#[derive(Clone)]
pub enum MailboxSender {
    /// Bounded channel of a dedicated worker thread (`Threads`).
    Thread(Sender<WorkerMsg>),
    /// Serial actor mailbox scheduled on the worker pool (`Pool`).
    Pool(crate::sched::PoolSender),
}

impl MailboxSender {
    /// Delivers `msg`, applying backpressure when the destination is full.
    pub fn send(&self, msg: WorkerMsg) -> Result<(), SendClosed> {
        match self {
            MailboxSender::Thread(tx) => tx.send(msg).map_err(|_| SendClosed),
            MailboxSender::Pool(tx) => tx.send(msg),
        }
    }

    /// Delivers `msg` without ever waiting for mailbox space.
    ///
    /// Recovery replays into freshly spawned instances — and retires scale
    /// victims — while holding the target-list write guards; waiting for
    /// space there could stall every pool worker behind the same guards
    /// and deadlock, so those paths overfill the mailbox instead. A
    /// `Threads` channel keeps its normal send: the dedicated consumer
    /// thread drains independently of the guards.
    pub fn force_send(&self, msg: WorkerMsg) -> Result<(), SendClosed> {
        match self {
            MailboxSender::Thread(tx) => tx.send(msg).map_err(|_| SendClosed),
            MailboxSender::Pool(tx) => tx.force_send(msg),
        }
    }

    /// Messages queued at the destination (join-shortest-queue dispatch,
    /// drain barriers, queue-depth gauges).
    pub fn len(&self) -> usize {
        match self {
            MailboxSender::Thread(tx) => tx.len(),
            MailboxSender::Pool(tx) => tx.len(),
        }
    }

    /// Whether the destination queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a stalled heartbeat epoch can mean a *hung* instance here.
    ///
    /// A dedicated thread owns its loop, so a stalled epoch with queued
    /// input is always suspicious. A pool actor's epoch also stalls while
    /// it is parked `Idle`/`Scheduled` behind busy pool workers or
    /// `Suspended` awaiting send credit — only `Running` means it holds a
    /// pool thread and should be making progress.
    pub(crate) fn hang_candidate(&self) -> bool {
        match self {
            MailboxSender::Thread(_) => true,
            MailboxSender::Pool(tx) => tx.is_running(),
        }
    }
}

/// Key of one upstream output buffer: `(edge, producer replica, consumer
/// replica)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferKey {
    /// Dataflow edge (or ingest lane edge).
    pub edge: EdgeId,
    /// Producer replica.
    pub src: u32,
    /// Consumer replica the item was sent to.
    pub dst: u32,
}

/// A shared handle to one upstream output buffer.
type BufferHandle = Arc<Mutex<OutputBuffer>>;

/// Both registry maps live under one lock so they can never disagree.
#[derive(Debug, Default)]
struct RegistryMaps {
    by_key: HashMap<BufferKey, BufferHandle>,
    /// Secondary index: the buffers feeding each `(edge, consumer replica)`,
    /// as `(src, buffer)` pairs in creation order. Keeps the recovery and
    /// trim paths O(producers of one consumer) instead of a linear scan
    /// over every buffer in the deployment.
    by_consumer: HashMap<(EdgeId, u32), Vec<(u32, BufferHandle)>>,
}

/// Registry of all upstream output buffers in a deployment.
#[derive(Debug, Default)]
pub struct BufferRegistry {
    maps: Mutex<RegistryMaps>,
    /// Aggregate bytes across all buffers, maintained incrementally by the
    /// buffers themselves (see [`OutputBuffer::with_shared`]): the
    /// backpressure gauge reads one atomic instead of locking every buffer.
    bytes: Arc<AtomicUsize>,
    /// Maximum items kept per buffer for consumers that never checkpoint
    /// (stateless tasks); bounds the upstream-backup horizon.
    pub stateless_cap: usize,
}

impl BufferRegistry {
    /// Creates a registry with the given stateless-consumer cap.
    pub fn new(stateless_cap: usize) -> Self {
        BufferRegistry {
            maps: Mutex::new(RegistryMaps::default()),
            bytes: Arc::new(AtomicUsize::new(0)),
            stateless_cap,
        }
    }

    /// Returns (creating on demand) the buffer for `key`.
    pub fn get(&self, key: BufferKey) -> Arc<Mutex<OutputBuffer>> {
        let mut maps = self.maps.lock();
        if let Some(buf) = maps.by_key.get(&key) {
            return Arc::clone(buf);
        }
        let buf = Arc::new(Mutex::new(OutputBuffer::with_shared(Arc::clone(
            &self.bytes,
        ))));
        maps.by_key.insert(key, Arc::clone(&buf));
        maps.by_consumer
            .entry((key.edge, key.dst))
            .or_default()
            .push((key.src, Arc::clone(&buf)));
        buf
    }

    /// Returns all buffers feeding consumer replica `dst` on `edge`.
    pub fn buffers_into(&self, edge: EdgeId, dst: u32) -> Vec<(u32, Arc<Mutex<OutputBuffer>>)> {
        self.maps
            .lock()
            .by_consumer
            .get(&(edge, dst))
            .cloned()
            .unwrap_or_default()
    }

    /// Trims the buffer feeding `(edge, src → dst)` below `watermark`.
    pub fn trim(&self, key: BufferKey, watermark: u64) {
        let buf = self.maps.lock().by_key.get(&key).cloned();
        if let Some(buf) = buf {
            buf.lock().trim(watermark);
        }
    }

    /// Total buffered bytes across all buffers. O(1): the buffers mirror
    /// every accounting change into one shared atomic, so the periodic
    /// gauge refresh never contends on per-buffer locks.
    pub fn total_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// One outgoing edge of a worker, with its dispatch machinery.
///
/// When micro-batching is on (`batch.max_items > 1`), items are assigned
/// their timestamp at enqueue time and parked in a per-destination pending
/// list; a destination's batch flushes as one channel message and one
/// output-buffer lock when it reaches `max_items`, when the linger timer
/// expires (driven by the owning worker's loop), or at shutdown. Pending
/// items are counted in the deployment's `in_flight` gauge so drain
/// barriers ([`crate::Deployment::quiesce`]) observe them.
pub struct OutEdge {
    /// Edge id.
    pub edge: EdgeId,
    /// Dispatch semantics.
    pub dispatch: Dispatch,
    /// Live variables to project onto the edge.
    pub live_vars: Vec<String>,
    /// Consumer instance senders (shared; scaling mutates it).
    pub targets: Targets,
    /// Timestamp generator per `(this producer instance, edge)`.
    pub ts: TsGen,
    /// Round-robin cursor for one-to-any dispatch.
    pub rr: usize,
    /// Buffer registry for upstream backup.
    pub buffers: Arc<BufferRegistry>,
    /// Whether to record items in output buffers (fault tolerance on).
    pub buffered: bool,
    /// Deferred encoding: log sent items as refcounted `Live` payloads
    /// (wire encode happens at checkpoint-persist time). `false` is the
    /// eager baseline that serialises on the dispatch path.
    pub defer_encode: bool,
    /// Micro-batching knobs (`max_items = 1` sends eagerly).
    batch: BatchConfig,
    /// Pending (unsent) items per destination replica.
    pending: Vec<Vec<Item>>,
    /// Enqueue time of the oldest pending item since the last full flush.
    pending_since: Option<Instant>,
    /// Deployment-wide in-flight gauge; pending items are counted here.
    in_flight: Arc<AtomicU64>,
    /// Reused encode buffer for output-buffer appends.
    enc_scratch: BytesMut,
    /// Cached buffer handles per destination (the registry hands out one
    /// `Arc` per key for the deployment's lifetime, so caching is safe and
    /// removes the registry lock from the steady-state send path).
    buf_cache: Vec<Option<Arc<Mutex<OutputBuffer>>>>,
    /// Cached projection: positions of `live_vars` within the last payload
    /// shape seen, revalidated per item by name.
    proj_idx: Option<Vec<usize>>,
}

impl OutEdge {
    /// Builds an edge dispatcher.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        edge: EdgeId,
        dispatch: Dispatch,
        live_vars: Vec<String>,
        targets: Targets,
        ts: TsGen,
        rr: usize,
        buffers: Arc<BufferRegistry>,
        buffered: bool,
        defer_encode: bool,
        batch: BatchConfig,
        in_flight: Arc<AtomicU64>,
    ) -> Self {
        OutEdge {
            edge,
            dispatch,
            live_vars,
            targets,
            ts,
            rr,
            buffers,
            buffered,
            defer_encode,
            batch,
            pending: Vec::new(),
            pending_since: None,
            in_flight,
            enc_scratch: BytesMut::new(),
            buf_cache: Vec::new(),
            proj_idx: None,
        }
    }

    /// Projects `payload` onto the edge's live set.
    ///
    /// Fast paths: an empty live set forwards everything, and a payload
    /// whose fields already equal the live set (the common case for
    /// compiled TEs, which build outputs from the sorted live-variable
    /// list) is *shared* — a refcount bump, no per-field work at all.
    /// Otherwise a narrowed record is built copy-on-write: field positions
    /// are cached from the previous item and revalidated by name, falling
    /// back to a scanning projection when the shape changed or a live
    /// variable is absent.
    fn project(&mut self, payload: &Arc<Record>) -> Arc<Record> {
        if self.live_vars.is_empty() || payload.fields_match(&self.live_vars) {
            return Arc::clone(payload);
        }
        if let Some(idx) = &self.proj_idx {
            if idx.len() == self.live_vars.len() {
                let mut out = Record::with_capacity(idx.len());
                let mut valid = true;
                for (want, &pos) in self.live_vars.iter().zip(idx) {
                    match payload.at(pos) {
                        Some((name, value)) if name == want.as_str() => {
                            out.push_unchecked(name, value.clone());
                        }
                        _ => {
                            valid = false;
                            break;
                        }
                    }
                }
                if valid {
                    return Arc::new(out);
                }
            }
        }
        let mut idx = Vec::with_capacity(self.live_vars.len());
        for name in &self.live_vars {
            match payload.position(name) {
                Some(pos) => idx.push(pos),
                None => {
                    // A live variable is absent (e.g. gather fragments):
                    // don't cache partial shapes.
                    self.proj_idx = None;
                    return Arc::new(payload.project(&self.live_vars));
                }
            }
        }
        let mut out = Record::with_capacity(idx.len());
        for &pos in &idx {
            let (name, value) = payload
                .at(pos)
                .expect("position() returned in-bounds index");
            out.push_unchecked(name, value.clone());
        }
        self.proj_idx = Some(idx);
        Arc::new(out)
    }

    /// Dispatches `payload` according to the edge semantics.
    pub fn send(
        &mut self,
        src_replica: u32,
        payload: &Arc<Record>,
        corr: u64,
        upstream_expect: u32,
        submitted_at: Option<Instant>,
    ) -> SdgResult<()> {
        let projected = self.project(payload);
        let targets_arc = Arc::clone(&self.targets);
        let targets = targets_arc.read();
        let n = targets.len();
        if n == 0 {
            return Err(SdgError::Runtime(format!(
                "edge {} has no consumer instances",
                self.edge
            )));
        }
        match &self.dispatch {
            Dispatch::Partitioned { key } => {
                let key_value = projected.require(key)?.to_key()?;
                let idx = (key_value.stable_hash() % n as u64) as usize;
                self.send_one(&targets, idx, src_replica, projected, corr, 1, submitted_at)
            }
            Dispatch::OneToAny => {
                // Join-shortest-queue: slow (straggler) instances naturally
                // receive less work; ties fall back to round-robin.
                let start = self.rr % n;
                self.rr = self.rr.wrapping_add(1);
                let mut idx = start;
                let mut best = usize::MAX;
                for off in 0..n {
                    let candidate = (start + off) % n;
                    let depth = targets[candidate].len();
                    if depth < best {
                        best = depth;
                        idx = candidate;
                    }
                    if depth == 0 {
                        break;
                    }
                }
                self.send_one(&targets, idx, src_replica, projected, corr, 1, submitted_at)
            }
            Dispatch::AllToOne { .. } => {
                // The gather consumer is a single instance. The fragment
                // count equals the fan-out of the broadcast that fed this
                // producer, which travelled on the input item.
                self.send_one(
                    &targets,
                    0,
                    src_replica,
                    projected,
                    corr,
                    upstream_expect,
                    submitted_at,
                )
            }
            Dispatch::OneToAll => {
                let ts = self.ts.tick();
                let expect = n as u32;
                for idx in 0..n {
                    // Broadcast shares one allocation: every destination's
                    // item (and its output-buffer log entry) is a refcount
                    // bump on the same record.
                    let item = Item {
                        edge: self.edge,
                        src_replica,
                        ts,
                        corr,
                        expect,
                        payload: Arc::clone(&projected),
                        submitted_at,
                    };
                    self.enqueue(&targets, idx, item)?;
                }
                Ok(())
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_one(
        &mut self,
        targets: &[MailboxSender],
        idx: usize,
        src_replica: u32,
        payload: Arc<Record>,
        corr: u64,
        expect: u32,
        submitted_at: Option<Instant>,
    ) -> SdgResult<()> {
        let ts = self.ts.tick();
        let item = Item {
            edge: self.edge,
            src_replica,
            ts,
            corr,
            expect,
            payload,
            submitted_at,
        };
        self.enqueue(targets, idx, item)
    }

    /// Hands one timestamped item to destination `idx`: eagerly when
    /// batching is off, otherwise parked until a flush condition.
    fn enqueue(&mut self, targets: &[MailboxSender], idx: usize, item: Item) -> SdgResult<()> {
        if self.batch.max_items <= 1 {
            if self.buffered {
                let buf = self.buffer_for(item.src_replica, idx);
                if self.defer_encode {
                    // Deferred: the log entry shares the item's allocation;
                    // the wire encode happens at checkpoint-persist time.
                    buf.lock().push_live(
                        item.ts,
                        item.corr,
                        item.expect,
                        Arc::clone(&item.payload),
                    );
                } else {
                    let bytes = item.encode_payload_into(&mut self.enc_scratch);
                    buf.lock().push_encoded(item.ts, bytes);
                }
            }
            return targets[idx]
                .send(WorkerMsg::Item(item))
                .map_err(|_| SdgError::Runtime("consumer channel closed".into()));
        }
        if self.pending.len() <= idx {
            self.pending.resize_with(idx + 1, Vec::new);
        }
        // Count the parked item as in-flight *before* it leaves the
        // channel-visible world, so drain barriers never observe a gap.
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        self.pending[idx].push(item);
        if self.pending_since.is_none() {
            self.pending_since = Some(Instant::now());
        }
        if self.pending[idx].len() >= self.batch.max_items {
            self.flush_dst(targets, idx)?;
        }
        Ok(())
    }

    /// Flushes destination `idx`'s pending batch: one output-buffer lock
    /// for all appends, one channel message for all items.
    fn flush_dst(&mut self, targets: &[MailboxSender], idx: usize) -> SdgResult<()> {
        let Some(slot) = self.pending.get_mut(idx) else {
            return Ok(());
        };
        if slot.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(slot);
        let n = batch.len();
        if self.buffered {
            let buf = self.buffer_for(batch[0].src_replica, idx);
            if self.defer_encode {
                buf.lock().push_all(
                    batch.iter().map(|i| {
                        BufferedItem::live(i.ts, i.corr, i.expect, Arc::clone(&i.payload))
                    }),
                );
            } else {
                let enc = &mut self.enc_scratch;
                buf.lock().push_all(
                    batch
                        .iter()
                        .map(|i| BufferedItem::encoded(i.ts, i.encode_payload_into(enc))),
                );
            }
        }
        let result = if n == 1 {
            let item = batch.into_iter().next().expect("len checked");
            targets[idx].send(WorkerMsg::Item(item))
        } else {
            targets[idx].send(WorkerMsg::Batch(batch))
        };
        // Items are now visible in the channel (or lost with it): hand the
        // accounting back either way.
        self.in_flight.fetch_sub(n as u64, Ordering::AcqRel);
        result.map_err(|_| SdgError::Runtime("consumer channel closed".into()))
    }

    /// Flushes every destination's pending batch and clears the linger
    /// deadline.
    pub fn flush_all(&mut self) -> SdgResult<()> {
        self.pending_since = None;
        if !self.has_pending() {
            return Ok(());
        }
        let targets_arc = Arc::clone(&self.targets);
        let targets = targets_arc.read();
        for idx in 0..self.pending.len() {
            self.flush_dst(&targets, idx)?;
        }
        Ok(())
    }

    /// Drops every pending item without sending or buffering it, modelling
    /// the loss of in-flight data when the hosting node dies. The dropped
    /// timestamps were never buffered, so a respawned producer resuming
    /// from the buffered high-water mark stays monotone.
    pub fn discard_pending(&mut self) {
        let n: usize = self.pending.iter().map(Vec::len).sum();
        if n > 0 {
            for slot in &mut self.pending {
                slot.clear();
            }
            self.in_flight.fetch_sub(n as u64, Ordering::AcqRel);
        }
        self.pending_since = None;
    }

    /// Whether any destination has parked items.
    pub fn has_pending(&self) -> bool {
        self.pending.iter().any(|p| !p.is_empty())
    }

    /// When the oldest pending item must be flushed (absent when nothing
    /// has been parked since the last flush).
    pub fn linger_deadline(&self) -> Option<Instant> {
        self.pending_since.map(|t| t + self.batch.linger)
    }

    fn buffer_for(&mut self, src: u32, dst: usize) -> Arc<Mutex<OutputBuffer>> {
        if self.buf_cache.len() <= dst {
            self.buf_cache.resize(dst + 1, None);
        }
        if let Some(buf) = &self.buf_cache[dst] {
            return Arc::clone(buf);
        }
        let buf = self.buffers.get(BufferKey {
            edge: self.edge,
            src,
            dst: dst as u32,
        });
        self.buf_cache[dst] = Some(Arc::clone(&buf));
        buf
    }
}

impl Drop for OutEdge {
    /// Repays the in-flight gauge for items still parked for batching.
    ///
    /// Graceful paths resolve pending batches before the edge drops, so
    /// this is a no-op there — but a worker consumed by a panic unwind
    /// drops its edges with whatever was parked, and without repayment
    /// the deployment's quiesce barrier would wait on those ghosts
    /// forever.
    fn drop(&mut self) {
        self.discard_pending();
    }
}

/// An event on the SDG's external output.
#[derive(Debug, Clone)]
pub struct OutputEvent {
    /// Correlation id of the originating request.
    pub corr: u64,
    /// Emitted value.
    pub value: Value,
    /// Client-visible latency (absent for replayed duplicates).
    pub latency: Option<Duration>,
}

/// A task's executable payload after deploy-time preparation.
///
/// Translated (StateLang) code is lowered once per task into slot-addressed
/// form and shared by every instance via `Arc` — the engine analogue of the
/// paper's per-TE bytecode generation. The reference interpreter remains
/// selectable ([`ExecEngine::Reference`]) as the semantic baseline.
#[derive(Clone)]
pub enum PreparedCode {
    /// Forward the input unchanged.
    Passthrough,
    /// Tree-walking reference interpreter over the translated AST.
    Reference(sdg_ir::te::TeProgram),
    /// Slot-compiled TE, executed against a reused register file.
    Compiled(Arc<CompiledTe>),
    /// Handwritten native task.
    Native(Arc<dyn NativeTask>),
}

impl PreparedCode {
    /// Prepares `code` for execution under `engine`.
    ///
    /// `compile` resolves a task's compiled form; deployments pass a
    /// memoising closure so all replicas of a task share one
    /// [`CompiledTe`].
    pub fn prepare(
        code: &TaskCode,
        engine: ExecEngine,
        compile: impl FnOnce(&sdg_ir::te::TeProgram) -> Arc<CompiledTe>,
    ) -> PreparedCode {
        match code {
            TaskCode::Passthrough => PreparedCode::Passthrough,
            TaskCode::Native(task) => PreparedCode::Native(Arc::clone(task)),
            TaskCode::Interpreted(te) => match engine {
                ExecEngine::Reference => PreparedCode::Reference(te.clone()),
                ExecEngine::Compiled => PreparedCode::Compiled(compile(te)),
            },
        }
    }
}

/// Everything one worker thread needs.
pub struct Worker {
    /// Task name (diagnostics).
    pub name: String,
    /// Replica index of this instance.
    pub replica: u32,
    /// Executable payload, prepared at deploy time.
    pub code: PreparedCode,
    /// Reused register file + helper-frame pool for the compiled engine.
    pub scratch: Scratch,
    /// Local SE instance, when the task has an access edge.
    pub cell: Option<Arc<StateCell>>,
    /// Record field carrying the state access key, for keyed (partitioned)
    /// access. Used to route each item to the lock stripe owning its key
    /// when the cell is striped.
    pub route_key: Option<String>,
    /// Outgoing edges.
    pub outs: Vec<OutEdge>,
    /// External output sink.
    pub sink: Sender<OutputEvent>,
    /// Gather state for all-to-one input edges: `corr → fragments by
    /// producer replica`.
    pub pending_gathers: HashMap<u64, HashMap<u32, Item>>,
    /// Collect variable of the inbound gather edge, if any.
    pub gather_var: Option<&'static str>,
    /// Synthetic per-item CPU cost in nanoseconds (scaled by node speed).
    pub work_ns: u64,
    /// Hosting node's speed factor.
    pub speed: f64,
    /// Cleared when the hosting node "fails": the worker then discards
    /// items, simulating loss of in-flight data.
    pub alive: Arc<AtomicBool>,
    /// Per-task instruments, shared with the deployment's registry: items
    /// in/out, processed, errors, gather waits, service time, latency.
    pub obs: Arc<TaskInstruments>,
    /// Deployment-wide end-to-end latency histogram.
    pub e2e: Arc<Histogram>,
    /// Dedupe switch: duplicate filtering needs a cell; stateless tasks
    /// pass everything through.
    pub dedupe: bool,
    /// Global count of in-flight items, used by scale/drain barriers.
    pub in_flight: Arc<AtomicU64>,
    /// Accumulated service-time debt not yet charged (see `process`).
    pub work_debt: Duration,
    /// When the instance finishes its charged service time. The scheduler
    /// honours it between messages: a dedicated thread sleeps until then,
    /// a pool actor suspends on the timer heap (see [`crate::sched`]).
    pub resume_at: Option<Instant>,
    /// Owning task id (failure reports name the instance precisely).
    pub task: TaskId,
    /// Heartbeat epoch, bumped once per step and scanned by the
    /// supervisor for hang detection.
    pub heartbeat: Arc<AtomicU64>,
    /// Armed injection point from the deployment's fault plan, if any.
    pub fault: Option<Arc<FaultTrigger>>,
    /// Where scheduler boundaries report caught panics. Absent only for
    /// bare workers built by unit tests.
    pub hub: Option<Arc<FailureHub>>,
}

impl Worker {
    /// Runs the worker loop until `Stop` or channel disconnect.
    ///
    /// With micro-batching enabled the loop waits with a timeout while any
    /// outgoing edge holds pending items, so a batch never lingers past its
    /// deadline even when no further input arrives. `Stop` flushes pending
    /// batches (graceful shutdown); a dead node discards them instead,
    /// modelling loss of in-flight data.
    pub fn run(mut self, rx: Receiver<WorkerMsg>) {
        loop {
            let msg = if self.has_pending() {
                let deadline = self
                    .earliest_deadline()
                    .unwrap_or_else(|| Instant::now() + Duration::from_millis(1));
                let wait = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(wait) {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        self.flush_or_discard();
                        break;
                    }
                }
            } else {
                match rx.recv() {
                    Ok(msg) => Some(msg),
                    Err(_) => {
                        self.flush_or_discard();
                        break;
                    }
                }
            };
            match msg {
                None => self.flush_or_discard(), // Linger expired.
                Some(msg) => {
                    if self.step(msg) {
                        break;
                    }
                    if let Some(at) = self.resume_at.take() {
                        busy_work(at.saturating_duration_since(Instant::now()));
                    }
                    // `recv_timeout` hands back queued messages before it
                    // checks the clock, so a steady arrival stream would
                    // otherwise starve linger deadlines indefinitely:
                    // honour an expired deadline after every message too.
                    self.flush_expired();
                }
            }
        }
    }

    /// Processes one message; returns `true` when the instance must stop.
    ///
    /// This is the scheduler-independent core of the instance loop, shared
    /// by the dedicated-thread runner above and the pool actor
    /// ([`crate::sched`]). `Stop` resolves pending micro-batches exactly
    /// once — flush on a live node, discard on a dead one — so a linger
    /// deadline racing shutdown behaves deterministically under both
    /// schedulers.
    pub(crate) fn step(&mut self, msg: WorkerMsg) -> bool {
        self.heartbeat.fetch_add(1, Ordering::Release);
        match msg {
            WorkerMsg::Stop => {
                self.flush_or_discard();
                true
            }
            WorkerMsg::Item(item) => {
                if !self.alive.load(Ordering::Acquire) {
                    // Simulated dead node: in-flight items are lost,
                    // including anything parked for batching.
                    self.discard_all_pending();
                } else {
                    self.handle(item);
                }
                false
            }
            WorkerMsg::Batch(items) => {
                if !self.alive.load(Ordering::Acquire) {
                    self.discard_all_pending();
                } else {
                    for item in items {
                        self.handle(item);
                    }
                }
                false
            }
        }
    }

    pub(crate) fn has_pending(&self) -> bool {
        self.outs.iter().any(OutEdge::has_pending)
    }

    pub(crate) fn earliest_deadline(&self) -> Option<Instant> {
        self.outs.iter().filter_map(OutEdge::linger_deadline).min()
    }

    /// Resolves pending micro-batches: flush on a live node, discard on a
    /// dead one (its in-flight data is lost with it).
    pub(crate) fn flush_or_discard(&mut self) {
        if self.alive.load(Ordering::Acquire) {
            for out in &mut self.outs {
                // Send failures here mean consumers already shut down.
                let _ = out.flush_all();
            }
        } else {
            self.discard_all_pending();
        }
    }

    /// Applies [`Worker::flush_or_discard`] when the earliest linger
    /// deadline has passed.
    pub(crate) fn flush_expired(&mut self) {
        if let Some(deadline) = self.earliest_deadline() {
            if deadline <= Instant::now() {
                self.flush_or_discard();
            }
        }
    }

    fn discard_all_pending(&mut self) {
        for out in &mut self.outs {
            out.discard_pending();
        }
    }

    /// Everything a scheduler boundary needs to report this worker's
    /// death after the unwind consumed it.
    pub(crate) fn panic_probe(&self) -> PanicProbe {
        PanicProbe {
            task: self.task,
            replica: self.replica,
            label: format!("{}#{}", self.name, self.replica),
            hub: self.hub.clone(),
        }
    }

    fn handle(&mut self, item: Item) {
        // Injected faults fire before the item is touched: nothing is
        // half-processed, no gauge is incremented, and the item itself is
        // already in its upstream output buffer, so recovery replays it
        // to the replacement instance.
        if let Some(action) = self.fault.as_ref().and_then(|t| t.poll()) {
            match action {
                FaultAction::Panic => panic!(
                    "injected fault: {}#{} fails on this item",
                    self.name, self.replica
                ),
                FaultAction::Stall(dur) => {
                    std::thread::sleep(dur);
                    if !self.alive.load(Ordering::Acquire) {
                        // The supervisor declared us hung and recovered
                        // around us while we slept; the item replays to
                        // the replacement, so touching it here would
                        // double-apply it.
                        return;
                    }
                }
            }
        }
        self.obs.items_in.inc();
        // Gather barriers assemble one logical item from `expect` fragments.
        let item = if let Some(var) = self.gather_var {
            match self.assemble(item, var) {
                Some(merged) => merged,
                None => {
                    // Barrier still waiting on sibling fragments.
                    self.obs.gather_waits.inc();
                    return;
                }
            }
        } else {
            item
        };
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let t0 = Instant::now();
        let r = self.process(&item);
        self.obs.service.record(t0.elapsed().as_nanos() as u64);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        if r.is_err() {
            self.obs.errors.inc();
        }
    }

    /// Collects fragments; returns the merged item once all arrived.
    fn assemble(&mut self, item: Item, collect_var: &str) -> Option<Item> {
        let corr = item.corr;
        let expect = item.expect.max(1) as usize;
        let slot = self.pending_gathers.entry(corr).or_default();
        slot.insert(item.src_replica, item);
        if slot.len() < expect {
            return None;
        }
        let mut fragments = self.pending_gathers.remove(&corr)?;
        // Deterministic order: by producer replica.
        let mut replicas: Vec<u32> = fragments.keys().copied().collect();
        replicas.sort_unstable();
        let first = replicas[0];
        let base = fragments.remove(&first)?;
        let mut collected: Vec<Value> = Vec::with_capacity(replicas.len());
        collected.push(
            base.payload
                .get(collect_var)
                .cloned()
                .unwrap_or(Value::Null),
        );
        let mut submitted_at = base.submitted_at;
        for r in &replicas[1..] {
            let frag = fragments.remove(r)?;
            collected.push(
                frag.payload
                    .get(collect_var)
                    .cloned()
                    .unwrap_or(Value::Null),
            );
            submitted_at = submitted_at.or(frag.submitted_at);
        }
        // Copy-on-write: the base fragment's record is usually uniquely
        // owned here (its producer already dropped it), so `make_mut`
        // mutates in place; a shared record is cloned once.
        let mut payload = base.payload;
        Arc::make_mut(&mut payload).set(collect_var, Value::List(collected));
        Some(Item {
            edge: base.edge,
            src_replica: first,
            ts: base.ts,
            corr: base.corr,
            expect: 1,
            payload,
            submitted_at,
        })
    }

    fn process(&mut self, item: &Item) -> SdgResult<()> {
        if self.work_ns > 0 {
            // Accumulate service time and charge it in ≥1 ms slices: short
            // sleeps overshoot badly (timer slack), which would distort the
            // modelled service rate. Charging only moves `resume_at`; the
            // scheduler makes the instance unavailable until then.
            self.work_debt +=
                Duration::from_nanos((self.work_ns as f64 / self.speed.max(0.01)) as u64);
            if self.work_debt >= Duration::from_millis(1) {
                let now = Instant::now();
                let from = self.resume_at.map_or(now, |at| at.max(now));
                self.resume_at = Some(from + self.work_debt);
                self.work_debt = Duration::ZERO;
            }
        }
        // Stateless passthrough: no state to read, no duplicates to filter —
        // forward the input record by refcount instead of deep-cloning it
        // through the execution engine.
        if self.cell.is_none() && matches!(self.code, PreparedCode::Passthrough) {
            self.obs.processed.inc();
            self.obs.items_out.add(self.outs.len() as u64);
            for out in &mut self.outs {
                out.send(
                    self.replica,
                    &item.payload,
                    item.corr,
                    item.expect,
                    item.submitted_at,
                )?;
            }
            return Ok(());
        }
        // Striped cells route each item to the stripe owning its access
        // key; the route hash equals the key's partition hash, so an item
        // lands on the stripe holding exactly the keys it may touch.
        let route = match (&self.cell, &self.route_key) {
            (Some(cell), Some(key)) if cell.stripe_count() > 1 => item
                .payload
                .get(key)
                .and_then(|v| v.to_key().ok())
                .map(|k| k.stable_hash()),
            _ => None,
        };
        // Split the borrows up front: the state-cell closures need the code
        // (shared) and the scratch (exclusive) while `self.cell` is held.
        let code = &self.code;
        let scratch = &mut self.scratch;
        let replica = self.replica;
        let effects = match (&self.cell, self.dedupe) {
            (Some(cell), true) => {
                let lane = lane(item.edge, item.src_replica);
                match cell.apply_routed(lane, item.ts, route, |store| {
                    execute_prepared(code, &item.payload, Some(store), replica, scratch)
                }) {
                    None => {
                        // Duplicate from a replay: already applied.
                        self.obs.processed.inc();
                        return Ok(());
                    }
                    Some(r) => r?,
                }
            }
            (Some(cell), false) => cell.with_routed(route, |inner| {
                execute_prepared(
                    code,
                    &item.payload,
                    Some(&mut inner.store),
                    replica,
                    scratch,
                )
            })?,
            (None, _) => execute_prepared(code, &item.payload, None, replica, scratch)?,
        };
        self.obs.processed.inc();
        self.obs.emits.add(effects.emits.len() as u64);
        for value in effects.emits {
            let latency = item.submitted_at.map(|t| t.elapsed());
            if let Some(l) = latency {
                let ns = l.as_nanos() as u64;
                self.obs.latency.record(ns);
                self.e2e.record(ns);
            }
            let event = OutputEvent {
                corr: item.corr,
                value,
                latency,
            };
            let _ = self.sink.send(event);
        }
        self.obs
            .items_out
            .add((effects.forwards.len() * self.outs.len()) as u64);
        for record in effects.forwards {
            // One refcounted allocation per forwarded record, shared by
            // every outgoing edge (and its output-buffer log entry).
            let payload = Arc::new(record);
            for out in &mut self.outs {
                out.send(
                    self.replica,
                    &payload,
                    item.corr,
                    item.expect,
                    item.submitted_at,
                )?;
            }
        }
        Ok(())
    }
}

/// Executes a task's code against one input (reference path; translated
/// code runs through the tree-walking interpreter).
pub fn execute(
    code: &TaskCode,
    input: &Record,
    state: Option<&mut sdg_state::store::StateStore>,
    replica: u32,
) -> SdgResult<Effects> {
    match code {
        TaskCode::Passthrough => Ok(Effects {
            forwards: vec![input.clone()],
            emits: Vec::new(),
        }),
        TaskCode::Interpreted(te) => run_te(te, input, state),
        TaskCode::Native(task) => run_native(task.as_ref(), input, state, replica),
    }
}

/// Executes prepared code against one input, reusing `scratch` on the
/// compiled path.
pub fn execute_prepared(
    code: &PreparedCode,
    input: &Record,
    state: Option<&mut sdg_state::store::StateStore>,
    replica: u32,
    scratch: &mut Scratch,
) -> SdgResult<Effects> {
    match code {
        PreparedCode::Passthrough => Ok(Effects {
            forwards: vec![input.clone()],
            emits: Vec::new(),
        }),
        PreparedCode::Reference(te) => run_te(te, input, state),
        PreparedCode::Compiled(te) => run_compiled(te, input, state, scratch),
        PreparedCode::Native(task) => run_native(task.as_ref(), input, state, replica),
    }
}

fn run_native(
    task: &dyn NativeTask,
    input: &Record,
    state: Option<&mut sdg_state::store::StateStore>,
    replica: u32,
) -> SdgResult<Effects> {
    let mut ctx = NativeCtx {
        state,
        effects: Effects::default(),
        replica,
    };
    task.process(input.clone(), &mut ctx)?;
    Ok(ctx.effects)
}

struct NativeCtx<'a> {
    state: Option<&'a mut sdg_state::store::StateStore>,
    effects: Effects,
    replica: u32,
}

impl TaskContext for NativeCtx<'_> {
    fn state(&mut self) -> Option<&mut sdg_state::store::StateStore> {
        self.state.as_deref_mut()
    }

    fn emit(&mut self, record: Record) {
        // Native emissions carry the record's `value` field, or the whole
        // record as a list when absent.
        let value = record
            .get("value")
            .cloned()
            .unwrap_or_else(|| Value::List(record.iter().map(|(_, v)| v.clone()).collect()));
        self.effects.emits.push(value);
    }

    fn forward(&mut self, record: Record) {
        self.effects.forwards.push(record);
    }

    fn replica(&self) -> u32 {
        self.replica
    }
}

/// Sleeps for `d`, simulating the per-item service time of a TE on a
/// dedicated thread (the pool suspends the actor instead).
///
/// Sleeping (not spinning) is deliberate: on a host with fewer cores than
/// simulated nodes, spinning would serialise the whole cluster. Sleeping
/// lets node service times overlap the way independent machines do, so
/// scaling experiments behave like the cluster they model regardless of
/// the host's core count.
pub fn busy_work(d: Duration) {
    if d.is_zero() {
        return;
    }
    std::thread::sleep(d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::record;

    #[test]
    fn buffer_registry_creates_and_trims() {
        let reg = BufferRegistry::new(1000);
        let key = BufferKey {
            edge: EdgeId(1),
            src: 0,
            dst: 2,
        };
        reg.get(key).lock().push_encoded(1, vec![1, 2, 3]);
        reg.get(key).lock().push_encoded(2, vec![4]);
        assert_eq!(reg.total_bytes(), 4);
        let into = reg.buffers_into(EdgeId(1), 2);
        assert_eq!(into.len(), 1);
        assert_eq!(into[0].0, 0);
        reg.trim(key, 1);
        assert_eq!(reg.total_bytes(), 1);
        assert!(reg.buffers_into(EdgeId(1), 9).is_empty());
    }

    #[test]
    fn registry_total_bytes_matches_per_buffer_walk() {
        // The O(1) aggregate must agree with a from-scratch walk over
        // every buffer after a mix of pushes, trims, caps and restores.
        let reg = BufferRegistry::new(1000);
        let keys: Vec<BufferKey> = (0..4)
            .map(|i| BufferKey {
                edge: EdgeId(1),
                src: i,
                dst: i % 2,
            })
            .collect();
        for (n, key) in keys.iter().enumerate() {
            let buf = reg.get(*key);
            for t in 1..=(n as u64 + 3) {
                buf.lock().push_encoded(t, vec![0; (t as usize) * (n + 1)]);
            }
        }
        reg.get(keys[0]).lock().trim(2);
        reg.get(keys[1]).lock().cap(1);
        reg.get(keys[2])
            .lock()
            .restore(vec![sdg_checkpoint::buffer::BufferedItem::encoded(
                9,
                vec![0; 13],
            )]);
        let walk: usize = keys
            .iter()
            .map(|k| reg.get(*k).lock().buffered_bytes())
            .sum();
        assert_eq!(reg.total_bytes(), walk);
        for key in &keys {
            reg.get(*key).lock().trim(u64::MAX);
        }
        assert_eq!(reg.total_bytes(), 0);
    }

    #[test]
    fn passthrough_execute_forwards_input() {
        let rec = record! {"a" => Value::Int(1)};
        let fx = execute(&TaskCode::Passthrough, &rec, None, 0).unwrap();
        assert_eq!(fx.forwards, vec![rec]);
        assert!(fx.emits.is_empty());
    }

    #[test]
    fn busy_work_spins_approximately() {
        let t0 = Instant::now();
        busy_work(Duration::from_micros(50));
        assert!(t0.elapsed() >= Duration::from_micros(45));
        let t0 = Instant::now();
        busy_work(Duration::from_millis(2));
        assert!(t0.elapsed() >= Duration::from_millis(2));
        busy_work(Duration::ZERO); // Must not panic or sleep.
    }

    #[test]
    fn native_ctx_emit_prefers_value_field() {
        struct Echo;
        impl sdg_graph::model::NativeTask for Echo {
            fn process(&self, input: Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
                ctx.emit(input.clone());
                ctx.forward(input);
                assert_eq!(ctx.replica(), 3);
                Ok(())
            }
        }
        let code = TaskCode::Native(Arc::new(Echo));
        let rec = record! {"value" => Value::Int(42), "other" => Value::Int(1)};
        let fx = execute(&code, &rec, None, 3).unwrap();
        assert_eq!(fx.emits, vec![Value::Int(42)]);
        assert_eq!(fx.forwards.len(), 1);
    }
}
