//! Deployment: materialising an SDG onto the simulated cluster.
//!
//! `Deployment::start` allocates TE and SE instances to nodes (§3.3),
//! spawns one worker thread per TE instance, wires the dataflow channels,
//! and starts the checkpoint and scaling controllers. The handle then
//! accepts external requests ([`Deployment::submit`]), exposes the output
//! sink, and supports failure injection with §5's replay-based recovery.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use sdg_checkpoint::backup::{BackupSet, BackupStore};
use sdg_checkpoint::buffer::BufferedItem;
use sdg_checkpoint::cell::StateCell;
use sdg_checkpoint::coordinator::{take_checkpoint_with, CheckpointOptions};
use sdg_checkpoint::recovery::{restore_chain_resilient_observed, RestoreOptions};
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{EdgeId, InstanceId, StateId, TaskId};
use sdg_common::obs::{
    DeploymentStats, EventKind, MetricsRegistry, MetricsSnapshot, ObsEvent, TaskInstruments,
};
use sdg_common::time::{TsGen, VectorTs};
use sdg_common::value::{intern, Record};
use sdg_graph::alloc::allocate;
use sdg_graph::model::{AccessMode, Dispatch, Distribution, Sdg, StateDecl, TaskKind};
use sdg_graph::validate::validate;
use sdg_ir::analysis::verify::VerifyReport;
use sdg_ir::te_compiled::CompiledTe;
use sdg_state::partition::PartitionDim;
use sdg_state::store::{StateStore, StateType};

use crate::compile::Scratch;
use crate::config::{BatchConfig, RuntimeConfig, SchedulerMode};
use crate::fault::{
    run_supervisor, FailureHub, FaultInjector, Health, HeartbeatView, RecoveryUnit,
};
use crate::item::{lane, Item};
use crate::reconfig::{ReconfigReport, ReconfigRequest};
use crate::scaling::{run_scaling_monitor, ScaleDirection, ScaleEvent, StopWait};
use crate::sched::Pool;
use crate::worker::{
    BufferKey, BufferRegistry, MailboxSender, OutEdge, PreparedCode, Targets, Worker, WorkerMsg,
};

pub use crate::worker::OutputEvent;

/// Base for synthetic ingest edge ids (external requests into entry TEs).
const INGEST_BASE: u32 = 2_000_000;

/// Returns the synthetic ingest edge of an entry task.
pub fn ingest_edge(task: TaskId) -> EdgeId {
    EdgeId(INGEST_BASE + task.raw())
}

/// Synthetic instance id used to key SE-instance checkpoints.
fn se_instance_id(state: StateId, replica: u32) -> InstanceId {
    // SE checkpoints are keyed in a disjoint TaskId namespace.
    InstanceId::new(TaskId(0x4000_0000 | state.raw()), replica)
}

/// Stripe count, partition axis and delta-chunk space for one SE's cells.
///
/// Only partitioned tables and matrices are striped: the partitioned access
/// contract (a task touches only state belonging to its item's key) is what
/// makes per-key stripe routing sound, and dense vectors have no meaningful
/// key space to split. Everything else keeps the single-mutex cell.
///
/// Both optimizations are gated on the `sdg-verify` certificates when a
/// report is attached: striping requires the SE's key-locality certificate
/// (an access through a reassigned key would land on the wrong stripe),
/// and delta checkpointing requires the replay-safety certificate (replay
/// recovery of a delta chain re-executes buffered items and needs them to
/// reproduce the same transitions). A graph without a report — hand-built,
/// native tasks — is trusted, as is `RuntimeConfig::trust_annotations`.
fn cell_layout(
    cfg: &RuntimeConfig,
    decl: &StateDecl,
    verify: Option<&VerifyReport>,
) -> (usize, PartitionDim, Option<usize>) {
    let trusted = cfg.trust_annotations;
    let key_local = trusted || verify.is_none_or(|r| r.key_local(&decl.name));
    let replay_safe = trusted || verify.is_none_or(|r| r.replay_safe(&decl.name));
    let (stripes, dim) = match decl.dist {
        Distribution::Partitioned { dim } if decl.ty != StateType::Vector && key_local => {
            (cfg.state_stripes, dim)
        }
        Distribution::Partitioned { dim } => (1, dim),
        _ => (1, PartitionDim::Row),
    };
    let delta = if cfg.checkpoint.enabled && cfg.checkpoint.incremental && replay_safe {
        Some(cfg.checkpoint.delta_chunks)
    } else {
        None
    };
    (stripes, dim, delta)
}

/// Report of one failure-injection recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// Time to fetch chunks and reconstitute state.
    pub restore: Duration,
    /// Items replayed from upstream buffers.
    pub replayed: usize,
    /// End-to-end recovery time (pause → resume).
    pub total: Duration,
}

struct IngestLane {
    ts: TsGen,
    rr: usize,
}

pub(crate) struct Inner {
    pub sdg: Arc<Sdg>,
    pub cfg: RuntimeConfig,
    /// Consumer senders per task, replica-indexed.
    pub targets: HashMap<TaskId, Targets>,
    /// SE instance cells, replica-indexed.
    pub cells: RwLock<HashMap<StateId, Vec<Arc<StateCell>>>>,
    /// Liveness flag per TE instance.
    pub(crate) alive: RwLock<HashMap<(TaskId, u32), Arc<AtomicBool>>>,
    /// Heartbeat epoch per TE instance, bumped by the worker once per
    /// step; the supervisor scans these for hang detection.
    heartbeats: RwLock<HashMap<(TaskId, u32), Arc<AtomicU64>>>,
    /// Caught worker/actor panics, drained by the supervisor.
    failure_hub: Arc<FailureHub>,
    /// Resolved fault plan (empty when no plan is configured).
    injector: FaultInjector,
    /// Supervisor-driven health ([`Health`] as `u8`); `Degraded` is
    /// terminal.
    health: AtomicU8,
    /// The deployment's instrument registry: per-task and per-state
    /// instruments, checkpoint phase timers, and the structured event log.
    pub obs: Arc<MetricsRegistry>,
    /// Per-task instrument handles, resolved once at start so workers and
    /// the monitor never touch the registry maps on the hot path.
    pub instruments: HashMap<TaskId, Arc<TaskInstruments>>,
    pub buffers: Arc<BufferRegistry>,
    sink_tx: Sender<OutputEvent>,
    corr: AtomicU64,
    ingest: Mutex<HashMap<TaskId, IngestLane>>,
    ingest_src: AtomicU32,
    node_cursor: AtomicU32,
    pub(crate) node_of_instance: RwLock<HashMap<(TaskId, u32), u32>>,
    pub stores: Vec<Arc<BackupStore>>,
    backup_seq: AtomicU64,
    /// Checkpoint chains per SE instance: a base generation followed by the
    /// deltas taken since it. Restore composes the whole chain.
    backups: Mutex<HashMap<(StateId, u32), Vec<BackupSet>>>,
    /// Serialises each SE instance's checkpoint (take, trim, record)
    /// against failure recovery. A checkpoint of the failed cell finishing
    /// mid-recovery would otherwise trim upstream buffers the recovery is
    /// about to replay.
    checkpoint_or_recover: Mutex<()>,
    /// SE instances whose next checkpoint must be a full (non-delta) take:
    /// a reconfiguration migrated state into them, so a delta on top of the
    /// pre-migration chain would restore the old key ownership.
    force_full: Mutex<HashSet<(StateId, u32)>>,
    pub events: Mutex<Vec<ScaleEvent>>,
    pub in_flight: Arc<AtomicU64>,
    /// Deploy-time slot-compilation cache: one [`CompiledTe`] per task,
    /// shared by all replicas (including respawns during recovery and
    /// scale-out).
    compiled: Mutex<HashMap<TaskId, Arc<CompiledTe>>>,
    /// The cooperative executor when `cfg.scheduler` is
    /// [`SchedulerMode::Pool`]; `None` runs one OS thread per instance.
    pool: Option<Arc<Pool>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    stop: Arc<AtomicBool>,
    /// Parks the controller threads between ticks; notified at shutdown so
    /// they exit without sleeping out their interval.
    stop_wait: StopWait,
    pub started: Instant,
}

/// A private submission handle with its own ingest lane (see
/// [`Deployment::ingest_handle`]).
pub struct IngestHandle {
    inner: Arc<Inner>,
    src: u32,
    lanes: HashMap<TaskId, (TsGen, usize)>,
}

impl IngestHandle {
    /// Submits a request through this handle's lane; blocks on
    /// backpressure. Returns the correlation id.
    pub fn submit(&mut self, entry: &str, payload: Record) -> SdgResult<u64> {
        let task = self.inner.find_entry(entry)?;
        let corr = self.inner.corr.fetch_add(1, Ordering::Relaxed);
        let (ts_gen, rr) = self
            .lanes
            .entry(task.id)
            .or_insert((TsGen::new(), self.src as usize));
        let ts = ts_gen.tick();
        self.inner
            .ingest_dispatch(task, payload, corr, self.src, ts, rr)?;
        Ok(corr)
    }
}

/// A running SDG.
pub struct Deployment {
    inner: Arc<Inner>,
    sink_rx: Receiver<OutputEvent>,
    control: Mutex<Vec<JoinHandle<()>>>,
}

impl Deployment {
    /// Materialises `sdg` on the simulated cluster and starts processing.
    pub fn start(sdg: Sdg, cfg: RuntimeConfig) -> SdgResult<Deployment> {
        validate(&sdg)?;
        cfg.validate()?;
        let sdg = Arc::new(sdg);
        let allocation = allocate(&sdg);
        let (sink_tx, sink_rx) = unbounded();

        // Backup stores for checkpoint chunks (the "disks" of spare nodes).
        // A configured fault plan injects its store faults into every one,
        // exercising the retry and chain-fallback paths deterministically.
        let store_faults = cfg
            .faults
            .as_ref()
            .map(|p| p.store_faults)
            .filter(|s| !s.is_noop());
        let store_count = cfg.checkpoint.backup_fanout.max(2);
        let stores: Vec<Arc<BackupStore>> = (0..store_count)
            .map(|_| {
                let mut store = BackupStore::in_memory()
                    .with_bandwidth(cfg.checkpoint.disk_write_bps, cfg.checkpoint.disk_read_bps);
                if let Some(spec) = store_faults {
                    store = store.with_faults(spec);
                }
                Arc::new(store)
            })
            .collect();

        // The deployment's instrument registry. Task and state instruments
        // are created eagerly so a snapshot always lists every element,
        // even before its first item.
        let obs = Arc::new(MetricsRegistry::with_event_capacity(cfg.event_log_capacity));
        let mut targets = HashMap::new();
        let mut instruments = HashMap::new();
        for task in &sdg.tasks {
            targets.insert(task.id, Arc::new(RwLock::new(Vec::new())) as Targets);
            instruments.insert(task.id, obs.task_with_id(&task.name, Some(task.id)));
        }

        // SE instances.
        let mut cells: HashMap<StateId, Vec<Arc<StateCell>>> = HashMap::new();
        for state in &sdg.states {
            let _ = obs.state_with_id(&state.name, Some(state.id));
            let n = cfg.se_instances.get(&state.id).copied().unwrap_or(1);
            let (stripes, dim, delta) = cell_layout(&cfg, state, sdg.verify.as_deref());
            cells.insert(
                state.id,
                (0..n)
                    .map(|_| Arc::new(StateCell::new_striped(state.ty, stripes, dim, delta)))
                    .collect(),
            );
        }

        // The cooperative executor (PR 9): TE instances become actors on a
        // fixed worker pool instead of one OS thread each.
        let pool = match cfg.scheduler {
            SchedulerMode::Pool => Some(Pool::start(cfg.sched_threads, Arc::clone(obs.sched()))),
            SchedulerMode::Threads => None,
        };

        // Resolve the fault plan against the graph before anything runs:
        // a plan naming an unknown task is a config error, not a silently
        // unarmed chaos run.
        let injector = FaultInjector::resolve(cfg.faults.as_ref(), &sdg)?;
        let failure_hub = Arc::new(FailureHub::new(Arc::clone(&obs)));

        let inner = Arc::new(Inner {
            sdg: Arc::clone(&sdg),
            cfg: cfg.clone(),
            targets,
            cells: RwLock::new(cells),
            alive: RwLock::new(HashMap::new()),
            heartbeats: RwLock::new(HashMap::new()),
            failure_hub,
            injector,
            health: AtomicU8::new(Health::Healthy.as_u8()),
            obs,
            instruments,
            buffers: Arc::new(BufferRegistry::new(100_000)),
            sink_tx,
            corr: AtomicU64::new(1),
            ingest: Mutex::new(HashMap::new()),
            ingest_src: AtomicU32::new(1),
            node_cursor: AtomicU32::new(allocation.num_nodes),
            node_of_instance: RwLock::new(HashMap::new()),
            stores,
            backup_seq: AtomicU64::new(1),
            backups: Mutex::new(HashMap::new()),
            checkpoint_or_recover: Mutex::new(()),
            force_full: Mutex::new(HashSet::new()),
            events: Mutex::new(Vec::new()),
            in_flight: Arc::new(AtomicU64::new(0)),
            compiled: Mutex::new(HashMap::new()),
            pool,
            threads: Mutex::new(Vec::new()),
            stop: Arc::new(AtomicBool::new(false)),
            stop_wait: StopWait::new(),
            started: Instant::now(),
        });

        // Spawn instances: stateful tasks get one instance per SE replica,
        // stateless tasks use their configured count.
        for task in &sdg.tasks {
            let count = match &task.access {
                Some(a) => {
                    let se_count = inner.cells.read()[&a.state].len();
                    if let Some(&configured) = cfg.task_instances.get(&task.id) {
                        if configured != se_count {
                            return Err(SdgError::Config(format!(
                                "task `{}` instance count {configured} conflicts with its \
                                 state element's {se_count} instances",
                                task.name
                            )));
                        }
                    }
                    se_count
                }
                None => cfg.task_instances.get(&task.id).copied().unwrap_or(1),
            };
            for replica in 0..count {
                let node = if replica == 0 {
                    allocation.node_of_task(task.id).raw()
                } else {
                    inner.node_cursor.fetch_add(1, Ordering::Relaxed)
                };
                inner.spawn_instance(task.id, replica as u32, node)?;
            }
        }

        let deployment = Deployment {
            inner: Arc::clone(&inner),
            sink_rx,
            control: Mutex::new(Vec::new()),
        };
        deployment.start_controllers();
        Ok(deployment)
    }

    fn start_controllers(&self) {
        let mut control = self.control.lock();
        if self.inner.cfg.checkpoint.enabled {
            let inner = Arc::clone(&self.inner);
            control.push(std::thread::spawn(move || {
                let interval = inner.cfg.checkpoint.interval;
                // Park in small slices so long intervals stay interruptible;
                // only checkpoint when a full interval has elapsed. The
                // stop-aware wait returns immediately when shutdown fires.
                let mut due = interval;
                loop {
                    if inner
                        .stop_wait
                        .wait(&inner.stop, interval.min(Duration::from_millis(50)))
                    {
                        break;
                    }
                    if inner.started.elapsed() >= due {
                        due += interval;
                        let _ = inner.checkpoint_all();
                    }
                }
            }));
        }
        if self.inner.cfg.scaling.enabled {
            let inner = Arc::clone(&self.inner);
            control.push(std::thread::spawn(move || {
                run_scaling_monitor(&inner);
            }));
        }
        if self.inner.cfg.supervisor.enabled {
            let inner = Arc::clone(&self.inner);
            let cfg = self.inner.cfg.supervisor.clone();
            control.push(std::thread::spawn(move || {
                run_supervisor(inner, cfg);
            }));
        }
    }

    /// Supervisor-driven health: `Healthy` → `Recovering` while failures
    /// are being repaired, terminal `Degraded` once a recovery exhausts
    /// its attempts.
    pub fn health(&self) -> Health {
        self.inner.health_state()
    }

    /// Submits an external request to entry method `entry`.
    ///
    /// Blocks when the entry instance's channel is full (backpressure).
    /// Returns the request's correlation id.
    pub fn submit(&self, entry: &str, payload: Record) -> SdgResult<u64> {
        self.inner.submit(entry, payload)
    }

    /// The external output sink.
    pub fn outputs(&self) -> &Receiver<OutputEvent> {
        &self.sink_rx
    }

    /// Creates a private ingest handle with its own dedupe lane, so many
    /// feeder threads can submit without contending on the shared lane.
    ///
    /// # Errors
    ///
    /// At most `LANE_STRIDE - 1` handles can exist per deployment.
    pub fn ingest_handle(&self) -> SdgResult<IngestHandle> {
        let src = self.inner.ingest_src.fetch_add(1, Ordering::Relaxed);
        if src >= crate::item::LANE_STRIDE {
            return Err(SdgError::Runtime(
                "too many ingest handles (max 1023)".into(),
            ));
        }
        Ok(IngestHandle {
            inner: Arc::clone(&self.inner),
            src,
            lanes: HashMap::new(),
        })
    }

    /// Executes one typed reconfiguration request — scale-out, scale-in,
    /// checkpoint, or failure injection — and returns a uniform
    /// [`ReconfigReport`] with timings, migrated bytes and the resulting
    /// instance counts.
    ///
    /// This is the deployment's only control-plane entry point.
    ///
    /// Scale-in live-migrates the removed replica's state: a partitioned
    /// shard is split by the partitioner's key hash and merged into the
    /// survivors (with pointwise-max dedupe watermarks), a partial
    /// aggregate is additively folded into a survivor — refused when the
    /// SE's `@Partial` merge is uncertified by the attached `sdg-verify`
    /// report, unless `trust_annotations` is set.
    ///
    /// On `FailAndRecover`, recovery is exact (exactly-once) for the
    /// failed SE's own state: the checkpoint restores it, upstream buffers
    /// replay the suffix, and the vector timestamp filters duplicates. A
    /// limitation relative to §5 of the paper: replayed items reprocessed
    /// by the recovered TEs forward downstream with *fresh* timestamps
    /// rather than regenerating their original ones, so when a recovered
    /// stage feeds a different stateful stage, that downstream stage may
    /// re-apply effects it already holds. (The paper avoids this by
    /// checkpointing output buffers and relying on deterministic timestamp
    /// regeneration; the checkpoint layer here captures output buffers —
    /// see `take_checkpoint` — but the engine does not yet replay them.)
    /// Pipelines whose stateful stages hang off distinct
    /// upstream-stateless paths, such as the KV store and each SE of CF in
    /// isolation, recover exactly. A reconfiguration that migrated state
    /// also invalidates the affected chains, so recovery between a
    /// migration and the next checkpoint reports "no checkpoint recorded"
    /// instead of restoring the old key ownership.
    pub fn reconfigure(&self, request: ReconfigRequest) -> SdgResult<ReconfigReport> {
        crate::reconfig::execute(&self.inner, request)
    }

    /// Freezes every instrument into a plain-data [`MetricsSnapshot`]:
    /// per-TE counters and timing summaries, per-SE sizes, checkpoint phase
    /// timers, the deployment-wide latency summary, and the retained
    /// events. Sampled gauges (queue depths, instance counts, state bytes,
    /// dirty-overlay bytes) are refreshed immediately before the freeze.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.refresh_gauges();
        self.inner.obs.snapshot()
    }

    /// The retained structured events, oldest first.
    ///
    /// The log is bounded (see `RuntimeConfig::event_log_capacity`); the
    /// snapshot's `events_dropped` counter reveals eviction.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.inner.obs.events()
    }

    /// One-line deployment aggregates, derived from [`Deployment::metrics`].
    pub fn stats(&self) -> DeploymentStats {
        self.metrics().deployment_stats()
    }

    /// Resets every timing histogram (service, latency, checkpoint phases)
    /// while keeping counters, gauges and events. Benchmarks call this
    /// after warm-up so percentiles cover only the measured window.
    pub fn reset_observations(&self) {
        self.inner.obs.reset_observations();
    }

    /// Runs `f` against SE instance `(state, replica)` under its lock.
    pub fn with_state<R>(
        &self,
        state: StateId,
        replica: u32,
        f: impl FnOnce(&mut StateStore) -> R,
    ) -> SdgResult<R> {
        let cell = self
            .inner
            .cells
            .read()
            .get(&state)
            .and_then(|v| v.get(replica as usize).cloned())
            .ok_or_else(|| SdgError::NotFound(format!("state instance {state}#{replica}")))?;
        cell.with_merged(f)
    }

    /// Waits until all submitted work has drained (queues empty and no item
    /// mid-processing), up to `timeout`. Returns `true` on success.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let queued: usize = self
                .inner
                .targets
                .values()
                .map(|t| t.read().iter().map(|s| s.len()).sum::<usize>())
                .sum();
            let busy = self.inner.in_flight.load(Ordering::Acquire);
            if queued == 0 && busy == 0 {
                // Double-check after a grace period: a worker may be
                // between recv and the in-flight increment.
                std::thread::sleep(Duration::from_millis(2));
                let queued: usize = self
                    .inner
                    .targets
                    .values()
                    .map(|t| t.read().iter().map(|s| s.len()).sum::<usize>())
                    .sum();
                if queued == 0 && self.inner.in_flight.load(Ordering::Acquire) == 0 {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops all workers and controllers, joining their threads.
    pub fn shutdown(self) {
        self.inner.stop.store(true, Ordering::Release);
        // Wake the parked controllers so they observe the flag now instead
        // of sleeping out their check interval.
        self.inner.stop_wait.notify();
        for t in self.inner.targets.values() {
            for sender in t.read().iter() {
                // `force_send` so a full mailbox cannot block shutdown: under
                // the pool scheduler Stop must reach every actor even when
                // its producers are suspended on it.
                let _ = sender.force_send(WorkerMsg::Stop);
            }
        }
        for handle in self.control.lock().drain(..) {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.inner.threads.lock());
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(pool) = &self.inner.pool {
            pool.join();
        }
    }
}

impl Inner {
    /// Refreshes the sampled gauges (queue depths, instance counts, state
    /// sizes) so a snapshot taken right after reflects current occupancy.
    fn refresh_gauges(&self) {
        for (task, instruments) in &self.instruments {
            let targets = self.targets[task].read();
            instruments.instances.set(targets.len() as u64);
            instruments
                .queue_depth
                .set(targets.iter().map(|s| s.len() as u64).sum());
        }
        for (&state, group) in self.cells.read().iter() {
            let Ok(decl) = self.sdg.state(state) else {
                continue;
            };
            let s = self.obs.state_with_id(&decl.name, Some(state));
            s.instances.set(group.len() as u64);
            s.bytes
                .set(group.iter().map(|c| c.approx_bytes() as u64).sum());
            s.dirty_bytes
                .set(group.iter().map(|c| c.dirty_bytes() as u64).sum());
            s.stripes
                .set(group.first().map(|c| c.stripe_count() as u64).unwrap_or(0));
            s.dirty_chunks
                .set(group.iter().map(|c| c.pending_dirty_chunks() as u64).sum());
        }
        self.obs
            .checkpoints()
            .buffered_bytes
            .set(self.buffers.total_bytes() as u64);
        // Mirror the transient store-I/O retries absorbed so far into the
        // monotone fault counter (each store counts its own).
        let retried: u64 = self.stores.iter().map(|s| s.retried_ops()).sum();
        let seen = self.obs.faults().io_retries.get();
        if retried > seen {
            self.obs.faults().io_retries.add(retried - seen);
        }
        if self.pool.is_some() {
            let depth: usize = self
                .targets
                .values()
                .map(|t| t.read().iter().map(|s| s.len()).sum::<usize>())
                .sum();
            self.obs.sched().mailbox_depth.set(depth as u64);
        }
    }

    /// Label of SE instance `(state, replica)` in event payloads.
    fn se_label(&self, state: StateId, replica: u32) -> String {
        match self.sdg.state(state) {
            Ok(decl) => format!("{}#{replica}", decl.name),
            Err(_) => format!("{state}#{replica}"),
        }
    }

    /// Allocates the next fresh cluster node.
    pub(crate) fn next_node(&self) -> u32 {
        self.node_cursor.fetch_add(1, Ordering::Relaxed)
    }

    /// The certificate-gated stripe/axis/delta layout for `decl`'s cells.
    pub(crate) fn layout_of(&self, decl: &StateDecl) -> (usize, PartitionDim, Option<usize>) {
        cell_layout(&self.cfg, decl, self.sdg.verify.as_deref())
    }

    /// Spawns one TE instance worker; its sender is appended (or swapped in
    /// at `replica`) in the task's target list.
    pub(crate) fn spawn_instance(&self, task_id: TaskId, replica: u32, node: u32) -> SdgResult<()> {
        self.spawn_instance_in(task_id, replica, node, None)
    }

    /// [`Inner::spawn_instance`] with an optionally pre-held target list.
    ///
    /// Recovery and repartitioning hold the task's dispatch lock across the
    /// whole operation (kill → restore → respawn → replay); passing the
    /// held guard's vector here avoids re-locking and keeps producers
    /// paused until the swap (and any replay) is complete.
    pub(crate) fn spawn_instance_in(
        &self,
        task_id: TaskId,
        replica: u32,
        node: u32,
        slot_override: Option<&mut Vec<MailboxSender>>,
    ) -> SdgResult<()> {
        let task = self.sdg.task(task_id)?.clone();

        let cell = match &task.access {
            Some(a) => {
                let cells = self.cells.read();
                let group = cells
                    .get(&a.state)
                    .ok_or_else(|| SdgError::NotFound(format!("state {}", a.state)))?;
                Some(group.get(replica as usize).cloned().ok_or_else(|| {
                    SdgError::Runtime(format!(
                        "task `{}` replica {replica} has no SE instance",
                        task.name
                    ))
                })?)
            }
            None => None,
        };

        let route_key = task.access.as_ref().and_then(|a| match &a.mode {
            AccessMode::Partitioned { key, .. } => Some(key.clone()),
            _ => None,
        });

        let gather_var = self
            .sdg
            .flows_to(task_id)
            .iter()
            .find_map(|f| match &f.dispatch {
                Dispatch::AllToOne { collect_var } => Some(intern(collect_var)),
                _ => None,
            });

        let buffered = self.cfg.checkpoint.enabled;
        let outs: Vec<OutEdge> = self
            .sdg
            .flows_from(task_id)
            .into_iter()
            .map(|flow| {
                // Resume timestamps past anything already buffered on this
                // producer lane, so a respawned instance never reuses a ts.
                let mut last = 0;
                for (_, buf) in self.buffers_from(flow.id, replica) {
                    last = last.max(buf.lock().last_ts());
                }
                OutEdge::new(
                    flow.id,
                    flow.dispatch.clone(),
                    flow.live_vars.clone(),
                    Arc::clone(&self.targets[&flow.to]),
                    TsGen::resume_after(last),
                    replica as usize, // Stagger round-robin start points.
                    Arc::clone(&self.buffers),
                    buffered,
                    self.cfg.checkpoint.deferred_encode,
                    self.edge_batch(flow.to),
                    Arc::clone(&self.in_flight),
                )
            })
            .collect();

        let alive = Arc::new(AtomicBool::new(true));
        self.alive
            .write()
            .insert((task_id, replica), Arc::clone(&alive));
        let heartbeat = Arc::new(AtomicU64::new(0));
        self.heartbeats
            .write()
            .insert((task_id, replica), Arc::clone(&heartbeat));
        self.node_of_instance
            .write()
            .insert((task_id, replica), node);

        // Prepare the task's code for the configured engine; compiled form
        // is built once per task and shared by every replica.
        let code = PreparedCode::prepare(&task.code, self.cfg.engine, |te| {
            Arc::clone(
                self.compiled
                    .lock()
                    .entry(task_id)
                    .or_insert_with(|| Arc::new(CompiledTe::compile(te))),
            )
        });

        let worker = Worker {
            name: task.name.clone(),
            replica,
            code,
            scratch: Scratch::new(),
            cell,
            route_key,
            outs,
            sink: self.sink_tx.clone(),
            pending_gathers: HashMap::new(),
            gather_var,
            work_ns: self.cfg.work_ns.get(&task_id).copied().unwrap_or(0),
            speed: self.cfg.cluster.speed_of(node as usize),
            alive,
            obs: Arc::clone(&self.instruments[&task_id]),
            e2e: Arc::clone(self.obs.e2e_latency()),
            dedupe: true,
            in_flight: Arc::clone(&self.in_flight),
            work_debt: Duration::ZERO,
            resume_at: None,
            task: task_id,
            heartbeat,
            // A respawned replica shares the original (spent) trigger, so
            // a recovered worker does not re-fail on the replayed item.
            fault: self.injector.trigger_for(task_id, replica),
            hub: Some(Arc::clone(&self.failure_hub)),
        };
        let tx = match &self.pool {
            Some(pool) => MailboxSender::Pool(pool.spawn_actor(worker, self.cfg.channel_capacity)),
            None => {
                let (tx, rx) = bounded::<WorkerMsg>(self.cfg.channel_capacity);
                let handle = std::thread::spawn(move || {
                    // The panic boundary of a dedicated worker thread: a
                    // caught panic is reported to the failure hub (for the
                    // supervisor) instead of dying silently into `join`.
                    // The unwind drops the worker, whose `OutEdge`s repay
                    // any parked batches, and drops `rx`, so producers see
                    // a disconnected channel instead of a wedged queue.
                    let probe = worker.panic_probe();
                    if let Err(payload) =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.run(rx)))
                    {
                        probe.report(payload.as_ref());
                    }
                });
                self.threads.lock().push(handle);
                MailboxSender::Thread(tx)
            }
        };

        let mut own_guard;
        let targets: &mut Vec<MailboxSender> = match slot_override {
            Some(slot) => slot,
            None => {
                own_guard = self.targets[&task_id].write();
                &mut own_guard
            }
        };
        if (replica as usize) < targets.len() {
            targets[replica as usize] = tx;
        } else {
            targets.push(tx);
        }
        Ok(())
    }

    /// All buffers produced by `(edge, src replica)`, regardless of dst.
    fn buffers_from(
        &self,
        edge: EdgeId,
        src: u32,
    ) -> Vec<(
        u32,
        Arc<parking_lot::Mutex<sdg_checkpoint::buffer::OutputBuffer>>,
    )> {
        let mut out = Vec::new();
        // Probe destination replicas 0..current maximum (bounded by 1024).
        let max_dst = self
            .sdg
            .flow(edge)
            .ok()
            .map(|f| self.targets[&f.to].read().len() as u32)
            .unwrap_or(0);
        for dst in 0..max_dst {
            let key = BufferKey { edge, src, dst };
            out.push((dst, self.buffers.get(key)));
        }
        out
    }

    fn find_entry(&self, entry: &str) -> SdgResult<&sdg_graph::model::TaskDecl> {
        self.sdg
            .tasks
            .iter()
            .find(|t| {
                matches!(&t.kind, TaskKind::Entry { method } if method == entry) || t.name == entry
            })
            .ok_or_else(|| SdgError::NotFound(format!("entry point `{entry}`")))
    }

    /// Dispatches one external request into the entry task's instances.
    ///
    /// `src` distinguishes ingest lanes: each submitter handle owns one so
    /// duplicate detection stays per-producer; `ts` must increase per
    /// `(entry, src)`.
    fn ingest_dispatch(
        &self,
        task: &sdg_graph::model::TaskDecl,
        payload: Record,
        corr: u64,
        src: u32,
        ts: sdg_common::time::ScalarTs,
        rr: &mut usize,
    ) -> SdgResult<()> {
        let edge = ingest_edge(task.id);
        let targets = self.targets[&task.id].read();
        let n = targets.len();
        if n == 0 {
            return Err(SdgError::Runtime(format!(
                "entry `{}` has no running instances",
                task.name
            )));
        }
        // Broadcast ingestion for global-access entries, keyed dispatch for
        // partitioned ones, shortest-queue otherwise.
        let idxs: std::ops::Range<usize> = match task.access.as_ref().map(|a| &a.mode) {
            Some(AccessMode::Partitioned { key, .. }) => {
                let k = payload.require(key)?.to_key()?;
                let idx = (k.stable_hash() % n as u64) as usize;
                idx..idx + 1
            }
            Some(AccessMode::PartialGlobal) => 0..n,
            _ => {
                let start = *rr % n;
                *rr = rr.wrapping_add(1);
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
                idx..idx + 1
            }
        };
        let expect = idxs.len() as u32;
        let submitted_at = Some(Instant::now());
        // One refcounted allocation shared across every broadcast target
        // and the output-buffer log — fan-out is a refcount bump.
        let shared = Arc::new(payload);
        for idx in idxs {
            let item = Item {
                edge,
                src_replica: src,
                ts,
                corr,
                expect,
                payload: Arc::clone(&shared),
                submitted_at,
            };
            if self.cfg.checkpoint.enabled {
                let key = BufferKey {
                    edge,
                    src,
                    dst: idx as u32,
                };
                let buf = self.buffers.get(key);
                if self.cfg.checkpoint.deferred_encode {
                    buf.lock().push_live(ts, corr, expect, Arc::clone(&shared));
                } else {
                    buf.lock().push_encoded(ts, item.encode_payload());
                }
            }
            targets[idx]
                .send(WorkerMsg::Item(item))
                .map_err(|_| SdgError::Runtime("entry channel closed".into()))?;
        }
        Ok(())
    }

    fn submit(&self, entry: &str, payload: Record) -> SdgResult<u64> {
        let task = self.find_entry(entry)?;
        let corr = self.corr.fetch_add(1, Ordering::Relaxed);
        // The shared path funnels through one ingest lane (src 0); heavy
        // multi-threaded feeders should use `Deployment::ingest_handle`.
        let (ts, mut rr) = {
            let mut ingest = self.ingest.lock();
            let lane_state = ingest.entry(task.id).or_insert(IngestLane {
                ts: TsGen::new(),
                rr: 0,
            });
            let ts = lane_state.ts.tick();
            lane_state.rr = lane_state.rr.wrapping_add(1);
            (ts, lane_state.rr)
        };
        self.ingest_dispatch(task, payload, corr, 0, ts, &mut rr)?;
        Ok(corr)
    }

    /// The micro-batching configuration for edges into task `to`.
    ///
    /// Batching coalesces consecutive items and reorders their interleaving
    /// with other producers' items, which is only replay-transparent when
    /// the destination TE is certified deterministic — so an uncertified
    /// destination gets eager (unbatched) delivery. Tasks without a
    /// certificate (native code in a translated graph, or a graph with no
    /// report at all) are trusted, preserving pre-verifier behavior.
    fn edge_batch(&self, to: TaskId) -> BatchConfig {
        if self.cfg.trust_annotations {
            return self.cfg.batch;
        }
        let Some(report) = self.sdg.verify.as_deref() else {
            return self.cfg.batch;
        };
        let certified = self
            .sdg
            .task(to)
            .ok()
            .is_none_or(|t| report.te(&t.name).is_none_or(|c| c.deterministic));
        if certified {
            self.cfg.batch
        } else {
            BatchConfig::disabled()
        }
    }

    pub(crate) fn checkpoint_all(&self) -> SdgResult<()> {
        let snapshot: Vec<(StateId, usize)> = self
            .cells
            .read()
            .iter()
            .map(|(&s, v)| (s, v.len()))
            .collect();
        for (state, replicas) in snapshot {
            for replica in 0..replicas {
                let _serial = self.checkpoint_or_recover.lock();
                // Read the cell under the lock: a recovery that ran while
                // we waited replaced it.
                let Some(cell) = self
                    .cells
                    .read()
                    .get(&state)
                    .and_then(|g| g.get(replica).cloned())
                else {
                    continue;
                };
                let seq = self.backup_seq.fetch_add(1, Ordering::Relaxed);
                let label = self.se_label(state, replica as u32);
                // A reconfiguration migrated state into this cell since the
                // last take: the next generation must be a full base, never
                // a delta chained onto the pre-migration ownership.
                let migrated = self.force_full.lock().contains(&(state, replica as u32));
                // Compaction: once the deltas accumulated since the base
                // outweigh `compact_threshold` of its size, force a full
                // generation so restore chains stay short.
                let force_full = migrated || {
                    let backups = self.backups.lock();
                    match backups.get(&(state, replica as u32)) {
                        Some(chain) if chain.len() > 1 => {
                            let base = chain[0].state_bytes.max(1) as f64;
                            let deltas: usize = chain[1..].iter().map(|s| s.state_bytes).sum();
                            deltas as f64 > self.cfg.checkpoint.compact_threshold * base
                        }
                        _ => false,
                    }
                };
                self.obs.record_event(EventKind::CheckpointBegin {
                    instance: label.clone(),
                    seq,
                });
                let set = take_checkpoint_with(
                    &cell,
                    se_instance_id(state, replica as u32),
                    seq,
                    || self.capture_outputs_for(state, replica as u32),
                    &self.stores,
                    &self.cfg.checkpoint,
                    Some(self.obs.checkpoints()),
                    CheckpointOptions { force_full },
                )?;
                self.obs.record_event(EventKind::CheckpointBackup {
                    instance: label.clone(),
                    seq,
                    bytes: set.state_bytes as u64,
                });
                self.obs.record_event(EventKind::CheckpointConsolidate {
                    instance: label,
                    seq,
                });
                if let Ok(decl) = self.sdg.state(state) {
                    self.obs
                        .state_with_id(&decl.name, Some(state))
                        .checkpoints
                        .inc();
                }
                if migrated {
                    self.force_full.lock().remove(&(state, replica as u32));
                }
                // Trim upstream buffers covered by this checkpoint.
                self.trim_for(state, replica as u32, &set);
                // Chain bookkeeping: a base generation supersedes the whole
                // chain (its predecessors' chunks can go); a delta extends
                // it, so everything back to the base stays alive.
                let keep = {
                    let mut backups = self.backups.lock();
                    let chain = backups.entry((state, replica as u32)).or_default();
                    if set.is_base() {
                        chain.clear();
                    }
                    chain.push(set);
                    chain[0].seq
                };
                for store in &self.stores {
                    store.garbage_collect(se_instance_id(state, replica as u32), keep);
                }
            }
        }
        Ok(())
    }

    /// Snapshots the output buffers feeding SE instance `(state, replica)`,
    /// keyed by their dedupe lane so a restored node can match watermarks.
    ///
    /// Runs inside the checkpoint initiation lock. Snapshots are O(items)
    /// refcount bumps (live entries stay un-encoded until the persist
    /// phase seals them), so the lock-held span stays short.
    fn capture_outputs_for(
        &self,
        state: StateId,
        replica: u32,
    ) -> Vec<(EdgeId, Vec<BufferedItem>)> {
        let mut out = Vec::new();
        for task in self.sdg.tasks_accessing(state) {
            let mut edges: Vec<EdgeId> = self.sdg.flows_to(task.id).iter().map(|f| f.id).collect();
            if matches!(task.kind, TaskKind::Entry { .. }) {
                edges.push(ingest_edge(task.id));
            }
            for edge in edges {
                for (src, buf) in self.buffers.buffers_into(edge, replica) {
                    let items = buf.lock().snapshot();
                    if !items.is_empty() {
                        out.push((lane(edge, src), items));
                    }
                }
            }
        }
        out
    }

    /// Trims buffers into `(state, replica)`'s consumer tasks using the
    /// checkpoint's vector watermarks.
    fn trim_for(&self, state: StateId, replica: u32, set: &BackupSet) {
        for task in self.sdg.tasks_accessing(state) {
            let mut edges: Vec<EdgeId> = self.sdg.flows_to(task.id).iter().map(|f| f.id).collect();
            if matches!(task.kind, TaskKind::Entry { .. }) {
                edges.push(ingest_edge(task.id));
            }
            for edge in edges {
                for (src, _) in self.buffers.buffers_into(edge, replica) {
                    let wm = set.vector.get(lane(edge, src));
                    self.buffers.trim(
                        BufferKey {
                            edge,
                            src,
                            dst: replica,
                        },
                        wm,
                    );
                }
            }
        }
        // Bound buffers into stateless consumers.
        let cap = self.buffers.stateless_cap;
        for task in &self.sdg.tasks {
            if task.access.is_none() {
                for flow in self.sdg.flows_to(task.id) {
                    let n = self.targets[&task.id].read().len() as u32;
                    for dst in 0..n {
                        for (src, buf) in self.buffers.buffers_into(flow.id, dst) {
                            let _ = src;
                            buf.lock().cap(cap);
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn fail_and_recover(
        &self,
        state: StateId,
        replica: u32,
    ) -> SdgResult<RecoveryReport> {
        let t0 = Instant::now();
        let _serial = self.checkpoint_or_recover.lock();
        let label = self.se_label(state, replica);
        self.obs.record_event(EventKind::FailureInjected {
            instance: label.clone(),
        });
        let chain = self
            .backups
            .lock()
            .get(&(state, replica))
            .filter(|c| !c.is_empty())
            .cloned();
        // Without a chain, recovery from scratch (empty store, zero
        // watermark, full replay) is sound only while the upstream buffers
        // still hold everything ever sent to this replica: checkpointing
        // must be on (or buffers don't exist), and no reconfiguration may
        // have migrated state into the replica since (the buffers describe
        // the *current* key ownership only from that point on).
        if chain.is_none()
            && (!self.cfg.checkpoint.enabled || self.force_full.lock().contains(&(state, replica)))
        {
            return Err(SdgError::Recovery(format!(
                "no checkpoint recorded for {state}#{replica}; enable checkpointing"
            )));
        }

        // Pause producers into the affected tasks: take their target locks
        // in id order (consistent ordering prevents lock cycles). The locks
        // are held through restore, respawn AND replay: if new traffic ran
        // ahead of the replayed (lower-timestamped) items, the duplicate
        // filter would wrongly discard the replay.
        let mut affected: Vec<TaskId> = self
            .sdg
            .tasks_accessing(state)
            .iter()
            .map(|t| t.id)
            .collect();
        affected.sort();
        let mut guards: Vec<_> = affected.iter().map(|t| self.targets[t].write()).collect();

        // Kill the old instances: their queues drain as discards.
        for &task in &affected {
            if let Some(flag) = self.alive.read().get(&(task, replica)) {
                flag.store(false, Ordering::Release);
            }
        }

        // Restore state from the m backup stores, composing the base
        // generation with any deltas taken since it. The resilient restore
        // routes around corrupt or missing chunks by falling back to the
        // newest intact prefix of the chain; with no chain at all (never
        // checkpointed), recovery rebuilds from an empty store and a zero
        // watermark — replay then reconstructs the state from scratch.
        let restore_t0 = Instant::now();
        let decl = self.sdg.state(state)?.clone();
        let (store, vector, stripe_vectors) = match &chain {
            Some(chain) => {
                let restored = restore_chain_resilient_observed(
                    chain,
                    &self.stores,
                    1,
                    RestoreOptions::default(),
                    Some(self.obs.checkpoints()),
                )?;
                if !restored.fallback_errors.is_empty() {
                    // Corrupt generations were dropped: surface each loss,
                    // then truncate the recorded chain to the prefix that
                    // actually restored, so later deltas can never compose
                    // across the corrupt boundary, and force the next
                    // checkpoint to be a full (non-delta) take.
                    for e in &restored.fallback_errors {
                        self.obs.faults().chunks_corrupt.inc();
                        self.obs.record_event(EventKind::ChunkCorrupt {
                            instance: label.clone(),
                            error: e.to_string(),
                        });
                    }
                    self.obs
                        .recovery()
                        .chain_fallbacks
                        .add(restored.fallback_errors.len() as u64);
                    if let Some(c) = self.backups.lock().get_mut(&(state, replica)) {
                        c.truncate(restored.used + 1);
                    }
                    self.force_full.lock().insert((state, replica));
                }
                let stripe_vectors = chain[restored.used].stripe_vectors.clone();
                let (store, vector) = restored.parts.into_iter().next().expect("n=1 restore");
                (store, vector, stripe_vectors)
            }
            None => (StateStore::new(decl.ty), VectorTs::default(), Vec::new()),
        };
        let (stripes, dim, delta) = cell_layout(&self.cfg, &decl, self.sdg.verify.as_deref());
        // Re-split into stripes with the exact per-stripe vectors recorded
        // at checkpoint time (split_by_hash and stripe routing use the same
        // key hash, so stripe i gets back exactly the keys — and watermarks
        // — it owned). Falling back to the merged (lane-max) vector is
        // exact too: replay only re-sends items past it.
        let new_cell = if stripes > 1 && stripe_vectors.len() == stripes {
            let parts = store.split_by_hash(stripes, dim)?;
            Arc::new(StateCell::from_parts(
                parts
                    .into_iter()
                    .zip(stripe_vectors.iter().cloned())
                    .collect(),
                dim,
                delta,
            ))
        } else {
            Arc::new(StateCell::from_store_striped(
                store,
                vector.clone(),
                stripes,
                dim,
                delta,
            )?)
        };
        self.cells
            .write()
            .get_mut(&state)
            .and_then(|g| {
                g.get_mut(replica as usize)
                    .map(|slot| *slot = Arc::clone(&new_cell))
            })
            .ok_or_else(|| SdgError::NotFound(format!("state instance {state}#{replica}")))?;
        let restore = restore_t0.elapsed();
        self.obs.record_event(EventKind::RecoveryRestored {
            instance: label.clone(),
            took: restore,
        });

        // Respawn workers on a fresh node, swapping senders in through the
        // held guards.
        let node = self.node_cursor.fetch_add(1, Ordering::Relaxed);
        for (i, &task) in affected.iter().enumerate() {
            self.spawn_instance_in(task, replica, node, Some(&mut guards[i]))?;
        }

        // Replay from upstream output buffers past the restored watermarks,
        // still before any producer may send: replayed items must be first
        // in every lane so their (older) timestamps pass the filter.
        let mut replayed = 0usize;
        for (i, &task_id) in affected.iter().enumerate() {
            let task = self.sdg.task(task_id)?;
            let mut edges: Vec<EdgeId> = self.sdg.flows_to(task_id).iter().map(|f| f.id).collect();
            if matches!(task.kind, TaskKind::Entry { .. }) {
                edges.push(ingest_edge(task_id));
            }
            let sender = guards[i][replica as usize].clone();
            for edge in edges {
                for (src, buf) in self.buffers.buffers_into(edge, replica) {
                    let wm = vector.get(lane(edge, src));
                    for buffered in buf.lock().replay_after(wm) {
                        // Live entries re-send the buffered `Arc` directly
                        // (zero decode); only `Encoded` entries — restored
                        // from a checkpoint or logged by the eager
                        // baseline — go through the wire codec.
                        let item = Item::from_buffered(edge, src, buffered)?;
                        // Replay runs while the target write guards are held;
                        // a blocking send could never receive credit (the
                        // pool's producers are paused), so bypass the cap.
                        sender
                            .force_send(WorkerMsg::Item(item))
                            .map_err(|_| SdgError::Runtime("replay channel closed".into()))?;
                        replayed += 1;
                    }
                }
            }
        }
        drop(guards);
        self.obs.checkpoints().replayed.add(replayed as u64);
        self.obs.record_event(EventKind::RecoveryReplayed {
            instance: label.clone(),
            items: replayed as u64,
        });
        let total = t0.elapsed();
        self.obs.record_event(EventKind::RecoveryComplete {
            instance: label,
            took: total,
        });

        Ok(RecoveryReport {
            restore,
            replayed,
            total,
        })
    }

    pub(crate) fn stop_flag(&self) -> &Arc<AtomicBool> {
        &self.stop
    }

    pub(crate) fn stop_wait(&self) -> &StopWait {
        &self.stop_wait
    }

    // ---- supervisor interface (see `crate::fault::run_supervisor`) ----

    pub(crate) fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    pub(crate) fn failure_hub(&self) -> &FailureHub {
        &self.failure_hub
    }

    /// Seed for the supervisor's backoff jitter (0 without a plan).
    pub(crate) fn fault_seed(&self) -> u64 {
        self.cfg.faults.as_ref().map(|p| p.seed).unwrap_or(0)
    }

    pub(crate) fn health_state(&self) -> Health {
        Health::from_u8(self.health.load(Ordering::Acquire))
    }

    /// `Healthy` → `Recovering`; never leaves `Degraded`.
    pub(crate) fn mark_recovering(&self) {
        let _ = self.health.compare_exchange(
            Health::Healthy.as_u8(),
            Health::Recovering.as_u8(),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// `Recovering` → `Healthy`; never leaves `Degraded`.
    pub(crate) fn mark_stable(&self) {
        let _ = self.health.compare_exchange(
            Health::Recovering.as_u8(),
            Health::Healthy.as_u8(),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Terminal escalation.
    pub(crate) fn mark_degraded(&self) {
        self.health
            .store(Health::Degraded.as_u8(), Ordering::Release);
    }

    /// Samples every instance's heartbeat epoch together with what the
    /// supervisor needs to judge it: liveness, queued input, and whether
    /// a stalled epoch can mean a hang at all under the scheduler.
    pub(crate) fn heartbeat_view(&self) -> Vec<HeartbeatView> {
        let heartbeats = self.heartbeats.read();
        let alive = self.alive.read();
        let mut views = Vec::with_capacity(heartbeats.len());
        for (&(task, replica), epoch) in heartbeats.iter() {
            let sender = self
                .targets
                .get(&task)
                .and_then(|t| t.read().get(replica as usize).cloned());
            let Some(sender) = sender else {
                continue; // instance not wired (mid-spawn or retired)
            };
            views.push(HeartbeatView {
                task,
                replica,
                epoch: epoch.load(Ordering::Acquire),
                alive: alive
                    .get(&(task, replica))
                    .is_some_and(|f| f.load(Ordering::Acquire)),
                queued: sender.len(),
                hang_candidate: sender.hang_candidate(),
                label: self.te_label(task, replica),
            });
        }
        views
    }

    /// Label of TE instance `(task, replica)` in event payloads.
    fn te_label(&self, task: TaskId, replica: u32) -> String {
        match self.sdg.task(task) {
            Ok(decl) => format!("{}#{replica}", decl.name),
            Err(_) => format!("{task}#{replica}"),
        }
    }

    /// What recovering the failed instance `(task, replica)` means:
    /// stateful tasks go through fail-and-recover keyed by their SE,
    /// stateless ones are respawned.
    pub(crate) fn recovery_unit(&self, task: TaskId, replica: u32) -> RecoveryUnit {
        match self.sdg.task(task).ok().and_then(|t| t.access.as_ref()) {
            Some(a) => RecoveryUnit::State(a.state, replica),
            None => RecoveryUnit::Task(task, replica),
        }
    }

    pub(crate) fn unit_label(&self, unit: RecoveryUnit) -> String {
        match unit {
            RecoveryUnit::State(state, replica) => self.se_label(state, replica),
            RecoveryUnit::Task(task, replica) => self.te_label(task, replica),
        }
    }

    /// Executes one recovery on behalf of the supervisor.
    pub(crate) fn recover(&self, unit: RecoveryUnit) -> SdgResult<()> {
        match unit {
            RecoveryUnit::State(state, replica) => {
                self.fail_and_recover(state, replica).map(|_| ())
            }
            RecoveryUnit::Task(task, replica) => self.respawn_stateless(task, replica),
        }
    }

    /// Replaces a dead stateless instance with a fresh one on a new node.
    ///
    /// There is no state to restore and no watermark to replay from:
    /// items that were queued in the dead instance's mailbox are covered
    /// by upstream buffers only through a downstream stateful consumer's
    /// recovery; for a purely stateless stretch the respawn restores
    /// liveness, not the lost items (the §5 model: in-flight data on a
    /// failed node is lost, durability comes from checkpoints + replay at
    /// the stateful stages).
    pub(crate) fn respawn_stateless(&self, task: TaskId, replica: u32) -> SdgResult<()> {
        if let Some(flag) = self.alive.read().get(&(task, replica)) {
            flag.store(false, Ordering::Release);
        }
        let node = self.next_node();
        let targets = Arc::clone(
            self.targets
                .get(&task)
                .ok_or_else(|| SdgError::NotFound(format!("task {task}")))?,
        );
        let mut guard = targets.write();
        self.spawn_instance_in(task, replica, node, Some(&mut guard))
    }

    /// Drops every recorded checkpoint chain of `state` and marks its
    /// remaining replicas for a forced full (non-delta) take: a chain
    /// recorded before a repartition describes the old key ownership, so
    /// `restore_chain` must never compose deltas across the migration
    /// boundary. Until the next checkpoint, failure recovery of this state
    /// reports "no checkpoint recorded" rather than restoring stale shards.
    pub(crate) fn invalidate_chains(&self, state: StateId) {
        self.backups.lock().retain(|&(s, _), _| s != state);
        let replicas = self.cells.read().get(&state).map(|g| g.len()).unwrap_or(0);
        let mut force = self.force_full.lock();
        force.retain(|&(s, _)| s != state);
        for replica in 0..replicas as u32 {
            force.insert((state, replica));
        }
    }

    /// Records one scale event in the obs log, the reconfig counters, and
    /// the Fig. 10 timeline.
    pub(crate) fn record_scale(&self, task: TaskId, node: u32, direction: ScaleDirection) {
        let instances = self.targets[&task].read().len() as u32;
        let name = match self.sdg.task(task) {
            Ok(decl) => decl.name.clone(),
            Err(_) => task.to_string(),
        };
        match direction {
            ScaleDirection::Out => {
                self.obs.record_event(EventKind::ScaleOut {
                    task: name,
                    instances,
                    node,
                });
                self.obs.reconfig().scale_outs.inc();
            }
            ScaleDirection::In => {
                self.obs.record_event(EventKind::ScaleIn {
                    task: name,
                    instances,
                    node,
                });
                self.obs.reconfig().scale_ins.inc();
            }
        }
        self.events.lock().push(ScaleEvent {
            at: self.started.elapsed(),
            task,
            instances,
            node,
            direction,
        });
    }

    /// Records one state-migration episode (bytes that changed SE owner).
    pub(crate) fn record_migration(&self, state: StateId, bytes: u64, took: Duration) {
        let name = match self.sdg.state(state) {
            Ok(decl) => decl.name.clone(),
            Err(_) => state.to_string(),
        };
        self.obs.record_event(EventKind::StateMigrated {
            state: name,
            bytes,
            took,
        });
        self.obs.reconfig().migrated_bytes.record(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_ir::analysis::verify::SeCertificate;

    fn decl(ty: StateType, dist: Distribution) -> StateDecl {
        StateDecl {
            id: StateId(0),
            name: "t".into(),
            ty,
            dist,
        }
    }

    fn report(key_local: bool, replay_safe: bool) -> VerifyReport {
        let mut report = VerifyReport::default();
        report.se_certs.insert(
            "t".into(),
            SeCertificate {
                field: "t".into(),
                key_local,
                replay_safe,
                merge_sound: replay_safe,
                violations: Vec::new(),
            },
        );
        report
    }

    fn cfg_with_delta() -> RuntimeConfig {
        let mut cfg = RuntimeConfig {
            state_stripes: 8,
            ..RuntimeConfig::default()
        };
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.incremental = true;
        cfg.checkpoint.delta_chunks = 32;
        cfg
    }

    #[test]
    fn certified_partitioned_table_is_striped_with_deltas() {
        let cfg = cfg_with_delta();
        let d = decl(
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        let (stripes, _, delta) = cell_layout(&cfg, &d, Some(&report(true, true)));
        assert_eq!(stripes, 8);
        assert_eq!(delta, Some(32));
    }

    #[test]
    fn key_locality_violation_forces_one_stripe() {
        let cfg = cfg_with_delta();
        let d = decl(
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        let (stripes, _, delta) = cell_layout(&cfg, &d, Some(&report(false, true)));
        assert_eq!(stripes, 1, "uncertified key locality must not stripe");
        assert_eq!(delta, Some(32), "replay safety is independent of striping");
    }

    #[test]
    fn replay_violation_disables_delta_checkpointing() {
        let cfg = cfg_with_delta();
        let d = decl(
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        let (stripes, _, delta) = cell_layout(&cfg, &d, Some(&report(true, false)));
        assert_eq!(stripes, 8);
        assert_eq!(delta, None, "uncertified replay safety must not cut deltas");
    }

    #[test]
    fn absent_report_and_trust_annotations_are_both_trusted() {
        let mut cfg = cfg_with_delta();
        let d = decl(
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        // Hand-built graphs attach no report: optimizations stay on.
        let (stripes, _, delta) = cell_layout(&cfg, &d, None);
        assert_eq!((stripes, delta), (8, Some(32)));
        // The escape hatch overrides a failing certificate.
        cfg.trust_annotations = true;
        let (stripes, _, delta) = cell_layout(&cfg, &d, Some(&report(false, false)));
        assert_eq!((stripes, delta), (8, Some(32)));
    }

    #[test]
    fn vectors_and_partials_never_stripe() {
        let cfg = cfg_with_delta();
        let vec_decl = decl(
            StateType::Vector,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        assert_eq!(cell_layout(&cfg, &vec_decl, None).0, 1);
        let partial = decl(StateType::Table, Distribution::Partial);
        assert_eq!(cell_layout(&cfg, &partial, None).0, 1);
    }
}
