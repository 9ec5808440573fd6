//! Runtime and cluster configuration.

use std::collections::HashMap;
use std::time::Duration;

use sdg_checkpoint::config::CheckpointConfig;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{StateId, TaskId};

/// One simulated cluster node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Relative processing speed; `1.0` is a normal node, `0.5` takes twice
    /// as long per item (a straggler, §6.3).
    pub speed: f64,
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec { speed: 1.0 }
    }
}

/// The simulated cluster: nodes are allocated in order; when the SDG needs
/// more nodes than specified, extra nodes of speed 1.0 are assumed.
#[derive(Debug, Clone, Default)]
pub struct ClusterSpec {
    /// Node specifications in allocation order.
    pub nodes: Vec<NodeSpec>,
}

impl ClusterSpec {
    /// A uniform cluster of `n` normal-speed nodes.
    pub fn uniform(n: usize) -> Self {
        ClusterSpec {
            nodes: vec![NodeSpec::default(); n],
        }
    }

    /// Returns the speed of node `idx` (1.0 for unspecified nodes).
    pub fn speed_of(&self, idx: usize) -> f64 {
        self.nodes.get(idx).map(|n| n.speed).unwrap_or(1.0)
    }
}

/// Reactive runtime-parallelism settings (§3.3 "Runtime parallelism and
/// stragglers").
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Master switch.
    pub enabled: bool,
    /// How often the monitor samples queue depths.
    pub check_interval: Duration,
    /// A task is a bottleneck when its mean queue depth exceeds this
    /// fraction of channel capacity.
    pub high_watermark: f64,
    /// Consecutive saturated samples before scaling out.
    pub patience: u32,
    /// Upper bound on instances per task.
    pub max_instances: u32,
    /// A scaled-out task is idle when its mean queue depth falls below this
    /// fraction of channel capacity. Must stay below `high_watermark`.
    pub low_watermark: f64,
    /// Consecutive idle samples before scaling in. Deliberately larger than
    /// `patience` by default: scale-in migrates state, so the monitor should
    /// be slower to reclaim than to grow.
    pub idle_patience: u32,
    /// Lower bound on instances per task — scale-in never goes below this.
    pub min_instances: u32,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            enabled: false,
            check_interval: Duration::from_millis(100),
            high_watermark: 0.75,
            patience: 3,
            max_instances: 8,
            low_watermark: 0.1,
            idle_patience: 5,
            min_instances: 1,
        }
    }
}

impl ScalingConfig {
    /// Validates internal consistency of the scaling thresholds.
    pub fn validate(&self) -> SdgResult<()> {
        if !(0.0..=1.0).contains(&self.high_watermark) {
            return Err(SdgError::Config(
                "scaling.high_watermark must be in [0, 1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.low_watermark) {
            return Err(SdgError::Config(
                "scaling.low_watermark must be in [0, 1]".into(),
            ));
        }
        if self.low_watermark >= self.high_watermark {
            return Err(SdgError::Config(
                "scaling.low_watermark must be below high_watermark".into(),
            ));
        }
        if self.min_instances == 0 {
            return Err(SdgError::Config("scaling.min_instances must be ≥ 1".into()));
        }
        if self.min_instances > self.max_instances {
            return Err(SdgError::Config(
                "scaling.min_instances must not exceed max_instances".into(),
            ));
        }
        Ok(())
    }
}

/// The self-healing supervisor: failure detection (caught panics +
/// heartbeat scans) and automatic §5 fail-and-recover with bounded
/// backoff (see [`crate::fault`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Master switch. On by default: with no fault plan and no panics the
    /// supervisor is a parked thread waking `heartbeat_interval`-ly.
    pub enabled: bool,
    /// Heuristic hang detection from stalled heartbeat epochs. Off by
    /// default: an instance legitimately blocked on downstream
    /// backpressure for `heartbeat_interval × miss_threshold` is
    /// indistinguishable from a hung one, so this is opt-in for chaos
    /// tests and deployments that tune the threshold to their topology.
    /// Panic detection is precise and always on with the supervisor.
    pub hang_detection: bool,
    /// Supervisor scan period (and heartbeat staleness unit).
    pub heartbeat_interval: Duration,
    /// Consecutive stalled scans before an instance is declared hung.
    pub miss_threshold: u32,
    /// Recovery attempts per failed instance before escalating to the
    /// terminal `Degraded` health state.
    pub max_attempts: u32,
    /// First retry backoff; doubles per attempt (with jitter).
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff. Must be ≥ `backoff_base`.
    pub backoff_cap: Duration,
    /// Storm guard: recoveries driven per scan, at most.
    pub max_concurrent_recoveries: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            enabled: true,
            hang_detection: false,
            heartbeat_interval: Duration::from_millis(20),
            miss_threshold: 10,
            max_attempts: 5,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            max_concurrent_recoveries: 1,
        }
    }
}

impl SupervisorConfig {
    /// Validates internal consistency of the supervisor settings.
    pub fn validate(&self) -> SdgResult<()> {
        if self.heartbeat_interval.is_zero() {
            return Err(SdgError::Config(
                "supervisor.heartbeat_interval must be positive".into(),
            ));
        }
        if self.miss_threshold == 0 {
            return Err(SdgError::Config(
                "supervisor.miss_threshold must be ≥ 1".into(),
            ));
        }
        if self.max_attempts == 0 {
            return Err(SdgError::Config(
                "supervisor.max_attempts must be ≥ 1".into(),
            ));
        }
        if self.backoff_cap < self.backoff_base {
            return Err(SdgError::Config(
                "supervisor.backoff_cap must be ≥ backoff_base".into(),
            ));
        }
        if self.max_concurrent_recoveries == 0 {
            return Err(SdgError::Config(
                "supervisor.max_concurrent_recoveries must be ≥ 1".into(),
            ));
        }
        Ok(())
    }
}

/// Which execution engine runs translated (StateLang) TE code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Deploy-time slot compilation: names are interned into per-TE symbol
    /// tables, the per-item environment is a reused flat register file.
    /// The default.
    #[default]
    Compiled,
    /// The tree-walking reference interpreter over a `HashMap` environment.
    /// Slower; kept as the semantic baseline and for debugging.
    Reference,
}

impl ExecEngine {
    /// Reads `SDG_ENGINE` (`compiled` | `reference`, case-insensitive);
    /// unset or unrecognised values fall back to [`ExecEngine::Compiled`].
    pub fn from_env() -> Self {
        match std::env::var("SDG_ENGINE") {
            Ok(v) if v.eq_ignore_ascii_case("reference") => ExecEngine::Reference,
            _ => ExecEngine::Compiled,
        }
    }
}

/// Which scheduler hosts TE instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// One dedicated OS thread per TE instance. The reference
    /// implementation: simple, but deployment cost and context-switch
    /// pressure grow linearly with replica count.
    Threads,
    /// Work-stealing cooperative executor: every TE instance becomes an
    /// actor with a serial mailbox, multiplexed onto
    /// [`RuntimeConfig::sched_threads`] pool workers (see
    /// [`crate::sched`]). Ordering and dedupe semantics are identical to
    /// [`SchedulerMode::Threads`]; modelled service time suspends the
    /// actor on a timer instead of holding a pool worker. The default.
    #[default]
    Pool,
}

impl SchedulerMode {
    /// Reads `SDG_SCHED` (`threads` | `pool`, case-insensitive); unset or
    /// unrecognised values fall back to [`SchedulerMode::Pool`].
    pub fn from_env() -> Self {
        Self::resolve(std::env::var("SDG_SCHED").ok().as_deref())
    }

    /// Resolves an `SDG_SCHED` value (`None` when unset).
    fn resolve(var: Option<&str>) -> Self {
        match var {
            Some(v) if v.eq_ignore_ascii_case("threads") => SchedulerMode::Threads,
            _ => SchedulerMode::Pool,
        }
    }
}

/// Edge micro-batching settings.
///
/// Producers coalesce consecutive items per (edge, destination replica)
/// into one channel message and one output-buffer append, flushing when
/// `max_items` accumulate, when the oldest pending item has waited
/// `linger`, or at shutdown. `max_items = 1` disables batching (each item
/// is sent eagerly, the pre-batching behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush a destination's pending batch at this size. `1` disables
    /// batching.
    pub max_items: usize,
    /// Flush pending batches when the oldest pending item has waited this
    /// long (bounds added latency under low load).
    pub linger: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_items: 1,
            linger: Duration::from_millis(1),
        }
    }
}

impl BatchConfig {
    /// Batching disabled: every item is sent eagerly.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Batch up to `max_items` with the default 1 ms linger.
    pub fn with_max_items(max_items: usize) -> Self {
        BatchConfig {
            max_items,
            ..Default::default()
        }
    }
}

/// Full runtime configuration for one deployment.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Bounded channel capacity between TE instances (pipelining with
    /// backpressure).
    pub channel_capacity: usize,
    /// Initial SE instance counts: partitions for partitioned SEs, replica
    /// count for partial SEs. Defaults to 1.
    pub se_instances: HashMap<StateId, usize>,
    /// Initial instance counts for stateless tasks. Defaults to 1.
    pub task_instances: HashMap<TaskId, usize>,
    /// Synthetic per-item CPU cost per task, in nanoseconds, divided by the
    /// hosting node's speed. Models the computational cost of TEs.
    pub work_ns: HashMap<TaskId, u64>,
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// Reactive scaling settings.
    pub scaling: ScalingConfig,
    /// Checkpointing settings.
    pub checkpoint: CheckpointConfig,
    /// Bound on the deployment's structured observability event log
    /// (oldest events are evicted past this).
    pub event_log_capacity: usize,
    /// Which engine executes translated TE code. Defaults to the
    /// slot-compiled engine, overridable per process with
    /// `SDG_ENGINE=reference`.
    pub engine: ExecEngine,
    /// Which scheduler hosts TE instances. Defaults to the work-stealing
    /// pool, overridable per process with `SDG_SCHED=threads`.
    pub scheduler: SchedulerMode,
    /// Pool workers when `scheduler` is [`SchedulerMode::Pool`]; ignored
    /// under [`SchedulerMode::Threads`].
    pub sched_threads: usize,
    /// Edge micro-batching settings (default: disabled).
    pub batch: BatchConfig,
    /// Lock stripes per partitioned SE instance. Accessing tasks route each
    /// item to the stripe owning its key, so replicas of one SE group and
    /// the checkpoint coordinator contend per-stripe instead of on one cell
    /// mutex. `1` restores the single-mutex cell; partial and vector SEs
    /// always use one stripe.
    pub state_stripes: usize,
    /// Trust the program's annotations instead of the `sdg-verify`
    /// certificates. By default (`false`), striping, edge micro-batching
    /// and incremental checkpointing are enabled only for elements whose
    /// certificates hold; setting this to `true` restores the
    /// pre-verifier behavior where the annotations alone are believed.
    /// Graphs without an attached report (hand-built, native tasks) are
    /// always trusted — there is nothing to check them against.
    pub trust_annotations: bool,
    /// Self-healing supervisor settings (failure detection and automatic
    /// recovery).
    pub supervisor: SupervisorConfig,
    /// Deterministic fault plan for chaos runs; `None` (the default)
    /// injects nothing.
    pub faults: Option<crate::fault::FaultPlan>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            channel_capacity: 1024,
            se_instances: HashMap::new(),
            task_instances: HashMap::new(),
            work_ns: HashMap::new(),
            cluster: ClusterSpec::default(),
            scaling: ScalingConfig::default(),
            checkpoint: CheckpointConfig::disabled(),
            event_log_capacity: sdg_common::obs::DEFAULT_EVENT_CAPACITY,
            engine: ExecEngine::from_env(),
            scheduler: SchedulerMode::from_env(),
            sched_threads: 4,
            batch: BatchConfig::default(),
            state_stripes: 16,
            trust_annotations: false,
            supervisor: SupervisorConfig::default(),
            faults: None,
        }
    }
}

impl RuntimeConfig {
    /// Starts a chained builder from the default configuration:
    ///
    /// ```
    /// use sdg_runtime::config::RuntimeConfig;
    /// use sdg_common::ids::TaskId;
    ///
    /// let cfg = RuntimeConfig::builder()
    ///     .nodes(4)
    ///     .channel_capacity(64)
    ///     .work_ns(TaskId(0), 50_000)
    ///     .build();
    /// assert_eq!(cfg.cluster.nodes.len(), 4);
    /// ```
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> SdgResult<()> {
        if self.channel_capacity == 0 {
            return Err(SdgError::Config("channel_capacity must be ≥ 1".into()));
        }
        if self.event_log_capacity == 0 {
            return Err(SdgError::Config("event_log_capacity must be ≥ 1".into()));
        }
        for (&se, &n) in &self.se_instances {
            if n == 0 {
                return Err(SdgError::Config(format!("state {se} needs ≥ 1 instance")));
            }
            if n > 1024 {
                return Err(SdgError::Config(format!(
                    "state {se}: at most 1024 instances are supported"
                )));
            }
        }
        for (&t, &n) in &self.task_instances {
            if n == 0 || n > 1024 {
                return Err(SdgError::Config(format!(
                    "task {t}: instance count must be in 1..=1024"
                )));
            }
        }
        if self.batch.max_items == 0 {
            return Err(SdgError::Config(
                "batch.max_items must be ≥ 1 (1 disables batching)".into(),
            ));
        }
        if self.batch.max_items > self.channel_capacity.saturating_mul(1024) {
            return Err(SdgError::Config(
                "batch.max_items is implausibly large".into(),
            ));
        }
        if self.state_stripes == 0 || self.state_stripes > 1024 {
            return Err(SdgError::Config("state_stripes must be in 1..=1024".into()));
        }
        if self.sched_threads == 0 || self.sched_threads > 256 {
            return Err(SdgError::Config("sched_threads must be in 1..=256".into()));
        }
        self.scaling.validate()?;
        self.supervisor.validate()?;
        self.checkpoint.validate()
    }
}

/// Chained builder for [`RuntimeConfig`] (see [`RuntimeConfig::builder`]).
#[derive(Debug, Clone)]
pub struct RuntimeConfigBuilder {
    cfg: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Sets the bounded channel capacity between TE instances.
    pub fn channel_capacity(mut self, n: usize) -> Self {
        self.cfg.channel_capacity = n;
        self
    }

    /// Uses a uniform cluster of `n` normal-speed nodes.
    pub fn nodes(mut self, n: usize) -> Self {
        self.cfg.cluster = ClusterSpec::uniform(n);
        self
    }

    /// Uses an explicit cluster specification.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cfg.cluster = cluster;
        self
    }

    /// Sets the initial SE instance count of `state`.
    pub fn se_instances(mut self, state: StateId, n: usize) -> Self {
        self.cfg.se_instances.insert(state, n);
        self
    }

    /// Sets the initial instance count of stateless `task`.
    pub fn task_instances(mut self, task: TaskId, n: usize) -> Self {
        self.cfg.task_instances.insert(task, n);
        self
    }

    /// Sets the synthetic per-item CPU cost of `task` in nanoseconds.
    pub fn work_ns(mut self, task: TaskId, ns: u64) -> Self {
        self.cfg.work_ns.insert(task, ns);
        self
    }

    /// Replaces the reactive-scaling settings.
    pub fn scaling(mut self, scaling: ScalingConfig) -> Self {
        self.cfg.scaling = scaling;
        self
    }

    /// Replaces the checkpointing settings.
    pub fn checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.cfg.checkpoint = checkpoint;
        self
    }

    /// Bounds the structured observability event log.
    pub fn event_log_capacity(mut self, n: usize) -> Self {
        self.cfg.event_log_capacity = n;
        self
    }

    /// Selects the execution engine for translated TE code.
    pub fn engine(mut self, engine: ExecEngine) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Selects the scheduler hosting TE instances.
    pub fn scheduler(mut self, scheduler: SchedulerMode) -> Self {
        self.cfg.scheduler = scheduler;
        self
    }

    /// Sets the pool worker count for [`SchedulerMode::Pool`].
    pub fn sched_threads(mut self, n: usize) -> Self {
        self.cfg.sched_threads = n;
        self
    }

    /// Replaces the edge micro-batching settings.
    pub fn batch(mut self, batch: BatchConfig) -> Self {
        self.cfg.batch = batch;
        self
    }

    /// Sets the lock-stripe count of partitioned SE instances.
    pub fn state_stripes(mut self, n: usize) -> Self {
        self.cfg.state_stripes = n;
        self
    }

    /// Trusts annotations over `sdg-verify` certificates (escape hatch).
    pub fn trust_annotations(mut self, trust: bool) -> Self {
        self.cfg.trust_annotations = trust;
        self
    }

    /// Replaces the self-healing supervisor settings.
    pub fn supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.cfg.supervisor = supervisor;
        self
    }

    /// Installs a deterministic fault plan for chaos runs.
    pub fn faults(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Finishes the chain. Consistency is still checked by
    /// [`RuntimeConfig::validate`] at deploy time.
    pub fn build(self) -> RuntimeConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        RuntimeConfig::default().validate().unwrap();
    }

    #[test]
    fn builder_chains_every_knob() {
        let cfg = RuntimeConfig::builder()
            .channel_capacity(32)
            .nodes(4)
            .se_instances(StateId(1), 2)
            .task_instances(TaskId(2), 3)
            .work_ns(TaskId(2), 10_000)
            .scaling(ScalingConfig {
                enabled: true,
                ..Default::default()
            })
            .checkpoint(CheckpointConfig::default())
            .event_log_capacity(64)
            .build();
        assert_eq!(cfg.channel_capacity, 32);
        assert_eq!(cfg.cluster.nodes.len(), 4);
        assert_eq!(cfg.se_instances[&StateId(1)], 2);
        assert_eq!(cfg.task_instances[&TaskId(2)], 3);
        assert_eq!(cfg.work_ns[&TaskId(2)], 10_000);
        assert!(cfg.scaling.enabled && cfg.checkpoint.enabled);
        assert_eq!(cfg.event_log_capacity, 64);
        cfg.validate().unwrap();
    }

    #[test]
    fn zero_event_log_capacity_is_rejected() {
        let cfg = RuntimeConfig::builder().event_log_capacity(0).build();
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn batch_config_validation() {
        let cfg = RuntimeConfig::builder()
            .batch(BatchConfig {
                max_items: 0,
                linger: Duration::from_millis(1),
            })
            .build();
        assert!(cfg.validate().is_err());

        let cfg = RuntimeConfig::builder()
            .batch(BatchConfig::with_max_items(16))
            .engine(ExecEngine::Reference)
            .build();
        cfg.validate().unwrap();
        assert_eq!(cfg.batch.max_items, 16);
        assert_eq!(cfg.engine, ExecEngine::Reference);
        assert_eq!(BatchConfig::disabled().max_items, 1);
    }

    #[test]
    fn cluster_speed_defaults_to_one() {
        let c = ClusterSpec {
            nodes: vec![NodeSpec { speed: 0.5 }],
        };
        assert_eq!(c.speed_of(0), 0.5);
        assert_eq!(c.speed_of(7), 1.0);
        assert_eq!(ClusterSpec::uniform(3).nodes.len(), 3);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = RuntimeConfig {
            channel_capacity: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let mut c = RuntimeConfig::default();
        c.se_instances.insert(StateId(0), 0);
        assert!(c.validate().is_err());

        let mut c = RuntimeConfig::default();
        c.se_instances.insert(StateId(0), 4096);
        assert!(c.validate().is_err());

        let mut c = RuntimeConfig::default();
        c.task_instances.insert(TaskId(0), 0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn scaling_thresholds_are_validated() {
        ScalingConfig::default().validate().unwrap();

        let cfg = RuntimeConfig::builder()
            .scaling(ScalingConfig {
                low_watermark: 0.9, // above high_watermark (0.75)
                ..Default::default()
            })
            .build();
        assert!(cfg.validate().is_err());

        let cfg = RuntimeConfig::builder()
            .scaling(ScalingConfig {
                min_instances: 0,
                ..Default::default()
            })
            .build();
        assert!(cfg.validate().is_err());

        let cfg = RuntimeConfig::builder()
            .scaling(ScalingConfig {
                min_instances: 9,
                max_instances: 8,
                ..Default::default()
            })
            .build();
        assert!(cfg.validate().is_err());

        let cfg = RuntimeConfig::builder()
            .scaling(ScalingConfig {
                enabled: true,
                low_watermark: 0.05,
                idle_patience: 2,
                min_instances: 2,
                ..Default::default()
            })
            .build();
        cfg.validate().unwrap();
        assert_eq!(cfg.scaling.idle_patience, 2);
    }

    #[test]
    fn scheduler_defaults_to_the_pool() {
        assert_eq!(SchedulerMode::default(), SchedulerMode::Pool);
        assert_eq!(SchedulerMode::resolve(None), SchedulerMode::Pool);
        assert_eq!(SchedulerMode::resolve(Some("pool")), SchedulerMode::Pool);
        assert_eq!(SchedulerMode::resolve(Some("bogus")), SchedulerMode::Pool);
        assert_eq!(
            SchedulerMode::resolve(Some("threads")),
            SchedulerMode::Threads
        );
        assert_eq!(
            SchedulerMode::resolve(Some("THREADS")),
            SchedulerMode::Threads
        );
        // The default config follows the environment: the pool when
        // `SDG_SCHED` is unset, the reference path under
        // `SDG_SCHED=threads`.
        assert_eq!(
            RuntimeConfig::default().scheduler,
            SchedulerMode::from_env()
        );
        if std::env::var_os("SDG_SCHED").is_none() {
            assert_eq!(RuntimeConfig::default().scheduler, SchedulerMode::Pool);
        }
    }

    #[test]
    fn scheduler_config_validation() {
        assert_eq!(RuntimeConfig::default().sched_threads, 4);
        let cfg = RuntimeConfig::builder()
            .scheduler(SchedulerMode::Pool)
            .sched_threads(2)
            .build();
        assert_eq!(cfg.scheduler, SchedulerMode::Pool);
        assert_eq!(cfg.sched_threads, 2);
        cfg.validate().unwrap();
        assert!(RuntimeConfig::builder()
            .sched_threads(0)
            .build()
            .validate()
            .is_err());
        assert!(RuntimeConfig::builder()
            .sched_threads(512)
            .build()
            .validate()
            .is_err());
    }

    #[test]
    fn supervisor_config_validation() {
        SupervisorConfig::default().validate().unwrap();
        assert!(RuntimeConfig::default().supervisor.enabled);
        assert!(!RuntimeConfig::default().supervisor.hang_detection);
        assert!(RuntimeConfig::default().faults.is_none());

        let cases = [
            SupervisorConfig {
                heartbeat_interval: Duration::ZERO,
                ..Default::default()
            },
            SupervisorConfig {
                miss_threshold: 0,
                ..Default::default()
            },
            SupervisorConfig {
                max_attempts: 0,
                ..Default::default()
            },
            SupervisorConfig {
                backoff_base: Duration::from_millis(100),
                backoff_cap: Duration::from_millis(50),
                ..Default::default()
            },
            SupervisorConfig {
                max_concurrent_recoveries: 0,
                ..Default::default()
            },
        ];
        for bad in cases {
            let cfg = RuntimeConfig::builder().supervisor(bad.clone()).build();
            assert!(cfg.validate().is_err(), "accepted invalid {bad:?}");
        }

        let cfg = RuntimeConfig::builder()
            .supervisor(SupervisorConfig {
                hang_detection: true,
                heartbeat_interval: Duration::from_millis(5),
                miss_threshold: 3,
                ..Default::default()
            })
            .faults(crate::fault::FaultPlan::seeded(11).with_worker_panic("bump_0", 0, 40))
            .build();
        cfg.validate().unwrap();
        assert_eq!(cfg.supervisor.miss_threshold, 3);
        assert!(!cfg.faults.as_ref().unwrap().is_noop());
    }

    #[test]
    fn state_stripes_validation() {
        assert_eq!(RuntimeConfig::default().state_stripes, 16);
        let cfg = RuntimeConfig::builder().state_stripes(4).build();
        assert_eq!(cfg.state_stripes, 4);
        cfg.validate().unwrap();
        assert!(RuntimeConfig::builder()
            .state_stripes(0)
            .build()
            .validate()
            .is_err());
        assert!(RuntimeConfig::builder()
            .state_stripes(2048)
            .build()
            .validate()
            .is_err());
    }
}
