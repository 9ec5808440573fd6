//! Pipelined data-parallel execution engine for stateful dataflow graphs.
//!
//! The engine materialises an [`sdg_graph::Sdg`] onto a simulated cluster
//! (§3.3): every TE instance is a worker thread with a bounded input
//! channel (pipelining and backpressure, never scheduling), SE instances
//! are [`sdg_checkpoint::StateCell`]s colocated with the TE instances that
//! access them, and dataflow edges are implemented by dispatchers on the
//! producer side (hash-partitioned, round-robin, broadcast, or all-to-one
//! gather with a synchronisation barrier).
//!
//! Runtime features:
//!
//! - **deploy-time slot compilation** of translated StateLang TE code
//!   ([`compile`], the default engine): variable names are interned into
//!   per-TE symbol tables at deploy time and the per-item environment is a
//!   reused flat register file — the analogue of the paper's Javassist
//!   bytecode generation step (§4.2 step 6);
//! - a **reference tree-walking interpreter** ([`interp`]) kept as the
//!   semantic baseline and debug engine
//!   (select with [`config::ExecEngine::Reference`] or `SDG_ENGINE=reference`);
//! - a **work-stealing cooperative scheduler** ([`sched`]): every TE
//!   instance becomes an actor with a serial mailbox multiplexed onto a
//!   fixed pool of workers, so replica counts can exceed core counts
//!   without one OS thread each. It is the default; thread-per-replica
//!   remains the reference ([`config::SchedulerMode::Threads`] or
//!   `SDG_SCHED=threads`);
//! - **edge micro-batching** ([`config::BatchConfig`]): producers coalesce
//!   items per (edge, destination) and flush on a size bound, linger
//!   timeout, or shutdown, amortising channel and output-buffer locking;
//! - **reactive scaling** (§3.3): a monitor watches queue depths and adds
//!   TE instances (and partial/partitioned SE instances) when a task
//!   becomes a bottleneck or a node straggles, and removes them again —
//!   live-migrating their state into the survivors — when the queues stay
//!   idle ([`scaling`]);
//! - a **typed reconfiguration control plane** ([`reconfig`]):
//!   [`deploy::Deployment::reconfigure`] executes scale-out, scale-in,
//!   checkpoint and failure-injection requests and returns a uniform
//!   report with timings, migrated bytes and resulting instance counts;
//! - **failure recovery** (§5): periodic asynchronous checkpoints, output
//!   buffers with trimming, node-failure injection, parallel restore and
//!   replay with timestamp-based duplicate filtering ([`deploy`]);
//! - a **self-healing supervisor** ([`fault`]): deterministic seeded
//!   fault injection (worker panics/stalls, backup-store I/O errors and
//!   torn writes), panic capture at both scheduler boundaries plus
//!   heartbeat-epoch hang detection, and automatic fail-and-recover with
//!   exponential backoff, jitter, a recovery storm guard and escalation
//!   to a terminal `Degraded` health state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod config;
pub mod deploy;
pub mod fault;
pub mod interp;
pub mod item;
pub mod reconfig;
pub mod scaling;
pub mod sched;
pub mod worker;

pub use compile::{run_compiled, Scratch};
pub use config::{
    BatchConfig, ClusterSpec, ExecEngine, NodeSpec, RuntimeConfig, ScalingConfig, SchedulerMode,
    SupervisorConfig,
};
pub use deploy::{Deployment, OutputEvent};
pub use fault::{FaultAction, FaultPlan, Health, WorkerFault};
pub use item::Item;
pub use reconfig::{ReconfigReport, ReconfigRequest};
pub use scaling::{ScaleDirection, ScaleEvent};
