//! # sinw-server — ATPG as a service
//!
//! Service layer of the DATE'15 reproduction *"Fault Modeling in
//! Controllable Polarity Silicon Nanowire Circuits"*: the first step from
//! batch drivers to a persistent system. Every batch driver in the
//! workspace re-runs the same front half — parse `.bench`, map onto the
//! CP cell library, enumerate and collapse the stuck-at universe, build
//! the levelized [`SimGraph`] — before a single pattern is simulated.
//! Served at scale, that front half *is* the hot path, so this crate
//! caches it:
//!
//! * [`registry`] — the **compiled-circuit registry**
//!   ([`CircuitRegistry`]): parse → map → collapse → graph-build runs
//!   once per distinct source, keyed by a content hash, and every later
//!   request shares the same immutable [`CompiledCircuit`] artifact
//!   through an [`Arc`](std::sync::Arc). Hit / miss / compile counters
//!   make the "exactly one compile" contract observable (and testable).
//! * [`snapshot`] — the versioned binary **`.sinw` snapshot format**
//!   (magic + version + checksum): circuits, fault universes, collapsed
//!   classes, and [`FaultDictionary`] instances survive process restarts
//!   without re-parsing `.bench` text. Decoding is fully defensive —
//!   truncated, corrupted, or fuzzed bytes produce a typed
//!   [`SnapshotError`], never a panic or an unbounded allocation.
//! * [`jobs`] — the bounded **job engine** ([`JobEngine`]): a fixed pool
//!   of workers multiplexing concurrent fault-sim / signature-capture /
//!   campaign / diagnosis requests over shared compiled artifacts, with
//!   per-job progress, cooperative cancellation, and graceful drain on
//!   shutdown. Heavy jobs fan out internally over the same work-stealing
//!   chunk queue ([`sinw_atpg::steal::WorkQueue`]) as the PPSFP engines,
//!   with the same determinism argument: chunk boundaries are a pure
//!   function of the input, so results are bit-identical to direct
//!   serial engine calls no matter how chunks migrate between workers.
//!
//! A service that runs long enough meets every failure its parts can
//! produce, so the crate also carries a **robustness layer**:
//!
//! * [`failpoint`] — a **deterministic fault-injection harness**: named
//!   fail points threaded through compile, snapshot-I/O, and job-chunk
//!   paths inject panics, I/O errors, and delays under seeded,
//!   per-point triggers (configured in code or via the
//!   `SINW_FAILPOINTS` environment variable), with a single relaxed
//!   atomic load as the entire disabled-path cost.
//! * [`jobs`] hardening — job bodies run under `catch_unwind` (a panic
//!   becomes a typed [`JobOutcome::Failed`], never a dead worker),
//!   workers that do die are respawned, and a per-job [`JobPolicy`]
//!   adds deadlines ([`JobOutcome::TimedOut`]) and bounded
//!   retry-with-backoff for transient faults.
//! * [`store`] — the **crash-safe [`SnapshotStore`]**: atomic
//!   temp-file + fsync + rename writes, a boot-time recovery scan that
//!   quarantines corrupt files instead of panicking, and registry
//!   warm-start with zero compiles.
//! * [`registry`] capacity — a byte-accounted LRU bound
//!   ([`CircuitRegistry::with_capacity_bytes`]) with typed
//!   [`RegistryError`]s; eviction never invalidates an
//!   [`Arc`](std::sync::Arc) already handed to a job.
//!
//! ```
//! use sinw_server::registry::CircuitRegistry;
//! use sinw_switch::iscas::CSA16_BENCH;
//!
//! let registry = CircuitRegistry::new();
//! let cold = registry.register_bench("csa16", CSA16_BENCH).unwrap();
//! let hit = registry.register_bench("csa16", CSA16_BENCH).unwrap();
//! assert!(std::sync::Arc::ptr_eq(&cold, &hit), "one artifact, shared");
//! assert_eq!(registry.stats().compiles, 1, "the hit compiled nothing");
//! ```
//!
//! [`SimGraph`]: sinw_atpg::SimGraph
//! [`FaultDictionary`]: sinw_atpg::FaultDictionary
//! [`CircuitRegistry`]: registry::CircuitRegistry
//! [`CompiledCircuit`]: registry::CompiledCircuit
//! [`SnapshotError`]: snapshot::SnapshotError
//! [`JobEngine`]: jobs::JobEngine
//! [`JobOutcome::Failed`]: jobs::JobOutcome::Failed
//! [`JobOutcome::TimedOut`]: jobs::JobOutcome::TimedOut
//! [`JobPolicy`]: jobs::JobPolicy
//! [`SnapshotStore`]: store::SnapshotStore
//! [`RegistryError`]: registry::RegistryError
//! [`CircuitRegistry::with_capacity_bytes`]: registry::CircuitRegistry::with_capacity_bytes

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod failpoint;
pub mod jobs;
pub mod registry;
pub mod snapshot;
pub mod store;

pub use jobs::{JobEngine, JobHandle, JobOutcome, JobPolicy, JobProgress, JobSpec};
pub use registry::{
    compile_circuit, CircuitRegistry, CompiledCircuit, RegistryError, RegistryStats,
};
pub use snapshot::{Snapshot, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use store::{RecoveryReport, SnapshotStore, WarmStartReport};
