//! The bounded job engine: a fixed worker pool multiplexing concurrent
//! ATPG-stack requests over shared compiled artifacts — with panic
//! isolation, deadlines, and bounded retries.
//!
//! A [`JobEngine`] owns `workers` OS threads and a FIFO queue of
//! [`JobSpec`]s. [`JobEngine::submit`] is non-blocking and returns a
//! [`JobHandle`] carrying per-job progress, cooperative cancellation,
//! and blocking [`JobHandle::wait`] / bounded
//! [`JobHandle::wait_timeout`]. [`JobEngine::shutdown`] (and `Drop`)
//! performs a **graceful drain**: no new submissions are accepted, every
//! job already queued still runs to completion, and the worker threads
//! are joined.
//!
//! ## Fault isolation
//!
//! Every job body runs under `catch_unwind`: a panic (a bug, or one
//! injected through the [`jobs.*`](crate::failpoint) fail points)
//! becomes a typed [`JobOutcome::Failed`] and the worker survives to
//! take the next job. Should a worker thread nonetheless die (the
//! `jobs.worker.die` fail point models this deliberately outside the
//! isolation boundary), two guards contain the damage: the in-flight
//! job is resolved to `Failed` rather than hanging its waiters, and the
//! pool **respawns** a replacement worker ([`JobEngine::respawns`]
//! counts them) so capacity never decays.
//!
//! ## Deadlines and retries
//!
//! [`JobEngine::submit_with`] attaches a [`JobPolicy`]: an optional
//! deadline (measured from submission; enforced cooperatively at the
//! same chunk-claim boundaries as cancellation, resolving to
//! [`JobOutcome::TimedOut`]) and a bounded retry budget with exponential
//! backoff for **transient** failures — injected I/O faults from the
//! fail-point framework. Panics and validation failures are permanent
//! and never retried. Campaign and diagnosis jobs are single-chunk (the
//! campaign engine owns its own internal loop), so for them deadline
//! and cancellation take effect at pickup and between retries only.
//!
//! ## Determinism
//!
//! Heavy jobs (fault simulation, signature capture) fan out internally
//! over the same work-stealing chunk queue
//! ([`sinw_atpg::steal::WorkQueue`]) as the PPSFP engines. The chunk
//! boundaries are a pure function of the fault-list length, each chunk
//! is simulated independently (per-fault detection and first-detection
//! credit do not depend on any other fault in the list), and the merge
//! walks chunks in index order — so a job's outcome is **bit-identical**
//! to the direct serial engine call on the whole fault list, no matter
//! how many threads ran it, how chunks migrated between them, or how
//! many transient-failure retries preceded the successful attempt.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sinw_atpg::diagnose::{DiagnosisReport, FaultDictionary};
use sinw_atpg::faultsim::{
    capture_signatures_with, simulate_faults_with, FaultSimReport, SignatureMatrix, SimOptions,
};
use sinw_atpg::steal::WorkQueue;
use sinw_atpg::tpg::{AtpgConfig, AtpgEngine, AtpgReport};

use crate::failpoint::{self, InjectedError};
use crate::registry::{panic_reason, CompiledCircuit};

/// Fault-list chunk size for intra-job fan-out. Small enough that
/// progress, cancellation, and deadlines have real granularity on the
/// workspace's fixture circuits, large enough that per-chunk overhead is
/// noise.
const JOB_CHUNK: usize = 32;

/// Ceiling on a single retry backoff sleep, whatever the exponential
/// schedule asks for.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// Poison-tolerant lock: a panicking job must never wedge the engine.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A unit of work for the engine. Compiled artifacts travel as
/// [`Arc`]s, so a thousand queued jobs against the same circuit share
/// one artifact.
#[derive(Clone)]
pub enum JobSpec {
    /// PPSFP fault simulation of the compiled circuit's collapsed
    /// representatives against a pattern set.
    FaultSim {
        /// The registry artifact to simulate.
        compiled: Arc<CompiledCircuit>,
        /// Patterns, one `bool` per primary input each.
        patterns: Arc<Vec<Vec<bool>>>,
        /// Drop faults after first detection.
        drop_detected: bool,
        /// Intra-job worker threads (clamped to ≥ 1).
        threads: usize,
    },
    /// Full per-fault × per-pattern × per-output signature capture over
    /// the collapsed representatives.
    Signatures {
        /// The registry artifact to capture against.
        compiled: Arc<CompiledCircuit>,
        /// Patterns, one `bool` per primary input each.
        patterns: Arc<Vec<Vec<bool>>>,
        /// Intra-job worker threads (clamped to ≥ 1).
        threads: usize,
    },
    /// A full ATPG campaign (random + deterministic phases) over the
    /// collapsed representatives.
    Campaign {
        /// The registry artifact to target.
        compiled: Arc<CompiledCircuit>,
        /// Campaign configuration (seed, phase limits, backtrack cap).
        config: AtpgConfig,
    },
    /// Dictionary lookup of an observed failure set.
    Diagnosis {
        /// The class-compressed dictionary to match against.
        dictionary: Arc<FaultDictionary>,
        /// Observed failing `(pattern, output)` probes.
        observations: Vec<(usize, usize)>,
    },
}

/// Terminal state of a job. Every accepted job reaches exactly one of
/// these — panics, injected faults, deadlines, and worker deaths
/// included.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// Fault-simulation result (indices into the representative list).
    FaultSim(FaultSimReport),
    /// Captured signature matrix over the representative list.
    Signatures(SignatureMatrix),
    /// Campaign report.
    Campaign(AtpgReport),
    /// Diagnosis report.
    Diagnosis(DiagnosisReport),
    /// The job was cancelled before it finished.
    Cancelled,
    /// The job's [`JobPolicy`] deadline expired before it finished.
    TimedOut,
    /// The job could not produce a result: invalid request, a panic
    /// isolated by the engine, or a transient fault that outlived its
    /// retry budget. Never an unwound worker.
    Failed {
        /// What went wrong, including the panic message or injected
        /// fault name where applicable.
        reason: String,
    },
}

/// Per-job execution policy attached at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPolicy {
    /// Wall-clock budget measured from submission. Expiry is enforced
    /// cooperatively at pickup, at every chunk claim, and between
    /// retries; an expired job resolves to [`JobOutcome::TimedOut`].
    pub deadline: Option<Duration>,
    /// How many times a **transient** failure (an injected I/O fault)
    /// may be retried before it hardens into [`JobOutcome::Failed`].
    pub max_retries: u32,
    /// Base backoff slept before retry `n` as `retry_backoff << (n-1)`,
    /// capped at one second.
    pub retry_backoff: Duration,
}

impl Default for JobPolicy {
    /// No deadline, no retries: the historical `submit` behaviour.
    fn default() -> Self {
        JobPolicy {
            deadline: None,
            max_retries: 0,
            retry_backoff: Duration::from_millis(5),
        }
    }
}

impl JobPolicy {
    /// A policy with only a deadline set.
    #[must_use]
    pub fn with_deadline(deadline: Duration) -> Self {
        JobPolicy {
            deadline: Some(deadline),
            ..Default::default()
        }
    }

    /// A policy with only a retry budget set.
    #[must_use]
    pub fn with_retries(max_retries: u32, retry_backoff: Duration) -> Self {
        JobPolicy {
            deadline: None,
            max_retries,
            retry_backoff,
        }
    }
}

/// Chunk-granularity progress of a running job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobProgress {
    /// Chunks finished so far (resets when a retry re-runs the job).
    pub done: usize,
    /// Total chunks (0 until the job is picked up and sized).
    pub total: usize,
}

/// Shared state between a [`JobHandle`] and the worker running the job.
struct JobShared {
    done: AtomicUsize,
    total: AtomicUsize,
    cancel: AtomicBool,
    attempts: AtomicUsize,
    /// Absolute expiry instant, fixed at submission.
    deadline: Option<Instant>,
    outcome: Mutex<Option<JobOutcome>>,
    finished: Condvar,
}

impl JobShared {
    fn new(deadline: Option<Instant>) -> Self {
        JobShared {
            done: AtomicUsize::new(0),
            total: AtomicUsize::new(0),
            cancel: AtomicBool::new(false),
            attempts: AtomicUsize::new(0),
            deadline,
            outcome: Mutex::new(None),
            finished: Condvar::new(),
        }
    }

    fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The cooperative stop check shared by chunk claims and retries.
    fn should_stop(&self) -> bool {
        self.cancel.load(Ordering::SeqCst) || self.deadline_exceeded()
    }

    fn finish(&self, outcome: JobOutcome) {
        let mut slot = lock_clean(&self.outcome);
        if slot.is_none() {
            *slot = Some(outcome);
        }
        self.finished.notify_all();
    }
}

/// The submitter's view of one job.
#[derive(Clone)]
pub struct JobHandle {
    id: u64,
    shared: Arc<JobShared>,
}

impl JobHandle {
    /// Engine-unique job id, in submission order.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current chunk-granularity progress.
    #[must_use]
    pub fn progress(&self) -> JobProgress {
        JobProgress {
            done: self.shared.done.load(Ordering::SeqCst),
            total: self.shared.total.load(Ordering::SeqCst),
        }
    }

    /// How many execution attempts the job has consumed (1 for a job
    /// that never hit a transient fault; 0 while still queued).
    #[must_use]
    pub fn attempts(&self) -> usize {
        self.shared.attempts.load(Ordering::SeqCst)
    }

    /// Request cooperative cancellation. Queued jobs resolve to
    /// [`JobOutcome::Cancelled`] without running; running chunked jobs
    /// stop at the next chunk boundary.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::SeqCst);
    }

    /// Whether the job has reached a terminal state.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        lock_clean(&self.shared.outcome).is_some()
    }

    /// Block until the job reaches a terminal state and return it.
    #[must_use]
    pub fn wait(&self) -> JobOutcome {
        let mut slot = lock_clean(&self.shared.outcome);
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self
                .shared
                .finished
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Block until the job reaches a terminal state or `timeout`
    /// elapses, whichever is first. `None` means the job is still
    /// running — the caller keeps the handle and may wait again, cancel,
    /// or walk away.
    #[must_use]
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        let wait_deadline = Instant::now() + timeout;
        let mut slot = lock_clean(&self.shared.outcome);
        loop {
            if let Some(outcome) = slot.as_ref() {
                return Some(outcome.clone());
            }
            let now = Instant::now();
            if now >= wait_deadline {
                return None;
            }
            let (guard, _timed_out) = self
                .shared
                .finished
                .wait_timeout(slot, wait_deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = guard;
        }
    }
}

/// Queue state guarded by one mutex: the pending jobs and the drain
/// flag. Storing `draining` *inside* the mutex (not a separate atomic)
/// closes the lost-wakeup window between a worker's emptiness check and
/// its condvar wait.
struct QueueState {
    jobs: VecDeque<(JobSpec, JobPolicy, Arc<JobShared>)>,
    draining: bool,
}

struct EngineQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

/// Everything a worker thread (or its respawned replacement) needs: the
/// queue, the shared join-handle list, and the respawn counter.
#[derive(Clone)]
struct PoolState {
    queue: Arc<EngineQueue>,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    respawns: Arc<AtomicUsize>,
}

/// A bounded pool of worker threads draining a FIFO job queue.
///
/// See the [module docs](self) for the fault-isolation, deadline,
/// determinism, and shutdown contracts.
pub struct JobEngine {
    pool: PoolState,
    worker_count: usize,
    next_id: AtomicUsize,
}

impl JobEngine {
    /// Start an engine with `workers` pool threads. A request for zero
    /// workers is clamped to one — an engine that accepts jobs it can
    /// never run would turn every [`JobHandle::wait`] into a deadlock.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let pool = PoolState {
            queue: Arc::new(EngineQueue {
                state: Mutex::new(QueueState {
                    jobs: VecDeque::new(),
                    draining: false,
                }),
                ready: Condvar::new(),
            }),
            handles: Arc::new(Mutex::new(Vec::with_capacity(workers))),
            respawns: Arc::new(AtomicUsize::new(0)),
        };
        for w in 0..workers {
            spawn_worker(w, pool.clone());
        }
        JobEngine {
            pool,
            worker_count: workers,
            next_id: AtomicUsize::new(0),
        }
    }

    /// Number of pool threads the engine maintains (respawned
    /// replacements keep this constant).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// How many worker threads died and were respawned over the
    /// engine's lifetime. Zero in healthy operation — the per-job
    /// `catch_unwind` isolation means even panicking jobs do not kill
    /// workers.
    #[must_use]
    pub fn respawns(&self) -> usize {
        self.pool.respawns.load(Ordering::SeqCst)
    }

    /// Enqueue a job under the default [`JobPolicy`] (no deadline, no
    /// retries) and return its handle.
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        self.submit_with(spec, JobPolicy::default())
    }

    /// Enqueue a job (non-blocking) under an explicit policy and return
    /// its handle.
    ///
    /// After [`JobEngine::shutdown`] has begun the engine accepts
    /// nothing new: the job resolves immediately to
    /// [`JobOutcome::Failed`] without entering the queue.
    pub fn submit_with(&self, spec: JobSpec, policy: JobPolicy) -> JobHandle {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst) as u64;
        let deadline = policy.deadline.map(|d| Instant::now() + d);
        let shared = Arc::new(JobShared::new(deadline));
        let handle = JobHandle {
            id,
            shared: Arc::clone(&shared),
        };
        {
            let mut state = lock_clean(&self.pool.queue.state);
            if state.draining {
                drop(state);
                shared.finish(JobOutcome::Failed {
                    reason: String::from("engine is draining; submission rejected"),
                });
                return handle;
            }
            state.jobs.push_back((spec, policy, shared));
        }
        self.pool.queue.ready.notify_one();
        handle
    }

    /// Graceful drain: stop accepting submissions, run every queued job
    /// to completion, and join the pool.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        {
            let mut state = lock_clean(&self.pool.queue.state);
            state.draining = true;
        }
        self.pool.queue.ready.notify_all();
        // Workers can respawn replacements while we join (a dying worker
        // pushes the replacement's handle before its own thread exits),
        // so keep draining the handle list until it stays empty.
        loop {
            let handle = lock_clean(&self.pool.handles).pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

impl Drop for JobEngine {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Spawn pool worker `index` and record its join handle. Also the
/// respawn path: a dying worker's guard calls this again.
fn spawn_worker(index: usize, pool: PoolState) {
    let thread_pool = pool.clone();
    let handle = std::thread::Builder::new()
        .name(format!("sinw-job-{index}"))
        .spawn(move || {
            let _guard = RespawnGuard {
                index,
                pool: thread_pool.clone(),
            };
            worker_loop(&thread_pool.queue);
        })
        .expect("spawn job worker");
    lock_clean(&pool.handles).push(handle);
}

/// Runs on worker-thread exit: a normal drain return does nothing, but
/// an unwinding worker (a panic that escaped the per-job isolation —
/// deliberately reachable through the `jobs.worker.die` fail point)
/// spawns its own replacement so the pool never shrinks.
struct RespawnGuard {
    index: usize,
    pool: PoolState,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.pool.respawns.fetch_add(1, Ordering::SeqCst);
            spawn_worker(self.index, self.pool.clone());
        }
    }
}

/// Resolves the in-flight job to `Failed` if the worker dies while
/// holding it, so no waiter blocks forever on a job that will never
/// finish. Disarmed on the normal path before the real outcome lands.
struct JobAbortGuard {
    shared: Arc<JobShared>,
    armed: bool,
}

impl Drop for JobAbortGuard {
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            self.shared.finish(JobOutcome::Failed {
                reason: String::from("worker thread died while running the job"),
            });
        }
    }
}

fn worker_loop(queue: &EngineQueue) {
    loop {
        let job = {
            let mut state = lock_clean(&queue.state);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break Some(job);
                }
                if state.draining {
                    break None;
                }
                state = queue
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            Some((spec, policy, shared)) => {
                let mut abort_guard = JobAbortGuard {
                    shared: Arc::clone(&shared),
                    armed: true,
                };
                // Deliberately OUTSIDE the catch_unwind boundary: this
                // fail point kills the worker itself, exercising the
                // respawn path and the abort guard above.
                let _ = failpoint::hit("jobs.worker.die");
                let outcome = if shared.cancel.load(Ordering::SeqCst) {
                    JobOutcome::Cancelled
                } else if shared.deadline_exceeded() {
                    JobOutcome::TimedOut
                } else {
                    execute_with_retries(&spec, &policy, &shared)
                };
                abort_guard.armed = false;
                shared.finish(outcome);
            }
            None => return,
        }
    }
}

/// Why one execution attempt failed, split by whether a retry can help.
enum RunFailure {
    /// An injected transient fault: retryable under the job's policy.
    Transient(String),
    /// A validation failure or an isolated panic: never retried.
    Permanent(String),
}

/// The retry loop around single execution attempts: panics are isolated
/// here, transient failures sleep an exponential backoff and re-run (the
/// deadline still applies), permanent failures harden immediately.
fn execute_with_retries(spec: &JobSpec, policy: &JobPolicy, shared: &JobShared) -> JobOutcome {
    let mut attempt: u32 = 0;
    loop {
        shared.attempts.fetch_add(1, Ordering::SeqCst);
        shared.done.store(0, Ordering::SeqCst);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(spec.clone(), shared)
        }));
        let failure = match result {
            Ok(Ok(outcome)) => return outcome,
            Ok(Err(failure)) => failure,
            Err(payload) => {
                RunFailure::Permanent(format!("job panicked: {}", panic_reason(payload.as_ref())))
            }
        };
        match failure {
            RunFailure::Transient(reason) if attempt < policy.max_retries => {
                attempt += 1;
                let backoff = policy
                    .retry_backoff
                    .checked_mul(1u32 << (attempt - 1).min(16))
                    .unwrap_or(MAX_BACKOFF)
                    .min(MAX_BACKOFF);
                std::thread::sleep(backoff);
                if shared.cancel.load(Ordering::SeqCst) {
                    return JobOutcome::Cancelled;
                }
                if shared.deadline_exceeded() {
                    return JobOutcome::TimedOut;
                }
                let _ = reason;
            }
            RunFailure::Transient(reason) => {
                return JobOutcome::Failed {
                    reason: format!(
                        "transient fault persisted through {} attempt(s): {reason}",
                        attempt + 1
                    ),
                }
            }
            RunFailure::Permanent(reason) => return JobOutcome::Failed { reason },
        }
    }
}

/// One execution attempt. `Ok` carries any terminal outcome (success,
/// cancellation, deadline expiry); `Err` carries a failure for the retry
/// loop to classify.
fn run_job(spec: JobSpec, shared: &JobShared) -> Result<JobOutcome, RunFailure> {
    match spec {
        JobSpec::FaultSim {
            compiled,
            patterns,
            drop_detected,
            threads,
        } => run_fault_sim(&compiled, &patterns, drop_detected, threads, shared),
        JobSpec::Signatures {
            compiled,
            patterns,
            threads,
        } => run_signatures(&compiled, &patterns, threads, shared),
        JobSpec::Campaign { compiled, config } => {
            shared.total.store(1, Ordering::SeqCst);
            failpoint::hit("jobs.campaign.run")
                .map_err(|e| RunFailure::Transient(e.to_string()))?;
            let report = AtpgEngine::new(compiled.circuit(), config)
                .run(&compiled.collapsed().representatives);
            shared.done.store(1, Ordering::SeqCst);
            Ok(JobOutcome::Campaign(report))
        }
        JobSpec::Diagnosis {
            dictionary,
            observations,
        } => {
            shared.total.store(1, Ordering::SeqCst);
            failpoint::hit("jobs.diagnosis.run")
                .map_err(|e| RunFailure::Transient(e.to_string()))?;
            for &(pattern, output) in &observations {
                if pattern >= dictionary.pattern_count() || output >= dictionary.output_count() {
                    return Err(RunFailure::Permanent(format!(
                        "observation ({pattern}, {output}) outside the dictionary's \
                         {} x {} probe grid",
                        dictionary.pattern_count(),
                        dictionary.output_count()
                    )));
                }
            }
            let report = dictionary.diagnose(&observations);
            shared.done.store(1, Ordering::SeqCst);
            Ok(JobOutcome::Diagnosis(report))
        }
    }
}

/// Validate a pattern set against the compiled circuit before fan-out,
/// so malformed requests fail typed instead of panicking inside a pool
/// thread.
fn check_patterns(compiled: &CompiledCircuit, patterns: &[Vec<bool>]) -> Result<(), RunFailure> {
    let n_pi = compiled.circuit().primary_inputs().len();
    for (k, p) in patterns.iter().enumerate() {
        if p.len() != n_pi {
            return Err(RunFailure::Permanent(format!(
                "pattern {k} has {} bits, circuit '{}' has {n_pi} primary inputs",
                p.len(),
                compiled.name()
            )));
        }
    }
    Ok(())
}

/// How a chunked fan-out ended.
enum ChunkExit<T> {
    /// Every chunk ran; results in chunk-index order.
    Done(Vec<T>),
    /// The cancel flag stopped the fan-out at a chunk boundary.
    Cancelled,
    /// The deadline stopped the fan-out at a chunk boundary.
    TimedOut,
    /// A chunk hit an injected fault; the fan-out aborted early.
    Injected(String),
}

/// Fan a fault-list computation out over `threads` scoped threads
/// claiming [`JOB_CHUNK`]-sized chunks from a [`WorkQueue`], collecting
/// one result per chunk **in chunk-index order**. Cancellation, the
/// deadline, and injected faults are all checked at chunk granularity.
fn chunked<T: Send>(
    n_faults: usize,
    threads: usize,
    shared: &JobShared,
    run_chunk: impl Fn(std::ops::Range<usize>) -> Result<T, InjectedError> + Sync,
) -> ChunkExit<T> {
    let threads = threads.max(1);
    let queue = WorkQueue::new(n_faults, threads, JOB_CHUNK);
    shared.total.store(queue.chunk_count(), Ordering::SeqCst);
    let slots: Vec<Mutex<Option<T>>> = (0..queue.chunk_count()).map(|_| Mutex::new(None)).collect();
    let abort = AtomicBool::new(false);
    let injected: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for w in 0..threads {
            let queue = &queue;
            let slots = &slots;
            let run_chunk = &run_chunk;
            let abort = &abort;
            let injected = &injected;
            scope.spawn(move || {
                while let Some(chunk) = queue.pop(w) {
                    if abort.load(Ordering::SeqCst) || shared.should_stop() {
                        return;
                    }
                    match run_chunk(queue.item_range(chunk)) {
                        Ok(result) => {
                            *lock_clean(&slots[chunk]) = Some(result);
                            shared.done.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => {
                            lock_clean(injected).get_or_insert_with(|| e.to_string());
                            abort.store(true, Ordering::SeqCst);
                            return;
                        }
                    }
                }
            });
        }
    });
    if let Some(e) = lock_clean(&injected).take() {
        return ChunkExit::Injected(e);
    }
    if shared.cancel.load(Ordering::SeqCst) {
        return ChunkExit::Cancelled;
    }
    if shared.deadline_exceeded() {
        return ChunkExit::TimedOut;
    }
    let mut out = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(v) => out.push(v),
            // A worker observed a stop signal that has since cleared is
            // impossible (cancel latches, deadlines only move forward),
            // but be safe: treat a hole as a stop.
            None => {
                return if shared.cancel.load(Ordering::SeqCst) {
                    ChunkExit::Cancelled
                } else {
                    ChunkExit::TimedOut
                }
            }
        }
    }
    ChunkExit::Done(out)
}

/// Engine options for one job chunk: the job's own workers already
/// spread the chunks, so each chunk runs on the thread that claimed it.
fn one_thread() -> SimOptions {
    SimOptions {
        threads: 1,
        ..SimOptions::default()
    }
}

fn run_fault_sim(
    compiled: &CompiledCircuit,
    patterns: &[Vec<bool>],
    drop_detected: bool,
    threads: usize,
    shared: &JobShared,
) -> Result<JobOutcome, RunFailure> {
    check_patterns(compiled, patterns)?;
    let faults = &compiled.collapsed().representatives;
    let chunks = match chunked(faults.len(), threads, shared, |range| {
        failpoint::hit("jobs.faultsim.chunk")?;
        let offset = range.start;
        let (report, _) = simulate_faults_with(
            compiled.circuit(),
            compiled.graph(),
            &faults[range],
            patterns,
            drop_detected,
            one_thread(),
        );
        Ok((offset, report))
    }) {
        ChunkExit::Done(chunks) => chunks,
        ChunkExit::Cancelled => return Ok(JobOutcome::Cancelled),
        ChunkExit::TimedOut => return Ok(JobOutcome::TimedOut),
        ChunkExit::Injected(e) => return Err(RunFailure::Transient(e)),
    };
    // Chunk-order merge: indices shift by the chunk's offset (ascending
    // across chunks, so the merged index lists stay sorted) and
    // first-detection credit sums per pattern.
    let mut merged = FaultSimReport {
        detected: Vec::new(),
        undetected: Vec::new(),
        first_detections: vec![0usize; patterns.len()],
    };
    for (offset, report) in chunks {
        merged
            .detected
            .extend(report.detected.iter().map(|f| f + offset));
        merged
            .undetected
            .extend(report.undetected.iter().map(|f| f + offset));
        for (p, n) in report.first_detections.iter().enumerate() {
            merged.first_detections[p] += n;
        }
    }
    Ok(JobOutcome::FaultSim(merged))
}

fn run_signatures(
    compiled: &CompiledCircuit,
    patterns: &[Vec<bool>],
    threads: usize,
    shared: &JobShared,
) -> Result<JobOutcome, RunFailure> {
    check_patterns(compiled, patterns)?;
    let faults = &compiled.collapsed().representatives;
    let chunks = match chunked(faults.len(), threads, shared, |range| {
        failpoint::hit("jobs.signatures.chunk")?;
        let (signatures, _) = capture_signatures_with(
            compiled.circuit(),
            compiled.graph(),
            &faults[range],
            patterns,
            one_thread(),
        );
        Ok(signatures)
    }) {
        ChunkExit::Done(chunks) => chunks,
        ChunkExit::Cancelled => return Ok(JobOutcome::Cancelled),
        ChunkExit::TimedOut => return Ok(JobOutcome::TimedOut),
        ChunkExit::Injected(e) => return Err(RunFailure::Transient(e)),
    };
    // Row-concatenate in chunk order; every chunk shares the pattern /
    // output geometry, so the packed words line up exactly.
    let n_outputs = compiled.circuit().primary_outputs().len();
    let mut bits = Vec::new();
    for chunk in &chunks {
        bits.extend_from_slice(chunk.bits());
    }
    match SignatureMatrix::from_raw_parts(faults.len(), patterns.len(), n_outputs, bits) {
        Ok(matrix) => Ok(JobOutcome::Signatures(matrix)),
        Err(e) => Err(RunFailure::Permanent(format!(
            "signature merge rejected: {e}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::compile_circuit;
    use sinw_atpg::faultsim::capture_signatures;
    use sinw_atpg::simulate_faults;
    use sinw_switch::gate::Circuit;

    fn patterns_for(circuit: &Circuit, count: usize) -> Vec<Vec<bool>> {
        let n_pi = circuit.primary_inputs().len();
        // Deterministic LCG-ish fill; no external randomness.
        let mut state = 0x5EED_0B1Au64;
        (0..count)
            .map(|_| {
                (0..n_pi)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state >> 63 == 1
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn fault_sim_job_matches_direct_serial_call() {
        let compiled = Arc::new(compile_circuit("c17", Circuit::c17()));
        let patterns = Arc::new(patterns_for(compiled.circuit(), 96));
        let reference = simulate_faults(
            compiled.circuit(),
            &compiled.collapsed().representatives,
            &patterns,
            true,
        );
        let engine = JobEngine::new(2);
        let handle = engine.submit(JobSpec::FaultSim {
            compiled: Arc::clone(&compiled),
            patterns: Arc::clone(&patterns),
            drop_detected: true,
            threads: 3,
        });
        match handle.wait() {
            JobOutcome::FaultSim(report) => assert_eq!(report, reference),
            other => panic!("unexpected outcome {other:?}"),
        }
        let progress = handle.progress();
        assert_eq!(progress.done, progress.total);
        assert!(progress.total >= 1);
        assert_eq!(handle.attempts(), 1);
        engine.shutdown();
    }

    #[test]
    fn signature_job_matches_direct_capture() {
        let compiled = Arc::new(compile_circuit("c17", Circuit::c17()));
        let patterns = Arc::new(patterns_for(compiled.circuit(), 40));
        let reference = capture_signatures(
            compiled.circuit(),
            &compiled.collapsed().representatives,
            &patterns,
        );
        let engine = JobEngine::new(2);
        let handle = engine.submit(JobSpec::Signatures {
            compiled,
            patterns,
            threads: 2,
        });
        match handle.wait() {
            JobOutcome::Signatures(matrix) => assert_eq!(matrix, reference),
            other => panic!("unexpected outcome {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn malformed_patterns_fail_typed() {
        let compiled = Arc::new(compile_circuit("c17", Circuit::c17()));
        let engine = JobEngine::new(1);
        let handle = engine.submit(JobSpec::FaultSim {
            compiled,
            patterns: Arc::new(vec![vec![true; 3]]),
            drop_detected: false,
            threads: 1,
        });
        assert!(matches!(handle.wait(), JobOutcome::Failed { .. }));
        engine.shutdown();
    }

    #[test]
    fn zero_worker_request_is_clamped_and_still_serves() {
        let compiled = Arc::new(compile_circuit("c17", Circuit::c17()));
        let patterns = Arc::new(patterns_for(compiled.circuit(), 8));
        let engine = JobEngine::new(0);
        assert_eq!(engine.workers(), 1, "0 workers clamps to 1");
        let handle = engine.submit(JobSpec::FaultSim {
            compiled,
            patterns,
            drop_detected: false,
            threads: 1,
        });
        assert!(matches!(handle.wait(), JobOutcome::FaultSim(_)));
        engine.shutdown();
    }

    #[test]
    fn wait_timeout_returns_none_while_queued_then_the_outcome() {
        let compiled = Arc::new(compile_circuit("c17", Circuit::c17()));
        let patterns = Arc::new(patterns_for(compiled.circuit(), 8));
        let engine = JobEngine::new(1);
        let handle = engine.submit(JobSpec::FaultSim {
            compiled,
            patterns,
            drop_detected: false,
            threads: 1,
        });
        // Either the tiny wait expires (None) or the job already
        // finished (Some) — both are valid; what is forbidden is
        // blocking forever.
        let quick = handle.wait_timeout(Duration::from_micros(1));
        assert!(quick.is_none() || matches!(quick, Some(JobOutcome::FaultSim(_))));
        match handle.wait_timeout(Duration::from_secs(30)) {
            Some(JobOutcome::FaultSim(_)) => {}
            other => panic!("job must finish well within 30s, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn expired_deadline_resolves_to_timed_out() {
        let compiled = Arc::new(compile_circuit("c17", Circuit::c17()));
        let patterns = Arc::new(patterns_for(compiled.circuit(), 8));
        let engine = JobEngine::new(1);
        // A deadline of zero is already expired at pickup.
        let handle = engine.submit_with(
            JobSpec::FaultSim {
                compiled,
                patterns,
                drop_detected: false,
                threads: 1,
            },
            JobPolicy::with_deadline(Duration::ZERO),
        );
        assert!(matches!(handle.wait(), JobOutcome::TimedOut));
        engine.shutdown();
    }

    #[test]
    fn cancelled_before_pickup_never_runs() {
        let compiled = Arc::new(compile_circuit("c17", Circuit::c17()));
        let patterns = Arc::new(patterns_for(compiled.circuit(), 8));
        let engine = JobEngine::new(1);
        // Stuff the single worker with work, cancel a queued job before
        // it can be picked up. The first job may or may not finish first;
        // the cancelled one must never produce a result.
        let _busy = engine.submit(JobSpec::FaultSim {
            compiled: Arc::clone(&compiled),
            patterns: Arc::clone(&patterns),
            drop_detected: false,
            threads: 1,
        });
        let victim = engine.submit(JobSpec::FaultSim {
            compiled,
            patterns,
            drop_detected: false,
            threads: 1,
        });
        victim.cancel();
        match victim.wait() {
            JobOutcome::Cancelled | JobOutcome::FaultSim(_) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let compiled = Arc::new(compile_circuit("c17", Circuit::c17()));
        let engine = JobEngine::new(1);
        // Reach into drain without consuming: flip the draining flag and
        // assert the documented behaviour.
        {
            let mut state = lock_clean(&engine.pool.queue.state);
            state.draining = true;
        }
        let handle = engine.submit(JobSpec::Diagnosis {
            dictionary: Arc::new(sinw_atpg::FaultDictionary::from_signatures(
                &capture_signatures(
                    compiled.circuit(),
                    &compiled.collapsed().representatives,
                    &patterns_for(compiled.circuit(), 4),
                ),
            )),
            observations: vec![],
        });
        assert!(matches!(handle.wait(), JobOutcome::Failed { .. }));
        // Clear the flag so Drop's drain can join the (still waiting)
        // workers normally.
        engine.pool.queue.ready.notify_all();
    }
}
