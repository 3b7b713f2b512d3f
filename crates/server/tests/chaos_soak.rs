//! Chaos soak: the full service loop — register → snapshot → jobs →
//! diagnose — under seeded fault-injection matrices.
//!
//! Invariants proved per seed:
//!
//! 1. **Liveness**: every accepted job reaches a terminal outcome
//!    within the soak budget — success, `Cancelled`, `TimedOut`, or a
//!    typed `Failed { .. }` — never a hung waiter, whatever mixture of
//!    panics, I/O faults, and worker deaths the matrix injects.
//! 2. **Integrity**: any job that *does* succeed under injection is
//!    bit-identical to the fault-free serial reference — faults may
//!    abort work, they may never corrupt it.
//! 3. **Recovery**: after the storm, with fail points cleared, the same
//!    engine (respawned workers included) serves clean bit-identical
//!    results, and the snapshot store reopens with every successfully
//!    saved snapshot intact.
//!
//! Seeds come from `SINW_CHAOS_SEEDS` (comma-separated, default
//! `1,2,3`), so CI can widen the matrix without recompiling.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use sinw_atpg::diagnose::FaultDictionary;
use sinw_atpg::faultsim::{capture_signatures, seeded_patterns};
use sinw_atpg::simulate_faults;
use sinw_server::failpoint::{self, FailAction, FailConfig};
use sinw_server::jobs::{JobEngine, JobOutcome, JobPolicy, JobSpec};
use sinw_server::net::{ClientError, NetClient, NetConfig, NetServer};
use sinw_server::registry::{CircuitRegistry, CompiledCircuit};
use sinw_server::store::SnapshotStore;
use sinw_server::wire::{WireJob, WireOutcome};
use sinw_switch::gate::Circuit;
use sinw_switch::generate::{array_multiplier, carry_select_adder};
use sinw_switch::iscas::{parse_bench, to_bench};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn scratch(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sinw_chaos_{tag}_{seed}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seeds() -> Vec<u64> {
    let spec = std::env::var("SINW_CHAOS_SEEDS").unwrap_or_else(|_| String::from("1,2,3"));
    spec.split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

/// Fault-free references for one circuit: the serial fault-sim report,
/// the signature matrix, and a dictionary diagnosis of a known fault.
struct Reference {
    compiled: Arc<CompiledCircuit>,
    patterns: Arc<Vec<Vec<bool>>>,
    fault_sim: sinw_atpg::faultsim::FaultSimReport,
    signatures: sinw_atpg::faultsim::SignatureMatrix,
    dictionary: Arc<FaultDictionary>,
}

fn references(seed: u64) -> Vec<Reference> {
    let suite: Vec<(&str, Circuit)> = vec![
        ("c17", Circuit::c17()),
        ("mul3", array_multiplier(3)),
        ("csel8", carry_select_adder(8, 4)),
    ];
    suite
        .into_iter()
        .map(|(name, circuit)| {
            let compiled = Arc::new(sinw_server::registry::compile_circuit(name, circuit));
            let patterns = Arc::new(seeded_patterns(
                compiled.circuit().primary_inputs().len(),
                32,
                seed ^ 0x9E37_79B9_7F4A_7C15,
            ));
            let fault_sim = simulate_faults(
                compiled.circuit(),
                &compiled.collapsed().representatives,
                &patterns,
                true,
            );
            let signatures = capture_signatures(
                compiled.circuit(),
                &compiled.collapsed().representatives,
                &patterns,
            );
            let dictionary = Arc::new(FaultDictionary::from_signatures(&signatures));
            Reference {
                compiled,
                patterns,
                fault_sim,
                signatures,
                dictionary,
            }
        })
        .collect()
}

/// Arm the fault matrix for one seed: probabilistic I/O faults on every
/// service path, plus rarer panics and worker deaths.
fn arm_matrix(seed: u64) {
    let io = |point: &str, p: f64, salt: u64| {
        failpoint::configure(
            point,
            FailConfig::probability(FailAction::IoError, p, seed.wrapping_add(salt)),
        );
    };
    io("jobs.faultsim.chunk", 0.20, 1);
    io("jobs.signatures.chunk", 0.20, 2);
    io("jobs.campaign.run", 0.10, 3);
    io("jobs.diagnosis.run", 0.10, 4);
    io("registry.compile", 0.25, 5);
    io("snapshot.write.fsync", 0.20, 6);
    io("snapshot.write.rename", 0.20, 7);
    io("store.scan.read", 0.10, 8);
    failpoint::configure(
        "jobs.worker.die",
        FailConfig::probability(FailAction::Panic, 0.05, seed.wrapping_add(9)),
    );
}

/// Keep trying a fallible service action while the storm injects faults
/// into it; the probability triggers advance per hit, so this always
/// terminates quickly.
fn persist<T, E: std::fmt::Display>(what: &str, mut attempt: impl FnMut() -> Result<T, E>) -> T {
    for _ in 0..64 {
        match attempt() {
            Ok(v) => return v,
            Err(_) => continue,
        }
    }
    panic!("{what}: still failing after 64 attempts under injection");
}

#[test]
fn full_service_loop_survives_seeded_fault_matrices() {
    let _serial = serial();
    for seed in seeds() {
        failpoint::clear();
        let refs = references(seed);
        let dir = scratch("soak", seed);

        // Clean boot of the store, then let the storm begin.
        let (store, boot) = SnapshotStore::open(&dir).expect("clean first boot");
        assert!(boot.loaded.is_empty());
        arm_matrix(seed);

        // Register every circuit through the bounded registry and
        // persist its snapshot, riding out injected compile and write
        // faults.
        let registry = CircuitRegistry::with_capacity_bytes(64 * 1024 * 1024);
        let mut saved_keys = Vec::new();
        for r in &refs {
            let artifact = persist("register", || {
                registry.register_circuit(r.compiled.name(), r.compiled.circuit().clone())
            });
            assert_eq!(artifact.key(), r.compiled.key());
            saved_keys.push(persist("save snapshot", || store.save_artifact(&artifact)));
        }

        // The job storm: every variant, several times, under injection.
        let engine = JobEngine::new(3);
        let policy = JobPolicy {
            deadline: Some(Duration::from_secs(30)),
            max_retries: 3,
            retry_backoff: Duration::from_millis(1),
        };
        let mut submitted = Vec::new();
        for round in 0..3 {
            for (i, r) in refs.iter().enumerate() {
                submitted.push((
                    i,
                    "faultsim",
                    engine.submit_with(
                        JobSpec::FaultSim {
                            compiled: Arc::clone(&r.compiled),
                            patterns: Arc::clone(&r.patterns),
                            drop_detected: true,
                            threads: 2,
                        },
                        policy,
                    ),
                ));
                submitted.push((
                    i,
                    "signatures",
                    engine.submit_with(
                        JobSpec::Signatures {
                            compiled: Arc::clone(&r.compiled),
                            patterns: Arc::clone(&r.patterns),
                            threads: 2,
                        },
                        policy,
                    ),
                ));
                if round == 0 {
                    submitted.push((
                        i,
                        "diagnosis",
                        engine.submit_with(
                            JobSpec::Diagnosis {
                                dictionary: Arc::clone(&r.dictionary),
                                observations: vec![(0, 0)],
                            },
                            policy,
                        ),
                    ));
                }
            }
        }

        // Invariant 1 + 2: every job terminates; successes are
        // bit-identical to the fault-free references.
        let mut successes = 0usize;
        let mut failures = 0usize;
        for (i, kind, handle) in &submitted {
            let outcome = handle
                .wait_timeout(Duration::from_secs(120))
                .unwrap_or_else(|| {
                    panic!("seed {seed}: a {kind} job never reached a terminal outcome")
                });
            match outcome {
                JobOutcome::FaultSim(report) => {
                    assert_eq!(report, refs[*i].fault_sim, "seed {seed}: corrupt survivor");
                    successes += 1;
                }
                JobOutcome::Signatures(matrix) => {
                    assert_eq!(matrix, refs[*i].signatures, "seed {seed}: corrupt survivor");
                    successes += 1;
                }
                JobOutcome::Diagnosis(report) => {
                    let reference = refs[*i].dictionary.diagnose(&[(0, 0)]);
                    assert_eq!(report.candidates, reference.candidates);
                    successes += 1;
                }
                JobOutcome::Campaign(_) => unreachable!("no campaign submitted in the storm"),
                JobOutcome::Failed { reason } => {
                    assert!(!reason.is_empty());
                    failures += 1;
                }
                JobOutcome::Cancelled | JobOutcome::TimedOut => failures += 1,
            }
        }
        assert!(
            successes + failures == submitted.len(),
            "seed {seed}: accounting"
        );

        // Invariant 3: the storm ends; the same engine serves clean
        // bit-identical results on every circuit.
        failpoint::clear();
        for r in &refs {
            let handle = engine.submit(JobSpec::FaultSim {
                compiled: Arc::clone(&r.compiled),
                patterns: Arc::clone(&r.patterns),
                drop_detected: true,
                threads: 2,
            });
            match handle.wait() {
                JobOutcome::FaultSim(report) => assert_eq!(
                    report, r.fault_sim,
                    "seed {seed}: post-storm result diverged"
                ),
                other => panic!("seed {seed}: post-storm job broke: {other:?}"),
            }
        }
        engine.shutdown();

        // And the store reboots clean: every snapshot that reported a
        // successful save is served (atomicity means no torn survivors),
        // and warm-start compiles nothing.
        let (reopened, report) = SnapshotStore::open(&dir).expect("post-storm reboot");
        for key in &saved_keys {
            assert!(
                report.loaded.contains(key),
                "seed {seed}: a successfully saved snapshot went missing"
            );
            let snapshot = reopened.load(*key).expect("survivor loads");
            assert!(!snapshot.name.is_empty());
        }
        let fresh = CircuitRegistry::new();
        let warm = reopened.warm_start(&fresh).expect("warm start");
        assert_eq!(warm.installed, saved_keys.len());
        assert_eq!(fresh.stats().compiles, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }
    failpoint::clear();
}

#[test]
fn campaign_jobs_terminate_under_injection_and_match_when_clean() {
    let _serial = serial();
    failpoint::clear();
    let refs = references(7);
    let r = &refs[0];

    // Clean reference campaign (deterministic: seeded config).
    let config = sinw_atpg::tpg::AtpgConfig::default();
    let reference = sinw_atpg::tpg::AtpgEngine::new(r.compiled.circuit(), config)
        .run(&r.compiled.collapsed().representatives);

    let engine = JobEngine::new(2);
    failpoint::configure(
        "jobs.campaign.run",
        FailConfig::probability(FailAction::IoError, 0.5, 7),
    );
    let policy = JobPolicy::with_retries(4, Duration::from_millis(1));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            engine.submit_with(
                JobSpec::Campaign {
                    compiled: Arc::clone(&r.compiled),
                    config,
                },
                policy,
            )
        })
        .collect();
    for handle in handles {
        match handle
            .wait_timeout(Duration::from_secs(120))
            .expect("campaign jobs terminate")
        {
            JobOutcome::Campaign(report) => {
                assert_eq!(report.patterns, reference.patterns);
                assert_eq!(report.total_faults, reference.total_faults);
                assert_eq!(report.untestable, reference.untestable);
            }
            JobOutcome::Failed { reason } => assert!(!reason.is_empty()),
            other => panic!("unexpected campaign outcome {other:?}"),
        }
    }
    failpoint::clear();
    engine.shutdown();
}

/// The network leg of the soak: the full wire loop — connect →
/// register → submit → stream → await — under a storm that injects
/// faults into *both* the transport (accept, frame reads/writes,
/// progress polling) and the engine beneath it (chunk I/O, worker
/// deaths). Every attempt ends in a clean bit-identical result or a
/// typed error — never a hang — and once the storm clears, the same
/// still-running server serves clean results to a fresh client.
#[test]
fn wire_loop_survives_seeded_fault_matrices() {
    let _serial = serial();
    for seed in seeds() {
        failpoint::clear();
        let dir = scratch("wire", seed);

        // References compiled from the exact bench text the clients
        // will send over the wire.
        let suite: Vec<(String, String)> = vec![
            ("c17", Circuit::c17()),
            ("mul3", array_multiplier(3)),
            ("csel8", carry_select_adder(8, 4)),
        ]
        .into_iter()
        .map(|(name, circuit)| (name.to_string(), to_bench(&circuit, name)))
        .collect();
        let refs: Vec<(Vec<Vec<bool>>, WireOutcome)> = suite
            .iter()
            .map(|(name, source)| {
                let circuit = parse_bench(source).expect("exported bench parses");
                let compiled = sinw_server::registry::compile_circuit(name, circuit);
                let patterns = seeded_patterns(
                    compiled.circuit().primary_inputs().len(),
                    32,
                    seed ^ 0x9E37_79B9_7F4A_7C15,
                );
                let report = simulate_faults(
                    compiled.circuit(),
                    &compiled.collapsed().representatives,
                    &patterns,
                    true,
                );
                (patterns, WireOutcome::from_fault_sim(&report))
            })
            .collect();

        let config = NetConfig {
            store_dir: Some(dir.clone()),
            ..NetConfig::default()
        };
        let server = NetServer::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr();

        // The storm: transport faults on every wire path plus the
        // engine-side matrix underneath.
        let io = |point: &str, p: f64, salt: u64| {
            failpoint::configure(
                point,
                FailConfig::probability(FailAction::IoError, p, seed.wrapping_add(salt)),
            );
        };
        io("net.accept", 0.20, 21);
        io("net.frame.read", 0.10, 22);
        io("net.frame.write", 0.10, 23);
        io("net.progress.poll", 0.20, 24);
        io("jobs.faultsim.chunk", 0.15, 25);
        io("registry.compile", 0.20, 26);
        io("snapshot.write.fsync", 0.20, 27);
        failpoint::configure(
            "jobs.worker.die",
            FailConfig::probability(FailAction::Panic, 0.05, seed.wrapping_add(28)),
        );

        // Ride the storm: for each circuit, keep attempting the full
        // loop until one attempt ends in a clean result. Every failed
        // attempt must fail *typed* — a ClientError or a terminal
        // non-success outcome — within the attempt's own timeouts.
        let mut typed_failures = 0usize;
        for ((name, source), (patterns, reference)) in suite.iter().zip(&refs) {
            let mut clean = false;
            for _attempt in 0..64 {
                let attempt = || -> Result<Option<WireOutcome>, ClientError> {
                    let mut client = NetClient::connect(addr)?;
                    let (key, _) = client.register_bench(name, source)?;
                    let job = client.submit(WireJob::FaultSim {
                        key,
                        patterns: patterns.clone(),
                        drop_detected: true,
                        threads: 2,
                        timeout_ms: 30_000,
                    })?;
                    let outcome = client.await_job(job, |_, _| {})?;
                    Ok(match outcome {
                        WireOutcome::FaultSim { .. } => Some(outcome),
                        // Typed non-success terminal outcomes are legal
                        // under injection.
                        WireOutcome::Failed { .. }
                        | WireOutcome::Cancelled
                        | WireOutcome::TimedOut => None,
                        other => panic!("seed {seed}: wrong outcome family {other:?}"),
                    })
                };
                match attempt() {
                    Ok(Some(outcome)) => {
                        assert_eq!(
                            &outcome, reference,
                            "seed {seed}: a surviving {name} result diverged from serial"
                        );
                        clean = true;
                        break;
                    }
                    Ok(None) | Err(_) => typed_failures += 1,
                }
            }
            assert!(
                clean,
                "seed {seed}: {name} never completed cleanly in 64 attempts"
            );
        }

        // The storm ends; the SAME still-running server serves clean
        // bit-identical results to a fresh client, first try.
        failpoint::clear();
        let mut client = NetClient::connect(addr).expect("post-storm connect");
        for ((name, source), (patterns, reference)) in suite.iter().zip(&refs) {
            let (key, _) = client.register_bench(name, source).expect("register");
            let job = client
                .submit(WireJob::FaultSim {
                    key,
                    patterns: patterns.clone(),
                    drop_detected: true,
                    threads: 2,
                    timeout_ms: 120_000,
                })
                .expect("submit");
            let outcome = client.await_job(job, |_, _| {}).expect("await");
            assert_eq!(
                &outcome, reference,
                "seed {seed}: post-storm {name} result diverged"
            );
        }
        let stats = client.stats().expect("stats");
        assert!(
            stats.jobs_submitted >= 3,
            "seed {seed}: stats track the soak"
        );
        drop(client);
        server.shutdown();

        // Storm-era saves were best-effort; whatever reached the store
        // must reboot intact and warm-start without a compile.
        let (reopened, report) = SnapshotStore::open(&dir).expect("post-storm reboot");
        let fresh = CircuitRegistry::new();
        let warm = reopened.warm_start(&fresh).expect("warm start");
        assert_eq!(warm.installed, report.loaded.len());
        assert_eq!(fresh.stats().compiles, 0);

        let _ = typed_failures; // informational: storms usually produce some
        let _ = std::fs::remove_dir_all(&dir);
    }
    failpoint::clear();
}
