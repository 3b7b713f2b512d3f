//! Panic isolation, per job variant: an injected panic inside any job
//! body must resolve that job to `JobOutcome::Failed { .. }`, leave the
//! engine fully serviceable, and leave subsequent results bit-identical
//! to direct serial engine calls.
//!
//! Fail points are process-global, so every test in this binary runs
//! under one serialization lock and clears the table when done. The
//! same lock lets one delayed-chunk test watch job progress advance.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use sinw_atpg::faultsim::{capture_signatures, seeded_patterns};
use sinw_atpg::simulate_faults;
use sinw_atpg::tpg::AtpgConfig;
use sinw_atpg::FaultDictionary;
use sinw_server::failpoint::{self, FailAction, FailConfig};
use sinw_server::jobs::{JobEngine, JobOutcome, JobPolicy, JobSpec};
use sinw_server::registry::{compile_circuit, CompiledCircuit};
use sinw_switch::gate::Circuit;
use sinw_switch::generate::carry_select_adder;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn fixture() -> (Arc<CompiledCircuit>, Arc<Vec<Vec<bool>>>) {
    let compiled = Arc::new(compile_circuit("c17", Circuit::c17()));
    let patterns = Arc::new(seeded_patterns(
        compiled.circuit().primary_inputs().len(),
        48,
        0xDEAD_BEEF_CAFE_F00D,
    ));
    (compiled, patterns)
}

fn fault_sim_spec(compiled: &Arc<CompiledCircuit>, patterns: &Arc<Vec<Vec<bool>>>) -> JobSpec {
    JobSpec::FaultSim {
        compiled: Arc::clone(compiled),
        patterns: Arc::clone(patterns),
        drop_detected: true,
        threads: 2,
    }
}

/// Run `spec` with a panic armed at `point`; assert it fails typed, then
/// assert the engine still serves a clean fault-sim job bit-identically
/// to the serial reference.
fn panic_then_recover(point: &'static str, spec: JobSpec) {
    let _serial = serial();
    failpoint::clear();
    let (compiled, patterns) = fixture();
    let reference = simulate_faults(
        compiled.circuit(),
        &compiled.collapsed().representatives,
        &patterns,
        true,
    );

    let engine = JobEngine::new(2);
    {
        let _armed = failpoint::scoped(point, FailConfig::always(FailAction::Panic));
        let victim = engine.submit(spec);
        match victim.wait() {
            JobOutcome::Failed { reason } => {
                assert!(
                    reason.contains("panicked") || reason.contains(point),
                    "failure should name the panic or the point, got: {reason}"
                );
            }
            other => panic!("{point}: expected Failed, got {other:?}"),
        }
        assert!(failpoint::fired(point) > 0, "{point} must actually fire");
    }

    // The same engine — same workers — must still produce clean,
    // bit-identical results afterwards.
    for _ in 0..2 {
        let handle = engine.submit(fault_sim_spec(&compiled, &patterns));
        match handle.wait() {
            JobOutcome::FaultSim(report) => assert_eq!(report, reference),
            other => panic!("{point}: post-recovery job broke: {other:?}"),
        }
    }
    assert_eq!(
        engine.respawns(),
        0,
        "{point}: catch_unwind isolation must keep workers alive"
    );
    engine.shutdown();
    failpoint::clear();
}

#[test]
fn fault_sim_chunk_panic_is_isolated() {
    let (compiled, patterns) = fixture();
    panic_then_recover("jobs.faultsim.chunk", fault_sim_spec(&compiled, &patterns));
}

#[test]
fn signatures_chunk_panic_is_isolated() {
    let (compiled, patterns) = fixture();
    panic_then_recover(
        "jobs.signatures.chunk",
        JobSpec::Signatures {
            compiled,
            patterns,
            threads: 2,
        },
    );
}

#[test]
fn campaign_panic_is_isolated() {
    let (compiled, _) = fixture();
    panic_then_recover(
        "jobs.campaign.run",
        JobSpec::Campaign {
            compiled,
            config: AtpgConfig::default(),
        },
    );
}

#[test]
fn diagnosis_panic_is_isolated() {
    let (compiled, patterns) = fixture();
    let dictionary = Arc::new(FaultDictionary::from_signatures(&capture_signatures(
        compiled.circuit(),
        &compiled.collapsed().representatives,
        &patterns,
    )));
    panic_then_recover(
        "jobs.diagnosis.run",
        JobSpec::Diagnosis {
            dictionary,
            observations: vec![(0, 0)],
        },
    );
}

#[test]
fn dead_worker_is_respawned_and_its_job_fails_typed() {
    let _serial = serial();
    failpoint::clear();
    let (compiled, patterns) = fixture();
    let reference = simulate_faults(
        compiled.circuit(),
        &compiled.collapsed().representatives,
        &patterns,
        true,
    );

    let engine = JobEngine::new(2);
    {
        // One worker dies at pickup (outside the catch_unwind boundary);
        // the in-flight job must fail typed rather than hang its waiter.
        let _armed = failpoint::scoped("jobs.worker.die", FailConfig::nth(FailAction::Panic, 1));
        let victim = engine.submit(fault_sim_spec(&compiled, &patterns));
        match victim.wait() {
            JobOutcome::Failed { reason } => {
                assert!(reason.contains("died"), "got: {reason}");
            }
            other => panic!("expected Failed from the dying worker, got {other:?}"),
        }
    }

    // The pool respawned the dead worker and stays at full strength.
    // The respawn happens while the dead thread unwinds — concurrently
    // with the victim's Failed outcome — so give it a bounded moment.
    let mut waited = Duration::ZERO;
    while engine.respawns() < 1 && waited < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(2));
        waited += Duration::from_millis(2);
    }
    assert_eq!(engine.respawns(), 1, "exactly one worker died");
    let handle = engine.submit(fault_sim_spec(&compiled, &patterns));
    match handle.wait() {
        JobOutcome::FaultSim(report) => assert_eq!(report, reference),
        other => panic!("post-respawn job broke: {other:?}"),
    }
    engine.shutdown();
    failpoint::clear();
}

#[test]
fn transient_io_fault_is_retried_to_success() {
    let _serial = serial();
    failpoint::clear();
    let (compiled, patterns) = fixture();
    let reference = simulate_faults(
        compiled.circuit(),
        &compiled.collapsed().representatives,
        &patterns,
        true,
    );

    let engine = JobEngine::new(1);
    {
        // First chunk attempt hits an injected I/O error; the retry runs
        // clean and the result must still be bit-identical.
        let _armed = failpoint::scoped(
            "jobs.faultsim.chunk",
            FailConfig::nth(FailAction::IoError, 1),
        );
        let handle = engine.submit_with(
            fault_sim_spec(&compiled, &patterns),
            JobPolicy::with_retries(3, Duration::from_millis(1)),
        );
        match handle.wait() {
            JobOutcome::FaultSim(report) => assert_eq!(report, reference),
            other => panic!("expected retried success, got {other:?}"),
        }
        assert_eq!(handle.attempts(), 2, "one transient failure, one retry");
    }

    // Without a retry budget the same fault hardens into Failed.
    {
        let _armed = failpoint::scoped(
            "jobs.faultsim.chunk",
            FailConfig::nth(FailAction::IoError, 1),
        );
        let handle = engine.submit(fault_sim_spec(&compiled, &patterns));
        match handle.wait() {
            JobOutcome::Failed { reason } => {
                assert!(reason.contains("transient"), "got: {reason}");
            }
            other => panic!("expected Failed without retries, got {other:?}"),
        }
    }
    engine.shutdown();
    failpoint::clear();
}

#[test]
fn job_progress_advances_while_the_job_runs() {
    let _serial = serial();
    failpoint::clear();
    let compiled = Arc::new(compile_circuit("csel16", carry_select_adder(16, 4)));
    let patterns = Arc::new(seeded_patterns(
        compiled.circuit().primary_inputs().len(),
        48,
        0xA11CE,
    ));
    let reference = simulate_faults(
        compiled.circuit(),
        &compiled.collapsed().representatives,
        &patterns,
        true,
    );

    let engine = JobEngine::new(1);
    // Slow every chunk so the poller sees the job advance chunk by chunk.
    let _delay = failpoint::scoped(
        "jobs.faultsim.chunk",
        FailConfig::always(FailAction::Delay(Duration::from_millis(10))),
    );
    let handle = engine.submit(JobSpec::FaultSim {
        compiled: Arc::clone(&compiled),
        patterns: Arc::clone(&patterns),
        drop_detected: true,
        threads: 1,
    });
    // `total` is 0 until the job is picked up and sized; after that it
    // is fixed.
    let mut observed = Vec::new();
    let outcome = loop {
        observed.push(handle.progress());
        if let Some(outcome) = handle.wait_timeout(Duration::from_millis(1)) {
            observed.push(handle.progress());
            break outcome;
        }
    };
    let sized: Vec<_> = observed.iter().filter(|p| p.total > 0).collect();
    assert!(
        observed.windows(2).all(|w| w[0].done <= w[1].done),
        "done never decreases: {observed:?}"
    );
    assert!(
        sized.windows(2).all(|w| w[0].total == w[1].total),
        "total never changes once sized: {observed:?}"
    );
    let distinct: std::collections::BTreeSet<usize> = observed.iter().map(|p| p.done).collect();
    assert!(
        distinct.len() >= 2,
        "expected >= 2 distinct progress values, saw {observed:?}"
    );
    assert!(
        observed.iter().any(|p| 0 < p.done && p.done < p.total),
        "a poll must catch the job part-way, saw {observed:?}"
    );
    let last = observed.last().expect("polled at least once");
    assert!(last.total >= 2, "csel16 spans multiple chunks: {last:?}");
    assert_eq!(last.done, last.total, "the final poll shows completion");
    match outcome {
        JobOutcome::FaultSim(report) => assert_eq!(report, reference),
        other => panic!("expected a fault-sim result, got {other:?}"),
    }
    engine.shutdown();
    failpoint::clear();
}
