//! `c6288_service`: the service path on the generated c6288-class
//! multiplier. Registry compile (enumerate + collapse + graph build),
//! a `.sinw` snapshot round trip, a campaign job, a signature job and its
//! dictionary, then closed-loop diagnosis jobs from one client. PODEM is
//! never called on this circuit: the random phase detects every fault.
//!
//! The campaign runs on the library defaults, its seed included, and the
//! workload seed picks the injected faults. A seeded campaign would make
//! the test set's size vary by ±10 % between seeds, and with it the cost
//! of every later step.

use crate::harness::{mix, Digest, Pass, Workload};
use crate::trace::Recorder;
use sinw_atpg::diagnose::{full_pass_observations, DiagnosisReport, FaultDictionary};
use sinw_atpg::faultsim::{capture_signatures, simulate_faults};
use sinw_atpg::tpg::{AtpgConfig, AtpgEngine, AtpgReport};
use sinw_server::jobs::{JobEngine, JobOutcome, JobSpec};
use sinw_server::registry::{CircuitRegistry, CompiledCircuit};
use sinw_server::snapshot::{canonical_circuit_bytes, Snapshot};
use sinw_switch::gate::Circuit;
use sinw_switch::generate::{array_multiplier, c6288_class};
use std::sync::Arc;
use std::time::Instant;

pub struct C6288Service {
    circuit: Circuit,
    /// Which faults the diagnosis queries inject.
    probe_seed: u64,
    queries: usize,
    threads: usize,
    engine: JobEngine,
}

impl C6288Service {
    /// Smoke size swaps the 64×64 multiplier for an 8×8 one.
    pub fn new(seed: u64, smoke: bool, threads: usize) -> Self {
        C6288Service {
            circuit: if smoke {
                array_multiplier(8)
            } else {
                c6288_class()
            },
            probe_seed: mix(seed, 0),
            // Every pass sends the same queries. A short burst of host
            // noise slows a few dozen queries in a row, so fewer queries
            // per run would let one burst decide the 95th percentile.
            queries: if smoke { 20 } else { 200 },
            threads,
            engine: JobEngine::new(threads),
        }
    }

    fn job(&self, spec: JobSpec) -> JobOutcome {
        self.engine.submit(spec).wait()
    }
}

pub struct Ready {
    /// Kept alive for the pass, as a service keeps its registry.
    _registry: CircuitRegistry,
    compiled: Arc<CompiledCircuit>,
}

pub struct Output {
    decoded: Snapshot,
    report: AtpgReport,
    dictionary: Arc<FaultDictionary>,
    /// Injected fault (representative index) and what a tester logs for it.
    probes: Vec<(usize, Vec<(usize, usize)>)>,
    /// Digest of each diagnosis report's whole ranking. A report holds
    /// one candidate per class, so keeping 200 of them would dwarf the
    /// workload's own memory.
    diagnoses: Vec<u64>,
}

fn ranking_digest(report: &DiagnosisReport) -> u64 {
    let mut d = Digest::default();
    for c in &report.candidates {
        d.usize(c.class).usize(c.distance);
    }
    d.finish()
}

fn not_a(kind: &str, outcome: &JobOutcome) -> String {
    format!("{kind} job ended as {outcome:?}")
}

impl Workload for C6288Service {
    type Ready = Ready;
    type Output = Output;

    fn setup(&self, rec: &mut Recorder) -> Result<Ready, String> {
        let registry = CircuitRegistry::new();
        let circuit = self.circuit.clone();
        let compiled = rec
            .span("server.registry.compile", |_| {
                registry.register_circuit("c6288_class", circuit)
            })
            .map_err(|e| e.to_string())?;
        Ok(Ready {
            _registry: registry,
            compiled,
        })
    }

    fn run(&self, ready: &Ready, rec: &mut Recorder, pass: &mut Pass) -> Result<Output, String> {
        let compiled = &ready.compiled;
        let reps = &compiled.collapsed().representatives;
        pass.counts
            .insert("atpg.collapse.classes", reps.len() as u64);

        let bytes = rec.span("server.snapshot.encode", |_| compiled.snapshot().encode());
        let decoded = rec
            .span("server.snapshot.decode", |_| Snapshot::decode(&bytes))
            .map_err(|e| format!("snapshot decode: {e}"))?;
        pass.counts
            .insert("server.snapshot.bytes", bytes.len() as u64);
        drop(bytes);

        let t0 = Instant::now();
        let outcome = rec.span("atpg.tpg.run", |_| {
            self.job(JobSpec::Campaign {
                compiled: Arc::clone(compiled),
                config: AtpgConfig::default(),
            })
        });
        let JobOutcome::Campaign(report) = outcome else {
            return Err(not_a("campaign", &outcome));
        };
        pass.details.insert("testgen_s", t0.elapsed().as_secs_f64());
        pass.details
            .insert("test_patterns", report.patterns.len() as f64);
        pass.details
            .insert("testable_coverage_pct", 100.0 * report.testable_coverage());
        pass.layer
            .insert("atpg.tpg.random_s", report.random_ms * 1e-3);
        pass.layer
            .insert("atpg.tpg.compaction_s", report.compaction_ms * 1e-3);
        pass.counts.insert(
            "atpg.tpg.random_patterns_applied",
            report.random_patterns_applied as u64,
        );
        pass.counts.insert(
            "atpg.tpg.random_patterns_kept",
            report.random_patterns_kept as u64,
        );
        pass.counts.insert(
            "atpg.tpg.patterns_before_compaction",
            report.patterns_before_compaction as u64,
        );
        pass.counts
            .insert("atpg.tpg.podem_calls", report.podem_calls as u64);

        let patterns = Arc::new(report.patterns.clone());
        let t0 = Instant::now();
        let outcome = rec.span("atpg.faultsim.capture", |_| {
            self.job(JobSpec::Signatures {
                compiled: Arc::clone(compiled),
                patterns: Arc::clone(&patterns),
                threads: self.threads,
            })
        });
        let JobOutcome::Signatures(signatures) = outcome else {
            return Err(not_a("signature", &outcome));
        };
        let dictionary = rec.span("atpg.diagnose.from_signatures", |_| {
            FaultDictionary::from_signatures(&signatures)
        });
        pass.details
            .insert("dictionary_s", t0.elapsed().as_secs_f64());
        pass.counts
            .insert("atpg.faultsim.signature_bytes", signatures.bytes() as u64);
        pass.counts
            .insert("atpg.diagnose.classes", dictionary.class_count() as u64);
        drop(signatures);
        let dictionary = Arc::new(dictionary);

        let probes: Vec<(usize, Vec<(usize, usize)>)> = pass.untimed(rec, || {
            (0..self.queries)
                .map(|q| {
                    let fi = (mix(self.probe_seed, q as u64) % reps.len() as u64) as usize;
                    (
                        fi,
                        full_pass_observations(compiled.circuit(), reps[fi], &patterns),
                    )
                })
                .collect()
        });
        let mut diagnoses = Vec::with_capacity(probes.len());
        let mut ranked_first = 0usize;
        let mut jobs_failed = 0u64;
        let mut no_candidate = 0u64;
        for (fi, observations) in &probes {
            let t0 = Instant::now();
            let outcome = rec.span("server.jobs.latency", |_| {
                self.job(JobSpec::Diagnosis {
                    dictionary: Arc::clone(&dictionary),
                    observations: observations.clone(),
                })
            });
            pass.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match outcome {
                JobOutcome::Diagnosis(report) => {
                    match report.best() {
                        None => no_candidate += 1,
                        Some(best) if best.class == dictionary.class_of()[*fi] => {
                            ranked_first += 1;
                        }
                        Some(_) => {}
                    }
                    diagnoses.push(ranking_digest(&report));
                }
                _ => jobs_failed += 1,
            }
        }
        pass.details.insert(
            "diag_first_rank_share",
            ranked_first as f64 / probes.len() as f64,
        );
        // Registry, snapshot encode and decode, then every job.
        let jobs = 2 + probes.len() as u64;
        pass.attempted = 3 + jobs;
        pass.failed = jobs_failed + no_candidate;
        pass.counts.insert("server.jobs.submitted", jobs);
        pass.counts.insert("server.jobs.failed", jobs_failed);
        Ok(Output {
            decoded,
            report,
            dictionary,
            probes,
            diagnoses,
        })
    }

    fn digest(&self, out: &Output) -> u64 {
        let mut d = Digest::default();
        for p in &out.report.patterns {
            d.bools(p);
        }
        for s in &out.report.statuses {
            d.str(&format!("{s:?}"));
        }
        for class in 0..out.dictionary.class_count() {
            for &w in out.dictionary.class_signature(class) {
                d.u64(w);
            }
        }
        for &c in out.dictionary.class_of() {
            d.usize(c);
        }
        for &r in &out.diagnoses {
            d.u64(r);
        }
        d.finish()
    }

    /// Job outcomes must equal the direct library calls, and the test set
    /// must detect exactly the faults the campaign reports detected.
    fn verify(&self, ready: &Ready, out: &Output) -> Result<(), String> {
        let compiled = &ready.compiled;
        let circuit = compiled.circuit();
        let reps = &compiled.collapsed().representatives;

        let d = &out.decoded;
        if canonical_circuit_bytes(&d.circuit) != canonical_circuit_bytes(circuit)
            || d.faults != compiled.faults()
            || d.collapsed
                .as_ref()
                .map(|c| (&c.representatives, &c.class_of))
                != Some((reps, &compiled.collapsed().class_of))
        {
            return Err("snapshot round trip changed the compiled circuit".into());
        }

        let kept = &out.report;
        let direct = AtpgEngine::new(circuit, AtpgConfig::default()).run(reps);
        if direct.patterns != kept.patterns || direct.statuses != kept.statuses {
            return Err("campaign job differs from the direct engine call".into());
        }
        let claimed: Vec<usize> = (0..reps.len())
            .filter(|&i| kept.statuses[i].is_detected())
            .collect();
        let resim = simulate_faults(circuit, reps, &kept.patterns, true);
        if resim.detected != claimed {
            return Err(format!(
                "re-simulation detects {} faults, the campaign reports {}",
                resim.detected.len(),
                claimed.len()
            ));
        }

        let signatures = capture_signatures(circuit, reps, &kept.patterns);
        let dict = &out.dictionary;
        if (0..reps.len()).any(|f| signatures.row(f) != dict.class_signature(dict.class_of()[f])) {
            return Err("signature job differs from the direct capture".into());
        }
        if FaultDictionary::from_signatures(&signatures).class_of() != dict.class_of() {
            return Err("dictionary classes differ from the direct build".into());
        }
        drop(signatures);

        if out.diagnoses.len() != out.probes.len() {
            return Err(format!(
                "{} of {} diagnosis jobs did not return a report",
                out.probes.len() - out.diagnoses.len(),
                out.probes.len()
            ));
        }
        for ((_, observations), &ranking) in out.probes.iter().zip(&out.diagnoses) {
            if ranking_digest(&dict.diagnose(observations)) != ranking {
                return Err("diagnosis job differs from the direct lookup".into());
            }
        }
        Ok(())
    }

    /// Registry compile is opaque from outside: time the public calls it
    /// is made of, and the direct dictionary lookups the jobs wrap.
    fn probe(&self, ready: &Ready, out: &Output, rec: &mut Recorder) {
        use sinw_atpg::collapse::collapse;
        use sinw_atpg::fault_list::enumerate_stuck_at;
        use sinw_atpg::graph::SimGraph;
        let circuit = ready.compiled.circuit();
        let faults = rec.span("atpg.fault_list.enumerate", |_| enumerate_stuck_at(circuit));
        let collapsed = rec.span("atpg.collapse", |_| collapse(circuit, &faults));
        let graph = rec.span("atpg.graph.build", |_| SimGraph::build(circuit));
        drop((faults, collapsed, graph));
        for (_, observations) in &out.probes {
            let report = rec.span("atpg.diagnose.query", |_| {
                out.dictionary.diagnose(observations)
            });
            drop(report);
        }
    }
}
