//! `csa_transition`: launch-on-capture transition ATPG on a pipelined
//! carry-select adder, from `.bench` text. Constrained PODEM on the
//! 2-frame unroll takes nearly all the time, and most of its calls abort.

use crate::harness::{mix, Digest, Pass, Workload};
use crate::trace::Recorder;
use sinw_atpg::transition::{
    enumerate_transition, simulate_transition, TransitionAtpg, TransitionAtpgConfig,
    TransitionAtpgReport, TransitionFault,
};
use sinw_switch::generate::pipelined_carry_select_adder;
use sinw_switch::iscas::{parse_bench_seq, to_bench_seq};
use sinw_switch::seq::SeqCircuit;
use std::time::Instant;

pub struct CsaTransition {
    /// The machine as ISCAS-89 text: the input the pass parses.
    text: String,
    config: TransitionAtpgConfig,
}

impl CsaTransition {
    /// A 12-bit adder in 2-bit carry-select blocks (4 bits when smoke).
    pub fn new(seed: u64, smoke: bool) -> Self {
        let width = if smoke { 4 } else { 12 };
        let seq = pipelined_carry_select_adder(width, 2);
        CsaTransition {
            text: to_bench_seq(&seq, &format!("csa{width}_reg")),
            config: TransitionAtpgConfig {
                seed: mix(seed, 3),
                ..TransitionAtpgConfig::default()
            },
        }
    }
}

pub struct Ready {
    seq: SeqCircuit,
    atpg: TransitionAtpg,
}

pub struct Output {
    faults: Vec<TransitionFault>,
    report: TransitionAtpgReport,
}

impl Workload for CsaTransition {
    type Ready = Ready;
    type Output = Output;

    fn setup(&self, rec: &mut Recorder) -> Result<Ready, String> {
        let seq = rec
            .span("switch.iscas.parse", |_| parse_bench_seq(&self.text))
            .map_err(|e| format!("parse: {e}"))?;
        let atpg = rec.span("atpg.transition.new", |_| {
            TransitionAtpg::new(&seq, self.config)
        });
        Ok(Ready { seq, atpg })
    }

    fn run(&self, ready: &Ready, rec: &mut Recorder, pass: &mut Pass) -> Result<Output, String> {
        let t0 = Instant::now();
        let faults = rec.span("atpg.transition.enumerate", |_| {
            enumerate_transition(ready.atpg.circuit())
        });
        let report = rec.span("atpg.transition.run", |_| ready.atpg.run(&faults));
        pass.details.insert("testgen_s", t0.elapsed().as_secs_f64());

        pass.details
            .insert("test_patterns", report.pairs.len() as f64);
        pass.details
            .insert("testable_coverage_pct", 100.0 * report.testable_coverage());
        pass.details.insert(
            "failed_ops_share",
            report.aborted as f64 / report.total_faults as f64,
        );
        let deterministic_s = report.deterministic_ms * 1e-3;
        pass.layer
            .insert("atpg.transition.random_s", report.random_ms * 1e-3);
        pass.layer
            .insert("atpg.transition.deterministic_s", deterministic_s);
        if report.podem_calls > 0 {
            pass.layer.insert(
                "atpg.transition.s_per_podem_call",
                deterministic_s / report.podem_calls as f64,
            );
        }
        pass.counts
            .insert("atpg.transition.podem_calls", report.podem_calls as u64);
        pass.counts
            .insert("atpg.transition.aborted", report.aborted as u64);
        pass.counts
            .insert("atpg.transition.pairs", report.pairs.len() as u64);
        pass.counts
            .insert("atpg.transition.faults", report.total_faults as u64);
        // Parse, engine build, enumeration, then one operation per target;
        // an aborted target is a failed one.
        pass.attempted = 3 + report.total_faults as u64;
        pass.failed = report.aborted as u64;
        Ok(Output { faults, report })
    }

    fn digest(&self, out: &Output) -> u64 {
        let mut d = Digest::default();
        for p in &out.report.pairs {
            d.bools(&p.init).bools(&p.eval);
        }
        for s in &out.report.statuses {
            d.str(&format!("{s:?}"));
        }
        d.finish()
    }

    /// The pairs must detect exactly the faults the campaign reports
    /// detected.
    fn verify(&self, ready: &Ready, out: &Output) -> Result<(), String> {
        let claimed: Vec<usize> = (0..out.faults.len())
            .filter(|&i| out.report.statuses[i].is_detected())
            .collect();
        let resim = simulate_transition(ready.atpg.circuit(), &out.faults, &out.report.pairs, true);
        if resim.detected != claimed {
            return Err(format!(
                "pair re-simulation detects {} faults, the campaign reports {}",
                resim.detected.len(),
                claimed.len()
            ));
        }
        Ok(())
    }

    /// `TransitionAtpg::new` is opaque from outside: time the public calls
    /// it is made of on the same machine.
    fn probe(&self, ready: &Ready, _out: &Output, rec: &mut Recorder) {
        use sinw_atpg::graph::SimGraph;
        use sinw_atpg::unroll::{unroll, UnrollConfig};
        use sinw_switch::scan::{insert_scan, ScanPlan};
        let scan = rec.span("switch.scan.insert", |_| {
            insert_scan(&ready.seq, &ScanPlan::Full)
        });
        let graph = rec.span("atpg.graph.build", |_| SimGraph::build(scan.circuit()));
        let unrolled = rec.span("atpg.unroll", |_| {
            unroll(&ready.seq, &UnrollConfig::full_observability(2))
        });
        drop((scan, graph, unrolled));
    }
}
