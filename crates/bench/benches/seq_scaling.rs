//! Sequential-layer scaling: scan-view stuck-at campaign, 2-frame LOC
//! transition campaign, and the two-pattern simulation ladder — the
//! **one-pair-at-a-time serial** engine against the **64-wide** kernel
//! and the **work-stealing threaded** engine — on `s27` plus pipelined
//! array multipliers at every curve width.
//!
//! Knobs (environment variables):
//!
//! * `SINW_SEQ_WIDTHS` — comma-separated multiplier widths for the
//!   registered (pipelined) machines (default `4,6` measuring, `3` on
//!   smoke runs), one ladder run per width so `BENCH_seq.json` records
//!   a scaling curve;
//! * `SINW_SEQ_THREADS` — worker count for the threaded pair engine
//!   (default 0 = auto);
//! * `SINW_BENCH_JSON` — where to write the machine-readable artifact
//!   (default `BENCH_seq.json`, same convention as `BENCH_diag.json`).
//!
//! In-bench assertions (the acceptance criteria of the sequential work):
//!
//! * serial, 64-wide, and threaded pair engines report **bit-identically**
//!   on every machine;
//! * the campaign's pair set re-verifies: it detects exactly the faults
//!   the campaign classified as detected;
//! * every produced pair is broadside — the capture vector's state bits
//!   are the machine's own next state under the launch vector;
//! * `s27` reaches 100% testable coverage for both fault models.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sinw_atpg::faultsim::{FaultSimReport, SimOptions};
use sinw_atpg::graph::SimGraph;
use sinw_atpg::sof::CircuitTwoPattern;
use sinw_atpg::tpg::{AtpgConfig, AtpgEngine};
use sinw_atpg::transition::{
    enumerate_transition, simulate_transition_serial, simulate_transition_with, TransitionAtpg,
    TransitionAtpgConfig, TransitionFault,
};
use sinw_bench::{env_usize, env_usize_list, write_bench_json};
use sinw_switch::gate::Circuit;
use sinw_switch::generate::pipelined_array_multiplier;
use sinw_switch::iscas::{parse_bench_seq, S27_BENCH};
use sinw_switch::seq::SeqCircuit;
use sinw_switch::value::Logic;
use std::time::Instant;

struct MachineRun {
    name: String,
    dffs: usize,
    cells: usize,
    tr_faults: usize,
    tr_pairs: usize,
    tr_coverage: f64,
    sa_coverage: f64,
    sa_ms: f64,
    campaign_ms: f64,
    serial_ms: f64,
    wide_ms: f64,
    threaded_ms: f64,
}

/// Best-of-3 wall time of one closure.
fn timed<T>(mut run: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::MAX;
    let mut result = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = run();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        result = Some(r);
    }
    (result.expect("three runs"), best)
}

/// The pair detect mode with dropping, graph build included, at an
/// explicit lane width and thread count (0 = every core).
fn pair_sim(
    circuit: &Circuit,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
    lanes: usize,
    threads: usize,
) -> FaultSimReport {
    let graph = SimGraph::build(circuit);
    let options = SimOptions { lanes, threads };
    simulate_transition_with(circuit, &graph, faults, pairs, true, options).0
}

fn run_machine(name: &str, seq: &SeqCircuit, threads: usize) -> MachineRun {
    // Stuck-at campaign on the full-scan per-frame view — the unchanged
    // combinational engine.
    let engine = TransitionAtpg::new(seq, TransitionAtpgConfig::default());
    let circuit = engine.circuit();
    let t0 = Instant::now();
    let (_, sa) = AtpgEngine::run_collapsed(circuit, AtpgConfig::default());
    let sa_ms = t0.elapsed().as_secs_f64() * 1e3;

    // LOC transition campaign.
    let faults = enumerate_transition(circuit);
    let t1 = Instant::now();
    let report = engine.run(&faults);
    let campaign_ms = t1.elapsed().as_secs_f64() * 1e3;

    // Broadside invariant on every pair.
    for p in &report.pairs {
        let launch: Vec<Logic> = p.init.iter().map(|b| Logic::from_bool(*b)).collect();
        let values = seq.core().eval(&launch);
        for (pos, pi) in circuit.primary_inputs().iter().enumerate() {
            if let Some(ff) = seq.dffs().iter().find(|ff| ff.q == *pi) {
                assert_eq!(
                    values[ff.d.0],
                    Logic::from_bool(p.eval[pos]),
                    "{name}: pair is not broadside at {}",
                    ff.name
                );
            }
        }
    }

    // The pair-simulation ladder, bit-identity enforced.
    let (serial, serial_ms) =
        timed(|| simulate_transition_serial(circuit, &faults, &report.pairs, true));
    let (wide, wide_ms) = timed(|| pair_sim(circuit, &faults, &report.pairs, 1, 1));
    let lanes = SimOptions::default().lanes;
    let (threaded, threaded_ms) =
        timed(|| pair_sim(circuit, &faults, &report.pairs, lanes, threads));
    assert_eq!(serial, wide, "{name}: serial vs 64-wide pair engines");
    assert_eq!(wide, threaded, "{name}: 64-wide vs threaded pair engines");

    // Verification: the pair set detects exactly the classified faults.
    let classified: Vec<usize> = report
        .statuses
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_detected())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(serial.detected, classified, "{name}: pair-set verification");

    MachineRun {
        name: name.to_string(),
        dffs: seq.state_width(),
        cells: seq.core().gates().len(),
        tr_faults: report.total_faults,
        tr_pairs: report.pairs.len(),
        tr_coverage: report.testable_coverage(),
        sa_coverage: sa.testable_coverage(),
        sa_ms,
        campaign_ms,
        serial_ms,
        wide_ms,
        threaded_ms,
    }
}

fn run_json(r: &MachineRun) -> String {
    format!(
        "    {{\"machine\": \"{}\", \"dffs\": {}, \"cells\": {}, \"tr_faults\": {}, \
         \"tr_pairs\": {}, \"tr_testable_coverage\": {:.4}, \"sa_testable_coverage\": {:.4}, \
         \"ms\": {{\"sa_campaign\": {:.3}, \"tr_campaign\": {:.3}, \"pairs_serial\": {:.3}, \
         \"pairs_wide64\": {:.3}, \"pairs_threaded\": {:.3}}}}}",
        r.name,
        r.dffs,
        r.cells,
        r.tr_faults,
        r.tr_pairs,
        r.tr_coverage,
        r.sa_coverage,
        r.sa_ms,
        r.campaign_ms,
        r.serial_ms,
        r.wide_ms,
        r.threaded_ms
    )
}

fn bench(c: &mut Criterion) {
    let measuring = std::env::args().any(|a| a == "--bench");
    let widths = env_usize_list("SINW_SEQ_WIDTHS", if measuring { &[4, 6] } else { &[3] });
    let threads = env_usize("SINW_SEQ_THREADS", 0);
    let width = widths.iter().copied().max().unwrap_or(3);

    let s27 = parse_bench_seq(S27_BENCH).expect("embedded s27 parses");
    let mut machines: Vec<(String, SeqCircuit)> = vec![("s27".into(), s27)];
    for &w in &widths {
        machines.push((format!("mul{w}_reg"), pipelined_array_multiplier(w)));
    }

    println!("\nSequential scaling: scan-view campaigns + the two-pattern simulation ladder");
    println!(
        "  machine    dff  cells  tr flts  pairs  tr cov%  sa cov%  sa(ms)  campaign(ms)  serial(ms)  wide64(ms)  thr(ms)"
    );
    let mut runs = Vec::new();
    for (name, seq) in &machines {
        let r = run_machine(name, seq, threads);
        println!(
            "  {:9} {:>4}  {:>5}  {:>7}  {:>5}  {:>7.1}  {:>7.1}  {:>6.1}  {:>12.1}  {:>10.2}  {:>10.2}  {:>7.2}",
            r.name,
            r.dffs,
            r.cells,
            r.tr_faults,
            r.tr_pairs,
            r.tr_coverage * 100.0,
            r.sa_coverage * 100.0,
            r.sa_ms,
            r.campaign_ms,
            r.serial_ms,
            r.wide_ms,
            r.threaded_ms
        );
        runs.push(r);
    }

    let s27_run = &runs[0];
    assert_eq!(
        s27_run.sa_coverage, 1.0,
        "s27 full scan must reach 100% testable stuck-at coverage"
    );
    assert_eq!(
        s27_run.tr_coverage, 1.0,
        "s27 must reach 100% testable transition coverage"
    );

    let json = format!(
        "{{\n  \"bench\": \"seq_scaling\",\n  \"mul_widths\": {widths:?},\n  \"machines\": [\n{}\n  ]\n}}\n",
        runs.iter().map(run_json).collect::<Vec<_>>().join(",\n")
    );
    write_bench_json("BENCH_seq.json", &json);

    // Criterion loops on the widest registered machine: the transition
    // campaign end to end, and one pair-simulation pass.
    let seq = pipelined_array_multiplier(width);
    let engine = TransitionAtpg::new(&seq, TransitionAtpgConfig::default());
    let faults = enumerate_transition(engine.circuit());
    let pairs = engine.run(&faults).pairs;
    c.bench_function("seq/transition_campaign", |b| {
        b.iter(|| black_box(engine.run(&faults)));
    });
    c.bench_function("seq/pairs_threaded", |b| {
        b.iter(|| {
            black_box(pair_sim(
                engine.circuit(),
                &faults,
                &pairs,
                SimOptions::default().lanes,
                threads,
            ))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
