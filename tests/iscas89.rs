//! Golden end-to-end tests of the sequential layer on the embedded
//! ISCAS-89 `s27` fixture: pinned structure and fault counts, the scan
//! shape, full stuck-at coverage through the **unchanged** campaign
//! engine, transition-delay LOC coverage with engine bit-identity, the
//! textual fixed point of the sequential exporter, and the line-numbered
//! error contract around `DFF` lines.

use sinw::atpg::tpg::{AtpgConfig, AtpgEngine};
use sinw::atpg::transition::{
    enumerate_transition, simulate_transition_serial, simulate_transition_with, TransitionAtpg,
    TransitionAtpgConfig,
};
use sinw::atpg::{
    collapse, enumerate_stuck_at, transition_oracle, SimGraph, SimOptions, SUPPORTED_LANES,
};
use sinw::switch::iscas::{parse_bench, parse_bench_seq, to_bench_seq, BenchErrorKind, S27_BENCH};
use sinw::switch::scan::{insert_scan, ScanPlan};

/// s27's shape is pinned: 4 functional inputs, 1 functional output,
/// 3 flip-flops, and 13 CP cell instances after mapping the 10 `.bench`
/// gates onto the INV/NAND2/NOR2 library.
#[test]
fn s27_structure_is_pinned() {
    let s27 = parse_bench_seq(S27_BENCH).expect("embedded s27 parses");
    assert_eq!(s27.functional_inputs().len(), 4);
    assert_eq!(s27.functional_outputs().len(), 1);
    assert_eq!(s27.state_width(), 3);
    assert_eq!(s27.core().gates().len(), 13, "CP cell instances");
    let dff_names: Vec<&str> = s27.dffs().iter().map(|ff| ff.name.as_str()).collect();
    assert_eq!(dff_names, ["G5", "G6", "G7"]);

    // The fault universe of the per-frame view: 56 transition faults,
    // one per stuck-at fault, collapsing to 30 representatives.
    let scan = insert_scan(&s27, &ScanPlan::Full);
    let sa = enumerate_stuck_at(scan.circuit());
    assert_eq!(sa.len(), 56, "stuck-at universe of the scan view");
    assert_eq!(enumerate_transition(scan.circuit()).len(), sa.len());
    assert_eq!(
        collapse(scan.circuit(), &sa).representatives.len(),
        30,
        "collapsed representatives"
    );
}

/// Full-scan insertion is purely additive: same signals, same gates,
/// three scan cells, and the three `D` nets join the PO list.
#[test]
fn s27_scan_shape_is_pinned() {
    let s27 = parse_bench_seq(S27_BENCH).expect("embedded s27 parses");
    let scan = insert_scan(&s27, &ScanPlan::Full);
    assert!(scan.is_full_scan());
    assert_eq!(scan.cells().len(), 3);
    assert_eq!(scan.residual().len(), 0);
    assert_eq!(scan.circuit().gates().len(), s27.core().gates().len());
    assert_eq!(
        scan.circuit().signal_count(),
        s27.core().signal_count(),
        "scan insertion adds no signals"
    );
    assert_eq!(scan.functional_po_count(), 1);
    assert_eq!(
        scan.circuit().primary_outputs().len(),
        4,
        "1 functional PO + 3 distinct scan-outs"
    );
    assert_eq!(scan.scan_out_positions().len(), 3);

    // Partial scan keeps the unscanned flip-flop in the residual machine.
    let partial = insert_scan(&s27, &ScanPlan::Partial(vec![0, 2]));
    assert!(!partial.is_full_scan());
    assert_eq!(partial.cells().len(), 2);
    assert_eq!(partial.residual().len(), 1);
    assert_eq!(partial.residual()[0].name, "G6");
}

/// The acceptance criterion: the full-scan per-frame view reaches 100%
/// testable stuck-at coverage through the *unchanged* [`AtpgEngine`] —
/// no sequential-aware code in the campaign loop.
#[test]
fn s27_full_scan_reaches_full_stuck_at_coverage() {
    let s27 = parse_bench_seq(S27_BENCH).expect("embedded s27 parses");
    let scan = insert_scan(&s27, &ScanPlan::Full);
    let (collapsed, report) = AtpgEngine::run_collapsed(scan.circuit(), AtpgConfig::default());
    assert_eq!(collapsed.representatives.len(), 30);
    assert_eq!(report.aborted, 0);
    assert_eq!(
        report.testable_coverage(),
        1.0,
        "full scan makes every testable s27 fault reachable per-frame \
         ({} detected, {} untestable)",
        report.detected(),
        report.untestable
    );
}

/// Transition-delay LOC ATPG on s27: pinned classification under the
/// default seed, pair-set verification by the independent oracle, and
/// bit-identical detection reports across every lane width, the serial
/// engine, and several thread counts.
#[test]
fn s27_transition_campaign_is_pinned_and_engine_identical() {
    let s27 = parse_bench_seq(S27_BENCH).expect("embedded s27 parses");
    let engine = TransitionAtpg::new(&s27, TransitionAtpgConfig::default());
    let faults = enumerate_transition(engine.circuit());
    assert_eq!(faults.len(), 56);
    let report = engine.run(&faults);
    assert_eq!(report.aborted, 0);
    assert_eq!(
        report.testable_coverage(),
        1.0,
        "every testable transition fault detected ({} of {}, {} untestable)",
        report.detected_random + report.detected_deterministic,
        report.total_faults,
        report.untestable
    );
    assert!(!report.pairs.is_empty());

    // The produced pairs re-verify identically on every engine, and the
    // independent scalar oracle agrees with the classification.
    let oracle = transition_oracle(engine.circuit(), &faults, &report.pairs);
    let classified: Vec<usize> = report
        .statuses
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_detected())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(oracle.detected, classified);
    let graph = SimGraph::build(engine.circuit());
    for drop in [false, true] {
        for lanes in SUPPORTED_LANES {
            for threads in [1usize, 2, 0] {
                let options = SimOptions { lanes, threads };
                let (replay, _) = simulate_transition_with(
                    engine.circuit(),
                    &graph,
                    &faults,
                    &report.pairs,
                    drop,
                    options,
                );
                assert_eq!(
                    replay, oracle,
                    "lanes {lanes}, threads {threads}, drop {drop}"
                );
            }
        }
        assert_eq!(
            simulate_transition_serial(engine.circuit(), &faults, &report.pairs, drop),
            oracle
        );
    }
}

/// `parse → to_bench_seq → parse` reaches a textual fixed point, DFF
/// lines included, and the re-parse is cycle-accurate against the
/// original machine.
#[test]
fn s27_export_reaches_a_textual_fixed_point() {
    let s27 = parse_bench_seq(S27_BENCH).expect("embedded s27 parses");
    let text1 = to_bench_seq(&s27, "s27");
    assert!(text1.contains("G5 = DFF("), "DFF lines survive export");
    let re = parse_bench_seq(&text1).expect("exported text parses");
    assert_eq!(re.state_width(), 3);
    let text2 = to_bench_seq(&re, "s27");
    assert_eq!(text1, text2, "one trip reaches the fixed point");

    // Cycle-accurate agreement over a short stimulus.
    use sinw::switch::value::Logic;
    let state0 = vec![Logic::Zero; 3];
    let stim: Vec<Vec<Logic>> = (0..8u8)
        .map(|t| (0..4).map(|k| Logic::from_bool(t >> k & 1 == 1)).collect())
        .collect();
    assert_eq!(s27.simulate(&state0, &stim), re.simulate(&state0, &stim));
}

/// Malformed sequential input keeps the line-numbered error contract:
/// a `DFF` in combinational-only parsing, a two-input `DFF`, and an
/// undriven `D` net all name their exact 1-based line.
#[test]
fn sequential_errors_are_pinned_to_their_lines() {
    // The combinational parser rejects s27 at its first DFF line.
    let e = parse_bench(S27_BENCH).expect_err("combinational parse must reject DFFs");
    assert_eq!(e.line, 8, "first DFF line of the fixture");
    match &e.kind {
        BenchErrorKind::SequentialElement(net) => assert_eq!(net, "G5"),
        other => panic!("expected SequentialElement, got {other:?}"),
    }
    assert!(
        e.to_string().contains("parse_bench_seq"),
        "the error must point at the sequential entry point: {e}"
    );

    // A DFF with two inputs is a BadArity at its own line.
    let e = parse_bench_seq("INPUT(a)\nOUTPUT(q)\nb = NOT(a)\nq = DFF(a, b)\n")
        .expect_err("two-input DFF");
    assert_eq!(e.line, 4);
    assert!(
        matches!(e.kind, BenchErrorKind::BadArity { .. }),
        "{:?}",
        e.kind
    );

    // A DFF whose D net nothing drives reports the DFF's line.
    let e = parse_bench_seq("INPUT(a)\nOUTPUT(q)\nq = DFF(ghost)\n").expect_err("undriven D net");
    assert_eq!(e.line, 3);
    assert!(
        matches!(e.kind, BenchErrorKind::UndrivenNet(_)),
        "{:?}",
        e.kind
    );

    // An unknown gate type names itself, its line, and the supported set.
    let e = parse_bench_seq("INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n").expect_err("unknown gate");
    assert_eq!(e.line, 3);
    let msg = e.to_string();
    for g in [
        "AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUFF", "DFF",
    ] {
        assert!(msg.contains(g), "supported set must name {g}: {msg}");
    }
}
