//! End-to-end tests of the benchmark workload subsystem: the `.bench`
//! frontend, the fault pipeline on the embedded fixtures, and the
//! engine-agreement acceptance criterion of the PPSFP work.

use sinw::atpg::collapse::collapse;
use sinw::atpg::fault_list::enumerate_stuck_at;
use sinw::atpg::fault_list::StuckAtFault;
use sinw::atpg::faultsim::{
    seeded_patterns, simulate_faults, simulate_faults_full_pass, simulate_faults_serial,
    simulate_faults_with, FaultSimReport, SimOptions,
};
use sinw::atpg::graph::SimGraph;
use sinw::atpg::oracle::stuck_at_oracle;
use sinw::core::experiments::{benchmark_suite, fault_coverage};
use sinw::switch::gate::Circuit;
use sinw::switch::iscas::{parse_bench, C17_BENCH, CSA16_BENCH};

fn exhaustive_patterns(n_pi: usize) -> Vec<Vec<bool>> {
    (0..(1u32 << n_pi))
        .map(|bits| (0..n_pi).map(|k| (bits >> k) & 1 == 1).collect())
        .collect()
}

/// The detect mode with dropping on `threads` workers (0 = every core).
fn threaded(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    threads: usize,
) -> FaultSimReport {
    let graph = SimGraph::build(circuit);
    let options = SimOptions {
        threads,
        ..SimOptions::default()
    };
    simulate_faults_with(circuit, &graph, faults, patterns, true, options).0
}

/// Golden numbers for c17: the full stuck-at universe has 22 stem + 12
/// branch faults; NAND input/output equivalences collapse it to 22; the
/// exhaustive pattern set detects every representative.
#[test]
fn c17_stuck_at_coverage_golden() {
    let c17 = parse_bench(C17_BENCH).expect("embedded c17 parses");
    let faults = enumerate_stuck_at(&c17);
    assert_eq!(faults.len(), 34, "c17 single-stuck-at universe");
    let collapsed = collapse(&c17, &faults);
    assert_eq!(
        collapsed.representatives.len(),
        22,
        "c17 collapsed universe"
    );
    let patterns = exhaustive_patterns(5);
    let report = threaded(&c17, &collapsed.representatives, &patterns, 0);
    assert_eq!(report.detected.len(), 22);
    assert_eq!(report.undetected.len(), 0);
    assert_eq!(report.coverage(), 1.0, "c17 is fully testable");
}

/// The acceptance criterion: parsing the embedded c17, collapsing, and
/// running thread-parallel PPSFP yields the same detected-fault set as
/// the serial engine.
#[test]
fn c17_thread_parallel_matches_serial() {
    let c17 = parse_bench(C17_BENCH).expect("embedded c17 parses");
    let faults = enumerate_stuck_at(&c17);
    let collapsed = collapse(&c17, &faults);
    let patterns = exhaustive_patterns(5);
    let serial = simulate_faults_serial(&c17, &collapsed.representatives, &patterns, true);
    for threads in [1usize, 2, 5, 0] {
        let report = threaded(&c17, &collapsed.representatives, &patterns, threads);
        assert_eq!(report, serial, "threads = {threads}");
    }
}

/// Engine agreement on the mid-size embedded fixture with a random
/// pattern set (csa16 is too wide for exhaustive application). The
/// scalar oracle, the full-pass baseline and the three event-driven
/// layouts must agree bit for bit.
#[test]
fn csa16_engines_agree() {
    let csa = parse_bench(CSA16_BENCH).expect("embedded csa16 parses");
    let faults = enumerate_stuck_at(&csa);
    let collapsed = collapse(&csa, &faults);
    let patterns = seeded_patterns(csa.primary_inputs().len(), 96, 0xDEAD_BEEF);
    let serial = simulate_faults_serial(&csa, &collapsed.representatives, &patterns, true);
    let block = simulate_faults(&csa, &collapsed.representatives, &patterns, true);
    let threaded = threaded(&csa, &collapsed.representatives, &patterns, 3);
    let full_pass = simulate_faults_full_pass(&csa, &collapsed.representatives, &patterns, true);
    let oracle = stuck_at_oracle(&csa, &collapsed.representatives, &patterns);
    assert_eq!(serial, block);
    assert_eq!(serial, threaded);
    assert_eq!(serial, full_pass);
    assert_eq!(serial, oracle);
    assert!(
        serial.coverage() > 0.9,
        "random patterns cover most of csa16"
    );
}

/// Golden numbers for the mid-size embedded fixture, companion to the c17
/// golden above: the csa16 stuck-at universe, its collapse, and the
/// coverage of the deterministic 96-pattern seeded set are pinned so a
/// kernel change that silently shifts any stage of the pipeline fails
/// loudly here.
#[test]
fn csa16_stuck_at_coverage_golden() {
    let csa = parse_bench(CSA16_BENCH).expect("embedded csa16 parses");
    assert_eq!(csa.gates().len(), 308, "csa16 maps to 308 CP cells");
    let faults = enumerate_stuck_at(&csa);
    assert_eq!(faults.len(), 1192, "csa16 single-stuck-at universe");
    let collapsed = collapse(&csa, &faults);
    assert_eq!(
        collapsed.representatives.len(),
        626,
        "csa16 collapsed universe"
    );
    let patterns = seeded_patterns(csa.primary_inputs().len(), 96, 0xDEAD_BEEF);
    let report = threaded(&csa, &collapsed.representatives, &patterns, 0);
    assert_eq!(report.detected.len(), 620);
    assert_eq!(report.undetected.len(), 6);
    let coverage = report.coverage();
    assert!(
        (coverage - 620.0 / 626.0).abs() < 1e-12,
        "csa16 coverage pinned at 620/626, got {coverage}"
    );
}

/// The full driver: every benchmark flows through parse → map → collapse
/// → simulate, c17 reaches full coverage, and nothing reports an empty
/// universe.
#[test]
fn fault_coverage_driver_covers_the_suite() {
    let result = fault_coverage(true);
    assert_eq!(result.rows.len(), benchmark_suite(true).len());
    for row in &result.rows {
        assert!(row.cells > 0, "{} maps to cells", row.name);
        assert!(
            row.collapsed > 0 && row.collapsed <= row.faults,
            "{}",
            row.name
        );
        assert!(row.coverage > 0.9, "{} coverage {}", row.name, row.coverage);
        assert!(
            row.effective_test_length <= row.patterns,
            "{} test length bounded",
            row.name
        );
    }
    let c17 = result.row("c17").expect("driver includes c17");
    assert!(c17.exhaustive);
    assert_eq!(c17.coverage, 1.0);
}
