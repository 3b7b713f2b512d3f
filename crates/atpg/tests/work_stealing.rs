//! Work-stealing determinism under an adversarially skewed universe.
//!
//! The csa16 all-pass class (faults its seeded pattern set never
//! detects) is the canonical scheduling adversary: with dropping on,
//! detected faults retire after their first block while all-pass faults
//! are re-simulated against every block, so a fault list that
//! front-loads hundreds of all-pass replicas hands some workers far
//! more work than others. Static partitioning idles the light workers;
//! the work-stealing queue must (a) keep the merged report bit-identical
//! to the single-worker run anyway, and (b) actually steal — the
//! [`StealStats::steals`] counter proves the deque is exercised, not
//! just compiled.
//!
//! [`StealStats::steals`]: sinw_atpg::StealStats

use sinw_atpg::fault_list::enumerate_stuck_at;
use sinw_atpg::fault_list::StuckAtFault;
use sinw_atpg::faultsim::{
    seeded_patterns, simulate_faults_with, FaultSimReport, SimOptions, StealStats,
};
use sinw_atpg::graph::SimGraph;
use sinw_switch::gate::Circuit;
use sinw_switch::generate::carry_select_adder;

/// The detect mode with dropping at L = 1 on `threads` workers.
fn detect(
    c: &Circuit,
    graph: &SimGraph,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    threads: usize,
) -> (FaultSimReport, StealStats) {
    let options = SimOptions { lanes: 1, threads };
    simulate_faults_with(c, graph, faults, patterns, true, options)
}

#[test]
fn skewed_universe_is_deterministic_and_actually_steals() {
    let c: Circuit = carry_select_adder(16, 4);
    let faults = enumerate_stuck_at(&c);
    let patterns = seeded_patterns(c.primary_inputs().len(), 96, 0xDEAD_BEEF);
    let graph = SimGraph::build(&c);

    // One calibration pass finds the all-pass class: the faults the
    // seeded set never detects.
    let (calibration, _) = detect(&c, &graph, &faults, &patterns, 1);
    let all_pass: Vec<_> = calibration
        .undetected
        .iter()
        .map(|&fi| faults[fi])
        .collect();
    assert!(
        !all_pass.is_empty(),
        "csa16 must have an all-pass class under the seeded set"
    );

    // Adversarial universe: ~200 replicas of the all-pass class up
    // front (never dropped, re-simulated every block), the full
    // droppable universe behind.
    let mut skewed = Vec::new();
    while skewed.len() < 200 * all_pass.len() {
        skewed.extend_from_slice(&all_pass);
    }
    skewed.extend_from_slice(&faults);

    let (reference, _) = detect(&c, &graph, &skewed, &patterns, 1);
    let mut total_steals = 0usize;
    for run in 0..16 {
        for workers in [1usize, 2, 4] {
            let (report, stats) = detect(&c, &graph, &skewed, &patterns, workers);
            assert_eq!(
                report, reference,
                "run {run} with {workers} workers must match the single-worker report"
            );
            assert!(stats.workers <= workers.max(1));
            if workers == 1 {
                assert_eq!(stats.steals, 0, "a lone worker has nobody to steal from");
            }
            total_steals += stats.steals;
        }
    }
    assert!(
        total_steals > 0,
        "48 multi-worker runs over a skewed universe must steal at least once"
    );
}
