//! Golden tests pinning the c6288-class scaling fixture.
//!
//! `sinw_switch::generate::c6288_class()` is a 64×64 array multiplier —
//! the same structure as ISCAS-85 c6288 (a 16×16 array) scaled ×4 per
//! side, which lifts the stuck-at universe to ~100k faults (~81k
//! collapsed classes). These tests pin its shape (cells, faults,
//! collapsed classes) and its coverage under the seeded 96-pattern set,
//! so any change to the generator or the collapsing rules that silently
//! moves the benchmark workload fails loudly here.
//!
//! The full-universe run is `#[ignore]`d (minutes in debug builds); the
//! tier-1 variant samples every 64th collapsed fault and cross-checks
//! lane widths 1 and 4 on the way.

use sinw_atpg::collapse::collapse;
use sinw_atpg::fault_list::enumerate_stuck_at;
use sinw_atpg::fault_list::StuckAtFault;
use sinw_atpg::faultsim::{
    seeded_patterns, simulate_faults_with, FaultSimReport, SimOptions, StealStats,
};
use sinw_atpg::graph::SimGraph;
use sinw_switch::gate::Circuit;
use sinw_switch::generate::c6288_class;

/// The shared seeded pattern set every golden number below is pinned
/// under: 96 patterns, seed `0xDEAD_BEEF` (the repo-wide golden seed).
const GOLDEN_SEED: u64 = 0xDEAD_BEEF;
const GOLDEN_PATTERNS: usize = 96;

/// The detect mode with dropping at an explicit lane width and thread
/// count (0 = every available core).
fn detect(
    c: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    lanes: usize,
    threads: usize,
) -> (FaultSimReport, StealStats) {
    let graph = SimGraph::build(c);
    let options = SimOptions { lanes, threads };
    simulate_faults_with(c, &graph, faults, patterns, true, options)
}

/// Tier-1 golden run, in two parts sharing one enumerate + collapse
/// (the dominant cost in debug builds): first the fixture shape (cells,
/// faults, collapsed classes), then a truncated coverage run — every
/// 64th collapsed representative (~1.3k faults) under the seeded
/// 96-pattern set, with the detected count pinned and lane widths 1 and
/// 4 required to agree bit for bit.
#[test]
fn c6288_class_shape_and_sampled_coverage_are_pinned() {
    let c = c6288_class();
    assert_eq!(c.primary_inputs().len(), 128, "two 64-bit operands");
    assert_eq!(c.primary_outputs().len(), 128, "full 128-bit product");
    assert_eq!(c.gates().len(), 16320, "cell count");
    let faults = enumerate_stuck_at(&c);
    assert_eq!(faults.len(), 97408, "uncollapsed stuck-at universe");
    let collapsed = collapse(&c, &faults);
    assert_eq!(
        collapsed.representatives.len(),
        80768,
        "collapsed fault classes"
    );
    let sample: Vec<_> = collapsed
        .representatives
        .iter()
        .copied()
        .step_by(64)
        .collect();
    let patterns = seeded_patterns(c.primary_inputs().len(), GOLDEN_PATTERNS, GOLDEN_SEED);
    let (l1, _) = detect(&c, &sample, &patterns, 1, 1);
    let (l4, _) = detect(&c, &sample, &patterns, 4, 1);
    assert_eq!(l1, l4, "lane widths 1 and 4 must agree");
    assert_eq!(sample.len(), 1262, "sample size");
    assert_eq!(
        l1.detected.len(),
        1262,
        "96 seeded patterns detect the whole sample"
    );
}

/// Full-universe golden run: all collapsed representatives under the
/// seeded 96-pattern set, work stealing on every core at L = 4 required
/// to agree with one thread at L = 1. Ignored by default — run with
/// `cargo test -p sinw-atpg --test c6288_class --release -- --ignored`.
#[test]
#[ignore = "full 80k-fault universe; minutes in debug builds"]
fn c6288_class_full_coverage_is_pinned() {
    let c = c6288_class();
    let faults = enumerate_stuck_at(&c);
    let collapsed = collapse(&c, &faults);
    let patterns = seeded_patterns(c.primary_inputs().len(), GOLDEN_PATTERNS, GOLDEN_SEED);
    let (steal, stats) = detect(&c, &collapsed.representatives, &patterns, 4, 0);
    let (alone, _) = detect(&c, &collapsed.representatives, &patterns, 1, 1);
    assert_eq!(steal, alone, "T=0/L=4 work stealing and T=1/L=1 must agree");
    assert!(stats.chunks > 0);
    assert_eq!(steal.detected.len(), 80758, "detected faults");
    let coverage = steal.coverage();
    assert!(
        (coverage - 0.999_876).abs() < 0.000_05,
        "coverage {coverage} drifted from the pinned 99.9876%"
    );
}
