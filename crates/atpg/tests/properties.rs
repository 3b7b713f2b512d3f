//! Property-based tests of the ATPG substrate: PODEM soundness and
//! completeness on random circuits, and every fault-sim engine mode
//! against the scalar references of `sinw_atpg::oracle`.

use proptest::prelude::*;
use sinw_atpg::collapse::collapse;
use sinw_atpg::diagnose::{full_pass_observations, FaultDictionary};
use sinw_atpg::fault_list::enumerate_stuck_at;
use sinw_atpg::fault_list::StuckAtFault;
use sinw_atpg::faultsim::{
    capture_signatures, capture_signatures_serial, capture_signatures_with, compact_reverse,
    detect_mask, detect_mask_in, seeded_patterns, simulate_faults, simulate_faults_full_pass,
    simulate_faults_serial, simulate_faults_with, FaultSimReport, FaultSimScratch, PatternBlock,
    SignatureMatrix, SimOptions, SUPPORTED_LANES,
};
use sinw_atpg::graph::SimGraph;
use sinw_atpg::oracle::{
    signature_oracle, stuck_at_oracle, transition_oracle, transition_signature_oracle,
};
use sinw_atpg::podem::{fill_cube, generate_test, PodemConfig, PodemResult};
use sinw_atpg::tpg::{AtpgConfig, AtpgEngine, FaultStatus};
use sinw_atpg::transition::{
    capture_transition_signatures_with, enumerate_transition, simulate_transition_with,
};
use sinw_atpg::CircuitTwoPattern;
use sinw_switch::cells::CellKind;
use sinw_switch::gate::{Circuit, SignalId};
use sinw_switch::generate::{array_multiplier, carry_select_adder};

/// A random DAG of library cells over `n_pi` primary inputs.
fn random_circuit(n_pi: usize, n_gates: usize, seed: &[u8]) -> Circuit {
    let mut c = Circuit::new();
    let mut signals: Vec<SignalId> = (0..n_pi).map(|i| c.add_input(format!("i{i}"))).collect();
    let kinds = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xor3,
        CellKind::Maj3,
    ];
    let mut k = 0usize;
    let byte = |i: usize| -> usize { seed[i % seed.len()] as usize };
    for g in 0..n_gates {
        let kind = kinds[byte(3 * g) % kinds.len()];
        let mut inputs = Vec::new();
        for pin in 0..kind.input_count() {
            inputs.push(signals[byte(3 * g + pin + 1) % signals.len()]);
        }
        k += 1;
        let out = c.add_gate(kind, format!("g{k}"), &inputs);
        signals.push(out);
    }
    // Mark the last few signals as outputs so everything has a chance to
    // be observed.
    let n = signals.len();
    for s in signals.iter().skip(n.saturating_sub(3)) {
        c.mark_output(*s);
    }
    c
}

/// Every `step`-th fault of `universe`: subsetting desynchronises fault
/// indices from circuit structure, so worklist-seeding bookkeeping bugs
/// surface.
fn every_nth<T: Copy>(universe: &[T], step: usize) -> Vec<T> {
    universe.iter().copied().step_by(step).collect()
}

/// The detect mode at an explicit lane width and thread count.
fn detect_at(
    c: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    drop_detected: bool,
    lanes: usize,
    threads: usize,
) -> FaultSimReport {
    let graph = SimGraph::build(c);
    let options = SimOptions { lanes, threads };
    simulate_faults_with(c, &graph, faults, patterns, drop_detected, options).0
}

/// The capture mode at an explicit lane width and thread count.
fn capture_at(
    c: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    lanes: usize,
    threads: usize,
) -> SignatureMatrix {
    let graph = SimGraph::build(c);
    capture_signatures_with(c, &graph, faults, patterns, SimOptions { lanes, threads }).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PODEM and the PPSFP kernel are independent implementations and must
    /// agree: every `PodemResult::Test` cube — under *any* don't-care fill
    /// — detects its target fault under `simulate_faults`, and every
    /// `Untestable` verdict survives exhaustive simulation (the circuits
    /// stay far under the 12-PI exhaustive budget). Subsetting the fault
    /// universe desynchronises fault indices from circuit structure.
    #[test]
    fn podem_is_sound_and_complete(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..8,
        keep_one_in in 1usize..4,
    ) {
        let n_pi = 4usize;
        let c = random_circuit(n_pi, n_gates, &seed);
        let config = PodemConfig::default();
        let exhaustive: Vec<Vec<bool>> = (0..(1u32 << n_pi))
            .map(|bits| (0..n_pi).map(|k| (bits >> k) & 1 == 1).collect())
            .collect();
        let universe = enumerate_stuck_at(&c);
        let faults = universe
            .iter()
            .enumerate()
            .filter(|(i, _)| i % keep_one_in == 0)
            .map(|(_, f)| *f);

        for fault in faults {
            match generate_test(&c, fault, &config) {
                PodemResult::Test(cube) => {
                    // Detection must hold for every completion of the cube.
                    for fill in [false, true] {
                        let filled = fill_cube(&cube, fill);
                        let report = simulate_faults(&c, &[fault], &[filled], false);
                        prop_assert_eq!(
                            report.detected.len(),
                            1,
                            "fill {} of cube {:?} misses {}",
                            fill,
                            &cube,
                            fault.describe(&c)
                        );
                    }
                }
                PodemResult::Untestable => {
                    let report = simulate_faults(&c, &[fault], &exhaustive, false);
                    prop_assert!(
                        report.detected.is_empty(),
                        "{} declared untestable but a pattern exists",
                        fault.describe(&c)
                    );
                }
                PodemResult::Aborted => {
                    // Permitted by the contract, but should not occur on
                    // such small circuits.
                    prop_assert!(false, "aborted on a tiny circuit");
                }
            }
        }
    }

    /// The campaign engine end to end on random circuits: the final
    /// compacted pattern set — re-verified by an independent
    /// `simulate_faults` pass — detects every testable collapsed fault,
    /// and every `Untestable` verdict is confirmed by exhaustive
    /// simulation.
    #[test]
    fn atpg_campaign_reaches_full_testable_coverage(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..14,
        max_random_blocks in 0usize..6,
    ) {
        let n_pi = 5usize;
        let c = random_circuit(n_pi, n_gates, &seed);
        let campaign_seed = seed
            .iter()
            .fold(0xC0FF_EE00u64, |acc, b| acc.wrapping_mul(131) ^ u64::from(*b));
        let config = AtpgConfig {
            seed: campaign_seed,
            max_random_blocks,
            random_window: 2,
            ..AtpgConfig::default()
        };
        let (collapsed, report) = AtpgEngine::run_collapsed(&c, config);
        prop_assert_eq!(report.aborted, 0, "tiny circuits must not abort");
        prop_assert_eq!(report.testable_coverage(), 1.0);
        prop_assert!(report.patterns.len() <= report.patterns_before_compaction);
        prop_assert!(report.podem_calls <= collapsed.representatives.len());

        // Independent verification of the compacted set on the public
        // PPSFP engine (not the engine's own kernel calls).
        let check = simulate_faults(&c, &collapsed.representatives, &report.patterns, true);
        prop_assert_eq!(check.detected.len(), report.detected());

        // Untestable verdicts cross-checked exhaustively (5 PIs).
        let exhaustive: Vec<Vec<bool>> = (0..(1u32 << n_pi))
            .map(|bits| (0..n_pi).map(|k| (bits >> k) & 1 == 1).collect())
            .collect();
        let untestable: Vec<_> = collapsed
            .representatives
            .iter()
            .zip(&report.statuses)
            .filter(|(_, s)| **s == FaultStatus::Untestable)
            .map(|(f, _)| *f)
            .collect();
        if !untestable.is_empty() {
            let red = simulate_faults(&c, &untestable, &exhaustive, false);
            prop_assert!(red.detected.is_empty(), "false Untestable verdict");
        }
    }

    /// The serial and 64-way bit-parallel fault simulators both equal the
    /// scalar oracle.
    #[test]
    fn serial_and_parallel_fault_sim_agree(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..10,
        patterns in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 5),
            1..40
        ),
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let faults = enumerate_stuck_at(&c);
        let oracle = stuck_at_oracle(&c, &faults, &patterns);
        let par = simulate_faults(&c, &faults, &patterns, false);
        let ser = simulate_faults_serial(&c, &faults, &patterns, false);
        prop_assert_eq!(&oracle, &par);
        prop_assert_eq!(&oracle, &ser);
    }

    /// All three layouts — serial, 64-way bit-parallel, thread-parallel —
    /// report the oracle's detected-fault set and first-detection profile
    /// on random DAGs, with and without fault dropping, at odd worker
    /// counts.
    #[test]
    fn all_three_engines_agree_on_random_circuits(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..12,
        n_patterns in 1usize..80,
        drop_detected in any::<bool>(),
        threads in 1usize..7,
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let faults = enumerate_stuck_at(&c);
        let pattern_seed = seed.iter().fold(0u64, |acc, b| (acc << 8) | u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns, pattern_seed);
        let oracle = stuck_at_oracle(&c, &faults, &patterns);
        let ser = simulate_faults_serial(&c, &faults, &patterns, drop_detected);
        let par = simulate_faults(&c, &faults, &patterns, drop_detected);
        let thr = detect_at(&c, &faults, &patterns, drop_detected, 1, threads);
        prop_assert_eq!(&oracle, &ser);
        prop_assert_eq!(&oracle, &par);
        prop_assert_eq!(&oracle, &thr);
    }

    /// Engine agreement on the *generated* benchmark structures (adders
    /// and multipliers stress reconvergent fanout much harder than the
    /// random DAGs above).
    #[test]
    fn engines_agree_on_generated_benchmarks(
        which in 0usize..3,
        width in 2usize..5,
        seed in any::<u64>(),
        threads in 2usize..6,
    ) {
        let c = match which {
            0 => Circuit::ripple_adder(width),
            1 => carry_select_adder(width + 2, 2),
            _ => array_multiplier(width),
        };
        let faults = enumerate_stuck_at(&c);
        let patterns = seeded_patterns(c.primary_inputs().len(), 70, seed);
        let oracle = stuck_at_oracle(&c, &faults, &patterns);
        let ser = simulate_faults_serial(&c, &faults, &patterns, true);
        let par = simulate_faults(&c, &faults, &patterns, true);
        let thr = detect_at(&c, &faults, &patterns, true, 1, threads);
        prop_assert_eq!(&oracle, &ser);
        prop_assert_eq!(&oracle, &par);
        prop_assert_eq!(&oracle, &thr);
    }

    /// The event-driven kernel and the full-pass ablation baseline against
    /// the scalar oracle: random circuits × random fault-list subsets ×
    /// random pattern blocks must produce bit-identical `FaultSimReport`s,
    /// with and without fault dropping.
    #[test]
    fn event_driven_matches_full_pass_on_random_universes(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..24,
        n_patterns in 1usize..150,
        keep_one_in in 1usize..4,
        drop_detected in any::<bool>(),
        threads in 1usize..5,
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let universe = enumerate_stuck_at(&c);
        let faults = every_nth(&universe, keep_one_in);
        let pattern_seed = seed.iter().fold(1u64, |acc, b| acc.wrapping_mul(31) ^ u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns, pattern_seed);
        let oracle = stuck_at_oracle(&c, &faults, &patterns);
        let full = simulate_faults_full_pass(&c, &faults, &patterns, drop_detected);
        let event = simulate_faults(&c, &faults, &patterns, drop_detected);
        let event_serial = simulate_faults_serial(&c, &faults, &patterns, drop_detected);
        let event_threaded = detect_at(&c, &faults, &patterns, drop_detected, 1, threads);
        prop_assert_eq!(&oracle, &full);
        prop_assert_eq!(&oracle, &event);
        prop_assert_eq!(&oracle, &event_serial);
        prop_assert_eq!(&oracle, &event_threaded);
    }

    /// Same checks on the *generated* benchmark structures, whose deep
    /// reconvergent fanout exercises worklist dedup and level ordering
    /// much harder than the shallow random DAGs.
    #[test]
    fn event_driven_matches_full_pass_on_generated_benchmarks(
        which in 0usize..3,
        width in 2usize..5,
        seed in any::<u64>(),
    ) {
        let c = match which {
            0 => Circuit::ripple_adder(width),
            1 => carry_select_adder(width + 2, 2),
            _ => array_multiplier(width),
        };
        let faults = enumerate_stuck_at(&c);
        let patterns = seeded_patterns(c.primary_inputs().len(), 70, seed);
        let oracle = stuck_at_oracle(&c, &faults, &patterns);
        let full = simulate_faults_full_pass(&c, &faults, &patterns, true);
        let event = simulate_faults(&c, &faults, &patterns, true);
        prop_assert_eq!(&oracle, &full);
        prop_assert_eq!(&oracle, &event);
    }

    /// `detect_mask_in` with one long-lived scratch agrees with the
    /// allocating `detect_mask` wrapper across random circuits — buffer
    /// reuse (including growth between differently-sized circuits) must
    /// never leak state between calls.
    #[test]
    fn detect_mask_in_agrees_with_detect_mask(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..16,
        n_patterns in 1usize..40,
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let pattern_seed = seed.iter().fold(7u64, |acc, b| (acc << 7) ^ u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns.min(64), pattern_seed);
        let block: PatternBlock = PatternBlock::pack(&c, &patterns);
        let mut scratch = FaultSimScratch::new();
        for fault in enumerate_stuck_at(&c) {
            prop_assert_eq!(
                detect_mask_in(&c, fault, &block, &mut scratch),
                detect_mask(&c, fault, &block),
                "{}",
                fault.describe(&c)
            );
        }
    }

    /// The signature-capture mode: the serial, 64-way and threaded
    /// captures equal the scalar signature oracle on random circuits ×
    /// fault subsets × pattern blocks, and a fault's signature is nonzero
    /// **iff** the detect mode reports it detected — with the first
    /// failing pattern reproducing the first-detection profile.
    #[test]
    fn signature_capture_agrees_with_the_detect_engines(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..24,
        n_patterns in 1usize..150,
        keep_one_in in 1usize..4,
        threads in 1usize..5,
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let universe = enumerate_stuck_at(&c);
        let faults = every_nth(&universe, keep_one_in);
        let pattern_seed = seed.iter().fold(3u64, |acc, b| acc.wrapping_mul(37) ^ u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns, pattern_seed);

        let sig = signature_oracle(&c, &faults, &patterns);
        prop_assert_eq!(&sig, &capture_signatures(&c, &faults, &patterns));
        prop_assert_eq!(&sig, &capture_signatures_serial(&c, &faults, &patterns));
        prop_assert_eq!(&sig, &capture_at(&c, &faults, &patterns, 1, threads));

        let detected: Vec<usize> = (0..faults.len()).filter(|fi| sig.is_detected(*fi)).collect();
        let par = simulate_faults(&c, &faults, &patterns, false);
        let ser = simulate_faults_serial(&c, &faults, &patterns, false);
        let thr = detect_at(&c, &faults, &patterns, false, 1, threads);
        prop_assert_eq!(&detected, &par.detected);
        prop_assert_eq!(&detected, &ser.detected);
        prop_assert_eq!(&detected, &thr.detected);
        // Dropping changes nothing about which faults are detected.
        let dropped = simulate_faults(&c, &faults, &patterns, true);
        prop_assert_eq!(&detected, &dropped.detected);

        // The signature's first failing pattern reproduces the engines'
        // first-detection credit, bit for bit.
        let mut firsts = vec![0usize; patterns.len()];
        for fi in 0..faults.len() {
            if let Some(p) = sig.first_failing_pattern(fi) {
                firsts[p] += 1;
            }
        }
        prop_assert_eq!(&firsts, &par.first_detections);
    }

    /// The diagnosis round trip: inject a random collapsed stuck-at
    /// fault, simulate its observable response with the independent
    /// full-pass oracle, and the dictionary must rank the true fault's
    /// indistinguishability class first (as a unique exact match) —
    /// across serial/threaded dictionary builds and with/without
    /// reverse-order pattern compaction.
    #[test]
    fn diagnosis_ranks_the_true_class_first(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..14,
        n_patterns in 1usize..60,
        threaded in any::<bool>(),
        compacted in any::<bool>(),
        pick in any::<u64>(),
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let universe = enumerate_stuck_at(&c);
        let collapsed = collapse(&c, &universe);
        let pattern_seed = seed.iter().fold(11u64, |acc, b| acc.wrapping_mul(41) ^ u64::from(*b));
        let mut patterns = seeded_patterns(5, n_patterns, pattern_seed);
        if compacted {
            patterns = compact_reverse(&c, &collapsed.representatives, &patterns);
        }
        let dict = if threaded {
            FaultDictionary::from_signatures(&capture_at(&c, &universe, &patterns, 1, 3))
        } else {
            FaultDictionary::build_serial(&c, &universe, &patterns)
        };

        let rep = collapsed.representatives[(pick as usize) % collapsed.representatives.len()];
        let fi = universe
            .iter()
            .position(|f| *f == rep)
            .expect("representatives come from the universe");
        let obs = full_pass_observations(&c, rep, &patterns);
        let report = dict.diagnose(&obs);
        let best = report.best().expect("non-empty dictionary");
        prop_assert!(best.exact, "{} must match exactly", rep.describe(&c));
        prop_assert_eq!(
            best.class,
            dict.class_of()[fi],
            "true class of {} not ranked first",
            rep.describe(&c)
        );
        // An exact match is unique: every other candidate is strictly
        // farther.
        for cand in &report.candidates[1..] {
            prop_assert!(cand.distance > 0);
        }
    }

    /// Collapsed fault classes are detection-equivalent under exhaustive
    /// simulation.
    #[test]
    fn collapse_preserves_detectability(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..8,
    ) {
        let n_pi = 4usize;
        let c = random_circuit(n_pi, n_gates, &seed);
        let faults = enumerate_stuck_at(&c);
        let collapsed = collapse(&c, &faults);
        let exhaustive: Vec<Vec<bool>> = (0..(1u32 << n_pi))
            .map(|bits| (0..n_pi).map(|k| (bits >> k) & 1 == 1).collect())
            .collect();
        let block: PatternBlock = PatternBlock::pack(&c, &exhaustive);
        for (fi, fault) in faults.iter().enumerate() {
            let rep = collapsed.representatives[collapsed.class_of[fi]];
            prop_assert_eq!(
                detect_mask(&c, *fault, &block),
                detect_mask(&c, rep, &block),
                "{} vs its representative {}",
                fault.describe(&c),
                rep.describe(&c)
            );
        }
    }

    /// The lane-differential property: every supported lane width must
    /// produce `FaultSimReport`s bit-identical to the scalar oracle, on
    /// one thread and with work stealing, across random circuits × fault
    /// subsets × drop on/off × worker counts. Wider lanes change the
    /// block capacity (64·L patterns per good-machine pass), so any
    /// masking or first-detection-index bug that depends on block
    /// boundaries surfaces here.
    #[test]
    fn lane_widths_are_differentially_identical(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..24,
        n_patterns in 1usize..400,
        keep_one_in in 1usize..4,
        drop_detected in any::<bool>(),
        threads in 1usize..5,
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let universe = enumerate_stuck_at(&c);
        let faults = every_nth(&universe, keep_one_in);
        let pattern_seed = seed.iter().fold(5u64, |acc, b| acc.rotate_left(9) ^ u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns, pattern_seed);
        let oracle = stuck_at_oracle(&c, &faults, &patterns);
        for lanes in SUPPORTED_LANES {
            let wide = detect_at(&c, &faults, &patterns, drop_detected, lanes, 1);
            prop_assert_eq!(&oracle, &wide, "one thread at L = {}", lanes);
            let thr = detect_at(&c, &faults, &patterns, drop_detected, lanes, threads);
            prop_assert_eq!(&oracle, &thr, "{} threads at L = {}", threads, lanes);
        }
    }

    /// The lane-differential property for signature capture: the full
    /// per-fault × per-pattern × per-PO `SignatureMatrix` must equal the
    /// scalar signature oracle at every lane width, single-threaded and
    /// work-stealing, and agree row by row with the whole-circuit
    /// `full_pass_observations` the diagnosis suites play the tester
    /// with.
    #[test]
    fn signature_capture_is_lane_and_schedule_invariant(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..16,
        n_patterns in 1usize..200,
        keep_one_in in 1usize..4,
        threads in 1usize..5,
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let universe = enumerate_stuck_at(&c);
        let faults = every_nth(&universe, keep_one_in);
        let pattern_seed = seed.iter().fold(13u64, |acc, b| acc.rotate_left(7) ^ u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns, pattern_seed);
        let narrow = signature_oracle(&c, &faults, &patterns);
        for lanes in SUPPORTED_LANES {
            let wide = capture_at(&c, &faults, &patterns, lanes, 1);
            prop_assert_eq!(&narrow, &wide, "capture at L = {}", lanes);
            let thr = capture_at(&c, &faults, &patterns, lanes, threads);
            prop_assert_eq!(&narrow, &thr, "threaded capture at L = {}", lanes);
        }
        // Row-by-row against the whole-circuit observation oracle.
        for (fi, &fault) in faults.iter().enumerate() {
            let mut observed = Vec::new();
            for p in 0..patterns.len() {
                for o in 0..c.primary_outputs().len() {
                    if narrow.fails(fi, p, o) {
                        observed.push((p, o));
                    }
                }
            }
            prop_assert_eq!(
                observed,
                full_pass_observations(&c, fault, &patterns),
                "{} row diverges from the oracle",
                fault.describe(&c)
            );
        }
    }
    /// The oracle differential suite: all four engine modes — stuck-at
    /// detect (with and without dropping), stuck-at capture, transition
    /// detect (with and without dropping) and transition capture — at
    /// lanes {1, 2, 4, 8} × threads {1, 2, 3}, each against its scalar
    /// oracle. Pattern counts straddle the 64·L block boundaries, and the
    /// fault subsets desynchronise fault indices from circuit structure.
    #[test]
    fn oracle_differential_all_modes_every_lane_and_thread_count(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..20,
        n_patterns in 1usize..140,
        keep_one_in in 1usize..3,
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let graph = SimGraph::build(&c);
        let faults = every_nth(&enumerate_stuck_at(&c), keep_one_in);
        let transition_faults = every_nth(&enumerate_transition(&c), keep_one_in);
        let pattern_seed = seed.iter().fold(17u64, |acc, b| acc.rotate_left(5) ^ u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns, pattern_seed);
        let pairs: Vec<CircuitTwoPattern> = patterns
            .iter()
            .zip(patterns.iter().rev())
            .map(|(init, eval)| CircuitTwoPattern {
                init: init.clone(),
                eval: eval.clone(),
            })
            .collect();

        let detect = stuck_at_oracle(&c, &faults, &patterns);
        let capture = signature_oracle(&c, &faults, &patterns);
        let pair_detect = transition_oracle(&c, &transition_faults, &pairs);
        let pair_capture = transition_signature_oracle(&c, &transition_faults, &pairs);
        for lanes in SUPPORTED_LANES {
            for threads in [1usize, 2, 3] {
                let options = SimOptions { lanes, threads };
                for drop_detected in [false, true] {
                    let (report, _) = simulate_faults_with(
                        &c, &graph, &faults, &patterns, drop_detected, options,
                    );
                    prop_assert_eq!(
                        &detect, &report,
                        "stuck-at detect, L = {}, T = {}, drop = {}", lanes, threads, drop_detected
                    );
                    let (report, _) = simulate_transition_with(
                        &c, &graph, &transition_faults, &pairs, drop_detected, options,
                    );
                    prop_assert_eq!(
                        &pair_detect, &report,
                        "transition detect, L = {}, T = {}, drop = {}", lanes, threads, drop_detected
                    );
                }
                let (sig, _) = capture_signatures_with(&c, &graph, &faults, &patterns, options);
                prop_assert_eq!(
                    &capture, &sig, "stuck-at capture, L = {}, T = {}", lanes, threads
                );
                let (sig, _) = capture_transition_signatures_with(
                    &c, &graph, &transition_faults, &pairs, options,
                );
                prop_assert_eq!(
                    &pair_capture, &sig, "transition capture, L = {}, T = {}", lanes, threads
                );
            }
        }
    }
}
