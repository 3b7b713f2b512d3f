//! Property tests of the `.sinw` snapshot format: encode → decode is a
//! bit-identical round trip for random circuits (netlist, fault
//! universe, collapse, dictionary signatures), and a decoded circuit is
//! behaviourally indistinguishable from the original — the PPSFP engine
//! produces identical [`FaultSimReport`]s at every supported lane width.
//!
//! [`FaultSimReport`]: sinw_atpg::faultsim::FaultSimReport

use proptest::prelude::*;
use sinw_atpg::collapse::collapse;
use sinw_atpg::diagnose::FaultDictionary;
use sinw_atpg::fault_list::enumerate_stuck_at;
use sinw_atpg::faultsim::{seeded_patterns, simulate_faults_with, SimOptions, SUPPORTED_LANES};
use sinw_atpg::graph::SimGraph;
use sinw_server::snapshot::{canonical_circuit_bytes, Snapshot};
use sinw_switch::cells::CellKind;
use sinw_switch::gate::{Circuit, SignalId};

/// A random DAG of library cells over `n_pi` primary inputs (the same
/// generator shape as the atpg property suite).
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
    let byte = |i: usize| -> usize { seed[i % seed.len()] as usize };
    for g in 0..n_gates {
        let kind = kinds[byte(3 * g) % kinds.len()];
        let mut inputs = Vec::new();
        for pin in 0..kind.input_count() {
            inputs.push(signals[byte(3 * g + pin + 1) % signals.len()]);
        }
        let out = c.add_gate(kind, format!("g{g}"), &inputs);
        signals.push(out);
    }
    let n = signals.len();
    for s in signals.iter().skip(n.saturating_sub(3)) {
        c.mark_output(*s);
    }
    c
}

/// Build a full snapshot (universe + collapse + dictionary) of a random
/// circuit.
fn full_snapshot(c: &Circuit, patterns: &[Vec<bool>]) -> Snapshot {
    let faults = enumerate_stuck_at(c);
    let collapsed = collapse(c, &faults);
    let dictionary = FaultDictionary::build_serial(c, &faults, patterns);
    Snapshot {
        name: String::from("random"),
        circuit: c.clone(),
        faults,
        collapsed: Some(collapsed),
        dictionary: Some(dictionary),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encode → decode → re-encode is byte-identical, and every decoded
    /// section equals its source: the fault universe matches
    /// element-wise, the collapse matches field-wise, the dictionary
    /// matches signature-word by signature-word, and the circuit's
    /// canonical bytes (the registry's content key) are unchanged.
    #[test]
    fn encode_decode_is_bit_identical(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..20,
        n_patterns in 1usize..40,
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let pattern_seed = seed.iter().fold(17u64, |acc, b| acc.rotate_left(5) ^ u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns, pattern_seed);
        let snap = full_snapshot(&c, &patterns);

        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).expect("round trip decodes");
        prop_assert_eq!(decoded.encode(), bytes, "re-encode must be byte-identical");

        prop_assert_eq!(&decoded.faults, &snap.faults);
        let (col_a, col_b) = (snap.collapsed.as_ref().unwrap(), decoded.collapsed.as_ref().unwrap());
        prop_assert_eq!(&col_a.representatives, &col_b.representatives);
        prop_assert_eq!(&col_a.class_of, &col_b.class_of);

        let (dict_a, dict_b) = (snap.dictionary.as_ref().unwrap(), decoded.dictionary.as_ref().unwrap());
        prop_assert_eq!(dict_a.class_count(), dict_b.class_count());
        prop_assert_eq!(dict_a.class_of(), dict_b.class_of());
        for class in 0..dict_a.class_count() {
            prop_assert_eq!(
                dict_a.class_signature(class),
                dict_b.class_signature(class),
                "class {} signature diverges",
                class
            );
        }

        prop_assert_eq!(
            canonical_circuit_bytes(&decoded.circuit),
            canonical_circuit_bytes(&c),
            "canonical content key must survive the round trip"
        );
    }

    /// A decoded circuit is behaviourally identical to the original:
    /// the PPSFP engine over the decoded netlist produces the same
    /// `FaultSimReport`, bit for bit, at every supported lane width.
    #[test]
    fn decoded_circuits_simulate_identically_at_all_lanes(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..20,
        n_patterns in 1usize..60,
        drop_detected in any::<bool>(),
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let faults = enumerate_stuck_at(&c);
        let snap = Snapshot {
            name: String::from("random"),
            circuit: c.clone(),
            faults: faults.clone(),
            collapsed: None,
            dictionary: None,
        };
        let decoded = Snapshot::decode(&snap.encode()).expect("round trip decodes");
        prop_assert_eq!(&decoded.faults, &faults);

        let pattern_seed = seed.iter().fold(23u64, |acc, b| acc.rotate_left(3) ^ u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns, pattern_seed);
        let graph = SimGraph::build(&c);
        let decoded_graph = SimGraph::build(&decoded.circuit);
        for lanes in SUPPORTED_LANES {
            let options = SimOptions { lanes, threads: 1 };
            let (original, _) =
                simulate_faults_with(&c, &graph, &faults, &patterns, drop_detected, options);
            let (replayed, _) = simulate_faults_with(
                &decoded.circuit,
                &decoded_graph,
                &decoded.faults,
                &patterns,
                drop_detected,
                options,
            );
            prop_assert_eq!(
                &original,
                &replayed,
                "decoded circuit diverges at L = {}",
                lanes
            );
        }
    }
}
