//! PODEM results pinned bit for bit: every cube, `Untestable` and
//! `Aborted` verdict over fixed fault lists, folded into one FNV-1a hash
//! per list. The hashes were taken from the full-pass implication engine
//! before implication became event-driven; any change to the decision
//! order, a cube entry or a verdict changes them.

use sinw_atpg::fault_list::{enumerate_stuck_at, FaultSite, StuckAtFault};
use sinw_atpg::podem::{generate_test, generate_test_constrained, PodemConfig, PodemResult};
use sinw_atpg::tpg::FaultStatus;
use sinw_atpg::transition::{enumerate_transition, TransitionAtpg, TransitionAtpgConfig};
use sinw_atpg::unroll::{unroll, UnrollConfig};
use sinw_switch::gate::Circuit;
use sinw_switch::generate::{array_multiplier, carry_select_adder, pipelined_carry_select_adder};
use sinw_switch::iscas::{parse_bench_seq, to_bench_seq};

/// FNV-1a over one byte per result tag and cube entry.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }

    fn result(&mut self, r: &PodemResult) {
        match r {
            PodemResult::Test(cube) => {
                self.byte(0);
                for v in cube {
                    self.byte(match v {
                        Some(false) => 0,
                        Some(true) => 1,
                        None => 2,
                    });
                }
            }
            PodemResult::Untestable => self.byte(1),
            PodemResult::Aborted => self.byte(2),
        }
    }
}

/// `generate_test` over every stuck-at fault of each circuit, in
/// enumeration order.
#[test]
fn stuck_at_results_match_golden_hash() {
    let circuits = [
        Circuit::c17(),
        Circuit::full_adder(),
        Circuit::parity_tree(8),
        carry_select_adder(16, 4),
        array_multiplier(6),
    ];
    let config = PodemConfig::default();
    let mut h = Fnv::new();
    let mut aborted = 0;
    for c in &circuits {
        for fault in enumerate_stuck_at(c) {
            let r = generate_test(c, fault, &config);
            aborted += usize::from(r == PodemResult::Aborted);
            h.result(&r);
        }
    }
    assert_eq!(aborted, 2, "csa16 keeps its two aborts");
    assert_eq!(h.0, 0x21d0_7081_a75d_64b7);
}

/// Constrained PODEM on the 2-frame unroll of the benchmark's pipelined
/// 12-bit carry-select adder (parsed from its `.bench` text), for every
/// transition fault the seed-1 campaign's random phase leaves undetected.
/// These are exactly the five targets of its deterministic phase; four of
/// them abort at the backtrack limit.
#[test]
fn csa_transition_targets_match_golden_hash() {
    let text = to_bench_seq(&pipelined_carry_select_adder(12, 2), "csa12_reg");
    let seq = parse_bench_seq(&text).expect("exported text parses");
    let random_only = TransitionAtpgConfig {
        seed: 0x71c1_8690_ee42_c90b,
        deterministic: false,
        compact: false,
        ..TransitionAtpgConfig::default()
    };
    let atpg = TransitionAtpg::new(&seq, random_only);
    let faults = enumerate_transition(atpg.circuit());
    let report = atpg.run(&faults);
    let unrolled = unroll(&seq, &UnrollConfig::full_observability(2));
    let config = PodemConfig::default();
    let mut h = Fnv::new();
    let (mut targets, mut aborted) = (0, 0);
    for (f, status) in faults.iter().zip(&report.statuses) {
        if *status != FaultStatus::Undetected {
            continue;
        }
        targets += 1;
        let target = StuckAtFault {
            site: unrolled.fault_at(1, f.site),
            value: f.init_value(),
        };
        let stem = match f.site {
            FaultSite::Signal(s) => s,
            FaultSite::GatePin(g, pin) => atpg.circuit().gates()[g.0].inputs[pin],
        };
        let constraint = (unrolled.signal_at(0, stem), f.init_value());
        let r = generate_test_constrained(unrolled.circuit(), target, &[constraint], &config);
        aborted += usize::from(r == PodemResult::Aborted);
        h.result(&r);
    }
    assert_eq!(
        targets, 5,
        "the seed-1 deterministic phase makes five calls"
    );
    assert_eq!(aborted, 4);
    assert_eq!(h.0, 0x06b6_98bf_4a7d_bda4);
}
