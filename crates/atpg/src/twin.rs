//! Twin-machine (good/faulty) three-valued simulation — the D-calculus
//! PODEM reasons in.
//!
//! Instead of a literal five-valued algebra {0, 1, X, D, D̄}, each signal
//! carries a `(good, faulty)` pair of three-valued logics; `D` is the pair
//! `(1, 0)` and `D̄` is `(0, 1)`. This keeps the cell evaluation code shared
//! with `sinw-switch`.
//!
//! [`simulate`] is a whole-circuit pass: the reference that the
//! event-driven implication engine inside [`crate::podem`] is checked
//! against after every step. No production path calls it.

use crate::fault_list::{FaultSite, StuckAtFault};
use sinw_switch::gate::{eval_cell, Circuit};
use sinw_switch::value::Logic;

/// A good/faulty value pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Twin {
    /// Value in the fault-free machine.
    pub good: Logic,
    /// Value in the faulty machine.
    pub faulty: Logic,
}

impl Twin {
    /// Both machines unknown.
    pub const X: Twin = Twin {
        good: Logic::X,
        faulty: Logic::X,
    };

    /// The fault effect `D` (good 1, faulty 0).
    #[must_use]
    pub fn is_d(&self) -> bool {
        self.good == Logic::One && self.faulty == Logic::Zero
    }

    /// The fault effect `D̄` (good 0, faulty 1).
    #[must_use]
    pub fn is_dbar(&self) -> bool {
        self.good == Logic::Zero && self.faulty == Logic::One
    }

    /// Whether the two machines differ with both values known.
    #[must_use]
    pub fn is_fault_effect(&self) -> bool {
        self.is_d() || self.is_dbar()
    }
}

/// Forward twin simulation of `circuit` under `fault`, given the PI
/// assignment (`None` = unassigned → X).
///
/// Returns a `Twin` per signal.
#[must_use]
pub fn simulate(
    circuit: &Circuit,
    fault: StuckAtFault,
    pi_assignment: &[Option<bool>],
) -> Vec<Twin> {
    assert_eq!(pi_assignment.len(), circuit.primary_inputs().len());
    let n = circuit.signal_count();
    let mut twins = vec![Twin::X; n];
    let stuck = Logic::from_bool(fault.value);

    for (k, pi) in circuit.primary_inputs().iter().enumerate() {
        let v = match pi_assignment[k] {
            Some(b) => Logic::from_bool(b),
            None => Logic::X,
        };
        let mut t = Twin { good: v, faulty: v };
        if fault.site == FaultSite::Signal(*pi) {
            t.faulty = stuck;
        }
        twins[pi.0] = t;
    }

    for (gi, gate) in circuit.gates().iter().enumerate() {
        let mut good_ins = Vec::with_capacity(gate.inputs.len());
        let mut faulty_ins = Vec::with_capacity(gate.inputs.len());
        for (pin, s) in gate.inputs.iter().enumerate() {
            good_ins.push(twins[s.0].good);
            let mut f = twins[s.0].faulty;
            if fault.site == FaultSite::GatePin(sinw_switch::gate::GateId(gi), pin) {
                f = stuck;
            }
            faulty_ins.push(f);
        }
        let good = eval_cell(gate.kind, &good_ins);
        let mut faulty = eval_cell(gate.kind, &faulty_ins);
        if fault.site == FaultSite::Signal(gate.output) {
            faulty = stuck;
        }
        twins[gate.output.0] = Twin { good, faulty };
    }
    twins
}

/// Whether the fault effect reaches any primary output.
#[must_use]
pub fn detected_at_po(circuit: &Circuit, twins: &[Twin]) -> bool {
    circuit
        .primary_outputs()
        .iter()
        .any(|o| twins[o.0].is_fault_effect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinw_switch::cells::CellKind;
    use sinw_switch::gate::SignalId;

    fn inv_chain() -> Circuit {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let m = c.add_gate(CellKind::Inv, "g1", &[a]);
        let o = c.add_gate(CellKind::Inv, "g2", &[m]);
        c.mark_output(o);
        c
    }

    #[test]
    fn d_propagates_through_inverters() {
        let c = inv_chain();
        let fault = StuckAtFault::sa0(FaultSite::Signal(SignalId(0)));
        let twins = simulate(&c, fault, &[Some(true)]);
        assert!(twins[0].is_d(), "activated fault at the PI");
        assert!(twins[1].is_dbar(), "inverted once");
        assert!(twins[2].is_d(), "inverted twice");
        assert!(detected_at_po(&c, &twins));
    }

    #[test]
    fn unactivated_fault_shows_no_effect() {
        let c = inv_chain();
        let fault = StuckAtFault::sa0(FaultSite::Signal(SignalId(0)));
        let twins = simulate(&c, fault, &[Some(false)]);
        assert!(!detected_at_po(&c, &twins));
        assert_eq!(twins[0].good, twins[0].faulty);
    }

    #[test]
    fn unassigned_inputs_stay_x() {
        let c = inv_chain();
        let fault = StuckAtFault::sa1(FaultSite::Signal(SignalId(2)));
        let twins = simulate(&c, fault, &[None]);
        assert_eq!(twins[0].good, Logic::X);
        // Output stuck-at-1 shows in the faulty machine regardless.
        assert_eq!(twins[2].faulty, Logic::One);
        assert_eq!(twins[2].good, Logic::X);
    }

    #[test]
    fn branch_fault_hits_only_its_pin() {
        // a feeds both pins of a NAND; a branch s-a-0 on pin 0 with a=1
        // gives NAND(0,1)=1 in the faulty machine vs NAND(1,1)=0 good.
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let o = c.add_gate(CellKind::Nand2, "g", &[a, a]);
        c.mark_output(o);
        let fault = StuckAtFault::sa0(FaultSite::GatePin(sinw_switch::gate::GateId(0), 0));
        let twins = simulate(&c, fault, &[Some(true)]);
        assert!(twins[o.0].is_dbar());
    }
}
