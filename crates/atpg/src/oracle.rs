//! Scalar reference simulators for every fault-sim engine mode.
//!
//! Each oracle evaluates one pattern at a time, over the whole circuit,
//! in three-valued [`Logic`] through `sinw_switch::gate::eval_cell`. None
//! of them shares code with the engines of [`crate::faultsim`] and
//! [`crate::transition`]: no event kernel, no lane words, no pattern
//! blocks, no [`SimGraph`](crate::graph::SimGraph), no driver, and no
//! report assembly. First-detection and signature-bit semantics match
//! the engines exactly, so the property suites demand bit-identical
//! [`FaultSimReport`]s and [`SignatureMatrix`]es.
//!
//! * [`stuck_at_oracle`] and [`signature_oracle`] check the stuck-at
//!   detect and capture modes;
//! * [`transition_oracle`] and [`transition_signature_oracle`] check the
//!   pair modes: a pair counts only if its launch vector sets the site's
//!   stem to the fault's initial value.

use crate::fault_list::{FaultSite, StuckAtFault};
use crate::faultsim::{FaultSimReport, SignatureMatrix};
use crate::sof::CircuitTwoPattern;
use crate::transition::TransitionFault;
use sinw_switch::gate::{eval_cell, Circuit, GateId};
use sinw_switch::value::Logic;

/// Scalar (three-valued, whole-circuit) evaluation under an optional
/// stuck-at fault.
fn scalar_values(circuit: &Circuit, fault: Option<StuckAtFault>, inputs: &[bool]) -> Vec<Logic> {
    let stuck = fault.map(|f| Logic::from_bool(f.value));
    let site = fault.map(|f| f.site);
    let mut values = vec![Logic::X; circuit.signal_count()];
    for (k, pi) in circuit.primary_inputs().iter().enumerate() {
        values[pi.0] = if site == Some(FaultSite::Signal(*pi)) {
            stuck.unwrap()
        } else {
            Logic::from_bool(inputs[k])
        };
    }
    let mut ins = [Logic::X; 3];
    for (gi, gate) in circuit.gates().iter().enumerate() {
        for (pin, s) in gate.inputs.iter().enumerate() {
            ins[pin] = if site == Some(FaultSite::GatePin(GateId(gi), pin)) {
                stuck.unwrap()
            } else {
                values[s.0]
            };
        }
        let mut out = eval_cell(gate.kind, &ins[..gate.inputs.len()]);
        if site == Some(FaultSite::Signal(gate.output)) {
            out = stuck.unwrap();
        }
        values[gate.output.0] = out;
    }
    values
}

/// Per primary output: whether `fault` flips it under `inputs`.
fn failing_outputs(circuit: &Circuit, fault: StuckAtFault, inputs: &[bool]) -> Vec<bool> {
    let good = scalar_values(circuit, None, inputs);
    let faulty = scalar_values(circuit, Some(fault), inputs);
    circuit
        .primary_outputs()
        .iter()
        .map(|po| good[po.0] != faulty[po.0])
        .collect()
}

/// Whether `launch` sets the transition fault's stem (a fanout branch
/// carries its stem's value) to the fault's initial value.
fn initialises(circuit: &Circuit, fault: TransitionFault, launch: &[bool]) -> bool {
    let stem = match fault.site {
        FaultSite::Signal(s) => s,
        FaultSite::GatePin(g, pin) => circuit.gates()[g.0].inputs[pin],
    };
    scalar_values(circuit, None, launch)[stem.0].to_bool() == Some(fault.init_value())
}

/// Per primary output: whether `pair` initialises `fault` and its capture
/// vector exposes the residual stuck-at fault there.
fn failing_pair_outputs(
    circuit: &Circuit,
    fault: TransitionFault,
    pair: &CircuitTwoPattern,
) -> Vec<bool> {
    if initialises(circuit, fault, &pair.init) {
        failing_outputs(circuit, fault.as_stuck_at(), &pair.eval)
    } else {
        vec![false; circuit.primary_outputs().len()]
    }
}

/// A report from each fault's first detecting pattern.
fn report(firsts: Vec<Option<usize>>, n_patterns: usize) -> FaultSimReport {
    let mut first_detections = vec![0usize; n_patterns];
    for p in firsts.iter().flatten() {
        first_detections[*p] += 1;
    }
    FaultSimReport {
        detected: (0..firsts.len()).filter(|&f| firsts[f].is_some()).collect(),
        undetected: (0..firsts.len()).filter(|&f| firsts[f].is_none()).collect(),
        first_detections,
    }
}

/// A signature matrix with bit `pattern * outputs + output` of row
/// `fault` set where `fails(fault, pattern)[output]`.
fn matrix(
    n_faults: usize,
    n_patterns: usize,
    n_outputs: usize,
    fails: impl Fn(usize, usize) -> Vec<bool>,
) -> SignatureMatrix {
    let words_per_row = (n_patterns * n_outputs).div_ceil(64);
    let mut bits = vec![0u64; n_faults * words_per_row];
    for f in 0..n_faults {
        for p in 0..n_patterns {
            for (o, fail) in fails(f, p).into_iter().enumerate() {
                if fail {
                    let bit = p * n_outputs + o;
                    bits[f * words_per_row + bit / 64] |= 1u64 << (bit % 64);
                }
            }
        }
    }
    SignatureMatrix::from_raw_parts(n_faults, n_patterns, n_outputs, bits)
        .expect("oracle geometry is consistent by construction")
}

/// Stuck-at detect oracle: per fault, the first pattern under which some
/// primary output differs from the good machine.
#[must_use]
pub fn stuck_at_oracle(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
) -> FaultSimReport {
    let firsts = faults
        .iter()
        .map(|&f| {
            patterns
                .iter()
                .position(|p| failing_outputs(circuit, f, p).contains(&true))
        })
        .collect();
    report(firsts, patterns.len())
}

/// Stuck-at capture oracle: the full per-fault × per-pattern × per-PO
/// response matrix.
#[must_use]
pub fn signature_oracle(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
) -> SignatureMatrix {
    let n_outputs = circuit.primary_outputs().len();
    matrix(faults.len(), patterns.len(), n_outputs, |f, p| {
        failing_outputs(circuit, faults[f], &patterns[p])
    })
}

/// Transition detect oracle: per fault, the first pair whose launch
/// vector initialises the site and whose capture vector exposes the
/// residual stuck-at fault at some primary output.
#[must_use]
pub fn transition_oracle(
    circuit: &Circuit,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
) -> FaultSimReport {
    let firsts = faults
        .iter()
        .map(|&f| {
            pairs
                .iter()
                .position(|p| failing_pair_outputs(circuit, f, p).contains(&true))
        })
        .collect();
    report(firsts, pairs.len())
}

/// Transition capture oracle: the full per-fault × per-pair × per-PO
/// response matrix, zero on every pair that does not initialise the
/// fault.
#[must_use]
pub fn transition_signature_oracle(
    circuit: &Circuit,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
) -> SignatureMatrix {
    let n_outputs = circuit.primary_outputs().len();
    matrix(faults.len(), pairs.len(), n_outputs, |f, p| {
        failing_pair_outputs(circuit, faults[f], &pairs[p])
    })
}
