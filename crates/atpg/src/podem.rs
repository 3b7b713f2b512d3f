//! PODEM test-pattern generation for single stuck-at faults.
//!
//! The classical baseline ATPG of the paper's Section II: PI-only decision
//! making, objective selection from the D-frontier, and backtrace through
//! cell-specific rules. Used by `sinw-core` both directly (classical
//! stuck-at tests) and as the justification/propagation engine of the
//! cell-aware flow.
//!
//! Implication is event-driven twin simulation. Each search compiles the
//! circuit once, in O(gates), into gate arrays, a fanout CSR, gate levels
//! and 3^k cell truth tables filled by [`eval_cell`]. A decision or a
//! backtrack changes a few PIs, and only their fanout cones are
//! re-evaluated, level by level; an event stops where a good/faulty twin
//! does not change. The fault-free searches of [`justify`] run through the
//! same engine. [`crate::twin::simulate`] is the full-pass reference the
//! engine is tested against after every step.

use crate::fault_list::{FaultSite, StuckAtFault};
use crate::twin::{detected_at_po, Twin};
use sinw_switch::cells::CellKind;
use sinw_switch::gate::{eval_cell, Circuit, SignalId};
use sinw_switch::value::Logic;
use std::sync::OnceLock;

/// PODEM configuration.
#[derive(Debug, Clone, Copy)]
pub struct PodemConfig {
    /// Maximum number of backtracks before aborting the fault.
    pub backtrack_limit: usize,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            backtrack_limit: 10_000,
        }
    }
}

/// Outcome of a PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemResult {
    /// A detecting test cube: one entry per PI, `None` marking a
    /// don't-care. Detection only depends on the specified entries —
    /// three-valued simulation is monotonic in the assignment, so *every*
    /// completion of the cube detects the fault (a property the test
    /// suites assert). Fill with [`fill_cube`], or keep the cube partial
    /// for don't-care-aware compaction (`tpg::merge_cubes`).
    Test(Vec<Option<bool>>),
    /// The fault is provably untestable (redundant).
    Untestable,
    /// The backtrack limit was hit.
    Aborted,
}

/// Complete a test cube by filling every don't-care with `fill`.
#[must_use]
pub fn fill_cube(cube: &[Option<bool>], fill: bool) -> Vec<bool> {
    cube.iter().map(|v| v.unwrap_or(fill)).collect()
}

/// A required signal value (used for cell-aware justification).
pub type Constraint = (SignalId, bool);

/// Generate a test for `fault` on `circuit`.
#[must_use]
pub fn generate_test(circuit: &Circuit, fault: StuckAtFault, config: &PodemConfig) -> PodemResult {
    search(circuit, Some(fault), &[], config).0
}

/// Generate a test for `fault` while also justifying the given signal
/// values — the engine of the cell-aware flow, where a cell-internal
/// defect requires an exact local input vector *and* propagation of the
/// wrong output.
#[must_use]
pub fn generate_test_constrained(
    circuit: &Circuit,
    fault: StuckAtFault,
    constraints: &[Constraint],
    config: &PodemConfig,
) -> PodemResult {
    search(circuit, Some(fault), constraints, config).0
}

/// Find a primary-input cube that justifies all the given signal values
/// (no fault involved). Unassigned PIs come back as `None` (don't-care).
#[must_use]
pub fn justify(
    circuit: &Circuit,
    constraints: &[Constraint],
    config: &PodemConfig,
) -> Option<Vec<Option<bool>>> {
    match search(circuit, None, constraints, config).0 {
        PodemResult::Test(p) => Some(p),
        _ => None,
    }
}

/// The shared branch-and-bound search; also returns the number of
/// backtracks it spent (the work count of the campaign reports).
///
/// With a fault, success requires detection at a PO (plus any constraints
/// satisfied); without one, success is satisfying every constraint.
pub(crate) fn search(
    circuit: &Circuit,
    fault: Option<StuckAtFault>,
    constraints: &[Constraint],
    config: &PodemConfig,
) -> (PodemResult, usize) {
    let mut assignment: Vec<Option<bool>> = vec![None; circuit.primary_inputs().len()];
    // Decision stack: (pi index, value, alternate_tried).
    let mut stack: Vec<(usize, bool, bool)> = Vec::new();
    let mut backtracks = 0usize;
    let mut sim = Implication::compile(circuit, fault);
    let mut reach = vec![false; circuit.signal_count()];

    loop {
        sim.settle();
        let twins = &sim.twins;

        let constraint_conflict = constraints.iter().any(|(s, v)| {
            let g = twins[s.0].good;
            g.is_known() && g != Logic::from_bool(*v)
        });
        let constraints_met = constraints
            .iter()
            .all(|(s, v)| twins[s.0].good == Logic::from_bool(*v));

        let success = if fault.is_some() {
            constraints_met && detected_at_po(circuit, twins)
        } else {
            constraints_met
        };
        if success {
            return (PodemResult::Test(assignment), backtracks);
        }

        let feasible = !constraint_conflict
            && match fault {
                Some(f) => test_possible(circuit, f, twins, &mut reach),
                None => true,
            };
        let objective = if feasible {
            // Unjustified constraints come first.
            constraints
                .iter()
                .find(|(s, _)| twins[s.0].good == Logic::X)
                .map(|(s, v)| (*s, Logic::from_bool(*v)))
                .or_else(|| fault.and_then(|f| pick_objective(circuit, f, twins)))
        } else {
            None
        };

        if let Some((sig, val)) = objective {
            if let Some((pi_idx, pi_val)) = backtrace(circuit, twins, &sim.pi_index, sig, val) {
                assignment[pi_idx] = Some(pi_val);
                sim.assign(pi_idx, Some(pi_val));
                stack.push((pi_idx, pi_val, false));
                continue;
            }
            // No X PI reachable: dead end, fall through to backtrack.
        }

        // Backtrack.
        loop {
            match stack.pop() {
                None => return (PodemResult::Untestable, backtracks),
                Some((pi_idx, _, true)) => {
                    assignment[pi_idx] = None;
                    sim.assign(pi_idx, None);
                }
                Some((pi_idx, val, false)) => {
                    backtracks += 1;
                    if backtracks > config.backtrack_limit {
                        return (PodemResult::Aborted, backtracks);
                    }
                    assignment[pi_idx] = Some(!val);
                    sim.assign(pi_idx, Some(!val));
                    stack.push((pi_idx, !val, true));
                    break;
                }
            }
        }
    }
}

/// Position of a three-valued level in a truth-table index.
fn trit(v: Logic) -> usize {
    match v {
        Logic::Zero => 0,
        Logic::One => 1,
        Logic::X => 2,
    }
}

/// One 3^k truth table per cell kind (indexed by `kind as usize`, entry
/// `Σ trit(input_i)·3^i`), filled by [`eval_cell`] itself so the cell
/// semantics keep a single source.
fn truth_tables() -> &'static [[Logic; 27]; CellKind::ALL.len()] {
    static TABLES: OnceLock<[[Logic; 27]; CellKind::ALL.len()]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[Logic::X; 27]; CellKind::ALL.len()];
        for kind in CellKind::ALL {
            let k = kind.input_count();
            for (idx, entry) in tables[kind as usize][..3usize.pow(k as u32)]
                .iter_mut()
                .enumerate()
            {
                let ins: Vec<Logic> = (0..k)
                    .map(|i| [Logic::Zero, Logic::One, Logic::X][idx / 3usize.pow(i as u32) % 3])
                    .collect();
                *entry = eval_cell(kind, &ins);
            }
        }
        tables
    })
}

/// Incremental, event-driven twin simulation: PODEM's implication step.
///
/// Compiled once per search in O(gates): structure-of-arrays gates, a
/// signal→gate fanout CSR, gate levels and a signal→PI-index map. A
/// decision or backtrack changes a few PIs; [`Implication::settle`] then
/// re-evaluates only their fanout cones, level by level from a bucket
/// queue, and an event dies where a twin value does not change. Fault
/// injection matches [`crate::twin::simulate`] (the full-pass reference
/// the unit tests compare against): the PI site, the gate-pin site and
/// the output site; `fault: None` is the fault-free machine.
struct Implication {
    /// The cell truth tables of [`truth_tables`].
    tables: &'static [[Logic; 27]; CellKind::ALL.len()],
    /// Per gate: cell kind, first entry in `inputs`, output signal, level.
    kinds: Vec<CellKind>,
    input_start: Vec<usize>,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    levels: Vec<usize>,
    /// `fanout[fanout_start[s]..fanout_start[s + 1]]`: gates read by `s`.
    fanout_start: Vec<usize>,
    fanout: Vec<usize>,
    /// PI position → signal, and signal → PI position (`usize::MAX` for
    /// gate outputs).
    pis: Vec<usize>,
    pi_index: Vec<usize>,
    /// The stuck value and its sites: a signal (PI or gate output) and a
    /// `(gate, pin)` branch.
    stuck: Logic,
    site_signal: Option<usize>,
    site_pin: Option<(usize, usize)>,
    /// The settled twin of every signal.
    twins: Vec<Twin>,
    /// Gates awaiting evaluation, bucketed by level; `queued` flags them,
    /// `pending` counts them and `lowest` is their lowest level.
    buckets: Vec<Vec<usize>>,
    queued: Vec<bool>,
    pending: usize,
    lowest: usize,
}

impl Implication {
    /// Compile `circuit` and settle it under the all-X assignment.
    fn compile(circuit: &Circuit, fault: Option<StuckAtFault>) -> Self {
        let n = circuit.signal_count();
        let gates = circuit.gates();
        let mut signal_level = vec![0usize; n];
        let mut sim = Implication {
            tables: truth_tables(),
            kinds: gates.iter().map(|g| g.kind).collect(),
            input_start: Vec::with_capacity(gates.len() + 1),
            inputs: Vec::new(),
            outputs: gates.iter().map(|g| g.output.0).collect(),
            levels: Vec::with_capacity(gates.len()),
            fanout_start: Vec::with_capacity(n + 1),
            fanout: Vec::new(),
            pis: circuit.primary_inputs().iter().map(|p| p.0).collect(),
            pi_index: vec![usize::MAX; n],
            stuck: Logic::from_bool(fault.is_some_and(|f| f.value)),
            site_signal: None,
            site_pin: None,
            twins: vec![Twin::X; n],
            buckets: Vec::new(),
            queued: vec![false; gates.len()],
            pending: 0,
            lowest: usize::MAX,
        };
        for gate in gates {
            sim.input_start.push(sim.inputs.len());
            sim.inputs.extend(gate.inputs.iter().map(|s| s.0));
            let level = 1 + gate
                .inputs
                .iter()
                .map(|s| signal_level[s.0])
                .max()
                .unwrap_or(0);
            signal_level[gate.output.0] = level;
            sim.levels.push(level);
        }
        sim.input_start.push(sim.inputs.len());
        for s in 0..n {
            sim.fanout_start.push(sim.fanout.len());
            sim.fanout
                .extend(circuit.fanout(SignalId(s)).iter().map(|(g, _)| g.0));
        }
        sim.fanout_start.push(sim.fanout.len());
        for (k, &p) in sim.pis.iter().enumerate() {
            sim.pi_index[p] = k;
        }
        match fault.map(|f| f.site) {
            Some(FaultSite::Signal(s)) => sim.site_signal = Some(s.0),
            Some(FaultSite::GatePin(g, pin)) => sim.site_pin = Some((g.0, pin)),
            None => {}
        }
        sim.buckets = vec![Vec::new(); sim.levels.iter().max().map_or(0, |l| l + 1)];

        for k in 0..sim.pis.len() {
            let p = sim.pis[k];
            sim.twins[p] = sim.pi_twin(p, Logic::X);
        }
        for g in 0..gates.len() {
            let out = sim.outputs[g];
            sim.twins[out] = sim.eval(g);
        }
        sim
    }

    /// The twin a PI carries at level `v`.
    fn pi_twin(&self, signal: usize, v: Logic) -> Twin {
        let faulty = if self.site_signal == Some(signal) {
            self.stuck
        } else {
            v
        };
        Twin { good: v, faulty }
    }

    /// Evaluate gate `g` from its inputs' settled twins.
    fn eval(&self, g: usize) -> Twin {
        let (mut good_idx, mut faulty_idx, mut weight) = (0, 0, 1);
        for (pin, &s) in self.inputs[self.input_start[g]..self.input_start[g + 1]]
            .iter()
            .enumerate()
        {
            let t = self.twins[s];
            let faulty = if self.site_pin == Some((g, pin)) {
                self.stuck
            } else {
                t.faulty
            };
            good_idx += weight * trit(t.good);
            faulty_idx += weight * trit(faulty);
            weight *= 3;
        }
        let table = &self.tables[self.kinds[g] as usize];
        let out = self.outputs[g];
        Twin {
            good: table[good_idx],
            faulty: if self.site_signal == Some(out) {
                self.stuck
            } else {
                table[faulty_idx]
            },
        }
    }

    /// Set PI `k` (`None` = unassigned) and queue its fanout if its twin
    /// changed; [`Implication::settle`] propagates.
    fn assign(&mut self, k: usize, value: Option<bool>) {
        let p = self.pis[k];
        let t = self.pi_twin(p, value.map_or(Logic::X, Logic::from_bool));
        if t != self.twins[p] {
            self.twins[p] = t;
            self.schedule_fanout(p);
        }
    }

    fn schedule_fanout(&mut self, signal: usize) {
        for &g in &self.fanout[self.fanout_start[signal]..self.fanout_start[signal + 1]] {
            if !self.queued[g] {
                self.queued[g] = true;
                self.buckets[self.levels[g]].push(g);
                self.pending += 1;
                self.lowest = self.lowest.min(self.levels[g]);
            }
        }
    }

    /// Evaluate every queued gate in level order; a gate whose output
    /// twin changes queues its own fanout, which sits at higher levels.
    fn settle(&mut self) {
        let mut level = self.lowest;
        while self.pending > 0 {
            while let Some(g) = self.buckets[level].pop() {
                self.queued[g] = false;
                self.pending -= 1;
                let t = self.eval(g);
                let out = self.outputs[g];
                if t != self.twins[out] {
                    self.twins[out] = t;
                    self.schedule_fanout(out);
                }
            }
            level += 1;
        }
        self.lowest = usize::MAX;
    }
}

/// Value of the fault site in the good machine.
fn site_good_value(circuit: &Circuit, fault: StuckAtFault, twins: &[Twin]) -> Logic {
    match fault.site {
        FaultSite::Signal(s) => twins[s.0].good,
        FaultSite::GatePin(g, pin) => {
            let s = circuit.gates()[g.0].inputs[pin];
            twins[s.0].good
        }
    }
}

/// Is detection still possible? The fault must be activatable (site not
/// already at the stuck value in the good machine) and, once activated,
/// there must be an X-path from a fault effect to a primary output.
///
/// `reach` is the caller's buffer, one flag per signal, reused across
/// steps.
fn test_possible(
    circuit: &Circuit,
    fault: StuckAtFault,
    twins: &[Twin],
    reach: &mut [bool],
) -> bool {
    let site_val = site_good_value(circuit, fault, twins);
    let stuck = Logic::from_bool(fault.value);
    if site_val == stuck {
        return false;
    }
    if site_val == Logic::X {
        return true; // not yet activated, still free
    }
    // Activated: a fault effect exists somewhere; check an X-path to a PO.
    reach.fill(false);
    // Seed: all signals carrying a fault effect.
    let mut any = false;
    for (i, t) in twins.iter().enumerate() {
        if t.is_fault_effect() {
            reach[i] = true;
            any = true;
        }
    }
    if !any {
        // For a branch (pin) fault the effect is latent on the pin until
        // the side inputs sensitise the gate: the potential effect sits at
        // the faulted gate's output.
        match fault.site {
            FaultSite::GatePin(g, _) => {
                let out = circuit.gates()[g.0].output;
                let unresolved = twins[out.0].good == Logic::X || twins[out.0].faulty == Logic::X;
                if !unresolved {
                    return false;
                }
                reach[out.0] = true;
            }
            FaultSite::Signal(_) => return false,
        }
    }
    // Forward pass in topological order: a gate output is reachable when a
    // reachable input feeds it and its composite value is still unresolved
    // (good or faulty unknown) — the output could yet become D/D̄ even if
    // the good machine's value is already known (e.g. NAND(D̄, X)).
    for gate in circuit.gates() {
        let out = gate.output;
        if reach[out.0] {
            continue;
        }
        let fed = gate.inputs.iter().any(|s| reach[s.0]);
        let unresolved = twins[out.0].good == Logic::X || twins[out.0].faulty == Logic::X;
        if fed && unresolved {
            reach[out.0] = true;
        }
    }
    circuit.primary_outputs().iter().any(|o| reach[o.0])
}

/// Choose the next objective `(signal, value)`.
fn pick_objective(
    circuit: &Circuit,
    fault: StuckAtFault,
    twins: &[Twin],
) -> Option<(SignalId, Logic)> {
    // 1. Activation: drive the site to the complement of the stuck value.
    let site_val = site_good_value(circuit, fault, twins);
    if site_val == Logic::X {
        let sig = match fault.site {
            FaultSite::Signal(s) => s,
            FaultSite::GatePin(g, pin) => circuit.gates()[g.0].inputs[pin],
        };
        return Some((sig, Logic::from_bool(!fault.value)));
    }
    // 2. Latent branch fault: no visible effect yet, but the faulted pin is
    // activated — sensitise the faulted gate through its X side inputs.
    let any_effect = twins.iter().any(Twin::is_fault_effect);
    if !any_effect {
        if let FaultSite::GatePin(g, pin) = fault.site {
            let gate = &circuit.gates()[g.0];
            for (p2, s) in gate.inputs.iter().enumerate() {
                if p2 != pin && twins[s.0].good == Logic::X {
                    let val = side_input_value(gate.kind, twins, &gate.inputs, *s);
                    return Some((*s, val));
                }
            }
            return None;
        }
    }
    // 3. Propagation: find a D-frontier gate (fault effect on an input,
    // composite output value unresolved) and set one of its X side-inputs.
    for gate in circuit.gates() {
        let out = twins[gate.output.0];
        if out.good != Logic::X && out.faulty != Logic::X {
            continue;
        }
        let has_effect = gate.inputs.iter().any(|s| twins[s.0].is_fault_effect());
        if !has_effect {
            continue;
        }
        for s in &gate.inputs {
            if twins[s.0].good == Logic::X && !twins[s.0].is_fault_effect() {
                let val = side_input_value(gate.kind, twins, &gate.inputs, *s);
                return Some((*s, val));
            }
        }
    }
    None
}

/// The value a side input should take so the gate passes a fault effect.
fn side_input_value(
    kind: CellKind,
    twins: &[Twin],
    inputs: &[SignalId],
    target: SignalId,
) -> Logic {
    match kind {
        CellKind::Inv => Logic::One, // unreachable: INV has no side input
        CellKind::Nand2 => Logic::One,
        CellKind::Nor2 => Logic::Zero,
        // XOR passes effects for any known side value; pick 0.
        CellKind::Xor2 | CellKind::Xor3 => Logic::Zero,
        // MAJ propagates an effect on one input when the other two differ.
        CellKind::Maj3 => {
            let other_known = inputs
                .iter()
                .filter(|s| **s != target)
                .map(|s| twins[s.0].good)
                .find(|v| v.is_known());
            match other_known {
                Some(v) => !v,
                None => Logic::Zero,
            }
        }
    }
}

/// Backtrace an objective to an unassigned primary input.
/// `pi_index` maps a signal to its PI position.
fn backtrace(
    circuit: &Circuit,
    twins: &[Twin],
    pi_index: &[usize],
    mut sig: SignalId,
    mut val: Logic,
) -> Option<(usize, bool)> {
    loop {
        match circuit.driver(sig) {
            None => {
                // Reached a PI.
                let idx = pi_index[sig.0];
                if twins[sig.0].good != Logic::X {
                    return None; // already assigned — cannot help
                }
                return val.to_bool().map(|b| (idx, b));
            }
            Some(g) => {
                let gate = &circuit.gates()[g.0];
                // Pick an X input and the value to request on it.
                let x_input = gate.inputs.iter().find(|s| twins[s.0].good == Logic::X)?;
                let next_val = match gate.kind {
                    CellKind::Inv => !val,
                    CellKind::Nand2 => {
                        if val == Logic::One {
                            Logic::Zero // any 0 input forces a 1 output
                        } else {
                            Logic::One // 0 output needs all-1 inputs
                        }
                    }
                    CellKind::Nor2 => {
                        if val == Logic::One {
                            Logic::Zero
                        } else {
                            Logic::One
                        }
                    }
                    CellKind::Xor2 | CellKind::Xor3 => {
                        // Request parity assuming other X inputs become 0.
                        let known_parity = gate
                            .inputs
                            .iter()
                            .filter_map(|s| twins[s.0].good.to_bool())
                            .fold(false, |acc, b| acc ^ b);
                        let want = val.to_bool().unwrap_or(false);
                        Logic::from_bool(want ^ known_parity)
                    }
                    CellKind::Maj3 => val,
                };
                sig = *x_input;
                val = next_val;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_list::enumerate_stuck_at;
    use crate::twin::simulate;
    use proptest::prelude::*;
    use sinw_switch::gate::GateId;

    fn verify_test(circuit: &Circuit, fault: StuckAtFault, cube: &[Option<bool>]) -> bool {
        let twins = simulate(circuit, fault, cube);
        detected_at_po(circuit, &twins)
    }

    #[test]
    fn covers_all_c17_faults() {
        let c = Circuit::c17();
        let config = PodemConfig::default();
        for fault in enumerate_stuck_at(&c) {
            match generate_test(&c, fault, &config) {
                PodemResult::Test(p) => {
                    assert!(
                        verify_test(&c, fault, &p),
                        "generated pattern {p:?} misses {}",
                        fault.describe(&c)
                    );
                }
                other => panic!("c17 fault {} -> {other:?}", fault.describe(&c)),
            }
        }
    }

    #[test]
    fn covers_full_adder_faults() {
        let c = Circuit::full_adder();
        let config = PodemConfig::default();
        let mut tested = 0;
        for fault in enumerate_stuck_at(&c) {
            match generate_test(&c, fault, &config) {
                PodemResult::Test(p) => {
                    assert!(verify_test(&c, fault, &p), "{}", fault.describe(&c));
                    tested += 1;
                }
                other => panic!("adder fault {} -> {other:?}", fault.describe(&c)),
            }
        }
        assert!(tested > 0);
    }

    #[test]
    fn detects_redundant_fault() {
        // out = NAND(a, a) can never show a s-a-... : with both pins tied,
        // the branch fault a->pin0 s-a-1 is masked when a=1 (same value)
        // and activated only when a=0, where NAND(1, 0) = 1 = NAND(0,0):
        // undetectable.
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let o = c.add_gate(CellKind::Nand2, "g", &[a, a]);
        c.mark_output(o);
        let fault = StuckAtFault::sa1(FaultSite::GatePin(sinw_switch::gate::GateId(0), 0));
        let r = generate_test(&c, fault, &PodemConfig::default());
        assert_eq!(r, PodemResult::Untestable);
    }

    #[test]
    fn justify_finds_internal_values() {
        let c = Circuit::c17();
        // Justify g16.out = 0: needs i2 = 1 and g11.out = 1, which needs
        // nand(i3, i6) = 1 -> i3 = 0 or i6 = 0.
        let g16_out = c.gates()[2].output;
        let p = justify(&c, &[(g16_out, false)], &PodemConfig::default())
            .expect("g16.out = 0 is satisfiable");
        let logic: Vec<_> = fill_cube(&p, false)
            .iter()
            .map(|b| Logic::from_bool(*b))
            .collect();
        let values = c.eval(&logic);
        assert_eq!(values[g16_out.0], Logic::Zero);
    }

    #[test]
    fn justify_detects_impossible_constraints() {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let o = c.add_gate(CellKind::Inv, "g", &[a]);
        c.mark_output(o);
        // a = 1 and inv(a) = 1 simultaneously: impossible.
        let r = justify(&c, &[(a, true), (o, true)], &PodemConfig::default());
        assert!(r.is_none());
    }

    #[test]
    fn constrained_test_respects_constraints() {
        let c = Circuit::c17();
        let g11_out = c.gates()[1].output;
        // Detect i7 s-a-1 while forcing g11.out = 1 (side constraint).
        let fault = StuckAtFault::sa1(FaultSite::Signal(SignalId(4)));
        match generate_test_constrained(&c, fault, &[(g11_out, true)], &PodemConfig::default()) {
            PodemResult::Test(p) => {
                assert!(verify_test(&c, fault, &p));
                let logic: Vec<_> = fill_cube(&p, false)
                    .iter()
                    .map(|b| Logic::from_bool(*b))
                    .collect();
                assert_eq!(c.eval(&logic)[g11_out.0], Logic::One);
            }
            other => panic!("expected a constrained test, got {other:?}"),
        }
    }

    #[test]
    fn every_fill_of_a_test_cube_detects() {
        // Detection must not depend on how the don't-cares are completed:
        // the specified entries alone force the D-path.
        let c = Circuit::c17();
        let config = PodemConfig::default();
        for fault in enumerate_stuck_at(&c) {
            let PodemResult::Test(cube) = generate_test(&c, fault, &config) else {
                panic!("c17 is fully testable");
            };
            for fill in [false, true] {
                let filled: Vec<Option<bool>> =
                    fill_cube(&cube, fill).into_iter().map(Some).collect();
                assert!(
                    verify_test(&c, fault, &filled),
                    "fill {fill} of cube {cube:?} misses {}",
                    fault.describe(&c)
                );
            }
        }
    }

    #[test]
    fn parity_tree_is_fully_testable() {
        let c = Circuit::parity_tree(8);
        let config = PodemConfig::default();
        for fault in enumerate_stuck_at(&c) {
            let r = generate_test(&c, fault, &config);
            match r {
                PodemResult::Test(p) => {
                    assert!(verify_test(&c, fault, &p), "{}", fault.describe(&c));
                }
                other => panic!("parity fault {} -> {other:?}", fault.describe(&c)),
            }
        }
    }

    /// A random DAG of library cells over `n_pi` primary inputs, shaped by
    /// `seed`; its last three signals are outputs.
    fn random_circuit(n_pi: usize, n_gates: usize, seed: &[u8]) -> Circuit {
        let mut c = Circuit::new();
        let mut signals: Vec<SignalId> = (0..n_pi).map(|i| c.add_input(format!("i{i}"))).collect();
        let byte = |i: usize| seed[i % seed.len()] as usize;
        for g in 0..n_gates {
            let kind = CellKind::ALL[byte(4 * g) % CellKind::ALL.len()];
            let inputs: Vec<SignalId> = (0..kind.input_count())
                .map(|pin| signals[byte(4 * g + pin + 1) % signals.len()])
                .collect();
            signals.push(c.add_gate(kind, format!("g{g}"), &inputs));
        }
        for s in signals.iter().rev().take(3) {
            c.mark_output(*s);
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The event-driven implication engine equals the full-pass
        /// reference after every step: `twin::simulate` under a PI fault,
        /// a gate-output fault and a gate-pin fault, and `Circuit::eval`
        /// in both machines without a fault. A step assigns, unassigns or
        /// flips one PI; a step with its top bit set is batched with the
        /// next one before settling, as a backtrack that unwinds several
        /// decisions is.
        #[test]
        fn implication_matches_full_pass_simulation(
            shape in proptest::collection::vec(any::<u8>(), 64),
            steps in proptest::collection::vec(any::<u8>(), 1..48),
            n_pi in 1usize..7,
            n_gates in 1usize..32,
        ) {
            let c = random_circuit(n_pi, n_gates, &shape);
            let g = shape[0] as usize % n_gates;
            let gate = &c.gates()[g];
            let faults = [
                Some(StuckAtFault {
                    site: FaultSite::Signal(c.primary_inputs()[shape[1] as usize % n_pi]),
                    value: shape[2] & 1 == 1,
                }),
                Some(StuckAtFault {
                    site: FaultSite::Signal(gate.output),
                    value: shape[3] & 1 == 1,
                }),
                Some(StuckAtFault {
                    site: FaultSite::GatePin(GateId(g), shape[4] as usize % gate.inputs.len()),
                    value: shape[5] & 1 == 1,
                }),
                None,
            ];
            for fault in faults {
                let reference = |assignment: &[Option<bool>]| match fault {
                    Some(f) => simulate(&c, f, assignment),
                    None => {
                        let logic: Vec<Logic> = assignment
                            .iter()
                            .map(|v| v.map_or(Logic::X, Logic::from_bool))
                            .collect();
                        c.eval(&logic)
                            .into_iter()
                            .map(|v| Twin { good: v, faulty: v })
                            .collect()
                    }
                };
                let mut sim = Implication::compile(&c, fault);
                let mut assignment = vec![None; n_pi];
                prop_assert_eq!(&sim.twins, &reference(&assignment), "compiled, {fault:?}");
                for (i, step) in steps.iter().enumerate() {
                    let k = usize::from((step >> 2) & 0x1f) % n_pi;
                    assignment[k] = match step & 3 {
                        0 => None,
                        1 => Some(false),
                        2 => Some(true),
                        _ => assignment[k].map(|b: bool| !b),
                    };
                    sim.assign(k, assignment[k]);
                    if step & 0x80 != 0 && i + 1 < steps.len() {
                        continue;
                    }
                    sim.settle();
                    prop_assert_eq!(&sim.twins, &reference(&assignment), "step {i}, {fault:?}");
                }
            }
        }
    }
}
