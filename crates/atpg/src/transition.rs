//! Transition-delay faults (slow-to-rise / slow-to-fall) and
//! launch-on-capture two-pattern ATPG for scanned sequential machines.
//!
//! A transition fault at a site needs a *pair* of vectors: the launch
//! vector `V1` must set the site to the initial value (0 for
//! slow-to-rise, 1 for slow-to-fall), and the capture vector `V2` must
//! detect the corresponding stuck-at fault — a slow-to-rise site that
//! never completes its rise looks stuck-at-0 during capture, and
//! vice versa. Detection of the pair is therefore
//! `(site value under V1 == init) ∧ stuck-at-detected under V2`,
//! which maps straight onto the lane-generic PPSFP kernel: the
//! initialisation mask of a pattern block is handed to
//! the event-driven detect kernel *as the block mask*, so the returned
//! word is already the pair-detection mask and uninitialised pairs can
//! never count as detections.
//!
//! The [`TransitionAtpg`] engine runs a launch-on-capture (broadside)
//! campaign over a full-scan view of a [`SeqCircuit`]: random launch
//! vectors whose capture state is the machine's own next state, then a
//! deterministic phase on the 2-frame [time-frame expansion](mod@crate::unroll)
//! — a stuck-at PODEM target in frame 1, constrained to the initial
//! value in frame 0, is structurally a LOC pair because the unrolled
//! netlist hardwires `capture state = NS(launch)`.
//!
//! Detection and signature capture run on the one event kernel and
//! driver of [`crate::faultsim`], laid out by the same
//! [`SimOptions`]: [`simulate_transition_with`] and
//! [`capture_transition_signatures_with`] report bit-identically at
//! every lane width and thread count, and
//! [`transition_oracle`](crate::oracle::transition_oracle) is an
//! independent scalar reference the property suites pit them against.

use crate::fault_list::{enumerate_stuck_at, FaultSite, StuckAtFault};
use crate::faultsim::{
    block_size, capture_run, detect_run, dispatch_lanes, good_sim, Block, FaultSimReport,
    FaultSimScratch, KernelFault, PatternBlock, SignatureMatrix, SimOptions, SplitMix64,
    StealStats,
};
use crate::graph::SimGraph;
use crate::lanes::PatternWords;
use crate::podem::{generate_test_constrained, PodemConfig, PodemResult};
use crate::sof::CircuitTwoPattern;
use crate::tpg::FaultStatus;
use crate::unroll::{unroll, UnrollConfig, UnrolledCircuit};
use sinw_switch::gate::{Circuit, SignalId};
use sinw_switch::scan::{insert_scan, ScanCircuit, ScanPlan};
use sinw_switch::seq::SeqCircuit;
use std::time::Instant;

/// The two transition-delay polarities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionKind {
    /// The site is slow rising 0 → 1: initialise to 0, capture as s-a-0.
    SlowToRise,
    /// The site is slow falling 1 → 0: initialise to 1, capture as s-a-1.
    SlowToFall,
}

/// A single transition-delay fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransitionFault {
    /// Fault location (same site universe as the stuck-at model).
    pub site: FaultSite,
    /// Transition polarity.
    pub kind: TransitionKind,
}

impl TransitionFault {
    /// Slow-to-rise at a site.
    #[must_use]
    pub fn slow_to_rise(site: FaultSite) -> Self {
        TransitionFault {
            site,
            kind: TransitionKind::SlowToRise,
        }
    }

    /// Slow-to-fall at a site.
    #[must_use]
    pub fn slow_to_fall(site: FaultSite) -> Self {
        TransitionFault {
            site,
            kind: TransitionKind::SlowToFall,
        }
    }

    /// The value the launch vector must establish at the site.
    #[must_use]
    pub fn init_value(&self) -> bool {
        matches!(self.kind, TransitionKind::SlowToFall)
    }

    /// The stuck-at fault the capture vector must detect: a transition
    /// that never completes leaves the site at its initial value.
    #[must_use]
    pub fn as_stuck_at(&self) -> StuckAtFault {
        StuckAtFault {
            site: self.site,
            value: self.init_value(),
        }
    }

    /// Human-readable description against a circuit.
    #[must_use]
    pub fn describe(&self, circuit: &Circuit) -> String {
        let kind = match self.kind {
            TransitionKind::SlowToRise => "slow-to-rise",
            TransitionKind::SlowToFall => "slow-to-fall",
        };
        match self.site {
            FaultSite::Signal(s) => format!("{} {kind}", circuit.signal_name(s)),
            FaultSite::GatePin(g, pin) => {
                format!("{}.in{pin} {kind}", circuit.gates()[g.0].name)
            }
        }
    }
}

/// Enumerate the transition-delay universe of a circuit — one fault per
/// stuck-at fault, in [`enumerate_stuck_at`] order (a s-a-0 site maps to
/// slow-to-rise, a s-a-1 site to slow-to-fall), so the two universes
/// share indices and collapse structure.
#[must_use]
pub fn enumerate_transition(circuit: &Circuit) -> Vec<TransitionFault> {
    enumerate_stuck_at(circuit)
        .into_iter()
        .map(|sa| TransitionFault {
            site: sa.site,
            kind: if sa.value {
                TransitionKind::SlowToFall
            } else {
                TransitionKind::SlowToRise
            },
        })
        .collect()
}

/// The good value the launch vector must match at a fault site: the stem
/// signal's value (a fanout branch carries the stem's good value).
fn site_signal(circuit: &Circuit, site: FaultSite) -> SignalId {
    match site {
        FaultSite::Signal(s) => s,
        FaultSite::GatePin(g, pin) => circuit.gates()[g.0].inputs[pin],
    }
}

// ----------------------------------------------------------------------
// Pair blocks and the pair engines
// ----------------------------------------------------------------------

/// A pair block: the capture vectors packed as the kernel's block, plus
/// the launch vectors' good-machine words for the initialisation check.
fn pair_block<const L: usize>(
    circuit: &Circuit,
    launch: &[Vec<bool>],
    capture: &[Vec<bool>],
) -> Block<L> {
    let launch_good = good_sim(circuit, &PatternBlock::<L>::pack(circuit, launch));
    Block::new(circuit, PatternBlock::pack(circuit, capture), launch_good)
}

/// Pack pattern pairs into blocks and precompute both good machines once
/// per block, shared read-only by every worker.
fn prepare_pairs<const L: usize>(
    circuit: &Circuit,
    pairs: &[CircuitTwoPattern],
    block_size: usize,
) -> Vec<Block<L>> {
    pairs
        .chunks(block_size)
        .map(|chunk| {
            let launch: Vec<Vec<bool>> = chunk.iter().map(|p| p.init.clone()).collect();
            let capture: Vec<Vec<bool>> = chunk.iter().map(|p| p.eval.clone()).collect();
            pair_block(circuit, &launch, &capture)
        })
        .collect()
}

/// A transition fault runs as its residual stuck-at fault, live only on
/// the pairs whose launch vector sets the site's stem to the initial
/// value.
impl KernelFault for TransitionFault {
    fn stuck_at(self) -> StuckAtFault {
        self.as_stuck_at()
    }

    fn live_mask<const L: usize>(self, graph: &SimGraph, block: &Block<L>) -> PatternWords<L> {
        let stem = match self.site {
            FaultSite::Signal(s) => s.0,
            FaultSite::GatePin(g, pin) => graph.gate_inputs(g)[pin] as usize,
        };
        let want = PatternWords::<L>::stuck(self.init_value());
        !(block.launch_good[stem] ^ want) & block.patterns.mask()
    }
}

/// Two-pattern transition-fault simulation with optional fault dropping:
/// [`simulate_transition_with`] on a [`SimGraph`] built for this call, at
/// [`SimOptions::default`]. `pairs[k]` detects `faults[f]` when the
/// launch vector initialises the site and the capture vector detects the
/// residual stuck-at fault.
#[must_use]
pub fn simulate_transition(
    circuit: &Circuit,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
    drop_detected: bool,
) -> FaultSimReport {
    let graph = SimGraph::build(circuit);
    simulate_transition_with(
        circuit,
        &graph,
        faults,
        pairs,
        drop_detected,
        SimOptions::default(),
    )
    .0
}

/// The pair detect mode: for every fault, the first pair that detects
/// it, on the stuck-at kernel and driver with each block's
/// initialisation mask as the block mask. Also returns the driver's
/// [`StealStats`]. `graph` must have been built from `circuit`. The
/// report is bit-identical for every lane width and thread count.
///
/// # Panics
///
/// Panics if `options.lanes` is not one of
/// [`SUPPORTED_LANES`](crate::faultsim::SUPPORTED_LANES).
#[must_use]
pub fn simulate_transition_with(
    circuit: &Circuit,
    graph: &SimGraph,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
    drop_detected: bool,
    options: SimOptions,
) -> (FaultSimReport, StealStats) {
    dispatch_lanes!(
        options.lanes,
        detect_pairs(
            circuit,
            graph,
            faults,
            pairs,
            drop_detected,
            options.threads,
            false
        )
    )
}

/// Serial (one pair per block) transition simulation on one thread — the
/// ablation baseline for pair-parallelism. Reports bit-identically to
/// [`simulate_transition`].
#[must_use]
pub fn simulate_transition_serial(
    circuit: &Circuit,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
    drop_detected: bool,
) -> FaultSimReport {
    let graph = SimGraph::build(circuit);
    detect_pairs::<1>(circuit, &graph, faults, pairs, drop_detected, 1, true).0
}

fn detect_pairs<const L: usize>(
    circuit: &Circuit,
    graph: &SimGraph,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
    drop_detected: bool,
    threads: usize,
    one_per_block: bool,
) -> (FaultSimReport, StealStats) {
    let block_size = block_size::<L>(one_per_block);
    let blocks = prepare_pairs::<L>(circuit, pairs, block_size);
    detect_run(
        graph,
        faults,
        &blocks,
        block_size,
        pairs.len(),
        drop_detected,
        threads,
    )
}

/// Full per-fault × per-pair × per-PO transition response signature —
/// the raw material of a transition-fault dictionary
/// ([`crate::diagnose::FaultDictionary::from_signatures`] consumes it
/// directly): [`capture_transition_signatures_with`] on a [`SimGraph`]
/// built for this call, at [`SimOptions::default`]. Bit
/// `pair * outputs + output` of row `f` is set when the pair both
/// initialises fault `f`'s site and exposes its residual stuck-at fault
/// at that output.
#[must_use]
pub fn capture_transition_signatures(
    circuit: &Circuit,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
) -> SignatureMatrix {
    let graph = SimGraph::build(circuit);
    capture_transition_signatures_with(circuit, &graph, faults, pairs, SimOptions::default()).0
}

/// The pair capture mode: every fault's signature row on the kernel's
/// per-PO sink and the driver, laid out by `options`. Also returns the
/// driver's [`StealStats`]. `graph` must have been built from `circuit`.
///
/// # Panics
///
/// Panics if `options.lanes` is not one of
/// [`SUPPORTED_LANES`](crate::faultsim::SUPPORTED_LANES).
#[must_use]
pub fn capture_transition_signatures_with(
    circuit: &Circuit,
    graph: &SimGraph,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
    options: SimOptions,
) -> (SignatureMatrix, StealStats) {
    dispatch_lanes!(
        options.lanes,
        capture_pairs(circuit, graph, faults, pairs, options.threads)
    )
}

fn capture_pairs<const L: usize>(
    circuit: &Circuit,
    graph: &SimGraph,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
    threads: usize,
) -> (SignatureMatrix, StealStats) {
    let block_size = block_size::<L>(false);
    let blocks = prepare_pairs::<L>(circuit, pairs, block_size);
    capture_run(
        graph,
        circuit.primary_outputs(),
        faults,
        &blocks,
        block_size,
        pairs.len(),
        threads,
    )
}

// ----------------------------------------------------------------------
// Launch-on-capture ATPG over a full-scan sequential machine
// ----------------------------------------------------------------------

/// Configuration of the LOC transition campaign (mirrors
/// [`crate::AtpgConfig`] where the phases coincide).
#[derive(Debug, Clone, Copy)]
pub struct TransitionAtpgConfig {
    /// Seed of the launch-pattern stream and the don't-care fill bits.
    /// Same seed ⇒ same report, bit for bit.
    pub seed: u64,
    /// Stop the random phase after this many consecutive 64-pair blocks
    /// that detect nothing new.
    pub random_window: usize,
    /// Hard cap on the number of 64-pair random blocks (0 skips the
    /// random phase).
    pub max_random_blocks: usize,
    /// PODEM settings for the deterministic phase (runs on the 2-frame
    /// unrolled circuit, so budgets see a doubled netlist).
    pub podem: PodemConfig,
    /// Run the deterministic phase.
    pub deterministic: bool,
    /// Run reverse-order pair compaction (preserves the detected set
    /// exactly; the test suites re-verify with [`simulate_transition`]).
    pub compact: bool,
}

impl Default for TransitionAtpgConfig {
    fn default() -> Self {
        TransitionAtpgConfig {
            seed: 0x7D15_0C2A_93B4_E617,
            random_window: 3,
            max_random_blocks: 64,
            podem: PodemConfig::default(),
            deterministic: true,
            compact: true,
        }
    }
}

/// Outcome of a LOC transition campaign.
#[derive(Debug, Clone)]
pub struct TransitionAtpgReport {
    /// The final two-pattern test set (fully specified; `eval`'s state
    /// bits are the machine's own next state under `init` — broadside).
    pub pairs: Vec<CircuitTwoPattern>,
    /// Size of the targeted fault list.
    pub total_faults: usize,
    /// Faults first detected by a random-phase pair.
    pub detected_random: usize,
    /// Faults first detected by a deterministic-phase pair.
    pub detected_deterministic: usize,
    /// Faults proved untestable (no initialising launch / no capture
    /// propagation exists, even with a free launch state).
    pub untestable: usize,
    /// Faults abandoned at the PODEM backtrack limit.
    pub aborted: usize,
    /// Deterministic-phase PODEM invocations.
    pub podem_calls: usize,
    /// Per-fault final classification, aligned with the input list.
    pub statuses: Vec<FaultStatus>,
    /// Random-phase wall time, milliseconds.
    pub random_ms: f64,
    /// Deterministic-phase (plus compaction) wall time, milliseconds.
    pub deterministic_ms: f64,
}

impl TransitionAtpgReport {
    /// Detected / total.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            return 1.0;
        }
        (self.detected_random + self.detected_deterministic) as f64 / self.total_faults as f64
    }

    /// Detected / (total − untestable): coverage of the testable universe.
    #[must_use]
    pub fn testable_coverage(&self) -> f64 {
        let testable = self.total_faults - self.untestable;
        if testable == 0 {
            return 1.0;
        }
        (self.detected_random + self.detected_deterministic) as f64 / testable as f64
    }
}

/// Launch-on-capture transition ATPG over a full-scan view of a
/// sequential machine.
///
/// The engine scans the machine ([`insert_scan`], full plan), so a pair
/// is a pair of full PI vectors of the scan view (functional inputs +
/// scan-loaded state). The launch vector is free; the capture vector's
/// state bits are *structurally* the machine's next state under the
/// launch vector — random pairs derive them from the launch
/// good-machine words at the flip-flop `D` nets, and deterministic
/// pairs fall out of constrained PODEM on the 2-frame time-frame
/// expansion, where frame 1's state inputs *are* frame 0's `D` images.
#[derive(Debug)]
pub struct TransitionAtpg {
    scan: ScanCircuit,
    graph: SimGraph,
    unrolled: UnrolledCircuit,
    /// For each scan-view PI position: `Ok(dff index)` for a pseudo-PI,
    /// `Err(functional index)` otherwise.
    pi_roles: Vec<Result<usize, usize>>,
    /// Flip-flop `D` signals, in flip-flop order.
    d_signals: Vec<SignalId>,
    config: TransitionAtpgConfig,
}

impl TransitionAtpg {
    /// Build the LOC engine for `seq` (inserts a full scan chain and
    /// unrolls two frames up front).
    #[must_use]
    pub fn new(seq: &SeqCircuit, config: TransitionAtpgConfig) -> Self {
        let scan = insert_scan(seq, &ScanPlan::Full);
        let graph = SimGraph::build(scan.circuit());
        let unrolled = unroll(seq, &UnrollConfig::full_observability(2));
        let mut func_idx = 0usize;
        let pi_roles = scan
            .circuit()
            .primary_inputs()
            .iter()
            .map(|pi| {
                if let Some(j) = seq.dffs().iter().position(|ff| ff.q == *pi) {
                    Ok(j)
                } else {
                    let i = func_idx;
                    func_idx += 1;
                    Err(i)
                }
            })
            .collect();
        let d_signals = seq.dffs().iter().map(|ff| ff.d).collect();
        TransitionAtpg {
            scan,
            graph,
            unrolled,
            pi_roles,
            d_signals,
            config,
        }
    }

    /// The full-scan combinational view the pairs (and the fault sites)
    /// live on.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        self.scan.circuit()
    }

    /// The scan insertion behind [`circuit`](TransitionAtpg::circuit).
    #[must_use]
    pub fn scan(&self) -> &ScanCircuit {
        &self.scan
    }

    /// The 2-frame unrolled circuit the deterministic phase targets.
    #[must_use]
    pub fn unrolled(&self) -> &UnrolledCircuit {
        &self.unrolled
    }

    /// Complete a launch vector into a broadside pair: the capture
    /// vector's state bits are the next state under `launch`, its
    /// functional bits come from `capture_inputs`.
    fn pair_from(
        &self,
        launch: Vec<bool>,
        launch_good: &[PatternWords<1>],
        k: usize,
        capture_inputs: &[bool],
    ) -> CircuitTwoPattern {
        let eval = self
            .pi_roles
            .iter()
            .map(|role| match role {
                Ok(j) => launch_good[self.d_signals[*j].0].get_bit(k),
                Err(i) => capture_inputs[*i],
            })
            .collect();
        CircuitTwoPattern { init: launch, eval }
    }

    /// Run the campaign over `faults` (sites on
    /// [`circuit`](TransitionAtpg::circuit), which shares signal and
    /// gate ids with the machine's combinational core).
    #[must_use]
    pub fn run(&self, faults: &[TransitionFault]) -> TransitionAtpgReport {
        let circuit = self.scan.circuit();
        let n_pi = circuit.primary_inputs().len();
        let n_func = self.pi_roles.iter().filter(|r| r.is_err()).count();
        let cfg = &self.config;
        let mut rng = SplitMix64::new(cfg.seed);
        let mut statuses = vec![FaultStatus::Undetected; faults.len()];
        let mut remaining: Vec<usize> = (0..faults.len()).collect();
        let mut pairs: Vec<CircuitTwoPattern> = Vec::new();
        let mut scratch: FaultSimScratch = FaultSimScratch::for_graph(&self.graph);
        let mut podem_calls = 0usize;

        // Random phase: blocks of 64 free launch vectors, broadside
        // capture, fault dropping, credit-based pair keeping.
        let t0 = Instant::now();
        let mut stale = 0usize;
        let mut blocks = 0usize;
        while !remaining.is_empty() && blocks < cfg.max_random_blocks && stale < cfg.random_window {
            blocks += 1;
            let launch: Vec<Vec<bool>> = (0..64)
                .map(|_| (0..n_pi).map(|_| rng.next_bool()).collect())
                .collect();
            let launch_block: PatternBlock = PatternBlock::pack(circuit, &launch);
            let launch_good = good_sim(circuit, &launch_block);
            let capture: Vec<Vec<bool>> = (0..64)
                .map(|k| {
                    let func: Vec<bool> = (0..n_func).map(|_| rng.next_bool()).collect();
                    self.pair_from(launch[k].clone(), &launch_good, k, &func)
                        .eval
                })
                .collect();
            let blk = Block::new(circuit, PatternBlock::pack(circuit, &capture), launch_good);
            let mut credited = 0u64;
            let before = remaining.len();
            remaining.retain(|&fi| {
                let mask = scratch.detect_block(&self.graph, faults[fi], &blk);
                if mask.any() {
                    statuses[fi] = FaultStatus::DetectedRandom;
                    credited |= 1u64 << mask.trailing_zeros();
                    false
                } else {
                    true
                }
            });
            if remaining.len() < before {
                stale = 0;
                for k in 0..64 {
                    if credited & (1u64 << k) != 0 {
                        pairs.push(CircuitTwoPattern {
                            init: launch[k].clone(),
                            eval: capture[k].clone(),
                        });
                    }
                }
            } else {
                stale += 1;
            }
        }
        let random_ms = t0.elapsed().as_secs_f64() * 1e3;
        let detected_random = statuses
            .iter()
            .filter(|s| **s == FaultStatus::DetectedRandom)
            .count();

        // Deterministic phase: constrained PODEM on the 2-frame unroll.
        // The fault is embedded in frame 1, the frame-0 copy of its stem
        // is constrained to the initial value, and the resulting cube
        // (state₀, pi@0, pi@1) is natively a LOC pair.
        let t1 = Instant::now();
        if cfg.deterministic {
            let ids = std::mem::take(&mut remaining);
            for fi in ids {
                if statuses[fi].is_detected() {
                    continue;
                }
                let f = faults[fi];
                let stem = site_signal(circuit, f.site);
                let target = StuckAtFault {
                    site: self.unrolled.fault_at(1, f.site),
                    value: f.init_value(),
                };
                let constraint = (self.unrolled.signal_at(0, stem), f.init_value());
                podem_calls += 1;
                match generate_test_constrained(
                    self.unrolled.circuit(),
                    target,
                    &[constraint],
                    &cfg.podem,
                ) {
                    PodemResult::Test(cube) => {
                        let filled: Vec<bool> = cube
                            .iter()
                            .map(|v| v.unwrap_or_else(|| rng.next_bool()))
                            .collect();
                        let n_ff = self.d_signals.len();
                        let state0 = &filled[..n_ff];
                        let pi0 = &filled[n_ff..n_ff + n_func];
                        let pi1 = &filled[n_ff + n_func..];
                        let launch: Vec<bool> = self
                            .pi_roles
                            .iter()
                            .map(|role| match role {
                                Ok(j) => state0[*j],
                                Err(i) => pi0[*i],
                            })
                            .collect();
                        let launch_block: PatternBlock =
                            PatternBlock::pack(circuit, std::slice::from_ref(&launch));
                        let launch_good = good_sim(circuit, &launch_block);
                        let pair = self.pair_from(launch, &launch_good, 0, pi1);
                        // Collateral dropping: one deterministic pair
                        // usually kills more than its target.
                        let capture_block =
                            PatternBlock::pack(circuit, std::slice::from_ref(&pair.eval));
                        let blk = Block::new(circuit, capture_block, launch_good);
                        for (gi, status) in statuses.iter_mut().enumerate() {
                            if *status == FaultStatus::Undetected
                                && scratch.detect_block(&self.graph, faults[gi], &blk).any()
                            {
                                *status = FaultStatus::DetectedDeterministic;
                            }
                        }
                        debug_assert!(
                            statuses[fi] == FaultStatus::DetectedDeterministic,
                            "constrained PODEM cube must detect its own target pair-wise"
                        );
                        pairs.push(pair);
                    }
                    PodemResult::Untestable => statuses[fi] = FaultStatus::Untestable,
                    PodemResult::Aborted => statuses[fi] = FaultStatus::Aborted,
                }
            }
        }

        // Reverse-order pair compaction: replay backwards with dropping,
        // keep only pairs that detect something new. Preserves the
        // detected-fault set exactly.
        if cfg.compact && !pairs.is_empty() {
            let mut live: Vec<TransitionFault> = statuses
                .iter()
                .zip(faults)
                .filter(|(s, _)| s.is_detected())
                .map(|(_, f)| *f)
                .collect();
            let mut kept: Vec<CircuitTwoPattern> = Vec::new();
            for p in pairs.iter().rev() {
                if live.is_empty() {
                    break;
                }
                let blk = pair_block::<1>(
                    circuit,
                    std::slice::from_ref(&p.init),
                    std::slice::from_ref(&p.eval),
                );
                let before = live.len();
                live.retain(|f| scratch.detect_block(&self.graph, *f, &blk).is_zero());
                if live.len() < before {
                    kept.push(p.clone());
                }
            }
            kept.reverse();
            pairs = kept;
        }
        let deterministic_ms = t1.elapsed().as_secs_f64() * 1e3;

        let count = |want: FaultStatus| statuses.iter().filter(|s| **s == want).count();
        TransitionAtpgReport {
            pairs,
            total_faults: faults.len(),
            detected_random,
            detected_deterministic: count(FaultStatus::DetectedDeterministic),
            untestable: count(FaultStatus::Untestable),
            aborted: count(FaultStatus::Aborted),
            podem_calls,
            statuses,
            random_ms,
            deterministic_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultsim::{seeded_patterns, SUPPORTED_LANES};
    use crate::oracle::{transition_oracle, transition_signature_oracle};
    use sinw_switch::cells::CellKind;
    use sinw_switch::seq::Dff;
    use sinw_switch::value::Logic;

    /// A small combinational playground: 2-bit carry chain with fanout.
    fn comb() -> Circuit {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let b = c.add_input("b");
        let ci = c.add_input("ci");
        let x = c.add_gate(CellKind::Xor2, "x", &[a, b]);
        let s = c.add_gate(CellKind::Xor2, "s", &[x, ci]);
        let g1 = c.add_gate(CellKind::Nand2, "g1", &[x, ci]);
        let g2 = c.add_gate(CellKind::Nand2, "g2", &[a, b]);
        let co = c.add_gate(CellKind::Nand2, "co", &[g1, g2]);
        c.mark_output(s);
        c.mark_output(co);
        c
    }

    fn seeded_pairs(circuit: &Circuit, count: usize, seed: u64) -> Vec<CircuitTwoPattern> {
        let n = circuit.primary_inputs().len();
        let flat = seeded_patterns(n, 2 * count, seed);
        flat.chunks(2)
            .map(|w| CircuitTwoPattern {
                init: w[0].clone(),
                eval: w[1].clone(),
            })
            .collect()
    }

    #[test]
    fn transition_universe_is_one_to_one_with_stuck_at() {
        let c = comb();
        let sa = enumerate_stuck_at(&c);
        let tr = enumerate_transition(&c);
        assert_eq!(sa.len(), tr.len());
        for (s, t) in sa.iter().zip(&tr) {
            assert_eq!(t.as_stuck_at(), *s);
        }
    }

    #[test]
    fn initialisation_gates_detection() {
        // a -> INV -> out; slow-to-rise at a needs a launch with a = 0.
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let o = c.add_gate(CellKind::Inv, "g", &[a]);
        c.mark_output(o);
        let f = TransitionFault::slow_to_rise(FaultSite::Signal(a));
        let good = CircuitTwoPattern {
            init: vec![false],
            eval: vec![true],
        };
        let bad_init = CircuitTwoPattern {
            init: vec![true],
            eval: vec![true],
        };
        let r = simulate_transition(&c, &[f], std::slice::from_ref(&good), true);
        assert_eq!(r.detected, vec![0]);
        let r = simulate_transition(&c, &[f], std::slice::from_ref(&bad_init), true);
        assert!(r.detected.is_empty(), "uninitialised pair must not detect");
    }

    #[test]
    fn engines_report_bit_identically_and_match_the_oracle() {
        let c = comb();
        let faults = enumerate_transition(&c);
        let pairs = seeded_pairs(&c, 3, 0xBEEF);
        let oracle = transition_oracle(&c, &faults, &pairs);
        assert!(!oracle.detected.is_empty() && !oracle.undetected.is_empty());
        let graph = SimGraph::build(&c);
        for drop in [false, true] {
            for lanes in SUPPORTED_LANES {
                for threads in [1, 3] {
                    let options = SimOptions { lanes, threads };
                    assert_eq!(
                        simulate_transition_with(&c, &graph, &faults, &pairs, drop, options).0,
                        oracle,
                        "lanes = {lanes}, threads = {threads}, drop = {drop}"
                    );
                }
            }
            assert_eq!(
                simulate_transition_serial(&c, &faults, &pairs, drop),
                oracle
            );
        }
    }

    #[test]
    fn empty_pair_sets_report_everything_undetected() {
        let c = comb();
        let faults = enumerate_transition(&c);
        let r = simulate_transition(&c, &faults, &[], true);
        assert_eq!(r.undetected.len(), faults.len());
        let options = SimOptions {
            lanes: 1,
            threads: 2,
        };
        let graph = SimGraph::build(&c);
        assert_eq!(
            simulate_transition_with(&c, &graph, &faults, &[], true, options).0,
            r
        );
    }

    #[test]
    fn signatures_agree_with_the_detect_engines() {
        let c = comb();
        let faults = enumerate_transition(&c);
        let pairs = seeded_pairs(&c, 70, 0xCAFE);
        let report = simulate_transition(&c, &faults, &pairs, false);
        let graph = SimGraph::build(&c);
        let oracle = transition_signature_oracle(&c, &faults, &pairs);
        for lanes in SUPPORTED_LANES {
            let options = SimOptions { lanes, threads: 2 };
            let (sig, _) = capture_transition_signatures_with(&c, &graph, &faults, &pairs, options);
            assert_eq!(sig, oracle, "lanes = {lanes}");
            for fi in 0..faults.len() {
                assert_eq!(
                    sig.is_detected(fi),
                    report.detected.contains(&fi),
                    "fault {fi} at lanes {lanes}"
                );
                let first = report
                    .detected
                    .contains(&fi)
                    .then(|| {
                        simulate_transition(&c, &faults[fi..=fi], &pairs, true).first_detections
                    })
                    .map(|fd| fd.iter().position(|n| *n > 0).unwrap());
                assert_eq!(sig.first_failing_pattern(fi), first);
            }
        }
    }

    /// q' = XOR(q, a), out = NAND(q, a): the accumulator toy machine.
    fn accum() -> SeqCircuit {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let q = c.add_input("q");
        let d = c.add_gate(CellKind::Xor2, "d", &[q, a]);
        let out = c.add_gate(CellKind::Nand2, "out", &[q, a]);
        c.mark_output(out);
        SeqCircuit::new(
            c,
            vec![Dff {
                name: "ff".into(),
                d,
                q,
            }],
        )
        .unwrap()
    }

    #[test]
    fn loc_pairs_are_broadside_and_verified_by_the_oracle() {
        let seq = accum();
        let engine = TransitionAtpg::new(&seq, TransitionAtpgConfig::default());
        let faults = enumerate_transition(engine.circuit());
        let report = engine.run(&faults);
        assert_eq!(report.aborted, 0);
        assert!(report.coverage() > 0.5, "coverage {}", report.coverage());
        // Every pair is broadside: capture state = NS(launch).
        for p in &report.pairs {
            let pis = engine.circuit().primary_inputs();
            let launch: Vec<Logic> = p.init.iter().map(|b| Logic::from_bool(*b)).collect();
            let values = seq.core().eval(&launch);
            for (pos, pi) in pis.iter().enumerate() {
                if let Some(ff) = seq.dffs().iter().find(|ff| ff.q == *pi) {
                    assert_eq!(values[ff.d.0], Logic::from_bool(p.eval[pos]));
                }
            }
        }
        // The independent oracle confirms the classification.
        let oracle = transition_oracle(engine.circuit(), &faults, &report.pairs);
        let detected: Vec<usize> = report
            .statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_detected())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(oracle.detected, detected);
    }

    #[test]
    fn loc_campaign_is_deterministic() {
        let seq = accum();
        let engine = TransitionAtpg::new(&seq, TransitionAtpgConfig::default());
        let faults = enumerate_transition(engine.circuit());
        let a = engine.run(&faults);
        let b = engine.run(&faults);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.statuses, b.statuses);
    }
}
