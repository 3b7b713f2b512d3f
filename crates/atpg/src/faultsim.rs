//! Stuck-at fault simulation: one event-driven, fanout-cone-restricted
//! kernel, one work-stealing driver and one [`SimOptions`] value behind
//! every engine mode.
//!
//! Two modes run on the kernel, each with one `_with` entry point that
//! takes a prebuilt [`SimGraph`] and a [`SimOptions`]:
//!
//! * **detect** — [`simulate_faults_with`] packs `64 * lanes`
//!   fully-specified patterns into one [`PatternWords`] word per signal
//!   and reports each fault's first detecting pattern, with optional
//!   fault dropping (parallel-pattern single-fault propagation, PPSFP);
//! * **capture** — [`capture_signatures_with`] records the full
//!   per-fault × per-pattern × per-PO response matrix the fault
//!   dictionary ([`crate::diagnose`]) is built from, with no dropping.
//!
//! The plain [`simulate_faults`] and [`capture_signatures`] build the
//! graph themselves and run at [`SimOptions::default`]. The transition
//! engines of [`crate::transition`] run the same two modes on pattern
//! pairs. Two ablation baselines stay: [`simulate_faults_serial`] and
//! [`capture_signatures_serial`] run the same driver one pattern per
//! block, and [`simulate_faults_full_pass`] re-evaluates the whole
//! circuit per fault × block. Every engine is checked against the scalar
//! references of [`crate::oracle`], which share no code with it.
//!
//! # Lane widening
//!
//! The kernel is generic over a lane count `L`: a block packs `64 * L`
//! patterns into [`PatternWords<L>`] words (`[u64; L]` with loop-based
//! bitwise ops that autovectorise to 256/512-bit SIMD).
//! [`SimOptions::lanes`] picks the width at run time; its default is
//! [`configured_lanes`] (the `SINW_LANES` environment variable, default
//! 1). Reports and signature matrices are bit-identical at every
//! supported width.
//!
//! # The event-driven kernel
//!
//! A stuck-at fault can only disturb its transitive fanout cone, and in
//! ISCAS-style circuits that cone is usually a small fraction of the
//! netlist. The faulty pass therefore does **not** re-evaluate the whole
//! circuit per fault × block. It runs over a shared [`SimGraph`]
//! precompute (levelized topological order + CSR fanout +
//! PO-reachability masks):
//!
//! 1. seed a level-ordered worklist at the fault site — bailing out
//!    immediately when the stuck word equals the good word (no pattern
//!    disturbed) or the site cannot reach any primary output;
//! 2. evaluate only gates reached by an event, reading un-disturbed inputs
//!    straight from the shared good-machine words; a gate whose output
//!    word comes out unchanged kills its event;
//! 3. report to a *sink*. The detect sink ORs primary-output differences
//!    into a mask as events reach them and ends the pass the moment the
//!    mask saturates the block's valid-pattern bits. The per-PO sink
//!    lets the pass drain and then reads every output's settled word.
//!
//! Per-fault state lives in a [`FaultSimScratch`]: faulty words are
//! validated by an epoch stamp instead of being cleared or re-cloned, so a
//! pass is allocation-free and costs O(disturbed region), not O(circuit).
//!
//! # The driver
//!
//! Every mode cuts its fault list into fixed chunks on a
//! [`WorkQueue`]; each worker owns a private scratch and writes each
//! chunk's results into that chunk's own slice of the output. Chunk
//! boundaries are a pure function of the input, so the output is
//! bit-identical for every thread count. With one thread the calling
//! thread drains the queue itself and nothing is spawned.

use crate::fault_list::{FaultSite, StuckAtFault};
use crate::graph::SimGraph;
pub use crate::lanes::PatternWords;
use crate::steal::WorkQueue;
use sinw_switch::cells::CellKind;
use sinw_switch::gate::{Circuit, GateId, SignalId};
use std::ops::Range;
use std::sync::Mutex;

/// A block of up to `64 * L` fully-specified input patterns.
///
/// Invariants (upheld by [`PatternBlock::try_pack`], assumed by every
/// engine):
///
/// * `1 <= count <= 64 * L` ([`PatternBlock::CAPACITY`]);
/// * `words.len()` equals the circuit's primary-input count; bit `k` of
///   `words[i]` is pattern `k`'s value for PI `i` (lane-major, see
///   [`PatternWords`]);
/// * bits at positions `>= count` are zero (padding patterns are all-0 and
///   masked out of detection results by [`PatternBlock::mask`]).
///
/// The default `L = 1` is the historical 64-wide block.
#[derive(Debug, Clone)]
pub struct PatternBlock<const L: usize = 1> {
    /// One wide word per primary input; bit `k` is the value in pattern
    /// `k`.
    pub words: Vec<PatternWords<L>>,
    /// Number of valid patterns (`1..=64 * L`).
    pub count: usize,
}

/// Why a slice of patterns cannot be packed into a [`PatternBlock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackError {
    /// No patterns were supplied (a block holds at least one).
    Empty,
    /// More than `64 * L` patterns were supplied; chunk them into blocks
    /// first (the engines do this internally).
    TooManyPatterns {
        /// How many patterns were supplied.
        got: usize,
        /// The block's capacity (`64 * L`).
        capacity: usize,
    },
    /// A pattern's length does not match the circuit's primary-input count.
    ArityMismatch {
        /// Index of the offending pattern.
        pattern: usize,
        /// Its length.
        got: usize,
        /// The circuit's primary-input count.
        expected: usize,
    },
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::Empty => write!(f, "cannot pack an empty pattern block"),
            PackError::TooManyPatterns { got, capacity } => {
                write!(
                    f,
                    "a pattern block holds at most {capacity} patterns, got {got}"
                )
            }
            PackError::ArityMismatch {
                pattern,
                got,
                expected,
            } => write!(
                f,
                "pattern {pattern} has {got} bits, the circuit has {expected} primary inputs"
            ),
        }
    }
}

impl std::error::Error for PackError {}

impl<const L: usize> PatternBlock<L> {
    /// Pattern capacity of one block: `64 * L`.
    pub const CAPACITY: usize = 64 * L;

    /// Pack a slice of patterns (each a bool per PI) into a block.
    ///
    /// # Errors
    ///
    /// Returns a [`PackError`] if the slice is empty, holds more than
    /// `64 * L` patterns, or any pattern's arity does not match the
    /// circuit.
    pub fn try_pack(circuit: &Circuit, patterns: &[Vec<bool>]) -> Result<Self, PackError> {
        if patterns.is_empty() {
            return Err(PackError::Empty);
        }
        if patterns.len() > Self::CAPACITY {
            return Err(PackError::TooManyPatterns {
                got: patterns.len(),
                capacity: Self::CAPACITY,
            });
        }
        let n_pi = circuit.primary_inputs().len();
        let mut words = vec![PatternWords::<L>::ZERO; n_pi];
        for (k, p) in patterns.iter().enumerate() {
            if p.len() != n_pi {
                return Err(PackError::ArityMismatch {
                    pattern: k,
                    got: p.len(),
                    expected: n_pi,
                });
            }
            for (i, b) in p.iter().enumerate() {
                if *b {
                    words[i].set_bit(k);
                }
            }
        }
        Ok(PatternBlock {
            words,
            count: patterns.len(),
        })
    }

    /// Pack a slice of patterns into a block.
    ///
    /// Panicking wrapper around [`PatternBlock::try_pack`] for tests and
    /// hand-driven experiments.
    ///
    /// # Panics
    ///
    /// Panics if more than `64 * L` patterns are supplied, none are, or
    /// arities mismatch.
    #[must_use]
    pub fn pack(circuit: &Circuit, patterns: &[Vec<bool>]) -> Self {
        match Self::try_pack(circuit, patterns) {
            Ok(block) => block,
            Err(e) => panic!("{e}"),
        }
    }

    /// Mask with the valid-pattern bits set.
    #[must_use]
    pub fn mask(&self) -> PatternWords<L> {
        PatternWords::valid_mask(self.count)
    }
}

fn eval_word<const L: usize>(kind: CellKind, ins: &[PatternWords<L>]) -> PatternWords<L> {
    match kind {
        CellKind::Inv => !ins[0],
        CellKind::Nand2 => !(ins[0] & ins[1]),
        CellKind::Nor2 => !(ins[0] | ins[1]),
        CellKind::Xor2 => ins[0] ^ ins[1],
        CellKind::Xor3 => ins[0] ^ ins[1] ^ ins[2],
        CellKind::Maj3 => (ins[0] & ins[1]) | (ins[1] & ins[2]) | (ins[0] & ins[2]),
    }
}

/// Bit-parallel good-machine simulation: one wide word per signal.
#[must_use]
pub fn good_sim<const L: usize>(
    circuit: &Circuit,
    block: &PatternBlock<L>,
) -> Vec<PatternWords<L>> {
    let mut values = vec![PatternWords::<L>::ZERO; circuit.signal_count()];
    good_sim_into(circuit, block, &mut values);
    values
}

pub(crate) fn good_sim_into<const L: usize>(
    circuit: &Circuit,
    block: &PatternBlock<L>,
    values: &mut [PatternWords<L>],
) {
    for (k, pi) in circuit.primary_inputs().iter().enumerate() {
        values[pi.0] = block.words[k];
    }
    let mut ins = [PatternWords::<L>::ZERO; 3];
    for gate in circuit.gates() {
        for (k, s) in gate.inputs.iter().enumerate() {
            ins[k] = values[s.0];
        }
        values[gate.output.0] = eval_word(gate.kind, &ins[..gate.inputs.len()]);
    }
}

/// Bit-parallel faulty-machine simulation under a single stuck-at fault
/// (whole-circuit pass; the event-driven kernel inside the engines only
/// materialises the disturbed region).
#[must_use]
pub fn faulty_sim<const L: usize>(
    circuit: &Circuit,
    fault: StuckAtFault,
    block: &PatternBlock<L>,
) -> Vec<PatternWords<L>> {
    let mut values = vec![PatternWords::<L>::ZERO; circuit.signal_count()];
    faulty_sim_into(circuit, fault, block, &mut values);
    values
}

fn faulty_sim_into<const L: usize>(
    circuit: &Circuit,
    fault: StuckAtFault,
    block: &PatternBlock<L>,
    values: &mut [PatternWords<L>],
) {
    let stuck = PatternWords::<L>::stuck(fault.value);
    for (k, pi) in circuit.primary_inputs().iter().enumerate() {
        values[pi.0] = block.words[k];
        if fault.site == FaultSite::Signal(*pi) {
            values[pi.0] = stuck;
        }
    }
    let mut ins = [PatternWords::<L>::ZERO; 3];
    for (gi, gate) in circuit.gates().iter().enumerate() {
        for (pin, s) in gate.inputs.iter().enumerate() {
            ins[pin] = if fault.site == FaultSite::GatePin(GateId(gi), pin) {
                stuck
            } else {
                values[s.0]
            };
        }
        let mut out = eval_word(gate.kind, &ins[..gate.inputs.len()]);
        if fault.site == FaultSite::Signal(gate.output) {
            out = stuck;
        }
        values[gate.output.0] = out;
    }
}

// ----------------------------------------------------------------------
// Per-worker scratch, the two sinks, and the event-driven kernel
// ----------------------------------------------------------------------

/// Reusable per-worker buffers for fault-simulation passes.
///
/// Holds the faulty-word scratch, the epoch-validated dirty marks, the
/// per-level worklist buckets of the event-driven kernel, and the
/// good/faulty vectors used by [`detect_mask_in`]. Buffers grow lazily to
/// the largest circuit seen and are never shrunk or cleared: a pass
/// invalidates previous state by bumping an epoch stamp, so reuse is
/// allocation-free.
///
/// One scratch serves one thread; the driver creates one per worker.
/// The lane count `L` must match the blocks it is used with (default 1).
#[derive(Debug, Default)]
pub struct FaultSimScratch<const L: usize = 1> {
    /// Good-machine words for [`detect_mask_in`].
    good: Vec<PatternWords<L>>,
    /// Faulty words, valid only where `stamp[sig] == epoch`.
    faulty: Vec<PatternWords<L>>,
    /// Per-signal dirty mark (epoch at which `faulty` was written).
    stamp: Vec<u32>,
    /// Per-gate enqueued mark for the current pass.
    queued: Vec<u32>,
    /// Per-level worklist buckets, indexed by gate level.
    buckets: Vec<Vec<u32>>,
    /// Current pass number; bumping it invalidates all stamps at once.
    epoch: u32,
}

impl<const L: usize> FaultSimScratch<L> {
    /// An empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch sized for every buffer the event kernel touches on
    /// `graph`.
    pub(crate) fn for_graph(graph: &SimGraph) -> Self {
        let mut scratch = Self::new();
        scratch.ensure_signals(graph.signal_count());
        scratch.queued.resize(graph.gate_count(), 0);
        scratch.buckets.resize_with(graph.level_count(), Vec::new);
        scratch
    }

    /// Grow the per-signal buffers to cover `n` signals.
    fn ensure_signals(&mut self, n: usize) {
        if self.faulty.len() < n {
            self.good.resize(n, PatternWords::ZERO);
            self.faulty.resize(n, PatternWords::ZERO);
            self.stamp.resize(n, 0);
        }
    }

    /// Start a new pass: bump the epoch, handling the (once per 2³²
    /// passes) wrap-around by re-zeroing the stamps.
    fn begin_pass(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.queued.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// The current pass's word for signal `s`: its faulty word if the
    /// pass disturbed it, otherwise the good word.
    #[inline]
    fn word(&self, s: usize, good: &[PatternWords<L>]) -> PatternWords<L> {
        if self.stamp[s] == self.epoch {
            self.faulty[s]
        } else {
            good[s]
        }
    }

    /// Enqueue a gate for the current pass (deduplicated), widening the
    /// active level range.
    #[inline]
    fn enqueue(&mut self, graph: &SimGraph, gate: u32, epoch: u32, lo: &mut usize, hi: &mut usize) {
        let g = gate as usize;
        if self.queued[g] == epoch {
            return;
        }
        self.queued[g] = epoch;
        let lvl = graph.gate_level(GateId(g));
        self.buckets[lvl].push(gate);
        *lo = (*lo).min(lvl);
        *hi = (*hi).max(lvl);
    }

    /// Detect-sink pass: the patterns of `block_mask` on which `fault`
    /// reaches some primary output, given the block's good-machine
    /// words. The scratch must come from [`FaultSimScratch::for_graph`]
    /// on `graph`.
    #[inline]
    pub(crate) fn detect(
        &mut self,
        graph: &SimGraph,
        fault: StuckAtFault,
        block_mask: PatternWords<L>,
        good: &[PatternWords<L>],
    ) -> PatternWords<L> {
        let mut sink = Detect {
            mask: PatternWords::ZERO,
            full: block_mask,
        };
        event_pass(graph, fault, block_mask, good, self, &mut sink);
        sink.mask
    }

    /// [`FaultSimScratch::detect`] of a kernel fault over one prepared
    /// block, under the fault's live mask.
    pub(crate) fn detect_block<F: KernelFault>(
        &mut self,
        graph: &SimGraph,
        fault: F,
        block: &Block<L>,
    ) -> PatternWords<L> {
        let live = fault.live_mask(graph, block);
        if live.is_zero() {
            return PatternWords::ZERO;
        }
        self.detect(graph, fault.stuck_at(), live, &block.good)
    }
}

/// Where the event pass reports: the one place the detect and capture
/// modes differ.
pub(crate) trait Sink<const L: usize> {
    /// A disturbed primary output took a new faulty word; `diff` holds the
    /// block-mask patterns on which it differs from the good machine.
    /// Returning `true` ends the pass at once.
    fn po_event(&mut self, diff: PatternWords<L>) -> bool;

    /// The pass drained without ending early; `scratch` holds its settled
    /// words.
    fn settled(
        &mut self,
        _scratch: &FaultSimScratch<L>,
        _good: &[PatternWords<L>],
        _block_mask: PatternWords<L>,
    ) {
    }
}

/// The detect sink: ORs primary-output differences into one mask and
/// ends the pass once every block-mask pattern detects the fault.
struct Detect<const L: usize> {
    mask: PatternWords<L>,
    full: PatternWords<L>,
}

impl<const L: usize> Sink<L> for Detect<L> {
    #[inline]
    fn po_event(&mut self, diff: PatternWords<L>) -> bool {
        self.mask |= diff;
        self.mask == self.full
    }
}

/// The per-PO sink: once the pass has drained, writes every primary
/// output's difference word into one signature row, starting at pattern
/// `first_pattern`.
struct PoRow<'a> {
    po_signals: &'a [SignalId],
    row: &'a mut [u64],
    first_pattern: usize,
}

impl<const L: usize> Sink<L> for PoRow<'_> {
    #[inline]
    fn po_event(&mut self, _diff: PatternWords<L>) -> bool {
        false
    }

    fn settled(
        &mut self,
        scratch: &FaultSimScratch<L>,
        good: &[PatternWords<L>],
        block_mask: PatternWords<L>,
    ) {
        let n_outputs = self.po_signals.len();
        for (o, po) in self.po_signals.iter().enumerate() {
            let diff = (scratch.word(po.0, good) ^ good[po.0]) & block_mask;
            for k in diff.set_bits() {
                let bit = (self.first_pattern + k) * n_outputs + o;
                self.row[bit / 64] |= 1u64 << (bit % 64);
            }
        }
    }
}

/// The event-driven faulty pass of `fault` over one pattern block, given
/// the block's good-machine words, reporting to `sink`.
///
/// Work is proportional to the disturbed part of the fault's fanout cone.
/// `scratch` must come from [`FaultSimScratch::for_graph`] on `graph`.
/// Every pass leaves the worklist buckets empty.
pub(crate) fn event_pass<const L: usize, S: Sink<L>>(
    graph: &SimGraph,
    fault: StuckAtFault,
    block_mask: PatternWords<L>,
    good: &[PatternWords<L>],
    scratch: &mut FaultSimScratch<L>,
    sink: &mut S,
) {
    let stuck = PatternWords::<L>::stuck(fault.value);
    let epoch = scratch.begin_pass();
    debug_assert!(
        scratch.buckets.iter().all(Vec::is_empty),
        "a pass must start on an empty worklist"
    );
    let (mut lo, mut hi) = (usize::MAX, 0usize);

    // Seed the worklist at the fault site. Two cheap proofs of
    // undetectability short-circuit the whole pass: the stuck word equals
    // the good word (no pattern in the block excites the fault), or no
    // primary output is reachable from the site.
    match fault.site {
        FaultSite::Signal(s) => {
            if graph.po_reach(s) == 0 || good[s.0] == stuck {
                return;
            }
            scratch.faulty[s.0] = stuck;
            scratch.stamp[s.0] = epoch;
            if graph.po_bit(s) != 0 && sink.po_event((good[s.0] ^ stuck) & block_mask) {
                return;
            }
            for &g in graph.consumers(s) {
                scratch.enqueue(graph, g, epoch, &mut lo, &mut hi);
            }
        }
        FaultSite::GatePin(g, pin) => {
            let out = graph.gate_output(g);
            let in_sig = graph.gate_inputs(g)[pin] as usize;
            if graph.po_reach(out) == 0 || good[in_sig] == stuck {
                return;
            }
            scratch.enqueue(graph, g.0 as u32, epoch, &mut lo, &mut hi);
        }
    }

    // Drain levels in ascending order (a fanout-free site leaves
    // `lo > hi`). Events only ever flow to strictly higher levels, so each
    // gate is evaluated at most once per pass and reads final faulty
    // input words.
    let mut lvl = lo;
    while lvl <= hi {
        let mut bucket = std::mem::take(&mut scratch.buckets[lvl]);
        for &gi in &bucket {
            let gate = GateId(gi as usize);
            let gate_ins = graph.gate_inputs(gate);
            let mut ins = [PatternWords::<L>::ZERO; 3];
            for (pin, &s) in gate_ins.iter().enumerate() {
                ins[pin] = scratch.word(s as usize, good);
            }
            if let FaultSite::GatePin(fg, fpin) = fault.site {
                if fg == gate {
                    ins[fpin] = stuck;
                }
            }
            let out = eval_word(graph.kind(gate), &ins[..gate_ins.len()]);
            let osig = graph.gate_output(gate);
            let o = osig.0;
            if out == scratch.word(o, good) {
                continue; // the event dies here
            }
            scratch.faulty[o] = out;
            scratch.stamp[o] = epoch;
            if graph.po_bit(osig) != 0 && sink.po_event((out ^ good[o]) & block_mask) {
                // The sink has its answer (the detect mask saturated), so
                // the rest of the cone cannot change it. Clear the pending
                // buckets and stop.
                bucket.clear();
                scratch.buckets[lvl] = bucket;
                for b in &mut scratch.buckets[lvl + 1..=hi] {
                    b.clear();
                }
                return;
            }
            if graph.po_reach(osig) != 0 {
                for &g in graph.consumers(osig) {
                    debug_assert!(graph.gate_level(GateId(g as usize)) > lvl);
                    scratch.enqueue(graph, g, epoch, &mut lo, &mut hi);
                }
            }
        }
        bucket.clear();
        scratch.buckets[lvl] = bucket;
        lvl += 1;
    }
    sink.settled(scratch, good, block_mask);
}

// ----------------------------------------------------------------------
// Whole-circuit detection masks
// ----------------------------------------------------------------------

/// Bitmask of the patterns in `block` that detect `fault` at some PO.
///
/// Convenience wrapper over [`detect_mask_in`] that allocates a fresh
/// [`FaultSimScratch`]; callers probing many faults should hold a scratch
/// and call [`detect_mask_in`] directly (or use [`simulate_faults_with`],
/// which amortises the graph precompute too).
#[must_use]
pub fn detect_mask<const L: usize>(
    circuit: &Circuit,
    fault: StuckAtFault,
    block: &PatternBlock<L>,
) -> PatternWords<L> {
    let mut scratch = FaultSimScratch::new();
    detect_mask_in(circuit, fault, block, &mut scratch)
}

/// [`detect_mask`] with caller-owned buffers: good and faulty machines are
/// simulated into `scratch`, so repeated calls are allocation-free.
///
/// This runs the whole-circuit pass (one fault, one block — nothing to
/// amortise a [`SimGraph`] over); the engines use the event-driven
/// kernel.
#[must_use]
pub fn detect_mask_in<const L: usize>(
    circuit: &Circuit,
    fault: StuckAtFault,
    block: &PatternBlock<L>,
    scratch: &mut FaultSimScratch<L>,
) -> PatternWords<L> {
    scratch.ensure_signals(circuit.signal_count());
    good_sim_into(circuit, block, &mut scratch.good);
    let FaultSimScratch { good, faulty, .. } = scratch;
    full_pass_detect_mask(circuit, fault, block, good, faulty)
}

/// The whole-circuit pass: faulty-simulate the *whole* circuit against
/// precomputed good-machine words and OR the PO differences — the inner
/// loop of [`detect_mask_in`] and of the [`simulate_faults_full_pass`]
/// ablation baseline.
fn full_pass_detect_mask<const L: usize>(
    circuit: &Circuit,
    fault: StuckAtFault,
    block: &PatternBlock<L>,
    good: &[PatternWords<L>],
    scratch: &mut [PatternWords<L>],
) -> PatternWords<L> {
    faulty_sim_into(circuit, fault, block, scratch);
    let mut mask = PatternWords::<L>::ZERO;
    for o in circuit.primary_outputs() {
        mask |= good[o.0] ^ scratch[o.0];
    }
    mask & block.mask()
}

// ----------------------------------------------------------------------
// Prepared blocks and kernel faults
// ----------------------------------------------------------------------

/// One packed block with its good-machine words, computed once per run
/// and shared read-only by every worker. A pattern-pair block also keeps
/// the launch vectors' good words; `patterns` then holds the capture
/// vectors.
pub(crate) struct Block<const L: usize> {
    pub(crate) patterns: PatternBlock<L>,
    pub(crate) good: Vec<PatternWords<L>>,
    pub(crate) launch_good: Vec<PatternWords<L>>,
}

impl<const L: usize> Block<L> {
    pub(crate) fn new(
        circuit: &Circuit,
        patterns: PatternBlock<L>,
        launch_good: Vec<PatternWords<L>>,
    ) -> Self {
        let good = good_sim(circuit, &patterns);
        Block {
            patterns,
            good,
            launch_good,
        }
    }
}

/// Patterns per block: the lane capacity, or one for the `_serial`
/// ablation baselines.
pub(crate) fn block_size<const L: usize>(one_per_block: bool) -> usize {
    if one_per_block {
        1
    } else {
        PatternBlock::<L>::CAPACITY
    }
}

fn prepare<const L: usize>(
    circuit: &Circuit,
    patterns: &[Vec<bool>],
    block_size: usize,
) -> Vec<Block<L>> {
    patterns
        .chunks(block_size)
        .map(|chunk| Block::new(circuit, PatternBlock::pack(circuit, chunk), Vec::new()))
        .collect()
}

/// A fault the kernel can run: the stuck-at fault it injects, and the
/// patterns of a block it is live on. A stuck-at fault is live on every
/// valid pattern; a transition fault only on the pairs whose launch
/// vector initialises its site, so that mask doubles as the block mask
/// and an uninitialised pair can never count as a detection.
pub(crate) trait KernelFault: Copy + Sync {
    /// The stuck-at fault the kernel injects.
    fn stuck_at(self) -> StuckAtFault;
    /// The block-mask patterns the kernel runs this fault under.
    fn live_mask<const L: usize>(self, graph: &SimGraph, block: &Block<L>) -> PatternWords<L>;
}

impl KernelFault for StuckAtFault {
    fn stuck_at(self) -> StuckAtFault {
        self
    }

    fn live_mask<const L: usize>(self, _graph: &SimGraph, block: &Block<L>) -> PatternWords<L> {
        block.patterns.mask()
    }
}

// ----------------------------------------------------------------------
// Reports, lanes, options, and the driver
// ----------------------------------------------------------------------

/// Result of simulating a fault list against a pattern set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSimReport {
    /// Detected faults (indices into the input fault list, ascending).
    pub detected: Vec<usize>,
    /// Undetected faults (indices, ascending).
    pub undetected: Vec<usize>,
    /// For each pattern, how many new faults it detected (first-detection
    /// credit, in pattern order) — the fault-dropping profile.
    pub first_detections: Vec<usize>,
}

impl FaultSimReport {
    /// Fault coverage in [0, 1].
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let total = self.detected.len() + self.undetected.len();
        if total == 0 {
            return 1.0;
        }
        self.detected.len() as f64 / total as f64
    }
}

fn report_from(firsts: Vec<Option<usize>>, n_patterns: usize) -> FaultSimReport {
    let mut detected = Vec::new();
    let mut undetected = Vec::new();
    let mut first_detections = vec![0usize; n_patterns];
    for (fi, first) in firsts.iter().enumerate() {
        match first {
            Some(p) => {
                detected.push(fi);
                first_detections[*p] += 1;
            }
            None => undetected.push(fi),
        }
    }
    FaultSimReport {
        detected,
        undetected,
        first_detections,
    }
}

/// The lane widths the engines can dispatch to (`SINW_LANES` values).
pub const SUPPORTED_LANES: [usize; 4] = [1, 2, 4, 8];

/// The engine-default lane width: the `SINW_LANES` environment variable
/// when set to a supported width ({1, 2, 4, 8}), otherwise 1 (the
/// historical 64-wide kernel). Unparsable or unsupported values fall back
/// to 1 rather than aborting a run.
#[must_use]
pub fn configured_lanes() -> usize {
    match std::env::var("SINW_LANES") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(l) if SUPPORTED_LANES.contains(&l) => l,
            _ => 1,
        },
        Err(_) => 1,
    }
}

/// Monomorphise a lane-generic engine call over the supported lane
/// widths.
macro_rules! dispatch_lanes {
    ($lanes:expr, $func:ident($($arg:expr),* $(,)?)) => {
        match $lanes {
            1 => $func::<1>($($arg),*),
            2 => $func::<2>($($arg),*),
            4 => $func::<4>($($arg),*),
            8 => $func::<8>($($arg),*),
            other => panic!(
                "unsupported lane count {other}; supported: {:?}",
                $crate::faultsim::SUPPORTED_LANES
            ),
        }
    };
}
pub(crate) use dispatch_lanes;

/// How an engine run is laid out: the lane width and the worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Lane width, one of [`SUPPORTED_LANES`]: a block packs `64 * lanes`
    /// patterns.
    pub lanes: usize,
    /// Worker threads. 0 uses [`std::thread::available_parallelism`];
    /// with 1 the calling thread runs every chunk and nothing is spawned.
    pub threads: usize,
}

impl Default for SimOptions {
    /// [`configured_lanes`] and one thread.
    fn default() -> Self {
        SimOptions {
            lanes: configured_lanes(),
            threads: 1,
        }
    }
}

/// How a run distributed its work: the counters of the work-stealing
/// queue, returned by every `_with` entry point, recorded by the scaling
/// benches and asserted on by the work-stealing determinism test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Workers that ran (after clamping to the fault count), the calling
    /// thread included.
    pub workers: usize,
    /// Chunks the fault list was cut into.
    pub chunks: usize,
    /// Faults per chunk (the last chunk may be short).
    pub chunk_size: usize,
    /// Successful steal operations across all workers.
    pub steals: usize,
}

/// The one work-stealing driver behind every engine mode.
///
/// `out` holds one row of `stride` elements per item. The items are cut
/// into fixed chunks on a [`WorkQueue`]: nominally eight per worker so
/// there is slack to steal, capped at 64 items per chunk, floored at
/// one. Each worker builds its private state with `init` and runs `run`
/// on every chunk it claims, handing it the chunk's item range and its
/// own rows. `threads = 0` uses [`std::thread::available_parallelism`].
/// The calling thread is worker 0, so with one worker nothing is
/// spawned.
fn drive<T: Send, S>(
    out: &mut [T],
    stride: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, Range<usize>, &mut [T]) + Sync,
) -> StealStats {
    if out.is_empty() {
        return StealStats::default();
    }
    let n_items = out.len() / stride;
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    let workers = threads.min(n_items);
    let chunk = n_items.div_ceil(workers * 8).clamp(1, 64);
    let queue = WorkQueue::new(n_items, workers, chunk);
    // One lock per chunk's rows. Whoever claims a chunk writes the same
    // bytes to the same slice; the locks are uncontended (a chunk has one
    // owner) and exist to satisfy the borrow checker across workers.
    let slots: Vec<Mutex<&mut [T]>> = out.chunks_mut(chunk * stride).map(Mutex::new).collect();
    let work = |w: usize| {
        let mut state = init();
        while let Some(cid) = queue.pop(w) {
            let mut rows = slots[cid].lock().expect("chunk slot poisoned");
            run(&mut state, queue.item_range(cid), &mut rows);
        }
    };
    std::thread::scope(|s| {
        for w in 1..workers {
            let work = &work;
            s.spawn(move || work(w));
        }
        work(0);
    });
    StealStats {
        workers,
        chunks: queue.chunk_count(),
        chunk_size: chunk,
        steals: queue.steals(),
    }
}

/// Index of the first pattern `mask_of` reports a detection on, over
/// blocks of `block_size` patterns. With `drop_detected`, a fault's
/// remaining blocks are skipped after its first detection; without it,
/// every block is still evaluated (the honest baseline for the dropping
/// ablation), which does not change the result.
fn first_detection<const L: usize>(
    blocks: &[Block<L>],
    block_size: usize,
    drop_detected: bool,
    mut mask_of: impl FnMut(&Block<L>) -> PatternWords<L>,
) -> Option<usize> {
    let mut first: Option<usize> = None;
    for (bi, block) in blocks.iter().enumerate() {
        if first.is_some() && drop_detected {
            break;
        }
        let mask = mask_of(block);
        if mask.any() && first.is_none() {
            first = Some(bi * block_size + mask.trailing_zeros());
        }
    }
    first
}

/// Detect mode on the driver: the first detecting pattern of every fault.
pub(crate) fn detect_run<const L: usize, F: KernelFault>(
    graph: &SimGraph,
    faults: &[F],
    blocks: &[Block<L>],
    block_size: usize,
    n_patterns: usize,
    drop_detected: bool,
    threads: usize,
) -> (FaultSimReport, StealStats) {
    let mut firsts = vec![None; faults.len()];
    let stats = drive(
        &mut firsts,
        1,
        threads,
        || FaultSimScratch::for_graph(graph),
        |scratch, range, out| {
            for (first, &fault) in out.iter_mut().zip(&faults[range]) {
                *first = first_detection(blocks, block_size, drop_detected, |block| {
                    scratch.detect_block(graph, fault, block)
                });
            }
        },
    );
    (report_from(firsts, n_patterns), stats)
}

/// Capture mode on the driver: every fault's signature row, with no
/// dropping and no early exit.
pub(crate) fn capture_run<const L: usize, F: KernelFault>(
    graph: &SimGraph,
    po_signals: &[SignalId],
    faults: &[F],
    blocks: &[Block<L>],
    block_size: usize,
    n_patterns: usize,
    threads: usize,
) -> (SignatureMatrix, StealStats) {
    let mut sig = SignatureMatrix::zeroed(faults.len(), n_patterns, po_signals.len());
    let words_per_row = sig.words_per_row;
    let stats = drive(
        &mut sig.bits,
        words_per_row,
        threads,
        || FaultSimScratch::for_graph(graph),
        |scratch, range, rows| {
            for (row, &fault) in rows.chunks_mut(words_per_row).zip(&faults[range]) {
                for (bi, block) in blocks.iter().enumerate() {
                    let live = fault.live_mask(graph, block);
                    if live.is_zero() {
                        continue;
                    }
                    let mut sink = PoRow {
                        po_signals,
                        row: &mut *row,
                        first_pattern: bi * block_size,
                    };
                    event_pass(
                        graph,
                        fault.stuck_at(),
                        live,
                        &block.good,
                        scratch,
                        &mut sink,
                    );
                }
            }
        },
    );
    (sig, stats)
}

// ----------------------------------------------------------------------
// Stuck-at detect engines
// ----------------------------------------------------------------------

/// Wide bit-parallel fault simulation of a whole fault list, with
/// optional fault dropping (a dropped fault is not re-simulated in later
/// blocks): [`simulate_faults_with`] on a [`SimGraph`] built for this
/// call, at [`SimOptions::default`].
#[must_use]
pub fn simulate_faults(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    drop_detected: bool,
) -> FaultSimReport {
    let graph = SimGraph::build(circuit);
    simulate_faults_with(
        circuit,
        &graph,
        faults,
        patterns,
        drop_detected,
        SimOptions::default(),
    )
    .0
}

/// The detect mode: for every fault, the first pattern that detects it,
/// on the event-driven kernel over `graph` and the work-stealing driver,
/// laid out by `options`. Also returns the driver's [`StealStats`].
///
/// `graph` must have been built from `circuit` (checked by debug
/// assertion); callers that cache it, like the `sinw-server` registry,
/// skip the per-call build. The report is bit-identical for every lane
/// width and thread count.
///
/// # Panics
///
/// Panics if `options.lanes` is not one of [`SUPPORTED_LANES`].
#[must_use]
pub fn simulate_faults_with(
    circuit: &Circuit,
    graph: &SimGraph,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    drop_detected: bool,
    options: SimOptions,
) -> (FaultSimReport, StealStats) {
    debug_assert_eq!(graph.signal_count(), circuit.signal_count());
    debug_assert_eq!(graph.gate_count(), circuit.gates().len());
    dispatch_lanes!(
        options.lanes,
        detect_patterns(
            circuit,
            graph,
            faults,
            patterns,
            drop_detected,
            options.threads,
            false
        )
    )
}

/// Serial (one pattern per block) fault simulation on one thread — the
/// ablation baseline for bit-parallelism; the kernel and driver are those
/// of [`simulate_faults_with`].
#[must_use]
pub fn simulate_faults_serial(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    drop_detected: bool,
) -> FaultSimReport {
    let graph = SimGraph::build(circuit);
    detect_patterns::<1>(circuit, &graph, faults, patterns, drop_detected, 1, true).0
}

fn detect_patterns<const L: usize>(
    circuit: &Circuit,
    graph: &SimGraph,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    drop_detected: bool,
    threads: usize,
    one_per_block: bool,
) -> (FaultSimReport, StealStats) {
    let block_size = block_size::<L>(one_per_block);
    let blocks = prepare::<L>(circuit, patterns, block_size);
    detect_run(
        graph,
        faults,
        &blocks,
        block_size,
        patterns.len(),
        drop_detected,
        threads,
    )
}

/// 64-way bit-parallel fault simulation on the **full-pass** inner loop:
/// every gate in the circuit is re-evaluated for every fault × block,
/// with no event scheduling, on one thread.
///
/// This is the ablation baseline of `cargo bench --bench ppsfp_scaling`;
/// it reports bit-identically to [`simulate_faults`].
#[must_use]
pub fn simulate_faults_full_pass(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    drop_detected: bool,
) -> FaultSimReport {
    let blocks = prepare::<1>(circuit, patterns, 64);
    let mut scratch = vec![PatternWords::<1>::ZERO; circuit.signal_count()];
    let firsts = faults
        .iter()
        .map(|&fault| {
            first_detection(&blocks, 64, drop_detected, |block| {
                full_pass_detect_mask(circuit, fault, &block.patterns, &block.good, &mut scratch)
            })
        })
        .collect();
    report_from(firsts, patterns.len())
}

/// The deterministic stream generator behind [`seeded_patterns`] and the
/// `tpg` campaign's pattern/fill stream — one implementation so the
/// "same seed ⇒ same report" contract cannot silently fork.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Deterministic random-pattern source (SplitMix64): `count` fully
/// specified patterns over `n_pi` inputs, reproducible from `seed`.
/// Shared by the experiment drivers, the benches and the test suites so
/// reported coverage numbers are stable run-to-run.
#[must_use]
pub fn seeded_patterns(n_pi: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| (0..n_pi).map(|_| rng.next_bool()).collect())
        .collect()
}

/// Reverse-order test compaction: keep only the patterns that still detect
/// a new fault when replayed in reverse with fault dropping. Runs on the
/// event-driven kernel with one shared scratch, so a replay costs
/// O(disturbed region) per live fault.
#[must_use]
pub fn compact_reverse(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
) -> Vec<Vec<bool>> {
    let graph = SimGraph::build(circuit);
    let mut scratch: FaultSimScratch = FaultSimScratch::for_graph(&graph);
    let mut good = vec![PatternWords::<1>::ZERO; circuit.signal_count()];
    let mut kept: Vec<Vec<bool>> = Vec::new();
    let mut remaining: Vec<StuckAtFault> = faults.to_vec();
    for p in patterns.iter().rev() {
        if remaining.is_empty() {
            break;
        }
        let block: PatternBlock = PatternBlock::pack(circuit, std::slice::from_ref(p));
        good_sim_into(circuit, &block, &mut good);
        let before = remaining.len();
        remaining.retain(|f| scratch.detect(&graph, *f, block.mask(), &good).is_zero());
        if remaining.len() < before {
            kept.push(p.clone());
        }
    }
    kept.reverse();
    kept
}

// ----------------------------------------------------------------------
// Signature capture
// ----------------------------------------------------------------------

/// The full per-fault × per-pattern × per-PO response signature of a fault
/// list against a pattern set — the raw material of the circuit-level
/// fault dictionary ([`crate::diagnose`]).
///
/// Row `f` is a bit vector over `(pattern, output)` pairs: bit
/// `pattern * outputs + output` is set when the pattern's faulty response
/// under fault `f` differs from the good machine at that primary output.
/// Rows are produced by the same event-driven kernel as the detect-mask
/// engines, but with **no fault dropping and no saturation short-circuit**
/// — every pattern is simulated against every fault, because diagnosis
/// needs the pass/fail outcome of *all* (pattern, output) probes, not
/// just the first detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureMatrix {
    /// Number of faults (rows).
    n_faults: usize,
    /// Number of patterns.
    n_patterns: usize,
    /// Number of primary outputs.
    n_outputs: usize,
    /// Words per row: `ceil(n_patterns * n_outputs / 64)`.
    words_per_row: usize,
    /// Row-major packed bits, `n_faults * words_per_row` words.
    bits: Vec<u64>,
}

impl SignatureMatrix {
    fn zeroed(n_faults: usize, n_patterns: usize, n_outputs: usize) -> Self {
        let words_per_row = (n_patterns * n_outputs).div_ceil(64);
        SignatureMatrix {
            n_faults,
            n_patterns,
            n_outputs,
            words_per_row,
            bits: vec![0u64; n_faults * words_per_row],
        }
    }

    /// Number of faults (rows).
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.n_faults
    }

    /// Number of patterns each row spans.
    #[must_use]
    pub fn pattern_count(&self) -> usize {
        self.n_patterns
    }

    /// Number of primary outputs each row spans.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.n_outputs
    }

    /// Packed words per row.
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// One fault's packed signature row.
    #[must_use]
    pub fn row(&self, fault: usize) -> &[u64] {
        &self.bits[fault * self.words_per_row..(fault + 1) * self.words_per_row]
    }

    /// Whether `pattern` produces a faulty value at `output` under `fault`.
    #[must_use]
    pub fn fails(&self, fault: usize, pattern: usize, output: usize) -> bool {
        assert!(pattern < self.n_patterns && output < self.n_outputs);
        let bit = pattern * self.n_outputs + output;
        self.row(fault)[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// Whether any (pattern, output) probe exposes the fault — the
    /// signature-side notion of "detected".
    #[must_use]
    pub fn is_detected(&self, fault: usize) -> bool {
        self.row(fault).iter().any(|w| *w != 0)
    }

    /// Index of the first pattern that exposes the fault at some output,
    /// or `None` for an all-pass row.
    #[must_use]
    pub fn first_failing_pattern(&self, fault: usize) -> Option<usize> {
        for (wi, w) in self.row(fault).iter().enumerate() {
            if *w != 0 {
                let bit = wi * 64 + w.trailing_zeros() as usize;
                return Some(bit / self.n_outputs);
            }
        }
        None
    }

    /// Total size of the packed matrix in bytes (the *uncompressed*
    /// per-fault baseline the dictionary's class merging is measured
    /// against).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// The raw row-major packed bits, `fault_count() * words_per_row()`
    /// words — the serialization view `sinw-server` snapshots read.
    #[must_use]
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuild a matrix from its raw parts (the inverse of [`bits`]):
    /// `bits` must hold exactly `n_faults * ceil(n_patterns * n_outputs /
    /// 64)` row-major words, with no stray bit above `n_patterns *
    /// n_outputs` in any row. Used by `.sinw` snapshot decoding and by
    /// the job engine to merge per-chunk capture results in deterministic
    /// chunk order.
    ///
    /// [`bits`]: SignatureMatrix::bits
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant when the word
    /// count does not match the geometry or a row sets bits past the
    /// `n_patterns * n_outputs` payload.
    pub fn from_raw_parts(
        n_faults: usize,
        n_patterns: usize,
        n_outputs: usize,
        bits: Vec<u64>,
    ) -> Result<Self, String> {
        let payload_bits = n_patterns
            .checked_mul(n_outputs)
            .ok_or_else(|| String::from("pattern x output bit count overflows"))?;
        let words_per_row = payload_bits.div_ceil(64);
        let expected = n_faults
            .checked_mul(words_per_row)
            .ok_or_else(|| String::from("fault x word count overflows"))?;
        if bits.len() != expected {
            return Err(format!(
                "signature matrix needs {expected} words ({n_faults} faults x \
                 {words_per_row} words/row), got {}",
                bits.len()
            ));
        }
        if words_per_row > 0 && payload_bits % 64 != 0 {
            let tail_mask = !0u64 << (payload_bits % 64);
            for fi in 0..n_faults {
                if bits[(fi + 1) * words_per_row - 1] & tail_mask != 0 {
                    return Err(format!(
                        "row {fi} sets bits past the {payload_bits}-bit payload"
                    ));
                }
            }
        }
        Ok(SignatureMatrix {
            n_faults,
            n_patterns,
            n_outputs,
            words_per_row,
            bits,
        })
    }
}

/// Signature capture: the full per-fault × per-pattern × per-PO response
/// matrix of `faults` against `patterns` — [`capture_signatures_with`]
/// on a [`SimGraph`] built for this call, at [`SimOptions::default`].
#[must_use]
pub fn capture_signatures(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
) -> SignatureMatrix {
    let graph = SimGraph::build(circuit);
    capture_signatures_with(circuit, &graph, faults, patterns, SimOptions::default()).0
}

/// The capture mode: every fault's signature row, on the event-driven
/// kernel over `graph` and the work-stealing driver, laid out by
/// `options`. Also returns the driver's [`StealStats`].
///
/// Unlike the detect mode there is deliberately **no fault dropping**
/// and no saturation exit — diagnosis needs every probe outcome. `graph`
/// must have been built from `circuit` (checked by debug assertion). The
/// matrix is bit-identical for every lane width and thread count.
///
/// # Panics
///
/// Panics if `options.lanes` is not one of [`SUPPORTED_LANES`].
#[must_use]
pub fn capture_signatures_with(
    circuit: &Circuit,
    graph: &SimGraph,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    options: SimOptions,
) -> (SignatureMatrix, StealStats) {
    debug_assert_eq!(graph.signal_count(), circuit.signal_count());
    debug_assert_eq!(graph.gate_count(), circuit.gates().len());
    dispatch_lanes!(
        options.lanes,
        capture_patterns(circuit, graph, faults, patterns, options.threads, false)
    )
}

/// [`capture_signatures`] one pattern per block on one thread — the
/// ablation baseline for bit-parallelism, reporting a bit-identical
/// matrix.
#[must_use]
pub fn capture_signatures_serial(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
) -> SignatureMatrix {
    let graph = SimGraph::build(circuit);
    capture_patterns::<1>(circuit, &graph, faults, patterns, 1, true).0
}

fn capture_patterns<const L: usize>(
    circuit: &Circuit,
    graph: &SimGraph,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    threads: usize,
    one_per_block: bool,
) -> (SignatureMatrix, StealStats) {
    let block_size = block_size::<L>(one_per_block);
    let blocks = prepare::<L>(circuit, patterns, block_size);
    capture_run(
        graph,
        circuit.primary_outputs(),
        faults,
        &blocks,
        block_size,
        patterns.len(),
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_list::enumerate_stuck_at;
    use rand::prelude::*;

    fn simulate_with(
        c: &Circuit,
        faults: &[StuckAtFault],
        patterns: &[Vec<bool>],
        drop_detected: bool,
        lanes: usize,
        threads: usize,
    ) -> (FaultSimReport, StealStats) {
        let graph = SimGraph::build(c);
        let options = SimOptions { lanes, threads };
        simulate_faults_with(c, &graph, faults, patterns, drop_detected, options)
    }

    fn capture_with(
        c: &Circuit,
        faults: &[StuckAtFault],
        patterns: &[Vec<bool>],
        lanes: usize,
        threads: usize,
    ) -> SignatureMatrix {
        let graph = SimGraph::build(c);
        capture_signatures_with(c, &graph, faults, patterns, SimOptions { lanes, threads }).0
    }

    fn random_patterns(n_pi: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| (0..n_pi).map(|_| rng.gen_bool(0.5)).collect())
            .collect()
    }

    #[test]
    fn exhaustive_patterns_reach_full_c17_coverage() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|bits| (0..5).map(|k| (bits >> k) & 1 == 1).collect())
            .collect();
        let report = simulate_faults(&c, &faults, &patterns, true);
        assert_eq!(report.coverage(), 1.0, "c17 is fully testable");
    }

    #[test]
    fn serial_parallel_and_threaded_agree() {
        let c = Circuit::ripple_adder(3);
        let faults = enumerate_stuck_at(&c);
        let patterns = random_patterns(c.primary_inputs().len(), 100, 42);
        let par = simulate_faults(&c, &faults, &patterns, false);
        let ser = simulate_faults_serial(&c, &faults, &patterns, false);
        let thr = simulate_with(&c, &faults, &patterns, false, 1, 4).0;
        assert_eq!(par, ser);
        assert_eq!(par, thr);
    }

    #[test]
    fn event_driven_engine_matches_the_full_pass_oracle() {
        for (c, n_patterns) in [
            (Circuit::c17(), 40),
            (Circuit::ripple_adder(4), 130),
            (Circuit::parity_tree(7), 64),
        ] {
            let faults = enumerate_stuck_at(&c);
            let patterns = random_patterns(c.primary_inputs().len(), n_patterns, 17);
            let oracle = crate::oracle::stuck_at_oracle(&c, &faults, &patterns);
            for drop_detected in [false, true] {
                let full = simulate_faults_full_pass(&c, &faults, &patterns, drop_detected);
                let event = simulate_faults(&c, &faults, &patterns, drop_detected);
                assert_eq!(full, event, "drop = {drop_detected}");
                assert_eq!(oracle, event, "drop = {drop_detected}");
            }
        }
    }

    #[test]
    fn events_die_in_unobserved_cones() {
        // kept = NAND(a, b) is the only PO; an INV chain hangs off it
        // unobserved, so faults there must report undetected (and the
        // kernel proves it without simulating anything).
        use sinw_switch::cells::CellKind;
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let b = c.add_input("b");
        let kept = c.add_gate(CellKind::Nand2, "kept", &[a, b]);
        let dead = c.add_gate(CellKind::Inv, "dead", &[kept]);
        let _dead2 = c.add_gate(CellKind::Inv, "dead2", &[dead]);
        c.mark_output(kept);
        let faults = enumerate_stuck_at(&c);
        let patterns: Vec<Vec<bool>> = (0..4u32)
            .map(|bits| (0..2).map(|k| (bits >> k) & 1 == 1).collect())
            .collect();
        let full = simulate_faults_full_pass(&c, &faults, &patterns, false);
        let event = simulate_faults(&c, &faults, &patterns, false);
        assert_eq!(full, event);
        let dead_sa0 = faults
            .iter()
            .position(|f| f.site == FaultSite::Signal(dead) && !f.value)
            .expect("dead s-a-0 enumerated");
        assert!(event.undetected.contains(&dead_sa0));
    }

    #[test]
    fn threaded_engine_handles_edge_worker_counts() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let patterns = random_patterns(5, 16, 9);
        let reference = simulate_faults(&c, &faults, &patterns, true);
        // More workers than faults, exactly one worker, and auto-detect.
        for threads in [1usize, 3, faults.len() + 10, 0] {
            let (r, stats) = simulate_with(&c, &faults, &patterns, true, 1, threads);
            assert_eq!(r, reference, "threads = {threads}");
            assert!(stats.workers >= 1 && stats.workers <= faults.len());
        }
        // Empty fault list: nothing to deal out.
        let (empty, stats) = simulate_with(&c, &[], &patterns, true, 1, 4);
        assert_eq!(stats, StealStats::default());
        assert!(empty.detected.is_empty() && empty.undetected.is_empty());
        assert_eq!(empty.coverage(), 1.0);
    }

    #[test]
    fn fault_dropping_does_not_change_coverage() {
        let c = Circuit::parity_tree(6);
        let faults = enumerate_stuck_at(&c);
        let patterns = random_patterns(c.primary_inputs().len(), 64, 7);
        let with_drop = simulate_faults(&c, &faults, &patterns, true);
        let without = simulate_faults(&c, &faults, &patterns, false);
        assert_eq!(with_drop.detected.len(), without.detected.len());
        assert_eq!(with_drop.first_detections, without.first_detections);
    }

    #[test]
    fn compaction_preserves_coverage() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let patterns = random_patterns(5, 40, 3);
        let full = simulate_faults(&c, &faults, &patterns, true);
        let compacted = compact_reverse(&c, &faults, &patterns);
        let after = simulate_faults(&c, &faults, &compacted, true);
        assert_eq!(full.detected.len(), after.detected.len());
        assert!(compacted.len() <= patterns.len());
    }

    #[test]
    fn detect_mask_is_per_pattern_exact() {
        // INV chain: a s-a-0 detected exactly by patterns with a=1.
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let o = c.add_gate(CellKind::Inv, "g", &[a]);
        c.mark_output(o);
        let fault = StuckAtFault::sa0(FaultSite::Signal(a));
        let block: PatternBlock = PatternBlock::pack(&c, &[vec![false], vec![true], vec![true]]);
        assert_eq!(detect_mask(&c, fault, &block), 0b110u64);
    }

    #[test]
    fn detect_mask_in_reuses_buffers_across_circuits() {
        // One scratch serves circuits of different sizes, growing once and
        // agreeing with the allocating wrapper everywhere.
        let mut scratch: FaultSimScratch = FaultSimScratch::new();
        for c in [Circuit::c17(), Circuit::full_adder(), Circuit::c17()] {
            let n_pi = c.primary_inputs().len();
            let patterns: Vec<Vec<bool>> = (0..(1u32 << n_pi))
                .map(|bits| (0..n_pi).map(|k| (bits >> k) & 1 == 1).collect())
                .collect();
            let block: PatternBlock = PatternBlock::pack(&c, &patterns);
            for fault in enumerate_stuck_at(&c) {
                assert_eq!(
                    detect_mask_in(&c, fault, &block, &mut scratch),
                    detect_mask(&c, fault, &block),
                    "{}",
                    fault.describe(&c)
                );
            }
        }
    }

    #[test]
    fn signature_capture_matches_per_bit_full_pass_responses() {
        // Every bit of the signature matrix cross-checked against the
        // whole-circuit reference simulators, one pattern at a time.
        for c in [Circuit::c17(), Circuit::full_adder()] {
            let faults = enumerate_stuck_at(&c);
            let n_pi = c.primary_inputs().len();
            let patterns = random_patterns(n_pi, 70, 5);
            let sig = capture_signatures(&c, &faults, &patterns);
            assert_eq!(sig, capture_signatures_serial(&c, &faults, &patterns));
            assert_eq!(sig, capture_with(&c, &faults, &patterns, 1, 3));
            for (p, pattern) in patterns.iter().enumerate() {
                let block: PatternBlock = PatternBlock::pack(&c, std::slice::from_ref(pattern));
                let good = good_sim(&c, &block);
                for (fi, &fault) in faults.iter().enumerate() {
                    let faulty = faulty_sim(&c, fault, &block);
                    for (o, po) in c.primary_outputs().iter().enumerate() {
                        assert_eq!(
                            sig.fails(fi, p, o),
                            (good[po.0] ^ faulty[po.0]).get_bit(0),
                            "{} at pattern {p}, PO {o}",
                            fault.describe(&c)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn signature_detection_agrees_with_the_detect_mask_engines() {
        let c = Circuit::ripple_adder(3);
        let faults = enumerate_stuck_at(&c);
        let patterns = random_patterns(c.primary_inputs().len(), 100, 42);
        let sig = capture_signatures(&c, &faults, &patterns);
        let report = simulate_faults(&c, &faults, &patterns, false);
        for (fi, fault) in faults.iter().enumerate() {
            assert_eq!(
                sig.is_detected(fi),
                report.detected.contains(&fi),
                "{}",
                fault.describe(&c)
            );
        }
        // First-failing patterns reproduce the first-detection profile.
        let mut firsts = vec![0usize; patterns.len()];
        for fi in 0..faults.len() {
            if let Some(p) = sig.first_failing_pattern(fi) {
                firsts[p] += 1;
            }
        }
        assert_eq!(firsts, report.first_detections);
    }

    #[test]
    fn signature_capture_handles_degenerate_inputs() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        // Empty pattern set: zero-width rows, nothing detected.
        let sig = capture_signatures(&c, &faults, &[]);
        assert_eq!(sig.fault_count(), faults.len());
        assert_eq!(sig.pattern_count(), 0);
        assert_eq!(sig.words_per_row(), 0);
        assert_eq!(sig.bytes(), 0);
        assert!(!sig.is_detected(0));
        assert_eq!(sig.first_failing_pattern(0), None);
        // Empty fault list.
        let patterns = random_patterns(5, 8, 1);
        let empty = capture_with(&c, &[], &patterns, 1, 4);
        assert_eq!(empty.fault_count(), 0);
        // Edge worker counts agree with the single-threaded engine.
        let reference = capture_signatures(&c, &faults, &patterns);
        for threads in [1usize, 3, faults.len() + 10, 0] {
            assert_eq!(
                capture_with(&c, &faults, &patterns, 1, threads),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn try_pack_reports_each_violation() {
        let c = Circuit::c17();
        assert_eq!(
            PatternBlock::<1>::try_pack(&c, &[]).unwrap_err(),
            PackError::Empty
        );
        let too_many = vec![vec![false; 5]; 65];
        assert_eq!(
            PatternBlock::<1>::try_pack(&c, &too_many).unwrap_err(),
            PackError::TooManyPatterns {
                got: 65,
                capacity: 64
            }
        );
        // The same 65 patterns fit a two-lane block.
        let wide = PatternBlock::<2>::try_pack(&c, &too_many).expect("fits 128-bit capacity");
        assert_eq!(wide.count, 65);
        assert_eq!(wide.mask(), PatternWords::<2>::valid_mask(65));
        let bad_arity = vec![vec![false; 5], vec![true; 4]];
        assert_eq!(
            PatternBlock::<1>::try_pack(&c, &bad_arity).unwrap_err(),
            PackError::ArityMismatch {
                pattern: 1,
                got: 4,
                expected: 5
            }
        );
        let ok = PatternBlock::<1>::try_pack(&c, &[vec![true; 5]]).expect("valid block packs");
        assert_eq!(ok.count, 1);
        assert_eq!(ok.mask(), 1u64);
    }

    #[test]
    fn all_engines_agree_across_lane_widths() {
        let c = Circuit::ripple_adder(3);
        let faults = enumerate_stuck_at(&c);
        let patterns = random_patterns(c.primary_inputs().len(), 200, 11);
        let reference = simulate_with(&c, &faults, &patterns, true, 1, 1).0;
        let ref_sig = capture_with(&c, &faults, &patterns, 1, 1);
        for lanes in SUPPORTED_LANES {
            for threads in [1, 3] {
                assert_eq!(
                    simulate_with(&c, &faults, &patterns, true, lanes, threads).0,
                    reference,
                    "detect at L = {lanes}, T = {threads}"
                );
                assert_eq!(
                    capture_with(&c, &faults, &patterns, lanes, threads),
                    ref_sig,
                    "capture at L = {lanes}, T = {threads}"
                );
            }
        }
    }

    #[test]
    fn work_stealing_matches_the_calling_thread_drain() {
        let c = Circuit::parity_tree(9);
        let faults = enumerate_stuck_at(&c);
        let patterns = random_patterns(c.primary_inputs().len(), 96, 23);
        for drop_detected in [false, true] {
            let (alone, one) = simulate_with(&c, &faults, &patterns, drop_detected, 1, 1);
            let (steal, four) = simulate_with(&c, &faults, &patterns, drop_detected, 1, 4);
            assert_eq!(alone, steal, "drop = {drop_detected}");
            assert_eq!((one.workers, one.steals), (1, 0));
            assert_eq!(four.workers, 4);
            assert!(four.chunks > one.chunks, "more workers, finer chunks");
        }
    }

    #[test]
    fn a_saturating_pass_leaves_the_worklist_empty() {
        // `a` feeds an inverter chain and a PO inverter, chain first: a
        // fault on `a` queues the chain's second gate before the PO
        // inverter saturates a one-pattern block. The next pass must
        // start from empty buckets.
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let h1 = c.add_gate(CellKind::Inv, "h1", &[a]);
        let g1 = c.add_gate(CellKind::Inv, "g1", &[a]);
        let h2 = c.add_gate(CellKind::Inv, "h2", &[h1]);
        let h3 = c.add_gate(CellKind::Inv, "h3", &[h2]);
        c.mark_output(g1);
        c.mark_output(h3);
        let graph = SimGraph::build(&c);
        let mut scratch: FaultSimScratch = FaultSimScratch::for_graph(&graph);
        let mut saturated = 0;
        for pattern in [vec![true], vec![false]] {
            let block: PatternBlock = PatternBlock::pack(&c, &[pattern]);
            let good = good_sim(&c, &block);
            for fault in enumerate_stuck_at(&c) {
                let mask = scratch.detect(&graph, fault, block.mask(), &good);
                assert_eq!(
                    mask,
                    detect_mask(&c, fault, &block),
                    "{}",
                    fault.describe(&c)
                );
                saturated += usize::from(mask.any());
                assert!(
                    scratch.buckets.iter().all(Vec::is_empty),
                    "{} left queued gates behind",
                    fault.describe(&c)
                );
            }
        }
        assert!(saturated > 0, "every fault here is detectable");
    }
}
