//! PPSFP engine scaling **curve** on generated array-multiplier fault
//! universes: width × lanes × threads, not a single point.
//!
//! Per width the ladder covers the serial baseline (small widths only),
//! the **full-pass vs event-driven** kernel ablation (the whole-circuit
//! reference inner loop against the fanout-cone-restricted worklist
//! kernel), the event kernel on one thread at every measured lane width
//! (`PatternWords<L>`, 64·L patterns per block), and the work-stealing
//! driver at every lane × thread combination. Every event row builds its
//! `SimGraph` inside the timed call, as the plain `simulate_faults`
//! does. Every row is asserted bit-identical to the first engine that
//! ran, so the bench doubles as an integration test of the lane/deque
//! machinery at real workload sizes.
//!
//! Knobs (environment variables):
//!
//! * `SINW_PPSFP_WIDTHS` — comma-separated multiplier operand widths
//!   (default `16,32,64` measuring — 64 is the c6288-class fixture —
//!   and `4` for smoke runs);
//! * `SINW_PPSFP_PATTERNS` — pattern count (default 96 measuring,
//!   16 smoke);
//! * `SINW_PPSFP_THREADS` — worker count for the threaded rows
//!   (default 0 = `std::thread::available_parallelism`);
//! * `SINW_LANES` — extra lane width folded into the measured set (the
//!   engine-default knob, also read by the library dispatch);
//! * `SINW_BENCH_JSON` — where to write the machine-readable perf
//!   trajectory (default `BENCH_ppsfp.json` in the working directory).
//!
//! The run writes `BENCH_ppsfp.json` with the full curve (one row per
//! width × engine × lanes × threads, wall-time ms and steal counts).
//! The serial baseline only runs at widths ≤ 16 and the full-pass
//! baseline at widths ≤ 32 — both are orders of magnitude off the event
//! kernel and would dominate the wall clock at c6288-class sizes. The
//! ≥5× event-vs-full-pass assertion arms at measuring widths ≥ 32.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sinw_atpg::collapse::collapse;
use sinw_atpg::fault_list::enumerate_stuck_at;
use sinw_atpg::fault_list::StuckAtFault;
use sinw_atpg::faultsim::{
    configured_lanes, seeded_patterns, simulate_faults_full_pass, simulate_faults_serial,
    simulate_faults_with, FaultSimReport, SimOptions, StealStats, SUPPORTED_LANES,
};
use sinw_atpg::graph::SimGraph;
use sinw_bench::{env_usize, env_usize_list, write_bench_json};
use sinw_switch::gate::Circuit;
use sinw_switch::generate::array_multiplier;
use std::time::{Duration, Instant};

/// One measured point of the curve.
struct Row {
    engine: &'static str,
    lanes: usize,
    threads: usize,
    wall: Duration,
    steals: Option<usize>,
}

impl Row {
    fn json(&self) -> String {
        let steals = self.steals.map_or(String::from("null"), |s| s.to_string());
        format!(
            "      {{\"engine\": \"{}\", \"lanes\": {}, \"threads\": {}, \
             \"wall_ms\": {:.3}, \"steals\": {}}}",
            self.engine,
            self.lanes,
            self.threads,
            self.wall.as_secs_f64() * 1e3,
            steals
        )
    }
}

/// Best-of-3 wall clock (damps scheduler noise so the in-bench
/// assertions cannot flake on a descheduled smoke run).
fn timed<R>(f: &dyn Fn() -> R) -> (R, Duration) {
    let mut best = Duration::MAX;
    let mut result = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed());
        result = Some(r);
    }
    (result.expect("three runs"), best)
}

/// The detect mode without dropping, graph build included.
fn event(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    lanes: usize,
    threads: usize,
) -> (FaultSimReport, StealStats) {
    let graph = SimGraph::build(circuit);
    let options = SimOptions { lanes, threads };
    simulate_faults_with(circuit, &graph, faults, patterns, false, options)
}

fn speedup(base: Duration, new: Duration) -> f64 {
    base.as_secs_f64() / new.as_secs_f64().max(1e-12)
}

fn bench(c: &mut Criterion) {
    let measuring = std::env::args().any(|a| a == "--bench");
    let widths = env_usize_list(
        "SINW_PPSFP_WIDTHS",
        if measuring { &[16, 32, 64] } else { &[4] },
    );
    let n_patterns = env_usize("SINW_PPSFP_PATTERNS", if measuring { 96 } else { 16 });
    let threads = env_usize("SINW_PPSFP_THREADS", 0);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let eff_threads = if threads == 0 { cores } else { threads };

    // Lane widths to measure: 1 and 4 always, plus
    // whatever SINW_LANES asks for; the full {1,2,4,8} sweep when
    // measuring.
    let mut lane_set: Vec<usize> = if measuring {
        SUPPORTED_LANES.to_vec()
    } else {
        vec![1, 4]
    };
    let configured = configured_lanes();
    if !lane_set.contains(&configured) {
        lane_set.push(configured);
        lane_set.sort_unstable();
    }
    // Thread counts: single worker and the configured/auto count.
    let mut thread_set = vec![1usize];
    if eff_threads > 1 {
        thread_set.push(eff_threads);
    }

    println!(
        "\nPPSFP scaling curve: widths {widths:?}, lanes {lane_set:?}, \
         threads {thread_set:?}, {n_patterns} patterns, {cores} hw threads"
    );

    let mut curve_blocks: Vec<String> = Vec::new();

    for &width in &widths {
        let circuit = array_multiplier(width);
        let faults = enumerate_stuck_at(&circuit);
        let collapsed = collapse(&circuit, &faults);
        let reps = &collapsed.representatives;
        let patterns = seeded_patterns(
            circuit.primary_inputs().len(),
            n_patterns,
            0x9E37_79B9_97F4_A7C1,
        );
        println!(
            "  mul{width}: {} cells, {} faults ({} collapsed)",
            circuit.gates().len(),
            faults.len(),
            reps.len()
        );

        let mut rows: Vec<Row> = Vec::new();
        let mut reference: Option<FaultSimReport> = None;
        let mut check = |name: &str, report: FaultSimReport| match &reference {
            None => reference = Some(report),
            Some(r) => assert_eq!(r, &report, "{name} diverges at width {width}"),
        };

        // Serial + full-pass baselines, gated by width (both are far off
        // the event kernel and would dominate at c6288-class sizes).
        let mut t_full: Option<Duration> = None;
        if width <= 16 {
            let (ser, t) = timed(&|| simulate_faults_serial(&circuit, reps, &patterns, false));
            println!("    serial          {:>10.1} ms", t.as_secs_f64() * 1e3);
            check("serial", ser);
            rows.push(Row {
                engine: "serial",
                lanes: 1,
                threads: 1,
                wall: t,
                steals: None,
            });
        }
        if width <= 32 {
            let (full, t) = timed(&|| simulate_faults_full_pass(&circuit, reps, &patterns, false));
            println!("    full_pass64     {:>10.1} ms", t.as_secs_f64() * 1e3);
            check("full_pass64", full);
            rows.push(Row {
                engine: "full_pass",
                lanes: 1,
                threads: 1,
                wall: t,
                steals: None,
            });
            t_full = Some(t);
        }

        // Event kernel across lane widths.
        let mut t_event1: Option<Duration> = None;
        for &lanes in &lane_set {
            let ((r, _), t) = timed(&|| event(&circuit, reps, &patterns, lanes, 1));
            println!(
                "    event  L={lanes}      {:>10.1} ms",
                t.as_secs_f64() * 1e3
            );
            check("event", r);
            rows.push(Row {
                engine: "event",
                lanes,
                threads: 1,
                wall: t,
                steals: None,
            });
            if lanes == 1 {
                t_event1 = Some(t);
            }
        }
        if let (Some(tf), Some(te)) = (t_full, t_event1) {
            let event_speedup = speedup(tf, te);
            println!("    event64 is {event_speedup:.1}x the full-pass inner loop");
            if measuring && width >= 32 {
                assert!(
                    event_speedup >= 5.0,
                    "event-driven kernel must be >= 5x the full-pass baseline at \
                     measuring widths, got {event_speedup:.2}x"
                );
            }
        }

        // Work stealing across lanes × threads (one thread is the event
        // row above).
        for &t_count in thread_set.iter().filter(|&&t| t > 1) {
            for &lanes in &lane_set {
                let ((r, stats), t) = timed(&|| event(&circuit, reps, &patterns, lanes, t_count));
                println!(
                    "    steal  L={lanes} T={t_count}  {:>10.1} ms   ({} steals)",
                    t.as_secs_f64() * 1e3,
                    stats.steals
                );
                check("threaded_steal", r);
                rows.push(Row {
                    engine: "threaded_steal",
                    lanes,
                    threads: t_count,
                    wall: t,
                    steals: Some(stats.steals),
                });
            }
        }

        let row_json: Vec<String> = rows.iter().map(Row::json).collect();
        curve_blocks.push(format!(
            "    {{\"circuit\": \"mul{width}\", \"width\": {width}, \"cells\": {}, \
             \"universe\": {}, \"collapsed\": {}, \"patterns\": {}, \"rows\": [\n{}\n    ]}}",
            circuit.gates().len(),
            faults.len(),
            reps.len(),
            patterns.len(),
            row_json.join(",\n")
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"ppsfp_scaling\",\n  \"hw_threads\": {cores},\n  \
         \"lanes\": {lane_set:?},\n  \"thread_counts\": {thread_set:?},\n  \
         \"curve\": [\n{}\n  ]\n}}\n",
        curve_blocks.join(",\n")
    );
    write_bench_json("BENCH_ppsfp.json", &json);

    // Criterion statistics on the smallest width of the sweep.
    let width = widths.iter().copied().min().unwrap_or(4);
    let circuit = array_multiplier(width);
    let faults = enumerate_stuck_at(&circuit);
    let collapsed = collapse(&circuit, &faults);
    let reps = collapsed.representatives;
    let patterns = seeded_patterns(
        circuit.primary_inputs().len(),
        n_patterns,
        0x9E37_79B9_97F4_A7C1,
    );
    c.bench_function("ppsfp/event_l1", |b| {
        b.iter(|| black_box(event(&circuit, &reps, &patterns, 1, 1)));
    });
    c.bench_function("ppsfp/event_l4", |b| {
        b.iter(|| black_box(event(&circuit, &reps, &patterns, 4, 1)));
    });
    c.bench_function("ppsfp/threaded_steal_l4", |b| {
        b.iter(|| black_box(event(&circuit, &reps, &patterns, 4, threads)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
