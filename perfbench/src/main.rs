//! The repository benchmark: runs one workload through the library's
//! public API, checks its outputs, and prints its metrics as one JSON
//! line. `python3 perfbench/run.py` builds this program and runs it; see
//! `perfbench/README.md` for the workloads and the metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```

mod c6288_service;
mod csa_transition;
mod harness;
mod paper_cells;
mod trace;

use harness::{median, percentile, same_work, Measured, Pass, Workload, PASS, PROBE_RUN, UNTIMED};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use trace::Recorder;

pub const WORKLOADS: [&str; 3] = ["paper_cells", "c6288_service", "csa_transition"];

/// The manifest, built in: the result line holds every metric it declares,
/// with the unit it gives.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// A metric of the result line: name, value, unit.
type Metric = (String, f64, &'static str);

/// Names and units of the metrics the manifest declares in `section`, in
/// its order.
fn declared(section: &str) -> Vec<(&'static str, &'static str)> {
    let start = MANIFEST
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} section"));
    let body = &MANIFEST[start..];
    let mut body = &body[..body.find(']').expect("a metric section is a list")];
    let value_of = |s: &'static str, key: &str| -> Option<(&'static str, usize)> {
        let tag = format!("\"{key}\": \"");
        let from = s.find(&tag)? + tag.len();
        let len = s[from..].find('"')?;
        Some((&s[from..from + len], from + len))
    };
    let mut out = Vec::new();
    while let Some((name, end)) = value_of(body, "name") {
        let (unit, next) = value_of(&body[end..], "unit").expect("every metric has a unit");
        out.push((name, unit));
        body = &body[end + next..];
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    /// Smoke-size workloads, for the tests.
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        smoke: false,
    })
}

/// Library knobs that would change what is measured.
fn knobs_set() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SINW_"))
        .collect()
}

/// Peak resident memory of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What one workload run reports.
struct Report {
    metrics: Vec<Metric>,
    /// Workload-specific values, printed above the result line.
    details: Vec<(String, f64)>,
    /// Per-layer metrics of layers the workload does not call: they read 0.
    untouched: Vec<String>,
    attempted: u64,
    failed: u64,
    digest: u64,
    counts: BTreeMap<&'static str, u64>,
    /// `wall_s` of every untraced pass, in order.
    walls_s: Vec<f64>,
    spans: Option<Recorder>,
}

/// The end-to-end metrics: those that every workload has, medians over
/// the passes.
fn end_to_end(m: &Measured) -> Result<Vec<Metric>, String> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&m.passes.iter().map(f).collect::<Vec<_>>());
    let mut out = Vec::new();
    for (name, unit) in declared("end_to_end") {
        let value = match name {
            "setup_s" => per_pass(&|p| p.setup_s),
            "wall_s" => per_pass(&|p| p.wall_s),
            "work_s" => per_pass(&|p| p.work_s),
            "peak_rss_mb" => m.peak_rss_mb,
            _ => {
                return Err(format!(
                    "end-to-end metric {name} is declared but not measured"
                ))
            }
        };
        out.push((name.to_string(), value, unit));
    }
    Ok(out)
}

/// The workload's own values, medians over the passes, and the query
/// latency percentiles over every query of every pass.
fn details(m: &Measured) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = m.passes[0]
        .details
        .keys()
        .map(|&name| {
            let values: Vec<f64> = m.passes.iter().map(|p| p.details[name]).collect();
            (name.to_string(), median(&values))
        })
        .collect();
    let latencies: Vec<f64> = m
        .passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    if !latencies.is_empty() {
        out.push(("query_p50_ms".to_string(), percentile(&latencies, 50.0)));
        out.push(("query_p95_ms".to_string(), percentile(&latencies, 95.0)));
        out.push(("queries".to_string(), latencies.len() as f64));
    }
    out
}

fn add(values: &mut BTreeMap<String, f64>, name: String, value: f64) -> Result<(), String> {
    match values.insert(name.clone(), value) {
        None => Ok(()),
        Some(_) => Err(format!("per-layer metric {name} has two sources")),
    }
}

/// Per-layer metrics, named after their source: `<span>_s` for the self
/// time of every span name of a pass or of the probe, and the pass's work
/// counts and library-reported values under their own names. A layer the
/// workload does not call has no span and no count.
fn per_layer(
    untraced: &Measured,
    traced: &Measured,
    rec: &Recorder,
) -> Result<BTreeMap<String, f64>, String> {
    let runs = traced.passes.len();
    let by_run: Vec<BTreeMap<&str, f64>> = (0..runs).map(|r| rec.self_seconds_by_name(r)).collect();
    let over_passes = |f: &dyn Fn(usize) -> f64| median(&(0..runs).map(f).collect::<Vec<_>>());
    let first = &traced.passes[0];
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for &span in by_run[0].keys() {
        add(
            &mut values,
            format!("{span}_s"),
            over_passes(&|r| by_run[r].get(span).copied().unwrap_or(0.0)),
        )?;
    }
    for (span, s) in rec.self_seconds_by_name(PROBE_RUN) {
        add(&mut values, format!("{span}_s"), s)?;
    }
    for &name in first.layer.keys() {
        add(
            &mut values,
            name.to_string(),
            over_passes(&|r| traced.passes[r].layer[name]),
        )?;
    }
    for (&name, &c) in &first.counts {
        add(&mut values, name.to_string(), c as f64)?;
    }

    // Derived metrics.
    let get = |name: &str| values.get(name).copied();
    let wall = |m: &Measured| median(&m.passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let mut derived = vec![("trace.overhead_s", wall(traced) - wall(untraced))];
    if let (Some(s), Some(n)) = (get("device.table.build_s"), get("device.table.samples")) {
        derived.push(("device.table.us_per_sample", s * 1e6 / n));
    }
    if let (Some(kept), Some(applied)) = (
        get("atpg.tpg.random_patterns_kept"),
        get("atpg.tpg.random_patterns_applied"),
    ) {
        derived.push(("atpg.tpg.random_keep_ratio", kept / applied));
    }
    // Self-time coverage: the share of each traced pass's wall time that
    // the layer spans (everything but the pass root's own time) account for.
    let coverage: Vec<f64> = (0..runs)
        .map(|r| {
            let own = &by_run[r];
            let root = rec
                .root_seconds(r, PASS)
                .expect("every pass has a root span");
            let untimed = own.get(UNTIMED).copied().unwrap_or(0.0);
            let glue = own.get(PASS).copied().unwrap_or(0.0);
            100.0 * (1.0 - glue / (root - untimed))
        })
        .collect();
    derived.push(("trace.self_time_coverage_pct", median(&coverage)));
    for (name, value) in derived {
        add(&mut values, name.to_string(), value)?;
    }
    Ok(values)
}

fn execute<W: Workload>(w: &W, args: &Args) -> Result<Report, String> {
    let untraced = harness::measure(w, args.seconds, &mut Recorder::new(false), true)?;
    // Every pass repeats the first one's work, so the operations of one
    // pass are reported: a count that the number of passes, and with it
    // the program's speed, would change says nothing of its failures.
    let mut report = Report {
        metrics: Vec::new(),
        details: details(&untraced),
        untouched: Vec::new(),
        attempted: untraced.passes[0].attempted,
        failed: untraced.passes[0].failed,
        digest: untraced.passes[0].digest,
        counts: untraced.passes[0].counts.clone(),
        walls_s: untraced.passes.iter().map(|p| p.wall_s).collect(),
        spans: None,
    };
    if args.trace {
        let mut rec = Recorder::new(true);
        let traced = harness::measure(w, args.seconds, &mut rec, false)?;
        same_work(&untraced.passes[0], &traced.passes[0])?;
        let measured = per_layer(&untraced, &traced, &rec)?;
        let declared = declared("per_layer");
        if let Some(name) = measured
            .keys()
            .find(|&n| !declared.iter().any(|&(d, _)| d == n))
        {
            return Err(format!(
                "per-layer metric {name} is not declared in BENCHMARK.json"
            ));
        }
        // The result line holds every declared metric: the ones of layers
        // this workload does not call read 0.
        for (name, unit) in declared {
            let value = measured.get(name).copied().unwrap_or_else(|| {
                report.untouched.push(name.to_string());
                0.0
            });
            report.metrics.push((name.to_string(), value, unit));
        }
        report.spans = Some(rec);
    } else {
        report.metrics = end_to_end(&untraced)?;
    }
    Ok(report)
}

fn run(args: &Args) -> Result<Report, String> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    match args.workload.as_str() {
        "paper_cells" => execute(&paper_cells::PaperCells { smoke: args.smoke }, args),
        "c6288_service" => execute(
            &c6288_service::C6288Service::new(args.seed, args.smoke, threads),
            args,
        ),
        "csa_transition" => execute(
            &csa_transition::CsaTransition::new(args.seed, args.smoke),
            args,
        ),
        other => Err(format!("unknown workload {other}")),
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("String write");
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let knobs = knobs_set();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with library knobs set: {knobs:?}");
        std::process::exit(2);
    }
    let report = run(&args).and_then(|r| {
        if r.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
            return Err(format!("a metric is not finite: {:?}", r.metrics));
        }
        Ok(r)
    });
    match report {
        Ok(r) => {
            if let (Some(rec), Some(dir)) = (&r.spans, &args.out) {
                let run_id = format!("{}-seed{}", args.workload, args.seed);
                let path = std::path::Path::new(dir).join(format!("spans-{run_id}.jsonl"));
                if let Err(e) = std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&path, rec.to_json_lines(&run_id)))
                {
                    eprintln!("perfbench: cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
            for (name, value, unit) in &r.metrics {
                println!("{name:<38} {value:>16.6} {unit}");
            }
            for (name, value) in &r.details {
                println!("detail {name:<31} {value:>16.6}");
            }
            if !r.untouched.is_empty() {
                println!("layers not called (read 0): {:?}", r.untouched);
            }
            println!("digest {:016x} counts {:?}", r.digest, r.counts);
            println!("pass wall_s {:?}", r.walls_s);
            println!("{}", result_line(true, r.attempted, r.failed, &r.metrics));
        }
        Err(e) => {
            eprintln!("perfbench: {} check failed: {e}", args.workload);
            println!("{}", result_line(false, 1, 1, &[]));
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Smoke-size workloads, run untraced and then traced, must repeat every
    /// work count and output digest exactly, and print the metrics that
    /// BENCHMARK.json declares, with its units; every declared per-layer
    /// metric must be measured by some workload.
    #[test]
    fn smoke_counts_repeat() {
        let mut untouched_by_all: Option<BTreeSet<String>> = None;
        for workload in WORKLOADS {
            let mut reports = Vec::new();
            for trace in [false, true] {
                let args = Args {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    out: None,
                    smoke: true,
                };
                let r = run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
                let section = if trace { "per_layer" } else { "end_to_end" };
                let printed: Vec<(&str, &str)> =
                    r.metrics.iter().map(|(n, _, u)| (n.as_str(), *u)).collect();
                assert_eq!(printed, declared(section), "{workload}: {section}");
                if trace {
                    let untouched: BTreeSet<String> = r.untouched.iter().cloned().collect();
                    untouched_by_all = Some(match untouched_by_all {
                        None => untouched,
                        Some(all) => all.intersection(&untouched).cloned().collect(),
                    });
                } else {
                    assert!(
                        r.metrics.iter().all(|(_, v, _)| *v > 0.0),
                        "{workload}: {:?}",
                        r.metrics
                    );
                }
                reports.push(r);
            }
            let (a, b) = (&reports[0], &reports[1]);
            assert!(!a.counts.is_empty(), "{workload} records work counts");
            assert_eq!(a.counts, b.counts, "{workload}: work counts");
            assert_eq!(a.digest, b.digest, "{workload}: output digest");
        }
        assert_eq!(
            untouched_by_all,
            Some(BTreeSet::new()),
            "declared but never measured"
        );
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[
                ("wall_s".to_string(), 1.25, "s"),
                ("test_patterns".to_string(), 58.0, "count"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"test_patterns\": {\"value\": 58, \"unit\": \"count\"}}}"
        );
    }
}
