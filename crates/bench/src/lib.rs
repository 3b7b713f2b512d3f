//! # sinw-bench — benchmark harness
//!
//! Criterion benches regenerating every table and figure of the paper;
//! see `benches/` for one target per artifact plus the ablations
//! (`ablations` for design choices, `ppsfp_scaling` for the
//! serial / bit-parallel / thread-parallel fault-simulation ladder on a
//! generated array-multiplier fault universe). The experiment logic
//! itself lives in [`sinw_core::experiments`] so that tests and benches
//! report identical numbers.
//!
//! The library target hosts this crate-level documentation plus the
//! knob/artifact helpers shared by the scaling benches ([`env_usize`],
//! [`env_usize_list`], [`write_bench_json`]); the runnable artifacts are
//! the bench targets:
//!
//! ```no_run
//! // What `cargo bench --bench ppsfp_scaling` measures, in miniature:
//! use sinw_atpg::fault_list::enumerate_stuck_at;
//! use sinw_atpg::faultsim::{simulate_faults_serial, simulate_faults_with, SimOptions};
//! use sinw_atpg::graph::SimGraph;
//! use sinw_switch::generate::array_multiplier;
//!
//! let circuit = array_multiplier(8);
//! let graph = SimGraph::build(&circuit);
//! let faults = enumerate_stuck_at(&circuit);
//! let patterns = vec![vec![true; circuit.primary_inputs().len()]; 16];
//! let serial = simulate_faults_serial(&circuit, &faults, &patterns, false);
//! let options = SimOptions { lanes: 4, threads: 0 };
//! let (threaded, _) = simulate_faults_with(&circuit, &graph, &faults, &patterns, false, options);
//! assert_eq!(serial, threaded); // identical reports, different wall clock
//! ```

/// Read a `usize` knob from the environment, falling back to `default`
/// when the variable is unset — the shared convention of every `SINW_*`
/// bench knob.
///
/// # Panics
///
/// Panics, naming the variable and its value, when the variable is set
/// but does not parse: silently measuring the default instead of the
/// requested size would report the wrong experiment.
#[must_use]
pub fn env_usize(key: &str, default: usize) -> usize {
    knob(key).map_or(default, |v| parse_knob(key, &v, parse_usize))
}

/// Read a comma-separated `usize` list knob from the environment (e.g.
/// `SINW_PPSFP_WIDTHS=16,32,64`), falling back to `default` when the
/// variable is unset — the scaling benches use this to sweep a curve
/// instead of a point.
///
/// # Panics
///
/// Panics, naming the variable and its value, when the variable is set
/// but empty or any element fails to parse (`4,` included).
#[must_use]
pub fn env_usize_list(key: &str, default: &[usize]) -> Vec<usize> {
    knob(key).map_or_else(
        || default.to_vec(),
        |v| parse_knob(key, &v, parse_usize_list),
    )
}

/// The raw value of knob `key`, or `None` when it is unset.
fn knob(key: &str) -> Option<String> {
    match std::env::var(key) {
        Ok(value) => Some(value),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(value)) => {
            panic!("bench knob {key}={value:?} is not valid UTF-8")
        }
    }
}

/// The parsed value of knob `key`; a value that does not parse panics
/// with the knob's name and value.
fn parse_knob<T>(key: &str, value: &str, parse: impl Fn(&str) -> Option<T>) -> T {
    parse(value).unwrap_or_else(|| {
        panic!("bench knob {key}={value:?} does not parse; unset it for the default")
    })
}

fn parse_usize(value: &str) -> Option<usize> {
    value.trim().parse().ok()
}

fn parse_usize_list(value: &str) -> Option<Vec<usize>> {
    value.split(',').map(parse_usize).collect()
}

/// Write a machine-readable bench artifact to the `SINW_BENCH_JSON`
/// override path or `default_path`, logging where it landed (or a
/// warning on failure) — the shared `BENCH_*.json` convention CI
/// archives.
pub fn write_bench_json(default_path: &str, json: &str) {
    let path = std::env::var("SINW_BENCH_JSON").unwrap_or_else(|_| default_path.to_string());
    match std::fs::write(&path, json) {
        Ok(()) => println!("  machine-readable trajectory written to {path}"),
        Err(e) => eprintln!("  WARNING: could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_values_parse_or_are_rejected() {
        assert_eq!(parse_knob("K", "12", parse_usize), 12);
        assert_eq!(parse_usize_list("16, 32,64"), Some(vec![16, 32, 64]));
        assert_eq!(parse_usize_list("4"), Some(vec![4]));
        for bad in ["4,", "", ",4", "4,,8", "x", "-1"] {
            assert_eq!(parse_usize_list(bad), None, "{bad:?} must not parse");
        }
        assert_eq!(parse_usize(""), None);
        assert_eq!(parse_usize("2.5"), None);
    }

    #[test]
    #[should_panic(expected = "SINW_DIAG_WIDTHS=\"4,\"")]
    fn a_malformed_knob_panics_with_its_name_and_value() {
        let _ = parse_knob("SINW_DIAG_WIDTHS", "4,", parse_usize_list);
    }
}
