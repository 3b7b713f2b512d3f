//! MNA solver: Newton–Raphson DC operating point with source stepping, and
//! Backward-Euler transient analysis.
//!
//! The unknown vector is `[v_1 … v_{N−1}, i_1 … i_M]` — node voltages
//! (ground excluded) followed by the branch currents of the voltage
//! sources. TIG-FETs are linearised each Newton iteration from the lookup
//! table's value and numerical gradients.

use crate::circuit::{AnalogCircuit, Element, NodeId};
use crate::linalg::Matrix;
use sinw_device::model::Bias;

/// Solver options.
#[derive(Debug, Clone, Copy)]
pub struct SolverOpts {
    /// Maximum Newton iterations per solve.
    pub max_iter: usize,
    /// Convergence criterion on the voltage update, in volts.
    pub v_tol: f64,
    /// Maximum voltage step per Newton iteration (damping), in volts.
    pub damping: f64,
    /// Conductance from every node to ground, in siemens (aids
    /// convergence on floating nodes).
    pub gmin: f64,
    /// Number of source-stepping ramps tried when plain Newton fails.
    pub source_steps: usize,
}

impl Default for SolverOpts {
    fn default() -> Self {
        SolverOpts {
            max_iter: 400,
            v_tol: 1e-9,
            damping: 0.25,
            gmin: 1e-12,
            source_steps: 8,
        }
    }
}

/// Solver failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// Newton failed to converge even with source stepping.
    NoConvergence,
    /// The MNA matrix was singular.
    Singular,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NoConvergence => write!(f, "newton iteration did not converge"),
            SolveError::Singular => write!(f, "singular MNA matrix"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A DC operating point.
#[derive(Debug, Clone)]
pub struct DcSolution {
    /// Voltage of every node (index 0 = ground = 0 V).
    pub v: Vec<f64>,
    /// Branch current of every voltage source, flowing internally from the
    /// positive to the negative terminal. The current *delivered* by a
    /// supply is `-i_src`.
    pub i_src: Vec<f64>,
}

impl DcSolution {
    /// Voltage at a node.
    #[must_use]
    pub fn voltage(&self, n: NodeId) -> f64 {
        self.v[n.0]
    }

    /// Current delivered by source `k` (positive when powering the
    /// circuit).
    #[must_use]
    pub fn delivered(&self, k: crate::circuit::SourceId) -> f64 {
        -self.i_src[k.0]
    }
}

/// A transient waveform record.
#[derive(Debug, Clone)]
pub struct Transient {
    /// Sample times in seconds.
    pub time: Vec<f64>,
    /// `node_v[k][n]` = voltage of node `n` at time `time[k]`.
    pub node_v: Vec<Vec<f64>>,
    /// `i_src[k][m]` = branch current of source `m` at `time[k]`.
    pub i_src: Vec<Vec<f64>>,
}

impl Transient {
    /// Waveform of one node.
    #[must_use]
    pub fn node_waveform(&self, n: NodeId) -> Vec<(f64, f64)> {
        self.time
            .iter()
            .zip(&self.node_v)
            .map(|(t, v)| (*t, v[n.0]))
            .collect()
    }
}

enum Mode<'a> {
    Dc,
    Tran { h: f64, v_prev: &'a [f64] },
}

/// Assemble the Jacobian and KCL residual at the current guess `x`.
///
/// The TIG-FET self-conductance is floored at a small positive value: the
/// multilinear table can exhibit spurious negative differential
/// conductance between grid cells, and a regularised (quasi-Newton)
/// Jacobian keeps the damped iteration stable without changing the
/// converged solution (the residual is always exact).
// The eight arguments are the Newton step's full state: circuit, guess,
// time, source scale, mode, options and the two output buffers.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn assemble(
    ckt: &AnalogCircuit,
    x: &[f64],
    t: f64,
    scale: f64,
    mode: &Mode<'_>,
    opts: &SolverOpts,
    jac: Option<&mut Matrix>,
    residual: &mut [f64],
) {
    let n_nodes = ckt.node_count();
    let row = |n: NodeId| -> Option<usize> { (n.0 > 0).then(|| n.0 - 1) };
    let volt = |n: NodeId| -> f64 {
        if n.0 == 0 {
            0.0
        } else {
            x[n.0 - 1]
        }
    };
    residual.fill(0.0);
    let mut jac = jac;
    if let Some(j) = jac.as_deref_mut() {
        j.clear();
    }
    for n in 1..n_nodes {
        let r = n - 1;
        if let Some(j) = jac.as_deref_mut() {
            j.add(r, r, opts.gmin);
        }
        residual[r] += opts.gmin * x[r];
    }

    let mut src_idx = 0usize;
    for e in ckt.elements() {
        match e {
            Element::Resistor { a, b, ohms } => {
                let g = 1.0 / ohms;
                let i = g * (volt(*a) - volt(*b));
                if let Some(r) = row(*a) {
                    residual[r] += i;
                    if let Some(j) = jac.as_deref_mut() {
                        j.add(r, r, g);
                        if let Some(c) = row(*b) {
                            j.add(r, c, -g);
                        }
                    }
                }
                if let Some(r) = row(*b) {
                    residual[r] -= i;
                    if let Some(j) = jac.as_deref_mut() {
                        j.add(r, r, g);
                        if let Some(c) = row(*a) {
                            j.add(r, c, -g);
                        }
                    }
                }
            }
            Element::Capacitor { a, b, farads } => {
                if let Mode::Tran { h, v_prev } = mode {
                    let g = farads / h;
                    let pa = if a.0 == 0 { 0.0 } else { v_prev[a.0] };
                    let pb = if b.0 == 0 { 0.0 } else { v_prev[b.0] };
                    let i = g * ((volt(*a) - volt(*b)) - (pa - pb));
                    if let Some(r) = row(*a) {
                        residual[r] += i;
                        if let Some(j) = jac.as_deref_mut() {
                            j.add(r, r, g);
                            if let Some(c) = row(*b) {
                                j.add(r, c, -g);
                            }
                        }
                    }
                    if let Some(r) = row(*b) {
                        residual[r] -= i;
                        if let Some(j) = jac.as_deref_mut() {
                            j.add(r, r, g);
                            if let Some(c) = row(*a) {
                                j.add(r, c, -g);
                            }
                        }
                    }
                }
            }
            Element::Vsource { pos, neg, wave } => {
                let k = (n_nodes - 1) + src_idx;
                let target = scale * wave.at(t);
                if let Some(r) = row(*pos) {
                    residual[r] += x[k];
                    if let Some(j) = jac.as_deref_mut() {
                        j.add(r, k, 1.0);
                    }
                }
                if let Some(r) = row(*neg) {
                    residual[r] -= x[k];
                    if let Some(j) = jac.as_deref_mut() {
                        j.add(r, k, -1.0);
                    }
                }
                if let Some(j) = jac.as_deref_mut() {
                    if let Some(c) = row(*pos) {
                        j.add(k, c, 1.0);
                    }
                    if let Some(c) = row(*neg) {
                        j.add(k, c, -1.0);
                    }
                }
                residual[k] += (volt(*pos) - volt(*neg)) - target;
                src_idx += 1;
            }
            Element::TigFet {
                d,
                cg,
                pgs,
                pgd,
                s,
                broken,
            } => {
                if *broken {
                    continue;
                }
                let vs = volt(*s);
                let bias = Bias {
                    v_cg: volt(*cg) - vs,
                    v_pgs: volt(*pgs) - vs,
                    v_pgd: volt(*pgd) - vs,
                    v_ds: volt(*d) - vs,
                };
                let i_d = ckt.table.current(bias);
                if let Some(j) = jac.as_deref_mut() {
                    let (g_cg, g_pgs, g_pgd, g_ds) = ckt.table.gradients(bias);
                    // Regularise: floor the channel self-conductance.
                    let g_ds = g_ds.max(1.0e-9);
                    let g_s = -(g_cg + g_pgs + g_pgd + g_ds);
                    let stamps: [(NodeId, f64); 5] = [
                        (*cg, g_cg),
                        (*pgs, g_pgs),
                        (*pgd, g_pgd),
                        (*d, g_ds),
                        (*s, g_s),
                    ];
                    if let Some(r) = row(*d) {
                        for (node, g) in stamps {
                            if let Some(c) = row(node) {
                                j.add(r, c, g);
                            }
                        }
                    }
                    if let Some(r) = row(*s) {
                        for (node, g) in stamps {
                            if let Some(c) = row(node) {
                                j.add(r, c, -g);
                            }
                        }
                    }
                }
                if let Some(r) = row(*d) {
                    residual[r] += i_d;
                }
                if let Some(r) = row(*s) {
                    residual[r] -= i_d;
                }
            }
        }
    }
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

/// One Newton solve at time `t` with source scale `scale`.
///
/// `x` holds the initial guess and is updated in place.
fn newton(
    ckt: &AnalogCircuit,
    x: &mut [f64],
    t: f64,
    scale: f64,
    mode: &Mode<'_>,
    opts: &SolverOpts,
) -> Result<(), SolveError> {
    let n_nodes = ckt.node_count();
    let n_src = ckt
        .elements()
        .iter()
        .filter(|e| matches!(e, Element::Vsource { .. }))
        .count();
    let dim = (n_nodes - 1) + n_src;

    let mut jac = Matrix::zeros(dim);
    let mut residual = vec![0.0f64; dim];
    let mut trial = vec![0.0f64; dim];
    let mut res_trial = vec![0.0f64; dim];

    for _ in 0..opts.max_iter {
        assemble(ckt, x, t, scale, mode, opts, Some(&mut jac), &mut residual);
        let norm0 = max_abs(&residual);
        if norm0 < 1e-13 {
            return Ok(());
        }
        let neg_res: Vec<f64> = residual.iter().map(|r| -r).collect();
        let delta = jac.solve(&neg_res).ok_or(SolveError::Singular)?;

        // Damped line search on the residual norm.
        let mut alpha = 1.0f64;
        let mut max_dv = 0.0f64;
        let mut accepted = false;
        for _ in 0..8 {
            max_dv = 0.0;
            for k in 0..dim {
                let mut step = alpha * delta[k];
                if k < n_nodes - 1 {
                    step = step.clamp(-opts.damping, opts.damping);
                    max_dv = max_dv.max(step.abs());
                }
                trial[k] = x[k] + step;
            }
            assemble(ckt, &trial, t, scale, mode, opts, None, &mut res_trial);
            let norm1 = max_abs(&res_trial);
            if norm1 <= norm0 || max_dv < opts.v_tol {
                accepted = true;
                break;
            }
            alpha *= 0.5;
        }
        if !accepted {
            // Take the smallest step anyway; the fallback damping below
            // may still pull the iteration into the convergent basin.
        }
        x.copy_from_slice(&trial);
        if max_dv < opts.v_tol {
            // Converged in voltage; verify the residual is healthy.
            assemble(ckt, x, t, scale, mode, opts, None, &mut res_trial);
            if max_abs(&res_trial) < 1e-10 {
                return Ok(());
            }
        }
    }
    Err(SolveError::NoConvergence)
}

/// DC operating point at time `t` (source waveforms evaluated at `t`).
///
/// # Errors
///
/// Returns [`SolveError`] when Newton fails even with source stepping.
pub fn dc_at(ckt: &AnalogCircuit, t: f64, opts: &SolverOpts) -> Result<DcSolution, SolveError> {
    let n_nodes = ckt.node_count();
    let n_src = ckt
        .elements()
        .iter()
        .filter(|e| matches!(e, Element::Vsource { .. }))
        .count();
    let dim = (n_nodes - 1) + n_src;
    let mut x = vec![0.0f64; dim];

    // Solve at a comfortable gmin first, then step gmin down to the
    // requested value with warm starts (classic gmin stepping). If a
    // refinement step fails, the last converged solution is kept — its
    // gmin artifact is at worst the coarser level.
    let mut work = *opts;
    work.gmin = opts.gmin.max(1e-9);
    if newton(ckt, &mut x, t, 1.0, &Mode::Dc, &work).is_err() {
        // Source stepping: ramp the supplies up gradually.
        x.fill(0.0);
        let stepped = (1..=work.source_steps).try_for_each(|step| {
            let scale = step as f64 / work.source_steps as f64;
            newton(ckt, &mut x, t, scale, &Mode::Dc, &work)
        });
        if stepped.is_err() {
            // Last resort: heavily damped relaxation from zero.
            x.fill(0.0);
            let mut slow = work;
            slow.damping = 0.04;
            slow.max_iter = 4000;
            newton(ckt, &mut x, t, 1.0, &Mode::Dc, &slow)?;
        }
    }
    while work.gmin > opts.gmin * 1.001 {
        work.gmin = (work.gmin / 10.0).max(opts.gmin);
        let backup = x.clone();
        if newton(ckt, &mut x, t, 1.0, &Mode::Dc, &work).is_err() {
            x = backup;
            break;
        }
    }
    Ok(unpack(ckt, &x))
}

/// DC operating point with all waveforms at `t = 0`.
///
/// # Errors
///
/// Returns [`SolveError`] when Newton fails even with source stepping.
pub fn dc(ckt: &AnalogCircuit, opts: &SolverOpts) -> Result<DcSolution, SolveError> {
    dc_at(ckt, 0.0, opts)
}

fn unpack(ckt: &AnalogCircuit, x: &[f64]) -> DcSolution {
    let n_nodes = ckt.node_count();
    let mut v = vec![0.0f64; n_nodes];
    v[1..].copy_from_slice(&x[..n_nodes - 1]);
    let i_src = x[(n_nodes - 1)..].to_vec();
    DcSolution { v, i_src }
}

/// Backward-Euler transient from a DC initial condition.
///
/// # Errors
///
/// Returns [`SolveError`] if the initial operating point or any time step
/// fails to converge.
pub fn transient(
    ckt: &AnalogCircuit,
    t_stop: f64,
    dt: f64,
    opts: &SolverOpts,
) -> Result<Transient, SolveError> {
    assert!(dt > 0.0 && t_stop > dt, "bad time parameters");
    let n_nodes = ckt.node_count();
    let n_src = ckt
        .elements()
        .iter()
        .filter(|e| matches!(e, Element::Vsource { .. }))
        .count();
    let dim = (n_nodes - 1) + n_src;

    let ic = dc_at(ckt, 0.0, opts)?;
    let mut x = vec![0.0f64; dim];
    x[..n_nodes - 1].copy_from_slice(&ic.v[1..]);
    for (k, i) in ic.i_src.iter().enumerate() {
        x[(n_nodes - 1) + k] = *i;
    }

    let mut out = Transient {
        time: vec![0.0],
        node_v: vec![ic.v.clone()],
        i_src: vec![ic.i_src.clone()],
    };

    let mut t = 0.0;
    let mut v_prev = ic.v;
    while t < t_stop {
        t += dt;
        newton(
            ckt,
            &mut x,
            t,
            1.0,
            &Mode::Tran {
                h: dt,
                v_prev: &v_prev,
            },
            opts,
        )?;
        let sol = unpack(ckt, &x);
        v_prev = sol.v.clone();
        out.time.push(t);
        out.node_v.push(sol.v);
        out.i_src.push(sol.i_src);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{AnalogCircuit, Waveform, GROUND};
    use sinw_device::{TigFet, TigTable};
    use std::sync::{Arc, OnceLock};

    fn shared_table() -> Arc<TigTable> {
        static TABLE: OnceLock<Arc<TigTable>> = OnceLock::new();
        TABLE
            .get_or_init(|| Arc::new(TigTable::build_coarse(&TigFet::ideal())))
            .clone()
    }

    #[test]
    fn resistive_divider() {
        let mut c = AnalogCircuit::new(shared_table());
        let top = c.node("top");
        let mid = c.node("mid");
        let src = c.add_vsource(top, GROUND, Waveform::Dc(1.2));
        c.add_resistor(top, mid, 1000.0);
        c.add_resistor(mid, GROUND, 3000.0);
        let sol = dc(&c, &SolverOpts::default()).expect("linear circuit");
        assert!(
            (sol.voltage(mid) - 0.9).abs() < 1e-6,
            "v_mid={}",
            sol.voltage(mid)
        );
        // gmin adds a tiny extra load.
        assert!((sol.delivered(src) - 1.2 / 4000.0).abs() < 1e-8);
    }

    #[test]
    fn rc_transient_charges_exponentially() {
        let mut c = AnalogCircuit::new(shared_table());
        let top = c.node("top");
        let out = c.node("out");
        c.add_vsource(
            top,
            GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 0.0,
                rise: 1e-12,
                width: 1.0,
                fall: 1e-12,
            },
        );
        c.add_resistor(top, out, 1.0e3);
        c.add_capacitor(out, GROUND, 1.0e-9); // tau = 1 us
        let tr = transient(&c, 3.0e-6, 1.0e-8, &SolverOpts::default()).expect("rc");
        let wave = tr.node_waveform(out);
        // At t = tau the output should be ~63.2 % (BE slightly undershoots).
        let v_tau = wave
            .iter()
            .min_by(|a, b| {
                (a.0 - 1.0e-6)
                    .abs()
                    .partial_cmp(&(b.0 - 1.0e-6).abs())
                    .expect("finite")
            })
            .expect("nonempty")
            .1;
        assert!((v_tau - 0.632).abs() < 0.02, "v(tau) = {v_tau}");
        let v_end = wave.last().expect("nonempty").1;
        assert!(v_end > 0.94, "v(3 tau) = {v_end}");
    }

    #[test]
    fn tig_inverter_dc_transfer() {
        // SP inverter: pull-up (PG at GND), pull-down (PG at Vdd).
        let mut c = AnalogCircuit::new(shared_table());
        let vdd = c.node("vdd");
        let a = c.node("a");
        let out = c.node("out");
        c.add_vsource(vdd, GROUND, Waveform::Dc(1.2));
        c.add_vsource(a, GROUND, Waveform::Dc(0.0));
        c.add_fet(out, a, GROUND, GROUND, vdd); // pull-up p-mode
        c.add_fet(out, a, vdd, vdd, GROUND); // pull-down n-mode
        let sol = dc(&c, &SolverOpts::default()).expect("inverter at 0");
        assert!(sol.voltage(out) > 1.0, "out high: {}", sol.voltage(out));
    }

    #[test]
    fn tig_inverter_switches() {
        let mut c = AnalogCircuit::new(shared_table());
        let vdd = c.node("vdd");
        let a = c.node("a");
        let out = c.node("out");
        c.add_vsource(vdd, GROUND, Waveform::Dc(1.2));
        c.add_vsource(a, GROUND, Waveform::Dc(1.2));
        c.add_fet(out, a, GROUND, GROUND, vdd);
        c.add_fet(out, a, vdd, vdd, GROUND);
        let sol = dc(&c, &SolverOpts::default()).expect("inverter at 1");
        assert!(sol.voltage(out) < 0.2, "out low: {}", sol.voltage(out));
    }

    #[test]
    fn broken_channel_contributes_no_current() {
        let mut c = AnalogCircuit::new(shared_table());
        let vdd = c.node("vdd");
        let a = c.node("a");
        let out = c.node("out");
        let src = c.add_vsource(vdd, GROUND, Waveform::Dc(1.2));
        c.add_vsource(a, GROUND, Waveform::Dc(0.0));
        let pu = c.add_fet(out, a, GROUND, GROUND, vdd);
        c.add_fet(out, a, vdd, vdd, GROUND);
        c.break_channel(pu);
        let sol = dc(&c, &SolverOpts::default()).expect("broken inverter");
        // The output floats near ground (gmin) instead of being pulled up.
        assert!(sol.voltage(out) < 0.4, "floating out: {}", sol.voltage(out));
        assert!(sol.delivered(src).abs() < 1e-8);
    }
}
