//! Ballistic Landauer transport with WKB tunneling through the Schottky
//! junction wedges.
//!
//! The TIG-SiNWFET conducts through two mechanisms that this kernel captures
//! directly from the band profile produced by [`crate::poisson`]:
//!
//! * **Junction transparency** — the polarity gates thin (or thicken) the
//!   triangular Schottky wedges at the contacts; carriers tunnel through the
//!   classically forbidden sections, with a WKB transmission factor.
//! * **Thermionic control** — the control gate raises or lowers the barrier
//!   in the middle of the channel; carriers with energies below the barrier
//!   top are exponentially suppressed.
//!
//! Both the electron branch (conduction band) and the hole branch (valence
//! band) are integrated, which is what produces the ambipolar behaviour and,
//! with the gate biases of Section III-C, the controllable-polarity
//! conduction rule `CG = PGS = PGD`.
//!
//! # Early exit
//!
//! [`landauer_current`] drops every energy term whose transmission is at or
//! below a transmission floor of `1e-15`. The WKB action only grows along
//! the walk (each point adds a non-negative term), so once the running
//! action passes a cutoff of 17.5 the transmission can be at most
//! `exp(−2·17.5) ≈ 6.3e-16`, below the floor: the term would be discarded
//! anyway, and the walk for that branch stops there. The margin between
//! `6.3e-16` and `1e-15` keeps the argument independent of the last ulp of
//! `exp`. Terms that survive walked every point in axial order, so the
//! current is bit-identical to the uncut sum. [`wkb_transmission`] and
//! [`hole_transmission`] run the same walk with no cutoff.

use std::borrow::Cow;

use crate::constants::{HBAR, H_PLANCK, M0, Q, VT};
use crate::poisson::BandProfile;

/// Transmissions at or below this value add nothing to the Landauer
/// integral.
const TRANSMISSION_FLOOR: f64 = 1e-15;

/// Running WKB action past which [`landauer_current`] stops walking a
/// branch: `exp(−2·ACTION_CUTOFF) ≈ 6.3e-16 < TRANSMISSION_FLOOR`.
const ACTION_CUTOFF: f64 = 17.5;

/// Energy-integration settings for the Landauer integral.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyGrid {
    /// Lowest energy sampled, in eV (relative to the source Fermi level).
    pub e_min: f64,
    /// Highest energy sampled, in eV.
    pub e_max: f64,
    /// Energy step, in eV.
    pub de: f64,
}

impl EnergyGrid {
    /// Grid that safely covers both carrier branches for |V| ≤ 1.5 V.
    #[must_use]
    pub fn standard() -> Self {
        EnergyGrid {
            e_min: -1.9,
            e_max: 1.9,
            de: 0.008,
        }
    }

    /// Coarser grid for fast lookup-table extraction in tests.
    #[must_use]
    pub fn coarse() -> Self {
        EnergyGrid {
            e_min: -1.9,
            e_max: 1.9,
            de: 0.02,
        }
    }
}

impl Default for EnergyGrid {
    fn default() -> Self {
        Self::standard()
    }
}

/// Transport parameters: tunneling masses and conducting mode counts.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportParams {
    /// Electron tunneling mass as a fraction of the free-electron mass.
    pub m_e: f64,
    /// Hole tunneling mass as a fraction of the free-electron mass.
    pub m_h: f64,
    /// Number of conducting electron modes (nanowire subbands).
    pub modes_e: f64,
    /// Number of conducting hole modes.
    pub modes_h: f64,
    /// Band gap in eV.
    pub e_gap: f64,
}

impl Default for TransportParams {
    fn default() -> Self {
        TransportParams {
            m_e: crate::constants::M_TUNNEL_E,
            m_h: crate::constants::M_TUNNEL_H,
            modes_e: 2.0,
            modes_h: 1.0,
            e_gap: crate::constants::E_GAP_NW,
        }
    }
}

/// Fermi–Dirac occupation at energy `e` (eV) for chemical potential `mu` (eV).
#[inline]
#[must_use]
pub fn fermi(e: f64, mu: f64) -> f64 {
    let x = (e - mu) / VT;
    if x > 40.0 {
        0.0
    } else if x < -40.0 {
        1.0
    } else {
        1.0 / (1.0 + x.exp())
    }
}

/// WKB decay constant per square-root eV, `sqrt(2 m q) / ħ`, for a
/// tunneling mass of `mass_rel` m₀.
fn tunnel_prefactor(mass_rel: f64) -> f64 {
    (2.0 * mass_rel * M0 * Q).sqrt() / HBAR
}

/// The WKB walk along one band profile: the band-edge samples that carry
/// action, in axial order (samples under a GOS plug are metallic and are
/// left out), plus the profile's series break action and grid spacing.
struct Walk<'a> {
    points: Cow<'a, [f64]>,
    blockage: f64,
    dx: f64,
}

impl<'a> Walk<'a> {
    fn new(profile: &'a BandProfile) -> Self {
        let points = if profile.bypass.contains(&true) {
            let shunted = |i: usize| profile.bypass.get(i).copied().unwrap_or(false);
            Cow::Owned(
                profile
                    .e_c
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| !shunted(i))
                    .map(|(_, &ec)| ec)
                    .collect(),
            )
        } else {
            Cow::Borrowed(profile.e_c.as_slice())
        };
        Walk {
            points,
            blockage: profile.blockage_action,
            dx: profile.dx,
        }
    }

    /// WKB action `blockage + Σ pref·√db·dx` over the points where the
    /// local barrier `db = barrier(E_c)` is positive, summed in axial order.
    /// The walk stops as soon as the running action exceeds `cutoff`; the
    /// partial sum returned then is a lower bound of the full action. With
    /// an infinite cutoff the full action is returned.
    #[inline]
    fn action(&self, pref: f64, cutoff: f64, barrier: impl Fn(f64) -> f64) -> f64 {
        let mut action = self.blockage;
        if action > cutoff {
            return action;
        }
        for &ec in self.points.iter() {
            let db = barrier(ec);
            if db > 0.0 {
                action += pref * db.sqrt() * self.dx;
                if action > cutoff {
                    break;
                }
            }
        }
        action
    }
}

/// WKB transmission of a carrier at energy `e` through the barrier profile
/// `barrier(x) − e` wherever positive.
///
/// `barrier` yields the local band edge seen by the carrier: `E_c(x)` for
/// electrons; for holes the roles are flipped by the caller (see
/// [`hole_transmission`]). `mass_rel` is the tunneling mass in units of m₀.
#[must_use]
pub fn wkb_transmission(e: f64, profile: &BandProfile, mass_rel: f64) -> f64 {
    // kappa(x) = sqrt(2 m (E_c - E) q) / hbar, integrate 2*kappa*dx over the
    // classically forbidden region. Samples under a GOS plug are metallic
    // and contribute no action; a nanowire break adds a fixed series action.
    let action = Walk::new(profile).action(tunnel_prefactor(mass_rel), f64::INFINITY, |ec| ec - e);
    (-2.0 * action).exp()
}

/// WKB transmission for a hole at energy `e`: forbidden wherever the local
/// valence-band edge `E_v(x) = E_c(x) − E_g` is **below** `e`.
#[must_use]
pub fn hole_transmission(e: f64, profile: &BandProfile, mass_rel: f64, e_gap: f64) -> f64 {
    let action = Walk::new(profile).action(tunnel_prefactor(mass_rel), f64::INFINITY, |ec| {
        e - (ec - e_gap)
    });
    (-2.0 * action).exp()
}

/// Breakdown of a Landauer-current evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CurrentBreakdown {
    /// Electron-branch current in amperes.
    pub electron: f64,
    /// Hole-branch current in amperes.
    pub hole: f64,
}

impl CurrentBreakdown {
    /// Total drain current in amperes.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.electron + self.hole
    }
}

/// Landauer drain current for the given band profile at drain bias `v_ds`
/// (volts, relative to the source).
///
/// The source chemical potential is 0 eV by convention and the drain sits at
/// `−v_ds` eV. Both carrier branches are positive for `v_ds > 0`, matching
/// the n-FET sign convention of Fig. 3.
#[must_use]
pub fn landauer_current(
    profile: &BandProfile,
    v_ds: f64,
    params: &TransportParams,
    grid: &EnergyGrid,
) -> CurrentBreakdown {
    let mu_s = 0.0;
    let mu_d = -v_ds;
    // 2 q^2 / h in siemens; the integral below is in eV so the charge of the
    // dE conversion cancels one q.
    let g_quantum = 2.0 * Q * Q / H_PLANCK;

    let walk = Walk::new(profile);
    let (pref_e, pref_h) = (tunnel_prefactor(params.m_e), tunnel_prefactor(params.m_h));
    let e_gap = params.e_gap;
    // Transmission of a branch whose walk ran to completion and kept the
    // term above the floor; `None` when the term is dropped.
    let kept = |action: f64| {
        if action > ACTION_CUTOFF {
            return None;
        }
        let t = (-2.0 * action).exp();
        (t > TRANSMISSION_FLOOR).then_some(t)
    };

    let mut i_e = 0.0;
    let mut i_h = 0.0;
    let mut e = grid.e_min;
    while e <= grid.e_max {
        let occ = fermi(e, mu_s) - fermi(e, mu_d);
        if occ.abs() > 1e-12 {
            let a_e = walk.action(pref_e, ACTION_CUTOFF, |ec| ec - e);
            if let Some(te) = kept(a_e) {
                i_e += te * occ;
            }
            let a_h = walk.action(pref_h, ACTION_CUTOFF, |ec| e - (ec - e_gap));
            if let Some(th) = kept(a_h) {
                i_h += th * occ;
            }
        }
        e += grid.de;
    }
    CurrentBreakdown {
        electron: g_quantum * params.modes_e * i_e * grid.de,
        hole: g_quantum * params.modes_h * i_h * grid.de,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DeviceGeometry;
    use crate::poisson::{solve, CouplingProfile};

    fn flat_profile(level: f64, v_ds: f64) -> BandProfile {
        let g = DeviceGeometry::table_ii();
        // Sharpened contact wedges, as used by the calibrated device model.
        let coupling = CouplingProfile::from_geometry_sharpened(&g, 3.0, 4.0e-9, |_| level);
        solve(&g, &coupling, 0.41, 0.41 - v_ds)
    }

    /// Reference Landauer sum with no early exit: every energy walks every
    /// point through the uncut public transmissions.
    fn reference_current(
        profile: &BandProfile,
        v_ds: f64,
        params: &TransportParams,
        grid: &EnergyGrid,
    ) -> CurrentBreakdown {
        let g_quantum = 2.0 * Q * Q / H_PLANCK;
        let (mut i_e, mut i_h) = (0.0, 0.0);
        let mut e = grid.e_min;
        while e <= grid.e_max {
            let occ = fermi(e, 0.0) - fermi(e, -v_ds);
            if occ.abs() > 1e-12 {
                let te = wkb_transmission(e, profile, params.m_e);
                if te > 1e-15 {
                    i_e += te * occ;
                }
                let th = hole_transmission(e, profile, params.m_h, params.e_gap);
                if th > 1e-15 {
                    i_h += th * occ;
                }
            }
            e += grid.de;
        }
        CurrentBreakdown {
            electron: g_quantum * params.modes_e * i_e * grid.de,
            hole: g_quantum * params.modes_h * i_h * grid.de,
        }
    }

    fn assert_bit_identical(profile: &BandProfile, v_ds: f64, grid: &EnergyGrid, what: &str) {
        let params = TransportParams::default();
        let fast = landauer_current(profile, v_ds, &params, grid);
        let slow = reference_current(profile, v_ds, &params, grid);
        assert_eq!(
            fast.electron.to_bits(),
            slow.electron.to_bits(),
            "electron {what}: {} vs {}",
            fast.electron,
            slow.electron
        );
        assert_eq!(
            fast.hole.to_bits(),
            slow.hole.to_bits(),
            "hole {what}: {} vs {}",
            fast.hole,
            slow.hole
        );
    }

    #[test]
    fn early_exit_matches_the_uncut_sum_bit_for_bit() {
        use crate::defects::DeviceDefect;
        use crate::geometry::GateTerminal;
        use crate::model::{Bias, TigFet};

        let devices = [
            ("healthy", TigFet::ideal()),
            (
                "GOS@PGS",
                TigFet::ideal().with_defect(DeviceDefect::gos(GateTerminal::Pgs)),
            ),
            (
                "GOS@CG",
                TigFet::ideal().with_defect(DeviceDefect::gos(GateTerminal::Cg)),
            ),
            (
                "GOS@PGD",
                TigFet::ideal().with_defect(DeviceDefect::gos(GateTerminal::Pgd)),
            ),
            (
                "full break",
                TigFet::ideal().with_defect(DeviceDefect::full_break()),
            ),
            (
                "partial break",
                TigFet::ideal().with_defect(DeviceDefect::NanowireBreak {
                    position: 0.3,
                    severity: 0.4,
                }),
            ),
        ];
        let gates = [-1.2, 0.0, 1.2];
        for (name, fet) in &devices {
            for v_cg in gates {
                for v_pgs in gates {
                    for v_pgd in gates {
                        for v_ds in [-0.6, 0.4, 1.2] {
                            let bias = Bias {
                                v_cg,
                                v_pgs,
                                v_pgd,
                                v_ds,
                            };
                            let profile = fet.band_profile(bias);
                            let what = format!("{name} at {bias:?}");
                            assert_bit_identical(&profile, v_ds, &fet.params.grid, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cutoff_boundary_keeps_the_uncut_decision() {
        // The cutoff sits past the floor: every term it drops, the floor
        // drops too.
        assert!((-2.0 * ACTION_CUTOFF).exp() < TRANSMISSION_FLOOR);

        // Ten identical barrier points; a single energy at 0 eV sees an
        // electron barrier of 0.3 eV at each of them.
        let mut profile = BandProfile {
            dx: 1.0e-9,
            e_c: vec![0.3; 10],
            bypass: Vec::new(),
            blockage_action: 0.0,
        };
        let params = TransportParams::default();
        let pref = tunnel_prefactor(params.m_e);
        let barrier = |ec: f64| ec - 0.0;
        let action = |p: &BandProfile, cutoff: f64| Walk::new(p).action(pref, cutoff, barrier);
        let walk = action(&profile, f64::INFINITY);
        let first = pref * 0.3f64.sqrt() * profile.dx;
        let grid = EnergyGrid {
            e_min: 0.0,
            e_max: 0.0,
            de: 0.008,
        };

        // Just below: the walk runs to the end and returns the full action.
        profile.blockage_action = ACTION_CUTOFF - walk - 1e-9;
        let full = action(&profile, f64::INFINITY);
        assert!(full <= ACTION_CUTOFF, "full = {full}");
        assert_eq!(action(&profile, ACTION_CUTOFF).to_bits(), full.to_bits());
        assert_bit_identical(&profile, 0.5, &grid, "just below the cutoff");

        // Just above: the first point pushes the action past the cutoff and
        // the walk stops there, short of the full action.
        profile.blockage_action = ACTION_CUTOFF - first + 1e-9;
        let cut = action(&profile, ACTION_CUTOFF);
        let full = action(&profile, f64::INFINITY);
        assert!(
            cut > ACTION_CUTOFF && cut < full,
            "cut = {cut}, full = {full}"
        );
        assert_bit_identical(&profile, 0.5, &grid, "just above the cutoff");
    }

    #[test]
    fn fermi_is_half_at_mu() {
        assert!((fermi(0.3, 0.3) - 0.5).abs() < 1e-12);
        assert!(fermi(1.0, 0.0) < 1e-10);
        assert!(fermi(-1.0, 0.0) > 1.0 - 1e-10);
    }

    #[test]
    fn transmission_is_one_above_barrier() {
        let p = flat_profile(-0.2, 0.0);
        let t = wkb_transmission(0.5, &p, 0.19);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transmission_decays_with_barrier_height() {
        let p_low = flat_profile(0.3, 0.0);
        let p_high = flat_profile(0.6, 0.0);
        let t_low = wkb_transmission(0.0, &p_low, 0.19);
        let t_high = wkb_transmission(0.0, &p_high, 0.19);
        assert!(t_low > t_high, "t_low={t_low} t_high={t_high}");
        assert!(t_high < 1e-6, "22nm-wide 0.6eV barrier must be opaque");
    }

    #[test]
    fn zero_bias_means_zero_current() {
        let p = flat_profile(-0.1, 0.0);
        let i = landauer_current(&p, 0.0, &TransportParams::default(), &EnergyGrid::coarse());
        assert!(i.total().abs() < 1e-18, "I = {}", i.total());
    }

    #[test]
    fn on_state_carries_microamps_off_state_does_not() {
        // ON: channel pulled below the Fermi level -> thin source wedge.
        let on = flat_profile(-0.19, 1.2);
        let i_on = landauer_current(
            &on,
            1.2,
            &TransportParams::default(),
            &EnergyGrid::standard(),
        );
        // OFF: the mixed configuration of a blocked CP device (CG driven,
        // polarity gates at flat band): electrons are blocked by the 22 nm
        // flat-band barrier under the polarity gates, holes by the deep
        // valence band under the driven control gate.
        let g = DeviceGeometry::table_ii();
        let coupling =
            CouplingProfile::from_geometry_sharpened(&g, 3.0, 4.0e-9, |gate| match gate {
                crate::geometry::GateTerminal::Cg => -0.43,
                _ => 0.41,
            });
        let off = solve(&g, &coupling, 0.41, 0.41 - 1.2);
        let i_off = landauer_current(
            &off,
            1.2,
            &TransportParams::default(),
            &EnergyGrid::standard(),
        );
        assert!(
            i_on.total() > 1e-7,
            "ON current too small: {}",
            i_on.total()
        );
        assert!(
            i_off.total() < i_on.total() * 1e-3,
            "ON/OFF ratio too small: on={} off={}",
            i_on.total(),
            i_off.total()
        );
    }

    #[test]
    fn current_increases_with_drain_bias() {
        let params = TransportParams::default();
        let grid = EnergyGrid::coarse();
        let mut last = 0.0;
        for &vds in &[0.1, 0.4, 0.8, 1.2] {
            let p = flat_profile(-0.05, vds);
            let i = landauer_current(&p, vds, &params, &grid).total();
            assert!(i > last, "I({vds}) = {i} not above {last}");
            last = i;
        }
    }
}
