//! `paper_cells`: the standard device table, then the cell-level paper
//! artifacts on it. The `device` and `analog` layers do nearly all the
//! work; no ATPG runs.

use crate::harness::{median, Digest, Pass, Workload};
use crate::trace::Recorder;
use sinw_core::dictionary::CellDictionary;
use sinw_core::experiments::{Experiments, Fig3Result, Fig5Result, Sec5bResult, Sec5cResult};
use sinw_device::geometry::GateTerminal;
use sinw_device::model::TigFet;
use sinw_device::table::TigTable;
use sinw_switch::cells::CellKind;
use sinw_switch::fault::TransistorFault;
use std::sync::Arc;
use std::time::Instant;

/// The artifacts are regenerated this many times per pass, and
/// `artifacts_s` is the pass's median round: one round is short enough for
/// a burst of host noise to dominate it. `wall_s` counts the median round
/// only, as the flow a user runs makes one, so `work_s` is that round.
const ROUNDS: usize = 3;

/// Smoke size uses the coarse table and the short sweeps.
pub struct PaperCells {
    pub smoke: bool,
}

pub struct Artifacts {
    table3: CellDictionary,
    sec5b: Sec5bResult,
    fig5: Fig5Result,
    sec5c: Sec5cResult,
    fig3: Fig3Result,
}

/// A Fig. 5 point counts as failed when any of its four solves gave NaN.
fn failed_point(p: &sinw_core::experiments::Fig5Point) -> bool {
    [
        p.leak_pgs_open,
        p.leak_pgd_open,
        p.delay_pgs_open,
        p.delay_pgd_open,
    ]
    .iter()
    .any(|v| v.is_nan())
}

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    };
}

impl Workload for PaperCells {
    type Ready = Experiments;
    type Output = Artifacts;

    fn setup(&self, rec: &mut Recorder) -> Result<Experiments, String> {
        let fet = TigFet::ideal();
        let table = rec.span("device.table.build", |_| {
            if self.smoke {
                TigTable::build_coarse(&fet)
            } else {
                TigTable::build_standard(&fet)
            }
        });
        Ok(Experiments {
            table: Arc::new(table),
            fast: self.smoke,
        })
    }

    fn run(
        &self,
        ctx: &Experiments,
        rec: &mut Recorder,
        pass: &mut Pass,
    ) -> Result<Artifacts, String> {
        let mut rounds_s = Vec::with_capacity(ROUNDS);
        let mut first: Option<(Artifacts, u64)> = None;
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            let round = Artifacts {
                table3: rec.span("core.dictionary.build", |_| ctx.table3()),
                sec5b: rec.span("core.dictionary.build", |_| ctx.sec5b()),
                fig5: rec.span("analog.fig5.sweep", |_| ctx.fig5(CellKind::Inv, 0)),
                sec5c: rec.span("core.cbreak.sec5c", |_| ctx.sec5c()),
                fig3: rec.span("device.model.sweep", |_| ctx.fig3()),
            };
            rounds_s.push(t0.elapsed().as_secs_f64());
            let digest = pass.untimed(rec, || self.digest(&round));
            match &first {
                None => first = Some((round, digest)),
                Some((_, d)) if *d == digest => {}
                Some(_) => return Err("a round of artifacts differs from the first".into()),
            }
        }
        let (a, _) = first.expect("at least one round");
        let round_s = median(&rounds_s);
        pass.details.insert("artifacts_s", round_s);
        pass.untimed_s += rounds_s.iter().sum::<f64>() - round_s;

        let points = a.fig5.points.len() as u64;
        let failed_points = a.fig5.points.iter().filter(|p| failed_point(p)).count() as u64;
        pass.details
            .insert("failed_ops_share", failed_points as f64 / points as f64);
        pass.counts
            .insert("device.table.samples", ctx.table.len() as u64);
        pass.counts
            .insert("core.dictionary.entries", a.table3.entries.len() as u64);
        pass.counts.insert("analog.fig5.points", points);
        pass.counts
            .insert("analog.fig5.failed_points", failed_points);
        // The table build, then per round the four other artifact calls and
        // every Fig. 5 point; a point with a NaN value is a failed one.
        pass.attempted = 1 + ROUNDS as u64 * (4 + points);
        pass.failed = ROUNDS as u64 * failed_points;
        Ok(a)
    }

    fn digest(&self, a: &Artifacts) -> u64 {
        let mut d = Digest::default();
        for e in &a.table3.entries {
            d.usize(e.transistor)
                .str(&format!("{:?}", e.fault))
                .bools(&e.vector)
                .f64(e.v_out_healthy)
                .f64(e.v_out_faulty)
                .f64(e.iddq_healthy)
                .f64(e.iddq_faulty);
        }
        for (kind, swing, complete) in &a.sec5b.rows {
            d.str(&kind.to_string())
                .f64(*swing)
                .usize(usize::from(*complete));
        }
        for p in &a.fig5.points {
            d.f64(p.vcut)
                .f64(p.leak_pgs_open)
                .f64(p.leak_pgd_open)
                .f64(p.delay_pgs_open)
                .f64(p.delay_pgd_open);
        }
        for r in &a.sec5c.rows {
            d.usize(r.transistor)
                .f64(r.leakage_ratio)
                .f64(r.delay_ratio)
                .bools(&[
                    r.functionality_intact,
                    r.sof_testable,
                    r.new_algorithm_works,
                ]);
        }
        for (t, pairs) in &a.sec5c.nand_pairs {
            d.usize(*t);
            for p in pairs {
                d.bools(&p.init).bools(&p.eval);
            }
        }
        d.f64(a.fig3.i_sat_healthy);
        for (_, curve) in &a.fig3.curves {
            for (v, i) in curve {
                d.f64(*v).f64(*i);
            }
        }
        d.finish()
    }

    /// The thresholds of the repository's paper-claims tests, checked on
    /// this run's own outputs.
    fn verify(&self, _ctx: &Experiments, a: &Artifacts) -> Result<(), String> {
        // Table III.
        ensure!(
            a.table3.complete(),
            "Table III: a polarity fault has no detecting vector"
        );
        let expected = [[false, false], [true, true], [false, true], [true, false]];
        for (t, want) in expected.iter().enumerate() {
            ensure!(
                a.table3
                    .detecting(t, TransistorFault::StuckAtNType)
                    .iter()
                    .any(|e| e.vector == want),
                "Table III: t{} lacks stuck-at-n vector {want:?}",
                t + 1
            );
        }
        // Section V-B.
        let xor = a
            .sec5b
            .rows
            .iter()
            .find(|(k, _, _)| *k == CellKind::Xor2)
            .ok_or("Sec. V-B: XOR2 row missing")?;
        ensure!(
            xor.1 > 1e5 && xor.2,
            "Sec. V-B: XOR2 swing {:.3e} / complete {}",
            xor.1,
            xor.2
        );
        // Fig. 5.
        let swing = a.fig5.leakage_swing();
        ensure!(swing > 1e2, "Fig. 5: leakage swing {swing:.3e}");
        let first = a.fig5.points.first().ok_or("Fig. 5: no points")?;
        let last = a.fig5.points.last().ok_or("Fig. 5: no points")?;
        ensure!(
            first.delay_pgs_open.is_finite(),
            "Fig. 5: nominal point has no delay"
        );
        ensure!(
            !last.delay_pgs_open.is_finite()
                || last.delay_pgs_open > 1.5 * first.delay_pgs_open
                || last.leak_pgs_open > 50.0 * first.leak_pgs_open,
            "Fig. 5: the far end of the sweep is not degraded"
        );
        // Section V-C.
        for r in &a.sec5c.rows {
            let t = r.transistor + 1;
            ensure!(
                r.functionality_intact,
                "Sec. V-C t{t}: the break changed the function"
            );
            ensure!(
                r.leakage_ratio < 20.0,
                "Sec. V-C t{t}: leakage ratio {:.2}",
                r.leakage_ratio
            );
            ensure!(
                !r.delay_ratio.is_finite() || r.delay_ratio < 2.5,
                "Sec. V-C t{t}: delay ratio {:.2}",
                r.delay_ratio
            );
            ensure!(
                !r.sof_testable && r.new_algorithm_works,
                "Sec. V-C t{t}: algorithm verdicts"
            );
        }
        let bits = |s: &str| -> Vec<bool> { s.chars().map(|c| c == '1').collect() };
        for (t, init, eval) in [
            (0, "11", "01"),
            (1, "11", "10"),
            (2, "00", "11"),
            (3, "00", "11"),
        ] {
            ensure!(
                a.sec5c.nand_pairs[t]
                    .1
                    .iter()
                    .any(|p| p.init == bits(init) && p.eval == bits(eval)),
                "Sec. V-C: NAND t{} lacks ({init} -> {eval})",
                t + 1
            );
        }
        // Fig. 3.
        let row = |site: GateTerminal| {
            a.fig3
                .rows
                .iter()
                .find(|r| r.site == site)
                .ok_or(format!("Fig. 3: {site:?} row missing"))
        };
        let (pgs, cg, pgd) = (
            row(GateTerminal::Pgs)?,
            row(GateTerminal::Cg)?,
            row(GateTerminal::Pgd)?,
        );
        ensure!(
            pgs.sat_ratio > 0.03
                && pgs.sat_ratio < 0.6
                && pgs.delta_vth_mv > 20.0
                && pgs.delta_vth_mv < 300.0
                && pgs.negative_id_at_low_vds,
            "Fig. 3: PGS {pgs:?}"
        );
        ensure!(
            cg.sat_ratio > pgs.sat_ratio
                && cg.sat_ratio < 0.97
                && cg.delta_vth_mv > 40.0
                && cg.delta_vth_mv < 350.0
                && cg.negative_id_at_low_vds,
            "Fig. 3: CG {cg:?}"
        );
        ensure!(
            pgd.sat_ratio > 0.95 && pgd.sat_ratio < 1.2 && pgd.delta_vth_mv.abs() < 40.0,
            "Fig. 3: PGD {pgd:?}"
        );
        Ok(())
    }

    /// Every call of this workload is a layer boundary already.
    fn probe(&self, _ctx: &Experiments, _out: &Artifacts, _rec: &mut Recorder) {}
}
