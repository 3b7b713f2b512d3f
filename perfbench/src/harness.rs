//! The pass loop shared by every workload, plus output digests and
//! order statistics.

use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Passes every run makes at least, so each timing is a median of three.
pub const MIN_PASSES: usize = 3;

/// A set-up cheaper than this is repeated after every untraced pass until
/// the pass's set-up and its repeats add up to this much time, and the
/// pass's `setup_s` is their mean. One sub-millisecond set-up meets one
/// short host regime, so the median of single ones swings between the
/// regimes; a batch averages them out as a long set-up does. Spread over
/// the run, the batches meet the same host conditions as the passes do.
const SETUP_BATCH: Duration = Duration::from_millis(1_000);

/// Run index of the probe spans (the decomposition of opaque layers).
pub const PROBE_RUN: usize = 1_000;

/// One workload of the benchmark.
pub trait Workload {
    /// The workload after set-up: what `setup_s` measures the making of.
    type Ready;
    /// What the measured work produces.
    type Output;

    fn setup(&self, rec: &mut Recorder) -> Result<Self::Ready, String>;

    /// The measured work. Records end-to-end values and work counts in
    /// `pass`.
    fn run(
        &self,
        ready: &Self::Ready,
        rec: &mut Recorder,
        pass: &mut Pass,
    ) -> Result<Self::Output, String>;

    /// Digest of the simulated outputs: equal digests mean bit-identical
    /// results.
    fn digest(&self, out: &Self::Output) -> u64;

    /// Check the outputs against an independent computation.
    fn verify(&self, ready: &Self::Ready, out: &Self::Output) -> Result<(), String>;

    /// Traced run only: time, on the same input, the public calls that
    /// an opaque layer of the pass is made of.
    fn probe(&self, ready: &Self::Ready, out: &Self::Output, rec: &mut Recorder);
}

/// What one pass reports besides its spans.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Set-up time; for a cheap set-up, the mean over a batch of repeats.
    pub setup_s: f64,
    pub wall_s: f64,
    /// `wall_s` less this pass's own set-up: the work after set-up.
    pub work_s: f64,
    /// Work inside the pass that `wall_s` leaves out: benchmark-side
    /// work, and repeats of work that the flow makes once.
    pub untimed_s: f64,
    /// Values that only this workload has (its test-set size, its
    /// coverage...), by name: printed in the report above the result
    /// line, which holds the metrics every workload has.
    pub details: BTreeMap<&'static str, f64>,
    /// Work counts; they must repeat exactly for a given seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-layer values the library reports itself (phase times).
    pub layer: BTreeMap<&'static str, f64>,
    /// Per-query latencies, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations of the pass, and how many of them failed; they must
    /// repeat exactly for a given seed.
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
}

impl Pass {
    /// Run benchmark-side work (input preparation) that the pass's
    /// `wall_s` must not include.
    pub fn untimed<T>(&mut self, rec: &mut Recorder, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = rec.span(UNTIMED, |_| f());
        self.untimed_s += t0.elapsed().as_secs_f64();
        out
    }
}

/// Span name of benchmark-side work excluded from `wall_s`.
pub const UNTIMED: &str = "bench.untimed";
/// Root span of one pass.
pub const PASS: &str = "bench.pass";

/// The passes of one loop.
pub struct Measured {
    pub passes: Vec<Pass>,
    /// Peak resident memory of the process after its first pass, MB.
    pub peak_rss_mb: f64,
}

/// Run passes until `seconds` have gone by and at least
/// [`MIN_PASSES`] are done. The first pass of a loop is verified when
/// `verify` is set; every later pass must reproduce its counts and digest.
pub fn measure<W: Workload>(
    w: &W,
    seconds: f64,
    rec: &mut Recorder,
    verify: bool,
) -> Result<Measured, String> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut quiet = Recorder::new(false);
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let index = passes.len();
        rec.set_run(index);
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let (ready, out) = rec.span(PASS, |rec| -> Result<_, String> {
            let ready = w.setup(rec)?;
            pass.setup_s = t0.elapsed().as_secs_f64();
            let out = w.run(&ready, rec, &mut pass)?;
            Ok((ready, out))
        })?;
        pass.wall_s = t0.elapsed().as_secs_f64() - pass.untimed_s;
        pass.work_s = pass.wall_s - pass.setup_s;
        pass.digest = w.digest(&out);
        if index == 0 {
            // Read before the checks below, whose reference computations
            // would otherwise raise the high-water mark.
            peak_rss_mb = crate::peak_rss_mb()?;
            if verify {
                w.verify(&ready, &out)?;
            }
            if rec.enabled() {
                rec.set_run(PROBE_RUN);
                w.probe(&ready, &out, rec);
            }
        } else {
            same_work(&passes[0], &pass)?;
        }
        // The traced run reports no set-up time.
        if !rec.enabled() {
            let (mut total_s, mut count) = (pass.setup_s, 1);
            while total_s < SETUP_BATCH.as_secs_f64() {
                let t0 = Instant::now();
                let ready = w.setup(&mut quiet)?;
                total_s += t0.elapsed().as_secs_f64();
                count += 1;
                drop(ready);
            }
            pass.setup_s = total_s / f64::from(count);
        }
        passes.push(pass);
    }
    Ok(Measured {
        passes,
        peak_rss_mb,
    })
}

/// Two passes of one seed must do the same work and produce the same
/// outputs.
pub fn same_work(a: &Pass, b: &Pass) -> Result<(), String> {
    if a.counts != b.counts {
        return Err(format!(
            "work counts differ between passes: {:?} vs {:?}",
            a.counts, b.counts
        ));
    }
    if (a.attempted, a.failed) != (b.attempted, b.failed) {
        return Err(format!(
            "operations differ between passes: {} attempted, {} failed vs {} attempted, {} failed",
            a.attempted, a.failed, b.attempted, b.failed
        ));
    }
    if a.digest != b.digest {
        return Err(format!(
            "output digest differs between passes: {:016x} vs {:016x}",
            a.digest, b.digest
        ));
    }
    Ok(())
}

/// FNV-1a over 64-bit words: a digest of simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        self
    }
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }
    pub fn bools(&mut self, v: &[bool]) -> &mut Self {
        self.usize(v.len());
        for chunk in v.chunks(64) {
            self.u64(chunk.iter().rev().fold(0, |w, &b| (w << 1) | u64::from(b)));
        }
        self
    }
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len());
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
        self
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: derives the campaign and probe seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile `p` in `[0, 100]` of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = Digest::default().bools(&[true, false]).finish();
        let b = Digest::default().bools(&[false, true]).finish();
        let c = Digest::default().bools(&[true, false, false]).finish();
        assert!(a != b && a != c && b != c);
    }
}
