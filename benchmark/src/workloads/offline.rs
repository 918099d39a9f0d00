//! `offline_frames`: closed loop, one caller. Paper geometry — 100x100
//! synthetic Milan grid, up-4, S = 3, 80x80 windows at stride 20 (four
//! windows per frame), Small generator — through
//! `InferSession::predict_full` with plan batch 4, first under
//! `FusePolicy::Folded`, then under `FusePolicy::Quantized`.

use crate::fixture::{self, Res, PLAN_BATCH, S, UPSCALE};
use crate::report::Outcome;
use crate::stats::{median, percentile, supports};
use crate::trace::Recorder;
use mtsr_metrics::nrmse;
use mtsr_tensor::{Rng, Tensor};
use mtsr_traffic::augment::ReassemblePlan;
use mtsr_traffic::{CityConfig, Dataset, Split};
use std::hint::black_box;
use std::time::{Duration, Instant};
use zipnet_core::pipeline::crop_coarse;
use zipnet_core::{
    plan_zipnet, ArchScale, FusePolicy, InferExec, InferSession, MtsrPipeline, ZipNet,
};

/// Fine window side and stride of the paper's sliding-window inference.
const WINDOW: usize = 80;
const STRIDE: usize = 20;
/// Frames compared against `FusePolicy::Exact` before measuring.
const CHECKED_FRAMES: usize = 2;
/// The repository's own tolerances (crates/core/tests/fused_inference.rs):
/// Folded within f32 round-off of Exact, Quantized NRMSE against ground
/// truth at most this much above Exact's.
const FOLDED_MAX_ABS: f32 = 1e-3;
const QUANTIZED_NRMSE_DELTA: f32 = 0.05;

struct Setup {
    ds: Dataset,
    gen: ZipNet,
    folded: InferSession,
    quantized: InferSession,
    test: Vec<usize>,
}

fn setup(seed: u64) -> Res<Setup> {
    let mut rng = Rng::seed_from(seed);
    let city = fixture::city(&CityConfig::paper(), 16, &mut rng)?;
    let (mut gen, _disc) = fixture::warm_model(ArchScale::Small, &city.crops, None, &mut rng)?;
    let pipe = MtsrPipeline::new(WINDOW, STRIDE);
    let ds = city.frames;
    let folded = pipe.session(&mut gen, &ds, FusePolicy::Folded, PLAN_BATCH)?;
    let quantized = pipe.session(&mut gen, &ds, FusePolicy::Quantized, PLAN_BATCH)?;
    let test = ds.usable_indices(Split::Test);
    Ok(Setup {
        ds,
        gen,
        folded,
        quantized,
        test,
    })
}

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Folded and Quantized frames are finite and within the repository's
/// tolerances of the Exact route.
fn check_outputs(s: &mut Setup, out: &mut Outcome) -> Res<()> {
    let pipe = MtsrPipeline::new(WINDOW, STRIDE);
    let mut exact = pipe.session(&mut s.gen, &s.ds, FusePolicy::Exact, PLAN_BATCH)?;
    for &t in s.test.iter().take(CHECKED_FRAMES) {
        let reference = exact.predict_full(&s.ds, t)?;
        let folded = s.folded.predict_full(&s.ds, t)?;
        let quantized = s.quantized.predict_full(&s.ds, t)?;
        out.check(folded.is_finite() && quantized.is_finite(), || {
            format!("frame {t}: non-finite output")
        });
        let drift = max_abs_diff(&folded, &reference);
        out.check(drift < FOLDED_MAX_ABS, || {
            format!("frame {t}: Folded differs from Exact by {drift}")
        });
        let truth = s.ds.fine_frame_raw(t)?;
        let e_exact = nrmse(&s.ds.denormalize(&reference), &truth)?;
        let e_quant = nrmse(&s.ds.denormalize(&quantized), &truth)?;
        out.check(e_quant - e_exact < QUANTIZED_NRMSE_DELTA, || {
            format!("frame {t}: Quantized NRMSE {e_quant} vs Exact {e_exact}")
        });
    }
    Ok(())
}

/// Frame times (ms) of `session` cycling over the test split for `dur`.
fn measure(
    session: &mut InferSession,
    ds: &Dataset,
    test: &[usize],
    dur: Duration,
) -> Res<Vec<f64>> {
    for &t in test.iter().take(2) {
        black_box(session.predict_full(ds, t)?);
    }
    let mut ms = Vec::new();
    let start = Instant::now();
    while start.elapsed() < dur {
        let t = test[ms.len() % test.len()];
        let t0 = Instant::now();
        black_box(session.predict_full(ds, t)?);
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(ms)
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (setup_s, mut s) = fixture::timed_setup(|| setup(seed), drop)?;
    check_outputs(&mut s, &mut out)?;

    let half = Duration::from_secs_f64(seconds / 2.0);
    let t0 = Instant::now();
    let mut folded = measure(&mut s.folded, &s.ds, &s.test, half)?;
    let folded_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut quantized = measure(&mut s.quantized, &s.ds, &s.test, half)?;
    let quantized_s = t0.elapsed().as_secs_f64();

    out.attempted = (folded.len() + quantized.len()) as u64;
    // The warm-up frames inside `measure` are in the elapsed time but not
    // in the samples: rate = samples / time spent on samples.
    let rate = |ms: &[f64]| ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3);
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", rate(&folded));
    out.set("op_ms_p50", median(&mut folded));
    out.set("op_ms_tail", percentile(&mut folded, 75.0));
    out.set("second_ms_p50", median(&mut quantized));
    out.row(
        "frames_per_s_quantized",
        "1/s",
        rate(&quantized),
        "second_ms_p50 is this route's median frame time",
    );
    out.timing_row("frame_ms", &mut folded, &format!("phase {folded_s:.1} s"));
    out.timing_row(
        "frame_ms_quantized",
        &mut quantized,
        &format!("phase {quantized_s:.1} s"),
    );
    let full_length = seconds >= crate::ledger::RUN_SECONDS as f64;
    out.check(!full_length || supports(folded.len(), 75.0), || {
        format!(
            "only {} Folded frames: p75 has fewer than 10 beyond it",
            folded.len()
        )
    });
    Ok(out)
}

/// One frame re-enacted from public pieces, each call under a span.
struct Reenactor {
    exec: InferExec,
    plan: ReassemblePlan,
    origins: Vec<(usize, usize)>,
    input: Vec<f32>,
    output: Vec<f32>,
}

impl Reenactor {
    fn new(gen: &mut ZipNet, ds: &Dataset) -> Res<Reenactor> {
        let geo = MtsrPipeline::new(WINDOW, STRIDE).geometry(ds)?;
        let cw = WINDOW / UPSCALE;
        Ok(Reenactor {
            exec: plan_zipnet(gen, FusePolicy::Folded, PLAN_BATCH, cw, cw)?,
            plan: ReassemblePlan::new(&geo.origins, WINDOW, geo.grid)?,
            origins: geo.origins,
            input: vec![0.0; PLAN_BATCH * S * cw * cw],
            output: vec![0.0; PLAN_BATCH * WINDOW * WINDOW],
        })
    }

    fn frame(&mut self, rec: &mut Recorder, op: u64, ds: &Dataset, t: usize) -> Res<Tensor> {
        let cw = WINDOW / UPSCALE;
        let (crop_len, win_len) = (S * cw * cw, WINDOW * WINDOW);
        rec.scope("bench.frame", op, |rec| {
            let sample = rec.scope("traffic.sample_at", op, |_| ds.sample_at(t))?;
            let sq = sample.input.dims()[2];
            rec.scope("traffic.reassemble", op, |_| self.plan.begin());
            for chunk in self.origins.chunks(PLAN_BATCH) {
                rec.scope("core.crop", op, |_| {
                    for (lane, &(y0, x0)) in chunk.iter().enumerate() {
                        crop_coarse(
                            sample.input.as_slice(),
                            S,
                            sq,
                            (y0 / UPSCALE, x0 / UPSCALE),
                            cw,
                            &mut self.input[lane * crop_len..(lane + 1) * crop_len],
                        );
                    }
                });
                rec.scope("core.exec", op, |_| {
                    self.exec.run_into(&self.input, &mut self.output)
                })?;
                rec.scope("traffic.reassemble", op, |_| {
                    chunk.iter().enumerate().try_for_each(|(lane, &origin)| {
                        self.plan
                            .add_window(origin, &self.output[lane * win_len..(lane + 1) * win_len])
                    })
                })?;
            }
            Ok(rec.scope("traffic.reassemble", op, |_| self.plan.finish())?)
        })
    }
}

/// The traced run: every per-layer metric, the trace file, and the check
/// that the re-enacted frame is the real frame and costs the same.
pub fn run_traced(seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut s = setup(seed)?;
    crate::layers::measure_all(&mut out, seed)?;

    let mut re = Reenactor::new(&mut s.gen, &s.ds)?;
    let mut rec = Recorder::new(Instant::now());
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    for &t in s.test.iter().take(2) {
        black_box(s.folded.predict_full(&s.ds, t)?);
    }
    // Untraced and traced frames alternate, so drift in machine speed
    // over the phase lands on both sides of the comparison.
    let start = Instant::now();
    let dur = Duration::from_secs_f64(seconds / 2.0);
    let mut op = 0u64;
    while start.elapsed() < dur {
        let t = s.test[op as usize % s.test.len()];
        mtsr_telemetry::set_enabled(false);
        let t0 = Instant::now();
        let real = s.folded.predict_full(&s.ds, t)?;
        plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        mtsr_telemetry::set_enabled(true);
        let t0 = Instant::now();
        let reenacted = re.frame(&mut rec, op, &s.ds, t)?;
        traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.check(real.as_slice() == reenacted.as_slice(), || {
            format!("frame {t}: re-enacted output differs from predict_full")
        });
        op += 1;
    }
    mtsr_telemetry::set_enabled(false);
    out.attempted = 2 * op;

    let (plain, traced) = (median(&mut plain_ms), median(&mut traced_ms));
    let share = (traced - plain) / plain * 100.0;
    out.set("telemetry.trace_overhead_share", share);
    out.timing_row("frame_ms_untraced", &mut plain_ms, "");
    out.timing_row("frame_ms_reenacted", &mut traced_ms, "");
    // A frame's spans partition it, so their self times sum to the
    // re-enacted frame; the ledger is honest if that equals the real one.
    out.check(share.abs() <= 5.0, || {
        format!("layers do not add up: re-enacted frame {traced:.3} ms vs real {plain:.3} ms")
    });
    out.self_time_rows(&rec, op as usize);
    crate::write_trace("offline_frames", &rec)?;
    Ok(out)
}
