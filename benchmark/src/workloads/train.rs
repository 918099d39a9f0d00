//! `train_steps`: closed loop, one caller. Small generator and
//! discriminator, 40x40 city, whole frames, S = 3, up-4, batch 8,
//! `GanTrainer` with the Eq. 9 loss and n_G = n_D = 1: pre-train steps,
//! then adversarial iterations, then online-adaptation rounds
//! (`fine_tune_container` over buffered 20x20 pairs with the container
//! written, `plan_zipnet`, `holdout_nrmse`), each round timed as a unit.

use crate::fixture::{self, Res, Scratch, CW, PLAN_BATCH, S, TRAIN_BATCH, UPSCALE};
use crate::report::Outcome;
use crate::stats::{checksum_f32, median, percentile, supports};
use crate::trace::Recorder;
use mtsr_nn::clip::global_grad_norm;
use mtsr_nn::layer::Layer;
use mtsr_nn::loss::mse_loss;
use mtsr_nn::{Adam, Optimizer};
use mtsr_serve::{holdout_nrmse, AdaptPair};
use mtsr_tensor::Rng;
use mtsr_traffic::{CityConfig, Dataset, Split};
use std::path::PathBuf;
use std::time::Instant;
use zipnet_core::{
    fine_tune_container, plan_zipnet, ArchScale, Discriminator, FusePolicy, GanTrainer,
    OnlineTuneConfig, TrainingReport, ZipNet,
};

/// Phase sizes at the contract's `run_seconds`; they scale with
/// `--seconds`. Forty pre-train steps is the fewest whose p75 has ten
/// samples beyond it.
const PRETRAIN_STEPS: f64 = 40.0;
const ADV_ITERS: f64 = 12.0;
/// Adaptation rounds per run (their median is reported) and their size.
const ROUNDS: usize = 3;
const FINETUNE_STEPS: usize = 24;
const FINETUNE_PAIRS: usize = 40;
const HOLDOUT_PAIRS: usize = 8;

/// Fresh networks and the minibatch sampler of the measured phases.
struct Trainable {
    gen: ZipNet,
    disc: Discriminator,
    rng: Rng,
}

struct Setup {
    ds: Dataset,
    /// Training container the adaptation rounds resume from.
    container: PathBuf,
    tune: OnlineTuneConfig,
    pairs: Vec<AdaptPair>,
    holdout: Vec<AdaptPair>,
    scratch: Scratch,
}

fn small_nets(rng: &mut Rng) -> Res<(ZipNet, Discriminator)> {
    Ok((
        ZipNet::new(&ArchScale::Small.gen_config(UPSCALE, S), rng)?,
        Discriminator::new(&ArchScale::Small.disc_config(), rng)?,
    ))
}

fn setup(seed: u64) -> Res<(Setup, Trainable)> {
    let mut rng = Rng::seed_from(seed);
    let city = fixture::city(&CityConfig::small(), 16, &mut rng)?;
    let scratch = Scratch::new()?;
    let container = scratch.file("live.ckpt");
    let fp = fixture::fingerprint(ArchScale::Small, city.frames.layout().grid, seed);
    // The live model of the adaptation rounds: warmed, container written.
    let live = Some((container.as_path(), fp.clone()));
    fixture::warm_model(ArchScale::Small, &city.crops, live, &mut rng)?;
    let mut pairs: Vec<AdaptPair> = fixture::window_pool(&city.frames, &mut rng)?
        .iter()
        .take(FINETUNE_PAIRS + HOLDOUT_PAIRS)
        .map(fixture::Window::pair)
        .collect();
    let holdout = pairs.split_off(FINETUNE_PAIRS);

    // A throw-away trainer at the measured shape warms the kernels'
    // scratch arenas and the worker pool.
    let (gen, disc) = small_nets(&mut rng)?;
    GanTrainer::new(gen, disc, fixture::train_config(2, 1)).train(&city.frames, &mut rng.fork())?;

    let (gen, disc) = small_nets(&mut rng)?;
    let setup = Setup {
        ds: city.frames,
        container,
        tune: OnlineTuneConfig {
            scale: ArchScale::Small,
            base: fixture::train_config(fixture::WARM_STEPS, 0),
            upscale: UPSCALE,
            s: S,
            steps: FINETUNE_STEPS,
            expected_fingerprint: Some(fp),
        },
        pairs,
        holdout,
        scratch,
    };
    Ok((setup, Trainable { gen, disc, rng }))
}

/// Per-step wall times (ms) the trainer recorded for the named phase.
fn step_ms(report: &TrainingReport, phase: &str) -> Vec<f64> {
    report
        .phases
        .iter()
        .filter(|p| p.name == phase)
        .flat_map(|p| p.epochs.iter().map(|e| e.wall_ms))
        .collect()
}

/// Runs `steps` pre-train steps, then `iters` adversarial iterations,
/// each phase through its own `GanTrainer::train` call so that the
/// trainer records per-step times and the benchmark's clock is around
/// exactly one phase. Returns both reports and both phase times (s).
fn train_phases(
    ds: &Dataset,
    nets: Trainable,
    steps: usize,
    iters: usize,
) -> Res<(TrainingReport, f64, TrainingReport, f64)> {
    let Trainable { gen, disc, mut rng } = nets;
    let rng = &mut rng;
    let mut trainer = GanTrainer::new(gen, disc, fixture::train_config(steps, 0));
    let t0 = Instant::now();
    let pretrain = trainer.train(ds, rng)?;
    let pretrain_s = t0.elapsed().as_secs_f64();
    let (gen, disc) = trainer.into_parts();
    let mut trainer = GanTrainer::new(gen, disc, fixture::train_config(0, iters));
    let t0 = Instant::now();
    let adversarial = trainer.train(ds, rng)?;
    Ok((
        pretrain,
        pretrain_s,
        adversarial,
        t0.elapsed().as_secs_f64(),
    ))
}

/// Losses are finite, nothing diverged, and every step was recorded.
fn check_reports(
    out: &mut Outcome,
    pre: &TrainingReport,
    adv: &TrainingReport,
    steps: usize,
    iters: usize,
) {
    let finite = |v: &[f32]| v.iter().all(|l| l.is_finite());
    out.check(!pre.diverged && !adv.diverged, || {
        "training diverged".into()
    });
    out.check(
        finite(&pre.pretrain_mse) && finite(&adv.g_loss) && finite(&adv.d_loss),
        || "non-finite loss".into(),
    );
    out.check(
        pre.pretrain_mse.len() == steps && adv.g_loss.len() == iters && adv.d_loss.len() == iters,
        || "a loss trace is shorter than its phase".into(),
    );
}

/// One online-adaptation round as the daemon's tuner and gate perform
/// it. Returns `(seconds, fine-tune losses, holdout NRMSE)`.
fn adaptation_round(s: &Setup, round: usize) -> Res<(f64, Vec<f32>, f32)> {
    let out = s.scratch.file(&format!("adapt{round}.ckpt"));
    let t0 = Instant::now();
    let mut outcome = fine_tune_container(&s.container, Some(&out), &s.tune, &s.pairs)?;
    let exec = plan_zipnet(
        &mut outcome.generator,
        FusePolicy::Folded,
        PLAN_BATCH,
        CW,
        CW,
    )?;
    let score = holdout_nrmse(exec.plan(), &s.holdout)?;
    Ok((t0.elapsed().as_secs_f64(), outcome.losses, score))
}

fn mean(v: &[f32]) -> f32 {
    v.iter().sum::<f32>() / v.len() as f32
}

/// Phase sizes for a run of `seconds`.
fn sizes(seconds: f64) -> (usize, usize) {
    let scale = seconds / crate::ledger::RUN_SECONDS as f64;
    (
        ((PRETRAIN_STEPS * scale).round() as usize).max(4),
        ((ADV_ITERS * scale).round() as usize).max(2),
    )
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (setup_s, (s, nets)) = fixture::timed_setup(|| setup(seed), drop)?;
    let (steps, iters) = sizes(seconds);
    let (pre, pre_s, adv, adv_s) = train_phases(&s.ds, nets, steps, iters)?;
    check_reports(&mut out, &pre, &adv, steps, iters);
    let quarter = (steps / 4).max(1);
    let (head, tail) = (
        mean(&pre.pretrain_mse[..quarter]),
        mean(&pre.pretrain_mse[steps - quarter..]),
    );
    out.check(tail < head, || {
        format!("pre-train MSE did not fall: {head} -> {tail}")
    });

    let mut round_ms = Vec::with_capacity(ROUNDS);
    let mut tune_losses = Vec::new();
    for round in 0..ROUNDS {
        let (secs, losses, score) = adaptation_round(&s, round)?;
        out.check(
            losses.iter().all(|l| l.is_finite()) && score.is_finite(),
            || format!("adaptation round {round}: non-finite loss or holdout score"),
        );
        // Every round resumes the same container on the same pairs.
        out.check(round == 0 || losses == tune_losses, || {
            format!("adaptation round {round} is not the arithmetic of round 0")
        });
        tune_losses = losses;
        round_ms.push(secs * 1e3);
    }

    let mut pre_ms = step_ms(&pre, "pretrain");
    let mut adv_ms = step_ms(&adv, "adversarial");
    // Two end-to-end metrics rest on the trainer's per-step clock; it
    // must account for the phase the benchmark's own clock saw.
    for (name, ms, own_s) in [
        ("pretrain", &pre_ms, pre_s),
        ("adversarial", &adv_ms, adv_s),
    ] {
        let cover = ms.iter().sum::<f64>() / 1e3 / own_s;
        out.check((0.95..=1.001).contains(&cover), || {
            format!(
                "{name}: per-step times cover {:.1}% of the phase",
                cover * 100.0
            )
        });
    }
    out.attempted = (steps + iters + ROUNDS) as u64;
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", steps as f64 / pre_s);
    out.set("op_ms_p50", median(&mut adv_ms));
    out.set("op_ms_tail", percentile(&mut pre_ms, 75.0));
    out.set("second_ms_p50", median(&mut round_ms));
    out.check(
        seconds < crate::ledger::RUN_SECONDS as f64 || supports(steps, 75.0),
        || format!("{steps} pre-train steps: p75 has fewer than 10 beyond it"),
    );
    out.row(
        "adv_iters_per_s",
        "1/s",
        iters as f64 / adv_s,
        format!("{iters} iterations, own clock; op_ms_p50 is the trainer's per-step clock"),
    );
    out.timing_row("pretrain_step_ms", &mut pre_ms, "trainer's per-step clock");
    out.row(
        "finetune_s",
        "s",
        median(&mut round_ms) / 1e3,
        format!(
            "= second_ms_p50 / 1000: {FINETUNE_STEPS} steps over {FINETUNE_PAIRS} pairs, plan, \
             holdout on {HOLDOUT_PAIRS}; median of {ROUNDS}"
        ),
    );
    let checksum = checksum_f32(
        pre.pretrain_mse
            .iter()
            .chain(&adv.g_loss)
            .chain(&adv.d_loss)
            .chain(&tune_losses)
            .copied(),
    );
    out.row(
        "loss_trace_checksum",
        "",
        (checksum >> 40) as f64,
        format!(
            "{checksum:016x} over {} losses: equal on two runs of one seed",
            steps + 2 * iters + tune_losses.len()
        ),
    );
    Ok(out)
}

/// A pre-train step re-enacted from public pieces, each under a span,
/// with the trainer's arithmetic: `sample_batch`, `forward`, `mse_loss`,
/// `backward`, gradient norm, `Adam::step`.
struct Reenactor {
    gen: ZipNet,
    adam: Adam,
    rng: Rng,
    step: u64,
}

impl Reenactor {
    fn step(&mut self, rec: &mut Recorder, ds: &Dataset) -> Res<f32> {
        let op = self.step;
        self.step += 1;
        rec.scope("bench.pretrain_step", op, |rec| {
            let (x, y) = rec.scope("traffic.sample_batch", op, |_| {
                ds.sample_batch(Split::Train, TRAIN_BATCH, &mut self.rng)
            })?;
            let pred = rec.scope("core.g_forward", op, |_| self.gen.forward(&x, true))?;
            let (loss, grad) = rec.scope("nn.mse_loss", op, |_| mse_loss(&pred, &y))?;
            rec.scope("core.g_backward", op, |_| self.gen.backward(&grad))?;
            rec.scope("nn.grad_norm", op, |_| global_grad_norm(&mut self.gen));
            rec.scope("nn.adam_step", op, |_| self.adam.step(&mut self.gen));
            Ok(loss)
        })
    }
}

/// The traced run: every per-layer metric, the trace file, and the check
/// that the re-enacted step is the trainer's step and costs the same.
pub fn run_traced(seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::default();
    crate::layers::measure_all(&mut out, seed)?;
    let (s, mut nets) = setup(seed)?;
    // Half length: with fewer steps the two medians compared below are
    // too noisy for a 5% gate.
    let (steps, iters) = sizes(seconds / 2.0);

    // A second copy of the fresh generator and of the sampler's state.
    let mut twin = ZipNet::new(
        &ArchScale::Small.gen_config(UPSCALE, S),
        &mut Rng::seed_from(0),
    )?;
    mtsr_nn::io::from_bytes(&mut twin, &mtsr_nn::io::to_bytes(&mut nets.gen))?;
    let mut re = Reenactor {
        gen: twin,
        adam: Adam::new(fixture::train_config(0, 0).lr),
        rng: Rng::from_state(nets.rng.state()),
        step: 0,
    };
    let mut rec = Recorder::new(Instant::now());
    // Half the re-enacted steps run before the trainer and half after,
    // so drift in machine speed lands on both sides of the comparison.
    let mut losses = Vec::with_capacity(steps);
    let mut traced_ms = Vec::with_capacity(steps);
    let mut reenact = |n: usize, rec: &mut Recorder| -> Res<()> {
        mtsr_telemetry::set_enabled(true);
        for _ in 0..n {
            let t0 = Instant::now();
            losses.push(re.step(rec, &s.ds)?);
            traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        mtsr_telemetry::set_enabled(false);
        Ok(())
    };
    reenact(steps / 2, &mut rec)?;
    let (pre, _, adv, _) = train_phases(&s.ds, nets, steps, iters)?;
    reenact(steps - steps / 2, &mut rec)?;
    check_reports(&mut out, &pre, &adv, steps, iters);
    out.check(
        losses
            .iter()
            .map(|l| l.to_bits())
            .eq(pre.pretrain_mse.iter().map(|l| l.to_bits())),
        || {
            format!(
                "re-enacted losses {losses:?} differ from GanTrainer's {:?}",
                pre.pretrain_mse
            )
        },
    );

    let (step50, traced50) = (
        median(&mut step_ms(&pre, "pretrain")),
        median(&mut traced_ms),
    );
    let share = (traced50 - step50) / step50 * 100.0;
    out.attempted = (2 * steps + iters) as u64;
    out.set("core.pretrain_step_ms_p50", step50);
    out.set(
        "core.adv_iter_ms_p50",
        median(&mut step_ms(&adv, "adversarial")),
    );
    out.set("telemetry.trace_overhead_share", share);
    // A step's spans partition it, so their self times sum to the
    // re-enacted step; the ledger is honest if that equals the real one.
    out.check(share.abs() <= 5.0, || {
        format!(
            "layers do not add up: re-enacted step {traced50:.3} ms vs trainer's {step50:.3} ms"
        )
    });
    out.timing_row("pretrain_step_ms_reenacted", &mut traced_ms, "");
    out.self_time_rows(&rec, steps);
    crate::write_trace("train_steps", &rec)?;
    Ok(out)
}
