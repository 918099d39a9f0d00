//! Seeded inputs shared by the workloads: synthetic cities, warmed
//! models, training containers, window pools and in-process daemons.
//! Everything here is set-up work and is timed as `setup_s`.

use mtsr_serve::{
    AdaptConfig, AdaptPair, InferRequest, ModelSpec, ServeConfig, Server, ServerHandle,
    TruthRequest,
};
use mtsr_tensor::{Rng, Tensor};
use mtsr_traffic::{
    AugmentConfig, CityConfig, Dataset, DatasetConfig, MilanGenerator, MtsrInstance, ProbeLayout,
    Split,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use zipnet_core::pipeline::crop_coarse;
use zipnet_core::{
    plan_zipnet, ArchScale, CheckpointPolicy, Discriminator, FusePolicy, GanTrainer,
    GanTrainingConfig, InferPlan, ZipNet,
};

/// Errors of any layer, as text.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Temporal input length of every workload.
pub const S: usize = 3;
/// Upscaling factor of every workload (the up-4 instance).
pub const UPSCALE: usize = 4;
/// Windows per planned executor invocation.
pub const PLAN_BATCH: usize = 4;
/// Fine side of the served and fine-tuned windows.
pub const WINDOW: usize = 20;
/// Coarse side of those windows.
pub const CW: usize = WINDOW / UPSCALE;
/// Warm pre-train steps every model gets during set-up, so BatchNorm
/// statistics and weights are those of a (barely) trained model.
pub const WARM_STEPS: usize = 8;
/// Minibatch of the warm steps, of the measured training and of the
/// fine-tune.
pub const TRAIN_BATCH: usize = 8;

/// A directory under `benchmark/out/` removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `benchmark/out/tmp-<pid>-<n>`.
    pub fn new() -> Res<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir().join(format!(
            "tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and harmless.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark writes: `benchmark/out` under the current
/// directory, which `run.sh` makes the repository root.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark").join("out")
}

/// A generated city: the whole-frame dataset and a second view of the
/// same movie that trains on `WINDOW`-sized crops.
pub struct City {
    /// Whole frames (what is predicted, served and trained on).
    pub frames: Dataset,
    /// Same movie, `Train` batches are 20x20 crops (warm steps).
    pub crops: Dataset,
}

/// Generates a seeded city of `test + 24` frames and builds its datasets.
pub fn city(cfg: &CityConfig, test: usize, rng: &mut Rng) -> Res<City> {
    let ds_cfg = DatasetConfig {
        s: S,
        train: 16,
        valid: 8,
        test,
        augment: None,
    };
    let generator = MilanGenerator::new(cfg, rng)?;
    let movie = generator.generate(ds_cfg.total(), rng)?;
    let layout = ProbeLayout::for_instance(generator.city(), MtsrInstance::Up4)?;
    let crops_cfg = DatasetConfig {
        augment: Some(AugmentConfig {
            window: WINDOW,
            stride: WINDOW,
        }),
        ..ds_cfg
    };
    Ok(City {
        frames: Dataset::build(&movie, layout.clone(), ds_cfg)?,
        crops: Dataset::build(&movie, layout, crops_cfg)?,
    })
}

/// The training configuration of every trainer the benchmark builds: the
/// paper's (Eq. 9 loss, n_G = n_D = 1) at the CPU-scale learning rate.
pub fn train_config(pretrain_steps: usize, adversarial_steps: usize) -> GanTrainingConfig {
    GanTrainingConfig {
        lr: 1e-3,
        ..GanTrainingConfig::paper(pretrain_steps, adversarial_steps, TRAIN_BATCH)
    }
}

fn arch_name(scale: ArchScale) -> &'static str {
    match scale {
        ArchScale::Paper => "paper",
        ArchScale::Small => "small",
        ArchScale::Tiny => "tiny",
    }
}

/// Container fingerprint of a warmed model; online adaptation checks its
/// geometry keys.
pub fn fingerprint(scale: ArchScale, grid: usize, seed: u64) -> String {
    format!(
        "mtsr-train/v1 instance=up4 grid={grid} days=0 s={S} seed={seed} steps={WARM_STEPS} \
         adv=0 gan=false batch={TRAIN_BATCH} arch={}",
        arch_name(scale)
    )
}

/// Builds generator and discriminator of `scale` and runs [`WARM_STEPS`]
/// pre-train steps on 20x20 crops. With `container` set, the trainer's
/// final training container is written there.
pub fn warm_model(
    scale: ArchScale,
    crops: &Dataset,
    container: Option<(&Path, String)>,
    rng: &mut Rng,
) -> Res<(ZipNet, Discriminator)> {
    let gen = ZipNet::new(&scale.gen_config(UPSCALE, S), rng)?;
    let disc = Discriminator::new(&scale.disc_config(), rng)?;
    let mut trainer = GanTrainer::new(gen, disc, train_config(WARM_STEPS, 0));
    if let Some((path, fp)) = container {
        trainer.set_checkpoint_policy(CheckpointPolicy::final_only(path, fp));
    }
    trainer.pretrain(crops, rng)?;
    trainer.write_final_checkpoint(rng)?;
    Ok(trainer.into_parts())
}

/// One servable window: the `INFER` request carrying its coarse crop and
/// the `TRUTH` request carrying its fine ground truth (both model 0).
pub struct Window {
    /// Input `[S, CW, CW]`, normalised; `deadline_ms = 0` takes the
    /// daemon's default deadline.
    pub infer: InferRequest,
    /// Target `[WINDOW, WINDOW]`, normalised.
    pub truth: TruthRequest,
}

impl Window {
    /// The window as a fine-tune pair.
    pub fn pair(&self) -> AdaptPair {
        AdaptPair {
            input: self.infer.data.clone(),
            target: self.truth.data.clone(),
        }
    }
}

/// Every aligned 20x20 window of every test-split frame, in a seeded
/// order.
pub fn window_pool(ds: &Dataset, rng: &mut Rng) -> Res<Vec<Window>> {
    let (g, sq) = (ds.layout().grid, ds.layout().square);
    let mut pool = Vec::new();
    for t in ds.usable_indices(Split::Test) {
        let sample = ds.sample_at(t)?;
        let fine = sample.target.as_slice();
        for y0 in (0..=g - WINDOW).step_by(WINDOW) {
            for x0 in (0..=g - WINDOW).step_by(WINDOW) {
                let mut input = vec![0.0f32; S * CW * CW];
                crop_coarse(
                    sample.input.as_slice(),
                    S,
                    sq,
                    (y0 / UPSCALE, x0 / UPSCALE),
                    CW,
                    &mut input,
                );
                let mut target = Vec::with_capacity(WINDOW * WINDOW);
                for r in 0..WINDOW {
                    target.extend_from_slice(&fine[(y0 + r) * g + x0..][..WINDOW]);
                }
                pool.push(Window {
                    infer: InferRequest {
                        model: 0,
                        deadline_ms: 0,
                        s: S as u32,
                        h: CW as u32,
                        w: CW as u32,
                        data: input,
                    },
                    truth: TruthRequest {
                        model: 0,
                        h: WINDOW as u32,
                        w: WINDOW as u32,
                        data: target,
                    },
                });
            }
        }
    }
    rng.shuffle(&mut pool);
    Ok(pool)
}

/// Plans `gen` for 20x20 windows under `FusePolicy::Folded`, the serving
/// default.
pub fn window_plan(gen: &mut ZipNet) -> Res<Arc<InferPlan>> {
    let exec = plan_zipnet(gen, FusePolicy::Folded, PLAN_BATCH, CW, CW)?;
    Ok(Arc::clone(exec.plan()))
}

/// Output of `plan` for one window through lane 0 of a private executor:
/// what the daemon must answer, bit for bit.
pub fn local_reply(plan: &Arc<InferPlan>, input: &[f32]) -> Res<Vec<f32>> {
    let mut exec = zipnet_core::InferExec::from_plan(Arc::clone(plan));
    let mut x = vec![0.0f32; exec.input_dims().iter().product()];
    let mut y = vec![0.0f32; exec.output_dims().iter().product()];
    x[..input.len()].copy_from_slice(input);
    exec.run_into(&x, &mut y)?;
    y.truncate(WINDOW * WINDOW);
    Ok(y)
}

/// Stacks `pairs` into `([n, 1, S, CW, CW], [n, 1, WINDOW, WINDOW])`.
pub fn stack_pairs(pairs: &[AdaptPair]) -> Res<(Tensor, Tensor)> {
    let n = pairs.len();
    let x: Vec<f32> = pairs.iter().flat_map(|p| p.input.iter().copied()).collect();
    let y: Vec<f32> = pairs
        .iter()
        .flat_map(|p| p.target.iter().copied())
        .collect();
    Ok((
        Tensor::from_vec([n, 1, S, CW, CW], x)?,
        Tensor::from_vec([n, 1, WINDOW, WINDOW], y)?,
    ))
}

/// Set-ups per run: `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Median seconds of [`SETUP_REPS`] timed runs of `setup`, and the last
/// run's product. Earlier products are handed to `discard` (daemons must
/// be stopped).
pub fn timed_setup<T>(
    mut setup: impl FnMut() -> Res<T>,
    mut discard: impl FnMut(T),
) -> Res<(f64, T)> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = last.take() {
            discard(old);
        }
        let t0 = Instant::now();
        last = Some(setup()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((
        crate::stats::median(&mut secs),
        last.expect("at least one set-up ran"),
    ))
}

/// A warmed model behind an in-process daemon on a loopback port, with
/// the windows to send it: what both serve workloads set up.
pub struct Served {
    /// Whole 40x40 frames the windows were cut from.
    pub ds: Dataset,
    /// The warmed generator (for local reference predictions).
    pub gen: ZipNet,
    /// The plan the daemon serves as model 0.
    pub plan: Arc<InferPlan>,
    /// Request pool in seeded order.
    pub pool: Vec<Window>,
    /// The daemon; stop it with [`Served::stop`].
    pub daemon: ServerHandle,
    /// Holds the model's training container.
    pub scratch: Scratch,
}

impl Served {
    /// Generates a 40x40 city, warms a `scale` model on it (container
    /// written), plans it for 20x20 windows and starts the daemon with
    /// `ServeConfig::default()`. `adapt` additionally switches the drift
    /// monitor on with a threshold no score reaches and no tuner, so TRUTH
    /// is paired and scored but a fine-tune never fires.
    pub fn start(seed: u64, scale: ArchScale, adapt: bool) -> Res<Served> {
        let mut rng = Rng::seed_from(seed);
        let city = city(&CityConfig::small(), 16, &mut rng)?;
        let scratch = Scratch::new()?;
        let container = scratch.file("live.ckpt");
        let fp = fingerprint(scale, city.frames.layout().grid, seed);
        let (mut gen, _disc) = warm_model(scale, &city.crops, Some((&container, fp)), &mut rng)?;
        let plan = window_plan(&mut gen)?;
        let pool = window_pool(&city.frames, &mut rng)?;
        let cfg = ServeConfig {
            adapt: adapt.then(|| AdaptConfig {
                threshold: 1e30,
                ..AdaptConfig::default()
            }),
            ..ServeConfig::default()
        };
        let spec = ModelSpec {
            name: "bench".into(),
            source: container.display().to_string(),
            plan: Arc::clone(&plan),
        };
        let daemon = Server::start_adaptive(&cfg, vec![spec], None, None)?;
        Ok(Served {
            ds: city.frames,
            gen,
            plan,
            pool,
            daemon,
            scratch,
        })
    }

    /// Drains and joins the daemon.
    pub fn stop(self) {
        self.daemon.request_shutdown();
        self.daemon.join();
    }
}
