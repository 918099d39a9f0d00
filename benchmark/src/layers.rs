//! Per-layer measurements: each crate's public functions timed from
//! outside, on fixed shapes with seeded inputs. They run in every traced
//! pass and do not depend on the workload. A kernel line also prints its
//! FLOPs and the bytes it must move, both computed from tensor sizes.

use crate::fixture::{self, Res, CW, PLAN_BATCH, S, TRAIN_BATCH, UPSCALE, WINDOW};
use crate::report::Outcome;
use crate::stats::median;
use mtsr_nn::layer::Layer;
use mtsr_nn::loss::bce_with_logits;
use mtsr_nn::{Adam, Optimizer};
use mtsr_serve::protocol::{read_response, write_request, write_response, Response};
use mtsr_serve::queue::{BoundedQueue, Pop};
use mtsr_serve::{
    holdout_nrmse, Assembled, DriftMonitor, FrameAssembler, InferRequest, InferResponse, Opcode,
    RespStatus,
};
use mtsr_tensor::conv::{
    conv2d_backward_data, conv2d_backward_weights, conv2d_forward_fused, conv2d_forward_q_into,
    conv3d_forward_fused, conv_transpose3d_forward_fused, Conv2dSpec, Conv3dSpec,
};
use mtsr_tensor::matmul::{sgemm, Epilogue};
use mtsr_tensor::qmatmul::QuantizedMat;
use mtsr_tensor::{Rng, Tensor};
use mtsr_traffic::augment::ReassemblePlan;
use mtsr_traffic::{CityConfig, MilanGenerator, Split};
use std::hint::black_box;
use std::time::{Duration, Instant};
use zipnet_core::checkpoint::load_train_state;
use zipnet_core::pipeline::crop_coarse;
use zipnet_core::{plan_zipnet, ArchScale, Discriminator, FusePolicy, GanTrainer, ZipNet};

/// Every probe is sampled in this many rounds, with all the other probes
/// in between. On a small shared machine a slow spell (both of a kernel's
/// threads on one core after a wake-up, a noisy neighbour) lasts hundreds
/// of milliseconds; one contiguous burst of calls is wholly inside or
/// outside it, rounds spread over seconds are not.
const ROUNDS: usize = 3;
/// Time a probe gets per round beyond its first two calls.
const ROUND_BUDGET: Duration = Duration::from_millis(20);

/// What a probe's median time per call becomes.
enum Report {
    /// `seconds * factor` under the metric's own unit.
    Time(f64),
    /// A kernel: time as above, plus a row with its achieved rate, its
    /// FLOPs and the f32 elements it must read and write.
    Kernel(f64, f64, usize),
    /// `flops / seconds / 1e9` as the metric, plus the kernel row.
    Gflops(f64, usize),
}

/// One measured call: a metric name, the closure that makes `calls` calls
/// (owning everything it touches), and the samples taken so far.
struct Probe {
    name: &'static str,
    report: Report,
    calls: f64,
    run: Box<dyn FnMut() -> Res<()>>,
    secs: Vec<f64>,
}

impl Probe {
    fn new(name: &'static str, report: Report, run: impl FnMut() -> Res<()> + 'static) -> Probe {
        Probe {
            name,
            report,
            calls: 1.0,
            run: Box::new(run),
            secs: Vec::new(),
        }
    }

    /// For calls too short to time singly: `run` makes `calls` of them.
    fn batched(mut self, calls: usize) -> Probe {
        self.calls = calls as f64;
        self
    }

    /// One round: an untimed call, then at least two timed ones and as
    /// many as fit in [`ROUND_BUDGET`].
    fn sample(&mut self) -> Res<()> {
        (self.run)()?;
        let start = Instant::now();
        let mut n = 0;
        while n < 2 || (start.elapsed() < ROUND_BUDGET && n < 10_000) {
            let t0 = Instant::now();
            (self.run)()?;
            self.secs.push(t0.elapsed().as_secs_f64() / self.calls);
            n += 1;
        }
        Ok(())
    }

    fn finish(mut self, out: &mut Outcome) {
        let secs = median(&mut self.secs);
        let n = self.secs.len();
        let work = |flops: f64, floats: usize| {
            format!(
                "{:.1} MFLOP, {:.2} MB moved (computed from tensor sizes), n = {n}",
                flops / 1e6,
                floats as f64 * 4.0 / 1e6
            )
        };
        // A kernel's second row carries the number its metric does not:
        // the achieved rate beside a time, the time beside a rate.
        match self.report {
            Report::Time(factor) => out.set(self.name, secs * factor),
            Report::Kernel(factor, flops, floats) => {
                out.set(self.name, secs * factor);
                let rate = flops / secs / 1e9;
                out.row(
                    &format!("{}.rate", self.name),
                    "GFLOP/s",
                    rate,
                    work(flops, floats),
                );
            }
            Report::Gflops(flops, floats) => {
                out.set(self.name, flops / secs / 1e9);
                out.row(
                    &format!("{}.call", self.name),
                    "us",
                    secs * 1e6,
                    work(flops, floats),
                );
            }
        }
    }
}

const US: f64 = 1e6;
const MS: f64 = 1e3;
const NS: f64 = 1e9;

fn tensor_probes(probes: &mut Vec<Probe>, rng: &mut Rng) {
    // The 80x80-window conv lowering of BENCH_GEMM: 16 x 144 x 6400.
    let (m, k, n) = (16, 144, 6400);
    let a = Tensor::rand_normal([m, k], 0.0, 1.0, rng);
    let b = Tensor::rand_normal([k, n], 0.0, 1.0, rng);
    let mut c = vec![0.0f32; m * n];
    probes.push(Probe::new(
        "tensor.sgemm_gflops",
        Report::Gflops(2.0 * (m * k * n) as f64, m * k + k * n + m * n),
        move || {
            sgemm(a.as_slice(), b.as_slice(), black_box(&mut c), m, k, n);
            Ok(())
        },
    ));

    let ch = 16;
    let w = Tensor::rand_normal([ch, ch, 3, 3], 0.0, 0.1, rng);
    let bias = vec![0.01f32; ch];
    let spec = Conv2dSpec::same(3);
    let conv_flops = |n: usize, side: usize| 2.0 * (n * ch * ch * 9 * side * side) as f64;
    for (name, side) in [
        ("tensor.conv2d_fwd_80_us", 80),
        ("tensor.conv2d_fwd_20_us", 20),
    ] {
        let x = Tensor::rand_normal([PLAN_BATCH, ch, side, side], 0.0, 1.0, rng);
        let (w, bias) = (w.clone(), bias.clone());
        let report = Report::Kernel(US, conv_flops(PLAN_BATCH, side), 2 * x.numel() + w.numel());
        probes.push(Probe::new(name, report, move || {
            let ep = Epilogue::new(&bias).leaky(0.1);
            black_box(conv2d_forward_fused(&x, &w, &spec, Some(&ep))?);
            Ok(())
        }));
    }

    let x = Tensor::rand_normal([PLAN_BATCH, ch, 80, 80], 0.0, 1.0, rng);
    let wq = QuantizedMat::quantize_rows(w.as_slice(), ch, ch * 9);
    let mut y = vec![0.0f32; x.numel()];
    // int8 weights: a quarter of the f32 weight bytes.
    let report = Report::Kernel(
        US,
        conv_flops(PLAN_BATCH, 80),
        2 * x.numel() + w.numel() / 4,
    );
    let (w_dims, qbias) = (w.dims().to_vec(), bias.clone());
    probes.push(Probe::new("tensor.qconv2d_fwd_80_us", report, move || {
        let ep = Epilogue::new(&qbias).leaky(0.1);
        let (xs, y) = (x.as_slice(), black_box(&mut y));
        Ok(conv2d_forward_q_into(
            xs,
            x.dims(),
            &wq,
            &w_dims,
            &spec,
            y,
            &ep,
        )?)
    }));

    // The backward pair of one 16-channel conv at the training shape:
    // two GEMM-sized passes that read x and gout twice, write gx and gw.
    let x = Tensor::rand_normal([TRAIN_BATCH, ch, 40, 40], 0.0, 1.0, rng);
    let gout = Tensor::rand_normal([TRAIN_BATCH, ch, 40, 40], 0.0, 1.0, rng);
    let report = Report::Kernel(
        US,
        2.0 * conv_flops(TRAIN_BATCH, 40),
        4 * x.numel() + 2 * w.numel(),
    );
    probes.push(Probe::new("tensor.conv2d_bwd_40_us", report, move || {
        black_box(conv2d_backward_data(&gout, &w, &spec, (40, 40))?);
        black_box(conv2d_backward_weights(&x, &gout, &spec, (3, 3))?);
        Ok(())
    }));

    // The two stages of the Small up-4 model's second upscaling block at
    // an 80x80 window: deconv [4,16,3,40,40] -> [4,16,3,80,80], then conv3d.
    let w3 = Tensor::rand_normal([ch, ch, 3, 3, 3], 0.0, 0.1, rng);
    let x3 = Tensor::rand_normal([PLAN_BATCH, ch, S, 80, 80], 0.0, 1.0, rng);
    let report = Report::Kernel(
        US,
        2.0 * (PLAN_BATCH * ch * ch * 27 * S * 80 * 80) as f64,
        2 * x3.numel() + w3.numel(),
    );
    let bias3 = bias.clone();
    probes.push(Probe::new("tensor.conv3d_fwd_us", report, move || {
        let ep = Epilogue::new(&bias3).leaky(0.1);
        black_box(conv3d_forward_fused(
            &x3,
            &w3,
            &Conv3dSpec::same(3, 3),
            Some(&ep),
        )?);
        Ok(())
    }));

    let wd = Tensor::rand_normal([ch, ch, 3, 2, 2], 0.0, 0.1, rng);
    let xd = Tensor::rand_normal([PLAN_BATCH, ch, S, 40, 40], 0.0, 1.0, rng);
    // The output has four times the input's elements.
    let report = Report::Kernel(
        US,
        2.0 * (PLAN_BATCH * ch * ch * 12 * S * 40 * 40) as f64,
        5 * xd.numel() + wd.numel(),
    );
    probes.push(Probe::new("tensor.deconv3d_fwd_us", report, move || {
        let ep = Epilogue::new(&bias).leaky(0.1);
        let spec = Conv3dSpec {
            stride: (1, 2, 2),
            pad: (1, 0, 0),
        };
        black_box(conv_transpose3d_forward_fused(&xd, &wd, &spec, Some(&ep))?);
        Ok(())
    }));
}

fn small_gen(rng: &mut Rng) -> Res<ZipNet> {
    Ok(ZipNet::new(&ArchScale::Small.gen_config(UPSCALE, S), rng)?)
}

fn model_probes(probes: &mut Vec<Probe>, rng: &mut Rng) -> Res<()> {
    let generator = MilanGenerator::new(&CityConfig::small(), rng)?;
    let mut gen_rng = rng.fork();
    probes.push(
        Probe::new(
            "traffic.generate_ms_per_frame",
            Report::Time(MS),
            move || {
                black_box(generator.generate(8, &mut gen_rng)?);
                Ok(())
            },
        )
        .batched(8),
    );

    let ds = fixture::city(&CityConfig::small(), 8, rng)?.frames;
    let (x, y) = ds.sample_batch(Split::Train, TRAIN_BATCH, rng)?;
    let pairs: Vec<_> = fixture::window_pool(&ds, rng)?
        .iter()
        .take(TRAIN_BATCH)
        .map(fixture::Window::pair)
        .collect();
    let mut batch_rng = rng.fork();
    probes.push(Probe::new(
        "traffic.sample_batch_us",
        Report::Time(US),
        move || {
            black_box(ds.sample_batch(Split::Train, TRAIN_BATCH, &mut batch_rng)?);
            Ok(())
        },
    ));

    // Paper geometry: one 100x100 frame of four 80x80 windows at stride 20.
    let origins = [(0, 0), (0, 20), (20, 0), (20, 20)];
    let mut plan = ReassemblePlan::new(&origins, 80, 100)?;
    let win = vec![0.5f32; 80 * 80];
    probes.push(Probe::new(
        "traffic.reassemble_us",
        Report::Time(US),
        move || {
            plan.begin();
            for &o in &origins {
                plan.add_window(o, &win)?;
            }
            black_box(plan.finish()?);
            Ok(())
        },
    ));
    let coarse = vec![0.25f32; S * 25 * 25];
    let mut crop = vec![0.0f32; S * 20 * 20];
    probes.push(Probe::new("core.crop_us", Report::Time(US), move || {
        for &(y, x) in &origins {
            let at = (y / UPSCALE, x / UPSCALE);
            crop_coarse(&coarse, S, 25, at, 20, black_box(&mut crop));
        }
        Ok(())
    }));

    for (name, scale, policy, cw) in [
        ("core.exec_80_ms", ArchScale::Small, FusePolicy::Folded, 20),
        (
            "core.exec_80_q_ms",
            ArchScale::Small,
            FusePolicy::Quantized,
            20,
        ),
        ("core.exec_20_ms", ArchScale::Small, FusePolicy::Folded, CW),
        (
            "core.exec_20_tiny_ms",
            ArchScale::Tiny,
            FusePolicy::Folded,
            CW,
        ),
    ] {
        let mut net = ZipNet::new(&scale.gen_config(UPSCALE, S), rng)?;
        let mut exec = plan_zipnet(&mut net, policy, PLAN_BATCH, cw, cw)?;
        let x = Tensor::rand_normal(exec.input_dims().to_vec(), 0.0, 1.0, rng);
        let mut y = vec![0.0f32; exec.output_dims().iter().product()];
        probes.push(Probe::new(name, Report::Time(MS), move || {
            Ok(exec.run_into(x.as_slice(), black_box(&mut y))?)
        }));
    }
    let mut net = small_gen(rng)?;
    probes.push(Probe::new("core.plan_ms", Report::Time(MS), move || {
        black_box(plan_zipnet(
            &mut net,
            FusePolicy::Folded,
            PLAN_BATCH,
            CW,
            CW,
        )?);
        Ok(())
    }));

    // Forward and backward of both networks at the training shape.
    let (mut net, xf) = (small_gen(rng)?, x.clone());
    probes.push(Probe::new("core.g_fwd_ms", Report::Time(MS), move || {
        black_box(net.forward(&xf, true)?);
        Ok(())
    }));
    let mut net = small_gen(rng)?;
    net.forward(&x, true)?;
    let grad = Tensor::rand_normal(y.dims().to_vec(), 0.0, 1e-3, rng);
    probes.push(Probe::new("core.g_bwd_ms", Report::Time(MS), move || {
        black_box(net.backward(&grad)?);
        Ok(())
    }));
    let (mut net, mut adam) = (small_gen(rng)?, Adam::new(1e-3));
    probes.push(Probe::new("nn.adam_step_us", Report::Time(US), move || {
        adam.step(&mut net);
        Ok(())
    }));
    let mut disc = Discriminator::new(&ArchScale::Small.disc_config(), rng)?;
    let ones = Tensor::ones([TRAIN_BATCH, 1]);
    probes.push(Probe::new(
        "core.d_fwd_bwd_ms",
        Report::Time(MS),
        move || {
            let z = disc.forward(&y, true)?;
            let (_, g) = bce_with_logits(&z, &ones)?;
            black_box(disc.backward(&g)?);
            Ok(())
        },
    ));

    // Checkpoint container, fine-tune step and the promotion gate's scorer.
    let scratch = fixture::Scratch::new()?;
    let path = scratch.file("micro.ckpt");
    let disc = Discriminator::new(&ArchScale::Small.disc_config(), rng)?;
    let mut trainer = GanTrainer::new(small_gen(rng)?, disc, fixture::train_config(0, 0));
    let state_rng = rng.fork();
    let write = move |trainer: &mut GanTrainer, path: &std::path::Path| -> Res<()> {
        let state = trainer.snapshot_state("mtsr-train/v1 bench", &state_rng);
        Ok(mtsr_nn::io::write_atomic(path, &state.to_bytes())?)
    };
    write(&mut trainer, &path)?;
    let load_path = path.clone();
    probes.push(Probe::new(
        "core.ckpt_load_ms",
        Report::Time(MS),
        move || {
            black_box(load_train_state(&load_path)?);
            Ok(())
        },
    ));
    let plan = fixture::window_plan(trainer.generator_mut())?;
    let holdout = pairs.clone();
    probes.push(Probe::new(
        "serve.holdout_ms",
        Report::Time(MS),
        move || {
            black_box(holdout_nrmse(&plan, &holdout)?);
            Ok(())
        },
    ));
    probes.push(Probe::new(
        "core.ckpt_write_ms",
        Report::Time(MS),
        move || {
            // `scratch` lives as long as the probe that writes into it.
            write(&mut trainer, &scratch.file("micro.ckpt"))
        },
    ));
    let disc = Discriminator::new(&ArchScale::Small.disc_config(), rng)?;
    let mut trainer = GanTrainer::new(small_gen(rng)?, disc, fixture::train_config(0, 0));
    let (fx, fy) = fixture::stack_pairs(&pairs)?;
    probes.push(Probe::new(
        "core.finetune_step_ms",
        Report::Time(MS),
        move || {
            black_box(trainer.finetune_batch(&fx, &fy)?);
            Ok(())
        },
    ));
    Ok(())
}

fn serve_probes(probes: &mut Vec<Probe>, rng: &mut Rng) {
    let req = InferRequest {
        model: 0,
        deadline_ms: 0,
        s: S as u32,
        h: CW as u32,
        w: CW as u32,
        data: Tensor::rand_normal([S * CW * CW], 0.0, 1.0, rng).into_vec(),
    };
    let reply = InferResponse {
        model: 0,
        generation: 0,
        h: WINDOW as u32,
        w: WINDOW as u32,
        data: Tensor::rand_normal([WINDOW * WINDOW], 0.0, 1.0, rng).into_vec(),
    };

    // One 20x20 window through every codec step of a request's life.
    let (creq, creply) = (req.clone(), reply.clone());
    let mut asm = FrameAssembler::new();
    let mut wire = Vec::new();
    probes.push(
        Probe::new("serve.codec_ns", Report::Time(NS), move || {
            for id in 0..100u64 {
                wire.clear();
                write_request(&mut wire, Opcode::Infer, id, &creq.encode())?;
                asm.push(&wire);
                let Ok(Some(Assembled::Frame(frame))) = asm.next() else {
                    return Err("assembler lost a frame".into());
                };
                black_box(InferRequest::decode(&frame.payload)?);
                wire.clear();
                let resp = Response {
                    status: RespStatus::Ok,
                    id,
                    payload: creply.encode(),
                };
                write_response(&mut wire, &resp)?;
                let back = read_response(&mut wire.as_slice())?;
                black_box(InferResponse::decode(&back.payload)?);
            }
            Ok(())
        })
        .batched(100),
    );

    let queue: BoundedQueue<u64> = BoundedQueue::new(64);
    probes.push(
        Probe::new("serve.queue_ns", Report::Time(NS), move || {
            for _ in 0..1000 {
                let pushed = queue.try_push(7).is_ok();
                if !pushed || !matches!(queue.pop(Duration::ZERO), Pop::Item(7)) {
                    return Err("queue lost an item".into());
                }
            }
            Ok(())
        })
        .batched(1000),
    );

    // record + observe with the 1024-entry prediction ring full, as when
    // each TRUTH follows its INFER.
    let mut drift = DriftMonitor::new(32, 32, 8);
    for id in 0..1024u64 {
        drift.record_prediction(id, &req.data, &reply.data);
    }
    let mut id = 1024u64;
    probes.push(
        Probe::new("serve.drift_pair_us", Report::Time(US), move || {
            for _ in 0..100 {
                drift.record_prediction(id, &req.data, &reply.data);
                black_box(drift.observe_truth(id, &reply.data));
                id += 1;
            }
            Ok(())
        })
        .batched(100),
    );
}

fn telemetry_probes(probes: &mut Vec<Probe>) {
    for (name, on) in [
        ("telemetry.span_ns", true),
        ("telemetry.span_off_ns", false),
    ] {
        probes.push(
            Probe::new(name, Report::Time(NS), move || {
                let was = mtsr_telemetry::enabled();
                mtsr_telemetry::set_enabled(on);
                for _ in 0..1000 {
                    drop(black_box(mtsr_telemetry::span("bench.probe")));
                }
                mtsr_telemetry::set_enabled(was);
                Ok(())
            })
            .batched(1000),
        );
    }
}

/// Measures every workload-independent per-layer metric into `out`.
pub fn measure_all(out: &mut Outcome, seed: u64) -> Res<()> {
    let mut rng = Rng::seed_from(seed ^ 0x1a7e_55ed);
    let mut probes = Vec::new();
    tensor_probes(&mut probes, &mut rng);
    model_probes(&mut probes, &mut rng)?;
    serve_probes(&mut probes, &mut rng);
    telemetry_probes(&mut probes);
    for _ in 0..ROUNDS {
        for probe in &mut probes {
            probe.sample()?;
        }
    }
    probes.into_iter().for_each(|p| p.finish(out));
    Ok(())
}
