//! The lane-prefix differential, shared by `fused_inference.rs` (ambient
//! ISA, next to the other executor guarantees) and `lane_prefix_isa.rs`
//! (every dispatchable ISA tier — alone in its own test binary, because
//! forcing an ISA is process-global and would race the bit-exactness
//! tests that compute their reference under the ambient tier).

use mtsr_nn::layer::Layer;
use mtsr_tensor::parallel::set_num_threads;
use mtsr_tensor::{Rng, Tensor};
use zipnet_core::{
    plan_discriminator, plan_zipnet, Discriminator, DiscriminatorConfig, FusePolicy, InferExec,
    ZipNet, ZipNetConfig,
};

const BATCH: usize = 4;
/// Pre-fill for output lanes a partial run must leave alone.
const SENTINEL: f32 = -123_456.75;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `exec` over every lane prefix `k in 1..=batch` of `x` and checks
/// the live lanes against the full-batch output, bit for bit, with the
/// input's tail lanes poisoned and the output's tail lanes guarded.
fn check_every_prefix(exec: &mut InferExec, x: &[f32], what: &str) {
    let batch = exec.input_dims()[0];
    let crop_len = x.len() / batch;
    let mut full = vec![0.0f32; exec.output_dims().iter().product()];
    exec.run_into(x, &mut full).unwrap();
    let win_len = full.len() / batch;
    for k in 1..=batch {
        let mut x_k = x.to_vec();
        x_k[k * crop_len..].fill(f32::NAN);
        let mut out = vec![SENTINEL; full.len()];
        // Once through the arena the full run just used (stale tails),
        // once through a fresh fork's zeroed arena.
        let mut fresh = exec.fork();
        for (arena, exec) in [("warm", &mut *exec), ("fresh", &mut fresh)] {
            exec.run_into(&x_k[..k * crop_len], &mut out[..k * win_len])
                .unwrap();
            assert_eq!(
                bits(&out[..k * win_len]),
                bits(&full[..k * win_len]),
                "{what}: {k} of {batch} lanes, {arena} arena"
            );
            assert_eq!(
                bits(&out[k * win_len..]),
                bits(&vec![SENTINEL; (batch - k) * win_len]),
                "{what}: {k} of {batch} lanes wrote past its prefix"
            );
        }
    }
    // Partial runs must not have disturbed what a full batch computes.
    let mut again = vec![0.0f32; full.len()];
    exec.run_into(x, &mut again).unwrap();
    assert_eq!(bits(&again), bits(&full), "{what}: full rerun");
    // Zero lanes, a ragged prefix and more lanes than planned are errors.
    let mut out = vec![0.0f32; full.len() + win_len];
    assert!(exec.run_into(&[], &mut out[..0]).is_err());
    assert!(exec
        .run_into(&x[..crop_len + 1], &mut out[..win_len])
        .is_err());
    assert!(exec
        .run_into(&x[..crop_len], &mut out[..2 * win_len])
        .is_err());
    let mut over = x.to_vec();
    over.extend_from_slice(&x[..crop_len]);
    assert!(exec.run_into(&over, &mut out).is_err());
}

/// Every `k ≤ batch` lane prefix of ZipNet up-2/4/10 plans under all
/// three fuse policies, and of a discriminator plan (AvgPool + Dense
/// steps), is bit-equal to the same lanes of the full-batch run at
/// 1 / 2 / all worker threads.
pub fn lane_prefix_differential(ctx: &str) {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_num_threads(0);
        }
    }
    let _restore = Restore;

    let mut rng = Rng::seed_from(301);
    for upscale in [2usize, 4, 10] {
        let h = if upscale == 10 { 2 } else { 3 };
        let cfg = ZipNetConfig::tiny(upscale, 2);
        let mut net = ZipNet::new(&cfg, &mut rng).unwrap();
        for _ in 0..2 {
            let warm = Tensor::rand_normal([2, 1, cfg.s, h, h], 0.2, 1.0, &mut rng);
            net.forward(&warm, true).unwrap();
        }
        let x = Tensor::rand_normal([BATCH, 1, cfg.s, h, h], 0.0, 1.0, &mut rng);
        for policy in [FusePolicy::Exact, FusePolicy::Folded, FusePolicy::Quantized] {
            let mut exec = plan_zipnet(&mut net, policy, BATCH, h, h).unwrap();
            for workers in [1usize, 2, 0] {
                set_num_threads(workers);
                let what = format!("[{ctx}] up-{upscale} {policy:?}, workers {workers}");
                check_every_prefix(&mut exec, x.as_slice(), &what);
            }
        }
    }

    let mut disc = Discriminator::new(&DiscriminatorConfig::tiny(), &mut rng).unwrap();
    for _ in 0..2 {
        let warm = Tensor::rand_normal([2, 1, 12, 12], 0.1, 0.9, &mut rng);
        disc.forward(&warm, true).unwrap();
    }
    let x = Tensor::rand_normal([BATCH, 1, 12, 12], 0.0, 1.0, &mut rng);
    let mut exec = plan_discriminator(&mut disc, FusePolicy::Exact, BATCH, 12, 12).unwrap();
    for workers in [1usize, 2, 0] {
        set_num_threads(workers);
        let what = format!("[{ctx}] discriminator, workers {workers}");
        check_every_prefix(&mut exec, x.as_slice(), &what);
    }
}
