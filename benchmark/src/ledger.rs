//! The ledger: every workload and metric the benchmark reports, by name.
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`--contract`) and a unit test keeps the committed file equal to them.

use mtsr_telemetry::Json;

/// Seconds one run measures for (`run_seconds` of the contract). The
/// workloads' phase lengths are stated for this value and scale with
/// `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// A workload: name and the one-line reason it exists.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "offline_frames",
        why: "closed loop, one caller, 100x100 frames through InferSession (Folded then Quantized): \
              tensor and core do all the work at memory-bound activation sizes, serve does nothing",
    },
    Workload {
        name: "serve_trickle",
        why: "closed loop, 2 connections x 1 outstanding INFER+TRUTH over loopback TCP, Tiny model: \
              linger, padded lanes, wake-ups, codec and the drift lock dominate, kernels barely show",
    },
    Workload {
        name: "serve_open",
        why: "open loop, seeded Poisson arrivals at 45%, 90% and overload of capacity, Small model: \
              batches fill so kernels and batching both show, queueing shows as latency from due time",
    },
    Workload {
        name: "train_steps",
        why: "closed loop, one caller: pre-train steps, adversarial iterations and one online \
              adaptation round: the same kernels run backward, plus nn layers and Adam; serve bypassed",
    },
];

/// An end-to-end metric of the contract. Every workload reports every
/// one; what it measures on each workload is in [`E2E_MEANING`].
pub struct EndToEnd {
    /// Name in `BENCHMARK.json` and in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "op_ms_tail",
        unit: "ms",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "second_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// What each end-to-end metric measures on each workload, as the issue's
/// own metric names (rows in [`WORKLOADS`] order, columns in
/// [`END_TO_END`] order without `setup_s`).
pub const E2E_MEANING: [[&str; 4]; 4] = [
    [
        "frames_per_s",
        "frame_ms_p50",
        "frame_ms_p75",
        "frame_ms_quantized_p50",
    ],
    [
        "pairs_per_s",
        "infer_ms_p50",
        "infer_ms_p90",
        "truth_ms_p50",
    ],
    [
        "goodput_per_s",
        "steady_ms_p50",
        "steady_ms_p90",
        "r600_ms_p50",
    ],
    [
        "pretrain_steps_per_s",
        "adv_iter_ms_p50",
        "pretrain_step_ms_p75",
        "finetune_ms",
    ],
];

/// A per-layer metric: the prefix of the name is the crate.
pub struct PerLayer {
    /// Name in `BENCHMARK.json` and in the traced result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

/// The per-layer metrics. The first block is measured around public
/// calls with fixed seeded inputs in every traced run; the second block
/// comes from the traced workload itself and reads 0 on a workload that
/// never enters that layer or phase.
pub const PER_LAYER: [PerLayer; 48] = [
    higher("tensor.sgemm_gflops", "GFLOP/s"),
    lower("tensor.conv2d_fwd_80_us", "us"),
    lower("tensor.conv2d_fwd_20_us", "us"),
    lower("tensor.qconv2d_fwd_80_us", "us"),
    lower("tensor.conv2d_bwd_40_us", "us"),
    lower("tensor.conv3d_fwd_us", "us"),
    lower("tensor.deconv3d_fwd_us", "us"),
    lower("nn.adam_step_us", "us"),
    lower("traffic.sample_batch_us", "us"),
    lower("traffic.generate_ms_per_frame", "ms"),
    lower("traffic.reassemble_us", "us"),
    lower("core.crop_us", "us"),
    lower("core.exec_80_ms", "ms"),
    lower("core.exec_80_q_ms", "ms"),
    lower("core.exec_20_ms", "ms"),
    lower("core.exec_20_tiny_ms", "ms"),
    lower("core.g_fwd_ms", "ms"),
    lower("core.g_bwd_ms", "ms"),
    lower("core.d_fwd_bwd_ms", "ms"),
    lower("core.plan_ms", "ms"),
    lower("core.ckpt_write_ms", "ms"),
    lower("core.ckpt_load_ms", "ms"),
    lower("core.finetune_step_ms", "ms"),
    lower("serve.holdout_ms", "ms"),
    lower("serve.codec_ns", "ns"),
    lower("serve.queue_ns", "ns"),
    lower("serve.drift_pair_us", "us"),
    lower("telemetry.span_ns", "ns"),
    lower("telemetry.span_off_ns", "ns"),
    // From the traced workload.
    lower("telemetry.trace_overhead_share", "%"),
    lower("core.pretrain_step_ms_p50", "ms"),
    lower("core.adv_iter_ms_p50", "ms"),
    lower("serve.info_rtt_us", "us"),
    lower("serve.status_us", "us"),
    lower("serve.overhead_ms", "ms"),
    higher("serve.batch_mean_trickle", "count"),
    higher("serve.batch_mean_r300", "count"),
    higher("serve.batch_mean_r600", "count"),
    higher("serve.batch_mean_r2000", "count"),
    lower("serve.r600_ms_p90", "ms"),
    higher("serve.max_rate_ok", "1/s"),
    lower("serve.busy_share_r2000", "%"),
    lower("serve.timeout_share", "%"),
    lower("serve.infer_ms_p99", "ms"),
    lower("serve.steady_ms_p99", "ms"),
    lower("serve.sched_late_ms_max", "ms"),
    lower("serve.reload_ms", "ms"),
    lower("serve.remote_frame_ms_p50", "ms"),
];

/// The content of `BENCHMARK.json`.
pub fn contract() -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|x| s(x)).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            Json::Obj(vec![("name".into(), s(w.name)), ("why".into(), s(&why))])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s(m.better)),
                ("bound".into(), Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s(m.better)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("command".into(), strs(&["bash", "benchmark/run.sh"])),
        ("paths".into(), strs(&["benchmark"])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        ("workloads".into(), Json::Arr(workloads)),
        ("end_to_end".into(), Json::Arr(end_to_end)),
        ("per_layer".into(), Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &END_TO_END {
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in &WORKLOADS {
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200, "{}: why has {} chars", w.name, why.len());
        }
    }

    #[test]
    fn per_layer_names_start_with_a_layer() {
        const LAYERS: [&str; 6] = ["tensor", "nn", "traffic", "core", "serve", "telemetry"];
        for m in &PER_LAYER {
            let layer = m.name.split('.').next().expect("prefix");
            assert!(LAYERS.contains(&layer), "{} names no layer", m.name);
        }
    }

    #[test]
    fn committed_contract_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert!(committed.len() <= 64 * 1024);
        let parsed = Json::parse(committed).expect("BENCHMARK.json parses");
        assert_eq!(
            parsed,
            contract(),
            "regenerate with `benchmark/run.sh --contract`"
        );
    }
}
