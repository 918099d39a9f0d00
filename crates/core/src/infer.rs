//! Plan-once / execute-many inference executor — the fast path for
//! eval-time ZipNet and discriminator forwards.
//!
//! The training-oriented [`Layer`] stack allocates a fresh tensor per
//! layer output and sweeps the feature map once per bias, BatchNorm pass
//! and activation. At inference none of that is necessary:
//!
//! * **Fused epilogues** — each conv's bias, eval-mode BatchNorm and
//!   LeakyReLU ride the packed GEMM's register-tile writeback
//!   ([`mtsr_tensor::matmul::Epilogue`]), so every stage is a single pass
//!   over its output.
//! * **Activation memory planning** — the layer graph is walked once at
//!   plan time; activation buffers are assigned to a small ping-pong
//!   arena by liveness (values consumed by a later skip connection keep
//!   their buffer pinned until that use). Steady-state execution performs
//!   **zero heap allocations**: the arena and the im2col scratch arenas
//!   are all warm after the first run.
//! * **Batching** — the plan is specialised for a `[batch, …]` input
//!   shape, the *most* lanes one executor invocation carries, so a
//!   sliding-window pipeline can push many crops through it at once. A
//!   run executes only the lanes it is handed: every kernel is
//!   per-sample and every arena value is batch-outermost, so the first
//!   `k ≤ batch` lanes are a contiguous prefix of every buffer and cost
//!   `k / batch` of a full run, bit-identical lane for lane to the full
//!   batch and to one-at-a-time runs.
//!
//! Three fusion policies trade exactness against speed:
//!
//! * [`FusePolicy::Exact`] carries the raw conv bias plus the BN running
//!   statistics (`μ`, `1/√(σ²+ε)`, `γ`, `β`) into the epilogue. The
//!   per-element operation order matches the layer stack's separate
//!   sweeps, so outputs are **bit-identical** to `Layer::forward(eval)`.
//! * [`FusePolicy::Folded`] pre-folds BN into the conv weights and bias
//!   ([`mtsr_nn::fold`]), leaving a bias+LeakyReLU epilogue. Fewer
//!   per-element ops, but the re-associated products match the layer
//!   stack only to f32 round-off.
//! * [`FusePolicy::Quantized`] folds like `Folded`, then quantizes the
//!   folded conv weights to per-output-channel int8
//!   ([`mtsr_tensor::qmatmul`]) and runs the conv GEMMs with exact `i32`
//!   accumulation and dynamic per-call activation scales. Transposed-conv
//!   weights are quantize-dequantized instead (their GEMMs reduce over a
//!   handful of channels, so integer inner loops buy nothing) and run the
//!   f32 kernels — the int8 representation error is still part of the
//!   plan. Accuracy is bounded by NRMSE-delta acceptance tests against
//!   the exact route, not bit-compared.

use crate::config::{upscale_blocks, SkipMode};
use crate::discriminator::Discriminator;
use crate::zipnet::ZipNet;
use mtsr_nn::fold::{
    bn_fold_constants, quantize_dequantize_channel_axis, scale_channel_axis, CONV_CO_AXIS,
    DECONV_CO_AXIS,
};
use mtsr_nn::layer::Layer;
use mtsr_nn::layers::BN_EPS;
use mtsr_tensor::conv::{
    conv2d_forward_into, conv2d_forward_q_into, conv3d_forward_into, conv3d_forward_q_into,
    conv_transpose3d_forward_into, Conv2dSpec, Conv3dSpec,
};
use mtsr_tensor::matmul::{sgemm_nt_rows, BnEpilogue, Epilogue};
use mtsr_tensor::qmatmul::QuantizedMat;
use mtsr_tensor::{Result, Tensor, TensorError};
use std::collections::HashMap;
use std::sync::Arc;

/// How conv/BN/activation stages are fused at plan time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusePolicy {
    /// Epilogue carries the BN constants; bit-identical to the layer
    /// stack's eval forward. Used by exactness tests.
    Exact,
    /// BN folded into weights and bias at plan time; fastest f32 route,
    /// matches the layer stack to f32 round-off. The default for
    /// production inference.
    Folded,
    /// Folded, then conv weights quantized to per-channel int8 with
    /// integer-accumulating GEMMs (deconv weights quantize-dequantized,
    /// f32 kernels). Fastest route; accuracy bounded by NRMSE tests.
    Quantized,
}

impl FusePolicy {
    /// Stable lowercase name, used by the CLI and the serve INFO report.
    pub fn name(self) -> &'static str {
        match self {
            FusePolicy::Exact => "exact",
            FusePolicy::Folded => "folded",
            FusePolicy::Quantized => "quantized",
        }
    }

    /// Parses the CLI spelling produced by [`FusePolicy::name`].
    pub fn parse(s: &str) -> Option<FusePolicy> {
        match s {
            "exact" => Some(FusePolicy::Exact),
            "folded" => Some(FusePolicy::Folded),
            "quantized" => Some(FusePolicy::Quantized),
            _ => None,
        }
    }
}

fn plan_err(reason: String) -> TensorError {
    TensorError::InvalidShape {
        op: "infer::plan",
        reason,
    }
}

/// Owned epilogue constants for one fused conv stage.
struct EpConsts {
    bias: Vec<f32>,
    /// `[mean, inv_std, gamma, beta]` when the BN rides the epilogue
    /// un-folded ([`FusePolicy::Exact`]).
    bn: Option<[Vec<f32>; 4]>,
    alpha: Option<f32>,
}

impl EpConsts {
    fn epilogue(&self) -> Epilogue<'_> {
        let mut e = Epilogue::new(&self.bias);
        if let Some([mean, inv_std, gamma, beta]) = &self.bn {
            e = e.bn(BnEpilogue {
                mean,
                inv_std,
                gamma,
                beta,
            });
        }
        if let Some(a) = self.alpha {
            e = e.leaky(a);
        }
        e
    }
}

/// One kernel in the planned program.
enum Kernel {
    Conv2d {
        w: Tensor,
        spec: Conv2dSpec,
        ep: EpConsts,
    },
    Conv3d {
        w: Tensor,
        spec: Conv3dSpec,
        ep: EpConsts,
    },
    /// [`FusePolicy::Quantized`] conv: per-channel int8 weight codes plus
    /// the original weight dims (for the im2col geometry).
    Conv2dQuant {
        wq: QuantizedMat,
        w_dims: Vec<usize>,
        spec: Conv2dSpec,
        ep: EpConsts,
    },
    Conv3dQuant {
        wq: QuantizedMat,
        w_dims: Vec<usize>,
        spec: Conv3dSpec,
        ep: EpConsts,
    },
    Deconv3d {
        w: Tensor,
        spec: Conv3dSpec,
        ep: EpConsts,
    },
    /// `dst += extra` (the skip-connection adds). Aliases its primary
    /// input's buffer.
    AddAssign,
    /// `[N, C, …spatial] → [N, C]`, f64 accumulation exactly as
    /// `GlobalAvgPool`.
    AvgPool,
    /// `y = x·Wᵀ + b`, exactly as the `Dense` head over `batch` rows (the
    /// planned batch picks the GEMM kernel however few lanes a run has).
    Dense {
        w: Tensor,
        bias: Vec<f32>,
        batch: usize,
    },
}

/// Where a step reads its primary operand.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// The caller-provided input slice.
    Input,
    /// An arena slot.
    Slot(usize),
}

/// Highest input rank any planned kernel sees (`[N, C, D, H, W]`).
const MAX_RANK: usize = 5;

struct ExecStep {
    kernel: Kernel,
    src: Loc,
    /// Second operand (AddAssign only); always an arena slot here.
    extra: Option<usize>,
    /// Destination arena slot (equals `src` slot for AddAssign).
    dst: usize,
    /// Dims the kernel sees its input as at the full planned batch (free
    /// reshapes are expressed by consecutive steps viewing the same
    /// buffer with different dims). `in_dims[0]` is the batch; a run
    /// replaces it with its lane count.
    in_dims: Vec<usize>,
    /// Input / output elements per batch lane.
    in_lane: usize,
    out_lane: usize,
}

/// A step while the graph is being built (value ids, not slots).
struct DraftStep {
    kernel: Kernel,
    src: usize,
    extra: Option<usize>,
    dst: usize,
    in_dims: Vec<usize>,
    out_len: usize,
}

/// Builds the value graph, then plans slots by liveness.
struct GraphBuilder {
    steps: Vec<DraftStep>,
    /// Element count of every value; value 0 is the external input.
    value_len: Vec<usize>,
    /// In-place ops alias their output value to an earlier one.
    alias_of: Vec<Option<usize>>,
}

impl GraphBuilder {
    fn new(input_len: usize) -> Self {
        GraphBuilder {
            steps: Vec::new(),
            value_len: vec![input_len],
            alias_of: vec![None],
        }
    }

    /// Appends a step reading value `src` (viewed as `in_dims`) and
    /// producing a new value of `out_len` elements. `inplace` makes the
    /// output alias `src`'s buffer (AddAssign).
    fn push(
        &mut self,
        kernel: Kernel,
        src: usize,
        extra: Option<usize>,
        in_dims: Vec<usize>,
        out_len: usize,
        inplace: bool,
    ) -> Result<usize> {
        let in_len: usize = in_dims.iter().product();
        if self.value_len[src] != in_len {
            return Err(plan_err(format!(
                "step views value of {} elements as {in_dims:?}",
                self.value_len[src]
            )));
        }
        if inplace && out_len != in_len {
            return Err(plan_err("in-place step must preserve length".into()));
        }
        let v = self.value_len.len();
        self.value_len.push(out_len);
        self.alias_of.push(if inplace { Some(src) } else { None });
        self.steps.push(DraftStep {
            kernel,
            src,
            extra,
            dst: v,
            in_dims,
            out_len,
        });
        Ok(v)
    }

    /// Assigns every value to an arena slot by liveness (greedy interval
    /// allocation) and freezes the program. Values read by later steps —
    /// skip-connection sources in particular — stay pinned to their slot
    /// until their last use; everything else ping-pongs through a handful
    /// of recycled buffers.
    fn finish(
        self,
        output: usize,
        in_dims: Vec<usize>,
        out_dims: Vec<usize>,
        fuse: FusePolicy,
    ) -> Result<InferExec> {
        let nv = self.value_len.len();
        if self.steps.is_empty() || output == 0 {
            return Err(plan_err("empty inference graph".into()));
        }
        // Resolve alias chains to the value that owns the buffer.
        let mut root = vec![0usize; nv];
        for v in 0..nv {
            root[v] = match self.alias_of[v] {
                Some(a) => root[a],
                None => v,
            };
        }
        // Last step index at which each root's buffer is live.
        let mut last = vec![0usize; nv];
        for (si, step) in self.steps.iter().enumerate() {
            last[root[step.src]] = si;
            if let Some(e) = step.extra {
                last[root[e]] = si;
            }
            last[root[step.dst]] = last[root[step.dst]].max(si);
        }
        last[root[output]] = usize::MAX; // the result survives the run
        if root[output] == 0 {
            return Err(plan_err("output must not alias the input".into()));
        }

        // Greedy slot assignment: a slot is reusable at step `si` when its
        // current occupant was last read strictly before `si`.
        let mut slot_of_root: Vec<Option<usize>> = vec![None; nv];
        let mut slot_len: Vec<usize> = Vec::new();
        let mut slot_busy_until: Vec<usize> = Vec::new();
        for (si, step) in self.steps.iter().enumerate() {
            let r = root[step.dst];
            if r == 0 {
                return Err(plan_err("steps must not write the input buffer".into()));
            }
            let sid = match slot_of_root[r] {
                Some(sid) => sid,
                None => {
                    let sid = match slot_busy_until.iter().position(|&b| b < si) {
                        Some(sid) => sid,
                        None => {
                            slot_len.push(0);
                            slot_busy_until.push(0);
                            slot_len.len() - 1
                        }
                    };
                    slot_of_root[r] = Some(sid);
                    sid
                }
            };
            slot_len[sid] = slot_len[sid].max(self.value_len[step.dst]);
            slot_busy_until[sid] = last[r];
        }

        let resolve = |v: usize| -> Loc {
            let r = root[v];
            if r == 0 {
                Loc::Input
            } else {
                Loc::Slot(slot_of_root[r].expect("value written before read"))
            }
        };
        let batch = in_dims.first().copied().unwrap_or(0);
        if batch == 0 || in_dims.contains(&0) || out_dims.first() != Some(&batch) {
            return Err(plan_err(format!(
                "input {in_dims:?} and output {out_dims:?} must be non-empty and lead with one batch"
            )));
        }
        let mut steps = Vec::with_capacity(self.steps.len());
        for step in self.steps {
            let src = resolve(step.src);
            let dst = match resolve(step.dst) {
                Loc::Slot(s) => s,
                Loc::Input => unreachable!("checked above"),
            };
            if let (Loc::Slot(s), false) = (src, matches!(step.kernel, Kernel::AddAssign)) {
                debug_assert_ne!(s, dst, "conv kernels cannot run in place");
            }
            let extra = match step.extra.map(resolve) {
                None => None,
                Some(Loc::Slot(s)) => Some(s),
                Some(Loc::Input) => {
                    return Err(plan_err("skip add from the input buffer".into()));
                }
            };
            // Lane-prefix execution needs every value batch-outermost.
            if step.in_dims.len() > MAX_RANK
                || step.in_dims.first() != Some(&batch)
                || step.out_len % batch != 0
            {
                return Err(plan_err(format!(
                    "step viewing {:?} -> {} elements is not batch-{batch}-outermost",
                    step.in_dims, step.out_len
                )));
            }
            steps.push(ExecStep {
                kernel: step.kernel,
                src,
                extra,
                dst,
                in_lane: step.in_dims[1..].iter().product(),
                in_dims: step.in_dims,
                out_lane: step.out_len / batch,
            });
        }
        let out_slot = match resolve(output) {
            Loc::Slot(s) => s,
            Loc::Input => unreachable!("checked above"),
        };
        Ok(InferExec::from_plan(Arc::new(InferPlan {
            steps,
            slot_lens: slot_len,
            in_dims,
            out_dims,
            out_slot,
            fuse,
        })))
    }
}

/// The immutable half of a planned inference program: the kernel steps
/// (with their weight snapshots and fused epilogue constants) plus the
/// arena layout. An `InferPlan` is shared — via [`Arc`] — between every
/// executor forked from it ([`InferExec::fork`]), so N serving threads
/// carry one copy of the weights and N private activation arenas.
pub struct InferPlan {
    steps: Vec<ExecStep>,
    /// Element count of each arena slot.
    slot_lens: Vec<usize>,
    in_dims: Vec<usize>,
    out_dims: Vec<usize>,
    out_slot: usize,
    /// The policy the plan was built under; self-describing so serving
    /// layers can report it without out-of-band bookkeeping.
    fuse: FusePolicy,
}

impl InferPlan {
    /// The `[batch, …]` input shape the plan is specialised for; `batch`
    /// is the most lanes one run may carry.
    pub fn input_dims(&self) -> &[usize] {
        &self.in_dims
    }

    /// The fuse policy this plan was built under.
    pub fn fuse_policy(&self) -> FusePolicy {
        self.fuse
    }

    /// The output shape a full-batch run produces.
    pub fn output_dims(&self) -> &[usize] {
        &self.out_dims
    }

    /// Total f32 elements across the planned activation arena (one
    /// executor's steady-state activation footprint).
    pub fn arena_elems(&self) -> usize {
        self.slot_lens.iter().sum()
    }
}

/// A planned, arena-backed inference program for up to `batch` lanes of
/// one fixed per-lane shape. Built by [`plan_zipnet`] or
/// [`plan_discriminator`]; run it as many times as there are batches, or
/// [`InferExec::fork`] it so several threads replay the same shared
/// [`InferPlan`] concurrently.
pub struct InferExec {
    plan: Arc<InferPlan>,
    slots: Vec<Vec<f32>>,
}

/// Splits two distinct slots into a read view and a write view.
fn slot_pair(slots: &mut [Vec<f32>], read: usize, write: usize) -> (&[f32], &mut [f32]) {
    debug_assert_ne!(read, write);
    if read < write {
        let (a, b) = slots.split_at_mut(write);
        (&a[read], &mut b[0])
    } else {
        let (a, b) = slots.split_at_mut(read);
        (&b[0], &mut a[write])
    }
}

fn run_kernel(kernel: &Kernel, src: &[f32], dst: &mut [f32], in_dims: &[usize]) -> Result<()> {
    match kernel {
        Kernel::Conv2d { w, spec, ep } => conv2d_forward_into(
            src,
            in_dims,
            w.as_slice(),
            w.dims(),
            spec,
            dst,
            Some(&ep.epilogue()),
        ),
        Kernel::Conv3d { w, spec, ep } => conv3d_forward_into(
            src,
            in_dims,
            w.as_slice(),
            w.dims(),
            spec,
            dst,
            Some(&ep.epilogue()),
        ),
        Kernel::Conv2dQuant {
            wq,
            w_dims,
            spec,
            ep,
        } => conv2d_forward_q_into(src, in_dims, wq, w_dims, spec, dst, &ep.epilogue()),
        Kernel::Conv3dQuant {
            wq,
            w_dims,
            spec,
            ep,
        } => conv3d_forward_q_into(src, in_dims, wq, w_dims, spec, dst, &ep.epilogue()),
        Kernel::Deconv3d { w, spec, ep } => conv_transpose3d_forward_into(
            src,
            in_dims,
            w.as_slice(),
            w.dims(),
            spec,
            dst,
            Some(&ep.epilogue()),
        ),
        Kernel::AvgPool => {
            let (n, c) = (in_dims[0], in_dims[1]);
            let spatial: usize = in_dims[2..].iter().product();
            for ni in 0..n {
                for ci in 0..c {
                    let base = (ni * c + ci) * spatial;
                    let s: f64 = src[base..base + spatial].iter().map(|&v| v as f64).sum();
                    dst[ni * c + ci] = (s / spatial as f64) as f32;
                }
            }
            Ok(())
        }
        Kernel::Dense { w, bias, batch } => {
            let (f_out, f_in) = (w.dims()[0], w.dims()[1]);
            dst.fill(0.0);
            sgemm_nt_rows(src, w.as_slice(), dst, in_dims[0], *batch, f_in, f_out);
            for row in dst.chunks_mut(f_out) {
                for (v, b) in row.iter_mut().zip(bias) {
                    *v += *b;
                }
            }
            Ok(())
        }
        Kernel::AddAssign => unreachable!("dispatched separately"),
    }
}

impl InferExec {
    /// Builds an executor (fresh, zeroed arena) over a shared plan.
    pub fn from_plan(plan: Arc<InferPlan>) -> InferExec {
        let slots = plan.slot_lens.iter().map(|&l| vec![0.0f32; l]).collect();
        InferExec { plan, slots }
    }

    /// A new executor over the *same* shared plan with its own private
    /// activation arena. Forked executors replay the identical program —
    /// same weight snapshots, same step order — so their results are
    /// bit-identical to the original's; each costs only one arena
    /// ([`InferPlan::arena_elems`] f32s), not a weight copy. This is how
    /// a concurrent server runs one planned model on several threads.
    pub fn fork(&self) -> InferExec {
        InferExec::from_plan(Arc::clone(&self.plan))
    }

    /// The shared plan this executor replays.
    pub fn plan(&self) -> &Arc<InferPlan> {
        &self.plan
    }

    /// The `[batch, …]` input shape the plan is specialised for.
    pub fn input_dims(&self) -> &[usize] {
        &self.plan.in_dims
    }

    /// The output shape one run produces.
    pub fn output_dims(&self) -> &[usize] {
        &self.plan.out_dims
    }

    /// Total f32 elements across the planned activation arena — the whole
    /// steady-state activation footprint.
    pub fn arena_elems(&self) -> usize {
        self.slots.iter().map(|s| s.len()).sum()
    }

    /// Executes the plan over the leading `k` lanes of the planned batch,
    /// where `k` is read off the slices: `x` holds `k` lanes of input,
    /// `out` receives the same `k` lanes of output, `1 ≤ k ≤ batch`. Only
    /// those lanes are computed — a partial batch costs `k / batch` of a
    /// full one — and each is bit-identical to the same lane of a
    /// full-batch run. Performs no heap allocation once the kernels'
    /// scratch arenas are warm (first run).
    pub fn run_into(&mut self, x: &[f32], out: &mut [f32]) -> Result<()> {
        let batch = self.plan.in_dims[0];
        let lane_in: usize = self.plan.in_dims[1..].iter().product();
        let lane_out: usize = self.plan.out_dims[1..].iter().product();
        let lanes = x.len() / lane_in;
        if !(1..=batch).contains(&lanes)
            || x.len() != lanes * lane_in
            || out.len() != lanes * lane_out
        {
            return Err(TensorError::InvalidShape {
                op: "InferExec::run_into",
                reason: format!(
                    "plan wants 1..={batch} lanes of {lane_in} in / {lane_out} out, got {} / {}",
                    x.len(),
                    out.len()
                ),
            });
        }
        for step in &self.plan.steps {
            let (in_len, out_len) = (lanes * step.in_lane, lanes * step.out_lane);
            if matches!(step.kernel, Kernel::AddAssign) {
                let extra = step.extra.expect("AddAssign has a second operand");
                let (src, dst) = slot_pair(&mut self.slots, extra, step.dst);
                for (d, s) in dst[..out_len].iter_mut().zip(&src[..out_len]) {
                    *d += *s;
                }
                continue;
            }
            // The step's dims with this run's lane count in front.
            let mut dims = [lanes; MAX_RANK];
            let dims = &mut dims[..step.in_dims.len()];
            dims[1..].copy_from_slice(&step.in_dims[1..]);
            match step.src {
                Loc::Input => {
                    let dst = &mut self.slots[step.dst];
                    run_kernel(&step.kernel, &x[..in_len], &mut dst[..out_len], dims)?;
                }
                Loc::Slot(s) => {
                    let (src, dst) = slot_pair(&mut self.slots, s, step.dst);
                    run_kernel(&step.kernel, &src[..in_len], &mut dst[..out_len], dims)?;
                }
            }
        }
        out.copy_from_slice(&self.slots[self.plan.out_slot][..out.len()]);
        Ok(())
    }

    /// Allocating convenience wrapper around [`InferExec::run_into`].
    pub fn run(&mut self, x: &Tensor) -> Result<Tensor> {
        if x.dims() != self.plan.in_dims {
            return Err(TensorError::InvalidShape {
                op: "InferExec::run",
                reason: format!(
                    "plan specialised for {:?}, got {:?}",
                    self.plan.in_dims,
                    x.dims()
                ),
            });
        }
        let mut out = Tensor::zeros(self.plan.out_dims.clone());
        self.run_into(x.as_slice(), out.as_mut_slice())?;
        Ok(out)
    }
}

/// Clones every parameter and buffer of `net` into a name → tensor map.
fn snapshot(net: &mut dyn Layer) -> HashMap<String, Tensor> {
    let mut map = HashMap::new();
    net.visit_params(&mut |p| {
        map.insert(p.name.clone(), p.value.clone());
    });
    net.visit_buffers(&mut |p| {
        map.insert(p.name.clone(), p.value.clone());
    });
    map
}

fn get(params: &HashMap<String, Tensor>, name: &str) -> Result<Tensor> {
    params
        .get(name)
        .cloned()
        .ok_or_else(|| plan_err(format!("model has no parameter {name:?}")))
}

/// Extracts one conv stage's weight + epilogue constants under `policy`.
/// `bn` is the BatchNorm prefix fused behind the conv (if any), `alpha`
/// the trailing LeakyReLU slope (if any).
fn conv_stage(
    params: &HashMap<String, Tensor>,
    conv: &str,
    bn: Option<&str>,
    alpha: Option<f32>,
    policy: FusePolicy,
    co_axis: usize,
) -> Result<(Tensor, EpConsts)> {
    let mut w = get(params, &format!("{conv}.weight"))?;
    let bias = get(params, &format!("{conv}.bias"))?.as_slice().to_vec();
    let ep = match bn {
        None => EpConsts {
            bias,
            bn: None,
            alpha,
        },
        Some(bn) => {
            let gamma = get(params, &format!("{bn}.gamma"))?;
            let beta = get(params, &format!("{bn}.beta"))?;
            let mean = get(params, &format!("{bn}.running_mean"))?;
            let var = get(params, &format!("{bn}.running_var"))?;
            match policy {
                FusePolicy::Exact => {
                    // Same inv-std expression as the BatchNorm eval
                    // forward, so the fused epilogue is bit-identical to
                    // the layer stack.
                    let inv_std = var.map(|v| 1.0 / (v + BN_EPS).sqrt());
                    EpConsts {
                        bias,
                        bn: Some([
                            mean.as_slice().to_vec(),
                            inv_std.as_slice().to_vec(),
                            gamma.as_slice().to_vec(),
                            beta.as_slice().to_vec(),
                        ]),
                        alpha,
                    }
                }
                FusePolicy::Folded | FusePolicy::Quantized => {
                    let (scale, shift) = bn_fold_constants(
                        gamma.as_slice(),
                        beta.as_slice(),
                        mean.as_slice(),
                        var.as_slice(),
                    );
                    let dims = w.dims().to_vec();
                    scale_channel_axis(&dims, w.as_mut_slice(), co_axis, &scale)?;
                    let bias = bias
                        .iter()
                        .zip(&scale)
                        .zip(&shift)
                        .map(|((b, s), sh)| b * s + sh)
                        .collect();
                    EpConsts {
                        bias,
                        bn: None,
                        alpha,
                    }
                }
            }
        }
    };
    // Transposed convs under the quantized policy run f32 kernels over
    // quantize-dequantized weights: the reduction extent is only the
    // deconv input-channel count, too short for integer GEMM to pay.
    if policy == FusePolicy::Quantized && co_axis == DECONV_CO_AXIS {
        let dims = w.dims().to_vec();
        quantize_dequantize_channel_axis(&dims, w.as_mut_slice(), co_axis)?;
    }
    Ok((w, ep))
}

/// Wraps a (possibly folded) conv2d weight as the policy's kernel:
/// quantized policies reshape `[Co, Ci, kh, kw]` to `Co × (Ci·kh·kw)` and
/// quantize per output channel — exactly the row layout the im2col GEMM
/// multiplies against.
fn conv2d_kernel(w: Tensor, spec: Conv2dSpec, ep: EpConsts, policy: FusePolicy) -> Kernel {
    if policy == FusePolicy::Quantized {
        let w_dims = w.dims().to_vec();
        let co = w_dims[0];
        let cols: usize = w_dims[1..].iter().product();
        let wq = QuantizedMat::quantize_rows(w.as_slice(), co, cols);
        Kernel::Conv2dQuant {
            wq,
            w_dims,
            spec,
            ep,
        }
    } else {
        Kernel::Conv2d { w, spec, ep }
    }
}

/// [`conv2d_kernel`] for `[Co, Ci, kd, kh, kw]` conv3d weights.
fn conv3d_kernel(w: Tensor, spec: Conv3dSpec, ep: EpConsts, policy: FusePolicy) -> Kernel {
    if policy == FusePolicy::Quantized {
        let w_dims = w.dims().to_vec();
        let co = w_dims[0];
        let cols: usize = w_dims[1..].iter().product();
        let wq = QuantizedMat::quantize_rows(w.as_slice(), co, cols);
        Kernel::Conv3dQuant {
            wq,
            w_dims,
            spec,
            ep,
        }
    } else {
        Kernel::Conv3d { w, spec, ep }
    }
}

/// Plans the eval forward of a [`ZipNet`] for inputs
/// `[batch, 1, S, h, w]`. The model itself is not modified (folding under
/// [`FusePolicy::Folded`] happens on plan-local weight copies).
pub fn plan_zipnet(
    net: &mut ZipNet,
    policy: FusePolicy,
    batch: usize,
    h: usize,
    w: usize,
) -> Result<InferExec> {
    let cfg = net.config().clone();
    if batch == 0 || h == 0 || w == 0 {
        return Err(plan_err("batch and spatial dims must be positive".into()));
    }
    let params = snapshot(net);
    let factors = upscale_blocks(cfg.upscale)?;
    let alpha = Some(cfg.leaky_alpha);
    let (s, c) = (cfg.s, cfg.channels);
    let in_dims = vec![batch, 1, s, h, w];
    let mut gb = GraphBuilder::new(in_dims.iter().product());

    // Stage 1: 3D upscaling blocks.
    let mut v = 0;
    let (mut ch, mut hh, mut ww) = (1usize, h, w);
    for (i, &f) in factors.iter().enumerate() {
        let (tk, tp) = if f == 1 { (1, 0) } else { (3, 1) };
        let spec = Conv3dSpec {
            stride: (1, f, f),
            pad: (tp, 0, 0),
        };
        let (wt, ep) = conv_stage(
            &params,
            &format!("up{i}.deconv"),
            Some(&format!("up{i}.bn0")),
            alpha,
            policy,
            DECONV_CO_AXIS,
        )?;
        let _ = tk; // kernel extent lives in the weight dims
        let cur_dims = vec![batch, ch, s, hh, ww];
        hh *= f;
        ww *= f;
        v = gb.push(
            Kernel::Deconv3d { w: wt, spec, ep },
            v,
            None,
            cur_dims,
            batch * c * s * hh * ww,
            false,
        )?;
        ch = c;
        for j in 0..3 {
            let (wt, ep) = conv_stage(
                &params,
                &format!("up{i}.conv{j}"),
                Some(&format!("up{i}.bn{}", j + 1)),
                alpha,
                policy,
                CONV_CO_AXIS,
            )?;
            v = gb.push(
                conv3d_kernel(wt, Conv3dSpec::same(3, 3), ep, policy),
                v,
                None,
                vec![batch, ch, s, hh, ww],
                batch * ch * s * hh * ww,
                false,
            )?;
        }
    }

    // Bridge: temporal collapse to [batch, C, 1, H, W]; the reshape to
    // [batch, C, H, W] is free (same memory), and collapse.bn + LReLU ride
    // the collapse conv's epilogue (per-channel constants are unaffected
    // by dropping the unit depth axis).
    let (wt, ep) = conv_stage(
        &params,
        "collapse",
        Some("collapse.bn"),
        alpha,
        policy,
        CONV_CO_AXIS,
    )?;
    v = gb.push(
        conv3d_kernel(
            wt,
            Conv3dSpec {
                stride: (1, 1, 1),
                pad: (0, 0, 0),
            },
            ep,
            policy,
        ),
        v,
        None,
        vec![batch, ch, s, hh, ww],
        batch * ch * hh * ww,
        false,
    )?;

    // Stage 2: zipper core. acts[i] = a_i; skip adds run in place on the
    // freshly produced module output, with their sources pinned by the
    // liveness planner.
    let dims2 = vec![batch, ch, hh, ww];
    let len2 = batch * ch * hh * ww;
    let mut acts = vec![v];
    for i in 0..cfg.zipper_modules {
        let (wt, ep) = conv_stage(
            &params,
            &format!("zip{i}.conv"),
            Some(&format!("zip{i}.bn")),
            alpha,
            policy,
            CONV_CO_AXIS,
        )?;
        let mut b = gb.push(
            conv2d_kernel(wt, Conv2dSpec::same(3), ep, policy),
            acts[i],
            None,
            dims2.clone(),
            len2,
            false,
        )?;
        match cfg.skip_mode {
            SkipMode::Zipper if i >= 1 => {
                b = gb.push(
                    Kernel::AddAssign,
                    b,
                    Some(acts[i - 1]),
                    dims2.clone(),
                    len2,
                    true,
                )?;
            }
            SkipMode::ResNet => {
                b = gb.push(
                    Kernel::AddAssign,
                    b,
                    Some(acts[i]),
                    dims2.clone(),
                    len2,
                    true,
                )?;
            }
            _ => {}
        }
        acts.push(b);
    }
    let mut core = *acts.last().expect("at least the collapse output");
    if cfg.skip_mode == SkipMode::Zipper {
        core = gb.push(
            Kernel::AddAssign,
            core,
            Some(acts[0]),
            dims2.clone(),
            len2,
            true,
        )?;
    }

    // Stage 3: tail (last conv has neither BN nor activation).
    let (wt, ep) = conv_stage(
        &params,
        "tail0",
        Some("tail0.bn"),
        alpha,
        policy,
        CONV_CO_AXIS,
    )?;
    v = gb.push(
        conv2d_kernel(wt, Conv2dSpec::same(3), ep, policy),
        core,
        None,
        dims2,
        batch * 2 * ch * hh * ww,
        false,
    )?;
    let (wt, ep) = conv_stage(
        &params,
        "tail1",
        Some("tail1.bn"),
        alpha,
        policy,
        CONV_CO_AXIS,
    )?;
    v = gb.push(
        conv2d_kernel(wt, Conv2dSpec::same(3), ep, policy),
        v,
        None,
        vec![batch, 2 * ch, hh, ww],
        batch * 4 * ch * hh * ww,
        false,
    )?;
    let (wt, ep) = conv_stage(&params, "tail2", None, None, policy, CONV_CO_AXIS)?;
    v = gb.push(
        conv2d_kernel(wt, Conv2dSpec::same(3), ep, policy),
        v,
        None,
        vec![batch, 4 * ch, hh, ww],
        batch * hh * ww,
        false,
    )?;

    gb.finish(v, in_dims, vec![batch, 1, hh, ww], policy)
}

/// Plans the eval forward of a [`Discriminator`] for inputs
/// `[batch, 1, h, w]`, producing `[batch, 1]` logits.
pub fn plan_discriminator(
    net: &mut Discriminator,
    policy: FusePolicy,
    batch: usize,
    h: usize,
    w: usize,
) -> Result<InferExec> {
    let cfg = net.config().clone();
    if batch == 0 || h == 0 || w == 0 {
        return Err(plan_err("batch and spatial dims must be positive".into()));
    }
    let params = snapshot(net);
    let in_dims = vec![batch, 1, h, w];
    let mut gb = GraphBuilder::new(in_dims.iter().product());

    let mut v = 0;
    let (mut c_in, mut c_out) = (1usize, cfg.base_channels);
    let (mut hh, mut ww) = (h, w);
    for b in 0..cfg.blocks {
        let stride = if b % 2 == 1 { 2 } else { 1 };
        let (wt, ep) = conv_stage(
            &params,
            &format!("d{b}.conv"),
            Some(&format!("d{b}.bn")),
            Some(cfg.leaky_alpha),
            policy,
            CONV_CO_AXIS,
        )?;
        let cur_dims = vec![batch, c_in, hh, ww];
        // 3×3 kernel, pad 1: out = (n + 2 − 3)/stride + 1.
        hh = (hh - 1) / stride + 1;
        ww = (ww - 1) / stride + 1;
        v = gb.push(
            conv2d_kernel(
                wt,
                Conv2dSpec {
                    stride: (stride, stride),
                    pad: (1, 1),
                },
                ep,
                policy,
            ),
            v,
            None,
            cur_dims,
            batch * c_out * hh * ww,
            false,
        )?;
        c_in = c_out;
        if b % 2 == 1 {
            c_out *= 2;
        }
    }
    v = gb.push(
        Kernel::AvgPool,
        v,
        None,
        vec![batch, c_in, hh, ww],
        batch * c_in,
        false,
    )?;
    let wt = get(&params, "d.head.weight")?;
    let bias = get(&params, "d.head.bias")?.as_slice().to_vec();
    v = gb.push(
        Kernel::Dense { w: wt, bias, batch },
        v,
        None,
        vec![batch, c_in],
        batch,
        false,
    )?;
    gb.finish(v, in_dims, vec![batch, 1], policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DiscriminatorConfig, ZipNetConfig};
    use mtsr_tensor::Rng;

    fn warmed_zipnet(cfg: &ZipNetConfig, seed: u64, h: usize) -> ZipNet {
        let mut rng = Rng::seed_from(seed);
        let mut net = ZipNet::new(cfg, &mut rng).unwrap();
        // Non-trivial running statistics.
        for _ in 0..2 {
            let x = Tensor::rand_normal([2, 1, cfg.s, h, h], 0.2, 1.0, &mut rng);
            net.forward(&x, true).unwrap();
        }
        net
    }

    #[test]
    fn exact_plan_is_bit_identical_to_layer_stack() {
        let cfg = ZipNetConfig::tiny(2, 3);
        let mut net = warmed_zipnet(&cfg, 11, 4);
        let x = Tensor::rand_normal([2, 1, 3, 4, 4], 0.0, 1.0, &mut Rng::seed_from(12));
        let y_ref = net.forward(&x, false).unwrap();
        let mut exec = plan_zipnet(&mut net, FusePolicy::Exact, 2, 4, 4).unwrap();
        assert_eq!(exec.run(&x).unwrap(), y_ref);
        // Plan-once / execute-many: a second run through the same arena
        // must give the same bits.
        assert_eq!(exec.run(&x).unwrap(), y_ref);
        // Planning must not have perturbed the model.
        assert_eq!(net.forward(&x, false).unwrap(), y_ref);
    }

    #[test]
    fn folded_plan_matches_to_roundoff() {
        let cfg = ZipNetConfig::tiny(2, 3);
        let mut net = warmed_zipnet(&cfg, 13, 4);
        let x = Tensor::rand_normal([1, 1, 3, 4, 4], 0.0, 1.0, &mut Rng::seed_from(14));
        let y_ref = net.forward(&x, false).unwrap();
        let mut exec = plan_zipnet(&mut net, FusePolicy::Folded, 1, 4, 4).unwrap();
        let y = exec.run(&x).unwrap();
        let diff = y
            .as_slice()
            .iter()
            .zip(y_ref.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(diff < 1e-3, "folded drifted by {diff}");
    }

    #[test]
    fn arena_is_smaller_than_unplanned_activations() {
        let cfg = ZipNetConfig::tiny(2, 3);
        let mut net = warmed_zipnet(&cfg, 15, 4);
        let exec = plan_zipnet(&mut net, FusePolicy::Folded, 1, 4, 4).unwrap();
        // Unplanned: every step's output is its own allocation. The 3D
        // stage dominates; with recycling the arena must undercut the sum
        // of all per-step outputs by a wide margin.
        let c = cfg.channels;
        let three_d = 4 * c * 3 * 8 * 8; // deconv + 3 convs at [1,c,3,8,8]
        let two_d = (cfg.zipper_modules + 4) * c * 8 * 8;
        assert!(
            exec.arena_elems() < (three_d + two_d) / 2,
            "arena {} vs naive {}",
            exec.arena_elems(),
            three_d + two_d
        );
    }

    #[test]
    fn skip_mode_variants_stay_exact() {
        for mode in [SkipMode::Zipper, SkipMode::ResNet, SkipMode::None] {
            let mut cfg = ZipNetConfig::tiny(2, 2);
            cfg.skip_mode = mode;
            let mut net = warmed_zipnet(&cfg, 17, 3);
            let x = Tensor::rand_normal([1, 1, 2, 3, 3], 0.0, 1.0, &mut Rng::seed_from(18));
            let y_ref = net.forward(&x, false).unwrap();
            let mut exec = plan_zipnet(&mut net, FusePolicy::Exact, 1, 3, 3).unwrap();
            assert_eq!(exec.run(&x).unwrap(), y_ref, "{mode:?}");
        }
    }

    #[test]
    fn discriminator_exact_plan_matches() {
        let cfg = DiscriminatorConfig::tiny();
        let mut rng = Rng::seed_from(19);
        let mut net = Discriminator::new(&cfg, &mut rng).unwrap();
        for _ in 0..2 {
            let x = Tensor::rand_normal([2, 1, 12, 12], 0.1, 0.9, &mut rng);
            net.forward(&x, true).unwrap();
        }
        let x = Tensor::rand_normal([3, 1, 12, 12], 0.0, 1.0, &mut rng);
        let y_ref = net.forward(&x, false).unwrap();
        let mut exec = plan_discriminator(&mut net, FusePolicy::Exact, 3, 12, 12).unwrap();
        assert_eq!(exec.run(&x).unwrap(), y_ref);
    }

    #[test]
    fn forked_executors_share_the_plan_and_match_bitwise() {
        let cfg = ZipNetConfig::tiny(2, 3);
        let mut net = warmed_zipnet(&cfg, 29, 4);
        let x = Tensor::rand_normal([1, 1, 3, 4, 4], 0.0, 1.0, &mut Rng::seed_from(30));
        let mut exec = plan_zipnet(&mut net, FusePolicy::Folded, 1, 4, 4).unwrap();
        let y = exec.run(&x).unwrap();
        let mut forks: Vec<InferExec> = (0..3).map(|_| exec.fork()).collect();
        for f in &forks {
            assert!(Arc::ptr_eq(exec.plan(), f.plan()), "plan must be shared");
        }
        // Concurrent replays on the shared plan give the same bits.
        let results: Vec<Tensor> = std::thread::scope(|scope| {
            let handles: Vec<_> = forks
                .iter_mut()
                .map(|f| {
                    let x = &x;
                    scope.spawn(move || f.run(x).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            assert_eq!(r, y);
        }
    }

    #[test]
    fn plan_rejects_bad_shapes() {
        let cfg = ZipNetConfig::tiny(2, 3);
        let mut net = warmed_zipnet(&cfg, 23, 4);
        assert!(plan_zipnet(&mut net, FusePolicy::Exact, 0, 4, 4).is_err());
        let mut exec = plan_zipnet(&mut net, FusePolicy::Exact, 1, 4, 4).unwrap();
        // Wrong input shape at run time.
        let x = Tensor::zeros([1, 1, 3, 5, 5]);
        assert!(exec.run(&x).is_err());
        let mut out = vec![0.0f32; 7];
        assert!(exec.run_into(&[0.0; 48], &mut out).is_err());
    }
}
