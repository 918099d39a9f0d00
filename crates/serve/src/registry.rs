//! Multi-model tenancy: a fixed set of named model slots, each holding
//! an atomically swappable `Arc<InferPlan>` plus a **generation**
//! counter bumped by every hot reload.
//!
//! The generation is the unit of the serving bit-identity guarantee:
//! every `INFER` reply is stamped with the generation of the plan that
//! executed it, and all replies of one generation are bit-identical to
//! offline inference under that plan. A swap is a single `RwLock` write
//! of an `Arc`; batchers that already cloned the old `Arc` finish their
//! in-flight batch on it (no torn plans, no draining pause), and pick up
//! the new generation on their next batch.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use mtsr_telemetry::WindowedHist;
use zipnet_core::InferPlan;

use crate::drift::DriftMonitor;

/// Re-plans a model from a checkpoint source (a path, for the CLI) —
/// how the daemon turns a `RELOAD` frame or `SIGHUP` into a fresh
/// [`InferPlan`]. Invoked on a background thread, never on the event
/// loop. Arguments are the model id and the source string.
pub type Planner = Arc<dyn Fn(u32, &str) -> io::Result<Arc<InferPlan>> + Send + Sync>;

/// One model to register at server start.
pub struct ModelSpec {
    /// Human-readable tenant name (shown in STATUS), e.g. `up4`.
    pub name: String,
    /// Checkpoint source the plan came from; reused by source-less
    /// reloads (`SIGHUP`, empty-source `RELOAD` frames).
    pub source: String,
    /// The planned model; generation 0.
    pub plan: Arc<InferPlan>,
}

/// Per-model monotonic counters and latency histogram for STATUS.
#[derive(Default)]
pub(crate) struct ModelStats {
    pub served: AtomicU64,
    pub errors: AtomicU64,
    pub timeouts: AtomicU64,
    pub reloads: AtomicU64,
    /// Executor runs for this model and the lanes they carried.
    pub exec_batches: AtomicU64,
    pub exec_lanes: AtomicU64,
    /// `TRUTH` frames that matched a buffered prediction.
    pub truth_matched: AtomicU64,
    /// `TRUTH` frames with no matching prediction (late, wrong id, or
    /// the prediction was evicted).
    pub truth_unmatched: AtomicU64,
    /// Times the drift gauge tripped and a fine-tune was started.
    pub drift_triggers: AtomicU64,
    /// Fine-tuned candidates that passed the gate and were promoted.
    pub promotions_ok: AtomicU64,
    /// Candidates rejected by the gate (or whose fine-tune failed).
    pub promotions_rejected: AtomicU64,
    /// A fine-tune thread is currently running for this model — at most
    /// one per model; further triggers are suppressed until it clears.
    pub adapting: AtomicBool,
    pub latency: Mutex<WindowedHist>,
}

pub(crate) struct ModelEntry {
    pub name: String,
    pub source: Mutex<String>,
    /// `(generation, plan)` — swapped as one unit under the write lock.
    slot: RwLock<(u32, Arc<InferPlan>)>,
    pub stats: ModelStats,
    /// Prediction↔truth pairing and the rolling drift gauge.
    pub drift: Mutex<DriftMonitor>,
}

impl ModelEntry {
    /// Observes one served-request latency.
    pub fn observe_latency(&self, ns: u64) {
        self.stats
            .latency
            .lock()
            .expect("model latency mutex poisoned")
            .observe(ns);
    }
}

fn check_plan(name: &str, plan: &InferPlan) -> io::Result<()> {
    let (ind, outd) = (plan.input_dims(), plan.output_dims());
    if ind.len() != 5 || outd.len() != 4 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "model `{name}` needs a generator plan [batch,1,S,h,w] -> [batch,1,fh,fw], \
                 got {ind:?} -> {outd:?}"
            ),
        ));
    }
    Ok(())
}

/// The daemon's tenant table. The set of slots is fixed at start; hot
/// reload swaps a slot's plan, it never adds or removes tenants.
pub(crate) struct ModelRegistry {
    entries: Vec<ModelEntry>,
}

impl ModelRegistry {
    pub fn new(specs: Vec<ModelSpec>) -> io::Result<ModelRegistry> {
        if specs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "serve needs at least one model",
            ));
        }
        let mut entries = Vec::with_capacity(specs.len());
        for spec in specs {
            check_plan(&spec.name, &spec.plan)?;
            entries.push(ModelEntry {
                name: spec.name,
                source: Mutex::new(spec.source),
                slot: RwLock::new((0, spec.plan)),
                stats: ModelStats::default(),
                drift: Mutex::new(DriftMonitor::new(32, 32, 8)),
            });
        }
        Ok(ModelRegistry { entries })
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn entry(&self, id: u32) -> Option<&ModelEntry> {
        self.entries.get(id as usize)
    }

    pub fn entries(&self) -> &[ModelEntry] {
        &self.entries
    }

    /// The model's current `(generation, plan)` snapshot.
    pub fn current(&self, id: u32) -> Option<(u32, Arc<InferPlan>)> {
        let entry = self.entry(id)?;
        let g = entry.slot.read().expect("model slot poisoned");
        Some((g.0, Arc::clone(&g.1)))
    }

    /// Atomically swaps `plan` into slot `id`, bumping its generation.
    /// The new plan must keep the slot's exact geometry (including the
    /// batch lane count): a tenant is one city/factor, and geometry
    /// changes would invalidate requests admitted against the old
    /// shapes. Returns the new generation.
    pub fn swap(&self, id: u32, plan: Arc<InferPlan>, source: Option<String>) -> io::Result<u32> {
        let entry = self.entry(id).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown model id {id} ({} registered)", self.len()),
            )
        })?;
        check_plan(&entry.name, &plan)?;
        let mut g = entry.slot.write().expect("model slot poisoned");
        let old = &g.1;
        if plan.input_dims() != old.input_dims() || plan.output_dims() != old.output_dims() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "reload of model `{}` changes geometry {:?} -> {:?} (register a new \
                     tenant instead)",
                    entry.name,
                    old.input_dims(),
                    plan.input_dims()
                ),
            ));
        }
        g.0 += 1;
        g.1 = plan;
        let generation = g.0;
        drop(g);
        if let Some(src) = source {
            *entry.source.lock().expect("model source poisoned") = src;
        }
        entry.stats.reloads.fetch_add(1, Ordering::SeqCst);
        Ok(generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsr_tensor::Rng;
    use zipnet_core::{plan_zipnet, FusePolicy, ZipNet, ZipNetConfig};

    fn tiny_plan(seed: u64) -> Arc<InferPlan> {
        let mut gen = ZipNet::new(&ZipNetConfig::tiny(4, 2), &mut Rng::seed_from(seed)).unwrap();
        let exec = plan_zipnet(&mut gen, FusePolicy::Exact, 2, 3, 3).unwrap();
        Arc::clone(exec.plan())
    }

    #[test]
    fn swap_bumps_generation_and_keeps_geometry() {
        let reg = ModelRegistry::new(vec![ModelSpec {
            name: "up4".into(),
            source: "a.ckpt".into(),
            plan: tiny_plan(1),
        }])
        .unwrap();
        let (g0, p0) = reg.current(0).unwrap();
        assert_eq!(g0, 0);
        let g1 = reg.swap(0, tiny_plan(2), Some("b.ckpt".into())).unwrap();
        assert_eq!(g1, 1);
        let (g, p1) = reg.current(0).unwrap();
        assert_eq!(g, 1);
        // The old Arc stays valid for in-flight batches.
        assert_eq!(p0.input_dims(), p1.input_dims());
        assert_eq!(
            *reg.entry(0).unwrap().source.lock().unwrap(),
            "b.ckpt".to_string()
        );
        assert!(reg.current(1).is_none());
        assert!(reg.swap(9, tiny_plan(3), None).is_err());
    }

    #[test]
    fn geometry_changing_swap_is_rejected() {
        let reg = ModelRegistry::new(vec![ModelSpec {
            name: "up4".into(),
            source: String::new(),
            plan: tiny_plan(1),
        }])
        .unwrap();
        // Different batch count = different geometry: rejected.
        let mut gen = ZipNet::new(&ZipNetConfig::tiny(4, 2), &mut Rng::seed_from(5)).unwrap();
        let other = plan_zipnet(&mut gen, FusePolicy::Exact, 4, 3, 3).unwrap();
        let err = reg.swap(0, Arc::clone(other.plan()), None).unwrap_err();
        assert!(err.to_string().contains("changes geometry"), "{err}");
        let (g, _) = reg.current(0).unwrap();
        assert_eq!(g, 0, "failed swap must not bump the generation");
    }
}
