//! Live accuracy tracking: pairing served predictions with
//! later-arriving ground truth and deciding when a model has drifted.
//!
//! Mobile-traffic ground truth is not available at serving time — the
//! fine-grained frame a prediction approximates is only measured later
//! (if at all, e.g. from periodic full-fidelity sweeps). Clients submit
//! it retroactively over the wire with a `TRUTH` frame that reuses the
//! original `INFER` request's id. The [`DriftMonitor`] keeps a bounded
//! buffer of recent predictions so the pairing works without unbounded
//! memory, scores each pair with a range-normalised RMSE, and maintains
//! a rolling mean of those scores — the **drift gauge** reported in
//! STATUS and compared against the adaptation trigger threshold.
//!
//! Matched pairs double as the **fine-tune corpus**: the daemon buffers
//! the `(coarse input, fine truth)` pairs and hands them to the online
//! fine-tune driver when the gauge trips, holding out the newest few as
//! the promotion gate's evaluation slice.

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

use zipnet_core::{AdaptPair, InferExec, InferPlan};

/// Most recent predictions retained while their ground truth is still in
/// flight. Beyond this, the oldest unmatched prediction is dropped (its
/// late truth will count as unmatched).
const PRED_CAP: usize = 1024;

/// Error score for one `(prediction, truth)` window pair: RMSE
/// normalised by the truth's value range (max − min). Served windows are
/// z-score normalised, so their mean is near zero and the classic
/// mean-normalised NRMSE is undefined; the range-normalised form stays
/// meaningful. A flat truth window (range ≈ 0) falls back to plain RMSE.
pub fn window_nrmse(pred: &[f32], truth: &[f32]) -> f32 {
    debug_assert_eq!(pred.len(), truth.len());
    if truth.is_empty() {
        return 0.0;
    }
    let mut se = 0.0f64;
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for (&p, &t) in pred.iter().zip(truth) {
        se += f64::from(p - t) * f64::from(p - t);
        lo = lo.min(t);
        hi = hi.max(t);
    }
    let rmse = (se / truth.len() as f64).sqrt() as f32;
    let range = hi - lo;
    if range > 1e-6 {
        rmse / range
    } else {
        rmse
    }
}

/// What one `TRUTH` submission did to the monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TruthOutcome {
    /// No buffered prediction carries this id (never seen, already
    /// matched, or evicted): nothing was scored.
    Unmatched,
    /// A prediction matched but the truth window has the wrong element
    /// count — the submission is malformed.
    BadLength {
        /// Elements in the submitted truth window.
        have: usize,
        /// Elements the matched prediction has.
        want: usize,
    },
    /// The pair was scored and buffered for adaptation.
    Scored {
        /// This pair's range-normalised RMSE.
        window_nrmse: f32,
        /// The rolling drift gauge after folding this pair in.
        rolling: f32,
    },
}

/// Per-model drift state: a bounded id-addressed prediction buffer, the
/// rolling NRMSE gauge, and the buffered fine-tune pairs. One lives in
/// every registry slot behind a `Mutex`; all methods are O(buffered).
#[derive(Debug)]
pub struct DriftMonitor {
    window: usize,
    min_pairs: usize,
    holdout: usize,
    /// Last `window` pair scores (the gauge's support).
    scores: VecDeque<f32>,
    /// `(request id, coarse input, served prediction)` awaiting truth.
    preds: VecDeque<(u64, Vec<f32>, Vec<f32>)>,
    /// Matched `(input, truth)` pairs, oldest first.
    pairs: VecDeque<AdaptPair>,
}

impl DriftMonitor {
    /// A monitor with a `window`-pair rolling gauge that accumulates up
    /// to `min_pairs + holdout` fine-tune pairs.
    pub fn new(window: usize, min_pairs: usize, holdout: usize) -> DriftMonitor {
        DriftMonitor {
            window: window.max(1),
            min_pairs: min_pairs.max(1),
            holdout,
            scores: VecDeque::new(),
            preds: VecDeque::new(),
            pairs: VecDeque::new(),
        }
    }

    /// Re-parameterises the monitor (server startup), clearing all state.
    pub fn configure(&mut self, window: usize, min_pairs: usize, holdout: usize) {
        *self = DriftMonitor::new(window, min_pairs, holdout);
    }

    /// Records a served prediction so a later `TRUTH` frame can claim it
    /// by id. A repeated id replaces the older entry (latest wins).
    pub fn record_prediction(&mut self, id: u64, input: &[f32], prediction: &[f32]) {
        if let Some(slot) = self.preds.iter_mut().rev().find(|p| p.0 == id) {
            slot.1 = input.to_vec();
            slot.2 = prediction.to_vec();
            return;
        }
        if self.preds.len() == PRED_CAP {
            self.preds.pop_front();
        }
        self.preds
            .push_back((id, input.to_vec(), prediction.to_vec()));
    }

    /// Matches a ground-truth window against the buffered prediction with
    /// the same id, scores it, and (on success) buffers the adaptation
    /// pair. The matched prediction is consumed either way.
    pub fn observe_truth(&mut self, id: u64, truth: &[f32]) -> TruthOutcome {
        let Some(idx) = self.preds.iter().rposition(|p| p.0 == id) else {
            return TruthOutcome::Unmatched;
        };
        let (_, input, pred) = self.preds.remove(idx).expect("rposition is in range");
        if truth.len() != pred.len() {
            return TruthOutcome::BadLength {
                have: truth.len(),
                want: pred.len(),
            };
        }
        let score = window_nrmse(&pred, truth);
        if self.scores.len() == self.window {
            self.scores.pop_front();
        }
        self.scores.push_back(score);
        if self.pairs.len() == self.min_pairs + self.holdout {
            self.pairs.pop_front();
        }
        self.pairs.push_back(AdaptPair {
            input,
            target: truth.to_vec(),
        });
        TruthOutcome::Scored {
            window_nrmse: score,
            rolling: self.rolling(),
        }
    }

    /// The rolling drift gauge: mean pair score over the last `window`
    /// matched pairs (0 when nothing has been matched yet).
    pub fn rolling(&self) -> f32 {
        if self.scores.is_empty() {
            return 0.0;
        }
        (self.scores.iter().map(|&s| f64::from(s)).sum::<f64>() / self.scores.len() as f64) as f32
    }

    /// Matched pairs currently scored by the gauge.
    pub fn samples(&self) -> usize {
        self.scores.len()
    }

    /// Buffered fine-tune pairs.
    pub fn pairs_len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the gauge justifies kicking off a fine-tune: a full
    /// window of evidence, enough buffered pairs to both tune and gate,
    /// and a rolling score past `threshold`.
    pub fn should_trigger(&self, threshold: f32) -> bool {
        self.scores.len() >= self.window
            && self.pairs.len() >= self.min_pairs + self.holdout
            && self.rolling() > threshold
    }

    /// Drains the buffered pairs into `(train, holdout)` — the newest
    /// `holdout` pairs form the gate's evaluation slice (closest to the
    /// current regime), everything older is the fine-tune corpus.
    pub fn take_pairs(&mut self) -> (Vec<AdaptPair>, Vec<AdaptPair>) {
        let mut train: Vec<AdaptPair> = self.pairs.drain(..).collect();
        let held = train.split_off(train.len().saturating_sub(self.holdout));
        (train, held)
    }

    /// Clears everything — after a successful promotion the old model's
    /// scores and pairs describe weights that are no longer serving.
    pub fn reset(&mut self) {
        self.scores.clear();
        self.preds.clear();
        self.pairs.clear();
    }

    /// Clears only the gauge (rejection cooldown): the next trigger
    /// needs a whole fresh window of bad scores, but matched pairs keep
    /// accumulating so the retry has data.
    pub fn reset_gauge(&mut self) {
        self.scores.clear();
    }
}

/// Mean [`window_nrmse`] of `plan` over `pairs`, packed `batch` at a time
/// into a throwaway executor (the last run carries only the leftover
/// lanes) and scored in pair order — the promotion gate's scoring
/// function, also usable as an offline evaluation of any candidate plan.
/// Lanes are bit-identical however they are packed, so the score does not
/// depend on the plan's batch. Runs on the adaptation thread, never the
/// event loop.
pub fn holdout_nrmse(plan: &Arc<InferPlan>, pairs: &[AdaptPair]) -> io::Result<f32> {
    if pairs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "holdout evaluation needs at least one pair",
        ));
    }
    let mut exec = InferExec::from_plan(Arc::clone(plan));
    let in_len: usize = exec.input_dims().iter().product();
    let out_len: usize = exec.output_dims().iter().product();
    let batch = exec.input_dims()[0];
    let (crop_len, win_len) = (in_len / batch, out_len / batch);
    let mut input = vec![0.0f32; in_len];
    let mut output = vec![0.0f32; out_len];
    let mut total = 0.0f64;
    for chunk in pairs.chunks(batch) {
        for (pair, lane) in chunk.iter().zip(input.chunks_exact_mut(crop_len)) {
            if pair.input.len() != crop_len || pair.target.len() != win_len {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "holdout pair geometry ({} in / {} out) does not match the plan \
                         ({crop_len} in / {win_len} out)",
                        pair.input.len(),
                        pair.target.len()
                    ),
                ));
            }
            lane.copy_from_slice(&pair.input);
        }
        let lanes = chunk.len();
        exec.run_into(&input[..lanes * crop_len], &mut output[..lanes * win_len])
            .map_err(|e| io::Error::other(format!("holdout inference failed: {e}")))?;
        for (pair, pred) in chunk.iter().zip(output.chunks_exact(win_len)) {
            total += f64::from(window_nrmse(pred, &pair.target));
        }
    }
    Ok((total / pairs.len() as f64) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_nrmse_is_range_normalised_with_rmse_fallback() {
        // Truth range 0..=3, per-cell error 1 → RMSE 1, NRMSE 1/3.
        let truth = [0.0, 1.0, 2.0, 3.0];
        let pred = [1.0, 2.0, 3.0, 4.0];
        let s = window_nrmse(&pred, &truth);
        assert!((s - 1.0 / 3.0).abs() < 1e-6, "{s}");
        // Flat truth: falls back to plain RMSE instead of dividing by ~0.
        let flat = [2.0; 4];
        let s = window_nrmse(&pred, &flat);
        let want = ((1.0f32 + 0.0 + 1.0 + 4.0) / 4.0).sqrt();
        assert!((s - want).abs() < 1e-6, "{s}");
        assert_eq!(window_nrmse(&[], &[]), 0.0);
    }

    #[test]
    fn truth_matches_by_id_and_scores_the_gauge() {
        let mut m = DriftMonitor::new(2, 2, 1);
        m.record_prediction(7, &[0.5; 4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.observe_truth(99, &[0.0; 4]), TruthOutcome::Unmatched);
        assert_eq!(
            m.observe_truth(7, &[0.0; 3]),
            TruthOutcome::BadLength { have: 3, want: 4 }
        );
        // BadLength consumed the prediction: the id no longer matches.
        assert_eq!(m.observe_truth(7, &[0.0; 4]), TruthOutcome::Unmatched);

        m.record_prediction(8, &[0.5; 4], &[1.0, 2.0, 3.0, 4.0]);
        match m.observe_truth(8, &[0.0, 1.0, 2.0, 3.0]) {
            TruthOutcome::Scored {
                window_nrmse: w,
                rolling,
            } => {
                assert!((w - 1.0 / 3.0).abs() < 1e-6);
                assert_eq!(rolling, w, "single sample: rolling == window score");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!((m.samples(), m.pairs_len()), (1, 1));
    }

    #[test]
    fn gauge_rolls_and_trigger_requires_full_evidence() {
        let mut m = DriftMonitor::new(2, 2, 1);
        for id in 0..4u64 {
            m.record_prediction(id, &[0.0; 2], &[1.0, 2.0]);
        }
        m.observe_truth(0, &[1.0, 2.0]); // perfect: score 0
        assert!(!m.should_trigger(0.1), "one sample is not a full window");
        m.observe_truth(1, &[0.0, 4.0]); // bad
        m.observe_truth(2, &[0.0, 4.0]); // bad — evicts the perfect score
        assert_eq!(m.samples(), 2, "gauge window is bounded");
        assert!(m.rolling() > 0.3);
        // Needs min_pairs + holdout = 3 buffered pairs: only 3 matched so
        // far, trigger is now armed.
        assert_eq!(m.pairs_len(), 3);
        assert!(m.should_trigger(0.3));
        assert!(!m.should_trigger(10.0), "threshold is respected");

        let (train, held) = m.take_pairs();
        assert_eq!((train.len(), held.len()), (2, 1));
        // The holdout is the *newest* pair (truth [0, 4] from id 2).
        assert_eq!(held[0].target, vec![0.0, 4.0]);
        assert_eq!(train[0].target, vec![1.0, 2.0]);
        assert_eq!(m.pairs_len(), 0, "take_pairs drains the buffer");

        m.observe_truth(3, &[0.0, 4.0]);
        assert_eq!(m.samples(), 2);
        m.reset_gauge();
        assert_eq!((m.samples(), m.pairs_len()), (0, 1), "gauge-only reset");
        m.reset();
        assert_eq!((m.samples(), m.pairs_len()), (0, 0));
    }

    #[test]
    fn prediction_buffer_is_bounded_and_latest_id_wins() {
        let mut m = DriftMonitor::new(4, 4, 0);
        for id in 0..(PRED_CAP as u64 + 8) {
            m.record_prediction(id, &[0.0], &[1.0]);
        }
        assert_eq!(m.preds.len(), PRED_CAP);
        assert_eq!(
            m.observe_truth(0, &[1.0]),
            TruthOutcome::Unmatched,
            "oldest prediction was evicted"
        );
        // Re-recording an id replaces the stored prediction.
        m.record_prediction(500, &[0.0], &[9.0]);
        match m.observe_truth(500, &[9.0]) {
            TruthOutcome::Scored {
                window_nrmse: w, ..
            } => assert_eq!(w, 0.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Packing the holdout pairs `batch` to a run must not move the gate:
    /// the score equals, bit for bit, the one-pair-per-full-batch-run
    /// evaluation it replaced (pair in lane 0, same pair order, same f64
    /// accumulation), whether or not the pairs fill whole batches.
    #[test]
    fn packed_holdout_score_equals_one_pair_per_run() {
        use mtsr_tensor::Rng;
        use zipnet_core::{plan_zipnet, FusePolicy, ZipNet, ZipNetConfig};

        const BATCH: usize = 4;
        let mut rng = Rng::seed_from(5);
        let mut gen = ZipNet::new(&ZipNetConfig::tiny(4, 2), &mut rng).unwrap();
        let exec = plan_zipnet(&mut gen, FusePolicy::Folded, BATCH, 3, 3).unwrap();
        let plan = Arc::clone(exec.plan());
        let (crop_len, win_len) = (2 * 3 * 3, 12 * 12);
        let pairs: Vec<AdaptPair> = (0..2 * BATCH)
            .map(|_| AdaptPair {
                input: (0..crop_len).map(|_| rng.next_f32()).collect(),
                target: (0..win_len).map(|_| rng.next_f32()).collect(),
            })
            .collect();

        let one_per_run = |pairs: &[AdaptPair]| -> f32 {
            let mut exec = InferExec::from_plan(Arc::clone(&plan));
            let mut input = vec![0.0f32; BATCH * crop_len];
            let mut output = vec![0.0f32; BATCH * win_len];
            let mut total = 0.0f64;
            for pair in pairs {
                input[..crop_len].copy_from_slice(&pair.input);
                exec.run_into(&input, &mut output).unwrap();
                total += f64::from(window_nrmse(&output[..win_len], &pair.target));
            }
            (total / pairs.len() as f64) as f32
        };
        for n in [1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH] {
            let packed = holdout_nrmse(&plan, &pairs[..n]).unwrap();
            assert_eq!(
                packed.to_bits(),
                one_per_run(&pairs[..n]).to_bits(),
                "{n} pairs"
            );
        }
        assert!(holdout_nrmse(&plan, &[]).is_err());
        let mut bad = pairs[..BATCH + 1].to_vec();
        bad[BATCH].target.pop();
        assert!(holdout_nrmse(&plan, &bad).is_err(), "geometry is checked");
    }
}
