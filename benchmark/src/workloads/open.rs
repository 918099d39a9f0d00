//! `serve_open`: open loop, one connection with a sender thread and a
//! receiver thread (requests pipelined by client id), seeded Poisson
//! arrivals, Small model, 20x20 windows, plan batch 4,
//! `ServeConfig::default()`. Three phases back to back on one daemon:
//! `r300`, `r600` and `r2000` requests per second — about 45% and 90% of
//! the reference capacity, then overload. Every latency is timed from
//! the instant the request was due, not from when it was sent.

use super::trickle::{check_remote_frames, check_replies, exec_span};
use crate::fixture::{self, Res, Served, PLAN_BATCH};
use crate::report::Outcome;
use crate::schedule::{poisson_due_ns, wait_until};
use crate::stats::{median, percentile, supports};
use crate::trace::Recorder;
use mtsr_serve::protocol::{read_response, write_request};
use mtsr_serve::{InferOutcome, InferResponse, Opcode, RespStatus, ServeClient};
use mtsr_tensor::Rng;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use zipnet_core::ArchScale;

/// `(name, requests per second, share of the run)`: 10 s, 8 s and 6 s of
/// the issue's 24 s, scaled to `--seconds`.
const PHASES: [(&str, f64, f64); 3] = [
    ("r300", 300.0, 10.0 / 24.0),
    ("r600", 600.0, 8.0 / 24.0),
    ("r2000", 2000.0, 6.0 / 24.0),
];
/// A counted phase is invalid if more than one send in a hundred ran
/// later than this behind schedule: the generator, not the daemon, would
/// then shape the reported p90. A single stall of the sender's core (they
/// happen on two shared cores, and delay a few consecutive sends) does not
/// void a run whose latencies, timed from due time, already include it;
/// the worst single send is reported as `serve.sched_late_ms_max`.
const MAX_LATE_MS: f64 = 10.0;
/// The latency limit of `serve.max_rate_ok`: p90 from due time.
const LIMIT_MS: f64 = 40.0;
/// Every `SAMPLE_EVERY`-th reply is kept for the bit-identity check.
const SAMPLE_EVERY: usize = 257;
/// A reply still missing this long after the last request was sent is
/// counted as lost (the daemon's own deadline is 2 s).
const GRACE: Duration = Duration::from_secs(4);

fn setup(seed: u64) -> Res<Served> {
    Served::start(seed, ArchScale::Small, false)
}

/// One scheduled request.
struct Planned {
    phase: usize,
    /// Due time, ns from the start of the run.
    due_ns: u64,
    /// Index into the window pool.
    window: usize,
}

/// The seeded schedule of all three phases, due times ascending.
fn plan(seed: u64, seconds: f64, pool_len: usize) -> Vec<Planned> {
    let mut rng = Rng::seed_from(seed ^ 0x0be9_100b);
    let mut planned = Vec::new();
    let mut phase_start = 0u64;
    for (phase, &(_, rate, share)) in PHASES.iter().enumerate() {
        let secs = seconds * share;
        for due in poisson_due_ns(&mut rng, rate, secs) {
            planned.push(Planned {
                phase,
                due_ns: phase_start + due,
                window: rng.below(pool_len),
            });
        }
        phase_start += (secs * 1e9) as u64;
    }
    planned
}

/// What came back for one request.
#[derive(Clone, Copy, PartialEq)]
enum Reply {
    Missing,
    Ok,
    Busy,
    Timeout,
    Other,
}

struct Observed {
    /// Per request: how late the sender was (ms) and what came back when
    /// (ms from due time).
    late_ms: Vec<f64>,
    reply: Vec<Reply>,
    from_due_ms: Vec<f64>,
    /// `(pool index, reply data)` kept for the bit-identity check.
    sampled: Vec<(usize, Vec<f32>)>,
    duplicates: u64,
    /// `serve.exec` batches counted at each phase boundary (traced pass).
    exec_marks: Vec<u64>,
    recorder: Recorder,
}

/// Sends `planned` on schedule over one connection and collects every
/// reply. With `traced`, the client side of each request is recorded as
/// spans and the daemon's `serve.exec` count is read at phase boundaries.
fn drive(served: &Served, planned: &[Planned], traced: bool) -> Res<Observed> {
    let stream = TcpStream::connect(served.daemon.local_addr())?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let payloads: Vec<Vec<u8>> = served.pool.iter().map(|w| w.infer.encode()).collect();
    let n = planned.len();
    let start = Instant::now() + Duration::from_millis(20);
    let sent = AtomicU64::new(0);
    let done_sending = std::sync::Mutex::new(None::<Instant>);

    let (late_ms, send_spans, exec_marks, recv) = std::thread::scope(|scope| -> Res<_> {
        let sender = scope.spawn(|| -> Res<_> {
            // One write per request: the frame is assembled in the buffer
            // and `write_request` flushes it.
            let mut w = BufWriter::with_capacity(4096, &stream);
            let mut late_ms = Vec::with_capacity(n);
            let mut spans = Vec::with_capacity(if traced { n } else { 0 });
            let mut exec_marks = Vec::new();
            for (id, p) in planned.iter().enumerate() {
                if traced && (id == 0 || planned[id - 1].phase != p.phase) {
                    exec_marks.push(exec_span().0);
                }
                let due = start + Duration::from_nanos(p.due_ns);
                let woke = wait_until(due);
                late_ms.push((woke - due).as_secs_f64() * 1e3);
                // Published before the write: a BUSY reply can overtake
                // anything done after it.
                sent.store(id as u64 + 1, Ordering::Release);
                write_request(&mut w, Opcode::Infer, id as u64, &payloads[p.window])?;
                if traced {
                    spans.push((woke, Instant::now()));
                }
            }
            *done_sending.lock().expect("sender flag poisoned") = Some(Instant::now());
            Ok((late_ms, spans, exec_marks))
        });
        let receiver = scope.spawn(|| -> Res<_> {
            let mut r = BufReader::with_capacity(1 << 16, &stream);
            let mut reply = vec![Reply::Missing; n];
            let mut at = vec![start; n];
            let mut sampled = Vec::new();
            let (mut got, mut duplicates) = (0usize, 0u64);
            while got < n {
                let resp = match read_response(&mut r) {
                    Ok(resp) => resp,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        // Idle: give up once everything was sent long ago.
                        let finished = *done_sending.lock().expect("sender flag poisoned");
                        if finished.is_some_and(|t| t.elapsed() > GRACE) {
                            break;
                        }
                        continue;
                    }
                    Err(e) => return Err(e.into()),
                };
                let now = Instant::now();
                let id = resp.id as usize;
                if id >= n || id as u64 >= sent.load(Ordering::Acquire) {
                    return Err(format!("reply for request {id}, which was never sent").into());
                }
                if reply[id] != Reply::Missing {
                    duplicates += 1;
                    continue;
                }
                got += 1;
                at[id] = now;
                reply[id] = match resp.status {
                    RespStatus::Ok => Reply::Ok,
                    RespStatus::Busy => Reply::Busy,
                    RespStatus::Timeout => Reply::Timeout,
                    _ => Reply::Other,
                };
                if reply[id] == Reply::Ok && id.is_multiple_of(SAMPLE_EVERY) {
                    let data = InferResponse::decode(&resp.payload)?.data;
                    sampled.push((planned[id].window, data));
                }
            }
            Ok((reply, at, sampled, duplicates))
        });
        let (late_ms, spans, exec_marks) = sender.join().map_err(|_| "sender panicked")??;
        let recv = receiver.join().map_err(|_| "receiver panicked")??;
        Ok((late_ms, spans, exec_marks, recv))
    })?;
    let (reply, at, sampled, duplicates) = recv;

    let mut exec_marks = exec_marks;
    let mut recorder = Recorder::new(start);
    if traced {
        exec_marks.push(exec_span().0);
        for (id, (woke, wrote)) in send_spans.into_iter().enumerate() {
            let due = start + Duration::from_nanos(planned[id].due_ns);
            let end = if reply[id] == Reply::Missing {
                wrote
            } else {
                at[id]
            };
            let op = id as u64;
            let root = recorder.push(None, "bench.request", op, due, end);
            recorder.push(Some(root), "bench.sched_late", op, due, woke);
            recorder.push(Some(root), "serve.send", op, woke, wrote);
            recorder.push(Some(root), "serve.wait", op, wrote, end);
        }
    }
    let from_due_ms = planned
        .iter()
        .zip(&at)
        .map(|(p, &t)| {
            (t.saturating_duration_since(start).as_nanos() as f64 - p.due_ns as f64) / 1e6
        })
        .collect();
    Ok(Observed {
        late_ms,
        reply,
        from_due_ms,
        sampled,
        duplicates,
        exec_marks,
        recorder,
    })
}

/// Per-phase view of a run.
#[derive(Default)]
struct PhaseStats {
    sent: usize,
    ok: usize,
    busy: usize,
    timeout: usize,
    /// Missing, `ERR` and `DRAINING` replies.
    lost: usize,
    /// From-due latencies of `OK` replies, ms.
    ok_ms: Vec<f64>,
    /// How late each send was, ms.
    late_ms: Vec<f64>,
}

impl PhaseStats {
    fn late_ms_max(&self) -> f64 {
        self.late_ms.iter().copied().fold(0.0, f64::max)
    }
}

fn phase_stats(planned: &[Planned], obs: &Observed, phase: usize) -> PhaseStats {
    let mut st = PhaseStats::default();
    for (id, _) in planned.iter().enumerate().filter(|(_, p)| p.phase == phase) {
        st.sent += 1;
        st.late_ms.push(obs.late_ms[id]);
        match obs.reply[id] {
            Reply::Ok => {
                st.ok += 1;
                st.ok_ms.push(obs.from_due_ms[id]);
            }
            Reply::Busy => st.busy += 1,
            Reply::Timeout => st.timeout += 1,
            Reply::Missing | Reply::Other => st.lost += 1,
        }
    }
    st
}

/// Checks and counts shared by both passes; returns the three phases.
fn account(
    out: &mut Outcome,
    served: &Served,
    planned: &[Planned],
    obs: &Observed,
) -> Res<Vec<PhaseStats>> {
    check_replies(out, served, &obs.sampled)?;
    out.check(obs.duplicates == 0, || {
        format!("{} ids were answered twice", obs.duplicates)
    });
    let mut phases: Vec<PhaseStats> = (0..PHASES.len())
        .map(|k| phase_stats(planned, obs, k))
        .collect();
    // r300 and r600 are the counted operations: anything but OK fails.
    // In r2000 BUSY is the designed answer; lost and timed-out still fail.
    out.attempted = (phases[0].sent + phases[1].sent) as u64;
    out.failed = phases[..2].iter().map(|p| p.sent - p.ok).sum::<usize>() as u64
        + (phases[2].timeout + phases[2].lost) as u64;
    for (st, (name, rate, _)) in phases.iter().zip(PHASES) {
        out.row(
            &format!("{name}.sent"),
            "count",
            st.sent as f64,
            format!(
                "{rate}/s offered: {} OK, {} BUSY, {} TIMEOUT, {} lost; sender at most {:.3} ms late",
                st.ok,
                st.busy,
                st.timeout,
                st.lost,
                st.late_ms_max()
            ),
        );
    }
    for (st, (name, _, _)) in phases[..2].iter_mut().zip(PHASES) {
        let late = percentile(&mut st.late_ms, 99.0);
        out.check(late <= MAX_LATE_MS, || {
            format!("{name} invalid: one send in a hundred ran {late:.3} ms late or more")
        });
    }
    Ok(phases)
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (setup_s, mut served) = fixture::timed_setup(|| setup(seed), Served::stop)?;
    check_remote_frames(&mut out, &mut served)?;
    let planned = plan(seed, seconds, served.pool.len());
    let obs = drive(&served, &planned, false)?;
    let mut phases = account(&mut out, &served, &planned, &obs)?;
    served.stop();

    let r2000_s = seconds * PHASES[2].2;
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", phases[2].ok as f64 / r2000_s);
    out.set("op_ms_p50", median(&mut phases[0].ok_ms));
    out.set("op_ms_tail", percentile(&mut phases[0].ok_ms, 90.0));
    out.set("second_ms_p50", median(&mut phases[1].ok_ms));
    out.check(supports(phases[0].ok_ms.len(), 90.0), || {
        "r300 too short for a p90".into()
    });
    for (name, st) in ["steady_ms", "r600_ms"].into_iter().zip(&mut phases) {
        out.timing_row(name, &mut st.ok_ms, "from due time");
    }
    out.row(
        "busy_share_r2000",
        "%",
        phases[2].busy as f64 / phases[2].sent as f64 * 100.0,
        "BUSY is the designed answer to overload",
    );
    Ok(out)
}

/// The traced run: every per-layer metric and the trace file. The three
/// phases run at a quarter of their length with telemetry on, after an
/// untraced `r300` of the same length for the overhead comparison.
pub fn run_traced(seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::default();
    crate::layers::measure_all(&mut out, seed)?;
    let mut served = setup(seed)?;
    let mut remote_ms = check_remote_frames(&mut out, &mut served)?;
    out.set("serve.remote_frame_ms_p50", median(&mut remote_ms));

    let quarter = seconds / 4.0;
    let planned = plan(seed, quarter, served.pool.len());
    let r300: Vec<Planned> = plan(seed, quarter, served.pool.len())
        .into_iter()
        .filter(|p| p.phase == 0)
        .collect();
    let plain = drive(&served, &r300, false)?;
    let mut plain_ms = phase_stats(&r300, &plain, 0).ok_ms;

    mtsr_telemetry::reset();
    mtsr_telemetry::set_enabled(true);
    let obs = drive(&served, &planned, true)?;
    // Hot reload under the traced daemon: swap the same weights in as a
    // new generation and time until a reply carries it.
    let reload_ms = time_reload(&mut served)?;
    mtsr_telemetry::set_enabled(false);
    let mut phases = account(&mut out, &served, &planned, &obs)?;
    served.stop();

    let (plain50, traced50) = (median(&mut plain_ms), median(&mut phases[0].ok_ms));
    out.set(
        "telemetry.trace_overhead_share",
        (traced50 - plain50) / plain50 * 100.0,
    );
    out.set("serve.reload_ms", reload_ms);
    for (k, name) in [
        "serve.batch_mean_r300",
        "serve.batch_mean_r600",
        "serve.batch_mean_r2000",
    ]
    .into_iter()
    .enumerate()
    {
        // Boundaries are read when the sender crosses them; the few
        // batches in flight then land in the neighbouring phase.
        let batches = obs.exec_marks[k + 1] - obs.exec_marks[k];
        out.set(name, phases[k].ok as f64 / batches.max(1) as f64);
    }
    out.set("serve.r600_ms_p90", percentile(&mut phases[1].ok_ms, 90.0));
    out.set(
        "serve.steady_ms_p99",
        percentile(&mut phases[0].ok_ms, 99.0),
    );
    let mut max_rate_ok = 0.0;
    for (st, (_, rate, _)) in phases.iter_mut().zip(PHASES) {
        let ok_share = st.ok as f64 / st.sent.max(1) as f64;
        if ok_share >= 0.999 && percentile(&mut st.ok_ms, 90.0) <= LIMIT_MS {
            max_rate_ok = rate;
        }
    }
    out.set("serve.max_rate_ok", max_rate_ok);
    let sent: usize = phases.iter().map(|p| p.sent).sum();
    let timeouts: usize = phases.iter().map(|p| p.timeout).sum();
    out.set(
        "serve.busy_share_r2000",
        phases[2].busy as f64 / phases[2].sent.max(1) as f64 * 100.0,
    );
    out.set(
        "serve.timeout_share",
        timeouts as f64 / sent.max(1) as f64 * 100.0,
    );
    out.set(
        "serve.sched_late_ms_max",
        phases[..2]
            .iter()
            .map(PhaseStats::late_ms_max)
            .fold(0.0, f64::max),
    );
    out.row(
        "sched_late_ms_max_r2000",
        "ms",
        phases[2].late_ms_max(),
        "overload phase, not a validity limit",
    );
    out.timing_row("steady_ms_untraced", &mut plain_ms, "from due time");
    out.timing_row("steady_ms_traced", &mut phases[0].ok_ms, "from due time");
    let (batches, exec_ns) = exec_span();
    out.row(
        "serve.exec_ms_mean",
        "ms",
        exec_ns as f64 / 1e6 / batches.max(1) as f64,
        format!("{batches} batches of {PLAN_BATCH} lanes, daemon's own span"),
    );
    out.self_time_rows(&obs.recorder, planned.len());
    crate::write_trace("serve_open", &obs.recorder)?;
    Ok(out)
}

/// `ServerHandle::swap_model` to the first reply stamped with the new
/// generation, in ms.
fn time_reload(served: &mut Served) -> Res<f64> {
    let mut client = ServeClient::connect(served.daemon.local_addr())?;
    let fresh = fixture::window_plan(&mut served.gen)?;
    let t0 = Instant::now();
    let generation = served.daemon.swap_model(0, fresh, None)?;
    loop {
        match client.infer(&served.pool[0].infer)? {
            InferOutcome::Ok(resp) if resp.generation == generation => {
                return Ok(t0.elapsed().as_secs_f64() * 1e3);
            }
            InferOutcome::Ok(_) => {}
            other => return Err(format!("reload probe answered {other:?}").into()),
        }
        if t0.elapsed() > Duration::from_secs(5) {
            return Err("no reply carried the new generation within 5 s".into());
        }
    }
}
