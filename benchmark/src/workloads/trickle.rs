//! `serve_trickle`: closed loop, 2 connections x 1 outstanding, loopback
//! TCP against an in-process daemon (`ServeConfig::default()` with the
//! drift monitor on), Tiny model, 20x20 windows, plan batch 4. Each
//! operation is `INFER` followed by `TRUTH` for the same id.

use crate::fixture::{self, Res, Served, Window, CW, PLAN_BATCH, S, UPSCALE, WINDOW};
use crate::report::Outcome;
use crate::stats::{median, percentile, supports};
use crate::trace::Recorder;
use mtsr_serve::protocol::{read_response, write_request};
use mtsr_serve::{InferOutcome, InferResponse, Opcode, RemotePredictor, RespStatus, ServeClient};
use mtsr_traffic::Split;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use zipnet_core::{ArchScale, FusePolicy, MtsrPipeline};

/// Closed-loop connections (the contract allows `nproc` generator threads).
const CONNS: u64 = 2;
/// Replies per connection kept for the bit-identity check.
const SAMPLED: usize = 12;
/// Frames rebuilt through `RemotePredictor` before measuring.
const REMOTE_FRAMES: usize = 2;

fn setup(seed: u64) -> Res<Served> {
    Served::start(seed, ArchScale::Tiny, true)
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    infer_ms: Vec<f64>,
    truth_ms: Vec<f64>,
    failed: u64,
    /// `(pool index, reply)` for the bit-identity check.
    sampled: Vec<(usize, Vec<f32>)>,
}

/// `(pool index, request id)` of connection `conn`'s `i`-th pair. Ids are
/// distinct across connections: the drift monitor pairs TRUTH by id.
fn pick(pool_len: usize, conn: u64, i: u64) -> (usize, u64) {
    (
        ((i * CONNS + conn) % pool_len as u64) as usize,
        conn << 32 | i,
    )
}

/// One connection's closed loop through `ServeClient` for `dur`.
fn drive(pool: &[Window], addr: SocketAddr, conn: u64, dur: Duration) -> Res<ConnLog> {
    let mut client = ServeClient::connect(addr)?;
    let mut log = ConnLog::default();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < dur {
        let (idx, id) = pick(pool.len(), conn, i);
        let w = &pool[idx];
        let t0 = Instant::now();
        client.send_infer(id, &w.infer)?;
        let (rid, outcome) = client.recv()?;
        log.infer_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match outcome {
            InferOutcome::Ok(resp) if rid == id => {
                // Spread the samples over the run: one every 64 pairs.
                if i.is_multiple_of(64) && log.sampled.len() < SAMPLED {
                    log.sampled.push((idx, resp.data));
                }
            }
            _ => log.failed += 1,
        }
        let t0 = Instant::now();
        let ack = client.truth(id, &w.truth)?;
        log.truth_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if ack.is_none() {
            log.failed += 1;
        }
        i += 1;
    }
    Ok(log)
}

/// Runs `CONNS` closed loops side by side and merges their logs.
fn drive_all(
    served: &Served,
    dur: Duration,
    one: impl Fn(&[Window], SocketAddr, u64, Duration) -> Res<ConnLog> + Sync,
) -> Res<(ConnLog, f64)> {
    let (addr, pool) = (served.daemon.local_addr(), served.pool.as_slice());
    let t0 = Instant::now();
    let logs: Vec<Res<ConnLog>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                let one = &one;
                scope.spawn(move || one(pool, addr, conn, dur))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut all = ConnLog::default();
    for log in logs {
        let log = log?;
        all.infer_ms.extend(log.infer_ms);
        all.truth_ms.extend(log.truth_ms);
        all.failed += log.failed;
        all.sampled.extend(log.sampled);
    }
    Ok((all, elapsed))
}

/// Sampled replies equal a local executor on the same plan, bit for bit.
pub(super) fn check_replies(
    out: &mut Outcome,
    served: &Served,
    sampled: &[(usize, Vec<f32>)],
) -> Res<()> {
    out.check(!sampled.is_empty(), || {
        "no reply was sampled for the bit-identity check".into()
    });
    for (idx, reply) in sampled {
        let local = fixture::local_reply(&served.plan, &served.pool[*idx].infer.data)?;
        out.check(
            local
                .iter()
                .map(|v| v.to_bits())
                .eq(reply.iter().map(|v| v.to_bits())),
            || format!("served reply for window {idx} differs from the local executor"),
        );
    }
    Ok(())
}

/// Rebuilds `REMOTE_FRAMES` whole frames through `RemotePredictor` and
/// checks them bit for bit against a local `InferSession` on the same
/// weights. Returns the frame times (ms).
pub(super) fn check_remote_frames(out: &mut Outcome, served: &mut Served) -> Res<Vec<f64>> {
    let pipe = MtsrPipeline::new(WINDOW, WINDOW);
    let mut session = pipe.session(&mut served.gen, &served.ds, FusePolicy::Folded, PLAN_BATCH)?;
    let client = ServeClient::connect(served.daemon.local_addr())?;
    let grid = served.ds.layout().grid;
    let mut remote =
        RemotePredictor::new(client, session.origins().to_vec(), WINDOW, grid, UPSCALE)?;
    let mut ms = Vec::new();
    for &t in served
        .ds
        .usable_indices(Split::Test)
        .iter()
        .take(REMOTE_FRAMES)
    {
        let sample = served.ds.sample_at(t)?;
        let sq = sample.input.dims()[2];
        let local = session.predict_frame(sample.input.as_slice(), sq)?;
        let t0 = Instant::now();
        let served_frame = remote.predict_frame(sample.input.as_slice(), sq)?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.check(local.as_slice() == served_frame.as_slice(), || {
            format!("frame {t}: RemotePredictor differs from InferSession::predict_frame")
        });
    }
    Ok(ms)
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (setup_s, mut served) = fixture::timed_setup(|| setup(seed), Served::stop)?;
    check_remote_frames(&mut out, &mut served)?;

    let (mut log, elapsed) = drive_all(&served, Duration::from_secs_f64(seconds), drive)?;
    check_replies(&mut out, &served, &log.sampled)?;
    served.stop();

    let pairs = log.infer_ms.len();
    out.attempted = 2 * pairs as u64;
    out.failed = log.failed;
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", pairs as f64 / elapsed);
    out.set("op_ms_p50", median(&mut log.infer_ms));
    out.set("op_ms_tail", percentile(&mut log.infer_ms, 90.0));
    out.set("second_ms_p50", median(&mut log.truth_ms));
    out.timing_row("infer_ms", &mut log.infer_ms, "");
    out.timing_row("truth_ms", &mut log.truth_ms, "");
    Ok(out)
}

/// The same closed loop re-enacted from the public pieces `ServeClient`
/// is made of, each under a span: encode, send, wait, decode.
fn drive_reenacted(
    pool: &[Window],
    addr: SocketAddr,
    conn: u64,
    dur: Duration,
    origin: Instant,
) -> Res<(ConnLog, Recorder)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut rec = Recorder::new(origin);
    let mut log = ConnLog::default();
    let start = Instant::now();
    // The high bit keeps these ids apart from the untraced segments'.
    let mut i = 1u64 << 31;
    while start.elapsed() < dur {
        let (idx, id) = pick(pool.len(), conn, i);
        let w = &pool[idx];
        let t0 = Instant::now();
        let ok = rec.scope("bench.infer", id, |rec| -> Res<bool> {
            let payload = rec.scope("serve.encode", id, |_| w.infer.encode());
            rec.scope("serve.send", id, |_| {
                write_request(&mut stream, Opcode::Infer, id, &payload)
            })?;
            let resp = rec.scope("serve.wait", id, |_| read_response(&mut stream))?;
            let decoded = rec.scope("serve.decode", id, |_| InferResponse::decode(&resp.payload));
            Ok(resp.status == RespStatus::Ok && resp.id == id && decoded.is_ok())
        })?;
        log.infer_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let acked = rec.scope("bench.truth", id, |rec| -> Res<bool> {
            let payload = rec.scope("serve.encode", id, |_| w.truth.encode());
            rec.scope("serve.send", id, |_| {
                write_request(&mut stream, Opcode::Truth, id, &payload)
            })?;
            let resp = rec.scope("serve.wait", id, |_| read_response(&mut stream))?;
            Ok(resp.status == RespStatus::Ok && !resp.payload.is_empty())
        })?;
        log.truth_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        log.failed += u64::from(!ok) + u64::from(!acked);
        i += 1;
    }
    Ok((log, rec))
}

/// Count and total ns of the daemon's own `serve.exec` telemetry span.
pub(super) fn exec_span() -> (u64, u64) {
    mtsr_telemetry::snapshot()
        .spans
        .iter()
        .find(|(name, _)| name == "serve.exec")
        .map_or((0, 0), |(_, s)| (s.count, s.total_ns))
}

/// Median round trip (us) of `calls` calls of `f`.
pub(super) fn rtt_us(calls: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut us = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t0 = Instant::now();
        f()?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&mut us))
}

/// The traced run: every per-layer metric and the trace file.
pub fn run_traced(seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::default();
    crate::layers::measure_all(&mut out, seed)?;
    let mut served = setup(seed)?;
    let remote_ms = check_remote_frames(&mut out, &mut served)?;
    out.row(
        "remote_frame_ms",
        "ms",
        remote_ms[0],
        "first 40x40 frame through RemotePredictor",
    );

    // The front-end floor: round trips that never reach an executor.
    let mut client = ServeClient::connect(served.daemon.local_addr())?;
    out.set(
        "serve.info_rtt_us",
        rtt_us(2000, || Ok(client.info().map(drop)?))?,
    );
    out.set(
        "serve.status_us",
        rtt_us(500, || Ok(client.status().map(drop)?))?,
    );
    drop(client);

    // Untraced and traced segments alternate (U T U T).
    let segment = Duration::from_secs_f64(seconds / 8.0);
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let (mut plain, mut traced) = (ConnLog::default(), ConnLog::default());
    mtsr_telemetry::reset();
    for _ in 0..2 {
        let (log, _) = drive_all(&served, segment, drive)?;
        plain.infer_ms.extend(log.infer_ms);
        plain.failed += log.failed;
        plain.sampled.extend(log.sampled);

        mtsr_telemetry::set_enabled(true);
        let recs = std::sync::Mutex::new(Vec::new());
        let (log, _) = drive_all(&served, segment, |pool, addr, conn, dur| {
            let (log, rec) = drive_reenacted(pool, addr, conn, dur, origin)?;
            recs.lock().expect("recorder list poisoned").push(rec);
            Ok(log)
        })?;
        mtsr_telemetry::set_enabled(false);
        for r in recs.into_inner().expect("recorder list poisoned") {
            rec.absorb(r);
        }
        traced.infer_ms.extend(log.infer_ms);
        traced.failed += log.failed;
    }
    let (batches, exec_ns) = exec_span();
    check_replies(&mut out, &served, &plain.sampled)?;
    served.stop();

    out.attempted = 2 * (plain.infer_ms.len() + traced.infer_ms.len()) as u64;
    out.failed = plain.failed + traced.failed;
    let served_traced = traced.infer_ms.len() as f64;
    let (p50, t50) = (median(&mut plain.infer_ms), median(&mut traced.infer_ms));
    out.set("telemetry.trace_overhead_share", (t50 - p50) / p50 * 100.0);
    out.set(
        "serve.batch_mean_trickle",
        served_traced / batches.max(1) as f64,
    );
    let exec_tiny = out
        .metrics
        .get("core.exec_20_tiny_ms")
        .copied()
        .unwrap_or(0.0);
    out.set("serve.overhead_ms", p50 - exec_tiny);
    if supports(plain.infer_ms.len(), 99.0) {
        out.set("serve.infer_ms_p99", percentile(&mut plain.infer_ms, 99.0));
    }
    out.timing_row("infer_ms_untraced", &mut plain.infer_ms, "");
    out.timing_row("infer_ms_traced", &mut traced.infer_ms, "");
    out.row(
        "serve.exec_ms_mean",
        "ms",
        exec_ns as f64 / 1e6 / batches.max(1) as f64,
        format!(
            "{batches} batches of {PLAN_BATCH} lanes ([{S},{CW},{CW}] crops), daemon's own span"
        ),
    );
    out.self_time_rows(&rec, traced.infer_ms.len());
    crate::write_trace("serve_trickle", &rec)?;
    Ok(out)
}
