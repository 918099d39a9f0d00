//! Fault injection against the event-loop front-end: slow-loris
//! senders, mid-frame disconnects, half-closed sockets, protocol
//! garbage and a 2000-idle-connection soak. The daemon must stay
//! responsive throughout and leak neither connection slots nor queue
//! accounting — asserted through the STATUS counters, which track every
//! accept, close, rejection and admitted job exactly.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use mtsr_serve::protocol::{read_response, write_request, Opcode, RespStatus, MAX_PAYLOAD};
use mtsr_serve::{
    AdaptConfig, InferOutcome, InferRequest, ServeClient, ServeConfig, Server, ServerHandle,
    TruthRequest,
};
use mtsr_tensor::Rng;
use zipnet_core::{plan_zipnet, FusePolicy, ZipNet, ZipNetConfig};

const S: usize = 2;

fn serve_tiny(cfg: &ServeConfig) -> ServerHandle {
    let mut gen = ZipNet::new(&ZipNetConfig::tiny(4, S), &mut Rng::seed_from(11)).unwrap();
    let exec = plan_zipnet(&mut gen, FusePolicy::Exact, 2, 3, 3).unwrap();
    Server::start_single(cfg, exec).unwrap()
}

fn request(seed: u64) -> InferRequest {
    let mut rng = Rng::seed_from(seed);
    InferRequest {
        model: 0,
        deadline_ms: 2000,
        s: S as u32,
        h: 3,
        w: 3,
        data: (0..S * 9).map(|_| rng.next_f32()).collect(),
    }
}

/// One INFER frame as raw wire bytes.
fn infer_frame(id: u64, seed: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    write_request(&mut buf, Opcode::Infer, id, &request(seed).encode()).unwrap();
    buf
}

fn status_field(status: &str, key: &str) -> u64 {
    let line = status
        .lines()
        .find(|l| l.starts_with(&format!("{key}:")))
        .unwrap_or_else(|| panic!("no `{key}` in:\n{status}"));
    line.split(':').nth(1).unwrap().trim().parse().unwrap()
}

/// Polls STATUS until `pred` holds (counters settle asynchronously:
/// closes are observed on the next readiness event, replies a send
/// after execution).
fn await_status(client: &mut ServeClient, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = client.status().unwrap();
        if pred(&status) {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "status never converged; last:\n{status}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A slow-loris sender trickling one byte of a frame at a time occupies
/// one connection slot and a few buffered bytes — it must not delay
/// service for anyone else (in the thread-per-connection design it
/// pinned a whole reader thread; here it pins nothing).
#[test]
fn slow_loris_does_not_stall_other_clients() {
    let handle = serve_tiny(&ServeConfig::default());
    let addr = handle.local_addr();

    let loris = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let frame = infer_frame(1, 1);
        // Everything but the last byte: the frame must never complete.
        for b in &frame[..frame.len() - 1] {
            if stream.write_all(std::slice::from_ref(b)).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(3));
        }
        std::thread::sleep(Duration::from_millis(200));
        // Dropping mid-frame: the server discards the partial frame.
    });

    let mut client = ServeClient::connect(addr).unwrap();
    let start = Instant::now();
    for seed in 0..5 {
        match client.infer(&request(seed)).unwrap() {
            InferOutcome::Ok(resp) => assert_eq!(resp.data.len(), 144),
            other => panic!("seed {seed}: unexpected {other:?}"),
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "service stalled behind a slow-loris sender"
    );
    loris.join().unwrap();

    // The loris conn closes without having admitted anything.
    let status = await_status(&mut client, |s| {
        status_field(s, "conns_closed") >= 1 && status_field(s, "in_flight") == 0
    });
    assert_eq!(status_field(&status, "admitted"), 5);
    client.shutdown().unwrap();
    handle.join();
}

/// Disconnecting mid-frame, repeatedly, must leak nothing: every
/// accepted connection is eventually closed, no job is admitted from a
/// partial frame, and the queue accounting stays exact.
#[test]
fn mid_frame_disconnects_leak_no_slots_or_jobs() {
    let handle = serve_tiny(&ServeConfig::default());
    let addr = handle.local_addr();
    let mut client = ServeClient::connect(addr).unwrap();
    client.status().unwrap();

    for i in 0..20u64 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let frame = infer_frame(i, i);
        // Cut at a different byte offset each round: in the magic, in
        // the header, in the payload.
        let cut = 1 + (i as usize * 7) % (frame.len() - 1);
        stream.write_all(&frame[..cut]).unwrap();
        drop(stream);
    }

    let status = await_status(&mut client, |s| {
        status_field(s, "conns_accepted") - status_field(s, "conns_closed") == 1
    });
    assert_eq!(
        status_field(&status, "admitted"),
        0,
        "partial frames admitted jobs"
    );
    assert_eq!(status_field(&status, "in_flight"), 0);
    assert_eq!(status_field(&status, "queue_depth"), 0);
    client.shutdown().unwrap();
    handle.join();
}

/// A client that sends a full request then shuts down its write half
/// (half-closed socket) still gets its reply: EOF on the read side must
/// not tear down a connection with work in flight.
#[test]
fn half_closed_socket_still_receives_its_reply() {
    let handle = serve_tiny(&ServeConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    stream.write_all(&infer_frame(7, 3)).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();

    let resp = read_response(&mut stream).unwrap();
    assert_eq!(resp.id, 7);
    assert_eq!(resp.status, RespStatus::Ok);
    // After the last in-flight reply the server closes its half too.
    let mut tail = Vec::new();
    stream.read_to_end(&mut tail).unwrap();
    assert!(tail.is_empty(), "unexpected trailing bytes: {}", tail.len());

    let mut client = ServeClient::connect(handle.local_addr()).unwrap();
    let status = await_status(&mut client, |s| status_field(s, "in_flight") == 0);
    assert_eq!(status_field(&status, "served"), 1);
    client.shutdown().unwrap();
    handle.join();
}

/// Protocol garbage: bad magic and forged oversized lengths draw an ERR
/// and a close (the stream cannot be trusted any further); an unknown
/// opcode draws an ERR but the connection stays usable (framing is
/// intact, the frame is skipped whole).
#[test]
fn bad_frames_get_err_replies_not_hangs() {
    let handle = serve_tiny(&ServeConfig::default());
    let addr = handle.local_addr();

    // Bad magic: ERR then close.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"XXXXxxxxxxxxxxxxxxxxxxxx").unwrap();
    let resp = read_response(&mut stream).unwrap();
    assert_eq!(resp.status, RespStatus::Err);
    assert!(String::from_utf8_lossy(&resp.payload).contains("magic"));
    let mut tail = Vec::new();
    stream.read_to_end(&mut tail).unwrap();
    assert!(tail.is_empty());

    // Forged oversized length: ERR names the offending request id, then
    // close — the declared payload is never buffered.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frame = Vec::new();
    write_request(&mut frame, Opcode::Infer, 99, &[]).unwrap();
    frame[13..17].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    stream.write_all(&frame).unwrap();
    let resp = read_response(&mut stream).unwrap();
    assert_eq!((resp.status, resp.id), (RespStatus::Err, 99));
    assert!(String::from_utf8_lossy(&resp.payload).contains("payload"));
    let mut tail = Vec::new();
    stream.read_to_end(&mut tail).unwrap();
    assert!(tail.is_empty());

    // Unknown opcode: ERR, but the connection survives and serves.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frame = Vec::new();
    write_request(&mut frame, Opcode::Status, 5, &[]).unwrap();
    frame[4] = 250; // no such opcode
    stream.write_all(&frame).unwrap();
    let resp = read_response(&mut stream).unwrap();
    assert_eq!((resp.status, resp.id), (RespStatus::Err, 5));
    write_request(&mut stream, Opcode::Status, 6, &[]).unwrap();
    let resp = read_response(&mut stream).unwrap();
    assert_eq!((resp.status, resp.id), (RespStatus::Ok, 6));
    drop(stream);

    let mut client = ServeClient::connect(addr).unwrap();
    let status = await_status(&mut client, |s| status_field(s, "protocol_errors") == 2);
    assert_eq!(status_field(&status, "in_flight"), 0);
    client.shutdown().unwrap();
    handle.join();
}

/// The fleet-scale claim: one daemon with a fixed thread count holds
/// 2000 idle connections and still serves instantly. Dropping them all
/// releases every slot (accepted - closed returns to the active
/// client alone).
#[test]
fn soak_2000_idle_connections_then_release() {
    let cfg = ServeConfig {
        max_conns: 4096,
        ..ServeConfig::default()
    };
    let handle = serve_tiny(&cfg);
    let addr = handle.local_addr();

    let mut idle = Vec::with_capacity(2000);
    for i in 0..2000 {
        match TcpStream::connect(addr) {
            Ok(s) => idle.push(s),
            Err(e) => panic!("connect {i} failed: {e}"),
        }
    }

    let mut client = ServeClient::connect(addr).unwrap();
    let start = Instant::now();
    for seed in 0..3 {
        match client.infer(&request(seed)).unwrap() {
            InferOutcome::Ok(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "2000 idle conns degraded service"
    );
    let status = await_status(&mut client, |s| {
        status_field(s, "conns_accepted") - status_field(s, "conns_closed") >= 2001
    });
    assert_eq!(status_field(&status, "conns_rejected"), 0);

    drop(idle);
    let status = await_status(&mut client, |s| {
        status_field(s, "conns_accepted") - status_field(s, "conns_closed") == 1
    });
    assert_eq!(status_field(&status, "in_flight"), 0);
    assert_eq!(status_field(&status, "served"), 3);
    client.shutdown().unwrap();
    handle.join();
}

/// Accepts beyond `max_conns` are closed immediately and counted, and
/// capacity frees as soon as a held connection closes.
#[test]
fn connections_beyond_max_conns_are_rejected() {
    let cfg = ServeConfig {
        max_conns: 4,
        ..ServeConfig::default()
    };
    let handle = serve_tiny(&cfg);
    let addr = handle.local_addr();

    let mut client = ServeClient::connect(addr).unwrap();
    client.status().unwrap(); // ensure the slot is registered
    let held: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
    await_status(&mut client, |s| status_field(s, "conns_accepted") == 4);

    // At capacity: the TCP connect lands in the backlog but the server
    // closes it straight away — reads see EOF (or a reset).
    for _ in 0..2 {
        let mut extra = TcpStream::connect(addr).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 1];
        match extra.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("rejected conn received {n} bytes"),
        }
    }
    let status = await_status(&mut client, |s| status_field(s, "conns_rejected") == 2);
    assert_eq!(status_field(&status, "conns_accepted"), 4);

    // Freeing one slot restores admission.
    drop(held);
    await_status(&mut client, |s| {
        status_field(s, "conns_accepted") - status_field(s, "conns_closed") == 1
    });
    let mut fresh = ServeClient::connect(addr).unwrap();
    fresh.status().unwrap();

    client.shutdown().unwrap();
    handle.join();
}

/// One `key=value` token of the `model[0]:` STATUS line.
fn model_field(status: &str, key: &str) -> String {
    let line = status
        .lines()
        .find(|l| l.starts_with("model[0]:"))
        .unwrap_or_else(|| panic!("no model[0] line in:\n{status}"));
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key} in: {line}"))
        .to_string()
}

/// NaN / ±Inf payloads are refused at the door: a non-finite `INFER` is
/// answered ERR and never admitted, a non-finite `TRUTH` is answered ERR
/// and never reaches the drift monitor — the rolling gauge, its sample
/// count and the fine-tune pair buffer are exactly what they were, and
/// the prediction it named is still claimable by a well-formed retry.
#[test]
fn non_finite_payloads_are_rejected_before_queue_and_drift_monitor() {
    let cfg = ServeConfig {
        adapt: Some(AdaptConfig {
            threshold: 0.5,
            window: 4,
            min_pairs: 4,
            holdout: 1,
        }),
        ..ServeConfig::default()
    };
    let handle = serve_tiny(&cfg);
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();
    let truth = |fill: f32, poison: Option<f32>| {
        let mut data = vec![fill; 144];
        if let Some(p) = poison {
            data[77] = p;
        }
        TruthRequest {
            model: 0,
            h: 12,
            w: 12,
            data,
        }
    };
    let gauge = |status: &str| {
        ["drift", "drift_n", "pairs", "truth_ok", "truth_miss"].map(|key| model_field(status, key))
    };

    // A healthy pair first, so the gauge holds a value worth poisoning.
    for id in [10u64, 11] {
        client.send_infer(id, &request(id)).unwrap();
        assert!(matches!(client.recv().unwrap(), (rid, InferOutcome::Ok(_)) if rid == id));
    }
    let ack = client.truth(10, &truth(0.25, None)).unwrap().unwrap();
    assert!(ack.rolling_nrmse.is_finite());
    let before = gauge(&client.status().unwrap());
    assert_eq!(before[1..], ["1", "1", "1", "0"].map(String::from));

    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let err = client.truth(11, &truth(0.25, Some(poison))).unwrap_err();
        assert!(err.to_string().contains("non-finite payload"), "{err}");
    }
    let status = client.status().unwrap();
    assert_eq!(gauge(&status), before, "a refused TRUTH moved the gauge");
    assert_eq!(status_field(&status, "errors"), 3);
    assert_eq!(model_field(&status, "errors"), "3");

    // The prediction the poisoned frames named was not consumed.
    let ack2 = client.truth(11, &truth(0.5, None)).unwrap().unwrap();
    assert!(ack2.rolling_nrmse.is_finite());
    assert_eq!(model_field(&client.status().unwrap(), "drift_n"), "2");

    for (id, poison) in [
        (20u64, f32::NAN),
        (21, f32::INFINITY),
        (22, f32::NEG_INFINITY),
    ] {
        let mut req = request(id);
        req.data[5] = poison;
        match client.infer(&req).unwrap() {
            InferOutcome::Err(msg) => assert!(msg.contains("non-finite payload"), "{msg}"),
            other => panic!("{poison}: unexpected {other:?}"),
        }
    }
    let status = await_status(&mut client, |s| status_field(s, "in_flight") == 0);
    for (key, want) in [
        ("admitted", 2),
        ("served", 2),
        ("exec_lanes", 2),
        ("errors", 6),
        ("queue_depth", 0),
    ] {
        assert_eq!(status_field(&status, key), want, "{key} in:\n{status}");
    }
    assert_eq!(model_field(&status, "errors"), "6");
    assert_eq!(model_field(&status, "truth_ok"), "2");

    client.shutdown().unwrap();
    handle.join();
}
