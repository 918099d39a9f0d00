//! End-to-end tests for the serving daemon, each over a real TCP socket
//! on an OS-assigned port (bind to port 0).
//!
//! Covers the ISSUE acceptance criteria directly: served predictions
//! bit-identical to the local planned session, `BUSY` under burst
//! (explicit shedding, no silent drops), per-request deadline timeouts,
//! and graceful drain answering every admitted request before exit.

use std::sync::Arc;
use std::time::Duration;

use mtsr_serve::{
    InferOutcome, InferRequest, ModelSpec, RemotePredictor, ServeClient, ServeConfig, Server,
};
use mtsr_tensor::Rng;
use mtsr_traffic::{
    CityConfig, Dataset, DatasetConfig, MilanGenerator, MtsrInstance, ProbeLayout, Split,
};
use zipnet_core::{plan_zipnet, FusePolicy, MtsrPipeline, ZipNet, ZipNetConfig};

/// A small generator whose plan serves `[batch, 1, S, 3, 3]` windows.
fn tiny_generator(s: usize) -> ZipNet {
    ZipNet::new(&ZipNetConfig::tiny(4, s), &mut Rng::seed_from(11)).unwrap()
}

fn serve_tiny(cfg: &ServeConfig, s: usize, batch: usize) -> mtsr_serve::ServerHandle {
    let mut gen = tiny_generator(s);
    let exec = plan_zipnet(&mut gen, FusePolicy::Exact, batch, 3, 3).unwrap();
    Server::start_single(cfg, exec).unwrap()
}

fn window_request(s: usize, deadline_ms: u32, seed: u64) -> InferRequest {
    let mut rng = Rng::seed_from(seed);
    InferRequest {
        model: 0,
        deadline_ms,
        s: s as u32,
        h: 3,
        w: 3,
        data: (0..s * 9).map(|_| rng.next_f32()).collect(),
    }
}

fn tiny_dataset(seed: u64) -> Dataset {
    let mut rng = Rng::seed_from(seed);
    let gen = MilanGenerator::new(&CityConfig::tiny(), &mut rng).unwrap();
    let movie = gen
        .generate(DatasetConfig::tiny().total(), &mut rng)
        .unwrap();
    let layout = ProbeLayout::for_instance(gen.city(), MtsrInstance::Up4).unwrap();
    Dataset::build(&movie, layout, DatasetConfig::tiny()).unwrap()
}

/// The headline guarantee: a frame reconstructed over the wire is
/// bit-identical to the local planned session, with multiple batcher
/// threads racing over the shared plan.
#[test]
fn served_frame_is_bit_identical_to_local_session() {
    let ds = tiny_dataset(3);
    let mut gen = ZipNet::new(&ZipNetConfig::tiny(4, ds.s()), &mut Rng::seed_from(7)).unwrap();
    let pipe = MtsrPipeline::new(12, 4);
    let mut session = pipe.session(&mut gen, &ds, FusePolicy::Exact, 3).unwrap();

    let cfg = ServeConfig {
        workers: 3,
        queue_cap: 8,
        ..ServeConfig::default()
    };
    let exec = plan_zipnet(&mut gen, FusePolicy::Exact, 3, 3, 3).unwrap();
    let handle = Server::start_single(&cfg, exec).unwrap();

    let t = ds.usable_indices(Split::Test)[0];
    let sample = ds.sample_at(t).unwrap();
    let sq = sample.input.dims()[2];
    let coarse = sample.input.as_slice();
    let local = session.predict_frame(coarse, sq).unwrap();

    let client = ServeClient::connect(handle.local_addr()).unwrap();
    let mut remote = RemotePredictor::new(
        client,
        session.origins().to_vec(),
        session.window(),
        sq * session.probe(),
        session.probe(),
    )
    .unwrap();
    // Two frames back to back: buffers and the shared plan are reused.
    for _ in 0..2 {
        let served = remote.predict_frame(coarse, sq).unwrap();
        assert_eq!(served.dims(), local.dims());
        for (i, (a, b)) in served.as_slice().iter().zip(local.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "cell {i}: served {a} != local {b}"
            );
        }
    }

    let mut client = remote.into_client();
    client.shutdown().unwrap();
    handle.join();
}

/// A burst beyond queue capacity is shed with immediate `BUSY` replies
/// while every admitted request is still served — nothing is dropped
/// silently and nothing buffers without bound.
#[test]
fn burst_beyond_queue_capacity_answers_busy() {
    let s = 2;
    // One worker, batch 2, a long linger and a single queue slot: the
    // worker pops request 1 and lingers, request 2 fills the queue, and
    // requests 3 and 4 must be shed at admission.
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        linger: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let handle = serve_tiny(&cfg, s, 2);
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    client.send_infer(1, &window_request(s, 0, 1)).unwrap();
    // Let the batcher pop request 1 and enter its linger window.
    std::thread::sleep(Duration::from_millis(150));
    for id in 2..=4u64 {
        client.send_infer(id, &window_request(s, 0, id)).unwrap();
    }

    let mut ok = Vec::new();
    let mut busy = Vec::new();
    for _ in 0..4 {
        let (id, outcome) = client.recv().unwrap();
        match outcome {
            InferOutcome::Ok(resp) => {
                assert_eq!((resp.h, resp.w), (12, 12));
                ok.push(id);
            }
            InferOutcome::Busy => busy.push(id),
            other => panic!("request {id}: unexpected {other:?}"),
        }
    }
    ok.sort_unstable();
    busy.sort_unstable();
    assert_eq!(ok, vec![1, 2], "admitted requests are always served");
    assert_eq!(busy, vec![3, 4], "overflow is shed with BUSY");

    let status = client.status().unwrap();
    assert!(
        status.contains("busy: 2"),
        "status reports shed load:\n{status}"
    );
    client.shutdown().unwrap();
    handle.join();
}

/// A request whose deadline expires while queued is answered `TIMEOUT`
/// and never occupies an executor lane.
#[test]
fn queued_request_past_deadline_gets_timeout() {
    let s = 2;
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 8,
        linger: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let handle = serve_tiny(&cfg, s, 2);
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    client.send_infer(1, &window_request(s, 0, 1)).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    // Expires ~1ms after admission, long before the linger window ends.
    client.send_infer(2, &window_request(s, 1, 2)).unwrap();

    let mut outcomes = std::collections::HashMap::new();
    for _ in 0..2 {
        let (id, outcome) = client.recv().unwrap();
        outcomes.insert(id, outcome);
    }
    assert!(matches!(outcomes.get(&1), Some(InferOutcome::Ok(_))));
    assert!(matches!(outcomes.get(&2), Some(InferOutcome::Timeout)));
    client.shutdown().unwrap();
    handle.join();
}

/// Shutdown during load: every admitted request is answered before the
/// daemon exits, later submissions see `DRAINING`, and `join` returns.
#[test]
fn graceful_drain_answers_all_admitted_requests() {
    let s = 2;
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 8,
        linger: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let handle = serve_tiny(&cfg, s, 2);
    let mut submitter = ServeClient::connect(handle.local_addr()).unwrap();
    let mut controller = ServeClient::connect(handle.local_addr()).unwrap();

    submitter.send_infer(1, &window_request(s, 0, 1)).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    // Queued behind the lingering batch; must still be answered.
    submitter.send_infer(2, &window_request(s, 0, 2)).unwrap();
    submitter.send_infer(3, &window_request(s, 0, 3)).unwrap();

    controller.shutdown().unwrap();
    assert!(handle.draining());
    // Admission is closed from the moment the drain begins.
    submitter.send_infer(4, &window_request(s, 0, 4)).unwrap();

    let mut ok = Vec::new();
    let mut draining = Vec::new();
    for _ in 0..4 {
        let (id, outcome) = submitter.recv().unwrap();
        match outcome {
            InferOutcome::Ok(_) => ok.push(id),
            InferOutcome::Draining => draining.push(id),
            other => panic!("request {id}: unexpected {other:?}"),
        }
    }
    ok.sort_unstable();
    assert_eq!(ok, vec![1, 2, 3], "admitted work drains to completion");
    assert_eq!(draining, vec![4], "post-drain submissions are refused");

    handle.join();
}

/// The linger window runs from a job's admission, not from the moment a
/// batcher pops it: a request that already queued for the whole window
/// behind another batch departs at once instead of lingering again.
#[test]
fn linger_counts_time_already_spent_queued() {
    let s = 2;
    let linger = Duration::from_millis(400);
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 8,
        linger,
        ..ServeConfig::default()
    };
    let handle = serve_tiny(&cfg, s, 2);
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    // 1 is popped from an idle queue and lingers; 2 fills its batch-2
    // plan; 3 stays queued until that batch has run, by which time most
    // of its own window is spent.
    let start = std::time::Instant::now();
    client.send_infer(1, &window_request(s, 0, 1)).unwrap();
    std::thread::sleep(linger / 4);
    for id in 2..=3u64 {
        client.send_infer(id, &window_request(s, 0, id)).unwrap();
    }
    for _ in 0..3 {
        let (id, outcome) = client.recv().unwrap();
        assert!(matches!(outcome, InferOutcome::Ok(_)), "request {id}");
    }
    let elapsed = start.elapsed();
    assert!(elapsed >= linger, "the first batch lingered: {elapsed:?}");
    assert!(
        elapsed < linger * 7 / 4,
        "request 3 lingered a second time: {elapsed:?}"
    );

    client.shutdown().unwrap();
    handle.join();
}

/// Multi-model tenancy: one daemon serves two differently-shaped
/// tenants over the shared batcher pool, routes by the model id in each
/// INFER header, reports per-model geometry via INFO and per-model
/// counters via STATUS, and rejects unknown model ids with ERR.
#[test]
fn two_tenants_route_by_model_id() {
    let specs = [2usize, 3]
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let mut gen = tiny_generator(s);
            let exec = plan_zipnet(&mut gen, FusePolicy::Exact, 2, 3, 3).unwrap();
            ModelSpec {
                name: format!("tenant{i}"),
                source: String::new(),
                plan: Arc::clone(exec.plan()),
            }
        })
        .collect::<Vec<_>>();
    let cfg = ServeConfig {
        workers: 2,
        queue_cap: 8,
        linger: Duration::ZERO,
        ..ServeConfig::default()
    };
    let handle = Server::start(&cfg, specs, None).unwrap();
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    // Per-model INFO reports each tenant's own geometry.
    for (model, s) in [(0u32, 2u32), (1, 3)] {
        let info = client.info_for(model).unwrap();
        assert_eq!((info.model, info.model_count), (model, 2));
        assert_eq!((info.s, info.h, info.w), (s, 3, 3));
        assert_eq!(info.generation, 0);
        assert_eq!(info.fuse_name(), "exact");
    }

    // Requests route by the id in their header: an s=3 window is valid
    // for model 1 and a geometry error for model 0.
    let mut req = window_request(3, 0, 21);
    req.model = 1;
    match client.infer(&req).unwrap() {
        InferOutcome::Ok(resp) => {
            assert_eq!((resp.model, resp.generation), (1, 0));
            assert_eq!(resp.data.len(), 144);
        }
        other => panic!("unexpected {other:?}"),
    }
    req.model = 0;
    match client.infer(&req).unwrap() {
        InferOutcome::Err(msg) => assert!(msg.contains("does not match"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
    match client.infer(&window_request(2, 0, 22)).unwrap() {
        InferOutcome::Ok(resp) => assert_eq!((resp.model, resp.generation), (0, 0)),
        other => panic!("unexpected {other:?}"),
    }
    // Unknown tenant: ERR, connection stays usable.
    req.model = 9;
    match client.infer(&req).unwrap() {
        InferOutcome::Err(msg) => assert!(msg.contains("unknown model id 9"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
    assert!(client.info_for(9).is_err());

    let mut status = String::new();
    for _ in 0..100 {
        status = client.status().unwrap();
        if status.contains("in_flight: 0") && status.contains("served: 2") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for needle in [
        "models: 2",
        "model[0]: name=tenant0 fuse=exact generation=0 served=1 errors=1",
        "model[1]: name=tenant1 fuse=exact generation=0 served=1 errors=0",
    ] {
        assert!(status.contains(needle), "missing `{needle}` in:\n{status}");
    }

    client.shutdown().unwrap();
    handle.join();
}

/// A quantized plan serves over the wire like any other policy, INFO
/// reports `quantized`, and repeated requests for the same window are
/// bit-identical (integer accumulation is deterministic).
#[test]
fn quantized_plan_serves_and_reports_policy() {
    let mut gen = tiny_generator(2);
    let exec = plan_zipnet(&mut gen, FusePolicy::Quantized, 2, 3, 3).unwrap();
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = Server::start_single(&cfg, exec).unwrap();
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();
    let info = client.info().unwrap();
    assert_eq!(info.fuse_name(), "quantized");

    let req = window_request(2, 0, 33);
    let first = match client.infer(&req).unwrap() {
        InferOutcome::Ok(resp) => {
            assert_eq!(resp.data.len(), 144);
            resp.data
        }
        other => panic!("unexpected {other:?}"),
    };
    match client.infer(&req).unwrap() {
        InferOutcome::Ok(resp) => assert_eq!(resp.data, first, "quantized replay must be stable"),
        other => panic!("unexpected {other:?}"),
    }

    client.shutdown().unwrap();
    handle.join();
}

/// STATUS exposes queue depth, in-flight count and latency percentiles;
/// mismatched geometry is rejected with an ERR reply, not a dropped
/// connection.
#[test]
fn status_and_validation_replies() {
    let s = 2;
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 4,
        linger: Duration::ZERO,
        ..ServeConfig::default()
    };
    let handle = serve_tiny(&cfg, s, 2);
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    let info = client.info().unwrap();
    assert_eq!((info.s, info.h, info.w), (2, 3, 3));
    assert_eq!((info.out_h, info.out_w), (12, 12));
    assert_eq!(info.queue_cap, 4);

    match client.infer(&window_request(s, 0, 5)).unwrap() {
        InferOutcome::Ok(resp) => assert_eq!(resp.data.len(), 144),
        other => panic!("unexpected {other:?}"),
    }
    // Wrong temporal length: rejected before admission.
    match client.infer(&window_request(s + 1, 0, 6)).unwrap() {
        InferOutcome::Err(msg) => assert!(msg.contains("does not match"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }

    // The OK reply precedes the finished-counter increment by one send,
    // so poll briefly for the settled report.
    let mut status = String::new();
    for _ in 0..100 {
        status = client.status().unwrap();
        if status.contains("in_flight: 0") && status.contains("served: 1") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for needle in [
        "queue_depth: 0",
        "in_flight: 0",
        "served: 1",
        "errors: 1",
        "latency_count: 1",
        "latency_p50_ns:",
        "latency_p99_ns:",
    ] {
        assert!(status.contains(needle), "missing `{needle}` in:\n{status}");
    }

    client.shutdown().unwrap();
    handle.join();
}

fn status_field(status: &str, key: &str) -> u64 {
    let line = status
        .lines()
        .find(|l| l.starts_with(&format!("{key}:")))
        .unwrap_or_else(|| panic!("no `{key}` in:\n{status}"));
    line.split(':').nth(1).unwrap().trim().parse().unwrap()
}

/// Polls STATUS until nothing is in flight (counters settle one send
/// after the reply they describe).
fn settled_status(client: &mut ServeClient) -> String {
    for _ in 0..400 {
        let status = client.status().unwrap();
        if status_field(&status, "in_flight") == 0 {
            return status;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("daemon never went idle");
}

/// Partial batches execute only their occupied lanes and still serve the
/// offline bits: with 1, 2 and 3 requests outstanding against a batch-4
/// plan (a long linger lets each batch collect what is outstanding, so
/// no batch is ever full), the served frame equals the local
/// `InferSession`'s bit for bit, and the lane counters record the
/// realised occupancy — `exec_lanes` is exactly the number of served
/// windows, never a padded multiple of the batch.
#[test]
fn partial_batches_serve_offline_bits_and_count_lanes() {
    let ds = tiny_dataset(5);
    let mut gen = ZipNet::new(&ZipNetConfig::tiny(4, ds.s()), &mut Rng::seed_from(9)).unwrap();
    let pipe = MtsrPipeline::new(12, 4);
    // 9 windows through batch 4: the local session itself ends on a
    // one-lane chunk.
    let mut session = pipe.session(&mut gen, &ds, FusePolicy::Exact, 4).unwrap();
    let windows = session.windows_per_frame() as u64;
    assert_eq!(windows, 9);

    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 8,
        linger: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let exec = plan_zipnet(&mut gen, FusePolicy::Exact, 4, 3, 3).unwrap();
    let handle = Server::start_single(&cfg, exec).unwrap();

    let t = ds.usable_indices(Split::Test)[0];
    let sample = ds.sample_at(t).unwrap();
    let sq = sample.input.dims()[2];
    let coarse = sample.input.as_slice();
    let local = session.predict_frame(coarse, sq).unwrap();
    let local_bits: Vec<u32> = local.as_slice().iter().map(|v| v.to_bits()).collect();

    let mut client = ServeClient::connect(handle.local_addr()).unwrap();
    let (mut min_batches, mut lanes) = (0u64, 0u64);
    for outstanding in 1..=3u64 {
        let mut remote = RemotePredictor::new(
            client,
            session.origins().to_vec(),
            session.window(),
            sq * session.probe(),
            session.probe(),
        )
        .unwrap();
        remote.set_max_inflight(outstanding as usize);
        let served = remote.predict_frame(coarse, sq).unwrap();
        let served_bits: Vec<u32> = served.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(served_bits, local_bits, "{outstanding} outstanding");
        client = remote.into_client();

        let status = settled_status(&mut client);
        min_batches += windows.div_ceil(outstanding);
        lanes += windows;
        assert_eq!(
            (
                status_field(&status, "exec_lanes"),
                status_field(&status, "served"),
            ),
            (lanes, lanes),
            "{outstanding} outstanding:\n{status}"
        );
        // A batch never carries more than what was outstanding (exactly
        // that, whenever the linger saw the stragglers arrive).
        let batches = status_field(&status, "exec_batches");
        assert!(
            (min_batches..=lanes).contains(&batches),
            "{outstanding} outstanding: {batches} batches for {lanes} lanes"
        );
    }

    client.shutdown().unwrap();
    handle.join();
}

/// The lane-accounting invariant: every executed lane ends as exactly
/// one reply — `exec_lanes == served` (+ lanes answered ERR by a failed
/// run, of which a healthy plan has none) — globally and per model,
/// while requests that never reach a lane (TIMEOUT while queued, ERR at
/// admission) move neither counter.
#[test]
fn exec_lanes_equal_served_with_timeouts_and_rejects_in_the_mix() {
    let s = 2;
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 8,
        linger: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let handle = serve_tiny(&cfg, s, 4);
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    // One batch: request 1 lingers, 2 and 3 join it, 4 expires in the
    // queue and never occupies a lane.
    client.send_infer(1, &window_request(s, 0, 1)).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    client.send_infer(2, &window_request(s, 0, 2)).unwrap();
    client.send_infer(3, &window_request(s, 0, 3)).unwrap();
    client.send_infer(4, &window_request(s, 1, 4)).unwrap();
    // Refused at admission: wrong geometry and a NaN payload.
    client.send_infer(5, &window_request(s + 1, 0, 5)).unwrap();
    let mut nan = window_request(s, 0, 6);
    nan.data[3] = f32::NAN;
    client.send_infer(6, &nan).unwrap();

    let (mut ok, mut timeout, mut err) = (0, 0, 0);
    for _ in 0..6 {
        match client.recv().unwrap().1 {
            InferOutcome::Ok(_) => ok += 1,
            InferOutcome::Timeout => timeout += 1,
            InferOutcome::Err(_) => err += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!((ok, timeout, err), (3, 1, 2));
    // A second, lone request: one more batch of one lane.
    assert!(matches!(
        client.infer(&window_request(s, 0, 7)).unwrap(),
        InferOutcome::Ok(_)
    ));

    let status = settled_status(&mut client);
    for (key, want) in [
        ("admitted", 5),
        ("served", 4),
        ("timeouts", 1),
        ("errors", 2),
        ("exec_batches", 2),
        ("exec_lanes", 4),
    ] {
        assert_eq!(status_field(&status, key), want, "{key} in:\n{status}");
    }
    let model_line = status.lines().find(|l| l.starts_with("model[0]:")).unwrap();
    for needle in [" served=4 ", " exec_batches=2 ", " exec_lanes=4"] {
        assert!(
            model_line.contains(needle),
            "missing `{needle}` in: {model_line}"
        );
    }

    client.shutdown().unwrap();
    handle.join();
}
