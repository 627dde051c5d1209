//! End-to-end observability-plane test against a 2-replica server:
//! per-stage histograms account for every request, the per-replica gauges
//! read the idle fleet's live counts, the metrics endpoint serves both
//! exposition formats over the wire (with per-replica dispatch counters),
//! health counts every replica, fleet answers match a local forward bit
//! for bit, and the flight recorder captures an injected slow request with
//! its trace id.
//!
//! Everything lives in ONE test function: the server shares the global
//! telemetry recorder with this process, so parallel tests in this binary
//! would race its counters.

use ibrar_nn::{ImageModel, Mode, Session, VggConfig, VggMini};
use ibrar_serve::{
    save_to_path, Client, MetricsFormat, ModelRegistry, Server, ServerConfig, TraceId,
};
use ibrar_telemetry as tel;
use ibrar_telemetry::json::Json;
use ibrar_telemetry::Snapshot;
use ibrar_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn image(i: usize) -> Tensor {
    Tensor::from_fn(&[3, 16, 16], |idx| {
        ((idx[0] * 13 + idx[1] * 7 + idx[2] + i * 5) % 19) as f32 / 19.0
    })
}

fn local_logits(model: &dyn ImageModel, img: &Tensor) -> Vec<u32> {
    let tape = ibrar_autograd::Tape::new();
    let sess = Session::new(&tape);
    let x = tape.leaf(Tensor::stack(std::slice::from_ref(img)).unwrap());
    let out = model.forward(&sess, x, Mode::Eval).unwrap();
    let row = out.logits.value().row(0).unwrap();
    row.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn observability_plane_end_to_end() {
    tel::global().enable();
    tel::global().reset_metrics();

    let mut rng = StdRng::seed_from_u64(42);
    let model = VggMini::new(VggConfig::tiny(10), &mut rng).unwrap();
    let path: PathBuf =
        std::env::temp_dir().join(format!("ibrar-serve-obs-{}.ibsc", std::process::id()));
    save_to_path(&model, &path).unwrap();
    let registry = Arc::new(ModelRegistry::new());
    let ckpt = path.clone();
    registry.register("vgg", ckpt, move || {
        let mut rng = StdRng::seed_from_u64(999);
        Ok(Box::new(VggMini::new(VggConfig::tiny(10), &mut rng)?))
    });
    let mut server = Server::start(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            replicas: 2,
            flight_capacity: 64,
            slo_ms: Some(40.0),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // --- Stage accounting: N requests → exactly N observations in every
    // engine-side stage histogram. A worker records them just after it
    // sends the batch's answers, so wait (bounded) for the last one.
    const N: usize = 8;
    let mut traces = Vec::new();
    for i in 0..N {
        let (label, trace) = client.classify_traced("vgg", &image(i), 0, None).unwrap();
        assert!(label < 10);
        traces.push(trace);
    }
    let mut snap = tel::snapshot();
    for _ in 0..200 {
        let recorded = snap
            .histogram("serve.stage.forward_ms")
            .map_or(0, |h| h.count);
        if recorded >= N as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        snap = tel::snapshot();
    }
    for stage in [
        "serve.stage.queue_ms",
        "serve.stage.batch_ms",
        "serve.stage.forward_ms",
    ] {
        let h = snap
            .histogram(stage)
            .unwrap_or_else(|| panic!("missing {stage}"));
        assert_eq!(h.count, N as u64, "{stage} count");
        assert!(h.p50.is_finite() && h.p99 >= h.p50, "{stage}: {h:?}");
    }
    // Encode is measured per response (one per request so far).
    assert_eq!(
        snap.histogram("serve.stage.encode_ms").unwrap().count,
        N as u64
    );
    assert_eq!(snap.counter("serve.requests"), Some(N as u64));

    // --- Replica gauges read live counts: with every answer back, each
    // replica is idle. A worker releases a request's in-flight slot before
    // it sends the answer, so one read must see it.
    let snap = Snapshot::from_json(&client.metrics(MetricsFormat::Json).unwrap()).unwrap();
    let gauges = [
        "r0.queue_depth",
        "r0.in_flight",
        "r1.queue_depth",
        "r1.in_flight",
    ]
    .map(|g| (g, snap.gauge(&format!("serve.replica.{g}"))));
    assert!(
        gauges.iter().all(|&(_, v)| v == Some(0.0)),
        "idle fleet gauges: {gauges:?}"
    );

    // --- Health over the wire counts every replica.
    let health = client.health().unwrap();
    assert_eq!(health.engines, 2);
    assert_eq!(health.queue_depth, 0);

    // --- Metrics over the wire: Prometheus text parses line-by-line and
    // carries the stage families with quantiles.
    let prom = client.metrics(MetricsFormat::Prometheus).unwrap();
    for family in [
        "ibrar_serve_stage_queue_ms",
        "ibrar_serve_stage_batch_ms",
        "ibrar_serve_stage_forward_ms",
        "ibrar_serve_stage_encode_ms",
        "ibrar_serve_requests",
    ] {
        assert!(prom.contains(family), "missing {family} in:\n{prom}");
    }
    assert!(prom.contains("quantile=\"0.99\""), "{prom}");
    for line in prom
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name, value) = line.rsplit_once(' ').expect(line);
        assert!(!name.is_empty());
        assert!(
            value.parse::<f64>().is_ok() || value == "NaN" || value == "+Inf" || value == "-Inf",
            "unparseable sample: {line}"
        );
    }

    // --- JSON snapshot round-trips through the typed parser.
    let json_payload = client.metrics(MetricsFormat::Json).unwrap();
    let parsed = Snapshot::from_json(&json_payload).unwrap();
    assert_eq!(
        parsed.histogram("serve.stage.queue_ms").unwrap().count,
        N as u64
    );
    assert!(parsed.counter("serve.requests").unwrap() >= N as u64);
    // Every classify was dispatched to exactly one replica.
    let dispatched: u64 = (0..2)
        .map(|r| {
            parsed
                .counter(&format!("serve.pool.dispatch.r{r}"))
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(dispatched, N as u64, "{json_payload}");

    // --- Flight recorder: the recent ring saw all N classifies (admin
    // opcodes are excluded), each with its client-minted trace id.
    assert_eq!(server.flight().len(), N);
    let dump = client.metrics(MetricsFormat::Flight).unwrap();
    let flight = Json::parse(&dump).unwrap();
    assert_eq!(flight.get("slo_ms").unwrap().as_f64(), Some(40.0));
    for trace in &traces {
        assert!(dump.contains(&trace.to_string()), "missing {trace}");
    }

    // --- The fleet answers with the checkpoint's logits, bit for bit.
    for i in 0..4 {
        let (_, logits) = client.classify_with_logits("vgg", &image(i), 0).unwrap();
        let got: Vec<u32> = logits.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, local_logits(&model, &image(i)), "image {i}");
    }

    // --- Injected slow request: park both replicas so one request's
    // queue stage dominates, breaching the 40ms SLO end to end.
    let pool = server.pool("vgg").unwrap();
    let gates: Vec<_> = pool.engines().iter().map(|e| e.pause()).collect();
    let slow_trace = TraceId::generate();
    let addr = server.addr();
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.classify_traced("vgg", &image(99), 0, Some(slow_trace))
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(120));
    drop(gates);
    let (_, echoed) = slow.join().unwrap();
    assert_eq!(echoed, slow_trace);

    assert!(server.flight().breach_count() >= 1);
    let dump = client.metrics(MetricsFormat::Flight).unwrap();
    let flight = Json::parse(&dump).unwrap();
    let breaches = flight.get("breaches").unwrap().as_array().unwrap();
    let breach = breaches
        .iter()
        .find(|b| b.get("trace").unwrap().as_str() == Some(&slow_trace.to_string()))
        .expect("slow request missing from breach ring");
    assert!(breach.get("total_ms").unwrap().as_f64().unwrap() > 40.0);
    // The time went where we injected it: the gate parks the worker
    // *after* dequeue, so the stall shows up in the batch-formation stage.
    let batch_ms = breach.get("batch_ms").unwrap().as_f64().unwrap();
    assert!(batch_ms > 40.0, "batch_ms {batch_ms}");
    assert!(tel::snapshot().counter("serve.slo_breaches").unwrap_or(0) >= 1);

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(path);
}
