//! End-to-end protocol tests: a real server on an ephemeral port, a real
//! blocking client, typed errors across the wire, and a clean shutdown.
//!
//! The server holds three models, each built from different weights than
//! its checkpoint, so every bitwise answer proves the checkpoint loaded:
//! `vgg` (a `VggMini`), `vib` (a `VibHead<VggMini>`, served on its μ-only
//! eval path) and `vgg-int8` (the int8 snapshot the registry loader
//! quantizes from `vgg`'s checkpoint).

use ibrar_nn::{ImageModel, Mode, Session, VggConfig, VggMini, VibHead, VibHeadConfig};
use ibrar_serve::{
    save_to_path, Client, EngineConfig, Int8Vgg, ModelRegistry, ProbeSpec, ServeError, Server,
    ServerConfig,
};
use ibrar_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "ibrar-serve-e2e-{}-{tag}-{n}.ibsc",
        std::process::id()
    ))
}

fn image(i: usize) -> Tensor {
    Tensor::from_fn(&[3, 16, 16], |idx| {
        ((idx[0] * 29 + idx[1] * 5 + idx[2] * 11 + i * 3) % 23) as f32 / 23.0
    })
}

fn vgg(seed: u64) -> VggMini {
    let mut rng = StdRng::seed_from_u64(seed);
    VggMini::new(VggConfig::tiny(10), &mut rng).unwrap()
}

fn vib(seed: u64) -> VibHead<VggMini> {
    let mut rng = StdRng::seed_from_u64(seed);
    let inner = VggMini::new(VggConfig::tiny(10), &mut rng).unwrap();
    VibHead::new(inner, VibHeadConfig::paper_default(), &mut rng).unwrap()
}

/// The weights the served models' checkpoints were saved from.
struct Donors {
    vgg: VggMini,
    vib: VibHead<VggMini>,
}

/// Saves the donors' checkpoints and returns a running server plus the
/// paths (for cleanup) and the donors. The builders start from other
/// seeds than the donors, so every correct answer proves a load.
fn start_server(config: ServerConfig) -> (Server, [PathBuf; 2], Donors) {
    let donors = Donors {
        vgg: vgg(42),
        vib: vib(43),
    };
    let paths = [temp_path("model"), temp_path("vib")];
    save_to_path(&donors.vgg, &paths[0]).unwrap();
    save_to_path(&donors.vib, &paths[1]).unwrap();

    let registry = Arc::new(ModelRegistry::new());
    registry.register("vgg", paths[0].clone(), || Ok(Box::new(vgg(999))));
    registry.register("vib", paths[1].clone(), || Ok(Box::new(vib(998))));
    registry.register_loader("vgg-int8", paths[0].clone(), |path| {
        let model = vgg(999);
        ibrar_serve::load_from_path(&model, path)?;
        Ok(Arc::new(Int8Vgg::from_model(&model)?))
    });
    let server = Server::start("127.0.0.1:0", registry, config).unwrap();
    (server, paths, donors)
}

fn stop(mut server: Server, paths: [PathBuf; 2]) {
    server.shutdown();
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

fn local_logits(model: &dyn ImageModel, img: &Tensor) -> Vec<f32> {
    let tape = ibrar_autograd::Tape::new();
    let sess = Session::new(&tape);
    let x = tape.leaf(Tensor::stack(std::slice::from_ref(img)).unwrap());
    let out = model.forward(&sess, x, Mode::Eval).unwrap();
    out.logits.value().row(0).unwrap().data().to_vec()
}

/// Index of the first largest logit.
fn argmax(logits: &[f32]) -> usize {
    let mut best = 0;
    for (j, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = j;
        }
    }
    best
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn classify_over_tcp_matches_local_forward_bitwise() {
    let (server, paths, donors) = start_server(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    client.ping().unwrap();
    // The int8 reference quantizes the donor weights here; the served
    // snapshot was quantized by the registry loader from the checkpoint.
    let int8 = Int8Vgg::from_model(&donors.vgg).unwrap();
    let models: [(&str, &dyn ImageModel); 3] = [
        ("vgg", &donors.vgg),
        ("vib", &donors.vib),
        ("vgg-int8", &int8),
    ];
    for (name, local) in models {
        for i in 0..5 {
            let img = image(i);
            let want = local_logits(local, &img);
            let (label, logits) = client.classify_with_logits(name, &img, 0).unwrap();
            assert_eq!(
                bits(&logits),
                bits(&want),
                "{name}: image {i} logits drifted over TCP"
            );
            assert_eq!(label as usize, argmax(&want), "{name}: image {i}");
            assert_eq!(client.classify(name, &img, 0).unwrap(), label);
        }
    }
    // Health counts one engine per model, each built by its first request.
    let health = client.health().unwrap();
    assert_eq!(health.engines, 3);
    assert_eq!(health.queue_depth, 0);

    drop(client);
    stop(server, paths);
}

#[test]
fn unknown_model_and_bad_shape_are_typed() {
    let (server, paths, _donors) = start_server(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    assert!(matches!(
        client.classify("nope", &image(0), 0),
        Err(ServeError::UnknownModel(name)) if name.contains("nope")
    ));
    assert!(matches!(
        client.classify("vgg", &Tensor::full(&[1, 2, 2], 0.1), 0),
        Err(ServeError::InvalidInput(_))
    ));
    // The connection survives typed errors.
    client.ping().unwrap();

    drop(client);
    stop(server, paths);
}

#[test]
fn robustness_probe_is_deterministic_and_consistent() {
    let (server, paths, donors) = start_server(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let img = image(2);
    let models: [(&str, &dyn ImageModel); 2] = [("vgg", &donors.vgg), ("vib", &donors.vib)];
    for (name, local) in models {
        let clean_pred = argmax(&local_logits(local, &img));
        for spec in [ProbeSpec::fgsm_default(), ProbeSpec::pgd_default()] {
            let a = client
                .robustness_probe(name, &img, clean_pred as u32, spec)
                .unwrap();
            let b = client
                .robustness_probe(name, &img, clean_pred as u32, spec)
                .unwrap();
            assert_eq!(a, b, "{name}: probe must be deterministic for {spec:?}");
            assert_eq!(a.clean_pred as usize, clean_pred, "{name}");
            assert!(a.clean_correct, "{name}");
            assert_eq!(a.adv_correct, a.adv_pred as usize == clean_pred);
        }
    }

    // The int8 forward has no input gradients, so its probe is a typed
    // rejection, and the connection goes on serving f32 probes.
    let label = client.classify("vgg-int8", &img, 0).unwrap();
    assert!(matches!(
        client.robustness_probe("vgg-int8", &img, label, ProbeSpec::fgsm_default()),
        Err(ServeError::Unsupported(_))
    ));
    client
        .robustness_probe("vgg", &img, label, ProbeSpec::fgsm_default())
        .unwrap();

    drop(client);
    stop(server, paths);
}

#[test]
fn queue_full_and_deadline_cross_the_wire_typed() {
    let (server, paths, _donors) = start_server(ServerConfig {
        engine: EngineConfig {
            max_batch: 2,
            queue_capacity: 3,
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();

    // First request lazily creates the engine.
    client.classify("vgg", &image(0), 0).unwrap();
    let engine = server.engine("vgg").unwrap();

    // Park the worker, feed it one sacrificial job, and wait until it holds
    // that job (queue drained) so capacity accounting is deterministic.
    let gate = engine.pause();
    let _sacrificial = engine.submit(image(1), None).unwrap();
    let mut spins = 0;
    while engine.queue_depth() != 0 {
        std::thread::sleep(Duration::from_millis(1));
        spins += 1;
        assert!(spins < 5000, "worker never picked up the sacrificial job");
    }
    let held: Vec<_> = (0..2)
        .map(|i| engine.submit(image(i + 2), None).unwrap())
        .collect();

    // A 5 ms-deadline request takes the last queue slot and waits behind
    // the parked worker. It blocks until the gate opens, so it runs on its
    // own connection.
    let addr = server.addr();
    let doomed = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.classify("vgg", &image(7), 5)
    });
    let mut spins = 0;
    while engine.queue_depth() != 3 {
        std::thread::sleep(Duration::from_millis(1));
        spins += 1;
        assert!(spins < 5000, "doomed request never reached the queue");
    }

    // Queue now at capacity: typed queue-full travels over TCP.
    assert!(matches!(
        client.classify("vgg", &image(9), 0),
        Err(ServeError::QueueFull)
    ));

    // Let the doomed request's deadline lapse, then release the worker.
    std::thread::sleep(Duration::from_millis(50));
    drop(gate);
    assert!(matches!(
        doomed.join().unwrap(),
        Err(ServeError::DeadlineExceeded)
    ));
    for p in held {
        p.wait().unwrap();
    }

    // Server still healthy afterwards.
    client.ping().unwrap();
    client.classify("vgg", &image(3), 0).unwrap();

    drop(client);
    stop(server, paths);
}
