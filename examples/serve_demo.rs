//! Serving demo: checkpoint a model, register it, start the batching
//! inference server on an ephemeral port, and drive it with concurrent
//! clients — then print what the telemetry saw (batch sizes, queue depth,
//! per-request latency).
//!
//! ```sh
//! cargo run --release --example serve_demo
//! IBRAR_TELEMETRY=jsonl:serve.jsonl cargo run --release --example serve_demo
//! ```

use ibrar_nn::{VggConfig, VggMini};
use ibrar_serve::{
    save_to_path, Client, EngineConfig, ModelRegistry, ProbeSpec, ServeError, Server, ServerConfig,
};
use ibrar_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn image(i: usize) -> Tensor {
    Tensor::from_fn(&[3, 16, 16], |idx| {
        ((idx[0] * 29 + idx[1] * 5 + idx[2] * 11 + i * 3) % 23) as f32 / 23.0
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 0. Observability: honor IBRAR_LOG / IBRAR_TELEMETRY (off by default).
    ibrar_telemetry::init_from_env();

    // 1. "Train" a model (seeded init stands in for a training run) and
    //    freeze it into a versioned checkpoint.
    let mut rng = StdRng::seed_from_u64(42);
    let model = VggMini::new(VggConfig::tiny(10), &mut rng)?;
    let ckpt = std::env::temp_dir().join(format!("ibrar-serve-demo-{}.ibsc", std::process::id()));
    save_to_path(&model, &ckpt)?;
    let header = ibrar_serve::read_header(&ckpt)?;
    println!(
        "checkpoint: {} v{} ({} params, fingerprint {:016x})",
        header.arch,
        header.version,
        header.params.len(),
        header.fingerprint
    );

    // 2. Register it under a name. The builder constructs a fresh (randomly
    //    initialised) instance; the registry restores the checkpoint into it
    //    lazily, on first request.
    let registry = Arc::new(ModelRegistry::new());
    registry.register("vgg", ckpt.clone(), || {
        let mut rng = StdRng::seed_from_u64(0);
        Ok(Box::new(VggMini::new(VggConfig::tiny(10), &mut rng)?))
    });

    // 3. Serve on an ephemeral port: one worker per model, batches of up
    //    to 8 from whatever is queued when it comes free.
    let mut server = Server::start(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            engine: EngineConfig {
                max_batch: 8,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        },
    )?;
    println!("serving on {}\n", server.addr());

    // 4. Four concurrent clients, eight requests each: requests that arrive
    //    while a forward runs share the next batch.
    let addr = server.addr();
    let start = Instant::now();
    let handles: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || -> Result<Vec<u32>, ServeError> {
                let mut client = Client::connect(addr)?;
                (0..8)
                    .map(|i| client.classify("vgg", &image(c * 8 + i), 250))
                    .collect()
            })
        })
        .collect();
    let mut labels = Vec::new();
    for h in handles {
        labels.extend(h.join().expect("client thread panicked")?);
    }
    let elapsed = start.elapsed();
    println!(
        "{} requests answered in {:.1} ms ({:.0} req/s)",
        labels.len(),
        elapsed.as_secs_f64() * 1e3,
        labels.len() as f64 / elapsed.as_secs_f64()
    );

    // 5. One robustness probe per attack family, server-side.
    let mut client = Client::connect(addr)?;
    let img = image(0);
    for spec in [ProbeSpec::fgsm_default(), ProbeSpec::pgd_default()] {
        let report = client.robustness_probe("vgg", &img, labels[0], spec)?;
        println!(
            "probe {:?}: clean {} ({}), adversarial {} ({})",
            spec.kind,
            report.clean_pred,
            if report.clean_correct {
                "correct"
            } else {
                "wrong"
            },
            report.adv_pred,
            if report.adv_correct {
                "held"
            } else {
                "flipped"
            },
        );
    }

    // 6. Clean shutdown, then the telemetry report: look for serve.batch_size
    //    (batches formed under concurrency), serve.request_ms, and
    //    serve.queue_depth.
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(ckpt);
    if ibrar_telemetry::enabled() {
        eprint!("\n== telemetry ==\n{}", ibrar_telemetry::report());
        ibrar_telemetry::flush();
    } else {
        println!("\n(set IBRAR_TELEMETRY=jsonl:serve.jsonl to see batch/latency telemetry)");
    }
    Ok(())
}
