//! Inference-server CLI: throughput comparison, a real listening server
//! backed by freshly checkpointed models, or traced load against one.
//!
//! ```sh
//! cargo run --release --bin serve -- --throughput    # batched vs per-request
//! cargo run --release --bin serve -- --listen 127.0.0.1:7878
//! cargo run --release --bin serve -- --drive 127.0.0.1:7878 --requests 40
//! ```
//!
//! The end-to-end checks of the serving stack are the `ibrar-serve` tests
//! (`crates/serve/tests/`). Set `IBRAR_LOG` / `IBRAR_TELEMETRY` to capture
//! the serve.* counters, gauges, and span timings (see README
//! "Observability").

use ibrar_nn::{ImageModel, VggConfig, VggMini, VibHead, VibHeadConfig};
use ibrar_serve::{
    save_to_path, BatchEngine, Client, EngineConfig, Int8Vgg, ModelRegistry, Server, ServerConfig,
};
use ibrar_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

type DynResult<T> = Result<T, Box<dyn std::error::Error>>;

const MODEL_NAME: &str = "vgg";
const INT8_NAME: &str = "vgg-int8";
const VIB_NAME: &str = "VggMini-vib";
const NUM_CLASSES: usize = 10;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--throughput [--requests N] | --listen ADDR | --drive ADDR]\n\
         \x20            [--replicas N] [--int8]\n\
         \n\
         --throughput  compare batched vs per-request engine throughput\n\
         --requests N  wave size for --throughput / --drive (default 64)\n\
         --listen ADDR serve checkpointed models on ADDR until killed\n\
         --drive ADDR  send N traced classify requests at a --listen server\n\
         \x20             (load for the ibrar-top dashboard)\n\
         --replicas N  replicas per model pool for --listen (default 1)\n\
         --int8        with --listen, also serve the post-training-quantized\n\
         \x20             int8 model ('vgg-int8'); with --throughput, time it\n\
         \x20             instead of the f32 model"
    );
    std::process::exit(2);
}

fn image(i: usize) -> Tensor {
    Tensor::from_fn(&[3, 16, 16], |idx| {
        ((idx[0] * 29 + idx[1] * 5 + idx[2] * 11 + i * 3) % 23) as f32 / 23.0
    })
}

fn build_model(seed: u64) -> DynResult<VggMini> {
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(VggMini::new(VggConfig::tiny(NUM_CLASSES), &mut rng)?)
}

fn build_vib(seed: u64) -> DynResult<VibHead<VggMini>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let inner = VggMini::new(VggConfig::tiny(NUM_CLASSES), &mut rng)?;
    Ok(VibHead::new(
        inner,
        VibHeadConfig::paper_default(),
        &mut rng,
    )?)
}

/// Checkpoints fresh donors for [`MODEL_NAME`] and [`VIB_NAME`] in the
/// temp dir and registers builders that start from *different* weights
/// (plus [`INT8_NAME`] with `int8`), so every correct answer proves the
/// checkpoint round-trip happened; VIB serving runs the deterministic
/// μ-only eval path. Every registered model is loaded here, and nothing
/// reloads a model after its first load, so both checkpoints are removed
/// before this returns: a server that runs until killed leaves no files.
fn checkpointed_registry(int8: bool) -> DynResult<Arc<ModelRegistry>> {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let vgg_path = dir.join(format!("ibrar-serve-bin-{pid}.ibsc"));
    let vib_path = dir.join(format!("ibrar-serve-bin-vib-{pid}.ibsc"));
    let registry = Arc::new(ModelRegistry::new());
    let loaded = (|| -> DynResult<()> {
        save_to_path(&build_model(42)?, &vgg_path)?;
        save_to_path(&build_vib(43)?, &vib_path)?;
        registry.register(MODEL_NAME, vgg_path.clone(), || {
            let mut rng = StdRng::seed_from_u64(999);
            Ok(Box::new(VggMini::new(
                VggConfig::tiny(NUM_CLASSES),
                &mut rng,
            )?))
        });
        registry.register(VIB_NAME, vib_path.clone(), || {
            Ok(Box::new(build_vib(998).map_err(|e| {
                ibrar_nn::NnError::Config(format!("vib builder: {e}"))
            })?))
        });
        if int8 {
            // The int8 view of the same checkpoint: a fresh f32 `VggMini`
            // restores the weights, then snapshots them into an `Int8Vgg`.
            registry.register_loader(INT8_NAME, vgg_path.clone(), |path| {
                let mut rng = StdRng::seed_from_u64(999);
                let model = VggMini::new(VggConfig::tiny(NUM_CLASSES), &mut rng)?;
                ibrar_serve::load_from_path(&model, path)?;
                Ok(Arc::new(Int8Vgg::from_model(&model)?))
            });
        }
        for name in registry.names() {
            registry.get(&name)?;
        }
        Ok(())
    })();
    for path in [&vgg_path, &vib_path] {
        let _ = std::fs::remove_file(path);
    }
    loaded.map(|()| registry)
}

/// Drives `requests` classifications through a per-request engine
/// (`max_batch = 1`) and a batching engine, and reports the speedup. The
/// batched engine amortises dispatch overhead *and* lets the row-parallel
/// kernels use multiple cores, so the gap widens with core count.
fn run_throughput(requests: usize, int8: bool) -> DynResult<()> {
    let f32_model = build_model(42)?;
    let model: Arc<dyn ImageModel> = if int8 {
        Arc::new(Int8Vgg::from_model(&f32_model)?)
    } else {
        Arc::new(f32_model)
    };
    let images: Vec<Tensor> = (0..requests).map(image).collect();

    let time_engine = |label: &str, max_batch: usize| -> DynResult<f64> {
        let engine = BatchEngine::new(
            Arc::clone(&model),
            EngineConfig {
                max_batch,
                queue_capacity: requests.max(64),
                ..EngineConfig::default()
            },
        )?;
        // Warm-up wave so thread spawn and first-touch costs are excluded.
        for p in images
            .iter()
            .take(8)
            .map(|img| engine.submit(img.clone(), None))
            .collect::<Result<Vec<_>, _>>()?
        {
            p.wait()?;
        }
        let start = Instant::now();
        let pending = images
            .iter()
            .map(|img| engine.submit(img.clone(), None))
            .collect::<Result<Vec<_>, _>>()?;
        for p in pending {
            p.wait()?;
        }
        let secs = start.elapsed().as_secs_f64();
        engine.shutdown();
        let rps = requests as f64 / secs;
        println!(
            "{label:<24} {rps:>10.1} req/s  ({:.1} ms total)",
            secs * 1e3
        );
        Ok(rps)
    };

    println!(
        "throughput over {requests} requests ({} tiny, 3x16x16):",
        model.name()
    );
    let single = time_engine("per-request (batch=1)", 1)?;
    let batched = time_engine("batched (batch=8)", 8)?;
    println!("speedup: {:.2}x", batched / single);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if cores < 2 {
        println!(
            "note: only {cores} core available — batching can only amortise \
             dispatch overhead here. The conv/matmul kernels parallelise \
             across batch rows, so the batched engine needs >=2 cores to \
             show its real (>=2x) advantage."
        );
    }

    if ibrar_telemetry::enabled() {
        eprint!("\n== telemetry ==\n{}", ibrar_telemetry::report());
        ibrar_telemetry::flush();
    }
    Ok(())
}

/// Serves until the process is killed. Checkpoints fresh models first so
/// the registry exercises the real load path.
fn run_listen(addr: &str, int8: bool, replicas: usize) -> DynResult<()> {
    // A listening server exists to be observed: turn metric collection on
    // so the Metrics opcode (and `ibrar-top`) has data without requiring
    // IBRAR_TELEMETRY in the environment.
    ibrar_telemetry::global().enable();
    let registry = checkpointed_registry(int8)?;
    let server = Server::start(
        addr,
        registry,
        ServerConfig {
            replicas,
            ..ServerConfig::default()
        },
    )?;
    println!(
        "serving models {MODEL_NAME:?} + {VIB_NAME:?}{} on {} (ctrl-c to stop)",
        if int8 {
            format!(" + {INT8_NAME:?}")
        } else {
            String::new()
        },
        server.addr()
    );
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Fires `requests` traced classifications at a remote `--listen` server —
/// load for the `ibrar-top` dashboard and a quick latency readout.
fn run_drive(addr: &str, requests: usize) -> DynResult<()> {
    let mut client = Client::connect(addr)?;
    let start = Instant::now();
    let mut first_trace = None;
    for i in 0..requests {
        let (_, trace) = client.classify_traced(MODEL_NAME, &image(i), 0, None)?;
        first_trace.get_or_insert(trace);
    }
    let secs = start.elapsed().as_secs_f64();
    println!(
        "drove {requests} requests in {:.1} ms ({:.1} req/s); first trace id {}",
        secs * 1e3,
        requests as f64 / secs,
        first_trace.map(|t| t.to_string()).unwrap_or_default()
    );
    Ok(())
}

fn main() -> DynResult<()> {
    ibrar_telemetry::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = String::from("--throughput");
    let mut requests = 64usize;
    let mut addr = String::new();
    let mut int8 = false;
    let mut replicas = 1usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--throughput" => mode = args[i].clone(),
            "--listen" | "--drive" => {
                mode = args[i].clone();
                i += 1;
                addr = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--requests" => {
                i += 1;
                requests = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--replicas" => {
                i += 1;
                replicas = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--int8" => int8 = true,
            _ => usage(),
        }
        i += 1;
    }
    match mode.as_str() {
        "--listen" => run_listen(&addr, int8, replicas),
        "--drive" => run_drive(&addr, requests),
        _ => run_throughput(requests, int8),
    }
}
