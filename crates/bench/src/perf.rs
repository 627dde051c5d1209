//! The performance report behind the `perf_report` bin: the
//! `ibrar-perf-report/v2` schema and its header, the JSON writer, the
//! reader of the committed `BENCH_PR*.json` references, and the timed
//! workloads with their fixtures, median timer and closed-loop serve wave.
//!
//! The workload table, [`WORKLOADS`], lives here rather than in
//! `perf_report` so that this module's tests can check, without timing
//! anything, that every gated workload has a committed reference.

use ibrar::{IbLoss, IbLossConfig, TrainMethod, Trainer, TrainerConfig};
use ibrar_attacks::{Attack, Pgd, DEFAULT_ALPHA, DEFAULT_EPS};
use ibrar_autograd::Tape;
use ibrar_data::{Dataset, SynthVision, SynthVisionConfig};
use ibrar_nn::{ImageModel, Mode, Session, VggConfig, VggMini, VibHead, VibHeadConfig};
use ibrar_serve::{
    BatchEngine, EngineConfig, Int8Vgg, PendingResponse, PoolConfig, ReplicaPool, ServeError,
};
use ibrar_telemetry::{self as tel, json::Json};
use ibrar_tensor::qgemm::{gemm_i8_packed, PackedQuantB};
use ibrar_tensor::{backend, parallel, simd, Conv2dSpec, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The schema name every report written through [`report`] carries.
const SCHEMA: &str = "ibrar-perf-report/v2";

const NUM_CLASSES: usize = 10;

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A v2 report: the header (schema, threads, reps, backend name,
/// `have_avx2`) followed by `body`.
pub fn report<'a>(reps: usize, body: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    let header: [(&'a str, Json); 5] = [
        ("schema", Json::Str(SCHEMA.into())),
        ("threads", Json::Num(parallel::num_threads() as f64)),
        ("reps", Json::Num(reps as f64)),
        ("backend", Json::Str(backend::current().name().into())),
        ("have_avx2", Json::Bool(simd::have_avx2())),
    ];
    obj(header.into_iter().chain(body))
}

/// Renders `v` in the layout of the committed `BENCH_PR*.json` files: two
/// spaces per object level, arrays on one line, a trailing newline.
fn render(v: &Json) -> String {
    let mut out = String::new();
    write_json(v, 0, &mut out);
    out.push('\n');
    out
}

fn write_json(v: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => tel::json::write_f64(*n, out),
        Json::Str(s) => tel::json::write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_json(item, indent, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                out.push_str(&pad);
                out.push_str("  ");
                tel::json::write_string(k, out);
                out.push_str(": ");
                write_json(val, indent + 1, out);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Writes `report` to the file `out`, or to stdout when `out` is `None`.
///
/// # Errors
///
/// Propagates the write's I/O error.
pub fn emit(report: &Json, out: Option<&Path>) -> std::io::Result<()> {
    let text = render(report);
    match out {
        Some(path) => std::fs::write(path, text),
        None => std::io::stdout().write_all(text.as_bytes()),
    }
}

/// The repository root, where the committed `BENCH_PR*.json` files live.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A committed reference for one gated workload.
pub struct Reference {
    /// The `BENCH_PR*.json` file it comes from.
    pub file: String,
    /// The workload's name in [`WORKLOADS`].
    pub workload: &'static str,
    /// The reference median, milliseconds ([`reference_ms`]).
    pub ms: f64,
}

/// Reads every `BENCH_PR*.json` in `root`, newest PR first, and returns the
/// reference each one records for each gated workload in [`WORKLOADS`].
///
/// # Errors
///
/// When `root` cannot be listed, a listed file cannot be read or parsed, or
/// a gated workload finds no reference in any file (the gate would
/// silently stop covering it).
pub fn references(root: &Path) -> Result<Vec<Reference>, String> {
    let mut files: Vec<String> = std::fs::read_dir(root)
        .map_err(|e| format!("cannot list {}: {e}", root.display()))?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_PR") && name.ends_with(".json"))
        .collect();
    // Longer names first, so BENCH_PR10 comes before BENCH_PR9.
    files.sort_by(|a, b| (b.len(), b).cmp(&(a.len(), a)));
    let mut refs = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(root.join(&file)).map_err(|e| format!("{file}: {e}"))?;
        let report = Json::parse(&text).map_err(|e| format!("bad JSON in {file}: {e}"))?;
        for (workload, _, gated) in WORKLOADS {
            if let Some(ms) = reference_ms(&report, workload).filter(|_| gated) {
                let file = file.clone();
                refs.push(Reference { file, workload, ms });
            }
        }
    }
    for (workload, _, gated) in WORKLOADS {
        if gated && !refs.iter().any(|r| r.workload == workload) {
            return Err(format!(
                "no BENCH_PR*.json carries a reference for {workload}"
            ));
        }
    }
    Ok(refs)
}

/// `workload`'s reference in one report: the smallest positive, finite
/// value among its `baseline_ms` and `optimized_ms` (v1 files, the
/// `ibrar-loadgen/v1` one included) and its `median_ms` (v2).
pub fn reference_ms(report: &Json, workload: &str) -> Option<f64> {
    let entry = report.get("workloads")?.get(workload)?;
    ["baseline_ms", "optimized_ms", "median_ms"]
        .iter()
        .filter_map(|key| entry.get(key)?.as_f64())
        .filter(|v| v.is_finite() && *v > 0.0)
        .reduce(f64::min)
}

/// The tiny VggMini the workloads serve.
fn model(seed: u64) -> VggMini {
    let mut rng = StdRng::seed_from_u64(seed);
    VggMini::new(VggConfig::tiny(NUM_CLASSES), &mut rng).expect("model construction")
}

/// `n` distinct single-image `[3, 16, 16]` requests.
fn images(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            Tensor::from_fn(&[3, 16, 16], |idx| {
                ((idx[0] * 29 + idx[1] * 5 + idx[2] * 11 + i * 3) % 23) as f32 / 23.0
            })
        })
        .collect()
}

fn image_batch(n: usize) -> Tensor {
    Tensor::from_fn(&[n, 3, 16, 16], |i| {
        ((i[0] * 37 + i[1] * 29 + i[2] * 5 + i[3] * 11) % 23) as f32 / 23.0
    })
}

fn labels(n: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 7 + 3) % NUM_CLASSES).collect()
}

/// Median of `reps` samples, each the milliseconds `sample` timed. One
/// discarded warmup sample comes first, so first-touch effects (pool
/// fills, lazy init) stay out of the median.
fn median_of(reps: usize, mut sample: impl FnMut() -> f64) -> f64 {
    sample();
    let mut times: Vec<f64> = (0..reps).map(|_| sample()).collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    median_of(reps, || {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e3
    })
}

/// Workload sizes: [`Sizes::full`] for reports and the gate,
/// [`Sizes::smoke`] for a schema check at toy scale.
#[derive(Clone)]
pub struct Sizes {
    reps: usize,
    conv_batch: usize,
    pgd_batch: usize,
    reg_batch: usize,
    train: usize,
    test: usize,
    serve_wave: usize,
    /// `(m, k, n)` of the raw packed-qgemm workload.
    qgemm: (usize, usize, usize),
}

impl Sizes {
    /// The sizes every committed reference was recorded at, with `reps`
    /// timed repetitions per workload.
    ///
    /// # Panics
    ///
    /// If `reps` is 0.
    pub fn full(reps: usize) -> Self {
        assert!(reps > 0, "a median needs at least one timed repetition");
        Sizes {
            reps,
            conv_batch: 8,
            pgd_batch: 8,
            reg_batch: 16,
            train: 32,
            test: 8,
            serve_wave: 64,
            qgemm: (64, 1152, 256),
        }
    }

    /// Toy sizes, one repetition.
    pub fn smoke() -> Self {
        Sizes {
            reps: 1,
            conv_batch: 2,
            pgd_batch: 2,
            reg_batch: 4,
            train: 8,
            test: 4,
            serve_wave: 8,
            qgemm: (3, 8, 5),
        }
    }

    /// Timed repetitions per workload (at most 5 for the training and
    /// serving workloads).
    pub fn reps(&self) -> usize {
        self.reps
    }
}

/// A workload's timer: its median in milliseconds at the given sizes.
pub type Timer = fn(&Sizes) -> f64;

/// Every workload `perf_report` times, in report order, as (name, timer,
/// gated). `perf_report --check` re-times the gated ones against the
/// committed references.
pub const WORKLOADS: [(&str, Timer, bool); 10] = [
    ("conv_forward", |s| time_conv(s, false), false),
    ("conv_fwd_bwd", |s| time_conv(s, true), false),
    ("pgd_step", time_pgd, false),
    ("ibrar_regularizer", time_regularizer, false),
    ("train_step", time_train, true),
    ("vib_train_step", time_vib_train, true),
    ("serve_batch", time_serve, true),
    ("serve_batch_int8", time_serve_int8, true),
    ("qgemm", time_qgemm, true),
    ("serve_fleet", time_serve_fleet, true),
];

/// `conv_forward` / `conv_fwd_bwd`: one mid-network convolution
/// (16→32 channels, 3×3, pad 1) over a 16×16 batch — the direct forward
/// (and, on the way back, the direct input- and weight-gradient kernels)
/// that every model here runs. Stride 1 with 16-wide output rows, so on an
/// AVX2 host the forward takes the pixel-lane path, not the row gather.
fn time_conv(sizes: &Sizes, backward: bool) -> f64 {
    let spec = Conv2dSpec::new(16, 32, 3, 1, 1);
    let x = Tensor::from_fn(&[sizes.conv_batch, 16, 16, 16], |i| {
        ((i[0] * 131 + i[1] * 37 + i[2] * 11 + i[3] * 3) % 23) as f32 * 0.17 - 1.5
    });
    let w = Tensor::from_fn(&[32, 16, 3, 3], |i| {
        ((i[0] * 13 + i[1] * 7 + i[2] * 3 + i[3]) % 11) as f32 * 0.05 - 0.25
    });
    median_ms(sizes.reps, || {
        let tape = Tape::new();
        let xv = tape.var(x.clone());
        let wv = tape.var(w.clone());
        let out = xv.conv2d(wv, None, spec).expect("conv2d");
        if backward {
            let loss = out.sum().expect("sum");
            tape.backward(loss).expect("backward");
        } else {
            std::hint::black_box(out.value());
        }
    })
}

/// `pgd_step`: one PGD iteration (full forward + input-gradient backward)
/// on a VggMini batch — the inner loop of adversarial example generation.
fn time_pgd(sizes: &Sizes) -> f64 {
    let m = model(11);
    let attack = Pgd::new(DEFAULT_EPS, DEFAULT_ALPHA, 1).without_random_start();
    let x = image_batch(sizes.pgd_batch);
    let y = labels(sizes.pgd_batch);
    median_ms(sizes.reps, || {
        std::hint::black_box(attack.perturb(&m, &x, &y).expect("pgd"));
    })
}

/// `ibrar_regularizer`: `α Σ_l I(X,T_l) − β Σ_l I(Y,T_l)` on the robust
/// layers of a VggMini forward. The forward pass runs untimed inside each
/// repetition; only the regularizer build (σ prepass + kernels + trace
/// terms) is on the clock.
fn time_regularizer(sizes: &Sizes) -> f64 {
    let m = model(12);
    let x = image_batch(sizes.reg_batch);
    let y = labels(sizes.reg_batch);
    let cfg = IbLossConfig::substrate_vgg();
    median_of(sizes.reps, || {
        let tape = Tape::new();
        let sess = Session::new(&tape);
        let xv = tape.leaf(x.clone());
        let out = m.forward(&sess, xv, Mode::Eval).expect("forward");
        let t0 = Instant::now();
        let reg = IbLoss::regularizer_with_terms(&sess, xv, &out.hidden, &y, NUM_CLASSES, &cfg)
            .expect("regularizer");
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(reg.0.value());
        dt
    })
}

fn synth(sizes: &Sizes) -> (Dataset, Dataset) {
    let data = SynthVision::generate(
        &SynthVisionConfig::cifar10_like().with_sizes(sizes.train, sizes.test),
        5,
    )
    .expect("synth data");
    (data.train, data.test)
}

fn train_config() -> TrainerConfig {
    TrainerConfig::new(TrainMethod::Standard)
        .with_epochs(1)
        .with_batch_size(16)
        .with_seed(7)
        .with_sequential_batches()
}

/// `train_step`: one full Standard+IB-RAR epoch (forward, regularizer,
/// backward, SGD) over a small synthetic set — the composite loop every
/// experiment spends its time in.
fn time_train(sizes: &Sizes) -> f64 {
    let (train, test) = synth(sizes);
    let cfg = train_config().with_ib(IbLossConfig::substrate_vgg());
    median_ms(sizes.reps.min(5), || {
        let m = model(13);
        let trainer = Trainer::new(cfg.clone());
        std::hint::black_box(trainer.train(&m, &train, &test).expect("train"));
    })
}

/// `vib_train_step`: one Standard epoch through the VIB-wrapped model —
/// frozen-noise reparameterized forward, rsample/kl_gauss backward, SGD —
/// the per-step cost of the variational bottleneck next to `train_step`'s
/// HSIC path.
fn time_vib_train(sizes: &Sizes) -> f64 {
    let (train, test) = synth(sizes);
    let cfg = train_config();
    median_ms(sizes.reps.min(5), || {
        let mut rng = StdRng::seed_from_u64(13);
        let inner = VggMini::new(VggConfig::tiny(NUM_CLASSES), &mut rng).expect("backbone");
        let m = VibHead::new(inner, VibHeadConfig::paper_default(), &mut rng).expect("vib head");
        let trainer = Trainer::new(cfg.clone());
        std::hint::black_box(trainer.train(&m, &train, &test).expect("train"));
    })
}

/// `qgemm`: the raw packed i8×i8→i32 GEMM on serve-shaped operands — B
/// packed once outside the clock (exactly like `Int8Vgg`'s cached panels),
/// so the timed region is what `serve_batch_int8` pays per batch: quantized
/// activation rows against the k-major panels.
fn time_qgemm(sizes: &Sizes) -> f64 {
    let (m, k, n) = sizes.qgemm;
    let a: Vec<i8> = (0..m * k)
        .map(|i| (((i * 37 + 11) % 255) as i32 - 127) as i8)
        .collect();
    let b: Vec<i8> = (0..n * k)
        .map(|i| (((i * 53 + 7) % 255) as i32 - 127) as i8)
        .collect();
    let packed = PackedQuantB::pack(&b, n, k).expect("pack");
    median_ms(sizes.reps, || {
        std::hint::black_box(gemm_i8_packed(&a, &packed, m).expect("qgemm"));
    })
}

/// The engine behind every serve workload (each fleet replica runs one):
/// batches of up to 8, one worker, room for two waves.
fn engine_config(sizes: &Sizes) -> EngineConfig {
    EngineConfig {
        max_batch: 8,
        queue_capacity: sizes.serve_wave.max(8) * 2,
        ..EngineConfig::default()
    }
}

/// The closed-loop serve wave: `serve_wave` single-image requests submitted
/// back to back, then every response awaited. Median over at most 5 waves.
fn serve_wave_ms(
    sizes: &Sizes,
    submit: impl Fn(Tensor) -> Result<PendingResponse, ServeError>,
) -> f64 {
    let requests = images(sizes.serve_wave);
    median_ms(sizes.reps.min(5), || {
        let pending: Vec<_> = requests
            .iter()
            .map(|img| submit(img.clone()).expect("submit"))
            .collect();
        for p in pending {
            p.wait().expect("response");
        }
    })
}

/// The wave through one micro-batching engine (batch assembly = the
/// `Tensor::stack` path, then one stacked Eval forward per batch).
fn time_engine(sizes: &Sizes, m: Arc<dyn ImageModel>) -> f64 {
    let engine = BatchEngine::new(m, engine_config(sizes)).expect("engine");
    let ms = serve_wave_ms(sizes, |img| engine.submit(img, None));
    engine.shutdown();
    ms
}

/// `serve_batch`: the wave on the f32 model.
fn time_serve(sizes: &Sizes) -> f64 {
    time_engine(sizes, Arc::new(model(14)))
}

/// `serve_batch_int8`: the wave on the post-training-quantized twin of the
/// same model — the i8×i8→i32 GEMM inference tier.
fn time_serve_int8(sizes: &Sizes) -> f64 {
    let q = Int8Vgg::from_model(&model(14)).expect("int8 quantization");
    time_engine(sizes, Arc::new(q))
}

/// `serve_fleet`: the wave through a two-replica [`ReplicaPool`] under
/// least-depth dispatch — fleet routing on top of the single-engine path.
fn time_serve_fleet(sizes: &Sizes) -> f64 {
    let config = PoolConfig {
        replicas: 2,
        engine: engine_config(sizes),
        ..PoolConfig::default()
    };
    let pool = ReplicaPool::new(Arc::new(model(14)), config).expect("pool");
    let ms = serve_wave_ms(sizes, |img| pool.submit(img, None));
    pool.shutdown();
    ms
}

/// The scratch-pool and HSIC-cache counters of one untimed `train_step` +
/// `ibrar_regularizer` pass with the recorder on, as the report's `pool`
/// and `hsic_cache` objects (`null` for a counter the pass never bumped).
pub fn counters(sizes: &Sizes) -> [(&'static str, Json); 2] {
    let rec = tel::global();
    let was_enabled = rec.is_enabled();
    rec.enable();
    rec.reset_metrics();
    let once = Sizes {
        reps: 1,
        ..sizes.clone()
    };
    time_train(&once);
    time_regularizer(&once);
    let snap = rec.snapshot();
    rec.reset_metrics();
    if !was_enabled {
        rec.disable();
    }
    let hit_miss = |prefix: &str| {
        let hit = snap.counter(&format!("{prefix}.hit"));
        let miss = snap.counter(&format!("{prefix}.miss"));
        let rate = match (hit, miss) {
            (Some(h), Some(m)) if h + m > 0 => Json::Num(h as f64 / (h + m) as f64),
            _ => Json::Null,
        };
        let count = |c: Option<u64>| c.map_or(Json::Null, |n| Json::Num(n as f64));
        obj([
            ("hit", count(hit)),
            ("miss", count(miss)),
            ("hit_rate", rate),
        ])
    };
    [
        ("pool", hit_miss("alloc.pool")),
        ("hsic_cache", hit_miss("hsic.cache")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workloads(entries: &[(&str, &[(&str, f64)])]) -> Json {
        obj([(
            "workloads",
            obj(entries.iter().map(|&(name, fields)| {
                (name, obj(fields.iter().map(|&(k, v)| (k, Json::Num(v)))))
            })),
        )])
    }

    #[test]
    fn reference_is_the_smallest_positive_finite_median() {
        // A perf-report v1 entry: the better of its two phases.
        let v1 = workloads(&[(
            "train_step",
            &[
                ("baseline_ms", 11.6),
                ("optimized_ms", 12.5),
                ("speedup", 0.9),
            ],
        )]);
        assert_eq!(reference_ms(&v1, "train_step"), Some(11.6));
        // The `ibrar-loadgen/v1` file carries only `optimized_ms`.
        let fleet = workloads(&[("serve_fleet", &[("optimized_ms", 17.7)])]);
        assert_eq!(reference_ms(&fleet, "serve_fleet"), Some(17.7));
        let v2 = workloads(&[("qgemm", &[("median_ms", 0.39)])]);
        assert_eq!(reference_ms(&v2, "qgemm"), Some(0.39));
        assert_eq!(reference_ms(&v2, "train_step"), None);
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let r = workloads(&[("qgemm", &[("baseline_ms", bad), ("median_ms", 2.0)])]);
            assert_eq!(
                reference_ms(&r, "qgemm"),
                Some(2.0),
                "{bad} must be ignored"
            );
            let only_bad = workloads(&[("qgemm", &[("median_ms", bad)])]);
            assert_eq!(
                reference_ms(&only_bad, "qgemm"),
                None,
                "{bad} is no reference"
            );
        }
    }

    #[test]
    fn every_committed_report_parses_and_covers_every_gated_workload() {
        // `references` fails on a listed file that does not parse and on a
        // gated workload that no file covers.
        references(&repo_root()).expect("committed references");
    }

    #[test]
    fn listing_orders_reports_newest_first_and_rejects_bad_json() {
        let dir = std::env::temp_dir().join(format!("ibrar-perf-refs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let gated = obj([(
            "workloads",
            obj(WORKLOADS
                .iter()
                .filter(|w| w.2)
                .map(|&(name, _, _)| (name, obj([("median_ms", Json::Num(1.0))])))),
        )]);
        for file in ["BENCH_PR9.json", "BENCH_PR10.json", "BENCH_PR99.json"] {
            std::fs::write(dir.join(file), render(&gated)).expect("write");
        }
        // Only BENCH_PR*.json is listed, and every listed file must parse.
        std::fs::write(dir.join("notes.json"), "not json").expect("write");
        let refs = references(&dir);
        std::fs::write(dir.join("BENCH_PR11.json"), "not json").expect("write");
        let broken = references(&dir);
        std::fs::remove_dir_all(&dir).expect("clean up");
        assert!(broken.is_err_and(|e| e.contains("BENCH_PR11.json")));
        let files: Vec<String> = refs
            .expect("references")
            .into_iter()
            .map(|r| r.file)
            .collect();
        let per_file = WORKLOADS.iter().filter(|w| w.2).count();
        assert_eq!(files.len(), 3 * per_file);
        assert_eq!(files[0], "BENCH_PR99.json");
        assert_eq!(files[per_file], "BENCH_PR10.json");
        assert_eq!(files[2 * per_file], "BENCH_PR9.json");
    }

    #[test]
    fn rendered_report_reparses_equal() {
        let original = report(
            15,
            [
                (
                    "workloads",
                    obj([("qgemm", obj([("median_ms", Json::Num(0.125))]))]),
                ),
                (
                    "list",
                    Json::Arr(vec![Json::Null, Json::Str("a \"q\"\n".into())]),
                ),
                (
                    "nested",
                    obj([
                        ("empty", Json::Obj(Vec::new())),
                        ("neg", Json::Num(-2.5e-7)),
                    ]),
                ),
            ],
        );
        let text = render(&original);
        assert_eq!(Json::parse(&text).expect("rendered JSON parses"), original);
        assert_eq!(original.get("schema").and_then(Json::as_str), Some(SCHEMA));
    }
}
