//! **ibrar-serve** — checkpointed model registry and dynamic micro-batching
//! inference server for the IB-RAR reproduction.
//!
//! The training side of this workspace produces models whose claim to fame
//! is *robustness*; this crate is the serving side that lets those models
//! answer queries — including adversarial-robustness queries — over a
//! socket. Five layers, bottom to top:
//!
//! 1. **Checkpoints** ([`checkpoint`]): a versioned on-disk format (`IBSC`)
//!    wrapping [`ibrar_nn::save_params`] payloads with an architecture
//!    fingerprint and a parameter manifest, so the wrong file fails fast
//!    with a named mismatch instead of a mid-stream shape error.
//! 2. **Registry** ([`registry::ModelRegistry`]): named checkpoints, built
//!    and loaded lazily on first use, cached behind a lock.
//! 3. **Engine** ([`engine::BatchEngine`]): a bounded request queue with
//!    explicit [`ServeError::QueueFull`] backpressure, worker threads that
//!    each run whatever is queued (up to `max_batch`) as one batched
//!    forward without waiting for more, and per-request deadlines
//!    with typed [`ServeError::DeadlineExceeded`] expiry. Batching never
//!    changes answers: results are bitwise identical to single-request
//!    inference.
//! 4. **Replicas** ([`pool::ReplicaPool`]): N engines built once for one
//!    model, tried in least-outstanding order with failover past a full
//!    queue and an optional fleet-wide in-flight cap. Which replica serves
//!    a request never changes its logits.
//! 5. **Protocol** ([`protocol`], [`server::Server`], [`client::Client`]):
//!    a length-prefixed binary protocol over plain `std::net` TCP with
//!    `classify`, `classify_with_logits`, and `robustness_probe` (FGSM /
//!    deterministic PGD from `ibrar-attacks`) calls.
//!
//! Telemetry rides along throughout: `serve.queue_depth` gauge,
//! `serve.batch_size` and `serve.request_ms` histograms, per-stage
//! latency histograms (`serve.stage.{queue,batch,forward,encode}_ms`),
//! and `serve.batch` / `serve.request` spans (see `ibrar-telemetry`).
//!
//! The observability plane stacks on top of that: every request carries a
//! [`TraceId`] (client-minted over the v2 wire format, or server-minted at
//! ingress), the server answers [`protocol::Opcode::Health`] and
//! [`protocol::Opcode::Metrics`] (Prometheus text, JSON snapshot, or the
//! [`flight`] recorder dump) on the same port as inference, and a bounded
//! [`FlightRecorder`] retains the last N traced requests plus every
//! SLO-breaching one for post-hoc inspection.
//!
//! # Example
//!
//! ```no_run
//! use ibrar_nn::{ImageModel, VggConfig, VggMini};
//! use ibrar_serve::{checkpoint, Client, ModelRegistry, Server, ServerConfig};
//! use ibrar_tensor::Tensor;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! // Save a trained model as a named checkpoint.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = VggMini::new(VggConfig::tiny(10), &mut rng)?;
//! checkpoint::save_to_path(&model, std::path::Path::new("vgg.ibsc"))?;
//!
//! // Serve it.
//! let registry = Arc::new(ModelRegistry::new());
//! registry.register("vgg", "vgg.ibsc", move || {
//!     let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//!     Ok(Box::new(VggMini::new(VggConfig::tiny(10), &mut rng)?))
//! });
//! let server = Server::start("127.0.0.1:0", registry, ServerConfig::default())?;
//!
//! // Query it.
//! let mut client = Client::connect(server.addr())?;
//! let label = client.classify("vgg", &Tensor::full(&[3, 16, 16], 0.5), 0)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod checkpoint;
pub mod client;
pub mod engine;
mod error;
pub mod flight;
pub mod pool;
pub mod protocol;
pub mod quant;
pub mod registry;
pub mod server;
pub mod trace;

pub use checkpoint::{load_from_path, read_header, save_to_path, CheckpointHeader, ParamSpec};
pub use client::{Client, HealthReport};
pub use engine::{
    BatchEngine, Classification, EngineConfig, PauseGuard, PendingResponse, StageTimings,
};
pub use error::ServeError;
pub use flight::{FlightRecord, FlightRecorder};
pub use pool::{DispatchPolicy, PoolConfig, ReplicaPool};
pub use protocol::{AttackKind, MetricsFormat, Opcode, ProbeReport, ProbeSpec, Status, TRACE_FLAG};
pub use quant::{
    int8_logit_bound, Int8Vgg, INT8_ACCURACY_DELTA, INT8_LOGIT_REL_TOLERANCE, INT8_LOGIT_TOLERANCE,
};
pub use registry::{ModelBuilder, ModelLoader, ModelRegistry};
pub use server::{Server, ServerConfig};
pub use trace::TraceId;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
