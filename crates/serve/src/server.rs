//! Blocking TCP server: accept loop, per-connection handlers, and the
//! request → engine/registry dispatch.
//!
//! The server is std-only (`std::net`): one accept thread plus one thread
//! per connection, which is the right trade for a research serving stack —
//! connection counts are small, and every request does real tensor work
//! anyway. Inference requests funnel into a per-model [`ReplicaPool`] of
//! [`BatchEngine`] replicas (created lazily on a model's first request),
//! so requests that arrive while a forward runs share the next batch.
//!
//! Shutdown is cooperative and complete: the accept loop is woken by a
//! self-connection, open connection sockets are shut down so blocked reads
//! return, every thread is joined, and the engines fail any still-queued
//! requests with a typed error. No request is silently dropped.
//!
//! The same port also answers the admin opcodes: `Health` (uptime, engine
//! count, aggregate queue depth) and `Metrics` (Prometheus text, JSON
//! snapshot, or the flight-recorder dump; the per-replica
//! `serve.replica.r<N>.*` gauges are refreshed from live counts first) — no
//! second listener, no extra dependency, and the `ibrar-top` dashboard
//! polls them over the ordinary client. Every request gets a [`TraceId`]
//! (client-minted on v2 frames, server-minted otherwise) and a completed
//! [`FlightRecord`] in the bounded [`FlightRecorder`].

use crate::engine::{argmax, BatchEngine, Classification, EngineConfig, StageTimings};
use crate::flight::{FlightRecord, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
use crate::pool::{PoolConfig, ReplicaPool};
use crate::protocol::{
    classification_response, decode_request_traced, encode_response, opcode_for, read_frame,
    status_for, write_frame, AttackKind, MetricsFormat, Opcode, ProbeReport, ProbeSpec, Request,
    Response, Status,
};
use crate::registry::ModelRegistry;
use crate::trace::TraceId;
use crate::{Result, ServeError};
use ibrar_attacks::{Attack, Fgsm, Pgd};
use ibrar_nn::{ImageModel, Mode, Session};
use ibrar_telemetry as tel;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Configuration applied to each replica engine of each lazily-created
    /// per-model pool.
    pub engine: EngineConfig,
    /// Replicas per model pool (each with its own queue and workers).
    pub replicas: usize,
    /// Capacity of each flight-recorder ring (recent and SLO breaches).
    /// Zero disables retention (the rings only count drops).
    pub flight_capacity: usize,
    /// End-to-end latency SLO in milliseconds; requests slower than this
    /// are retained in the breach ring and counted in
    /// `serve.slo_breaches`. `None` disables breach tracking.
    pub slo_ms: Option<f64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            engine: EngineConfig::default(),
            replicas: 1,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            slo_ms: None,
        }
    }
}

struct Shared {
    registry: Arc<ModelRegistry>,
    pools: Mutex<HashMap<String, Arc<ReplicaPool>>>,
    config: ServerConfig,
    flight: FlightRecorder,
    started: Instant,
    shutdown: AtomicBool,
    conns: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
}

/// A running server; dropping it shuts everything down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// models from `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the bind fails.
    pub fn start(
        addr: impl ToSocketAddrs,
        registry: Arc<ModelRegistry>,
        config: ServerConfig,
    ) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let flight = FlightRecorder::new(config.flight_capacity, config.slo_ms);
        let shared = Arc::new(Shared {
            registry,
            pools: Mutex::new(HashMap::new()),
            config,
            flight,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| ServeError::Io(e.to_string()))?;
        tel::event(
            tel::Level::Info,
            "serve.started",
            &[("addr", local.to_string().into())],
        );
        Ok(Server {
            addr: local,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The first replica engine serving `model`, if its pool has been
    /// created yet. Exposed so tests can reach [`BatchEngine::pause`] and
    /// queue metrics; with the default single-replica config this *is* the
    /// model's engine.
    pub fn engine(&self, model: &str) -> Option<Arc<BatchEngine>> {
        self.pool(model).map(|p| Arc::clone(&p.engines()[0]))
    }

    /// The replica pool serving `model`, if one has been created yet.
    pub fn pool(&self, model: &str) -> Option<Arc<ReplicaPool>> {
        self.shared.pools.lock().get(model).cloned()
    }

    /// The server's flight recorder (also dumpable over the wire via the
    /// Metrics opcode's `Flight` format).
    pub fn flight(&self) -> &FlightRecorder {
        &self.shared.flight
    }

    /// Stops accepting, closes open connections, joins all threads, and
    /// shuts down every engine. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop out of `accept()`.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Unblock connection reads, then join the handlers.
        let conns = std::mem::take(&mut *self.shared.conns.lock());
        for (stream, _) in &conns {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, handle) in conns {
            let _ = handle.join();
        }
        for (_, pool) in self.shared.pools.lock().drain() {
            pool.shutdown();
        }
        tel::event(tel::Level::Info, "serve.stopped", &[]);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        tel::counter("serve.connections", 1);
        let conn_shared = Arc::clone(&shared);
        let peer = stream.try_clone();
        let conn_stream = match peer {
            Ok(clone) => clone,
            Err(_) => continue,
        };
        let spawned = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || connection_loop(conn_stream, conn_shared));
        if let Ok(handle) = spawned {
            shared.conns.lock().push((stream, handle));
        }
    }
}

/// What the handler learned about a request, threaded out for the flight
/// record.
#[derive(Default)]
struct RequestMeta {
    model: String,
    stages: StageTimings,
}

fn connection_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    serve_connection(&mut stream, &shared);
    // The accept loop keeps a clone of this socket alive for shutdown
    // wake-ups, so dropping `stream` alone would leave an abandoned peer
    // (e.g. one that sent an unreadable frame) blocked on a response that
    // will never come. Close the socket itself.
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve_connection(mut stream: &mut TcpStream, shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let body = match read_frame(&mut stream) {
            Ok(Some(body)) => body,
            Ok(None) | Err(_) => break,
        };
        let received = Instant::now();
        let mut meta = RequestMeta::default();
        // (response, trace id, opcode) — opcode is None when the frame
        // never decoded into a request.
        let (response, trace, opcode) = {
            let _s = tel::span!("serve.request");
            tel::counter("serve.proto.requests", 1);
            match decode_request_traced(body) {
                Ok((request, trace)) => {
                    // v2 clients mint the id; for v1 frames the server
                    // mints one at ingress so every request is traceable.
                    let trace = trace.unwrap_or_else(TraceId::generate);
                    let opcode = opcode_for(&request);
                    let response = dispatch(shared, request, trace, &mut meta);
                    (response, trace, Some(opcode))
                }
                Err(e) => (
                    Response::Error(status_for(&e), e.to_string()),
                    TraceId::generate(),
                    None,
                ),
            }
        };
        if let Response::Error(status, _) = &response {
            tel::counter(
                match status {
                    Status::QueueFull => "serve.proto.queue_full",
                    Status::DeadlineExceeded => "serve.proto.deadline",
                    _ => "serve.proto.errors",
                },
                1,
            );
        }
        let encode_start = Instant::now();
        let frame = encode_response(&response);
        let encode_ms = encode_start.elapsed().as_secs_f64() * 1e3;
        tel::observe("serve.stage.encode_ms", encode_ms);
        // Record *before* the frame hits the wire: once the client has read
        // the response it must be able to observe the flight record (tests
        // and dashboards poll right after a reply). Admin opcodes
        // (Health/Metrics) are cheap, polled continuously by dashboards,
        // and would drown real traffic out of the ring.
        if let Some(opcode) = opcode {
            if !matches!(opcode, Opcode::Health | Opcode::Metrics) {
                let status = match &response {
                    Response::Error(status, _) => *status,
                    _ => Status::Ok,
                };
                shared.flight.record(FlightRecord {
                    trace,
                    model: meta.model,
                    opcode,
                    status,
                    total_ms: received.elapsed().as_secs_f64() * 1e3,
                    stages: meta.stages,
                    encode_ms,
                    ts_ms: unix_ms(),
                });
            }
        }
        if write_frame(&mut stream, &frame).is_err() {
            break;
        }
    }
}

fn dispatch(shared: &Shared, request: Request, trace: TraceId, meta: &mut RequestMeta) -> Response {
    match handle(shared, request, trace, meta) {
        Ok(response) => response,
        Err(e) => Response::Error(status_for(&e), e.to_string()),
    }
}

fn handle(
    shared: &Shared,
    request: Request,
    trace: TraceId,
    meta: &mut RequestMeta,
) -> Result<Response> {
    match request {
        Request::Ping => Ok(Response::Pong),
        Request::Classify {
            model,
            deadline_ms,
            image,
            with_logits,
        } => {
            let pool = pool_for(shared, &model)?;
            meta.model = model;
            let budget = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
            let (logits, stages) = pool
                .submit_traced(image, budget, Some(trace))?
                .wait_detailed()?;
            meta.stages = stages;
            let classification = Classification {
                label: argmax(logits.data()),
                logits: logits.data().to_vec(),
            };
            Ok(classification_response(&classification, with_logits))
        }
        Request::RobustnessProbe {
            model,
            label,
            spec,
            image,
        } => {
            let handle = shared.registry.get(&model)?;
            meta.model = model;
            let report = run_probe(handle.as_ref(), &image, label, &spec)?;
            Ok(Response::Probed(report))
        }
        Request::Health => {
            // `engines` reports replica engines across every pool, so the
            // single-replica default reads 1 per loaded model.
            let pools: Vec<Arc<ReplicaPool>> = shared.pools.lock().values().cloned().collect();
            let queue_depth: u64 = pools.iter().map(|p| p.queue_depth() as u64).sum();
            let count: u32 = pools.iter().map(|p| p.engines().len() as u32).sum();
            Ok(Response::Healthy {
                uptime_ms: shared.started.elapsed().as_millis() as u64,
                engines: count,
                queue_depth,
            })
        }
        Request::Metrics { format } => {
            publish_replica_gauges(shared);
            let payload = match format {
                MetricsFormat::Prometheus => tel::snapshot().prometheus_text(),
                MetricsFormat::Json => tel::snapshot().to_json(),
                MetricsFormat::Flight => shared.flight.dump_json(),
            };
            Ok(Response::Metrics(payload))
        }
    }
}

/// Sets the `serve.replica.r<N>.{queue_depth,in_flight}` gauges from the
/// engines' live counts, summed over every model's pool (as the
/// `serve.pool.dispatch.r<N>` counters are), so a scrape never reads a
/// stale busy fleet.
fn publish_replica_gauges(shared: &Shared) {
    let mut totals: Vec<(usize, usize)> = Vec::new();
    for pool in shared.pools.lock().values() {
        let loads = pool.replica_loads();
        totals.resize(totals.len().max(loads.len()), (0, 0));
        for (total, (queued, in_flight)) in totals.iter_mut().zip(loads) {
            total.0 += queued;
            total.1 += in_flight;
        }
    }
    for (id, (queued, in_flight)) in totals.into_iter().enumerate() {
        tel::gauge(&format!("serve.replica.r{id}.queue_depth"), queued as f64);
        tel::gauge(&format!("serve.replica.r{id}.in_flight"), in_flight as f64);
    }
}

/// Milliseconds since the Unix epoch (flight-record timestamps).
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn pool_for(shared: &Shared, name: &str) -> Result<Arc<ReplicaPool>> {
    // The first request for a model pays checkpoint load + fleet spawn
    // under the map lock; concurrent first requests for *different* models
    // briefly serialize, which is fine at registry scale.
    let mut pools = shared.pools.lock();
    if let Some(pool) = pools.get(name) {
        return Ok(Arc::clone(pool));
    }
    let model = shared.registry.get(name)?;
    let pool = Arc::new(ReplicaPool::new(
        model,
        PoolConfig {
            replicas: shared.config.replicas,
            engine: shared.config.engine.clone(),
            ..PoolConfig::default()
        },
    )?);
    pools.insert(name.to_string(), Arc::clone(&pool));
    Ok(pool)
}

/// Runs the probe's attack synchronously on the connection thread: attacks
/// are iterative whole-model loops, so there is nothing to micro-batch.
fn run_probe(
    model: &dyn ImageModel,
    image: &ibrar_tensor::Tensor,
    label: u32,
    spec: &ProbeSpec,
) -> Result<ProbeReport> {
    let _s = tel::span!("serve.probe");
    if !model.supports_input_gradients() {
        // Inference-only paths (e.g. the int8 quantized forward) run outside
        // the tape; an attack against them would see zero gradients and
        // report fake robustness. Reject loudly instead.
        return Err(ServeError::Unsupported(format!(
            "robustness probes need input gradients; model '{}' is inference-only",
            model.name()
        )));
    }
    if image.shape() != model.input_shape() {
        return Err(ServeError::InvalidInput(format!(
            "image shape {:?} does not match model input {:?}",
            image.shape(),
            model.input_shape()
        )));
    }
    let batch = ibrar_tensor::Tensor::stack(std::slice::from_ref(image))?;
    let labels = [label as usize];
    let attack: Box<dyn Attack> = match spec.kind {
        AttackKind::Fgsm => Box::new(Fgsm::new(spec.eps)),
        // Deterministic PGD: a serving endpoint should answer the same
        // probe identically on every call.
        AttackKind::Pgd => {
            Box::new(Pgd::new(spec.eps, spec.alpha, spec.steps as usize).without_random_start())
        }
    };
    let adversarial = attack.perturb(model, &batch, &labels)?;
    let clean_pred = predict_one(model, &batch)?;
    let adv_pred = predict_one(model, &adversarial)?;
    Ok(ProbeReport {
        clean_pred,
        adv_pred,
        clean_correct: clean_pred == label,
        adv_correct: adv_pred == label,
    })
}

fn predict_one(model: &dyn ImageModel, batch: &ibrar_tensor::Tensor) -> Result<u32> {
    let tape = ibrar_autograd::Tape::new();
    let sess = Session::new(&tape);
    let x = tape.leaf(batch.clone());
    let out = model.forward(&sess, x, Mode::Eval)?;
    let preds = out.logits.value().argmax_rows()?;
    Ok(preds[0] as u32)
}
