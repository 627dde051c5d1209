//! Work-conserving micro-batching inference engine.
//!
//! ```text
//! submit() --try_send--> [bounded queue] --recv, then try_recv up to max_batch--> worker
//!                                          (deadline check, stacked forward,
//!                                           per-row reply)
//! ```
//!
//! * **Backpressure is explicit.** [`BatchEngine::submit`] uses a bounded
//!   queue and `try_send`: a full queue returns [`ServeError::QueueFull`]
//!   immediately — requests are never silently dropped and producers are
//!   never blocked.
//! * **No request waits for company.** A free worker takes the first
//!   queued request, then everything already queued up to
//!   [`EngineConfig::max_batch`], and runs the forward at once: no worker
//!   sits idle while a request waits, and batches still grow under load
//!   because requests queue while a forward runs.
//! * **Deadlines are honored at dispatch.** A worker checks each request's
//!   deadline immediately before the forward pass; expired requests get a
//!   typed [`ServeError::DeadlineExceeded`] instead of a stale answer.
//! * **Batching is invisible to results.** Forward runs in `Mode::Eval`
//!   (running statistics), and every kernel in this workspace is
//!   row-independent and deterministic, so row `i` of a batched forward is
//!   bitwise identical to a single-request forward of image `i` — see
//!   `tests/batching_identity.rs`.
//! * **Load is counted, not guessed.** [`BatchEngine::in_flight`] counts
//!   every accepted request until just before its answer is sent; the
//!   replica pool routes on it.
//!
//! Workers share the queue's receiver behind a mutex and hold it from the
//! first dequeue through the drain. The [`BatchEngine::pause`] gate, for
//! deterministic tests, parks a worker right after its first dequeue, still
//! holding the receiver, so a test can fill the queue to a known depth.
//!
//! # Stage taxonomy
//!
//! Every request that reaches a worker records a per-stage latency
//! breakdown ([`StageTimings`], returned by
//! [`PendingResponse::wait_detailed`]) and feeds the stage histograms:
//!
//! | stage     | histogram                | measures                       |
//! |-----------|--------------------------|--------------------------------|
//! | `queue`   | `serve.stage.queue_ms`   | submit → a worker dequeues it  |
//! | `batch`   | `serve.stage.batch_ms`   | dequeue → dispatch (the drain) |
//! | `forward` | `serve.stage.forward_ms` | stack + batched forward pass   |
//!
//! (The fourth stage, `encode`, is measured server-side — see `server`.)
//! Timestamps are captured unconditionally; the histograms and the trace
//! event are recorded after every row of the batch is answered.

use crate::trace::TraceId;
use crate::{Result, ServeError};
use ibrar_nn::{ImageModel, Mode, Session};
use ibrar_telemetry as tel;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked threads wake to re-check the shutdown flag.
const TICK: Duration = Duration::from_millis(10);

/// Tuning knobs for a [`BatchEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Largest batch a worker will take from the queue at once.
    pub max_batch: usize,
    /// No-op: the engine never waits for co-batched company, so nothing
    /// reads this. It stays so existing struct literals still build.
    pub max_wait: Duration,
    /// Bounded request-queue capacity; `submit` beyond this rejects with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Worker threads running batched forwards.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_batch: 8,
            max_wait: Duration::ZERO,
            queue_capacity: 64,
            workers: 1,
        }
    }
}

impl EngineConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidInput`] when any knob is zero.
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 || self.queue_capacity == 0 || self.workers == 0 {
            return Err(ServeError::InvalidInput(format!(
                "max_batch, queue_capacity, and workers must be positive, got {self:?}"
            )));
        }
        Ok(())
    }
}

/// A classification result: argmax label plus the raw logits row.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Argmax class index.
    pub label: usize,
    /// Raw logits, one per class.
    pub logits: Vec<f32>,
}

/// Per-stage latency breakdown for one completed request, in milliseconds.
///
/// Stages partition the request's life inside the engine: `queue_ms`
/// (submit → a worker dequeues it) + `batch_ms` (dequeue → dispatch) +
/// `forward_ms` (stack + batched forward) ≈ total engine latency. The
/// server adds a fourth, encode-side stage before the response hits the
/// wire.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    /// Time spent in the bounded submit queue, including the dequeuing
    /// worker's wake-up.
    pub queue_ms: f64,
    /// Time from dequeue to dispatch: the drain of whatever else was
    /// queued, ≈ 0 unless the engine is paused.
    pub batch_ms: f64,
    /// Time spent in the batched stack + forward pass.
    pub forward_ms: f64,
}

impl StageTimings {
    /// Sum of the engine-side stages.
    pub fn total_ms(&self) -> f64 {
        self.queue_ms + self.batch_ms + self.forward_ms
    }
}

struct Job {
    image: ibrar_tensor::Tensor,
    deadline: Option<Instant>,
    enqueued: Instant,
    /// Set by the worker at dequeue; equals `enqueued` until then.
    dequeued: Instant,
    trace: Option<TraceId>,
    reply: Reply,
}

/// Where a job's answer goes, plus its in-flight slot.
struct Reply {
    tx: mpsc::Sender<Result<(ibrar_tensor::Tensor, StageTimings)>>,
    /// Accounting token: alive from acceptance until the job is answered
    /// or dropped, which is what [`BatchEngine::in_flight`] counts.
    inflight: InflightToken,
}

impl Reply {
    /// Releases the in-flight slot, then sends the answer, so a caller
    /// holding its answer never still counts as in flight.
    fn send(self, answer: Result<(ibrar_tensor::Tensor, StageTimings)>) {
        drop(self.inflight);
        let _ = self.tx.send(answer);
    }
}

/// RAII increment of the in-flight count; the `Drop` decrement fires on
/// *every* job-consumption path — an answer ([`Reply::send`] drops it
/// first), shutdown fail-drain, or a dropped channel — so the count can
/// never leak. One token is minted per accepted request in
/// `submit_traced`.
struct InflightToken(Arc<AtomicUsize>);

impl InflightToken {
    fn mint(inflight: &Arc<AtomicUsize>) -> Self {
        inflight.fetch_add(1, Ordering::SeqCst);
        InflightToken(Arc::clone(inflight))
    }
}

impl Drop for InflightToken {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Test-only gate that parks a worker between its first dequeue and the
/// drain.
#[derive(Default)]
struct Gate {
    paused: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn wait_open(&self) {
        let mut paused = self.paused.lock();
        while *paused {
            self.cv.wait(&mut paused);
        }
    }

    fn set(&self, value: bool) {
        *self.paused.lock() = value;
        if !value {
            self.cv.notify_all();
        }
    }
}

/// Holds the engine paused; dropping it resumes batching.
pub struct PauseGuard<'e> {
    gate: &'e Gate,
}

impl Drop for PauseGuard<'_> {
    fn drop(&mut self) {
        self.gate.set(false);
    }
}

/// An in-flight request handle returned by [`BatchEngine::submit`].
pub struct PendingResponse {
    rx: mpsc::Receiver<Result<(ibrar_tensor::Tensor, StageTimings)>>,
}

impl PendingResponse {
    /// Blocks until the engine answers.
    ///
    /// # Errors
    ///
    /// Propagates the engine's typed error ([`ServeError::DeadlineExceeded`],
    /// [`ServeError::Shutdown`], or a forward failure).
    pub fn wait(self) -> Result<ibrar_tensor::Tensor> {
        self.wait_detailed().map(|(t, _)| t)
    }

    /// Like [`PendingResponse::wait`], also returning the request's
    /// per-stage latency breakdown.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PendingResponse::wait`].
    pub fn wait_detailed(self) -> Result<(ibrar_tensor::Tensor, StageTimings)> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }
}

/// Micro-batching executor for one model.
pub struct BatchEngine {
    model: Arc<dyn ImageModel>,
    config: EngineConfig,
    submit_tx: SyncSender<Job>,
    queue_depth: Arc<AtomicUsize>,
    inflight: Arc<AtomicUsize>,
    gate: Arc<Gate>,
    shutdown: Arc<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl BatchEngine {
    /// Spawns the `config.workers` worker threads for `model`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidInput`] on a zero-valued config knob.
    pub fn new(model: Arc<dyn ImageModel>, config: EngineConfig) -> Result<Self> {
        config.validate()?;
        let (submit_tx, submit_rx) = mpsc::sync_channel::<Job>(config.queue_capacity);
        // Only the workers hold the receiver, so once the last one exits a
        // late `try_send` fails as `Shutdown` instead of queueing forever.
        let submit_rx = Arc::new(Mutex::new(submit_rx));

        let queue_depth = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Gate::default());
        let shutdown = Arc::new(AtomicBool::new(false));

        let mut threads = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let model = Arc::clone(&model);
            let rx = Arc::clone(&submit_rx);
            let depth = Arc::clone(&queue_depth);
            let gate = Arc::clone(&gate);
            let shutdown = Arc::clone(&shutdown);
            let max_batch = config.max_batch;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(model, rx, depth, gate, shutdown, max_batch))
                    .map_err(|e| ServeError::Io(e.to_string()))?,
            );
        }

        Ok(BatchEngine {
            model,
            config,
            submit_tx,
            queue_depth,
            inflight: Arc::new(AtomicUsize::new(0)),
            gate,
            shutdown,
            threads: Mutex::new(threads),
        })
    }

    /// The model this engine serves.
    pub fn model(&self) -> &Arc<dyn ImageModel> {
        &self.model
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Requests currently waiting in the bounded queue (not yet batched).
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::SeqCst)
    }

    /// Requests accepted but not yet answered: queued, batching, or in a
    /// forward pass. This is the load signal the replica pool balances on
    /// (`queue_depth` alone goes dark the instant a worker dequeues).
    pub fn in_flight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Parks the next worker to dequeue, right after its first request,
    /// until the guard drops (deterministic tests only).
    pub fn pause(&self) -> PauseGuard<'_> {
        self.gate.set(true);
        PauseGuard { gate: &self.gate }
    }

    /// Enqueues one `[c, h, w]` image for batched inference.
    ///
    /// `budget` bounds the time until a worker *starts* the request's
    /// forward pass; expiry yields [`ServeError::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::QueueFull`] when the bounded queue is at
    /// capacity (the request is rejected, not enqueued),
    /// [`ServeError::Shutdown`] after [`BatchEngine::shutdown`], and
    /// [`ServeError::InvalidInput`] on a shape mismatch.
    pub fn submit(
        &self,
        image: ibrar_tensor::Tensor,
        budget: Option<Duration>,
    ) -> Result<PendingResponse> {
        self.submit_traced(image, budget, None)
    }

    /// [`BatchEngine::submit`] carrying a request [`TraceId`]: the id labels
    /// the request's JSONL trace event so a slow request can be grepped
    /// straight to its per-stage breakdown.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchEngine::submit`].
    pub fn submit_traced(
        &self,
        image: ibrar_tensor::Tensor,
        budget: Option<Duration>,
        trace: Option<TraceId>,
    ) -> Result<PendingResponse> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::Shutdown);
        }
        let expect = self.model.input_shape();
        if image.shape() != expect {
            return Err(ServeError::InvalidInput(format!(
                "image shape {:?} does not match model input {:?}",
                image.shape(),
                expect
            )));
        }
        // An already-expired budget can never be met: reject at submit
        // instead of letting the request burn a queue slot only to be
        // expired by the dispatch-time check anyway. (`Duration::ZERO`
        // is the degenerate case; no clock read needed to see it.)
        if budget.is_some_and(|b| b.is_zero()) {
            tel::counter("serve.rejected.deadline", 1);
            return Err(ServeError::DeadlineExceeded);
        }
        let now = Instant::now();
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = Job {
            image,
            deadline: budget.map(|b| now + b),
            enqueued: now,
            dequeued: now,
            trace,
            reply: Reply {
                tx: reply_tx,
                // Minted before try_send; a rejected job drops the token on
                // the error path so the count never includes unaccepted work.
                inflight: InflightToken::mint(&self.inflight),
            },
        };
        // Count before sending: once the job is visible to a worker its
        // increment must already be, or the counter underflows.
        let depth = self.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
        match self.submit_tx.try_send(job) {
            Ok(()) => {
                tel::counter("serve.requests", 1);
                tel::gauge("serve.queue_depth", depth as f64);
                Ok(PendingResponse { rx: reply_rx })
            }
            Err(e) => {
                self.queue_depth.fetch_sub(1, Ordering::SeqCst);
                match e {
                    TrySendError::Full(_) => {
                        tel::counter("serve.rejected.queue_full", 1);
                        Err(ServeError::QueueFull)
                    }
                    TrySendError::Disconnected(_) => Err(ServeError::Shutdown),
                }
            }
        }
    }

    /// Convenience: [`BatchEngine::submit`] + wait + argmax.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchEngine::submit`] and
    /// [`PendingResponse::wait`].
    pub fn classify(
        &self,
        image: ibrar_tensor::Tensor,
        budget: Option<Duration>,
    ) -> Result<Classification> {
        let logits = self.submit(image, budget)?.wait()?;
        Ok(Classification {
            label: argmax(logits.data()),
            logits: logits.data().to_vec(),
        })
    }

    /// Stops the workers, failing queued requests with
    /// [`ServeError::Shutdown`]. Idempotent; blocks until threads join.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.gate.set(false);
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for BatchEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: take the first queued job, then whatever is already queued
/// behind it up to `max_batch`, and run them as one batch at once.
fn worker_loop(
    model: Arc<dyn ImageModel>,
    queue: Arc<Mutex<Receiver<Job>>>,
    depth: Arc<AtomicUsize>,
    gate: Arc<Gate>,
    shutdown: Arc<AtomicBool>,
    max_batch: usize,
) {
    let dequeue = |mut job: Job| -> Job {
        let d = depth.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
        tel::gauge("serve.queue_depth", d as f64);
        job.dequeued = Instant::now();
        job
    };
    loop {
        // Hold the receiver from the first dequeue through the drain; the
        // forward runs unlocked, so the next free worker takes the queue.
        let rx = queue.lock();
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let first = match rx.recv_timeout(TICK) {
            Ok(job) => dequeue(job),
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // Test hook: hold here, receiver and all, so tests can fill the
        // queue deterministically.
        gate.wait_open();
        if shutdown.load(Ordering::SeqCst) {
            first.reply.send(Err(ServeError::Shutdown));
            break;
        }
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(job) => batch.push(dequeue(job)),
                Err(_) => break,
            }
        }
        drop(rx);
        tel::counter("serve.batches", 1);
        tel::observe("serve.batch_size", batch.len() as f64);
        run_batch(model.as_ref(), batch);
    }
    // Fail anything still queued so no caller hangs.
    let rx = queue.lock();
    while let Ok(job) = rx.try_recv() {
        dequeue(job).reply.send(Err(ServeError::Shutdown));
    }
}

fn run_batch(model: &dyn ImageModel, batch: Vec<Job>) {
    let _s = tel::span!("serve.batch");
    let now = Instant::now();
    // Deadline check at dispatch time: a stale answer helps nobody.
    let mut live = Vec::with_capacity(batch.len());
    for job in batch {
        if job.deadline.is_some_and(|d| d < now) {
            tel::counter("serve.rejected.deadline", 1);
            job.reply.send(Err(ServeError::DeadlineExceeded));
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }

    // Stack straight from the job-owned tensors — no per-image clone; the
    // batch buffer itself comes from the scratch pool.
    let images: Vec<&ibrar_tensor::Tensor> = live.iter().map(|j| &j.image).collect();
    let fwd_start = Instant::now();
    let result = ibrar_tensor::Tensor::stack_refs(&images)
        .map_err(ServeError::from)
        .and_then(|x| forward_eval(model, &x));
    let forward_ms = fwd_start.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(logits) => {
            // Every row's answer goes out before any per-request
            // bookkeeping, so telemetry never delays a caller.
            let mut answered = Vec::with_capacity(live.len());
            for (i, job) in live.into_iter().enumerate() {
                let timings = StageTimings {
                    queue_ms: (job.dequeued - job.enqueued).as_secs_f64() * 1e3,
                    batch_ms: (now - job.dequeued).as_secs_f64().max(0.0) * 1e3,
                    forward_ms,
                };
                let row = logits.row(i).map_err(ServeError::from);
                job.reply.send(row.map(|r| (r, timings)));
                answered.push((job.enqueued, job.trace, timings));
            }
            if tel::enabled() {
                for (enqueued, trace, timings) in answered {
                    record_request(enqueued, trace, &timings);
                }
            }
        }
        Err(e) => {
            tel::counter("serve.batch_errors", 1);
            for job in live {
                job.reply.send(Err(e.clone()));
            }
        }
    }
}

/// One answered request's telemetry: the stage histograms,
/// `serve.request_ms`, and the trace event when the request carries an id.
fn record_request(enqueued: Instant, trace: Option<TraceId>, t: &StageTimings) {
    tel::observe("serve.stage.queue_ms", t.queue_ms);
    tel::observe("serve.stage.batch_ms", t.batch_ms);
    tel::observe("serve.stage.forward_ms", t.forward_ms);
    tel::observe("serve.request_ms", enqueued.elapsed().as_secs_f64() * 1e3);
    if let Some(trace) = trace {
        tel::event(
            tel::Level::Debug,
            "serve.request",
            &[
                ("trace", trace.to_string().into()),
                ("queue_ms", t.queue_ms.into()),
                ("batch_ms", t.batch_ms.into()),
                ("forward_ms", t.forward_ms.into()),
            ],
        );
    }
}

/// First index of the maximum element (ties break low, matching
/// `Tensor::argmax_rows`).
pub(crate) fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

fn forward_eval(model: &dyn ImageModel, x: &ibrar_tensor::Tensor) -> Result<ibrar_tensor::Tensor> {
    let tape = ibrar_autograd::Tape::new();
    let sess = Session::new(&tape);
    let xv = tape.leaf(x.clone());
    let out = model.forward(&sess, xv, Mode::Eval)?;
    Ok(out.logits.value())
}
