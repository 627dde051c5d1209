//! Length-prefixed binary protocol over TCP.
//!
//! Every message — request or response — is one frame, sent in one write
//! ([`write_frame`]):
//!
//! ```text
//! u32 le body length | body
//! ```
//!
//! A request body is `u8 opcode` ([`Opcode`]: ping, two classify forms,
//! robustness probe, health, metrics) followed by opcode-specific fields;
//! a response body is `u8 status` ([`Status`]) followed by status-specific
//! fields (an error message for non-OK statuses). Tensors travel in the
//! workspace `IBT1` encoding ([`ibrar_tensor::Tensor::encode`]); strings are
//! `u32 le length + utf8`. The protocol is strictly request/response per
//! connection — no pipelining — which keeps the blocking client trivial.
//!
//! # Version 2: wire-propagated trace ids
//!
//! The high bit of the opcode byte ([`TRACE_FLAG`]) marks a v2 frame: the
//! opcode byte is followed by a 16-byte [`TraceId`] before the normal
//! fields. v1 frames (high bit clear) decode unchanged, and v1 servers
//! never see the flag from v1 clients, so the bump is fully backward
//! compatible. Requests without an id are assigned one at server ingress;
//! either way the id labels the request's trace events and its
//! flight-recorder entry.
//!
//! Load-shedding conditions keep their types across the wire:
//! [`ServeError::QueueFull`] and [`ServeError::DeadlineExceeded`] map to
//! dedicated status codes so clients can implement retry/backoff without
//! string matching. An opcode the server does not recognize comes back as
//! [`Status::UnsupportedOpcode`] — a typed response on a live connection,
//! not a dropped socket — so newer clients can probe for optional
//! endpoints (Health, Metrics) and fall back gracefully.

use crate::trace::TraceId;

use crate::{Classification, Result, ServeError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ibrar_tensor::Tensor;
use std::io::{Read, Write};

/// Largest accepted frame body (64 MiB): a corrupt length prefix must not
/// trigger a giant allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Largest PGD step count a robustness probe may request. A probe runs on
/// its connection's thread with no deadline, so an unbounded count would
/// leave that connection unanswered.
pub const MAX_PROBE_STEPS: u32 = 1000;

/// High bit of the opcode byte: a 16-byte [`TraceId`] follows the opcode
/// (protocol v2). Frames without the flag are unchanged v1 frames.
pub const TRACE_FLAG: u8 = 0x80;

/// Request opcodes (the low 7 bits of the opcode byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness check; empty body, empty OK response.
    Ping = 0,
    /// Classify one image; responds with the argmax label.
    Classify = 1,
    /// Classify one image; responds with the label and the logits row.
    ClassifyLogits = 2,
    /// Run a white-box attack on one labeled image and report clean vs
    /// adversarial predictions.
    RobustnessProbe = 3,
    /// Liveness + readiness: uptime, loaded-engine count, queue depth.
    Health = 4,
    /// Observability scrape: Prometheus text, JSON snapshot, or a flight-
    /// recorder dump, selected by a format byte.
    Metrics = 5,
}

impl Opcode {
    fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(Opcode::Ping),
            1 => Ok(Opcode::Classify),
            2 => Ok(Opcode::ClassifyLogits),
            3 => Ok(Opcode::RobustnessProbe),
            4 => Ok(Opcode::Health),
            5 => Ok(Opcode::Metrics),
            other => Err(ServeError::Unsupported(format!("unknown opcode {other}"))),
        }
    }
}

/// Payload selector carried by a Metrics request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MetricsFormat {
    /// Prometheus text exposition of the full metric snapshot.
    Prometheus = 0,
    /// JSON serialization of the full metric snapshot
    /// (see [`ibrar_telemetry::Snapshot::to_json`]).
    Json = 1,
    /// JSON dump of the flight recorder (recent + SLO-breaching requests).
    Flight = 2,
}

impl MetricsFormat {
    fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(MetricsFormat::Prometheus),
            1 => Ok(MetricsFormat::Json),
            2 => Ok(MetricsFormat::Flight),
            other => Err(ServeError::Unsupported(format!(
                "unknown metrics format {other}"
            ))),
        }
    }
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success; body is opcode-specific.
    Ok = 0,
    /// Typed backpressure: the request queue was full.
    QueueFull = 1,
    /// Typed expiry: the deadline passed before dispatch.
    DeadlineExceeded = 2,
    /// The named model is not registered.
    UnknownModel = 3,
    /// Malformed request (bad frame, bad field, bad tensor shape).
    BadRequest = 4,
    /// Server-side failure (forward error, checkpoint error, shutdown).
    Internal = 5,
    /// The opcode (or a sub-selector like the metrics format) is not
    /// supported by this server. The connection stays open.
    UnsupportedOpcode = 6,
}

impl Status {
    fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(Status::Ok),
            1 => Ok(Status::QueueFull),
            2 => Ok(Status::DeadlineExceeded),
            3 => Ok(Status::UnknownModel),
            4 => Ok(Status::BadRequest),
            5 => Ok(Status::Internal),
            6 => Ok(Status::UnsupportedOpcode),
            other => Err(ServeError::Protocol(format!("unknown status {other}"))),
        }
    }
}

/// Maps a server-side error to its wire status.
pub fn status_for(err: &ServeError) -> Status {
    match err {
        ServeError::QueueFull => Status::QueueFull,
        ServeError::DeadlineExceeded => Status::DeadlineExceeded,
        ServeError::UnknownModel(_) => Status::UnknownModel,
        ServeError::Unsupported(_) => Status::UnsupportedOpcode,
        ServeError::Protocol(_) | ServeError::InvalidInput(_) | ServeError::Tensor(_) => {
            Status::BadRequest
        }
        _ => Status::Internal,
    }
}

/// Reconstructs the typed error for a non-OK status on the client side.
pub fn error_for(status: Status, message: String) -> ServeError {
    match status {
        Status::Ok => ServeError::Protocol("error_for called with Status::Ok".into()),
        Status::QueueFull => ServeError::QueueFull,
        Status::DeadlineExceeded => ServeError::DeadlineExceeded,
        Status::UnknownModel => ServeError::UnknownModel(message),
        Status::BadRequest => ServeError::InvalidInput(message),
        Status::Internal => ServeError::Io(message),
        Status::UnsupportedOpcode => ServeError::Unsupported(message),
    }
}

/// Which attack a [`ProbeSpec`] runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackKind {
    /// Single-step FGSM at `eps`.
    Fgsm,
    /// PGD without random start: deterministic, `steps` iterations of
    /// `alpha` projected onto the `eps` ball.
    Pgd,
}

/// Attack configuration carried by a robustness-probe request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSpec {
    /// Attack family.
    pub kind: AttackKind,
    /// L∞ budget.
    pub eps: f32,
    /// PGD step size (ignored for FGSM).
    pub alpha: f32,
    /// PGD iteration count (ignored for FGSM).
    pub steps: u32,
}

impl ProbeSpec {
    /// The paper's default FGSM budget (ε = 8/255).
    pub fn fgsm_default() -> Self {
        ProbeSpec {
            kind: AttackKind::Fgsm,
            eps: ibrar_attacks::DEFAULT_EPS,
            alpha: 0.0,
            steps: 0,
        }
    }

    /// The paper's default PGD budget (ε = 8/255, α = 2/255, 10 steps).
    pub fn pgd_default() -> Self {
        ProbeSpec {
            kind: AttackKind::Pgd,
            eps: ibrar_attacks::DEFAULT_EPS,
            alpha: ibrar_attacks::DEFAULT_ALPHA,
            steps: ibrar_attacks::DEFAULT_STEPS as u32,
        }
    }
}

/// Rejects a probe budget the attack cannot honour: a step count above
/// [`MAX_PROBE_STEPS`], or an `eps`/`alpha` that is negative or not finite
/// (a NaN `eps` would make PGD's ε-ball projection a silent no-op).
fn check_probe_spec(spec: &ProbeSpec) -> Result<()> {
    if spec.steps > MAX_PROBE_STEPS {
        return Err(ServeError::Protocol(format!(
            "probe steps {} exceed max {MAX_PROBE_STEPS}",
            spec.steps
        )));
    }
    for (name, value) in [("eps", spec.eps), ("alpha", spec.alpha)] {
        if !(value.is_finite() && value >= 0.0) {
            return Err(ServeError::Protocol(format!(
                "probe {name} must be finite and non-negative, got {value}"
            )));
        }
    }
    Ok(())
}

/// Result of a robustness probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeReport {
    /// Model prediction on the clean image.
    pub clean_pred: u32,
    /// Model prediction on the adversarial image.
    pub adv_pred: u32,
    /// Whether the clean prediction matched the supplied label.
    pub clean_correct: bool,
    /// Whether the adversarial prediction matched the supplied label.
    pub adv_correct: bool,
}

/// A decoded request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Classify `image` with `model`, optionally bounded by `deadline_ms`.
    Classify {
        /// Registry name of the target model.
        model: String,
        /// Milliseconds of deadline budget; `0` means none.
        deadline_ms: u64,
        /// `[c, h, w]` image.
        image: Tensor,
        /// Whether to include the logits row in the response.
        with_logits: bool,
    },
    /// Attack `image` (true label `label`) on `model` per `spec`.
    RobustnessProbe {
        /// Registry name of the target model.
        model: String,
        /// Ground-truth class of `image`.
        label: u32,
        /// Attack configuration.
        spec: ProbeSpec,
        /// `[c, h, w]` image.
        image: Tensor,
    },
    /// Liveness + readiness check.
    Health,
    /// Observability scrape in the requested format.
    Metrics {
        /// Which payload to return.
        format: MetricsFormat,
    },
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Empty success (ping).
    Pong,
    /// Classification success. `logits` is present iff the request asked.
    Classified {
        /// Argmax class index.
        label: u32,
        /// Logits row, when requested.
        logits: Option<Vec<f32>>,
    },
    /// Robustness probe success.
    Probed(ProbeReport),
    /// Health success.
    Healthy {
        /// Milliseconds since the server started.
        uptime_ms: u64,
        /// Number of lazily instantiated engines.
        engines: u32,
        /// Total jobs currently queued across engines.
        queue_depth: u64,
    },
    /// Metrics success: the payload text in the requested format.
    Metrics(String),
    /// Any non-OK status with its human-readable message.
    Error(Status, String),
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes, what: &str) -> Result<String> {
    if buf.remaining() < 4 {
        return Err(ServeError::Protocol(format!("truncated {what} length")));
    }
    let len = buf.get_u32_le() as usize;
    if len > MAX_FRAME {
        return Err(ServeError::Protocol(format!(
            "implausible {what} length {len}"
        )));
    }
    if buf.remaining() < len {
        return Err(ServeError::Protocol(format!("truncated {what}")));
    }
    let mut raw = vec![0u8; len];
    buf.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|_| ServeError::Protocol(format!("{what} is not utf-8")))
}

fn get_tensor(buf: &mut Bytes) -> Result<Tensor> {
    Tensor::decode(buf).map_err(|e| ServeError::Protocol(format!("bad tensor: {e}")))
}

/// The opcode a request encodes to.
pub fn opcode_for(req: &Request) -> Opcode {
    match req {
        Request::Ping => Opcode::Ping,
        Request::Classify {
            with_logits: true, ..
        } => Opcode::ClassifyLogits,
        Request::Classify { .. } => Opcode::Classify,
        Request::RobustnessProbe { .. } => Opcode::RobustnessProbe,
        Request::Health => Opcode::Health,
        Request::Metrics { .. } => Opcode::Metrics,
    }
}

/// Encodes a v1 request body (no frame prefix, no trace id).
pub fn encode_request(req: &Request) -> Bytes {
    encode_request_traced(req, None)
}

/// Encodes a request body; with a trace id the frame is v2 (the opcode
/// byte carries [`TRACE_FLAG`] and the 16 id bytes follow it).
pub fn encode_request_traced(req: &Request, trace: Option<&TraceId>) -> Bytes {
    let mut buf = BytesMut::new();
    let op = opcode_for(req) as u8;
    match trace {
        Some(id) => {
            buf.put_u8(op | TRACE_FLAG);
            buf.put_slice(id.as_bytes());
        }
        None => buf.put_u8(op),
    }
    match req {
        Request::Ping | Request::Health => {}
        Request::Classify {
            model,
            deadline_ms,
            image,
            ..
        } => {
            put_str(&mut buf, model);
            buf.put_u64_le(*deadline_ms);
            buf.put_slice(&image.encode());
        }
        Request::RobustnessProbe {
            model,
            label,
            spec,
            image,
        } => {
            put_str(&mut buf, model);
            buf.put_u32_le(*label);
            buf.put_u8(match spec.kind {
                AttackKind::Fgsm => 0,
                AttackKind::Pgd => 1,
            });
            buf.put_f32_le(spec.eps);
            buf.put_f32_le(spec.alpha);
            buf.put_u32_le(spec.steps);
            buf.put_slice(&image.encode());
        }
        Request::Metrics { format } => buf.put_u8(*format as u8),
    }
    buf.freeze()
}

/// Decodes a request body, discarding any trace id (v1 view).
///
/// # Errors
///
/// Returns [`ServeError::Unsupported`] on unknown opcodes and
/// [`ServeError::Protocol`] on malformed or trailing bytes.
pub fn decode_request(body: Bytes) -> Result<Request> {
    decode_request_traced(body).map(|(req, _)| req)
}

/// Decodes a request body together with its trace id, if the frame
/// carried one (v2).
///
/// # Errors
///
/// Returns [`ServeError::Unsupported`] on unknown opcodes and
/// [`ServeError::Protocol`] on malformed or trailing bytes.
pub fn decode_request_traced(mut body: Bytes) -> Result<(Request, Option<TraceId>)> {
    if body.remaining() < 1 {
        return Err(ServeError::Protocol("empty request body".into()));
    }
    let op_byte = body.get_u8();
    let trace = if op_byte & TRACE_FLAG != 0 {
        if body.remaining() < 16 {
            return Err(ServeError::Protocol("truncated trace id".into()));
        }
        let mut id = [0u8; 16];
        body.copy_to_slice(&mut id);
        Some(TraceId::from_bytes(id))
    } else {
        None
    };
    let op = Opcode::from_u8(op_byte & !TRACE_FLAG)?;
    let req = match op {
        Opcode::Ping => Request::Ping,
        Opcode::Classify | Opcode::ClassifyLogits => {
            let model = get_str(&mut body, "model name")?;
            if body.remaining() < 8 {
                return Err(ServeError::Protocol("truncated deadline".into()));
            }
            let deadline_ms = body.get_u64_le();
            let image = get_tensor(&mut body)?;
            Request::Classify {
                model,
                deadline_ms,
                image,
                with_logits: op == Opcode::ClassifyLogits,
            }
        }
        Opcode::RobustnessProbe => {
            let model = get_str(&mut body, "model name")?;
            if body.remaining() < 17 {
                return Err(ServeError::Protocol("truncated probe spec".into()));
            }
            let label = body.get_u32_le();
            let kind = match body.get_u8() {
                0 => AttackKind::Fgsm,
                1 => AttackKind::Pgd,
                other => {
                    return Err(ServeError::Protocol(format!("unknown attack kind {other}")));
                }
            };
            let spec = ProbeSpec {
                kind,
                eps: body.get_f32_le(),
                alpha: body.get_f32_le(),
                steps: body.get_u32_le(),
            };
            check_probe_spec(&spec)?;
            let image = get_tensor(&mut body)?;
            Request::RobustnessProbe {
                model,
                label,
                spec,
                image,
            }
        }
        Opcode::Health => Request::Health,
        Opcode::Metrics => {
            if body.remaining() < 1 {
                return Err(ServeError::Protocol("truncated metrics format".into()));
            }
            Request::Metrics {
                format: MetricsFormat::from_u8(body.get_u8())?,
            }
        }
    };
    if body.has_remaining() {
        return Err(ServeError::Protocol(format!(
            "{} trailing byte(s) after request",
            body.remaining()
        )));
    }
    Ok((req, trace))
}

/// Encodes a response body (no frame prefix).
pub fn encode_response(resp: &Response) -> Bytes {
    let mut buf = BytesMut::new();
    match resp {
        Response::Pong => buf.put_u8(Status::Ok as u8),
        Response::Classified { label, logits } => {
            buf.put_u8(Status::Ok as u8);
            buf.put_u32_le(*label);
            match logits {
                Some(row) => {
                    buf.put_u8(1);
                    buf.put_u32_le(row.len() as u32);
                    for &v in row {
                        buf.put_f32_le(v);
                    }
                }
                None => buf.put_u8(0),
            }
        }
        Response::Probed(r) => {
            buf.put_u8(Status::Ok as u8);
            buf.put_u32_le(r.clean_pred);
            buf.put_u32_le(r.adv_pred);
            buf.put_u8(u8::from(r.clean_correct));
            buf.put_u8(u8::from(r.adv_correct));
        }
        Response::Healthy {
            uptime_ms,
            engines,
            queue_depth,
        } => {
            buf.put_u8(Status::Ok as u8);
            buf.put_u64_le(*uptime_ms);
            buf.put_u32_le(*engines);
            buf.put_u64_le(*queue_depth);
        }
        Response::Metrics(payload) => {
            buf.put_u8(Status::Ok as u8);
            put_str(&mut buf, payload);
        }
        Response::Error(status, message) => {
            buf.put_u8(*status as u8);
            put_str(&mut buf, message);
        }
    }
    buf.freeze()
}

/// Decodes a response body for the given request opcode.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] on malformed bodies.
pub fn decode_response(op: Opcode, mut body: Bytes) -> Result<Response> {
    if body.remaining() < 1 {
        return Err(ServeError::Protocol("empty response body".into()));
    }
    let status = Status::from_u8(body.get_u8())?;
    if status != Status::Ok {
        let message = get_str(&mut body, "error message")?;
        return Ok(Response::Error(status, message));
    }
    let resp = match op {
        Opcode::Ping => Response::Pong,
        Opcode::Classify | Opcode::ClassifyLogits => {
            if body.remaining() < 5 {
                return Err(ServeError::Protocol("truncated classification".into()));
            }
            let label = body.get_u32_le();
            let logits = match body.get_u8() {
                0 => None,
                1 => {
                    if body.remaining() < 4 {
                        return Err(ServeError::Protocol("truncated logits length".into()));
                    }
                    let n = body.get_u32_le() as usize;
                    if body.remaining() < n * 4 {
                        return Err(ServeError::Protocol("truncated logits".into()));
                    }
                    Some((0..n).map(|_| body.get_f32_le()).collect())
                }
                other => {
                    return Err(ServeError::Protocol(format!("bad logits flag {other}")));
                }
            };
            Response::Classified { label, logits }
        }
        Opcode::RobustnessProbe => {
            if body.remaining() < 10 {
                return Err(ServeError::Protocol("truncated probe report".into()));
            }
            Response::Probed(ProbeReport {
                clean_pred: body.get_u32_le(),
                adv_pred: body.get_u32_le(),
                clean_correct: body.get_u8() != 0,
                adv_correct: body.get_u8() != 0,
            })
        }
        Opcode::Health => {
            if body.remaining() < 20 {
                return Err(ServeError::Protocol("truncated health report".into()));
            }
            Response::Healthy {
                uptime_ms: body.get_u64_le(),
                engines: body.get_u32_le(),
                queue_depth: body.get_u64_le(),
            }
        }
        Opcode::Metrics => Response::Metrics(get_str(&mut body, "metrics payload")?),
    };
    if body.has_remaining() {
        return Err(ServeError::Protocol(format!(
            "{} trailing byte(s) after response",
            body.remaining()
        )));
    }
    Ok(resp)
}

/// Writes one length-prefixed frame with a single `write_all`: a reply
/// split into prefix and body writes would leave the body behind Nagle's
/// algorithm until the peer acknowledged the prefix, which a peer waiting
/// for the whole reply delays.
///
/// # Errors
///
/// Returns [`ServeError::Io`] on socket failures and
/// [`ServeError::Protocol`] when `body` exceeds [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<()> {
    if body.len() > MAX_FRAME {
        return Err(ServeError::Protocol(format!(
            "frame body {} exceeds max {MAX_FRAME}",
            body.len()
        )));
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame. `Ok(None)` means the peer closed the
/// connection cleanly at a frame boundary.
///
/// # Errors
///
/// Returns [`ServeError::Io`] on socket failures and
/// [`ServeError::Protocol`] on an oversized length prefix or a mid-frame
/// close.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Bytes>> {
    let mut prefix = [0u8; 4];
    match r.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(ServeError::Protocol(format!(
            "frame length {len} exceeds max {MAX_FRAME}"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|e| ServeError::Protocol(format!("connection closed mid-frame: {e}")))?;
    Ok(Some(Bytes::from(body)))
}

/// Converts an engine [`Classification`] into a wire response.
pub fn classification_response(c: &Classification, with_logits: bool) -> Response {
    Response::Classified {
        label: c.label as u32,
        logits: with_logits.then(|| c.logits.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> Tensor {
        Tensor::from_fn(&[3, 4, 4], |i| (i[0] * 16 + i[1] * 4 + i[2]) as f32 / 48.0)
    }

    #[test]
    fn request_roundtrips() {
        let reqs = [
            Request::Ping,
            Request::Classify {
                model: "vgg".into(),
                deadline_ms: 250,
                image: image(),
                with_logits: true,
            },
            Request::RobustnessProbe {
                model: "resnet".into(),
                label: 3,
                spec: ProbeSpec::pgd_default(),
                image: image(),
            },
            Request::Health,
            Request::Metrics {
                format: MetricsFormat::Prometheus,
            },
            Request::Metrics {
                format: MetricsFormat::Flight,
            },
        ];
        for req in reqs {
            let (back, trace) = decode_request_traced(encode_request(&req)).unwrap();
            assert_eq!(format!("{req:?}"), format!("{back:?}"));
            assert_eq!(trace, None, "v1 frame must carry no trace id");
        }
    }

    #[test]
    fn v2_frames_round_trip_the_trace_id() {
        let id = TraceId::generate();
        let reqs = [
            Request::Ping,
            Request::Classify {
                model: "vgg".into(),
                deadline_ms: 100,
                image: image(),
                with_logits: false,
            },
            Request::Health,
            Request::Metrics {
                format: MetricsFormat::Json,
            },
        ];
        for req in reqs {
            let body = encode_request_traced(&req, Some(&id));
            assert_eq!(body[0] & TRACE_FLAG, TRACE_FLAG);
            let (back, trace) = decode_request_traced(body).unwrap();
            assert_eq!(format!("{req:?}"), format!("{back:?}"));
            assert_eq!(trace, Some(id));
        }
    }

    #[test]
    fn truncated_trace_id_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u8(Opcode::Ping as u8 | TRACE_FLAG);
        raw.put_slice(&[0u8; 8]); // half an id
        assert!(matches!(
            decode_request_traced(raw.freeze()),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn response_roundtrips() {
        let cases = [
            (Opcode::Ping, Response::Pong),
            (
                Opcode::Classify,
                Response::Classified {
                    label: 7,
                    logits: None,
                },
            ),
            (
                Opcode::ClassifyLogits,
                Response::Classified {
                    label: 2,
                    logits: Some(vec![0.5, -1.25, 3.0]),
                },
            ),
            (
                Opcode::RobustnessProbe,
                Response::Probed(ProbeReport {
                    clean_pred: 1,
                    adv_pred: 4,
                    clean_correct: true,
                    adv_correct: false,
                }),
            ),
            (
                Opcode::Health,
                Response::Healthy {
                    uptime_ms: 12_345,
                    engines: 2,
                    queue_depth: 7,
                },
            ),
            (
                Opcode::Metrics,
                Response::Metrics("# TYPE ibrar_serve_requests counter\n".into()),
            ),
            (
                Opcode::Classify,
                Response::Error(Status::QueueFull, "request queue full".into()),
            ),
            (
                Opcode::Metrics,
                Response::Error(Status::UnsupportedOpcode, "unknown opcode 99".into()),
            ),
        ];
        for (op, resp) in cases {
            let back = decode_response(op, encode_response(&resp)).unwrap();
            assert_eq!(resp, back);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw = BytesMut::new();
        raw.put_slice(&encode_request(&Request::Ping));
        raw.put_u8(0);
        assert!(matches!(
            decode_request(raw.freeze()),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn unknown_opcode_is_typed_unsupported() {
        // 0x48 = unknown opcode 72; 0xC8 = the same with the trace flag,
        // which must be masked off before the opcode check.
        let mut raw = BytesMut::new();
        raw.put_u8(0x48);
        assert!(matches!(
            decode_request(raw.freeze()),
            Err(ServeError::Unsupported(_))
        ));
        let mut raw = BytesMut::new();
        raw.put_u8(0xC8);
        raw.put_slice(&[0u8; 16]);
        assert!(matches!(
            decode_request(raw.freeze()),
            Err(ServeError::Unsupported(_))
        ));
        assert_eq!(
            status_for(&ServeError::Unsupported("x".into())),
            Status::UnsupportedOpcode
        );
        assert!(matches!(
            error_for(Status::UnsupportedOpcode, "unknown opcode 72".into()),
            ServeError::Unsupported(m) if m.contains("72")
        ));
    }

    /// A `Write` that accepts everything and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_makes_one_write_per_frame() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, b"hello").unwrap();
        assert_eq!(w.writes, 1, "prefix and body must leave in one write");
        write_frame(&mut w, b"").unwrap();
        assert_eq!(w.writes, 2);
        assert_eq!(w.bytes, b"\x05\0\0\0hello\0\0\0\0");
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(&read_frame(&mut cursor).unwrap().unwrap()[..], b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap().len(), 0);
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn typed_statuses_roundtrip_to_typed_errors() {
        assert_eq!(
            error_for(Status::QueueFull, String::new()),
            ServeError::QueueFull
        );
        assert_eq!(
            error_for(Status::DeadlineExceeded, String::new()),
            ServeError::DeadlineExceeded
        );
        assert_eq!(status_for(&ServeError::QueueFull), Status::QueueFull);
        assert_eq!(
            status_for(&ServeError::DeadlineExceeded),
            Status::DeadlineExceeded
        );
    }
}
