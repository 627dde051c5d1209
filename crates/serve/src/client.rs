//! Blocking TCP client for the serving protocol.
//!
//! One [`Client`] wraps one connection and issues strictly sequential
//! request/response exchanges. Typed server-side rejections come back as
//! the same [`ServeError`] variants the engine produces locally:
//! [`ServeError::QueueFull`] and [`ServeError::DeadlineExceeded`] survive
//! the wire, so retry logic is identical for in-process and remote callers.

use crate::protocol::{
    decode_response, encode_request_traced, error_for, opcode_for, read_frame, write_frame,
    MetricsFormat, ProbeReport, ProbeSpec, Request, Response,
};
use crate::trace::TraceId;
use crate::{Result, ServeError};
use ibrar_tensor::Tensor;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Server liveness summary returned by [`Client::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Number of per-model engines created so far.
    pub engines: u32,
    /// Requests waiting in engine queues, summed over all engines.
    pub queue_depth: u64,
}

/// A blocking connection to a serve endpoint.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Applies a read timeout to all subsequent calls (`None` blocks
    /// forever, the default).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the socket rejects the option.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Liveness round-trip.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] / [`ServeError::Protocol`] on transport
    /// failures.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Classifies one `[c, h, w]` image; returns the argmax label.
    ///
    /// `deadline_ms == 0` means no deadline.
    ///
    /// # Errors
    ///
    /// Returns the server's typed rejection ([`ServeError::QueueFull`],
    /// [`ServeError::DeadlineExceeded`], [`ServeError::UnknownModel`], …)
    /// or a transport error.
    pub fn classify(&mut self, model: &str, image: &Tensor, deadline_ms: u64) -> Result<u32> {
        let req = Request::Classify {
            model: model.to_string(),
            deadline_ms,
            image: image.clone(),
            with_logits: false,
        };
        match self.call(&req)? {
            Response::Classified { label, .. } => Ok(label),
            other => Err(unexpected(&other)),
        }
    }

    /// Like [`Client::classify`], sending a request [`TraceId`] on the v2
    /// wire format (minting one when `trace` is `None`) and returning it
    /// alongside the label. The id labels the request's server-side trace
    /// events and flight-recorder entry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::classify`].
    pub fn classify_traced(
        &mut self,
        model: &str,
        image: &Tensor,
        deadline_ms: u64,
        trace: Option<TraceId>,
    ) -> Result<(u32, TraceId)> {
        let trace = trace.unwrap_or_else(TraceId::generate);
        let req = Request::Classify {
            model: model.to_string(),
            deadline_ms,
            image: image.clone(),
            with_logits: false,
        };
        match self.call_traced(&req, Some(&trace))? {
            Response::Classified { label, .. } => Ok((label, trace)),
            other => Err(unexpected(&other)),
        }
    }

    /// Server liveness summary: uptime, engine count, aggregate queue depth.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Unsupported`] against pre-v2 servers, or a
    /// transport error.
    pub fn health(&mut self) -> Result<HealthReport> {
        match self.call(&Request::Health)? {
            Response::Healthy {
                uptime_ms,
                engines,
                queue_depth,
            } => Ok(HealthReport {
                uptime_ms,
                engines,
                queue_depth,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the server's metrics in the requested format: Prometheus
    /// text exposition, a JSON telemetry snapshot, or the flight-recorder
    /// dump.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Unsupported`] against pre-v2 servers, or a
    /// transport error.
    pub fn metrics(&mut self, format: MetricsFormat) -> Result<String> {
        match self.call(&Request::Metrics { format })? {
            Response::Metrics(payload) => Ok(payload),
            other => Err(unexpected(&other)),
        }
    }

    /// Like [`Client::classify`], also returning the raw logits row.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::classify`].
    pub fn classify_with_logits(
        &mut self,
        model: &str,
        image: &Tensor,
        deadline_ms: u64,
    ) -> Result<(u32, Vec<f32>)> {
        let req = Request::Classify {
            model: model.to_string(),
            deadline_ms,
            image: image.clone(),
            with_logits: true,
        };
        match self.call(&req)? {
            Response::Classified {
                label,
                logits: Some(row),
            } => Ok((label, row)),
            other => Err(unexpected(&other)),
        }
    }

    /// Runs a server-side robustness probe on one labeled image.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::classify`], plus attack failures
    /// surfaced as [`ServeError::Io`] with the server's message.
    pub fn robustness_probe(
        &mut self,
        model: &str,
        image: &Tensor,
        label: u32,
        spec: ProbeSpec,
    ) -> Result<ProbeReport> {
        let req = Request::RobustnessProbe {
            model: model.to_string(),
            label,
            spec,
            image: image.clone(),
        };
        match self.call(&req)? {
            Response::Probed(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }

    fn call(&mut self, req: &Request) -> Result<Response> {
        self.call_traced(req, None)
    }

    fn call_traced(&mut self, req: &Request, trace: Option<&TraceId>) -> Result<Response> {
        let op = opcode_for(req);
        write_frame(&mut self.stream, &encode_request_traced(req, trace))?;
        let body = read_frame(&mut self.stream)?
            .ok_or_else(|| ServeError::Io("server closed the connection".into()))?;
        match decode_response(op, body)? {
            Response::Error(status, message) => Err(error_for(status, message)),
            ok => Ok(ok),
        }
    }
}

fn unexpected(resp: &Response) -> ServeError {
    ServeError::Protocol(format!("unexpected response variant: {resp:?}"))
}
