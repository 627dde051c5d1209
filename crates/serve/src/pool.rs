//! Replica fleet: N [`BatchEngine`]s for one model behind one submit path.
//!
//! A [`ReplicaPool`] is built once around one model `Arc`: N replicas, each
//! with its own bounded queue and workers. Every request tries the replicas
//! in least-outstanding order (queued *and* dispatched requests; ties break
//! to the lowest replica id), and two fleet behaviors layer on top of the
//! single-engine guarantees:
//!
//! * **Failover.** A replica whose queue is full rejects with
//!   [`ServeError::QueueFull`] and the request moves on to the next
//!   candidate (`serve.pool.failover`); only when every replica rejects
//!   does the caller see `QueueFull`.
//! * **Admission control.** An optional fleet-wide in-flight cap sheds
//!   load with the same typed [`ServeError::QueueFull`] before any replica
//!   queue is touched (`serve.pool.shed`).
//!
//! Determinism: every replica serves the same model `Arc`, every forward
//! runs in `Mode::Eval` on a fresh tape, and the single-engine
//! batching-identity guarantee (row `i` of a batch ≡ single forward of
//! image `i`) is replica-independent — so a request's logits are bitwise
//! identical whichever replica serves it. `tests/fleet_determinism.rs`
//! pins this at replicas {1, 2, 4} × thread counts.

use crate::engine::{BatchEngine, EngineConfig, PendingResponse};
use crate::trace::TraceId;
use crate::{Result, ServeError};
use ibrar_nn::ImageModel;
use ibrar_telemetry as tel;
use std::sync::Arc;
use std::time::Duration;

/// Replica-selection policy for a [`ReplicaPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Try replicas in ascending outstanding-request order, ties to the
    /// lowest id, failing over past a full replica.
    LeastQueueDepth,
}

/// Tuning knobs for a [`ReplicaPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Replica count.
    pub replicas: usize,
    /// Per-replica engine configuration (each replica gets its own queue
    /// and workers at these sizes).
    pub engine: EngineConfig,
    /// Dispatch policy; see [`DispatchPolicy`].
    pub policy: DispatchPolicy,
    /// Fleet-wide in-flight cap: submissions beyond this shed with
    /// [`ServeError::QueueFull`] before touching a replica queue. `None`
    /// leaves per-replica queue bounds as the only backpressure.
    pub max_in_flight: Option<usize>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            replicas: 1,
            engine: EngineConfig::default(),
            policy: DispatchPolicy::LeastQueueDepth,
            max_in_flight: None,
        }
    }
}

impl PoolConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidInput`] when `replicas` or
    /// `max_in_flight` is zero, or the engine config is invalid.
    pub fn validate(&self) -> Result<()> {
        if self.replicas == 0 {
            return Err(ServeError::InvalidInput("replicas must be positive".into()));
        }
        if self.max_in_flight == Some(0) {
            return Err(ServeError::InvalidInput(
                "max_in_flight must be positive when set".into(),
            ));
        }
        self.engine.validate()
    }
}

/// Replica indices in dispatch order: ascending load, ties to the lowest
/// index. `loads[i]` is replica `i`'s outstanding-request count.
fn least_loaded_first(loads: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by_key(|&i| (loads[i], i));
    order
}

/// A least-depth fleet of [`BatchEngine`] replicas serving one model.
pub struct ReplicaPool {
    config: PoolConfig,
    /// Replica `i` is `engines[i]`.
    engines: Vec<Arc<BatchEngine>>,
}

impl ReplicaPool {
    /// Spawns `config.replicas` engines around `model`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidInput`] on a bad config and propagates
    /// engine spawn failures.
    pub fn new(model: Arc<dyn ImageModel>, config: PoolConfig) -> Result<Self> {
        config.validate()?;
        let engines = (0..config.replicas)
            .map(|_| BatchEngine::new(Arc::clone(&model), config.engine.clone()).map(Arc::new))
            .collect::<Result<Vec<_>>>()?;
        Ok(ReplicaPool { config, engines })
    }

    /// The replica engines, indexed by replica id (tests use their pause
    /// gates).
    pub fn engines(&self) -> &[Arc<BatchEngine>] {
        &self.engines
    }

    /// Fleet-wide queued (not yet batched) request count.
    pub fn queue_depth(&self) -> usize {
        self.engines.iter().map(|e| e.queue_depth()).sum()
    }

    /// Each replica's live `(queue depth, in flight)` counts, by replica
    /// id — what the `serve.replica.r<N>.*` gauges publish when metrics
    /// are read.
    pub fn replica_loads(&self) -> Vec<(usize, usize)> {
        self.engines
            .iter()
            .map(|e| (e.queue_depth(), e.in_flight()))
            .collect()
    }

    /// Routes one `[c, h, w]` image to a replica; see
    /// [`BatchEngine::submit`] for the single-engine semantics.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when the fleet cap or every replica
    /// rejects, plus the per-engine submit errors.
    pub fn submit(
        &self,
        image: ibrar_tensor::Tensor,
        budget: Option<Duration>,
    ) -> Result<PendingResponse> {
        self.submit_traced(image, budget, None)
    }

    /// [`ReplicaPool::submit`] carrying the request [`TraceId`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReplicaPool::submit`].
    pub fn submit_traced(
        &self,
        image: ibrar_tensor::Tensor,
        budget: Option<Duration>,
        trace: Option<TraceId>,
    ) -> Result<PendingResponse> {
        let loads: Vec<usize> = self.engines.iter().map(|e| e.in_flight()).collect();
        if let Some(cap) = self.config.max_in_flight {
            if loads.iter().sum::<usize>() >= cap {
                tel::counter("serve.pool.shed", 1);
                return Err(ServeError::QueueFull);
            }
        }

        let order = least_loaded_first(&loads);
        let mut image = Some(image);
        for (attempt, &id) in order.iter().enumerate() {
            // Failover needs the tensor back on rejection, but submit
            // consumes it — clone only when another candidate remains.
            let payload = if attempt + 1 < order.len() {
                image.clone()
            } else {
                image.take()
            }
            .expect("payload present until consumed");
            match self.engines[id].submit_traced(payload, budget, trace) {
                Ok(pending) => {
                    tel::counter(&format!("serve.pool.dispatch.r{id}"), 1);
                    if attempt > 0 {
                        tel::counter("serve.pool.failover", 1);
                    }
                    return Ok(pending);
                }
                // Replica-local backpressure: the next candidate may accept.
                Err(ServeError::QueueFull) => {}
                // Request-shaped errors and shutdown fail everywhere.
                Err(e) => return Err(e),
            }
        }
        tel::counter("serve.pool.shed", 1);
        Err(ServeError::QueueFull)
    }

    /// Stops every replica, failing queued requests with
    /// [`ServeError::Shutdown`]. Idempotent.
    pub fn shutdown(&self) {
        for engine in &self.engines {
            engine.shutdown();
        }
    }
}

impl Drop for ReplicaPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ReplicaPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaPool")
            .field("replicas", &self.config.replicas)
            .field("policy", &self.config.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_depth_orders_by_load_with_low_id_ties() {
        assert_eq!(least_loaded_first(&[3, 0, 2, 0]), vec![1, 3, 2, 0]);
        assert_eq!(least_loaded_first(&[0, 0, 0, 0]), vec![0, 1, 2, 3]);
    }
}
