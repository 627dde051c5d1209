//! Fleet dispatch must be invisible in the bits: the same request batch
//! routed through 1/2/4 replicas, at either kernel thread count, yields
//! `to_bits`-identical logits to a single-engine forward on the caller's
//! thread. A replica is a placement decision, never a numerical one.
//!
//! The placement itself is pinned too, deterministically via the engine
//! pause gates (no sleep-based synchronization): least-depth dispatch
//! spreads captive load evenly, and the fleet-wide in-flight cap sheds
//! with a typed `QueueFull` before any replica queue fills.

use ibrar_nn::{ImageModel, Mode, Session, VggConfig, VggMini};
use ibrar_serve::{EngineConfig, PoolConfig, ReplicaPool, ServeError, TraceId};
use ibrar_tensor::{parallel, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const IMAGES: usize = 8;

fn model() -> Arc<dyn ImageModel> {
    let mut rng = StdRng::seed_from_u64(7);
    Arc::new(VggMini::new(VggConfig::tiny(10), &mut rng).unwrap())
}

fn image(i: usize) -> Tensor {
    Tensor::from_fn(&[3, 16, 16], |idx| {
        ((idx[0] * 31 + idx[1] * 7 + idx[2] * 3 + i * 13) % 17) as f32 / 17.0
    })
}

/// Deterministic per-image trace id.
fn trace(i: usize) -> TraceId {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&(0x5EED_0000u64 + i as u64).to_le_bytes());
    bytes[8..].copy_from_slice(&(!(i as u64)).to_le_bytes());
    TraceId::from_bytes(bytes)
}

/// Reference: single-image forward on the caller's thread, as bits.
fn single_forward(model: &dyn ImageModel, img: &Tensor) -> Vec<u32> {
    let tape = ibrar_autograd::Tape::new();
    let sess = Session::new(&tape);
    let x = tape.leaf(Tensor::stack(std::slice::from_ref(img)).unwrap());
    let out = model.forward(&sess, x, Mode::Eval).unwrap();
    out.logits
        .value()
        .row(0)
        .unwrap()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn fleet_logits_are_bitwise_identical_to_single_engine_forward() {
    let model = model();

    // The reference is computed single-threaded; the fleet must match it
    // bit for bit even when kernels run on 4 threads.
    let reference: Vec<Vec<u32>> = {
        let _one = parallel::with_threads(1);
        (0..IMAGES)
            .map(|i| single_forward(model.as_ref(), &image(i)))
            .collect()
    };

    for &threads in &[1usize, 4] {
        let _guard = parallel::with_threads(threads);
        for &replicas in &[1usize, 2, 4] {
            let pool = ReplicaPool::new(
                Arc::clone(&model),
                PoolConfig {
                    replicas,
                    engine: EngineConfig {
                        max_batch: 4,
                        workers: 2,
                        ..EngineConfig::default()
                    },
                    ..PoolConfig::default()
                },
            )
            .unwrap();

            // Submit the whole wave before waiting so requests spread
            // across replicas, and those that queue while a forward runs
            // share the next batch.
            let pending: Vec<_> = (0..IMAGES)
                .map(|i| pool.submit_traced(image(i), None, Some(trace(i))).unwrap())
                .collect();
            for (i, p) in pending.into_iter().enumerate() {
                let row = p.wait().unwrap();
                let got: Vec<u32> = row.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    got, reference[i],
                    "bits diverged: image {i}, replicas={replicas}, threads={threads}"
                );
            }
            pool.shutdown();
        }
    }
}

fn two_replicas(max_in_flight: Option<usize>) -> ReplicaPool {
    ReplicaPool::new(
        model(),
        PoolConfig {
            replicas: 2,
            engine: EngineConfig {
                max_batch: 4,
                queue_capacity: 16,
                ..EngineConfig::default()
            },
            max_in_flight,
            ..PoolConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn least_depth_spreads_captive_load_evenly() {
    let pool = two_replicas(None);
    let gates: Vec<_> = pool.engines().iter().map(|e| e.pause()).collect();

    // Six captive requests spread 3/3 (loads tick up as we submit).
    let pending: Vec<_> = (0..6)
        .map(|i| pool.submit(image(i), None).unwrap())
        .collect();
    assert_eq!(pool.engines()[0].in_flight(), 3);
    assert_eq!(pool.engines()[1].in_flight(), 3);

    // Nothing accepted is dropped once the gates open.
    drop(gates);
    for p in pending {
        p.wait().unwrap();
    }
    pool.shutdown();
}

#[test]
fn fleet_cap_sheds_with_typed_queue_full() {
    let pool = two_replicas(Some(3));
    let gates: Vec<_> = pool.engines().iter().map(|e| e.pause()).collect();

    let pending: Vec<_> = (0..3)
        .map(|i| pool.submit(image(i), None).unwrap())
        .collect();
    // Admission control trips before any replica queue does.
    assert!(matches!(
        pool.submit(image(9), None),
        Err(ServeError::QueueFull)
    ));
    drop(gates);
    for p in pending {
        p.wait().unwrap();
    }
    pool.shutdown();
}
