//! Batching must be invisible: row `i` of a batch is bitwise identical to
//! a single-request forward of image `i`, for every batch size, engine
//! worker count, and kernel thread count, on the f32 model and on its int8
//! snapshot. The engine's queue contract rides along: typed backpressure,
//! deadlines and shutdown, a lone request that never waits for company,
//! and an in-flight slot released before the answer.

use ibrar_nn::{ImageModel, Mode, Session, VggConfig, VggMini};
use ibrar_serve::{BatchEngine, EngineConfig, Int8Vgg, StageTimings};
use ibrar_tensor::{parallel, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn model() -> Arc<dyn ImageModel> {
    let mut rng = StdRng::seed_from_u64(7);
    Arc::new(VggMini::new(VggConfig::tiny(10), &mut rng).unwrap())
}

fn image(i: usize) -> Tensor {
    Tensor::from_fn(&[3, 16, 16], |idx| {
        ((idx[0] * 31 + idx[1] * 7 + idx[2] * 3 + i * 13) % 17) as f32 / 17.0
    })
}

/// Reference: single-image forward on the caller's thread.
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
fn batched_rows_are_bitwise_identical_to_single_requests() {
    let f32_model = model();
    let int8: Arc<dyn ImageModel> = Arc::new(Int8Vgg::from_model(f32_model.as_ref()).unwrap());
    for model in [f32_model, int8] {
        let name = model.name().to_string();

        // The reference itself must not depend on the kernel thread count.
        let reference: Vec<Vec<u32>> = {
            let _one = parallel::with_threads(1);
            (0..8)
                .map(|i| single_forward(model.as_ref(), &image(i)))
                .collect()
        };
        {
            let _four = parallel::with_threads(4);
            for (i, want) in reference.iter().enumerate() {
                assert_eq!(
                    &single_forward(model.as_ref(), &image(i)),
                    want,
                    "{name}: kernel thread count changed single-forward bits (image {i})"
                );
            }
        }

        // Engine shapes: batch sizes 1, 3, and max_batch, each under 1 and
        // 4 worker threads.
        for &workers in &[1usize, 4] {
            for &max_batch in &[1usize, 3, 8] {
                let engine = BatchEngine::new(
                    Arc::clone(&model),
                    EngineConfig {
                        max_batch,
                        workers,
                        ..EngineConfig::default()
                    },
                )
                .unwrap();

                for &n in &[1usize, 3, max_batch] {
                    // Park the worker on the wave's first request and queue
                    // the rest behind it: on release it drains them, so the
                    // first min(n, max_batch) requests form one batch.
                    let gate = engine.pause();
                    let pending: Vec<_> = (0..n)
                        .map(|i| engine.submit(image(i), None).unwrap())
                        .collect();
                    drop(gate);
                    let answers: Vec<(Tensor, StageTimings)> = pending
                        .into_iter()
                        .map(|p| p.wait_detailed().unwrap())
                        .collect();
                    for (i, (row, _)) in answers.iter().enumerate() {
                        let got: Vec<u32> = row.data().iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            got, reference[i],
                            "{name}: bits diverged: image {i}, n={n}, \
                             max_batch={max_batch}, workers={workers}"
                        );
                    }
                    // One batch shares one forward, timed once.
                    let forward = answers[0].1.forward_ms.to_bits();
                    let batch = n.min(max_batch);
                    assert!(
                        answers[..batch]
                            .iter()
                            .all(|(_, t)| t.forward_ms.to_bits() == forward),
                        "{name}: the first {batch} of {n} requests did not share one \
                         forward (max_batch={max_batch}, workers={workers})"
                    );
                }
                engine.shutdown();
            }
        }
    }
}

#[test]
fn classify_matches_argmax_of_logits() {
    let model = model();
    let engine = BatchEngine::new(Arc::clone(&model), EngineConfig::default()).unwrap();
    for i in 0..4 {
        let c = engine.classify(image(i), None).unwrap();
        let reference = single_forward(model.as_ref(), &image(i));
        let want = reference
            .iter()
            .map(|b| f32::from_bits(*b))
            .collect::<Vec<f32>>();
        let mut best = 0;
        for (j, &v) in want.iter().enumerate() {
            if v > want[best] {
                best = j;
            }
        }
        assert_eq!(c.label, best);
        assert_eq!(c.logits, want);
    }
}

#[test]
fn queue_full_is_typed_and_deterministic() {
    let engine = BatchEngine::new(
        model(),
        EngineConfig {
            max_batch: 2,
            queue_capacity: 4,
            ..EngineConfig::default()
        },
    )
    .unwrap();

    // Park the worker between its first dequeue and the drain, so the
    // queue can be filled to capacity without racing it.
    let gate = engine.pause();
    let _sacrificial = engine.submit(image(0), None).unwrap();
    let mut spins = 0;
    while engine.queue_depth() != 0 {
        std::thread::sleep(Duration::from_millis(1));
        spins += 1;
        assert!(spins < 5000, "worker never picked up the sacrificial job");
    }

    let held: Vec<_> = (0..4)
        .map(|i| engine.submit(image(i + 1), None).unwrap())
        .collect();
    assert_eq!(engine.queue_depth(), 4);
    // Capacity + 1 is rejected with the typed backpressure error...
    assert!(matches!(
        engine.submit(image(9), None),
        Err(ibrar_serve::ServeError::QueueFull)
    ));

    // ...and releasing the gate drains everything that *was* accepted.
    drop(gate);
    for p in held {
        p.wait().unwrap();
    }
    engine.shutdown();
}

#[test]
fn expired_deadlines_are_typed() {
    let engine = BatchEngine::new(
        model(),
        EngineConfig {
            max_batch: 4,
            queue_capacity: 8,
            ..EngineConfig::default()
        },
    )
    .unwrap();

    let gate = engine.pause();
    let sacrificial = engine.submit(image(0), None).unwrap();
    let mut spins = 0;
    while engine.queue_depth() != 0 {
        std::thread::sleep(Duration::from_millis(1));
        spins += 1;
        assert!(spins < 5000, "worker never picked up the sacrificial job");
    }

    // Queued behind the paused worker with a 5 ms budget.
    let doomed = engine
        .submit(image(1), Some(Duration::from_millis(5)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    drop(gate);

    sacrificial.wait().unwrap();
    assert!(matches!(
        doomed.wait(),
        Err(ibrar_serve::ServeError::DeadlineExceeded)
    ));
    engine.shutdown();
}

#[test]
fn expired_at_submit_is_rejected_without_enqueueing() {
    let engine = BatchEngine::new(model(), EngineConfig::default()).unwrap();
    // A zero budget can never be met: submit must reject synchronously with
    // the typed error instead of burning a bounded-queue slot on a request
    // dispatch would expire anyway. No sleeps — the expiry is structural.
    assert!(matches!(
        engine.submit(image(0), Some(Duration::ZERO)),
        Err(ibrar_serve::ServeError::DeadlineExceeded)
    ));
    assert_eq!(engine.queue_depth(), 0, "rejected request occupied a slot");
    // A live budget still flows through normally.
    engine
        .submit(image(1), Some(Duration::from_secs(30)))
        .unwrap()
        .wait()
        .unwrap();
    engine.shutdown();
}

#[test]
fn shutdown_fails_queued_requests_without_hanging() {
    let engine = BatchEngine::new(
        model(),
        EngineConfig {
            max_batch: 2,
            queue_capacity: 8,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let gate = engine.pause();
    let _sacrificial = engine.submit(image(0), None).unwrap();
    let held: Vec<_> = (0..3)
        .map(|i| engine.submit(image(i + 1), None).unwrap())
        .collect();
    drop(gate);
    engine.shutdown();
    for p in held {
        // Either answered before shutdown won the race, or typed Shutdown —
        // never a hang or a silent drop.
        match p.wait() {
            Ok(_) | Err(ibrar_serve::ServeError::Shutdown) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    // Submitting after shutdown is rejected immediately.
    assert!(matches!(
        engine.submit(image(5), None),
        Err(ibrar_serve::ServeError::Shutdown)
    ));
}

#[test]
fn invalid_shape_is_rejected_before_enqueue() {
    let engine = BatchEngine::new(model(), EngineConfig::default()).unwrap();
    let bad = Tensor::full(&[1, 4, 4], 0.5);
    assert!(matches!(
        engine.submit(bad, None),
        Err(ibrar_serve::ServeError::InvalidInput(_))
    ));
    assert_eq!(engine.queue_depth(), 0);
}

#[test]
fn a_lone_request_never_waits_for_company() {
    // Work conservation: an idle worker runs whatever is queued at once,
    // so the no-op `max_wait` cannot hold a lone request back.
    let engine = BatchEngine::new(
        model(),
        EngineConfig {
            max_batch: 8,
            max_wait: Duration::from_secs(10),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let (_, t) = engine
        .submit(image(0), None)
        .unwrap()
        .wait_detailed()
        .unwrap();
    assert!(
        t.batch_ms < 1000.0,
        "a lone request waited {} ms for company",
        t.batch_ms
    );
    engine.shutdown();
}

#[test]
fn an_answered_request_is_no_longer_in_flight() {
    // The worker releases a request's in-flight slot before it sends the
    // answer, so a caller holding its answer never counts as in flight.
    let engine = BatchEngine::new(model(), EngineConfig::default()).unwrap();
    for i in 0..1000 {
        engine.submit(image(i % 8), None).unwrap().wait().unwrap();
        assert_eq!(
            engine.in_flight(),
            0,
            "request {i} still in flight after its answer"
        );
    }
    engine.shutdown();
}
