//! Worker-pool scratch warmth and pool-state invariance.
//!
//! The persistent worker pool (`parallel`) keeps its threads alive across
//! jobs precisely so each worker's thread-local scratch pool (`scratch`)
//! stays warm: a buffer recycled by one job is reused by the next job that
//! lands on the same worker. These tests pin both halves of that story:
//!
//! * **Warmth** — code running *on pool worker threads* (via
//!   [`parallel::pool_broadcast`]) observes a scratch hit-rate > 0: a
//!   checkout of a size class the same thread just recycled must come from
//!   the pool, not the allocator.
//! * **Invisibility** — kernel results are `to_bits`-identical across pool
//!   states (warm, disabled, freshly cleared) *and* thread counts, with
//!   [`parallel::with_threads`] forcing the parallel path on fixtures small
//!   enough that `threads_for` would otherwise run them serially.

use ibrar_tensor::{
    avg_pool2d, im2col, max_pool2d, parallel, scratch, Conv2dSpec, Pool2dSpec, Tensor,
};

#[test]
fn worker_threads_hit_their_scratch_pools() {
    // Run entirely on pool workers: the submitting thread abstains, so the
    // stats deltas below are measured on genuine pool threads. Each closure
    // recycles a buffer and immediately checks the same size class back
    // out — nothing else runs on that worker in between, so the second
    // checkout must hit regardless of which worker serves which index.
    let deltas = parallel::pool_broadcast(2, |i| {
        let _scratch_on = scratch::with_enabled(true);
        // Distinctive length so no other op's size class interferes.
        let len = 4929 + i;
        scratch::recycle(scratch::take(len));
        let (h0, m0) = scratch::stats();
        scratch::recycle(scratch::take(len));
        let (h1, m1) = scratch::stats();
        (h1 - h0, m1 - m0)
    });
    assert_eq!(deltas.len(), 2);
    for (i, (hits, misses)) in deltas.iter().enumerate() {
        assert!(
            *hits > 0,
            "broadcast index {i}: checkout of a just-recycled size class \
             missed the worker's scratch pool (hits {hits}, misses {misses})"
        );
    }
}

#[test]
fn warmth_survives_across_jobs_on_the_same_worker() {
    // Two takes of the same distinctive class in *separate* pool jobs: the
    // first job leaves a recycled buffer behind on every participating
    // worker, and the total hit count across the second job's workers must
    // rise whenever a worker that served job 1 also serves job 2. With the
    // submitter abstaining and a single persistent pool, at least the
    // within-job hit (recycle + take inside one closure) is guaranteed.
    let len = 7321;
    let first = parallel::pool_broadcast(2, |_| {
        let _scratch_on = scratch::with_enabled(true);
        scratch::recycle(scratch::take(len));
        scratch::recycle(scratch::take(len));
        let (h, _) = scratch::stats();
        h
    });
    let second = parallel::pool_broadcast(2, |_| {
        let _scratch_on = scratch::with_enabled(true);
        scratch::recycle(scratch::take(len));
        let (h, _) = scratch::stats();
        h
    });
    let peak_after_first = first.iter().copied().max().unwrap();
    let peak_after_second = second.iter().copied().max().unwrap();
    assert!(
        peak_after_second > 0 && peak_after_first > 0,
        "persistent workers never hit their scratch pools \
         (job1 peaks {first:?}, job2 peaks {second:?})"
    );
}

#[test]
fn pool_outputs_come_from_the_scratch_pool() {
    // A tensor's buffer goes back to the pool when it drops, so a hot-path
    // output must also come out of it: one allocated outside the pool is a
    // net addition to the pool on every drop. So the second call of a
    // shape, after the first one's output dropped, must hit.
    let _scratch_on = scratch::with_enabled(true);
    let spec = Pool2dSpec::new(2, 2);
    // Distinctive shape: the 525-element output's size class is used by
    // nothing else here.
    let x = Tensor::from_fn(&[3, 5, 10, 14], |i| {
        ((i[0] * 7 + i[1] * 5 + i[2] * 3 + i[3]) % 11) as f32 * 0.3 - 1.0
    });
    let calls: [(&str, &dyn Fn() -> Tensor); 2] = [
        ("max_pool2d", &|| max_pool2d(&x, &spec).unwrap().0),
        ("avg_pool2d", &|| avg_pool2d(&x, &spec).unwrap()),
    ];
    for (name, call) in calls {
        drop(call());
        let (h0, _) = scratch::stats();
        let out = call();
        let (h1, _) = scratch::stats();
        assert_eq!(out.shape(), &[3, 5, 5, 7]);
        assert!(
            h1 > h0,
            "{name}: the second call's output missed the scratch pool"
        );
    }
}

/// A workload touching the pooled hot paths: tiled matmul, im2col conv
/// lowering, and elementwise kernels, with shapes small enough that the
/// work-scaled gate would run them serially absent an override.
fn workload() -> Vec<u32> {
    let a = Tensor::from_fn(&[17, 23], |i| {
        ((i[0] * 31 + i[1] * 17) % 13) as f32 * 0.21 - 1.2
    });
    let b = Tensor::from_fn(&[23, 19], |i| {
        ((i[0] * 7 + i[1] * 29) % 11) as f32 * 0.17 - 0.8
    });
    let m = a.matmul(&b).unwrap();
    let img = Tensor::from_fn(&[2, 3, 8, 8], |i| {
        ((i[0] * 5 + i[1] * 13 + i[2] * 3 + i[3]) % 17) as f32 * 0.11 - 0.9
    });
    let cols = im2col(&img, &Conv2dSpec::new(3, 4, 3, 1, 1)).unwrap();
    let r = m.relu();
    let s = m.add(&a.matmul(&b).unwrap()).unwrap();
    // The VIB head's elementwise pattern: a softplus σ followed by the
    // reparameterization z = μ + σ ⊙ ε (r stands in for the frozen noise).
    let sigma = m.map(|x| x.max(0.0) + (-x.abs()).exp().ln_1p());
    let z = m.add(&sigma.mul(&r).unwrap()).unwrap();
    m.data()
        .iter()
        .chain(cols.data())
        .chain(r.data())
        .chain(s.data())
        .chain(sigma.data())
        .chain(z.data())
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn results_are_bitwise_invariant_across_pool_states_and_thread_counts() {
    // Baseline: serial, freshly cleared scratch.
    scratch::clear();
    let baseline = {
        let _t = parallel::with_threads(1);
        workload()
    };
    for threads in [1usize, 2, 4, 7] {
        let _t = parallel::with_threads(threads);

        // Warm: a throwaway pass leaves recycled buffers of every size
        // class the workload uses, on this thread and on pool workers.
        let _ = workload();
        assert_eq!(
            workload(),
            baseline,
            "warm pool diverged at {threads} threads"
        );

        // Disabled on the submitting thread: its checkouts fall through to
        // the allocator while pool workers keep their own warm state.
        {
            let _s = scratch::with_enabled(false);
            assert_eq!(
                workload(),
                baseline,
                "disabled pool diverged at {threads} threads"
            );
        }

        // Freshly cleared: all first checkouts miss.
        scratch::clear();
        assert_eq!(
            workload(),
            baseline,
            "cleared pool diverged at {threads} threads"
        );
    }
}
