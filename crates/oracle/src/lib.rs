//! Reference oracles for the IB-RAR reproduction's numeric kernels.
//!
//! Every optimized kernel in the hot path — the matmul family, the direct
//! convolution, pairwise distances, Gaussian kernels, HSIC, softmax
//! cross-entropy, and the attack step rules — has a deliberately naive
//! counterpart here, written as the most direct transcription of its
//! mathematical definition. The naive versions make no attempt at speed:
//! no blocking, no parallel splits, no zero-skipping, no algebraic
//! rewrites. Their only job is to be obviously correct so the optimized
//! kernels can be tested *differentially* against them on seeded random
//! inputs.
//!
//! The crate is a dev-dependency everywhere except `ibrar-bench`, whose
//! `loadgen` bin draws its Poisson arrivals from [`Gen`]. Production kernels
//! never call into it: the naive loops here are the only copy.
//!
//! Submodules:
//!
//! - [`kernels`] — the naive reference implementations themselves.
//! - [`gen`] — a SplitMix64-based deterministic input generator. It is
//!   intentionally independent of the `rand` crate so differential and
//!   golden tests produce identical inputs in every build environment.
//! - [`diff`] — tolerance policy (absolute / relative / ULP) and tensor
//!   comparison with a worst-element report.
//! - [`fd`] — central-difference gradient checking against arbitrary
//!   scalar closures, with full and sampled-coordinate variants.
//! - [`golden`] — bitwise-exact JSON snapshots (floats stored as their
//!   `f32::to_bits` patterns) with the `IBRAR_BLESS=1` regeneration flow.
//!
//! # Tolerance policy
//!
//! Differential tests compare against the oracle with explicit
//! tolerances; an element passes when **any** of the absolute, relative,
//! or ULP criteria holds (see [`diff::Tolerance`]). The optimized kernels
//! reorder f32 accumulation (blocked loops, per-chunk partial sums), so
//! exact equality is not expected; what is expected — and enforced — is
//! agreement to within a few ULPs per accumulated term. The per-call
//! tolerances are documented at each differential test site, and
//! DESIGN.md §10 records the policy.

pub mod diff;
pub mod fd;
pub mod gen;
pub mod golden;
pub mod kernels;

pub use diff::{compare, compare_scalar, ulp_distance, DiffError, Tolerance};
pub use fd::{audit_gradient, fd_gradient, fd_gradient_sampled, sample_coords, AuditReport};
pub use gen::Gen;
pub use golden::{bless_requested, check_snapshot, hash_bits, Snapshot};
