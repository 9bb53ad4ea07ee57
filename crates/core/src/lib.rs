//! # jigsaw-core — Slice-and-Dice NuFFT
//!
//! A from-scratch implementation of the Non-uniform Fast Fourier Transform
//! centered on the **Slice-and-Dice** gridding model of West, Fessler &
//! Wenisch (IPDPS 2021), together with every baseline the paper compares
//! against.
//!
//! ## The problem
//!
//! MRI and other computational-imaging modalities sample the frequency
//! domain along non-Cartesian trajectories. The NuFFT approximates the
//! non-uniform DFT in three steps — (1) *gridding* (non-uniform
//! interpolation onto an oversampled uniform grid), (2) a uniform FFT, and
//! (3) *apodization* correction — and gridding dominates: up to 99.6 % of
//! NuFFT runtime, because each randomly-ordered sample scatters into a
//! `W^d` window of non-contiguous memory.
//!
//! ## What lives here
//!
//! * [`config`] — problem/kernel/tile parameters with validation.
//! * [`kernel`] — interpolation windows (Kaiser-Bessel, Gaussian, …) and
//!   their Fourier transforms; Beatty kernel-width selection.
//! * [`lut`] — the precomputed, symmetry-folded weight table (table
//!   oversampling factor `L`).
//! * [`decomp`] — the Slice-and-Dice coordinate decomposition (tile /
//!   relative coordinates, forward distance, wrap detection) — the
//!   software twin of the JIGSAW select unit.
//! * [`gridding`] — four adjoint gridding engines: serial input-driven
//!   (MIRT-style baseline), naive output-parallel, binned output-driven
//!   (Impatient-style), and Slice-and-Dice (serial, column-parallel,
//!   block-parallel atomic). They are the paper's baselines and the
//!   bitwise references; production does not grid through them.
//! * [`interp`] — the forward counterpart (regridding).
//! * [`nufft`] — complete forward/adjoint NuFFT plans with per-stage
//!   timing, plus [`nudft`] as the exact reference. The planned scatter
//!   ([`NufftPlan::plan_trajectory`] +
//!   [`NufftPlan::adjoint_batch_planned`]) is production's one scatter:
//!   serving, the SENSE adjoint, both CG solvers and the Toeplitz build
//!   run it, bitwise equal to every deterministic engine.
//! * [`recon`], [`sense`], [`toeplitz`] — CG and CG-SENSE
//!   reconstruction, with the gridded or the Toeplitz normal operator.
//! * [`traj`], [`phantom`] — MRI sampling trajectories and the Shepp-Logan
//!   phantom with analytic k-space, standing in for the paper's clinical
//!   data set.
//! * [`metrics`] — NRMSD and friends for the image-quality experiments.
//! * [`engine`] — the persistent worker-pool execution layer: every
//!   parallel gridder and batched transform dispatches into a long-lived
//!   [`engine::WorkerPool`] with per-worker scratch arenas, amortizing
//!   thread and allocation churn across the many transforms of a
//!   multi-coil reconstruction.
//! * [`serve`] — the plan-cached serving layer behind `jigsaw serve`: a
//!   length-prefixed job protocol, a bounded LRU plan cache keyed by
//!   trajectory contents, and a priority queue of jobs multiplexed onto
//!   the worker pool with per-job [`budget::RunBudget`] admission.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod accuracy;
pub mod apod;
pub mod budget;
pub mod config;
pub mod decomp;
pub mod density;
pub mod engine;
pub mod fault;
pub mod gridding;
pub mod interp;
pub mod kernel;
pub mod lut;
pub mod metrics;
pub mod nudft;
pub mod nufft;
pub mod phantom;
pub mod recon;
pub mod sense;
pub mod serve;
pub mod stats;
pub mod toeplitz;
pub mod traj;

pub use config::{GridParams, NufftConfig};
pub use kernel::KernelKind;
pub use lut::KernelLut;
pub use nufft::{NufftPlan, PlannedTrajectory};

/// Errors reported by configuration validation, data ingestion, and the
/// execution engine. See `DESIGN.md` §7 for the full failure-mode
/// taxonomy (what degrades gracefully vs. what aborts).
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A configuration parameter is outside its supported range.
    Config(String),
    /// Sample data is malformed (non-finite coordinate or value, length
    /// mismatch between coordinate and value arrays).
    Data(String),
    /// A contained execution failure: a job panicked on the worker pool
    /// (payload and worker id captured in the message) and the serial
    /// fallback was disabled or impossible. The pool itself survives.
    Execution(String),
    /// A [`budget::RunBudget`] was exhausted before any usable result
    /// existed. (When a partial result exists, operations return it with
    /// a diagnostic instead of this error.)
    Budget(String),
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Config(m) => write!(f, "configuration error: {m}"),
            Error::Data(m) => write!(f, "data error: {m}"),
            Error::Execution(m) => write!(f, "execution error: {m}"),
            Error::Budget(m) => write!(f, "budget exhausted: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias.
pub type Result<T> = core::result::Result<T, Error>;
