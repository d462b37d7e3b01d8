//! # roundelim — automatic round elimination for distributed problems
//!
//! Facade crate re-exporting the whole workspace, a full Rust
//! implementation of
//!
//! > Sebastian Brandt, *An Automatic Speedup Theorem for Distributed
//! > Problems*, PODC 2019 (arXiv:1902.09958).
//!
//! * [`core`] — problem representation and the speedup engine (Thm 1–2),
//!   zero-round deciders, isomorphism, relaxations, iterated sequences.
//! * [`auto`] — the automated lower/upper-bound search (`autolb`/`autoub`)
//!   with canonical-form caching and replayable certificates.
//! * [`problems`] — a zoo of locally checkable problems (coloring, sinkless
//!   orientation, weak/superweak coloring, matchings, MIS, …).
//! * [`superweak`] — the Section 5 pipeline: Lemmas 1–4 and the Ω(log* Δ)
//!   lower bound for weak 2-coloring (Theorem 4).
//! * [`sim`] — a port-numbering-model simulator, graph generators, and the
//!   *executable* Theorem 1 on rings.
//! * [`daemon`] — `roundelimd`, a persistent proof-cache service: solved
//!   bounds are stored in a versioned binary encoding and served (up to
//!   isomorphism) over a line-JSON/TCP protocol without re-searching.
//! * [`obs`] — structured tracing and a metrics registry (counters,
//!   latency histograms) shared by every layer: `--profile` and
//!   `--trace` read one recorded span tree, and the daemon's `metrics`
//!   command reads the registry (see docs/OBSERVABILITY.md).
//!
//! ## Quick start
//!
//! ```
//! use roundelim::core::sequence::{iterate, StopReason};
//! use roundelim::problems::sinkless::sinkless_coloring;
//!
//! let sc = sinkless_coloring(3)?;
//! let seq = iterate(&sc, 8)?;
//! assert!(matches!(seq.stop, StopReason::FixedPoint { .. }));
//! # Ok::<(), roundelim::core::error::Error>(())
//! ```

#![forbid(unsafe_code)]

pub use roundelim_auto as auto;
pub use roundelim_core as core;
pub use roundelim_daemon as daemon;
pub use roundelim_obs as obs;
pub use roundelim_problems as problems;
pub use roundelim_sim as sim;
pub use roundelim_superweak as superweak;
