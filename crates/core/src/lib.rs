//! # roundelim-core
//!
//! Core engine for **automatic round elimination**, implementing
//!
//! > Sebastian Brandt, *An Automatic Speedup Theorem for Distributed
//! > Problems*, PODC 2019 (arXiv:1902.09958).
//!
//! A locally checkable problem Π (in the paper's edge-checkable normal
//! form, instantiated at a degree Δ) is represented by a [`problem::Problem`]:
//! an output alphabet, a node constraint `h(Δ)` of Δ-element label
//! multisets, and an edge constraint `g(Δ)` of 2-element label multisets.
//!
//! The central operation is [`speedup::full_step`], the fixed procedure of
//! Theorems 1–2 that derives a problem Π'₁ solvable *exactly one round
//! faster* than Π on t-independent graph classes of girth ≥ 2t+2. Around it
//! the crate provides:
//!
//! * [`zero_round`] — deciders for 0-round solvability, the endgame of any
//!   speedup sequence (§2.1);
//! * [`iso`] — problem isomorphism and canonical forms, for detecting fixed
//!   points such as the sinkless-orientation loop of §4.4;
//! * [`relax`] — relaxation/hardening witnesses (label maps), the
//!   simplification tool of §2.1;
//! * [`sequence`] — the iterated speedup driver that produces lower-bound
//!   certificates.
//!
//! ## Quick start
//!
//! ```
//! use roundelim_core::problem::Problem;
//! use roundelim_core::sequence::{iterate, StopReason};
//!
//! // Sinkless coloring at Δ=3 (paper §4.4).
//! let sc = Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1")?;
//! let seq = iterate(&sc, 8)?;
//! // The sequence loops (Π₂ ≅ Π) without ever reaching a 0-round problem:
//! assert!(matches!(seq.stop, StopReason::FixedPoint { .. }));
//! # Ok::<(), roundelim_core::error::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binenc;
pub mod config;
pub mod constraint;
pub mod error;
pub mod fmt;
pub mod io;
pub mod iso;
pub mod label;
pub mod labelset;
pub mod packed;
pub mod par;
pub mod parser;
pub mod problem;
pub mod relax;
pub mod sequence;
pub mod speedup;
pub mod trie;
pub mod zero_round;

pub use config::Config;
pub use constraint::Constraint;
pub use error::{Error, Result};
pub use label::{Alphabet, Label};
pub use labelset::LabelSet;
pub use problem::Problem;
