//! # roundelim-sim
//!
//! A port-numbering-model simulator (§3 of Brandt, PODC 2019) and the
//! **executable Theorem 1** on rings.
//!
//! * [`graph`] — port-numbered graphs in a flat CSR layout (u32 ids) with
//!   girth computation — sized for millions of nodes;
//! * [`generate`] — rings, complete (bipartite) graphs, regular trees,
//!   deterministic seeded random regular graphs, and seeded permutations
//!   (all bit-identical for every thread count);
//! * [`runner`] — the synchronous message-passing executor (row-shaped
//!   and flat/adaptive variants) and the [`runner::Distributed`] trait;
//! * [`checker`] — validates outputs against a `Problem` ("A solves Π"):
//!   a materializing checker for tests and a streaming chunked one for
//!   million-node runs;
//! * [`crossval`] — the sim-vs-bound harness: runs zoo algorithms on huge
//!   instances and cross-checks round counts against `autolb`/`autoub`
//!   certificate verdicts;
//! * [`ring`] — both directions of Theorem 1 as executable constructions
//!   on input-labeled rings;
//! * [`algos`] — Cole–Vishkin 3-coloring (§4.5's upper bound) and an
//!   O(log* n) weak 2-coloring (Theorem 4's upper-bound companion).
//!
//! ```
//! use roundelim_sim::generate::cycle;
//! use roundelim_sim::checker::is_valid;
//! use roundelim_sim::runner::{run, id_inputs};
//! use roundelim_sim::algos::weak2::{WeakTwoColoring, total_rounds};
//! let g = cycle(12);
//! let out = run(&g, &id_inputs(&g), &WeakTwoColoring::for_n(12), total_rounds(12));
//! let p = roundelim_problems::weak::weak_coloring_pointer(2, 2).unwrap();
//! assert!(is_valid(&p, &g, &out));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algos;
pub mod checker;
pub mod crossval;
pub mod generate;
pub mod graph;
pub mod ring;
pub mod runner;
pub mod tree;
