//! The automatic speedup transform (Theorems 1 and 2 of the paper).
//!
//! * [`universal`] — maximal "good lines" (the ∀ + maximality half).
//! * [`existential`] — the ∃ half.
//! * [`step`] — assembled half/full steps with label provenance.
//!
//! The main entry points are re-exported here:
//!
//! ```
//! use roundelim_core::problem::Problem;
//! use roundelim_core::speedup::{full_step, half_step_edge};
//! let sc = Problem::parse("name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1").unwrap();
//! let so = half_step_edge(&sc, 1).unwrap();          // Π'_{1/2}: sinkless orientation
//! let back = full_step(&sc, 1).unwrap();             // Π'₁: sinkless coloring again
//! assert_eq!(back.problem().alphabet().len(), 2);
//! # let _ = so;
//! ```

pub mod existential;
pub(crate) mod pool;
pub mod step;
pub mod universal;

pub use step::{
    complete_step, full_step, full_step_unsimplified, half_step_edge, half_step_node, FullStep,
    HalfStep, Side,
};
pub use universal::{dominates, line_good, maximal_good_lines, Line};
