//! Concrete distributed algorithms: the paper's upper-bound companions.

pub mod cole_vishkin;
pub mod greedy;
pub mod weak2;

/// No port: what the algorithms' `u32` port fields and messages hold when
/// there is none.
const NO_PORT: u32 = u32::MAX;
