//! # roundelim-daemon
//!
//! `roundelimd`: a persistent proof-cache service for the autolb/autoub
//! bound search (Brandt, PODC 2019).
//!
//! Bound searches are expensive and their results — replayable
//! [`Certificate`](roundelim_auto::certificate::Certificate)s — are
//! immutable facts about a problem's isomorphism class. This crate turns
//! that observation into a small service:
//!
//! * [`store`] — an append-only proof store in the versioned
//!   `roundelim-bin-v1` binary encoding (see [`roundelim_core::binenc`]),
//!   indexed up to isomorphism by
//!   [`pre_key`](roundelim_core::iso::pre_key) and an isomorphism check,
//!   so a query that merely renames the labels of a solved problem is a
//!   cache hit;
//! * [`proto`] — the line-delimited JSON request/response protocol
//!   (`solve`, `status`, `stats`, `shutdown`, streamed `progress` events);
//! * [`server`] — the TCP server: an accept loop, a worker pool running
//!   the real search with cooperative cancellation, and a graceful
//!   shutdown path.
//!
//! Every insert appends one individually checksummed frame to the store
//! file and syncs it before the reply, and open truncates a torn final
//! frame, so a killed daemon restarts from its store bit-identically and
//! keeps serving previously solved problems (and their isomorphic
//! renamings) without re-searching.
//! Clients are expected to re-verify served certificates locally — the
//! daemon is a cache, not a trust root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;
pub mod server;
pub mod store;

pub use server::{Exit, ServeConfig, Server};
pub use store::ProofStore;
