//! # roundelim-auto
//!
//! Automated lower/upper-bound search for round elimination — the
//! "autolb/autoub" subsystem on top of `roundelim-core`'s speedup engine
//! (Brandt, PODC 2019).
//!
//! The paper's lower bounds (§2.1, §4.4–§4.6) all follow one recipe:
//! iterate the speedup, interleave hand-picked relaxations, and stop at a
//! fixed point (⇒ unbounded bound) or a 0-round problem (⇒ bound = the
//! step count). This crate automates the recipe end to end:
//!
//! * [`cache`] — a pre-key + isomorphism class cache deduplicating the
//!   explored problems up to isomorphism and memoizing speedup steps and
//!   0-round verdicts per class;
//! * [`moves`] — candidate relaxations (label merges, label-set
//!   coarsenings) and hardenings (label/configuration drops) generated
//!   from the constraint structure, each carrying its witness label map;
//! * [`score`] — the beam priority (small alphabets first);
//! * [`search`] — the deterministic parallel beam search itself,
//!   [`search::autolb`] and [`search::autoub`];
//! * [`certificate`] — replayable [`certificate::Certificate`]s checked by
//!   an independent verifier that uses only `roundelim-core` primitives,
//!   so search bugs cannot produce wrong bounds;
//! * [`checkpoint`] — crash-safe boundary snapshots of a running search,
//!   written atomically and checksummed, from which a killed search
//!   resumes bit-identically;
//! * [`failpoint`] — the fault-injection layer (`ROUNDELIM_FAILPOINTS`)
//!   behind the crash-recovery test harness;
//! * [`json`] — the self-contained JSON reader/writer behind certificate
//!   files and the CLI's `--json` output.
//!
//! ## Quick start
//!
//! ```
//! use roundelim_auto::search::{autolb, SearchOptions, Verdict};
//! use roundelim_core::problem::Problem;
//!
//! // Sinkless orientation at Δ=3 (§4.4): the search rediscovers the
//! // fixed point with no hand-supplied relaxations …
//! let so = Problem::parse("name: so\nnode: O O O | O O I | O I I\nedge: O I")?;
//! let out = autolb(&so, &SearchOptions::default())?;
//! assert_eq!(out.verdict, Verdict::Unbounded);
//! // … and every verdict ships a certificate that replays independently.
//! out.certificate.unwrap().verify().unwrap();
//! # Ok::<(), roundelim_core::error::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binenc;
pub mod cache;
pub mod certificate;
pub mod checkpoint;
pub mod failpoint;
pub mod json;
pub mod moves;
pub mod score;
pub mod search;

pub use cache::{CanonCache, NodeId};
pub use certificate::{CertError, CertVerdict, Certificate, Direction, Edge};
pub use search::{
    autolb, autoub, CancelToken, CheckpointConf, Outcome, Progress, ProgressHook, SearchOptions,
    SearchStats, StopCause, Verdict,
};
