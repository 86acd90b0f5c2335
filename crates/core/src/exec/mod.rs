//! Execution engines for compiled plans.
//!
//! There is one runtime, the shape of the paper's §IV-E: the submitting
//! thread runs the outer loops and packs their values into prefix tasks,
//! and workers run the inner loops of each task. The modules split it by
//! layer, not by execution shape:
//!
//! * [`interp`] — the nested-loop matcher (the in-memory equivalent of the
//!   paper's generated C++ code): one sink-driven recursion binds the loops,
//!   for whole embeddings and for task prefixes alike.
//! * [`iep`] — the Inclusion-Exclusion Principle term of one prefix over
//!   the innermost independent loops (Section IV-D), and the sequential IEP
//!   driver.
//! * [`parallel`] — what a job is: its `parallel::JobKind` (a count with
//!   or without IEP, or a query mode), the per-task kernel every thread
//!   runs, and the one-shot entry points.
//! * [`pool`] — the persistent, multi-tenant work-stealing
//!   [`pool::WorkerPool`] every parallel job runs on: started per call by
//!   [`parallel::count_parallel`], kept warm by
//!   [`crate::engine::Session`].
//! * [`sink`] — the [`sink::MatchSink`] abstraction and the shared state of
//!   the query modes (enumeration, per-vertex counts, sampled estimates).
//! * [`cluster`] — a simulated multi-node cluster reproducing the paper's
//!   distributed task-partitioning and work-stealing design for the
//!   scalability experiments.

pub mod cluster;
pub mod iep;
pub mod interp;
pub mod parallel;
pub mod pool;
pub mod sink;
