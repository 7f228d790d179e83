//! Concurrent query service over encoded bitmap indexes.
//!
//! The paper's engine (`ebi-core`) answers one query on one thread.
//! This crate turns it into a *serving* layer, the deployment shape the
//! warehouse literature assumes:
//!
//! * [`shard`] — a fact table served as one encoded bitmap index per
//!   column, built once over every row with its column's value-ordered
//!   [`Mapping`], so a query is **compiled once** (logical reduction:
//!   the interval cover for a point or a range, Quine–McCluskey
//!   minimization for any other value set) and evaluated in *morsels*,
//!   runs of the kernel's 32 768-row windows. An answer is read off the
//!   morsel bitmaps: a count is the sum of their popcounts, a row id is
//!   the morsel's first row plus the bit, and no heap page is read.
//! * [`pool`] — a [`WorkerPool`] over one locked queue for morsel jobs,
//!   an [`AdmissionGate`] bounding in-flight queries (backpressure:
//!   `BUSY` / HTTP 429), and a [`FanOut`] latch with per-request
//!   deadlines.
//! * [`protocol`] / [`http`] — two frontends over one grammar: a TCP
//!   line protocol (`COUNT a=1 AND b IN 2,3`) and a hand-rolled
//!   HTTP/1.1 + JSON layer (`GET /query?q=…`, `GET /metrics`). They
//!   only frame, parse and render. No async runtime: blocking threads,
//!   scoped borrows, vendored deps only.
//! * [`server`] — one connection loop and one request path: admission
//!   → compile → morsels → gather → retain. A request splits into
//!   `min(workers, windows)` morsels on the pool only when that is at
//!   least two and its post-pruning work estimate reaches the dispatch
//!   floor ([`pool::MIN_PARALLEL_WORK_WORDS`]); otherwise it runs on the
//!   connection thread as one morsel. Every query leaves its request, its
//!   `ebi-obs` span records (one `eval.worker` span per morsel) and its
//!   cost counters in the trace ring; graceful shutdown drains in-flight
//!   queries before the listeners close. A morsel evaluation that
//!   panics is contained and answered `ERR internal` / HTTP 500; a
//!   connection loop that panics closes only its own connection. Both
//!   are counted. Metrics are counted where their events happen, whether
//!   or not spans are on, and `/metrics` reads them when scraped.
//! * `trace_ring` — tail sampling: the most recent traces and the slow
//!   ones, each kept as its request and raw records, and rendered as an
//!   `ebi-obs` [`QueryReport`] only when `TRACES`, `SLOW`, `EXPLAIN`,
//!   `/debug/*` or the slow-query log reads it.
//!
//! [`Mapping`]: ebi_core::Mapping
//! [`WorkerPool`]: pool::WorkerPool
//! [`AdmissionGate`]: pool::AdmissionGate
//! [`FanOut`]: pool::FanOut
//! [`QueryReport`]: ebi_obs::QueryReport

// The service logs through `ebi_obs::log` (schema `ebi.log.v1`), never
// to bare stdout/stderr. `src/bin/` roots are crates of their own.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod error;
pub mod http;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod shard;
mod trace_ring;

pub use error::ServiceError;
pub use pool::{AdmissionGate, FanOut, Refusal, WorkerPool};
pub use protocol::{parse_dnf, parse_request, Reply, Request};
pub use server::{eval_morsel, run, ServiceConfig, ServiceHandle, ServiceSummary, MAX_CONNECTIONS};
pub use shard::{
    Clause, ColumnSpec, CompiledClause, CompiledQuery, DnfRequest, MorselOutcome, Predicate, Shard,
    ShardedTable, TableOptions,
};
