//! Sharded concurrent query service over encoded bitmap indexes.
//!
//! The paper's engine (`ebi-core`) answers one query on one thread.
//! This crate turns it into a *serving* layer, the deployment shape the
//! warehouse literature assumes:
//!
//! * [`shard`] — a fact table partitioned into contiguous row-range
//!   [`Shard`]s, each owning per-column encoded bitmap indexes and its
//!   own heap pager. All shards share one table-wide [`Mapping`] per
//!   column, so a query is **compiled once** (logical reduction over the
//!   shared code space: the interval cover for a point or a range,
//!   Quine–McCluskey minimization for any other value set) and
//!   evaluated everywhere;
//!   shard-relative result bitmaps are merged back at global row
//!   offsets with `BitVec::or_shifted`.
//! * [`pool`] — a [`WorkerPool`] over one locked queue for shard fan-out, an
//!   [`AdmissionGate`] bounding in-flight queries (backpressure:
//!   `BUSY` / HTTP 429), and a [`FanOut`] latch with per-request
//!   deadlines.
//! * [`protocol`] / [`http`] — two frontends over one grammar: a TCP
//!   line protocol (`COUNT a=1 AND b IN 2,3`) and a hand-rolled
//!   HTTP/1.1 + JSON layer (`GET /query?q=…`, `GET /metrics`). They
//!   only frame, parse and render. No async runtime: blocking threads,
//!   scoped borrows, vendored deps only.
//! * [`server`] — one connection loop and one request path: admission
//!   → compile → fan-out → merge → retain. Every query leaves its
//!   request, its `ebi-obs` span records (per-shard `eval.worker`
//!   spans included) and its cost counters in the trace ring; graceful
//!   shutdown drains in-flight queries before the listeners close. A
//!   query whose post-pruning work estimate is below
//!   [`pool::MIN_PARALLEL_WORK_WORDS`] bypasses the pool. A shard
//!   evaluation that panics is contained and answered `ERR internal` /
//!   HTTP 500; a connection loop that panics closes only its own
//!   connection. Both are counted. Metrics are counted where their
//!   events happen, whether or not spans are on, and `/metrics` reads
//!   them when scraped.
//! * `trace_ring` — tail sampling: the most recent traces and the slow
//!   ones, each kept as its request and raw records, and rendered as an
//!   `ebi-obs` [`QueryReport`] only when `TRACES`, `SLOW`, `EXPLAIN`,
//!   `/debug/*` or the slow-query log reads it.
//!
//! [`Shard`]: shard::Shard
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
pub use server::{eval_shard, run, ServiceConfig, ServiceHandle, ServiceSummary, MAX_CONNECTIONS};
pub use shard::{
    Clause, ColumnSpec, CompiledClause, CompiledQuery, DnfRequest, Predicate, Shard, ShardOutcome,
    ShardedTable, TableOptions,
};
