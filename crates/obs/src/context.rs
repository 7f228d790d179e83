//! Request-scoped trace identity, propagated across frontends and
//! worker threads.
//!
//! A [`TraceContext`] is minted once per request (or adopted from an
//! inbound `traceparent` header / line-protocol field) and rides the
//! request through admission, the worker pool, and per-shard
//! `eval.worker` spans. The wire format is the W3C Trace Context
//! `traceparent` shape:
//!
//! ```text
//! 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//! │  │                                │                └ flags (01 = sampled)
//! │  │                                └ parent span id, 16 hex digits
//! │  └ trace id, 32 hex digits, non-zero
//! └ version
//! ```
//!
//! The context is identity only — span timing stays in [`crate::span`];
//! the service stitches the two together when it retains a trace in its
//! trace ring.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Monotonic per-process component of minted trace ids.
static MINT_SEQ: AtomicU64 = AtomicU64::new(1);

/// splitmix64 — a cheap full-avalanche mix so minted ids look random
/// without a PRNG dependency.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A request's trace identity: 128-bit trace id, the inbound parent
/// span id (0 when the request started the trace), and the sampled
/// flag. Copyable so it can be handed across threads freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    trace_id: u128,
    parent_id: u64,
    sampled: bool,
}

impl TraceContext {
    /// Mints a fresh root context (no inbound parent, sampled). The
    /// trace id mixes wall-clock nanoseconds with a process-monotonic
    /// counter, so ids are unique per process and effectively unique
    /// across restarts.
    #[must_use]
    pub fn mint() -> Self {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed);
        let seq = MINT_SEQ.fetch_add(1, Ordering::Relaxed);
        let hi = mix64(now ^ seq.rotate_left(17));
        let lo = mix64(seq ^ now.rotate_left(29));
        let mut id = (u128::from(hi) << 64) | u128::from(lo);
        if id == 0 {
            id = 1; // zero trace ids are invalid on the wire
        }
        Self {
            trace_id: id,
            parent_id: 0,
            sampled: true,
        }
    }

    /// Parses a `traceparent` value. Returns `None` on anything that is
    /// not `vv-<32 hex>-<16 hex>-<2 hex>` with a non-zero trace id, a
    /// non-zero parent id, and a version other than `ff`.
    #[must_use]
    pub fn parse(traceparent: &str) -> Option<Self> {
        let mut parts = traceparent.trim().split('-');
        let version = parts.next()?;
        let trace = parts.next()?;
        let parent = parts.next()?;
        let flags = parts.next()?;
        if parts.next().is_some() && version == "00" {
            return None; // version 00 has exactly four fields
        }
        if version.len() != 2 || !version.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        if version.eq_ignore_ascii_case("ff") {
            return None;
        }
        if trace.len() != 32 || parent.len() != 16 || flags.len() != 2 {
            return None;
        }
        let trace_id = u128::from_str_radix(trace, 16).ok()?;
        let parent_id = u64::from_str_radix(parent, 16).ok()?;
        let flags = u8::from_str_radix(flags, 16).ok()?;
        if trace_id == 0 || parent_id == 0 {
            return None;
        }
        Some(Self {
            trace_id,
            parent_id,
            sampled: flags & 0x01 != 0,
        })
    }

    /// The 128-bit trace id.
    #[must_use]
    pub fn trace_id(&self) -> u128 {
        self.trace_id
    }

    /// The inbound parent span id (`0` when this process started the
    /// trace).
    #[must_use]
    pub fn parent_id(&self) -> u64 {
        self.parent_id
    }

    /// Whether the caller requested sampling.
    #[must_use]
    pub fn sampled(&self) -> bool {
        self.sampled
    }

    /// The trace id as 32 lowercase hex digits — the form used in log
    /// correlation and `/debug/trace/<id>` lookups.
    #[must_use]
    pub fn trace_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }

    /// Renders the outbound `traceparent` with `span_id` as the parent
    /// field, for echoing in responses. A zero `span_id` is mapped to 1
    /// so the output stays spec-valid.
    #[must_use]
    pub fn to_traceparent(&self, span_id: u64) -> String {
        let span = if span_id == 0 { 1 } else { span_id };
        format!(
            "00-{:032x}-{span:016x}-{:02x}",
            self.trace_id,
            u8::from(self.sampled)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_contexts_are_unique_and_sampled() {
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        assert_ne!(a.trace_id(), b.trace_id());
        assert_ne!(a.trace_id(), 0);
        assert!(a.sampled());
        assert_eq!(a.parent_id(), 0);
    }

    #[test]
    fn round_trips_through_traceparent() {
        let ctx = TraceContext::mint();
        let wire = ctx.to_traceparent(0xdead_beef);
        let parsed = TraceContext::parse(&wire).expect("valid");
        assert_eq!(parsed.trace_id(), ctx.trace_id());
        assert_eq!(parsed.parent_id(), 0xdead_beef);
        assert!(parsed.sampled());
        assert_eq!(wire.len(), 2 + 1 + 32 + 1 + 16 + 1 + 2);
    }

    #[test]
    fn parses_the_w3c_example() {
        let ctx = TraceContext::parse("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
            .expect("valid");
        assert_eq!(ctx.trace_hex(), "4bf92f3577b34da6a3ce929d0e0e4736");
        assert_eq!(ctx.parent_id(), 0x00f0_67aa_0ba9_02b7);
        assert!(ctx.sampled());
        let unsampled =
            TraceContext::parse("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
                .expect("valid");
        assert!(!unsampled.sampled());
    }

    #[test]
    fn rejects_malformed_traceparents() {
        for bad in [
            "",
            "junk",
            "00-short-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-short-01",
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero parent
            "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
            "zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929d0e0g4736-00f067aa0ba902b7-01", // non-hex
        ] {
            assert!(TraceContext::parse(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn zero_span_id_is_never_emitted() {
        let ctx = TraceContext::mint();
        let wire = ctx.to_traceparent(0);
        let parsed = TraceContext::parse(&wire).expect("valid");
        assert_eq!(parsed.parent_id(), 1);
    }
}
