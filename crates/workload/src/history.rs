//! Per-client operation history capture for consistency checking.
//!
//! The chaos harness needs to know, for every client request, what was
//! asked, what came back, and when — so oracles can replay the global
//! history and check the ordering invariants of the configured consistency
//! level. [`HistoryHandle`] is the cloneable, disabled-by-default
//! recording switch, in the style of `aqf_obs::ObsHandle`. A disabled
//! handle is a single `None` branch per hook — zero allocation, zero
//! behavior change — so runs with recording off are bit-identical to runs
//! without the hooks (pinned by the digest property tests). An enabled
//! handle appends [`HistoryEvent`]s to a shared buffer; it is write-only,
//! so recording can observe but never steer the run. The history lives in
//! memory only: the oracles read it straight from the handle, and nothing
//! writes it to a file.
//!
//! Events come in two kinds joined by `(client, seq)`: `Issue` (captured
//! when the client hands the operation to its gateway) and `Complete`
//! (captured when the completion reaches the client application). Clients
//! are closed-loop — one outstanding request each — so per-client
//! completions arrive in issue order.

use std::sync::{Arc, Mutex};

/// One recorded step of a client's interaction with the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryEvent {
    /// A request left the client application.
    Issue {
        /// Issuing client (actor index).
        client: u64,
        /// Gateway-assigned request sequence number (unique per client).
        seq: u64,
        /// Virtual time the request was issued (µs).
        at_us: u64,
        /// Whether this is a read (`true`) or an update.
        read: bool,
        /// Invoked method name (e.g. `set`, `get`, `deposit`).
        method: String,
        /// Opaque argument payload.
        arg: Vec<u8>,
    },
    /// A completion was delivered to the client application.
    Complete {
        /// Issuing client (actor index).
        client: u64,
        /// Request sequence number this completes.
        seq: u64,
        /// Virtual completion time (µs).
        at_us: u64,
        /// Result payload (empty on timeout/shed).
        result: Vec<u8>,
        /// Whether the response met the deadline.
        timely: bool,
        /// Whether the serving replica deferred the read.
        deferred: bool,
        /// Staleness (versions) of the response.
        staleness: u64,
        /// True when the give-up window expired with no reply.
        timed_out: bool,
        /// True when the degradation controller rejected locally.
        shed: bool,
        /// True when the request ran under a ladder-widened QoS spec.
        degraded: bool,
        /// Commit/version number on the winning reply (see
        /// `ResponseInfo::csn`); 0 when no reply arrived.
        csn: u64,
        /// Version vector on the winning reply (causal only), as
        /// `(actor index, counter)` pairs in wire order.
        vector: Vec<(u64, u64)>,
    },
}

impl HistoryEvent {
    /// The `(client, seq)` join key linking an `Issue` to its `Complete`.
    pub fn key(&self) -> (u64, u64) {
        match *self {
            HistoryEvent::Issue { client, seq, .. }
            | HistoryEvent::Complete { client, seq, .. } => (client, seq),
        }
    }

    /// The virtual time of the event (µs).
    pub fn at_us(&self) -> u64 {
        match *self {
            HistoryEvent::Issue { at_us, .. } | HistoryEvent::Complete { at_us, .. } => at_us,
        }
    }
}

/// Cloneable recording switch shared by every client host of a scenario.
///
/// Disabled (the default) it does nothing — the deferred-closure `record`
/// never runs, so hot paths pay one branch. Enabled, it appends to a
/// shared in-memory buffer read back with [`HistoryHandle::take`] after
/// the run.
#[derive(Clone, Default)]
pub struct HistoryHandle {
    inner: Option<Arc<Mutex<Vec<HistoryEvent>>>>,
}

impl HistoryHandle {
    /// A handle that records nothing (the default).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A handle that collects events into a fresh shared buffer.
    pub fn collecting() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Vec::new()))),
        }
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends the event built by `f` — only invoked when enabled, so
    /// disabled recording constructs nothing.
    pub fn record(&self, f: impl FnOnce() -> HistoryEvent) {
        if let Some(buf) = &self.inner {
            buf.lock().expect("history buffer poisoned").push(f());
        }
    }

    /// Drains and returns everything recorded so far (empty when
    /// disabled). Events are in global record order: virtual time, ties
    /// broken by actor scheduling order — deterministic per seed.
    pub fn take(&self) -> Vec<HistoryEvent> {
        match &self.inner {
            Some(buf) => std::mem::take(&mut *buf.lock().expect("history buffer poisoned")),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(seq: u64) -> HistoryEvent {
        HistoryEvent::Issue {
            client: 3,
            seq,
            at_us: 1_000_000 * seq,
            read: false,
            method: "set".into(),
            arg: b"value-3-0".to_vec(),
        }
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let h = HistoryHandle::disabled();
        assert!(!h.is_enabled());
        h.record(|| panic!("closure must not run when disabled"));
        assert!(h.take().is_empty());
    }

    #[test]
    fn collecting_handle_is_shared_and_drains() {
        let h = HistoryHandle::collecting();
        let clone = h.clone();
        clone.record(|| issue(1));
        h.record(|| issue(2));
        let events = h.take();
        assert_eq!(events.len(), 2);
        assert!(h.take().is_empty(), "take drains");
    }
}
