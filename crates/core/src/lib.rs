//! An adaptive framework for tunable consistency and timeliness using
//! replication — a from-scratch reproduction of Krishnamurthy, Sanders &
//! Cukier (DSN 2002).
//!
//! This crate is the paper's contribution: a middleware layer that lets
//! clients trade consistency for timeliness through a QoS specification
//! `<staleness threshold, deadline, probability>`, built on a two-level
//! replica organization (a strongly consistent *primary* group plus a
//! lazily updated *secondary* group) and a probabilistic, monitoring-driven
//! replica selection algorithm.
//!
//! # Modules
//!
//! * [`qos`] — the QoS model: [`QosSpec`], ordering guarantees, and the
//!   read-only method registry (paper §2).
//! * [`wire`] — gateway-to-gateway protocol payloads.
//! * [`object`] — the [`ReplicatedObject`] trait plus sample applications
//!   (versioned register, shared document, stock ticker board).
//! * [`shell`] — the replica shell: the one server gateway (service queue,
//!   admission, deferred reads, lazy publisher, durability, restart) under
//!   which the ordering guarantees below plug in as disciplines (paper §4,
//!   Figure 2).
//! * [`protocol`] — the [`ServerProtocol`] interface hosts drive a gateway
//!   through.
//! * [`server`] — the sequential discipline: GSN/CSN bookkeeping,
//!   sequencer and its takeover, replenishment, delta transfers (paper §4).
//! * [`monitor`] — the client information repository: sliding windows,
//!   response-time distributions, staleness factor (paper §5.2, §5.4).
//! * [`obs`] — glue to the deterministic observability layer (`aqf-obs`):
//!   structured event traces, metrics, per-request timelines.
//! * [`model`] — `P_K(d)` (Eqs. 1–4) and Algorithm 1.
//! * [`select`] — selection policies: Algorithm 1 plus baselines.
//! * [`client`] — the client-side handler: selection, transmission, timing
//!   failure detection (paper §5.3, §5.4).
//! * [`timing`] — the timing failure detector.
//! * [`admission`] — the admission-control extension (paper §7).
//! * [`overload`] — overload protection: bounded admission queues,
//!   deadline-aware shedding, graceful degradation.
//! * [`fifo`] — the FIFO discipline (paper §4, Figure 2).
//! * [`causal`] — the causal discipline (the third ordering guarantee of
//!   §2's QoS model).
//! * [`dedup`] — the bounded reply cache behind exactly-once updates.
//! * [`durability`] — crash-recovery glue over the simulated storage layer:
//!   per-replica write-ahead logs, snapshots, replay, and delta transfers.
//!
//! # Example: the probabilistic model
//!
//! ```
//! use aqf_core::model::{pk_probability, select_replicas, Candidate};
//! use aqf_sim::ActorId;
//!
//! // Two primaries at F^I(d) = 0.5 each: P_K(d) = 0.75.
//! assert!((pk_probability(&[0.5, 0.5], &[], 1.0) - 0.75).abs() < 1e-9);
//!
//! let candidates = vec![
//!     Candidate { id: ActorId::from_index(1), is_primary: true,
//!                 immediate_cdf: 0.9, deferred_cdf: 0.0, ert_us: 100 },
//!     Candidate { id: ActorId::from_index(2), is_primary: true,
//!                 immediate_cdf: 0.9, deferred_cdf: 0.0, ert_us: 50 },
//! ];
//! let sel = select_replicas(&candidates, 1.0, 0.85, Some(ActorId::from_index(0)));
//! assert!(sel.satisfied);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod causal;
pub mod client;
pub mod dedup;
pub mod durability;
pub mod fifo;
pub mod model;
pub mod monitor;
pub mod object;
pub mod obs;
pub mod overload;
pub mod protocol;
pub mod qos;
pub mod select;
pub mod server;
pub mod shell;
pub mod timing;
pub mod wire;

pub use admission::AdmissionDecision;
pub use causal::CausalServerGateway;
pub use client::{
    ClientAction, ClientConfig, ClientGateway, RecoveryPolicy, ResponseInfo, TimerPurpose,
};
pub use durability::{Durability, ReplaySummary, StorageConfig, WalRecord};
pub use fifo::FifoServerGateway;
pub use model::{
    select_on_demand, select_replicas, select_replicas_ordered, Candidate, CandidateKey,
    CandidateOrder, CandidateSource, Selection,
};
pub use monitor::InfoRepository;
pub use object::{AccountBook, ReplicatedObject, SharedDocument, TickerBoard, VersionedRegister};
pub use obs::{req_ref, ObsEvent, ObsHandle};
pub use overload::DegradeTransition;
pub use protocol::ServerProtocol;
pub use qos::{OperationKind, OrderingGuarantee, QosSpec};
pub use select::{SelectionPolicy, Selector};
pub use server::ServerGateway;
pub use shell::{ReplicaRole, ServerAction, ServerConfig};
pub use timing::TimingFailureDetector;
pub use wire::{Method, Operation, Payload, RequestId, PRIMARY_GROUP, SECONDARY_GROUP};
