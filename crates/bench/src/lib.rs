//! Fixtures shared by the `alloc_gates` bench: static views and a server
//! gateway under any ordering discipline.

use aqf_core::object::VersionedRegister;
use aqf_core::shell::{Discipline, Replica, ServerConfig};
use aqf_core::StorageConfig;
use aqf_core::{PRIMARY_GROUP, SECONDARY_GROUP};
use aqf_group::{View, ViewId};
use aqf_sim::ActorId;

/// A primary view of `n + 1` members (ids 0..=n, 0 = sequencer/leader).
pub fn primary_view(n: usize) -> View {
    View::new(
        PRIMARY_GROUP,
        ViewId(0),
        (0..=n).map(ActorId::from_index).collect(),
    )
}

/// A secondary view of `n` members (ids 100..100+n).
pub fn secondary_view(n: usize) -> View {
    View::new(
        SECONDARY_GROUP,
        ViewId(0),
        (100..100 + n).map(ActorId::from_index).collect(),
    )
}

/// A primary (non-leader for `me > 0`) server gateway under discipline `D`,
/// on `storage`.
pub fn primary_gateway<D: Discipline>(
    me: usize,
    primaries: usize,
    secondaries: usize,
    storage: StorageConfig,
) -> Replica<D> {
    Replica::new(
        ActorId::from_index(me),
        primary_view(primaries),
        secondary_view(secondaries),
        Box::new(VersionedRegister::new()),
        ServerConfig {
            clients: vec![ActorId::from_index(999)],
            storage,
            ..ServerConfig::default()
        },
    )
}
