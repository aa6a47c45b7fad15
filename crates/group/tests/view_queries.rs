//! A view's membership queries — `contains`, `rank_of`, `seniors` — agree
//! with a linear scan of `members()`, whatever chain of `View::new` and
//! `View::successor` built the view and whatever id is asked about: ids a
//! world hands out, ids far beyond any world's actors, and the id
//! `World::send_external` stamps on injected messages.

use aqf_group::{GroupId, View, ViewId};
use aqf_sim::world::EXTERNAL;
use aqf_sim::ActorId;
use proptest::prelude::*;

/// Ids no world of this repository hands out.
fn far() -> [ActorId; 4] {
    [
        ActorId::from_index(4_096),
        ActorId::from_index(1 << 20),
        ActorId::from_index(u32::MAX as usize - 1),
        EXTERNAL,
    ]
}

/// Mostly small ids, one in eight from [`far`].
fn id(pick: u64) -> ActorId {
    if pick.is_multiple_of(8) {
        far()[(pick >> 3) as usize % 4]
    } else {
        ActorId::from_index((pick >> 3) as usize % 70)
    }
}

fn ids(picks: &[u64]) -> Vec<ActorId> {
    picks.iter().map(|&p| id(p)).collect()
}

/// Checks every query about `probe` against a scan of the members.
fn check(view: &View, probe: ActorId) {
    let members = view.members();
    let position = members.iter().position(|m| *m == probe);
    prop_assert_eq!(
        view.contains(probe),
        position.is_some(),
        "contains {}",
        probe
    );
    prop_assert_eq!(view.rank_of(probe), position, "rank_of {}", probe);
    prop_assert_eq!(
        view.seniors(probe),
        &members[..position.unwrap_or(members.len())],
        "seniors {}",
        probe
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queries_match_a_scan_of_the_members(
        founders in collection::vec(any::<u64>(), 1..10),
        steps in collection::vec(
            (collection::vec(any::<u64>(), 0..4), collection::vec(any::<u64>(), 0..4)),
            0..12,
        ),
        probes in collection::vec(any::<u64>(), 0..16),
    ) {
        let mut view = View::new(GroupId(1), ViewId(0), ids(&founders));
        let mut asked: Vec<ActorId> = ids(&probes);
        asked.extend(far());
        asked.extend((0..72).map(ActorId::from_index));
        for (removed, added) in &steps {
            // Half the removals name a current member, so chains shrink as
            // well as grow; additions may name members already present.
            let members = view.members();
            let removed: Vec<ActorId> = removed
                .iter()
                .map(|&p| if p.is_multiple_of(2) { members[(p / 2) as usize % members.len()] } else { id(p) })
                .collect();
            let added = ids(added);
            asked.extend(removed.iter().chain(&added).copied());
            let Some(next) = view.successor(&removed, &added) else {
                break;
            };
            prop_assert_eq!(next.id, view.id.next());
            view = next;
            for &m in view.members() {
                check(&view, m);
            }
            for &probe in &asked {
                check(&view, probe);
            }
        }
        for &probe in &asked {
            check(&view, probe);
        }
    }
}
