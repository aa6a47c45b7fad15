//! Groups, views, and deterministic leader election.

use aqf_sim::ActorId;
use std::fmt;

/// Identifies a communication group (e.g. the primary replication group, the
/// secondary replication group, or the QoS group of a service).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u16);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group#{}", self.0)
    }
}

/// Monotonically increasing view number within a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ViewId(pub u64);

impl ViewId {
    /// The next view number.
    pub fn next(self) -> ViewId {
        ViewId(self.0 + 1)
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One installed membership view of a group.
///
/// Members are kept in rank order: the founders by [`ActorId`], then every
/// member admitted since, in the order it was admitted. The *leader* is
/// rank 0, mirroring Ensemble's deterministic ranking ("for each group,
/// Ensemble elects one of the members of the group as the leader", paper
/// §3). A member that rejoins is the most junior, so leadership moves only
/// when the leader leaves the view.
///
/// Membership queries ([`View::contains`], [`View::rank_of`],
/// [`View::seniors`]) read a rank index built once with the view instead of
/// scanning the members.
#[derive(Clone, PartialEq, Eq)]
pub struct View {
    /// The group this view belongs to.
    pub group: GroupId,
    /// The view number; strictly increasing across installs.
    pub id: ViewId,
    /// Current members in rank order.
    members: Vec<ActorId>,
    /// One more than the rank of the member whose id indexes the entry, 0
    /// for an id that is no member's. Covers the members' ids below
    /// [`DENSE_IDS`].
    ranks: Vec<u32>,
    /// Whether some member's id is at or beyond [`DENSE_IDS`], so an id
    /// past the index must be looked for among the members.
    unranked: bool,
}

/// Ids the group layer keeps in tables indexed by [`ActorId`]: far more
/// actors than any world of this repository holds. A larger id, such as
/// `aqf_sim::world::EXTERNAL`, is looked up another way, so no table is
/// ever sized by an id no world hands out.
pub(crate) const DENSE_IDS: usize = 1 << 12;

/// The rank index is derived from the members, so it is left out.
impl fmt::Debug for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("View")
            .field("group", &self.group)
            .field("id", &self.id)
            .field("members", &self.members)
            .finish()
    }
}

impl View {
    /// Creates a group's founding view, ranking the members by id
    /// (duplicates dropped).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty: a group with no members has no view.
    pub fn new(group: GroupId, id: ViewId, mut members: Vec<ActorId>) -> Self {
        assert!(!members.is_empty(), "a view must have at least one member");
        members.sort_unstable();
        members.dedup();
        Self::ranked(group, id, members)
    }

    /// A view of `members`, already in rank order, with its rank index.
    fn ranked(group: GroupId, id: ViewId, members: Vec<ActorId>) -> Self {
        let indexed = members.iter().map(|m| m.index()).filter(|&i| i < DENSE_IDS);
        let mut ranks = vec![0; indexed.clone().max().map_or(0, |i| i + 1)];
        for (rank, m) in members.iter().enumerate() {
            if let Some(entry) = ranks.get_mut(m.index()) {
                *entry = rank as u32 + 1;
            }
        }
        let unranked = indexed.count() < members.len();
        Self {
            group,
            id,
            members,
            ranks,
            unranked,
        }
    }

    /// The members in rank order.
    pub fn members(&self) -> &[ActorId] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the view has no members: always `false`, since [`View::new`]
    /// and [`View::successor`] never build an empty view.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The leader: the member of rank 0.
    pub fn leader(&self) -> ActorId {
        self.members[0]
    }

    /// Whether `actor` is a member of this view.
    pub fn contains(&self, actor: ActorId) -> bool {
        self.rank_of(actor).is_some()
    }

    /// The rank (0 = leader) of `actor` in this view, if a member.
    pub fn rank_of(&self, actor: ActorId) -> Option<usize> {
        match self.ranks.get(actor.index()) {
            Some(&entry) => (entry as usize).checked_sub(1),
            None if self.unranked => self.members.iter().position(|m| *m == actor),
            None => None,
        }
    }

    /// The members ranked ahead of `actor`, most senior first: all of them
    /// if it is not a member.
    pub fn seniors(&self, actor: ActorId) -> &[ActorId] {
        &self.members[..self.rank_of(actor).unwrap_or(self.members.len())]
    }

    /// A successor view with `removed` members excluded and `added` members
    /// appended as the most junior, in the order given, numbered
    /// `self.id.next()`.
    ///
    /// Returns `None` if the result would be empty.
    pub fn successor(&self, removed: &[ActorId], added: &[ActorId]) -> Option<View> {
        let mut members: Vec<ActorId> = self
            .members
            .iter()
            .copied()
            .filter(|m| !removed.contains(m))
            .collect();
        for &a in added {
            if !members.contains(&a) {
                members.push(a);
            }
        }
        if members.is_empty() {
            None
        } else {
            Some(View::ranked(self.group, self.id.next(), members))
        }
    }

    /// Members present in `self` but not in `other`.
    pub fn departed(&self, newer: &View) -> Vec<ActorId> {
        self.members
            .iter()
            .copied()
            .filter(|m| !newer.contains(*m))
            .collect()
    }

    /// Members present in `newer` but not in `self`.
    pub fn joined(&self, newer: &View) -> Vec<ActorId> {
        newer
            .members
            .iter()
            .copied()
            .filter(|m| !self.contains(*m))
            .collect()
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} [", self.group, self.id)?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: usize) -> ActorId {
        ActorId::from_index(i)
    }

    #[test]
    fn members_sorted_and_deduped() {
        let v = View::new(GroupId(1), ViewId(0), vec![a(3), a(1), a(3), a(2)]);
        assert_eq!(v.members(), &[a(1), a(2), a(3)]);
        assert_eq!(v.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_view_panics() {
        let _ = View::new(GroupId(1), ViewId(0), vec![]);
    }

    #[test]
    fn leader_is_lowest_rank() {
        let v = View::new(GroupId(1), ViewId(0), vec![a(5), a(2), a(9)]);
        assert_eq!(v.leader(), a(2));
        assert_eq!(v.rank_of(a(2)), Some(0));
        assert_eq!(v.rank_of(a(9)), Some(2));
        assert_eq!(v.rank_of(a(7)), None);
    }

    #[test]
    fn successor_removes_and_adds() {
        let v = View::new(GroupId(1), ViewId(3), vec![a(1), a(2), a(3)]);
        let s = v.successor(&[a(2)], &[a(4)]).unwrap();
        assert_eq!(s.id, ViewId(4));
        assert_eq!(s.members(), &[a(1), a(3), a(4)]);
        assert_eq!(v.departed(&s), vec![a(2)]);
        assert_eq!(v.joined(&s), vec![a(4)]);
    }

    #[test]
    fn rejoiner_ranks_most_junior() {
        let v = View::new(GroupId(1), ViewId(0), vec![a(1), a(2), a(3)]);
        let back = v
            .successor(&[a(1)], &[])
            .unwrap()
            .successor(&[], &[a(1), a(2)])
            .unwrap();
        assert_eq!(back.members(), &[a(2), a(3), a(1)]);
        assert_eq!(back.leader(), a(2));
        assert_eq!(back.rank_of(a(1)), Some(2));
        assert_eq!(back.seniors(a(1)), &[a(2), a(3)]);
        assert_eq!(back.seniors(a(2)), &[] as &[ActorId]);
        assert_eq!(back.seniors(a(9)), back.members());
    }

    #[test]
    fn successor_to_empty_is_none() {
        let v = View::new(GroupId(1), ViewId(0), vec![a(1)]);
        assert!(v.successor(&[a(1)], &[]).is_none());
    }

    #[test]
    fn display_formats() {
        let v = View::new(GroupId(7), ViewId(2), vec![a(1), a(0)]);
        assert_eq!(v.to_string(), "group#7/v2 [actor#0 actor#1]");
    }

    #[test]
    fn leader_changes_when_leader_removed() {
        let v = View::new(GroupId(1), ViewId(0), vec![a(0), a(1), a(2)]);
        let s = v.successor(&[a(0)], &[]).unwrap();
        assert_eq!(s.leader(), a(1));
    }
}
