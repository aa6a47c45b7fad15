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
/// Members are kept sorted by [`ActorId`]; the *leader* is the lowest-ranked
/// member, mirroring Ensemble's deterministic ranking ("for each group,
/// Ensemble elects one of the members of the group as the leader", paper §3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// The group this view belongs to.
    pub group: GroupId,
    /// The view number; strictly increasing across installs.
    pub id: ViewId,
    /// Current members, sorted ascending (rank order).
    members: Vec<ActorId>,
}

impl View {
    /// Creates a view, sorting and deduplicating the member list.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty: a group with no members has no view.
    pub fn new(group: GroupId, id: ViewId, mut members: Vec<ActorId>) -> Self {
        assert!(!members.is_empty(), "a view must have at least one member");
        members.sort_unstable();
        members.dedup();
        Self { group, id, members }
    }

    /// The members in rank order (ascending actor id).
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

    /// The leader: the lowest-ranked member.
    pub fn leader(&self) -> ActorId {
        self.members[0]
    }

    /// Whether `actor` is a member of this view.
    pub fn contains(&self, actor: ActorId) -> bool {
        self.members.binary_search(&actor).is_ok()
    }

    /// The rank (0 = leader) of `actor` in this view, if a member.
    pub fn rank_of(&self, actor: ActorId) -> Option<usize> {
        self.members.binary_search(&actor).ok()
    }

    /// A successor view with `removed` members excluded and `added` members
    /// included, numbered `self.id.next()`.
    ///
    /// Returns `None` if the result would be empty.
    pub fn successor(&self, removed: &[ActorId], added: &[ActorId]) -> Option<View> {
        let mut members: Vec<ActorId> = self
            .members
            .iter()
            .copied()
            .filter(|m| !removed.contains(m))
            .collect();
        members.extend_from_slice(added);
        members.sort_unstable();
        members.dedup();
        if members.is_empty() {
            None
        } else {
            Some(View {
                group: self.group,
                id: self.id.next(),
                members,
            })
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
