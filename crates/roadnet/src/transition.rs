//! Link-transition statistics for the probability-enhanced protocol variant.
//!
//! The paper's "map-based with probability information" variant enhances the
//! map with probabilities that "describe what percentage of all users follows
//! a certain link (user-independent) or how many times a certain object
//! follows this link when moving over the intersection (user-specific)"; the
//! predictor then "assumes that the object is following the link with the
//! highest probability". [`TransitionTable`] collects those counts — either
//! globally or per object — and answers the most-likely-next-link query.

use crate::ids::{LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Key of a transition observation: arriving over `from_link` at `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) struct TransitionKey {
    /// Intersection being crossed.
    pub node: NodeId,
    /// Link over which the intersection was entered.
    pub from_link: LinkId,
}

/// Counts of which outgoing link was taken for each (node, arriving link)
/// pair.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TransitionTable {
    counts: HashMap<TransitionKey, HashMap<LinkId, u64>>,
    total_observations: u64,
}

impl TransitionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TransitionTable::default()
    }

    /// Records one observation: the object arrived at `node` over `from_link`
    /// and left over `to_link`.
    pub fn record(&mut self, node: NodeId, from_link: LinkId, to_link: LinkId) {
        let key = TransitionKey { node, from_link };
        *self.counts.entry(key).or_default().entry(to_link).or_insert(0) += 1;
        self.total_observations += 1;
    }

    /// Total number of recorded observations.
    pub fn observations(&self) -> u64 {
        self.total_observations
    }

    /// The most frequently taken outgoing link for the given situation, if the
    /// situation has been observed at all. Ties are broken towards the smaller
    /// link id so the choice is deterministic on both source and server.
    pub fn most_likely(&self, node: NodeId, from_link: LinkId) -> Option<LinkId> {
        let key = TransitionKey { node, from_link };
        let dist = self.counts.get(&key)?;
        dist.iter().max_by(|(la, ca), (lb, cb)| ca.cmp(cb).then(lb.cmp(la))).map(|(&l, _)| l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_knows_nothing() {
        let t = TransitionTable::new();
        assert_eq!(t.observations(), 0);
        assert_eq!(t.counts.len(), 0);
        assert!(t.most_likely(NodeId(0), LinkId(0)).is_none());
    }

    #[test]
    fn most_likely_follows_the_majority() {
        let mut t = TransitionTable::new();
        for _ in 0..3 {
            t.record(NodeId(5), LinkId(1), LinkId(2));
        }
        t.record(NodeId(5), LinkId(1), LinkId(3));
        assert_eq!(t.most_likely(NodeId(5), LinkId(1)), Some(LinkId(2)));
        assert_eq!(t.observations(), 4);
        assert_eq!(t.counts.len(), 1);
    }

    #[test]
    fn ties_break_deterministically_towards_smaller_id() {
        let mut t = TransitionTable::new();
        t.record(NodeId(1), LinkId(0), LinkId(7));
        t.record(NodeId(1), LinkId(0), LinkId(3));
        assert_eq!(t.most_likely(NodeId(1), LinkId(0)), Some(LinkId(3)));
    }

    #[test]
    fn situations_are_keyed_by_arriving_link() {
        let mut t = TransitionTable::new();
        t.record(NodeId(1), LinkId(0), LinkId(2));
        t.record(NodeId(1), LinkId(9), LinkId(3));
        assert_eq!(t.counts.len(), 2);
        assert_eq!(t.most_likely(NodeId(1), LinkId(0)), Some(LinkId(2)));
        assert_eq!(t.most_likely(NodeId(1), LinkId(9)), Some(LinkId(3)));
    }
}
