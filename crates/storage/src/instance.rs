//! Database instances.

use crate::relation::Relation;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A database instance: a mapping from relation names to relations.
///
/// Relations are reference-counted so that pipeline stages (which overlay
/// virtual relations on a base instance) can share storage without copying
/// tuples.
#[derive(Clone, Default)]
pub struct Instance {
    relations: HashMap<String, Arc<Relation>>,
}

impl Instance {
    /// An empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Inserts (or replaces) a relation.
    pub fn insert(&mut self, name: impl Into<String>, rel: Relation) {
        self.relations.insert(name.into(), Arc::new(rel));
    }

    /// Inserts a pre-shared relation.
    pub fn insert_shared(&mut self, name: impl Into<String>, rel: Arc<Relation>) {
        self.relations.insert(name.into(), rel);
    }

    /// Looks up a relation by name.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).map(|r| &**r)
    }

    /// Looks up a shared handle by name.
    pub fn get_shared(&self, name: &str) -> Option<Arc<Relation>> {
        self.relations.get(name).cloned()
    }

    /// Whether a relation of this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// A cheap copy of this instance with one extra/overridden relation.
    #[must_use]
    pub fn with_relation(&self, name: impl Into<String>, rel: Relation) -> Instance {
        let mut copy = self.clone();
        copy.insert(name, rel);
        copy
    }

    /// A cheap copy of this instance with one extra/overridden pre-shared
    /// relation — the delta-ingestion path:
    /// [`CtxView::insert_rows`](crate::CtxView::insert_rows) hands back an `Arc<Relation>`
    /// whose caches are already seeded, and this splices it in without
    /// cloning tuples or disturbing the other relations' identities.
    #[must_use]
    pub fn with_relation_shared(&self, name: impl Into<String>, rel: Arc<Relation>) -> Instance {
        let mut copy = self.clone();
        copy.insert_shared(name, rel);
        copy
    }

    /// Relation names in unspecified order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Total number of tuples across all relations — the `|I|` of the
    /// linear-preprocessing bound.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Number of relations.
    pub fn n_relations(&self) -> usize {
        self.relations.len()
    }
}

impl<S: Into<String>> FromIterator<(S, Relation)> for Instance {
    fn from_iter<T: IntoIterator<Item = (S, Relation)>>(iter: T) -> Instance {
        let mut inst = Instance::new();
        for (name, rel) in iter {
            inst.insert(name, rel);
        }
        inst
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.names().collect();
        names.sort_unstable();
        writeln!(
            f,
            "Instance({} relations, {} tuples)",
            names.len(),
            self.total_tuples()
        )?;
        for n in names {
            writeln!(f, "{n}: {:?}", self.get(n).expect("name listed"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut inst = Instance::new();
        inst.insert("R", Relation::from_pairs([(1, 2)]));
        assert!(inst.contains("R"));
        assert!(!inst.contains("S"));
        assert_eq!(inst.get("R").unwrap().len(), 1);
        assert!(inst.get("S").is_none());
    }

    #[test]
    fn from_iterator() {
        let inst: Instance = [
            ("R", Relation::from_pairs([(1, 2)])),
            ("S", Relation::from_pairs([(2, 3), (4, 5)])),
        ]
        .into_iter()
        .collect();
        assert_eq!(inst.n_relations(), 2);
        assert_eq!(inst.total_tuples(), 3);
    }

    #[test]
    fn with_relation_is_overlay() {
        let base: Instance = [("R", Relation::from_pairs([(1, 2)]))]
            .into_iter()
            .collect();
        let ext = base.with_relation("V", Relation::from_pairs([(9, 9)]));
        assert!(!base.contains("V"));
        assert!(ext.contains("V"));
        assert!(ext.contains("R"));
        // The base relation is shared, not copied.
        assert!(Arc::ptr_eq(
            &base.get_shared("R").unwrap(),
            &ext.get_shared("R").unwrap()
        ));
    }

    #[test]
    fn replace_overrides() {
        let base: Instance = [("R", Relation::from_pairs([(1, 2)]))]
            .into_iter()
            .collect();
        let ext = base.with_relation("R", Relation::from_pairs([(7, 7), (8, 8)]));
        assert_eq!(base.get("R").unwrap().len(), 1);
        assert_eq!(ext.get("R").unwrap().len(), 2);
    }
}
