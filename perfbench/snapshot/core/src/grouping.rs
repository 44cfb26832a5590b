//! Transaction grouping by Best-Fit-Decreasing bin packing (§2.3).
//!
//! Given working-set estimates, transaction types are packed into groups
//! whose combined working sets fit the available memory of one replica.
//! Types whose individual estimate already exceeds memory are *overflow*
//! types and get dedicated groups.
//!
//! The three methods differ in what they count:
//! * **MALB-S** packs by size alone: a bin's load is the arithmetic sum of
//!   its members' sizes (shared relations double counted).
//! * **MALB-SC** packs by contents: a bin's load is the size of the *union*
//!   of its members' relation sets; a type fits when its non-overlapping
//!   pages fit, and among fitting bins the one with maximal overlap wins.
//! * **MALB-SCAP** is MALB-SC restricted to linearly-scanned relations.

use std::collections::BTreeMap;

use tashkent_engine::TxnTypeId;
use tashkent_storage::RelationId;

use crate::estimator::{EstimationMode, WorkingSet};

/// Identifies a transaction group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub usize);

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "group{}", self.0)
    }
}

/// A group of transaction types sharing replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnGroup {
    /// Member transaction types, in packing order.
    pub types: Vec<TxnTypeId>,
    /// The group's estimated combined working set: relation → pages under
    /// the packing mode (for MALB-S this holds each member's relations, but
    /// the load is tracked separately to preserve double counting).
    pub relations: BTreeMap<RelationId, u64>,
    /// Estimated combined working-set size in pages (mode-dependent).
    pub estimate_pages: u64,
    /// Whether this is a dedicated group for an overflow type.
    pub overflow: bool,
}

impl TxnGroup {
    fn new_overflow(ws: &WorkingSet, mode: EstimationMode) -> Self {
        TxnGroup {
            types: vec![ws.txn_type],
            relations: ws.relations_for(mode),
            estimate_pages: ws.pages_for(mode),
            overflow: true,
        }
    }

    fn new_seeded(ws: &WorkingSet, mode: EstimationMode) -> Self {
        TxnGroup {
            types: vec![ws.txn_type],
            relations: ws.relations_for(mode),
            estimate_pages: ws.pages_for(mode),
            overflow: false,
        }
    }

    /// Pages a candidate adds to this group (its non-overlap component)
    /// under content-aware packing; under size-only packing, its full size.
    fn added_pages(&self, ws: &WorkingSet, mode: EstimationMode) -> u64 {
        match mode {
            EstimationMode::Size => ws.pages_for(mode),
            _ => ws
                .relations_for(mode)
                .iter()
                .filter(|(r, _)| !self.relations.contains_key(*r))
                .map(|(_, p)| *p)
                .sum(),
        }
    }

    /// Pages a candidate shares with this group (zero under size-only
    /// packing, where overlap is not considered).
    fn overlap_pages(&self, ws: &WorkingSet, mode: EstimationMode) -> u64 {
        match mode {
            EstimationMode::Size => 0,
            _ => ws
                .relations_for(mode)
                .iter()
                .filter(|(r, _)| self.relations.contains_key(*r))
                .map(|(_, p)| *p)
                .sum(),
        }
    }

    fn add(&mut self, ws: &WorkingSet, mode: EstimationMode) {
        self.estimate_pages += self.added_pages(ws, mode);
        for (r, p) in ws.relations_for(mode) {
            self.relations.entry(r).or_insert(p);
        }
        self.types.push(ws.txn_type);
    }
}

/// Packs working sets into groups that fit `capacity_pages`, using
/// Best-Fit-Decreasing with the mode's size semantics.
///
/// Returns groups in creation order; group indices are stable [`GroupId`]s.
///
/// # Examples
///
/// ```
/// use std::collections::{BTreeMap, BTreeSet};
/// use tashkent_core::{pack_groups, EstimationMode, WorkingSet};
/// use tashkent_engine::TxnTypeId;
/// use tashkent_storage::RelationId;
///
/// let ws = |id: u32, rels: &[(u32, u64)]| WorkingSet {
///     txn_type: TxnTypeId(id),
///     relations: rels.iter().map(|(r, p)| (RelationId(*r), *p)).collect(),
///     scanned: rels.iter().map(|(r, _)| RelationId(*r)).collect(),
/// };
/// // Two types sharing a 60-page table fit one 100-page bin under SC…
/// let groups = pack_groups(
///     &[ws(0, &[(0, 60), (1, 20)]), ws(1, &[(0, 60), (2, 20)])],
///     EstimationMode::SizeContent,
///     100,
/// );
/// assert_eq!(groups.len(), 1);
/// // …but not under size-only packing (60+20+60+20 = 160 > 100).
/// let groups = pack_groups(
///     &[ws(0, &[(0, 60), (1, 20)]), ws(1, &[(0, 60), (2, 20)])],
///     EstimationMode::Size,
///     100,
/// );
/// assert_eq!(groups.len(), 2);
/// ```
pub fn pack_groups(
    working_sets: &[WorkingSet],
    mode: EstimationMode,
    capacity_pages: u64,
) -> Vec<TxnGroup> {
    // Decreasing size order; ties break by type id for determinism.
    let mut order: Vec<&WorkingSet> = working_sets.iter().collect();
    order.sort_by(|a, b| {
        b.pages_for(mode)
            .cmp(&a.pages_for(mode))
            .then(a.txn_type.cmp(&b.txn_type))
    });

    let mut groups: Vec<TxnGroup> = Vec::new();
    for ws in order {
        if ws.pages_for(mode) > capacity_pages {
            groups.push(TxnGroup::new_overflow(ws, mode));
            continue;
        }
        // Best fit: among non-overflow bins where the added pages fit,
        // prefer maximal overlap, then minimal resulting free space, then
        // lowest index. Overflow bins are closed — lightly loaded groups
        // may still end up sharing a replica later via the allocator's
        // merge step (§2.4), which is how the paper's Table 2 puts the
        // small probing types next to OrderDisplay.
        let mut best: Option<(usize, u64, u64)> = None; // (idx, overlap, free_after)
        for (idx, g) in groups.iter().enumerate() {
            if g.overflow {
                continue;
            }
            let added = g.added_pages(ws, mode);
            if g.estimate_pages + added > capacity_pages {
                continue;
            }
            let overlap = g.overlap_pages(ws, mode);
            let free_after = capacity_pages - g.estimate_pages - added;
            let better = match best {
                None => true,
                Some((_, bo, bf)) => overlap > bo || (overlap == bo && free_after < bf),
            };
            if better {
                best = Some((idx, overlap, free_after));
            }
        }
        match best {
            Some((idx, _, _)) => groups[idx].add(ws, mode),
            None => groups.push(TxnGroup::new_seeded(ws, mode)),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ws(id: u32, rels: &[(u32, u64)]) -> WorkingSet {
        ws_scanned(id, rels, rels.iter().map(|(r, _)| *r).collect::<Vec<_>>())
    }

    fn ws_scanned(id: u32, rels: &[(u32, u64)], scanned: Vec<u32>) -> WorkingSet {
        WorkingSet {
            txn_type: TxnTypeId(id),
            relations: rels.iter().map(|(r, p)| (RelationId(*r), *p)).collect(),
            scanned: scanned.into_iter().map(RelationId).collect::<BTreeSet<_>>(),
        }
    }

    fn types_of(g: &TxnGroup) -> Vec<u32> {
        let mut t: Vec<u32> = g.types.iter().map(|t| t.0).collect();
        t.sort();
        t
    }

    #[test]
    fn every_type_lands_in_exactly_one_group() {
        let sets = vec![
            ws(0, &[(0, 50)]),
            ws(1, &[(1, 30)]),
            ws(2, &[(2, 80)]),
            ws(3, &[(3, 200)]),
        ];
        let groups = pack_groups(&sets, EstimationMode::SizeContent, 100);
        let mut seen: Vec<u32> = groups
            .iter()
            .flat_map(|g| g.types.iter().map(|t| t.0))
            .collect();
        seen.sort();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn oversized_type_becomes_overflow_group() {
        let sets = vec![ws(0, &[(0, 500)]), ws(1, &[(1, 10)])];
        let groups = pack_groups(&sets, EstimationMode::SizeContent, 100);
        assert_eq!(groups.len(), 2);
        let overflow = groups.iter().find(|g| g.overflow).unwrap();
        assert_eq!(types_of(overflow), vec![0]);
        assert_eq!(overflow.estimate_pages, 500);
    }

    #[test]
    fn overflow_groups_accept_no_members() {
        // Type 1 would "fit" in the overflow bin arithmetically if overlap
        // were credited, but overflow bins are closed at packing time;
        // sharing only happens later through the allocator's merge step.
        let sets = vec![ws(0, &[(0, 500)]), ws(1, &[(0, 500)])];
        let groups = pack_groups(&sets, EstimationMode::SizeContent, 100);
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.overflow));
    }

    #[test]
    fn sc_credits_overlap_s_does_not() {
        let sets = vec![ws(0, &[(0, 60), (1, 20)]), ws(1, &[(0, 60), (2, 20)])];
        let sc = pack_groups(&sets, EstimationMode::SizeContent, 100);
        assert_eq!(sc.len(), 1);
        assert_eq!(sc[0].estimate_pages, 100); // 60 + 20 + 20
        let s = pack_groups(&sets, EstimationMode::Size, 100);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn scap_uses_scanned_only_and_overpacks() {
        // Each type references 90 pages but scans only 10: SCAP packs many
        // together where SC would not.
        let sets = vec![
            ws_scanned(0, &[(0, 80), (1, 10)], vec![1]),
            ws_scanned(1, &[(2, 80), (3, 10)], vec![3]),
            ws_scanned(2, &[(4, 80), (5, 10)], vec![5]),
        ];
        let scap = pack_groups(&sets, EstimationMode::SizeContentAccessPattern, 100);
        assert_eq!(scap.len(), 1, "SCAP packs all three by their scans");
        let sc = pack_groups(&sets, EstimationMode::SizeContent, 100);
        assert_eq!(sc.len(), 3, "SC sees the full 90-page footprints");
    }

    #[test]
    fn best_fit_prefers_maximal_overlap() {
        // Bin A = {0:40}, bin B = {1:40}. A new type {1:40, 2:10} overlaps B.
        let sets = vec![
            ws(0, &[(0, 40)]),
            ws(1, &[(1, 40)]),
            ws(2, &[(1, 40), (2, 10)]),
        ];
        let groups = pack_groups(&sets, EstimationMode::SizeContent, 60);
        // Type 2 must share a group with type 1.
        let with2 = groups
            .iter()
            .find(|g| g.types.contains(&TxnTypeId(2)))
            .unwrap();
        assert!(with2.types.contains(&TxnTypeId(1)));
    }

    #[test]
    fn bfd_places_largest_first() {
        // Descending order matters: the 70-page type seeds the first bin.
        let sets = vec![ws(0, &[(0, 30)]), ws(1, &[(1, 70)])];
        let groups = pack_groups(&sets, EstimationMode::SizeContent, 100);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].types[0], TxnTypeId(1), "largest seeds first bin");
    }

    #[test]
    fn non_overflow_bins_respect_capacity() {
        let sets: Vec<WorkingSet> = (0..20)
            .map(|i| ws(i, &[(i, 10 + (i as u64 * 7) % 60)]))
            .collect();
        for mode in [
            EstimationMode::Size,
            EstimationMode::SizeContent,
            EstimationMode::SizeContentAccessPattern,
        ] {
            let groups = pack_groups(&sets, mode, 100);
            for g in &groups {
                if !g.overflow {
                    assert!(g.estimate_pages <= 100, "{mode:?}: {g:?}");
                }
            }
        }
    }

    #[test]
    fn deterministic_for_equal_sizes() {
        let sets = vec![ws(2, &[(0, 50)]), ws(0, &[(1, 50)]), ws(1, &[(2, 50)])];
        let a = pack_groups(&sets, EstimationMode::SizeContent, 100);
        let b = pack_groups(&sets, EstimationMode::SizeContent, 100);
        assert_eq!(a, b);
        // Ties broken by type id: type 0 placed before 1 before 2.
        assert_eq!(a[0].types[0], TxnTypeId(0));
    }

    #[test]
    fn empty_input_gives_no_groups() {
        assert!(pack_groups(&[], EstimationMode::SizeContent, 100).is_empty());
    }
}
