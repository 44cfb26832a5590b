//! Working-set estimation from `EXPLAIN` plans and catalog metadata (§2.2).
//!
//! The working set of a database transaction is dominated by the tables and
//! indices it references. The estimator therefore:
//!
//! 1. obtains the transaction type's `EXPLAIN` plan (which relations, and
//!    whether each is scanned linearly or probed randomly),
//! 2. resolves each relation's size in pages from the catalog (`relpages`),
//! 3. produces a [`WorkingSet`]: the referenced relation set, the scanned
//!    subset, and page totals.
//!
//! Three estimation modes correspond to the paper's three grouping methods:
//! size only (MALB-S), size + contents (MALB-SC), and size + contents +
//! access pattern (MALB-SCAP, which keeps only linearly-scanned relations as
//! a lower-bound estimate).

use std::collections::{BTreeMap, BTreeSet};

use tashkent_engine::{ExplainPlan, TxnTypeId};
use tashkent_storage::{Catalog, RelationId, PAGE_SIZE};

/// How much plan information the estimator uses (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimationMode {
    /// MALB-S: working-set *size* only; overlap between types is ignored
    /// when combining.
    Size,
    /// MALB-SC: size plus *contents* — shared relations are not double
    /// counted when types are grouped.
    SizeContent,
    /// MALB-SCAP: size, contents, and *access pattern* — only linearly
    /// scanned relations count, a lower-bound estimate.
    SizeContentAccessPattern,
}

/// The estimated working set of one transaction type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkingSet {
    /// The transaction type.
    pub txn_type: TxnTypeId,
    /// Every referenced relation and its size in pages.
    pub relations: BTreeMap<RelationId, u64>,
    /// The subset reported as linearly scanned.
    pub scanned: BTreeSet<RelationId>,
}

impl WorkingSet {
    /// Upper-bound size in pages: all referenced relations (MALB-S/SC view).
    pub fn size_pages(&self) -> u64 {
        self.relations.values().sum()
    }

    /// Lower-bound size in pages: scanned relations only (MALB-SCAP view).
    pub fn scanned_pages(&self) -> u64 {
        self.scanned
            .iter()
            .map(|r| self.relations.get(r).copied().unwrap_or(0))
            .sum()
    }

    /// Size in pages under a given estimation mode.
    pub fn pages_for(&self, mode: EstimationMode) -> u64 {
        match mode {
            EstimationMode::Size | EstimationMode::SizeContent => self.size_pages(),
            EstimationMode::SizeContentAccessPattern => self.scanned_pages(),
        }
    }

    /// Relation set relevant under a given estimation mode.
    pub fn relations_for(&self, mode: EstimationMode) -> BTreeMap<RelationId, u64> {
        match mode {
            EstimationMode::Size | EstimationMode::SizeContent => self.relations.clone(),
            EstimationMode::SizeContentAccessPattern => self
                .relations
                .iter()
                .filter(|(r, _)| self.scanned.contains(r))
                .map(|(r, p)| (*r, *p))
                .collect(),
        }
    }

    /// Upper-bound size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_pages() * PAGE_SIZE
    }
}

/// Produces [`WorkingSet`]s from `EXPLAIN` plans and the catalog.
///
/// # Examples
///
/// ```
/// use tashkent_core::WorkingSetEstimator;
/// use tashkent_engine::{Access, ExplainPlan, PlanStep, TxnPlan, TxnTypeId};
/// use tashkent_storage::Catalog;
///
/// let mut catalog = Catalog::new();
/// let item = catalog.add_table("item", 1_250, 10_000);
/// let plan = TxnPlan::new(vec![PlanStep::Read { rel: item, access: Access::SeqScan }]);
/// let explain = ExplainPlan::from_plan(&plan, &catalog);
///
/// let est = WorkingSetEstimator::new(&catalog);
/// let ws = est.estimate(TxnTypeId(0), &explain);
/// assert_eq!(ws.size_pages(), 1_250);
/// assert_eq!(ws.scanned_pages(), 1_250);
/// ```
pub struct WorkingSetEstimator<'a> {
    catalog: &'a Catalog,
}

impl<'a> WorkingSetEstimator<'a> {
    /// Creates an estimator reading sizes from `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        WorkingSetEstimator { catalog }
    }

    /// Estimates the working set of one transaction type from its plan.
    ///
    /// Relations named in the plan but missing from the catalog are skipped
    /// (a dropped table still mentioned by a stale plan).
    pub fn estimate(&self, txn_type: TxnTypeId, explain: &ExplainPlan) -> WorkingSet {
        let mut relations = BTreeMap::new();
        let mut scanned = BTreeSet::new();
        for name in explain.referenced() {
            if let Some(rel) = self.catalog.by_name(name) {
                relations.insert(rel.id, rel.pages as u64);
            }
        }
        for name in explain.scanned() {
            if let Some(rel) = self.catalog.by_name(name) {
                scanned.insert(rel.id);
            }
        }
        WorkingSet {
            txn_type,
            relations,
            scanned,
        }
    }
}

/// Combined size in pages of two working sets when grouped, per mode:
/// MALB-S sums sizes (double counting shared relations); MALB-SC and
/// MALB-SCAP take the union.
///
/// This reproduces the paper's example: T1 uses tables A and B, T2 uses B
/// and C — MALB-S estimates |A| + 2|B| + |C|, MALB-SC estimates
/// |A| + |B| + |C|.
pub fn combined_pages(a: &WorkingSet, b: &WorkingSet, mode: EstimationMode) -> u64 {
    match mode {
        EstimationMode::Size => a.size_pages() + b.size_pages(),
        EstimationMode::SizeContent | EstimationMode::SizeContentAccessPattern => {
            let mut union = a.relations_for(mode);
            for (r, p) in b.relations_for(mode) {
                union.insert(r, p);
            }
            union.values().sum()
        }
    }
}

/// Combined size in pages of several working sets when grouped, per mode
/// (the n-ary generalization of [`combined_pages`]).
pub fn combined_pages_many(sets: &[WorkingSet], mode: EstimationMode) -> u64 {
    match mode {
        EstimationMode::Size => sets.iter().map(|w| w.size_pages()).sum(),
        EstimationMode::SizeContent | EstimationMode::SizeContentAccessPattern => {
            let mut union = std::collections::BTreeMap::new();
            for ws in sets {
                for (r, p) in ws.relations_for(mode) {
                    union.insert(r, p);
                }
            }
            union.values().sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_engine::{Access, PlanStep, TxnPlan, WriteKind, WriteSpec};

    fn setup() -> (Catalog, TxnPlan, TxnPlan) {
        let mut c = Catalog::new();
        let a = c.add_table("a", 100, 10_000);
        let b = c.add_table("b", 200, 20_000);
        let cc = c.add_table("c", 50, 5_000);
        c.add_index("b_pk", b, 20, 20_000);
        // T1: scans a, scans b.
        let t1 = TxnPlan::new(vec![
            PlanStep::Read {
                rel: a,
                access: Access::SeqScan,
            },
            PlanStep::Read {
                rel: b,
                access: Access::SeqScan,
            },
        ]);
        // T2: scans c, probes b through its index.
        let bpk = c.by_name("b_pk").unwrap().id;
        let t2 = TxnPlan::new(vec![
            PlanStep::Read {
                rel: cc,
                access: Access::SeqScan,
            },
            PlanStep::Read {
                rel: bpk,
                access: Access::IndexLookup {
                    lookups: 3,
                    theta: 0.0,
                },
            },
        ]);
        (c, t1, t2)
    }

    fn estimate(c: &Catalog, plan: &TxnPlan, id: u32) -> WorkingSet {
        let explain = ExplainPlan::from_plan(plan, c);
        WorkingSetEstimator::new(c).estimate(TxnTypeId(id), &explain)
    }

    #[test]
    fn size_is_sum_of_referenced_relations() {
        let (c, t1, _) = setup();
        let ws = estimate(&c, &t1, 0);
        assert_eq!(ws.size_pages(), 300);
        assert_eq!(ws.size_bytes(), 300 * PAGE_SIZE);
    }

    #[test]
    fn index_probe_includes_index_and_heap() {
        let (c, _, t2) = setup();
        let ws = estimate(&c, &t2, 1);
        // c (50) + b_pk (20) + heap b (200) = 270.
        assert_eq!(ws.size_pages(), 270);
    }

    #[test]
    fn scanned_subset_excludes_probed_relations() {
        let (c, _, t2) = setup();
        let ws = estimate(&c, &t2, 1);
        // Only `c` is linearly scanned; b/b_pk are random.
        assert_eq!(ws.scanned_pages(), 50);
        assert_eq!(ws.pages_for(EstimationMode::SizeContentAccessPattern), 50);
        assert_eq!(ws.pages_for(EstimationMode::SizeContent), 270);
    }

    #[test]
    fn combined_sizes_match_paper_example() {
        // Paper §2.3: T1 uses A and B; T2 uses B and C.
        let mut c = Catalog::new();
        let a = c.add_table("A", 100, 1);
        let b = c.add_table("B", 200, 1);
        let cc = c.add_table("C", 50, 1);
        let t1 = TxnPlan::new(vec![
            PlanStep::Read {
                rel: a,
                access: Access::SeqScan,
            },
            PlanStep::Read {
                rel: b,
                access: Access::SeqScan,
            },
        ]);
        let t2 = TxnPlan::new(vec![
            PlanStep::Read {
                rel: b,
                access: Access::SeqScan,
            },
            PlanStep::Read {
                rel: cc,
                access: Access::SeqScan,
            },
        ]);
        let w1 = estimate(&c, &t1, 0);
        let w2 = estimate(&c, &t2, 1);
        // MALB-S double counts B: |A| + 2|B| + |C| = 550.
        assert_eq!(combined_pages(&w1, &w2, EstimationMode::Size), 550);
        // MALB-SC avoids recounting: |A| + |B| + |C| = 350.
        assert_eq!(combined_pages(&w1, &w2, EstimationMode::SizeContent), 350);
    }

    #[test]
    fn writes_contribute_written_tables_and_indices() {
        let mut c = Catalog::new();
        let orders = c.add_table("orders", 140, 10_000);
        c.add_index("orders_pk", orders, 20, 10_000);
        let plan = TxnPlan::new(vec![PlanStep::Write(WriteSpec {
            rel: orders,
            rows: 1,
            kind: WriteKind::Insert,
            theta: 0.0,
        })]);
        let ws = estimate(&c, &plan, 0);
        assert_eq!(ws.size_pages(), 160);
        assert_eq!(ws.scanned_pages(), 0, "writes are random access");
    }

    #[test]
    fn missing_relations_are_skipped() {
        let (c, t1, _) = setup();
        let mut explain = ExplainPlan::from_plan(&t1, &c);
        explain.steps.push(tashkent_engine::ExplainStep {
            relation: "ghost".to_string(),
            access: tashkent_engine::ExplainAccess::SeqScan,
        });
        let ws = WorkingSetEstimator::new(&c).estimate(TxnTypeId(0), &explain);
        assert_eq!(ws.size_pages(), 300);
    }

    #[test]
    fn relations_for_scap_filters_to_scanned() {
        let (c, _, t2) = setup();
        let ws = estimate(&c, &t2, 1);
        let scap = ws.relations_for(EstimationMode::SizeContentAccessPattern);
        assert_eq!(scap.len(), 1);
        let sc = ws.relations_for(EstimationMode::SizeContent);
        assert_eq!(sc.len(), 3);
    }
}
