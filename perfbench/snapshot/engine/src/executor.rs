//! The transaction executor: turns a plan into a stream of page touches.
//!
//! A [`TxnExecutor`] holds the progress of one running transaction instance.
//! The replica repeatedly calls [`TxnExecutor::next_touch`], feeds the page
//! through its buffer pool (and disk on a miss), charges the CPU cost, and
//! continues until the stream ends. Written rows accumulate into the
//! transaction's [`Writeset`].

use tashkent_sim::SimRng;
use tashkent_storage::{Catalog, GlobalPageId, RelationId};

use crate::plan::{Access, PlanStep, TxnPlan, WriteKind, WriteSpec};
use crate::types::{Snapshot, TxnId, TxnTypeId};
use crate::writeset::{Writeset, WritesetItem};

/// One page reference produced by the executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageTouch {
    /// The page referenced.
    pub page: GlobalPageId,
    /// CPU time consumed processing the page, in µs.
    pub cpu_us: u64,
    /// When `Some`, the touch dirties the page and records the row in the
    /// transaction's writeset.
    pub write: Option<WritesetItem>,
}

/// Progress within the current plan step.
#[derive(Debug, Clone)]
enum StepState {
    /// Not yet initialized for the current step.
    Fresh,
    /// Scanning pages `next..end` of a relation.
    Scanning {
        rel: RelationId,
        next: u32,
        end: u32,
    },
    /// `remaining` index lookups; each lookup emits its index-page touches
    /// then the heap-page touch.
    Lookups {
        remaining: u32,
        /// Queued touches for the in-progress lookup.
        pending_heap: Option<GlobalPageId>,
    },
    /// `remaining` row writes; index-maintenance page touches for the
    /// in-progress row are queued in `pending_index`.
    Writes {
        remaining: u32,
        pending_index: Vec<GlobalPageId>,
    },
}

/// Executes one transaction instance against a replica's storage.
#[derive(Debug, Clone)]
pub struct TxnExecutor {
    txn: TxnId,
    txn_type: TxnTypeId,
    plan: TxnPlan,
    snapshot: Snapshot,
    step: usize,
    state: StepState,
    base_charged: bool,
    items: Vec<WritesetItem>,
}

impl TxnExecutor {
    /// Starts executing `plan` for transaction `txn` at `snapshot`.
    pub fn new(txn: TxnId, txn_type: TxnTypeId, plan: TxnPlan, snapshot: Snapshot) -> Self {
        TxnExecutor {
            txn,
            txn_type,
            plan,
            snapshot,
            step: 0,
            state: StepState::Fresh,
            base_charged: false,
            items: Vec::new(),
        }
    }

    /// The transaction instance id.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// The transaction type id.
    pub fn txn_type(&self) -> TxnTypeId {
        self.txn_type
    }

    /// The snapshot this transaction reads from.
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot
    }

    /// Produces the next page touch, or `None` when the plan is exhausted.
    ///
    /// The very first touch additionally carries the plan's fixed base CPU
    /// cost.
    pub fn next_touch(&mut self, catalog: &Catalog, rng: &mut SimRng) -> Option<PageTouch> {
        loop {
            if self.step >= self.plan.steps.len() {
                return None;
            }
            if matches!(self.state, StepState::Fresh) {
                self.state = self.init_step(catalog, rng);
            }
            match self.advance(catalog, rng) {
                Some(mut touch) => {
                    if !self.base_charged {
                        touch.cpu_us += self.plan.cpu.base_us;
                        self.base_charged = true;
                    }
                    return Some(touch);
                }
                None => {
                    self.step += 1;
                    self.state = StepState::Fresh;
                }
            }
        }
    }

    fn init_step(&self, catalog: &Catalog, rng: &mut SimRng) -> StepState {
        match &self.plan.steps[self.step] {
            PlanStep::Read { rel, access } => match access {
                Access::SeqScan => {
                    let pages = catalog.get(*rel).pages;
                    StepState::Scanning {
                        rel: *rel,
                        next: 0,
                        end: pages,
                    }
                }
                Access::RangeScan { fraction, recent } => {
                    let pages = catalog.get(*rel).pages;
                    let span = ((pages as f64 * fraction).ceil() as u32).clamp(1, pages.max(1));
                    let start = if *recent {
                        pages.saturating_sub(span)
                    } else {
                        let slack = pages.saturating_sub(span);
                        rng.uniform_u64(0, slack as u64 + 1) as u32
                    };
                    StepState::Scanning {
                        rel: *rel,
                        next: start,
                        end: start + span,
                    }
                }
                Access::IndexLookup { lookups, .. } => StepState::Lookups {
                    remaining: *lookups,
                    pending_heap: None,
                },
            },
            PlanStep::Write(w) => StepState::Writes {
                remaining: w.rows,
                pending_index: Vec::new(),
            },
        }
    }

    fn advance(&mut self, catalog: &Catalog, rng: &mut SimRng) -> Option<PageTouch> {
        let cpu = self.plan.cpu;
        match &mut self.state {
            StepState::Fresh => unreachable!("state initialized before advance"),
            StepState::Scanning { rel, next, end } => {
                if next >= end {
                    return None;
                }
                let page = GlobalPageId::new(*rel, *next);
                *next += 1;
                Some(PageTouch {
                    page,
                    cpu_us: cpu.per_page_us,
                    write: None,
                })
            }
            StepState::Lookups {
                remaining,
                pending_heap,
            } => {
                // Emit the heap fetch queued by the previous index touch.
                if let Some(page) = pending_heap.take() {
                    return Some(PageTouch {
                        page,
                        cpu_us: cpu.per_page_us,
                        write: None,
                    });
                }
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                let (rel, theta) = match &self.plan.steps[self.step] {
                    PlanStep::Read {
                        rel,
                        access: Access::IndexLookup { theta, .. },
                    } => (*rel, *theta),
                    _ => unreachable!("Lookups state only for IndexLookup steps"),
                };
                let index = catalog.get(rel);
                let row = rng.zipf_rank(index.rows.max(1), theta);
                // Touch a leaf page of the index now…
                let leaf = index.page_of_row(row);
                // …and queue the heap fetch on the base table (if this is an
                // index; a direct table probe touches only the table page).
                if let Some(table) = index.table {
                    *pending_heap = Some(catalog.get(table).page_of_row(row));
                }
                Some(PageTouch {
                    page: leaf,
                    cpu_us: cpu.per_page_us,
                    write: None,
                })
            }
            StepState::Writes {
                remaining,
                pending_index,
            } => {
                // Emit queued index-maintenance touches for the previous row
                // (each write also dirties the relation's index pages —
                // PostgreSQL 8.0 updates every index on every row version).
                if let Some(page) = pending_index.pop() {
                    return Some(PageTouch {
                        page,
                        cpu_us: cpu.per_page_us,
                        write: Some(WritesetItem {
                            rel: page.rel,
                            row: 0, // Index pages carry no writeset row.
                        }),
                    });
                }
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                let spec = match &self.plan.steps[self.step] {
                    PlanStep::Write(w) => *w,
                    _ => unreachable!("Writes state only for Write steps"),
                };
                let row = choose_written_row(&spec, catalog, rng);
                let rel = catalog.get(spec.rel);
                let page = rel.page_of_row(row);
                let item = WritesetItem { rel: spec.rel, row };
                self.items.push(item);
                *pending_index = catalog
                    .indices_of(spec.rel)
                    .map(|idx| idx.page_of_row(row))
                    .collect();
                Some(PageTouch {
                    page,
                    cpu_us: cpu.per_write_us,
                    write: Some(item),
                })
            }
        }
    }

    /// Finishes the transaction, producing its writeset (empty for read-only
    /// transactions).
    pub fn into_writeset(self) -> Writeset {
        Writeset::new(self.txn, self.txn_type, self.snapshot, self.items)
    }
}

/// Picks the row an insert or update writes.
///
/// Inserts allocate fresh row ids past the relation's end — they can never
/// produce a write-write conflict (two inserts are distinct rows), and
/// `page_of_row` clamps them onto the relation's tail page, giving the
/// append locality (and write coalescing) of a real heap. Updates pick an
/// existing row across the relation with the spec's skew.
fn choose_written_row(spec: &WriteSpec, catalog: &Catalog, rng: &mut SimRng) -> u64 {
    let rel = catalog.get(spec.rel);
    let rows = rel.rows.max(1);
    match spec.kind {
        WriteKind::Insert => rows + rng.uniform_u64(0, 1 << 40),
        WriteKind::Update => rng.zipf_rank(rows, spec.theta),
        WriteKind::UpdateTail { window } => {
            let w = window.clamp(1, rows);
            rows - 1 - rng.uniform_u64(0, w)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CpuCosts;
    use crate::types::Version;
    use tashkent_sim::SimRng;
    use tashkent_storage::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let orders = c.add_table("orders", 100, 10_000);
        c.add_index("orders_pk", orders, 10, 10_000);
        c.add_table("item", 20, 1_000);
        c
    }

    fn run(plan: TxnPlan, catalog: &Catalog) -> (Vec<PageTouch>, Writeset) {
        let mut rng = SimRng::seed_from(1);
        let mut ex = TxnExecutor::new(TxnId(7), TxnTypeId(0), plan, Snapshot::at(Version(0)));
        let mut touches = Vec::new();
        while let Some(t) = ex.next_touch(catalog, &mut rng) {
            touches.push(t);
        }
        (touches, ex.into_writeset())
    }

    #[test]
    fn seq_scan_touches_every_page_in_order() {
        let c = catalog();
        let item = c.by_name("item").unwrap().id;
        let plan = TxnPlan::new(vec![PlanStep::Read {
            rel: item,
            access: Access::SeqScan,
        }]);
        let (touches, ws) = run(plan, &c);
        assert_eq!(touches.len(), 20);
        for (i, t) in touches.iter().enumerate() {
            assert_eq!(t.page, GlobalPageId::new(item, i as u32));
        }
        assert!(ws.is_empty());
    }

    #[test]
    fn base_cpu_charged_once_on_first_touch() {
        let c = catalog();
        let item = c.by_name("item").unwrap().id;
        let plan = TxnPlan::new(vec![PlanStep::Read {
            rel: item,
            access: Access::SeqScan,
        }])
        .with_cpu(CpuCosts {
            base_us: 1_000,
            per_page_us: 10,
            per_write_us: 0,
        });
        let (touches, _) = run(plan, &c);
        assert_eq!(touches[0].cpu_us, 1_010);
        assert!(touches[1..].iter().all(|t| t.cpu_us == 10));
    }

    #[test]
    fn recent_range_scan_is_anchored_at_tail() {
        let c = catalog();
        let orders = c.by_name("orders").unwrap().id;
        let plan = TxnPlan::new(vec![PlanStep::Read {
            rel: orders,
            access: Access::RangeScan {
                fraction: 0.25,
                recent: true,
            },
        }]);
        let (touches, _) = run(plan, &c);
        assert_eq!(touches.len(), 25);
        assert_eq!(touches.first().unwrap().page.page, 75);
        assert_eq!(touches.last().unwrap().page.page, 99);
    }

    #[test]
    fn random_range_scans_differ_across_instances() {
        let c = catalog();
        let orders = c.by_name("orders").unwrap().id;
        let plan = TxnPlan::new(vec![PlanStep::Read {
            rel: orders,
            access: Access::RangeScan {
                fraction: 0.1,
                recent: false,
            },
        }]);
        let mut rng = SimRng::seed_from(42);
        let mut starts = std::collections::BTreeSet::new();
        for i in 0..20 {
            let mut ex = TxnExecutor::new(
                TxnId(i),
                TxnTypeId(0),
                plan.clone(),
                Snapshot::at(Version(0)),
            );
            let first = ex.next_touch(&c, &mut rng).unwrap();
            starts.insert(first.page.page);
        }
        assert!(starts.len() > 5, "random ranges should vary: {starts:?}");
    }

    #[test]
    fn index_lookup_touches_leaf_then_heap() {
        let c = catalog();
        let opk = c.by_name("orders_pk").unwrap().id;
        let orders = c.by_name("orders").unwrap().id;
        let plan = TxnPlan::new(vec![PlanStep::Read {
            rel: opk,
            access: Access::IndexLookup {
                lookups: 5,
                theta: 0.0,
            },
        }]);
        let (touches, _) = run(plan, &c);
        assert_eq!(touches.len(), 10);
        for pair in touches.chunks(2) {
            assert_eq!(pair[0].page.rel, opk);
            assert_eq!(pair[1].page.rel, orders);
        }
    }

    #[test]
    fn writes_accumulate_into_writeset() {
        let c = catalog();
        let item = c.by_name("item").unwrap().id;
        let plan = TxnPlan::new(vec![PlanStep::Write(WriteSpec {
            rel: item,
            rows: 3,
            kind: WriteKind::Update,
            theta: 0.0,
        })]);
        let (touches, ws) = run(plan, &c);
        assert_eq!(touches.len(), 3);
        assert!(touches.iter().all(|t| t.write.is_some()));
        assert_eq!(ws.txn, TxnId(7));
        assert!(!ws.is_empty());
        assert!(ws.items.len() <= 3, "dedup may collapse repeats");
        assert!(ws.items.iter().all(|i| i.rel == item));
    }

    #[test]
    fn inserts_land_on_tail_page_with_fresh_rows() {
        let c = catalog();
        let orders = c.by_name("orders").unwrap().id;
        let plan = TxnPlan::new(vec![PlanStep::Write(WriteSpec {
            rel: orders,
            rows: 8,
            kind: WriteKind::Insert,
            theta: 0.0,
        })]);
        let (touches, ws) = run(plan, &c);
        let orders = c.by_name("orders").unwrap().id;
        let opk = c.by_name("orders_pk").unwrap().id;
        // Heap appends clamp onto the table's last page; each insert also
        // maintains the index (its tail page).
        for t in &touches {
            if t.page.rel == orders {
                assert_eq!(t.page.page, 99, "insert off the tail page: {t:?}");
            } else {
                assert_eq!(t.page.rel, opk, "unexpected relation: {t:?}");
                assert_eq!(t.page.page, 9, "index append off tail: {t:?}");
            }
        }
        assert_eq!(touches.len(), 16, "8 heap + 8 index touches");
        // Fresh row ids beyond the existing rows: inserts cannot conflict.
        assert!(ws.items.iter().all(|i| i.row >= 10_000));
    }

    #[test]
    fn multi_step_plans_execute_in_order() {
        let c = catalog();
        let item = c.by_name("item").unwrap().id;
        let orders = c.by_name("orders").unwrap().id;
        let plan = TxnPlan::new(vec![
            PlanStep::Read {
                rel: item,
                access: Access::SeqScan,
            },
            PlanStep::Write(WriteSpec {
                rel: orders,
                rows: 1,
                kind: WriteKind::Insert,
                theta: 0.0,
            }),
        ]);
        let (touches, ws) = run(plan, &c);
        // 20 scan pages + 1 heap write + 1 index-maintenance touch.
        assert_eq!(touches.len(), 22);
        assert!(touches[..20].iter().all(|t| t.page.rel == item));
        assert_eq!(touches[20].page.rel, orders);
        assert_eq!(ws.items.len(), 1, "index touches add no writeset items");
    }

    #[test]
    fn empty_plan_finishes_immediately() {
        let c = catalog();
        let mut rng = SimRng::seed_from(0);
        let mut ex = TxnExecutor::new(
            TxnId(0),
            TxnTypeId(0),
            TxnPlan::new(vec![]),
            Snapshot::at(Version(0)),
        );
        assert_eq!(ex.next_touch(&c, &mut rng), None);
        assert!(ex.into_writeset().is_empty());
    }

    #[test]
    fn executor_is_deterministic_per_seed() {
        let c = catalog();
        let opk = c.by_name("orders_pk").unwrap().id;
        let plan = TxnPlan::new(vec![PlanStep::Read {
            rel: opk,
            access: Access::IndexLookup {
                lookups: 10,
                theta: 0.5,
            },
        }]);
        let collect = |seed| {
            let mut rng = SimRng::seed_from(seed);
            let mut ex = TxnExecutor::new(
                TxnId(0),
                TxnTypeId(0),
                plan.clone(),
                Snapshot::at(Version(0)),
            );
            let mut v = Vec::new();
            while let Some(t) = ex.next_touch(&c, &mut rng) {
                v.push(t.page);
            }
            v
        };
        assert_eq!(collect(5), collect(5));
        assert_ne!(collect(5), collect(6));
    }
}
