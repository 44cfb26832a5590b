//! Clock-sweep buffer pool.
//!
//! PostgreSQL manages its shared buffers with a clock-sweep (second chance)
//! replacement policy over 8 KB pages; this is a faithful functional model of
//! that behaviour. The pool tracks residency, reference bits, and dirty bits.
//! It never holds page *contents* — the simulation only needs to know *which*
//! pages are resident and what that costs.

use std::collections::HashMap;

use crate::ids::{GlobalPageId, RelationId};

/// Result of touching a page in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// The page was resident; no disk activity needed.
    Hit,
    /// The page was absent and has been installed. If installing it evicted
    /// a victim, the victim and its dirty flag are reported so the caller
    /// can issue the write-back.
    Miss {
        /// Evicted victim page and whether it was dirty, if any.
        evicted: Option<(GlobalPageId, bool)>,
    },
}

/// Counters describing pool behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Touches that found the page resident.
    pub hits: u64,
    /// Touches that had to install the page.
    pub misses: u64,
    /// Evictions performed to make room.
    pub evictions: u64,
    /// Evictions whose victim was dirty (forcing a write-back).
    pub dirty_evictions: u64,
    /// Pages handed to the background writer for flushing.
    pub flushed: u64,
}

impl BufferStats {
    /// Hit fraction in `[0, 1]`; zero when no touches happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Frame {
    page: GlobalPageId,
    referenced: bool,
    dirty: bool,
}

/// A fixed-capacity page cache with clock-sweep replacement.
///
/// # Examples
///
/// ```
/// use tashkent_storage::{BufferPool, GlobalPageId, RelationId, Touch};
///
/// let mut pool = BufferPool::new(2);
/// let p = |n| GlobalPageId::new(RelationId(0), n);
/// assert_eq!(pool.touch(p(0)), Touch::Miss { evicted: None });
/// assert_eq!(pool.touch(p(0)), Touch::Hit);
/// pool.touch(p(1));
/// // Pool is full; a third page evicts a victim.
/// match pool.touch(p(2)) {
///     Touch::Miss { evicted: Some(_) } => {}
///     other => panic!("expected eviction, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Option<Frame>>,
    free: Vec<u32>,
    page_table: HashMap<GlobalPageId, u32>,
    hand: usize,
    dirty_count: usize,
    stats: BufferStats,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: Vec::new(),
            free: Vec::new(),
            page_table: HashMap::new(),
            hand: 0,
            dirty_count: 0,
            stats: BufferStats::default(),
        }
    }

    /// Creates a pool sized for `bytes` of memory (rounded down to pages).
    pub fn with_capacity_bytes(bytes: u64) -> Self {
        Self::new(((bytes / crate::ids::PAGE_SIZE) as usize).max(1))
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident pages.
    pub fn resident(&self) -> usize {
        self.page_table.len()
    }

    /// Current number of dirty resident pages.
    pub fn dirty_count(&self) -> usize {
        self.dirty_count
    }

    /// Behaviour counters.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Whether `page` is resident.
    pub fn is_resident(&self, page: GlobalPageId) -> bool {
        self.page_table.contains_key(&page)
    }

    /// References `page`, installing it on a miss and evicting if full.
    pub fn touch(&mut self, page: GlobalPageId) -> Touch {
        if let Some(&idx) = self.page_table.get(&page) {
            let frame = self.frames[idx as usize]
                .as_mut()
                .expect("page table points at occupied frame");
            frame.referenced = true;
            self.stats.hits += 1;
            return Touch::Hit;
        }
        self.stats.misses += 1;
        let evicted = self.install(page);
        Touch::Miss { evicted }
    }

    /// Marks a resident page dirty; returns `false` when the page is absent.
    pub fn mark_dirty(&mut self, page: GlobalPageId) -> bool {
        match self.page_table.get(&page) {
            Some(&idx) => {
                let frame = self.frames[idx as usize]
                    .as_mut()
                    .expect("page table points at occupied frame");
                if !frame.dirty {
                    frame.dirty = true;
                    self.dirty_count += 1;
                }
                true
            }
            None => false,
        }
    }

    fn install(&mut self, page: GlobalPageId) -> Option<(GlobalPageId, bool)> {
        if let Some(idx) = self.free.pop() {
            self.frames[idx as usize] = Some(Frame {
                page,
                referenced: true,
                dirty: false,
            });
            self.page_table.insert(page, idx);
            return None;
        }
        if self.frames.len() < self.capacity {
            let idx = self.frames.len() as u32;
            self.frames.push(Some(Frame {
                page,
                referenced: true,
                dirty: false,
            }));
            self.page_table.insert(page, idx);
            return None;
        }
        let victim_idx = self.sweep();
        let victim = self.frames[victim_idx]
            .replace(Frame {
                page,
                referenced: true,
                dirty: false,
            })
            .expect("sweep returns occupied frame");
        self.page_table.remove(&victim.page);
        self.page_table.insert(page, victim_idx as u32);
        self.stats.evictions += 1;
        if victim.dirty {
            self.dirty_count -= 1;
            self.stats.dirty_evictions += 1;
        }
        Some((victim.page, victim.dirty))
    }

    /// Clock-sweep: advance the hand, clearing reference bits, until an
    /// unreferenced occupied frame is found.
    fn sweep(&mut self) -> usize {
        // The pool is full (no free slots), so every frame is occupied and
        // the sweep terminates within two passes.
        loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let frame = self.frames[idx].as_mut().expect("pool is full");
            if frame.referenced {
                frame.referenced = false;
            } else {
                return idx;
            }
        }
    }

    /// Hands up to `max` dirty pages to the caller for write-back, clearing
    /// their dirty bits. The scan resumes from where the previous call left
    /// off, so successive calls cycle fairly through the pool.
    ///
    /// Clearing at collection time models write coalescing: a page updated
    /// many times between two writer rounds is written once.
    pub fn collect_dirty(&mut self, max: usize) -> Vec<GlobalPageId> {
        let mut out = Vec::new();
        if self.dirty_count == 0 || max == 0 || self.frames.is_empty() {
            return out;
        }
        let n = self.frames.len();
        let start = self.hand % n;
        for off in 0..n {
            if out.len() >= max {
                break;
            }
            let idx = (start + off) % n;
            if let Some(frame) = self.frames[idx].as_mut() {
                if frame.dirty {
                    frame.dirty = false;
                    self.dirty_count -= 1;
                    self.stats.flushed += 1;
                    out.push(frame.page);
                }
            }
        }
        out
    }

    /// Evicts every resident page of `rel`, returning `(clean, dirty)`
    /// eviction counts. Used when update filtering lets a replica drop a
    /// table it no longer serves (§3).
    pub fn evict_relation(&mut self, rel: RelationId) -> (usize, usize) {
        let mut clean = 0;
        let mut dirty = 0;
        for idx in 0..self.frames.len() {
            let matches = self.frames[idx].as_ref().is_some_and(|f| f.page.rel == rel);
            if matches {
                let frame = self.frames[idx].take().expect("checked above");
                self.page_table.remove(&frame.page);
                self.free.push(idx as u32);
                if frame.dirty {
                    self.dirty_count -= 1;
                    dirty += 1;
                } else {
                    clean += 1;
                }
            }
        }
        (clean, dirty)
    }

    /// Number of resident pages belonging to `rel` (metrics only; O(frames)).
    pub fn resident_of(&self, rel: RelationId) -> usize {
        self.frames
            .iter()
            .filter(|f| f.as_ref().is_some_and(|f| f.page.rel == rel))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RelationId;

    fn p(rel: u32, page: u32) -> GlobalPageId {
        GlobalPageId::new(RelationId(rel), page)
    }

    #[test]
    fn hit_after_install() {
        let mut pool = BufferPool::new(4);
        assert_eq!(pool.touch(p(0, 1)), Touch::Miss { evicted: None });
        assert_eq!(pool.touch(p(0, 1)), Touch::Hit);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn fills_before_evicting() {
        let mut pool = BufferPool::new(3);
        for i in 0..3 {
            assert_eq!(pool.touch(p(0, i)), Touch::Miss { evicted: None });
        }
        assert_eq!(pool.resident(), 3);
        match pool.touch(p(0, 3)) {
            Touch::Miss { evicted: Some(_) } => {}
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(pool.resident(), 3);
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn second_chance_protects_referenced_pages() {
        let mut pool = BufferPool::new(2);
        pool.touch(p(0, 0));
        pool.touch(p(0, 1));
        // Re-reference page 0 so its bit is set; page 1's bit is also set
        // from installation, so the sweep clears both and evicts the first
        // unreferenced frame it reaches on the second pass (frame 0).
        pool.touch(p(0, 0));
        pool.touch(p(0, 2));
        // One of the original pages is gone, the other survives.
        let survivors = [p(0, 0), p(0, 1)]
            .iter()
            .filter(|q| pool.is_resident(**q))
            .count();
        assert_eq!(survivors, 1);
        assert!(pool.is_resident(p(0, 2)));
    }

    #[test]
    fn scan_resistance_of_rereferenced_page() {
        // A page touched on every round should survive a long scan of
        // never-reused pages.
        let mut pool = BufferPool::new(8);
        let hot = p(9, 0);
        pool.touch(hot);
        for i in 0..100 {
            pool.touch(p(0, i));
            pool.touch(hot);
        }
        assert!(pool.is_resident(hot));
    }

    #[test]
    fn dirty_marking_and_eviction_reporting() {
        let mut pool = BufferPool::new(1);
        pool.touch(p(0, 0));
        assert!(pool.mark_dirty(p(0, 0)));
        assert_eq!(pool.dirty_count(), 1);
        // Marking twice does not double count.
        assert!(pool.mark_dirty(p(0, 0)));
        assert_eq!(pool.dirty_count(), 1);
        match pool.touch(p(0, 1)) {
            Touch::Miss {
                evicted: Some((victim, dirty)),
            } => {
                assert_eq!(victim, p(0, 0));
                assert!(dirty);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(pool.dirty_count(), 0);
        assert_eq!(pool.stats().dirty_evictions, 1);
    }

    #[test]
    fn mark_dirty_on_absent_page_fails() {
        let mut pool = BufferPool::new(1);
        assert!(!pool.mark_dirty(p(0, 0)));
        assert_eq!(pool.dirty_count(), 0);
    }

    #[test]
    fn collect_dirty_clears_bits_and_respects_budget() {
        let mut pool = BufferPool::new(8);
        for i in 0..6 {
            pool.touch(p(0, i));
            pool.mark_dirty(p(0, i));
        }
        let first = pool.collect_dirty(4);
        assert_eq!(first.len(), 4);
        assert_eq!(pool.dirty_count(), 2);
        let rest = pool.collect_dirty(100);
        assert_eq!(rest.len(), 2);
        assert_eq!(pool.dirty_count(), 0);
        assert!(pool.collect_dirty(100).is_empty());
        assert_eq!(pool.stats().flushed, 6);
        // No page was collected twice.
        let mut all: Vec<_> = first.into_iter().chain(rest).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn evict_relation_frees_frames_for_reuse() {
        let mut pool = BufferPool::new(4);
        pool.touch(p(1, 0));
        pool.touch(p(1, 1));
        pool.touch(p(2, 0));
        pool.mark_dirty(p(1, 0));
        let (clean, dirty) = pool.evict_relation(RelationId(1));
        assert_eq!((clean, dirty), (1, 1));
        assert_eq!(pool.resident(), 1);
        assert!(!pool.is_resident(p(1, 0)));
        assert!(pool.is_resident(p(2, 0)));
        // Freed frames are reused without eviction.
        assert_eq!(pool.touch(p(3, 0)), Touch::Miss { evicted: None });
        assert_eq!(pool.touch(p(3, 1)), Touch::Miss { evicted: None });
        assert_eq!(pool.resident(), 3);
    }

    #[test]
    fn resident_of_counts_per_relation() {
        let mut pool = BufferPool::new(4);
        pool.touch(p(1, 0));
        pool.touch(p(1, 1));
        pool.touch(p(2, 0));
        assert_eq!(pool.resident_of(RelationId(1)), 2);
        assert_eq!(pool.resident_of(RelationId(2)), 1);
        assert_eq!(pool.resident_of(RelationId(3)), 0);
    }

    #[test]
    fn hit_ratio_computation() {
        let mut pool = BufferPool::new(2);
        assert_eq!(pool.stats().hit_ratio(), 0.0);
        pool.touch(p(0, 0));
        pool.touch(p(0, 0));
        pool.touch(p(0, 0));
        pool.touch(p(0, 1));
        assert!((pool.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        BufferPool::new(0);
    }

    #[test]
    fn with_capacity_bytes_rounds_down() {
        let pool = BufferPool::with_capacity_bytes(crate::ids::PAGE_SIZE * 3 + 100);
        assert_eq!(pool.capacity(), 3);
        // Tiny budgets still get one frame.
        assert_eq!(BufferPool::with_capacity_bytes(1).capacity(), 1);
    }
}
