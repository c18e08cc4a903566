//! A set-associative LRU cache model.

/// Geometry of one cache (or TLB: set `line_bytes` to the page size).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set); use `usize::MAX` for fully
    /// associative.
    pub ways: usize,
}

impl CacheConfig {
    /// A 32 KB, 8-way, 64 B-line L1.
    pub fn l1_nehalem() -> CacheConfig {
        CacheConfig {
            line_bytes: 64,
            capacity_bytes: 32 * 1024,
            ways: 8,
        }
    }

    /// A 256 KB, 8-way, 64 B-line L2.
    pub fn l2_nehalem() -> CacheConfig {
        CacheConfig {
            line_bytes: 64,
            capacity_bytes: 256 * 1024,
            ways: 8,
        }
    }

    /// A 32 KB, 8-way, 128 B-line Power7-style L1.
    pub fn l1_power7() -> CacheConfig {
        CacheConfig {
            line_bytes: 128,
            capacity_bytes: 32 * 1024,
            ways: 8,
        }
    }

    fn n_sets(&self) -> usize {
        let lines = self.capacity_bytes / self.line_bytes;
        let ways = self.ways.min(lines.max(1));
        (lines / ways).max(1)
    }
}

/// Hit/miss counters, with misses split into compulsory (first touch of
/// a line) and capacity/conflict (re-fetch of an evicted line).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses (cold + capacity + conflict).
    pub misses: u64,
    /// First-touch (compulsory) misses.
    pub cold_misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; 0 for an empty trace.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Capacity/conflict misses (total minus compulsory): the part loop
    /// transformations can actually remove.
    pub fn replacement_misses(&self) -> u64 {
        self.misses - self.cold_misses
    }
}

/// A set-associative cache with LRU replacement.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<(u64, u64)>>, // (tag, last_use) per way
    clock: u64,
    stats: CacheStats,
    /// Every line ever touched (for compulsory-miss classification).
    seen: std::collections::HashSet<u64>,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Cache {
        let n = config.n_sets();
        Cache {
            config,
            sets: vec![Vec::new(); n],
            clock: 0,
            stats: CacheStats::default(),
            seen: std::collections::HashSet::new(),
        }
    }

    /// Touches the byte address; returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let line = addr / self.config.line_bytes as u64;
        let n_sets = self.sets.len() as u64;
        let set_idx = (line % n_sets) as usize;
        let tag = line / n_sets;
        let ways = self
            .config
            .ways
            .min((self.config.capacity_bytes / self.config.line_bytes).max(1));
        let set = &mut self.sets[set_idx];
        if let Some(e) = set.iter_mut().find(|(t, _)| *t == tag) {
            e.1 = self.clock;
            return true;
        }
        self.stats.misses += 1;
        if self.seen.insert(line) {
            self.stats.cold_misses += 1;
        }
        if set.len() >= ways {
            // Evict LRU (the set is non-empty here: ways >= 1).
            if let Some(lru) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(i, _)| i)
            {
                set.swap_remove(lru);
            }
        }
        set.push((tag, self.clock));
        false
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of distinct lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines of 64 B, 2-way => 2 sets.
        Cache::new(CacheConfig {
            line_bytes: 64,
            capacity_bytes: 256,
            ways: 2,
        })
    }

    #[test]
    fn cold_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().accesses, 4);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (2 sets): third insert evicts LRU.
        c.access(0); // line 0, set 0
        c.access(2 * 64); // line 2, set 0
        c.access(0); // refresh line 0
        c.access(4 * 64); // line 4, set 0: evicts line 2 (LRU)
        assert!(c.access(0), "line 0 must have survived");
        assert!(!c.access(2 * 64), "line 2 must have been evicted");
    }

    #[test]
    fn streaming_misses_every_line() {
        let mut c = tiny();
        for i in 0..100u64 {
            c.access(i * 64);
        }
        assert_eq!(c.stats().misses, 100);
    }

    #[test]
    fn small_working_set_hits_after_warmup() {
        let mut c = tiny();
        for _pass in 0..10 {
            for i in 0..4u64 {
                c.access(i * 64);
            }
        }
        // 4 lines fit exactly; after the cold pass everything hits.
        assert_eq!(c.stats().misses, 4);
        assert_eq!(c.resident_lines(), 4);
    }

    #[test]
    fn miss_ratio_math() {
        let s = CacheStats {
            accesses: 10,
            misses: 3,
            cold_misses: 2,
        };
        assert!((s.miss_ratio() - 0.3).abs() < 1e-12);
        assert_eq!(s.replacement_misses(), 1);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn cold_vs_replacement_classification() {
        let mut c = tiny(); // 4 lines, 2-way, 2 sets
        // Touch 3 lines of set 0 (capacity 2 ways): line 4 evicts line 0.
        c.access(0);
        c.access(2 * 64);
        c.access(4 * 64);
        assert_eq!(c.stats().cold_misses, 3);
        assert_eq!(c.stats().replacement_misses(), 0);
        // Line 0 again: a replacement (non-compulsory) miss.
        assert!(!c.access(0));
        assert_eq!(c.stats().cold_misses, 3);
        assert_eq!(c.stats().replacement_misses(), 1);
    }
}
