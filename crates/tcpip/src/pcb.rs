//! Protocol control block lookup (§3).
//!
//! BSD demultiplexes incoming TCP segments by searching a linked list
//! of PCBs; "the insertion algorithm ... places the most recent
//! creation at the head of the list" and lookup is linear. In front
//! of the list sits a **single-entry cache** of the most recently
//! used PCB — one half of what "header prediction" means in the BSD
//! code. The paper measures the linear search at "just less than
//! 1.3 µs" per entry on the DECstation and discusses three remedies:
//! a **move-to-front** list (so active connections migrate to the
//! head), the **last-PCB cache** already described, and "a simple
//! hash table implementation \[that\] could eliminate the lookup
//! problem entirely". All three live behind the [`PcbLookup`] trait;
//! [`PcbTable`] picks the implementation from the configured
//! [`PcbOrg`] and cache flag.
//!
//! The table stores connection *keys*; the TCP state itself lives in
//! [`crate::tcb::Tcb`], indexed by the id this table returns.

use std::collections::HashMap;

use crate::config::PcbOrg;

/// A connection 4-tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PcbKey {
    /// Local address.
    pub laddr: [u8; 4],
    /// Local port.
    pub lport: u16,
    /// Foreign address.
    pub faddr: [u8; 4],
    /// Foreign port.
    pub fport: u16,
}

/// Outcome of a lookup, carrying what it cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookupReceipt {
    /// The PCB id, if found.
    pub id: Option<usize>,
    /// Whether the single-entry cache hit.
    pub cache_hit: bool,
    /// 1-based position reached in the linear search (0 when the
    /// cache hit or the hash organization was used).
    pub search_len: usize,
    /// Whether the hash organization served the lookup.
    pub hashed: bool,
}

/// Per-strategy hit/miss/traversal accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PcbCounters {
    /// Total demultiplex lookups.
    pub lookups: u64,
    /// Lookups that resolved to a PCB.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups served by the single-entry cache.
    pub cache_hits: u64,
    /// Lookups that consulted the cache and fell through to the full
    /// search (only counted while the cache is enabled).
    pub cache_misses: u64,
    /// Total list entries touched by linear searches (the quantity
    /// the paper prices at ~1.3 µs per entry).
    pub traversed: u64,
    /// Hash-bucket probes.
    pub hash_probes: u64,
}

impl std::ops::AddAssign for PcbCounters {
    /// Field-wise sum. Destructures exhaustively, so a new counter
    /// fails to compile here until it is pooled too.
    fn add_assign(&mut self, o: PcbCounters) {
        let PcbCounters {
            lookups,
            hits,
            misses,
            cache_hits,
            cache_misses,
            traversed,
            hash_probes,
        } = o;
        self.lookups += lookups;
        self.hits += hits;
        self.misses += misses;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.traversed += traversed;
        self.hash_probes += hash_probes;
    }
}

/// One PCB lookup organization: the paper's move-to-front list,
/// last-PCB single-entry cache over the BSD list, or hash table.
///
/// Implementations must agree on *resolution* — the same sequence of
/// inserts, removes and lookups yields the same ids from each — and
/// may differ only in cost accounting ([`LookupReceipt`] and
/// [`PcbCounters`]).
pub trait PcbLookup {
    /// Short name for reports ("list", "mtf", "hash").
    fn name(&self) -> &'static str;

    /// Inserts a new PCB at the head (BSD: most recent creation
    /// first).
    fn insert_head(&mut self, key: PcbKey, id: usize);

    /// Appends a pre-existing PCB at the tail (ambient daemons that
    /// predate the benchmark connections).
    fn insert_tail(&mut self, key: PcbKey, id: usize);

    /// Removes a PCB by key, returning its id.
    fn remove(&mut self, key: &PcbKey) -> Option<usize>;

    /// Looks up a connection, updating any cache/ordering state, and
    /// reports what the search cost.
    fn lookup(&mut self, key: &PcbKey) -> LookupReceipt;

    /// Looks up a listening (wildcard-foreign) PCB for
    /// `laddr:lport`. Listeners are few, so the scan is linear under
    /// every organization, as in BSD (which fell back to wildcard
    /// matching during the same list walk).
    fn lookup_wildcard(&self, laddr: [u8; 4], lport: u16) -> Option<usize>;

    /// Number of PCBs.
    fn len(&self) -> usize;

    /// Whether the table holds no PCBs.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accumulated accounting.
    fn counters(&self) -> PcbCounters;
}

fn wildcard_scan(list: &[(PcbKey, usize)], laddr: [u8; 4], lport: u16) -> Option<usize> {
    list.iter()
        .find(|(k, _)| {
            k.faddr == [0, 0, 0, 0] && k.fport == 0 && k.lport == lport && k.laddr == laddr
        })
        .map(|&(_, id)| id)
}

/// The optional single-entry cache sitting in front of a full
/// search — "the most recently used PCB", one half of header
/// prediction.
#[derive(Clone, Copy, Debug)]
struct FrontCache {
    enabled: bool,
    entry: Option<(PcbKey, usize)>,
}

impl FrontCache {
    fn new(enabled: bool) -> Self {
        FrontCache {
            enabled,
            entry: None,
        }
    }

    /// Probes the cache; counts a hit or a miss when enabled.
    fn probe(&mut self, key: &PcbKey, c: &mut PcbCounters) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if let Some((ck, id)) = self.entry {
            if ck == *key {
                c.cache_hits += 1;
                return Some(id);
            }
        }
        c.cache_misses += 1;
        None
    }

    /// Records a successful full search (failed lookups must not
    /// poison the cache).
    fn note(&mut self, key: PcbKey, id: usize) {
        if self.enabled {
            self.entry = Some((key, id));
        }
    }

    fn invalidate(&mut self, key: &PcbKey) {
        if let Some((ck, _)) = self.entry {
            if ck == *key {
                self.entry = None;
            }
        }
    }
}

/// BSD's linked list, most recent creation at the head, with the
/// optional last-PCB cache in front. With the cache on this is the
/// paper's "single-entry cache" strategy; with it off, the measured
/// §3 baseline.
#[derive(Clone, Debug)]
pub struct BsdList {
    list: Vec<(PcbKey, usize)>,
    cache: FrontCache,
    counters: PcbCounters,
}

impl BsdList {
    /// Creates an empty list; `use_cache` enables the front cache.
    #[must_use]
    pub fn new(use_cache: bool) -> Self {
        BsdList {
            list: Vec::new(),
            cache: FrontCache::new(use_cache),
            counters: PcbCounters::default(),
        }
    }
}

impl PcbLookup for BsdList {
    fn name(&self) -> &'static str {
        "list"
    }

    fn insert_head(&mut self, key: PcbKey, id: usize) {
        self.list.insert(0, (key, id));
    }

    fn insert_tail(&mut self, key: PcbKey, id: usize) {
        self.list.push((key, id));
    }

    fn remove(&mut self, key: &PcbKey) -> Option<usize> {
        self.cache.invalidate(key);
        let pos = self.list.iter().position(|(k, _)| k == key)?;
        Some(self.list.remove(pos).1)
    }

    fn lookup(&mut self, key: &PcbKey) -> LookupReceipt {
        self.counters.lookups += 1;
        if let Some(id) = self.cache.probe(key, &mut self.counters) {
            self.counters.hits += 1;
            return LookupReceipt {
                id: Some(id),
                cache_hit: true,
                search_len: 0,
                hashed: false,
            };
        }
        let mut found = None;
        let mut steps = 0;
        for (i, (k, id)) in self.list.iter().enumerate() {
            steps = i + 1;
            if k == key {
                found = Some(*id);
                break;
            }
        }
        self.counters.traversed += steps as u64;
        if let Some(id) = found {
            self.counters.hits += 1;
            self.cache.note(*key, id);
        } else {
            self.counters.misses += 1;
        }
        LookupReceipt {
            id: found,
            cache_hit: false,
            search_len: steps,
            hashed: false,
        }
    }

    fn lookup_wildcard(&self, laddr: [u8; 4], lport: u16) -> Option<usize> {
        wildcard_scan(&self.list, laddr, lport)
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn counters(&self) -> PcbCounters {
        self.counters
    }
}

/// The move-to-front variant: a successful search splices the PCB to
/// the head, so steady traffic keeps its connections near the front
/// at the price of churn on every demultiplex.
#[derive(Clone, Debug)]
pub struct MtfList {
    list: Vec<(PcbKey, usize)>,
    cache: FrontCache,
    counters: PcbCounters,
}

impl MtfList {
    /// Creates an empty move-to-front list.
    #[must_use]
    pub fn new(use_cache: bool) -> Self {
        MtfList {
            list: Vec::new(),
            cache: FrontCache::new(use_cache),
            counters: PcbCounters::default(),
        }
    }
}

impl PcbLookup for MtfList {
    fn name(&self) -> &'static str {
        "mtf"
    }

    fn insert_head(&mut self, key: PcbKey, id: usize) {
        self.list.insert(0, (key, id));
    }

    fn insert_tail(&mut self, key: PcbKey, id: usize) {
        self.list.push((key, id));
    }

    fn remove(&mut self, key: &PcbKey) -> Option<usize> {
        self.cache.invalidate(key);
        let pos = self.list.iter().position(|(k, _)| k == key)?;
        Some(self.list.remove(pos).1)
    }

    fn lookup(&mut self, key: &PcbKey) -> LookupReceipt {
        self.counters.lookups += 1;
        if let Some(id) = self.cache.probe(key, &mut self.counters) {
            self.counters.hits += 1;
            return LookupReceipt {
                id: Some(id),
                cache_hit: true,
                search_len: 0,
                hashed: false,
            };
        }
        let mut found = None;
        let mut steps = 0;
        for (i, (k, id)) in self.list.iter().enumerate() {
            steps = i + 1;
            if k == key {
                found = Some((i, *id));
                break;
            }
        }
        self.counters.traversed += steps as u64;
        let id = match found {
            Some((pos, id)) => {
                // The splice that gives the strategy its name.
                if pos > 0 {
                    let e = self.list.remove(pos);
                    self.list.insert(0, e);
                }
                self.counters.hits += 1;
                self.cache.note(*key, id);
                Some(id)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        };
        LookupReceipt {
            id,
            cache_hit: false,
            search_len: steps,
            hashed: false,
        }
    }

    fn lookup_wildcard(&self, laddr: [u8; 4], lport: u16) -> Option<usize> {
        wildcard_scan(&self.list, laddr, lport)
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn counters(&self) -> PcbCounters {
        self.counters
    }
}

/// The hash table the paper suggests "could eliminate the lookup
/// problem entirely". A parallel insertion-ordered list is kept for
/// wildcard scans (and to keep removal/iteration deterministic).
#[derive(Clone, Debug)]
pub struct HashTable {
    list: Vec<(PcbKey, usize)>,
    hash: HashMap<PcbKey, usize>,
    cache: FrontCache,
    counters: PcbCounters,
}

impl HashTable {
    /// Creates an empty hash table.
    #[must_use]
    pub fn new(use_cache: bool) -> Self {
        HashTable {
            list: Vec::new(),
            hash: HashMap::new(),
            cache: FrontCache::new(use_cache),
            counters: PcbCounters::default(),
        }
    }
}

impl PcbLookup for HashTable {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn insert_head(&mut self, key: PcbKey, id: usize) {
        self.list.insert(0, (key, id));
        self.hash.insert(key, id);
    }

    fn insert_tail(&mut self, key: PcbKey, id: usize) {
        self.list.push((key, id));
        self.hash.insert(key, id);
    }

    fn remove(&mut self, key: &PcbKey) -> Option<usize> {
        self.cache.invalidate(key);
        self.hash.remove(key);
        let pos = self.list.iter().position(|(k, _)| k == key)?;
        Some(self.list.remove(pos).1)
    }

    fn lookup(&mut self, key: &PcbKey) -> LookupReceipt {
        self.counters.lookups += 1;
        if let Some(id) = self.cache.probe(key, &mut self.counters) {
            self.counters.hits += 1;
            return LookupReceipt {
                id: Some(id),
                cache_hit: true,
                search_len: 0,
                hashed: false,
            };
        }
        self.counters.hash_probes += 1;
        let id = self.hash.get(key).copied();
        match id {
            Some(found) => {
                self.counters.hits += 1;
                self.cache.note(*key, found);
            }
            None => self.counters.misses += 1,
        }
        LookupReceipt {
            id,
            cache_hit: false,
            search_len: 0,
            hashed: true,
        }
    }

    fn lookup_wildcard(&self, laddr: [u8; 4], lport: u16) -> Option<usize> {
        wildcard_scan(&self.list, laddr, lport)
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn counters(&self) -> PcbCounters {
        self.counters
    }
}

#[derive(Clone, Debug)]
enum Org {
    List(BsdList),
    Mtf(MtfList),
    Hash(HashTable),
}

/// The PCB table: id allocation plus one [`PcbLookup`] strategy
/// chosen from the configured organization and cache flag.
#[derive(Clone, Debug)]
pub struct PcbTable {
    inner: Org,
    /// Whether the cache is consulted (disabled together with header
    /// prediction in the §3 experiment, unless overridden).
    pub use_cache: bool,
    /// Organization used for the full lookup.
    pub org: PcbOrg,
    next_id: usize,
}

impl PcbTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new(org: PcbOrg, use_cache: bool) -> Self {
        let inner = match org {
            PcbOrg::List => Org::List(BsdList::new(use_cache)),
            PcbOrg::Mtf => Org::Mtf(MtfList::new(use_cache)),
            PcbOrg::Hash => Org::Hash(HashTable::new(use_cache)),
        };
        PcbTable {
            inner,
            use_cache,
            org,
            next_id: 0,
        }
    }

    /// The active strategy, as the trait.
    #[must_use]
    pub fn strategy(&self) -> &dyn PcbLookup {
        match &self.inner {
            Org::List(s) => s,
            Org::Mtf(s) => s,
            Org::Hash(s) => s,
        }
    }

    fn strategy_mut(&mut self) -> &mut dyn PcbLookup {
        match &mut self.inner {
            Org::List(s) => s,
            Org::Mtf(s) => s,
            Org::Hash(s) => s,
        }
    }

    /// Inserts a new PCB at the head of the list (BSD behaviour) and
    /// returns its id.
    pub fn insert(&mut self, key: PcbKey) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.strategy_mut().insert_head(key, id);
        id
    }

    /// Removes a PCB by key.
    pub fn remove(&mut self, key: &PcbKey) -> Option<usize> {
        self.strategy_mut().remove(key)
    }

    /// Number of PCBs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.strategy().len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a connection, updating the cache, and reports what
    /// the search cost.
    pub fn lookup(&mut self, key: &PcbKey) -> LookupReceipt {
        self.strategy_mut().lookup(key)
    }

    /// Looks up a listening (wildcard-foreign) PCB for `laddr:lport`.
    #[must_use]
    pub fn lookup_wildcard(&self, laddr: [u8; 4], lport: u16) -> Option<usize> {
        self.strategy().lookup_wildcard(laddr, lport)
    }

    /// Accumulated hit/miss/traversal accounting.
    #[must_use]
    pub fn counters(&self) -> PcbCounters {
        self.strategy().counters()
    }

    /// Lookups that hit the cache.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.counters().cache_hits
    }

    /// Lookups that consulted the cache and went to the full search.
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        self.counters().cache_misses
    }

    /// Fills the table with `n` ambient connections (the "standard
    /// ULTRIX daemons" of the test environment), inserted after any
    /// existing entries so the benchmark connection — created last —
    /// sits at the head, "since recently created connections go at
    /// the head of the list".
    pub fn add_ambient(&mut self, n: usize) {
        for i in 0..n {
            let key = PcbKey {
                laddr: [10, 0, 0, 1],
                lport: 6000 + i as u16,
                faddr: [10, 9, 9, 9],
                fport: 7000 + i as u16,
            };
            let id = self.next_id;
            self.next_id += 1;
            // Ambient daemons predate the benchmark: append at the tail.
            self.strategy_mut().insert_tail(key, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: u16) -> PcbKey {
        PcbKey {
            laddr: [10, 0, 0, 1],
            lport: p,
            faddr: [10, 0, 0, 2],
            fport: 4242,
        }
    }

    #[test]
    fn insert_places_at_head() {
        let mut t = PcbTable::new(PcbOrg::List, false);
        t.insert(key(1));
        t.insert(key(2));
        let r = t.lookup(&key(2));
        assert_eq!(r.search_len, 1, "most recent creation is at the head");
        let r = t.lookup(&key(1));
        assert_eq!(r.search_len, 2);
    }

    #[test]
    fn cache_hit_after_first_lookup() {
        let mut t = PcbTable::new(PcbOrg::List, true);
        t.insert(key(1));
        t.add_ambient(30);
        let first = t.lookup(&key(1));
        assert!(!first.cache_hit);
        assert_eq!(first.search_len, 1);
        let second = t.lookup(&key(1));
        assert!(second.cache_hit);
        assert_eq!(second.search_len, 0);
        assert_eq!(t.cache_hits(), 1);
        assert_eq!(t.cache_misses(), 1);
    }

    #[test]
    fn cache_disabled_always_searches() {
        let mut t = PcbTable::new(PcbOrg::List, false);
        t.add_ambient(10);
        t.insert(key(1));
        for _ in 0..3 {
            let r = t.lookup(&key(1));
            assert!(!r.cache_hit);
            assert_eq!(r.search_len, 1, "benchmark pcb is newest, at head");
        }
        assert_eq!(t.cache_hits(), 0);
    }

    #[test]
    fn ambient_pcbs_lengthen_misses_for_older_connections() {
        let mut t = PcbTable::new(PcbOrg::List, false);
        t.insert(key(9)); // Oldest.
        t.add_ambient(25);
        // key(9) is at the head (ambient appended at tail).
        assert_eq!(t.lookup(&key(9)).search_len, 1);
        // An ambient daemon connection is deep in the list.
        let daemon = PcbKey {
            laddr: [10, 0, 0, 1],
            lport: 6024,
            faddr: [10, 9, 9, 9],
            fport: 7024,
        };
        assert_eq!(t.lookup(&daemon).search_len, 26);
        // The BSD list does NOT move entries to the front: the same
        // daemon costs the same scan again.
        assert_eq!(t.lookup(&daemon).search_len, 26);
    }

    #[test]
    fn hash_lookup_has_no_search_length() {
        let mut t = PcbTable::new(PcbOrg::Hash, false);
        t.add_ambient(1000);
        t.insert(key(5));
        let r = t.lookup(&key(5));
        assert!(r.hashed);
        assert_eq!(r.search_len, 0);
        assert_eq!(r.id, Some(1000));
        assert_eq!(t.counters().hash_probes, 1);
    }

    #[test]
    fn missing_key_reports_full_scan() {
        let mut t = PcbTable::new(PcbOrg::List, true);
        t.add_ambient(7);
        let r = t.lookup(&key(99));
        assert_eq!(r.id, None);
        assert_eq!(r.search_len, 7);
        // A failed lookup must not poison the cache.
        t.insert(key(99));
        assert!(!t.lookup(&key(99)).cache_hit);
        assert!(t.lookup(&key(99)).cache_hit);
    }

    #[test]
    fn remove_clears_cache() {
        let mut t = PcbTable::new(PcbOrg::List, true);
        t.insert(key(1));
        let _ = t.lookup(&key(1));
        assert_eq!(t.remove(&key(1)), Some(0));
        let r = t.lookup(&key(1));
        assert_eq!(r.id, None);
        assert!(!r.cache_hit);
        assert!(t.is_empty());
    }

    #[test]
    fn mtf_moves_found_entries_to_the_head() {
        let mut t = PcbTable::new(PcbOrg::Mtf, false);
        t.insert(key(9));
        t.add_ambient(25);
        let daemon = PcbKey {
            laddr: [10, 0, 0, 1],
            lport: 6024,
            faddr: [10, 9, 9, 9],
            fport: 7024,
        };
        // First scan walks deep...
        assert_eq!(t.lookup(&daemon).search_len, 26);
        // ...and the splice makes the repeat scan trivial.
        assert_eq!(t.lookup(&daemon).search_len, 1);
        // The displaced former head moved down one slot.
        assert_eq!(t.lookup(&key(9)).search_len, 2);
        assert_eq!(t.counters().traversed, 26 + 1 + 2);
    }

    #[test]
    fn mtf_failed_lookup_moves_nothing() {
        let mut t = PcbTable::new(PcbOrg::Mtf, false);
        t.insert(key(1));
        t.insert(key(2));
        assert_eq!(t.lookup(&key(77)).id, None);
        assert_eq!(t.lookup(&key(2)).search_len, 1, "order undisturbed");
        assert_eq!(t.counters().misses, 1);
        assert_eq!(t.counters().hits, 1);
    }

    #[test]
    fn counters_track_hits_misses_and_traversal() {
        let mut t = PcbTable::new(PcbOrg::List, true);
        t.insert(key(1));
        t.add_ambient(4);
        let _ = t.lookup(&key(1)); // miss cache, walk 1
        let _ = t.lookup(&key(1)); // cache hit
        let _ = t.lookup(&key(42)); // miss entirely, walk 5
        let c = t.counters();
        assert_eq!(c.lookups, 3);
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 1);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.cache_misses, 2);
        assert_eq!(c.traversed, 1 + 5);
    }

    #[test]
    fn strategies_agree_on_resolution() {
        let mut tables = [
            PcbTable::new(PcbOrg::List, true),
            PcbTable::new(PcbOrg::Mtf, false),
            PcbTable::new(PcbOrg::Hash, false),
        ];
        for t in &mut tables {
            t.insert(key(1));
            t.add_ambient(8);
            t.insert(key(2));
            t.remove(&key(1));
        }
        for probe in [key(1), key(2), key(50)] {
            let ids: Vec<_> = tables.iter_mut().map(|t| t.lookup(&probe).id).collect();
            assert_eq!(ids[0], ids[1]);
            assert_eq!(ids[1], ids[2]);
        }
    }
}
