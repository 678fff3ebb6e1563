//! The [`Pile`]-backed mode of the verdict cache: a crash-safe, shared,
//! append-only store any number of workers can write concurrently.
//!
//! Every cache record in the pile carries a complete version-2 cache file
//! ([`crate::persist`]) as its payload — holding the entries that one
//! append found new, not the appender's whole cache. That choice keeps the
//! bridge honest in both directions:
//!
//! * **import** ([`PileStore::append_cache_bytes`]) is "validate, then
//!   append the file bytes" — an existing `.vcapcache` migrates without
//!   re-encoding, so nothing can be lost in translation;
//! * **export / load** ([`PileStore::merged_bytes`], [`PileStore::load`])
//!   is exactly [`merge_cache_bytes`] over the records in append order —
//!   so reloading a pile N workers appended disjoint verdict sets to is
//!   *byte-identical* to merging those workers' cache files with the CLI.
//!   "Merge" stops being an operation: point two engines at the same pile
//!   and the union is just what the pile contains.
//!
//! Appends are deltas. A store remembers which cache keys — and, per
//! candidate space, how long a snapshot — the pile already holds: seeded
//! from the records [`PileStore::load`] / [`PileStore::load_spaces`]
//! parse; the first append runs that load itself when none ran. An append
//! encodes only what is not yet held, and one that finds nothing new
//! writes nothing (no record, no `fdatasync`). Repeated identical runs therefore
//! leave the pile exactly as the first run left it. Keys are
//! content-addressed fingerprints, so a held key is the same verdict
//! whichever process or catalog appended it; a key another process
//! appended since this store last read the pile is at worst written twice,
//! which merging absorbs.
//!
//! Concurrency: appends go through the pile's single-write `O_APPEND`
//! discipline, so processes and threads interleave whole records, never
//! bytes, and a reader polling mid-append can never observe a torn
//! record. A crash mid-append damages only the suffix;
//! [`PileStore::recover`] truncates it back to the last valid prefix and
//! reports what was dropped.

use crate::cache::{CacheKey, VerdictCache};
use crate::persist::{
    load_cache_keyed, merge_cache_bytes, save_entries, validate_cache_bytes, MergeReport,
    PersistError,
};
use crate::spacestore::{SpaceLibrary, SpaceStoreError};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;
use viewcap_base::Catalog;
use viewcap_obs as obs;
use viewcap_pile::{Pile, PileError, RecoveryReport};

/// Records appended by [`PileStore::append_cache`] /
/// [`PileStore::append_spaces`], and calls of either that found nothing
/// new and wrote nothing (telemetry; live only while enabled).
static APPEND_RECORDS: obs::Counter = obs::Counter::new("pile.append.records");
static APPEND_SKIPPED: obs::Counter = obs::Counter::new("pile.append.skipped");

/// Record kind of a cache record (a version-2 cache file).
pub const CACHE_RECORD_KIND: u8 = 1;

/// Record kind of a candidate-space record (a [`SpaceLibrary`] file).
/// Rides the same pile as verdict records — readers of either kind skip
/// the other — so one append-only file carries a catalog's full
/// warm-start state.
pub const SPACE_RECORD_KIND: u8 = 2;

/// Why a pile-store operation failed.
#[derive(Debug)]
pub enum PileStoreError {
    /// The underlying pile rejected the operation (I/O or framing).
    Pile(PileError),
    /// A record's cache payload failed to parse, or an import candidate
    /// was rejected before being appended.
    Persist(PersistError),
    /// A record's space-library payload failed to parse, or an import
    /// candidate was rejected before being appended.
    Space(SpaceStoreError),
}

impl fmt::Display for PileStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PileStoreError::Pile(e) => write!(f, "{e}"),
            PileStoreError::Persist(e) => write!(f, "{e}"),
            PileStoreError::Space(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PileStoreError {}

impl From<PileError> for PileStoreError {
    fn from(e: PileError) -> Self {
        PileStoreError::Pile(e)
    }
}

impl From<PersistError> for PileStoreError {
    fn from(e: PersistError) -> Self {
        PileStoreError::Persist(e)
    }
}

impl From<SpaceStoreError> for PileStoreError {
    fn from(e: SpaceStoreError) -> Self {
        PileStoreError::Space(e)
    }
}

/// A verdict store over an append-only [`Pile`].
pub struct PileStore {
    pile: Pile,
    /// Cache keys the pile holds; `None` until a load or append reads them.
    held: Option<HashSet<CacheKey>>,
    /// Per space key, the snapshot length the pile holds (the longest
    /// wins on load); `None` until a load or append reads them.
    held_spaces: Option<HashMap<u128, usize>>,
}

impl PileStore {
    /// Open (creating if absent) a pile store. Rejects a structurally
    /// damaged pile; use [`PileStore::recover`] to truncate damage away.
    pub fn open(path: impl AsRef<Path>) -> Result<PileStore, PileStoreError> {
        Ok(PileStore::over(Pile::open(path)?))
    }

    /// Open a pile store, truncating any damaged suffix (a crash
    /// mid-append) back to the last valid prefix. The report says whether
    /// anything was dropped — a daemon prints it on startup.
    pub fn recover(path: impl AsRef<Path>) -> Result<(PileStore, RecoveryReport), PileStoreError> {
        let (pile, report) = Pile::recover(path)?;
        Ok((PileStore::over(pile), report))
    }

    fn over(pile: Pile) -> PileStore {
        PileStore {
            pile,
            held: None,
            held_spaces: None,
        }
    }

    /// The pile's path.
    pub fn path(&self) -> &Path {
        self.pile.path()
    }

    /// Append, as one record, the entries of `cache` the pile does not
    /// hold yet (`catalog` resolving native entries' names). When every
    /// entry is already held, appends nothing. Returns the appended
    /// record's size in bytes (0 when nothing was appended).
    pub fn append_cache(
        &mut self,
        cache: &VerdictCache,
        catalog: &Catalog,
    ) -> Result<usize, PileStoreError> {
        if self.held.is_none() {
            // Seeds `held`; a bound of one keeps the throwaway cache small.
            self.load(Some(1))?;
        }
        let held = self.held.as_mut().expect("seeded above");
        let mut fresh = cache.snapshot();
        fresh.retain(|(key, _)| !held.contains(key));
        if fresh.is_empty() {
            APPEND_SKIPPED.add(1);
            return Ok(0);
        }
        let bytes = save_entries(cache, &fresh, catalog);
        let written = self.pile.append(CACHE_RECORD_KIND, &bytes)?;
        held.extend(fresh.iter().map(|(key, _)| *key));
        APPEND_RECORDS.add(1);
        Ok(written)
    }

    /// Import bridge: append an existing cache file's bytes as one record,
    /// after fully validating them — a corrupt or version-skewed file is
    /// rejected and the pile is untouched. Returns the file's entry count.
    pub fn append_cache_bytes(&mut self, bytes: &[u8]) -> Result<usize, PileStoreError> {
        let entries = validate_cache_bytes(bytes)?;
        self.pile.append(CACHE_RECORD_KIND, bytes)?;
        Ok(entries)
    }

    /// The pile's cache records' payloads, in append order. Unknown record
    /// kinds are skipped (future formats may ride the same pile).
    fn cache_payloads(&mut self) -> Result<Vec<Vec<u8>>, PileStoreError> {
        Ok(self
            .pile
            .records()?
            .into_iter()
            .filter(|r| r.kind == CACHE_RECORD_KIND)
            .map(|r| r.payload)
            .collect())
    }

    /// Export bridge: merge every cache record into one canonical v2 cache
    /// file — byte-identical to `viewcap-cli cache merge` over the same
    /// snapshots in the same order. An empty pile merges to an empty cache
    /// file.
    pub fn merged_bytes(&mut self) -> Result<(Vec<u8>, MergeReport), PileStoreError> {
        Ok(merge_cache_bytes(&self.cache_payloads()?)?)
    }

    /// Load the pile's union verdict set as a cache bounded by
    /// `max_entries` (`None` = unbounded), ready for
    /// [`crate::EngineConfig::cache`]. Entries load `foreign` and translate
    /// into the live catalog on first hit, exactly as file-loaded caches
    /// do. Also records which keys the pile holds, so later appends write
    /// only new verdicts.
    pub fn load(&mut self, max_entries: Option<usize>) -> Result<VerdictCache, PileStoreError> {
        let payloads = self.cache_payloads()?;
        if payloads.is_empty() {
            self.held = Some(HashSet::new());
            return Ok(VerdictCache::bounded(max_entries));
        }
        let (merged, _) = merge_cache_bytes(&payloads)?;
        let (cache, keys) = load_cache_keyed(&merged, max_entries)?;
        self.held = Some(keys.into_iter().collect());
        Ok(cache)
    }

    /// Number of cache records currently in the pile.
    pub fn record_count(&mut self) -> Result<usize, PileStoreError> {
        Ok(self.cache_payloads()?.len())
    }

    /// Append, as one record, the snapshots of `spaces` the pile does not
    /// hold at their current length — new space keys, and spaces grown
    /// since their last append. When nothing is new, appends nothing.
    /// Returns the appended record's size in bytes (0 when nothing was
    /// appended).
    pub fn append_spaces(&mut self, spaces: &SpaceLibrary) -> Result<usize, PileStoreError> {
        if self.held_spaces.is_none() && self.load_spaces().is_err() {
            // Space records that do not parse seed nothing: appending a
            // snapshot twice is harmless, failing the caller's run is not.
            self.held_spaces = Some(HashMap::new());
        }
        let held = self.held_spaces.as_mut().expect("seeded above");
        let mut fresh = SpaceLibrary::new();
        for (key, bytes) in spaces.iter() {
            if held.get(&key).is_none_or(|&len| len < bytes.len()) {
                fresh.insert(key, bytes.to_vec());
            }
        }
        if fresh.is_empty() {
            APPEND_SKIPPED.add(1);
            return Ok(0);
        }
        let written = self.pile.append(SPACE_RECORD_KIND, &fresh.to_bytes())?;
        held.extend(fresh.iter().map(|(key, bytes)| (key, bytes.len())));
        APPEND_RECORDS.add(1);
        Ok(written)
    }

    /// Import bridge: append an existing space-library file's bytes as one
    /// record, after fully validating them. Returns the library's entry
    /// count.
    pub fn append_space_bytes(&mut self, bytes: &[u8]) -> Result<usize, PileStoreError> {
        let entries = SpaceLibrary::from_bytes(bytes)?.len();
        self.pile.append(SPACE_RECORD_KIND, bytes)?;
        Ok(entries)
    }

    /// The union of every space record, merged in append order (per space
    /// key, the snapshot with the most levels wins). An empty or
    /// space-record-free pile loads an empty library. Also records which
    /// snapshots the pile holds, so later appends write only new ones.
    pub fn load_spaces(&mut self) -> Result<SpaceLibrary, PileStoreError> {
        let mut out = SpaceLibrary::new();
        for record in self.pile.records()? {
            if record.kind != SPACE_RECORD_KIND {
                continue;
            }
            out.merge(SpaceLibrary::from_bytes(&record.payload)?);
        }
        self.held_spaces = Some(out.iter().map(|(key, bytes)| (key, bytes.len())).collect());
        Ok(out)
    }

    /// Number of space records currently in the pile.
    pub fn space_record_count(&mut self) -> Result<usize, PileStoreError> {
        Ok(self
            .pile
            .records()?
            .into_iter()
            .filter(|r| r.kind == SPACE_RECORD_KIND)
            .count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::persist::save_cache;
    use crate::workload::Check;
    use viewcap_core::{Query, View};
    use viewcap_expr::parse_expr;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("viewcap-pilestore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.vcappile"));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn setup() -> (Catalog, View) {
        let mut cat = Catalog::new();
        cat.relation("R", &["A", "B", "C"]).unwrap();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let bc = cat.scheme(&["B", "C"]).unwrap();
        let v1 = cat.fresh_relation("v1", ab);
        let v2 = cat.fresh_relation("v2", bc);
        let view = View::from_exprs(
            vec![
                (parse_expr("pi{A,B}(R)", &cat).unwrap(), v1),
                (parse_expr("pi{B,C}(R)", &cat).unwrap(), v2),
            ],
            &cat,
        )
        .unwrap();
        (cat, view)
    }

    fn decide(engine: &Engine, cat: &Catalog, view: &View, goal: &str) {
        let goal = Query::from_expr(parse_expr(goal, cat).unwrap(), cat);
        engine
            .decide(
                &Check::Member {
                    view: view.clone(),
                    goal,
                },
                cat,
            )
            .unwrap();
    }

    #[test]
    fn two_engines_one_pile_union_their_verdicts() {
        let (cat, view) = setup();
        let path = tmp("two-engines");

        // Worker 1 decides two goals, appends its snapshot.
        let e1 = Engine::new();
        decide(&e1, &cat, &view, "pi{A}(R)");
        decide(&e1, &cat, &view, "pi{B}(R)");
        let mut store = PileStore::open(&path).unwrap();
        assert!(store.append_cache(e1.cache(), &cat).unwrap() > 0);

        // Worker 2, separate handle, disjoint goals.
        let e2 = Engine::new();
        decide(&e2, &cat, &view, "pi{C}(R)");
        let mut store2 = PileStore::open(&path).unwrap();
        store2.append_cache(e2.cache(), &cat).unwrap();

        // "Merge" is just loading the shared pile.
        let mut reader = PileStore::open(&path).unwrap();
        assert_eq!(reader.record_count().unwrap(), 2);
        let warmed = reader.load(None).unwrap();
        assert_eq!(warmed.stats().entries, 3);

        // And a third engine over the loaded cache answers all three goals
        // from it.
        let e3 = Engine::from_config(crate::EngineConfig::new().cache(warmed)).unwrap();
        for goal in ["pi{A}(R)", "pi{B}(R)", "pi{C}(R)"] {
            decide(&e3, &cat, &view, goal);
        }
        let stats = e3.cache_stats();
        assert_eq!(stats.hits, 3, "{stats}");
    }

    #[test]
    fn pile_reload_is_byte_identical_to_cli_merge_of_the_same_snapshots() {
        let (cat, view) = setup();
        let path = tmp("merge-identity");

        let mut snapshots = Vec::new();
        let mut store = PileStore::open(&path).unwrap();
        for goal in ["pi{A}(R)", "pi{B}(R)", "pi{A,B}(R)"] {
            let engine = Engine::new();
            decide(&engine, &cat, &view, goal);
            snapshots.push(save_cache(engine.cache(), &cat));
            store.append_cache(engine.cache(), &cat).unwrap();
        }
        let (from_pile, pile_report) = store.merged_bytes().unwrap();
        let (from_merge, merge_report) = merge_cache_bytes(&snapshots).unwrap();
        assert_eq!(from_pile, from_merge, "pile export must equal CLI merge");
        assert_eq!(pile_report, merge_report);
    }

    #[test]
    fn import_bridge_validates_before_appending() {
        let (cat, view) = setup();
        let path = tmp("import");
        let engine = Engine::new();
        decide(&engine, &cat, &view, "R");
        let file = save_cache(engine.cache(), &cat);

        let mut store = PileStore::open(&path).unwrap();
        assert_eq!(store.append_cache_bytes(&file).unwrap(), 1);

        // Corrupt file bytes: rejected, pile unchanged.
        let mut bad = file.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(matches!(
            store.append_cache_bytes(&bad),
            Err(PileStoreError::Persist(_))
        ));
        assert_eq!(store.record_count().unwrap(), 1);

        // Round trip: export equals the single imported file's merge.
        let (exported, _) = store.merged_bytes().unwrap();
        let (expected, _) = merge_cache_bytes(std::slice::from_ref(&file)).unwrap();
        assert_eq!(exported, expected);
    }

    #[test]
    fn space_records_ride_alongside_cache_records() {
        let (cat, view) = setup();
        let path = tmp("spaces");

        // A verdict record and a space record, interleaved.
        let engine = Engine::new();
        decide(&engine, &cat, &view, "pi{A}(R)");
        let mut store = PileStore::open(&path).unwrap();
        store.append_cache(engine.cache(), &cat).unwrap();

        let mut lib = SpaceLibrary::new();
        lib.insert(99, vec![1, 2, 3]);
        assert!(store.append_spaces(&lib).unwrap() > 0);
        assert!(store.append_spaces(&SpaceLibrary::new()).unwrap() == 0);

        let mut lib2 = SpaceLibrary::new();
        lib2.insert(99, vec![1, 2, 3, 4]); // more levels for the same key
        lib2.insert(7, vec![9]);
        store.append_spaces(&lib2).unwrap();

        // Cache loads skip space records; space loads skip cache records.
        let mut reader = PileStore::open(&path).unwrap();
        assert_eq!(reader.record_count().unwrap(), 1);
        assert_eq!(reader.space_record_count().unwrap(), 2);
        assert_eq!(reader.load(None).unwrap().stats().entries, 1);
        let merged = reader.load_spaces().unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.get(99), Some(&[1, 2, 3, 4][..]), "most levels win");

        // The import bridge validates before appending.
        assert_eq!(store.append_space_bytes(&lib.to_bytes()).unwrap(), 1);
        assert!(matches!(
            store.append_space_bytes(b"garbage"),
            Err(PileStoreError::Space(_))
        ));
    }

    #[test]
    fn appends_write_only_what_the_pile_lacks() {
        let (cat, view) = setup();
        let path = tmp("delta");
        let engine = Engine::new();
        decide(&engine, &cat, &view, "pi{A}(R)");
        decide(&engine, &cat, &view, "pi{B}(R)");
        let mut store = PileStore::open(&path).unwrap();
        assert!(store.append_cache(engine.cache(), &cat).unwrap() > 0);

        // One more verdict: the next record carries it alone.
        decide(&engine, &cat, &view, "pi{C}(R)");
        assert!(store.append_cache(engine.cache(), &cat).unwrap() > 0);
        let entries: Vec<usize> = store
            .cache_payloads()
            .unwrap()
            .iter()
            .map(|p| validate_cache_bytes(p).unwrap())
            .collect();
        assert_eq!(entries, [2, 1]);

        // Nothing new: nothing written, by this handle or by a fresh one
        // that never loaded (it reads the held keys on its first append).
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(store.append_cache(engine.cache(), &cat).unwrap(), 0);
        let mut fresh = PileStore::open(&path).unwrap();
        assert_eq!(fresh.append_cache(engine.cache(), &cat).unwrap(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);

        // The delta records merge to the whole cache.
        let (merged, report) = fresh.merged_bytes().unwrap();
        let (whole, _) = merge_cache_bytes(&[save_cache(engine.cache(), &cat)]).unwrap();
        assert_eq!(merged, whole);
        assert_eq!(report.replaced, 0);

        // Spaces: a snapshot is appended again only once it has grown.
        let mut lib = SpaceLibrary::new();
        lib.insert(99, vec![1, 2, 3]);
        assert!(fresh.append_spaces(&lib).unwrap() > 0);
        assert_eq!(fresh.append_spaces(&lib).unwrap(), 0);
        lib.insert(99, vec![1, 2, 3, 4]);
        lib.insert(7, vec![9]);
        assert!(fresh.append_spaces(&lib).unwrap() > 0);
        assert_eq!(
            PileStore::open(&path).unwrap().append_spaces(&lib).unwrap(),
            0
        );
        let mut reader = PileStore::open(&path).unwrap();
        assert_eq!(reader.space_record_count().unwrap(), 2);
        let loaded = reader.load_spaces().unwrap();
        assert_eq!(loaded.get(99), Some(&[1, 2, 3, 4][..]));
        assert_eq!(loaded.get(7), Some(&[9][..]));
    }

    #[test]
    fn empty_pile_loads_an_empty_cache() {
        let path = tmp("empty");
        let mut store = PileStore::open(&path).unwrap();
        let cache = store.load(Some(10)).unwrap();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.capacity(), Some(10));
        let (bytes, report) = store.merged_bytes().unwrap();
        assert_eq!(report.entries_out, 0);
        assert!(
            validate_cache_bytes(&bytes).is_ok(),
            "empty merge is a valid file"
        );
    }
}
