//! The persistent, content-addressed VC result cache.
//!
//! Solved verification conditions are keyed by the stable 128-bit structural
//! hash of their formula (see [`ids_smt::hash`]), salted with the encoding
//! mode, and mapped to their verdict. Within a batch the cache deduplicates
//! identical VCs across methods; persisted to disk it makes re-runs
//! incremental — an unchanged suite discharges zero new SMT queries.
//!
//! # On-disk format
//!
//! A deliberately hand-rolled, line-oriented text format (the build
//! environment has no serialization crates):
//!
//! ```text
//! ids-vc-cache v3 fp=0000000000000002
//! 00731f95c3a1be8e55f20ac7135a4d22 V #0,3,7
//! 2b9e0d4c81f6a3570c44de9a0b6f1e88 R
//! 5c11a0f2e94d38b6071cc5529ae07d41 V #
//! ```
//!
//! Line 1 is a magic+version header carrying the solver-logic fingerprint
//! ([`ids_smt::SOLVER_LOGIC_FINGERPRINT`]); every following line is the
//! zero-padded lowercase hex key, a verdict letter (`V`alid / `R`efuted),
//! and an optional `#`-prefixed unsat core — the comma-separated positional
//! hypothesis indices the refutation of the negated goal actually used. A
//! bare `#` is an *empty* core (the goal needed no hypothesis); no third
//! token means no core was recorded. Cores are recorded as a diagnostic;
//! the driver no longer reads them back (a `--recheck` re-solves every VC
//! from its full hypothesis set), and they are never trusted for verdicts.
//! Undecided VCs are never cached (they should be re-attempted).
//!
//! A file with an unknown header or a malformed line is ignored wholesale —
//! a cache is always safe to delete or truncate. Because a VC's key hashes
//! only its *formula*, a verdict is stale the moment the solver or lowering
//! logic changes; the fingerprint in the header makes such caches (v1 and v2
//! files included) read as empty instead of silently replaying old verdicts.
//!
//! # Concurrent runs
//!
//! Several `ids-verify` processes may share one cache file. Two defences keep
//! them from corrupting or clobbering each other:
//!
//! * writes go through a temporary file in the same directory followed by an
//!   atomic rename, so readers never observe a half-written cache;
//! * [`VcCache::save_merged`] takes an advisory [`CacheLock`] (a lockfile
//!   beside the cache file), re-reads whatever a concurrent run persisted in
//!   the meantime, merges it with the in-memory entries and only then writes
//!   — the classic read-modify-write under lock, so a slow run finishing
//!   last cannot silently discard a fast run's verdicts.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use ids_core::pipeline::VcVerdict;

/// The file header identifying format version and solver-logic generation.
fn header() -> String {
    format!(
        "ids-vc-cache v3 fp={:016x}",
        ids_smt::SOLVER_LOGIC_FINGERPRINT
    )
}

/// One cached VC: its verdict plus, when one was recorded, the unsat core —
/// the positional hypothesis indices the refutation used.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CacheEntry {
    verdict: VcVerdict,
    core: Option<Vec<u32>>,
}

/// An advisory cross-process lock: a lockfile created with `create_new`
/// (atomic on every platform/filesystem we care about) beside the protected
/// file, removed on drop.
///
/// The lock is *advisory* — it only coordinates processes that also take it —
/// and deliberately fail-open: if the lock cannot be acquired within the
/// timeout (a crashed holder is additionally broken by age), the caller
/// proceeds unlocked with a warning rather than wedging a verification run on
/// a stale lockfile.
#[derive(Debug)]
pub struct CacheLock {
    path: PathBuf,
    owned: bool,
}

/// A lock older than this is considered leaked by a crashed process and is
/// broken. Cache writes hold the lock for milliseconds; minutes of age means
/// nobody is coming back for it.
const LOCK_STALE_AFTER: Duration = Duration::from_secs(300);

impl CacheLock {
    /// The lockfile guarding `target` (`<target>.lock`).
    fn lock_path(target: &Path) -> PathBuf {
        let mut name = target.file_name().unwrap_or_default().to_os_string();
        name.push(".lock");
        target.with_file_name(name)
    }

    /// Acquires the lock for `target`, waiting up to `timeout`. Always
    /// returns a guard; `owned` records whether the lock was actually taken
    /// (callers proceed either way — advisory, fail-open).
    pub fn acquire(target: &Path, timeout: Duration) -> CacheLock {
        let path = CacheLock::lock_path(target);
        let start = Instant::now();
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => return CacheLock { path, owned: true },
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    // Break locks leaked by a crashed holder.
                    let stale = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|m| SystemTime::now().duration_since(m).ok())
                        .is_some_and(|age| age > LOCK_STALE_AFTER);
                    if stale {
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    if start.elapsed() >= timeout {
                        eprintln!(
                            "warning: could not acquire cache lock {} within {:?}; proceeding unlocked",
                            path.display(),
                            timeout
                        );
                        return CacheLock { path, owned: false };
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => {
                    // Unwritable directory etc.: locking is best-effort.
                    eprintln!(
                        "warning: could not create cache lock {}: {}",
                        path.display(),
                        e
                    );
                    return CacheLock { path, owned: false };
                }
            }
        }
    }

    /// True if the lockfile was actually created by this guard.
    pub fn owned(&self) -> bool {
        self.owned
    }
}

impl Drop for CacheLock {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// An in-memory VC verdict cache with optional on-disk persistence.
#[derive(Clone, Debug, Default)]
pub struct VcCache {
    entries: HashMap<u128, CacheEntry>,
    dirty: bool,
}

impl VcCache {
    /// Creates an empty cache.
    pub fn new() -> VcCache {
        VcCache::default()
    }

    /// Loads a cache file. A missing file yields an empty cache; a file with
    /// an unrecognized header or malformed entries is ignored (treated as
    /// empty) rather than failing the run.
    pub fn load(path: &Path) -> io::Result<VcCache> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(VcCache::new()),
            Err(e) => return Err(e),
        };
        let mut lines = text.lines();
        if lines.next() != Some(header().as_str()) {
            // Unknown version or a different solver generation: every cached
            // verdict is potentially stale, so the whole file is ignored.
            return Ok(VcCache::new());
        }
        let mut entries = HashMap::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Some((key_hex, rest)) = line.split_once(' ') else {
                return Ok(VcCache::new());
            };
            let Ok(key) = u128::from_str_radix(key_hex, 16) else {
                return Ok(VcCache::new());
            };
            let (verdict, core_tok) = match rest.split_once(' ') {
                Some((v, c)) => (v, Some(c)),
                None => (rest, None),
            };
            let verdict = match verdict {
                "V" => VcVerdict::Valid,
                "R" => VcVerdict::Refuted,
                _ => return Ok(VcCache::new()),
            };
            let core = match core_tok {
                None => None,
                Some(tok) => {
                    let Some(list) = tok.strip_prefix('#') else {
                        return Ok(VcCache::new());
                    };
                    if list.is_empty() {
                        Some(Vec::new())
                    } else {
                        let mut indices = Vec::new();
                        for part in list.split(',') {
                            let Ok(n) = part.parse::<u32>() else {
                                return Ok(VcCache::new());
                            };
                            indices.push(n);
                        }
                        Some(indices)
                    }
                }
            };
            entries.insert(key, CacheEntry { verdict, core });
        }
        Ok(VcCache {
            entries,
            dirty: false,
        })
    }

    /// Writes the cache to disk (sorted, so the file is deterministic for a
    /// given content) and clears the dirty flag. The write is atomic
    /// (temporary file + rename), so concurrent readers never observe a
    /// half-written cache.
    pub fn save(&mut self, path: &Path) -> io::Result<()> {
        let mut keys: Vec<&u128> = self.entries.keys().collect();
        keys.sort();
        let mut out = String::with_capacity(40 + keys.len() * 35);
        out.push_str(&header());
        out.push('\n');
        for k in keys {
            let entry = &self.entries[k];
            let letter = match entry.verdict {
                VcVerdict::Valid => 'V',
                VcVerdict::Refuted => 'R',
                VcVerdict::Unknown => continue,
            };
            out.push_str(&format!("{:032x} {}", k, letter));
            if let Some(core) = &entry.core {
                out.push_str(" #");
                for (i, t) in core.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&t.to_string());
                }
            }
            out.push('\n');
        }
        let tmp = {
            // Unique per call, not just per process: two threads racing past
            // a failed-open lock must not share a temp file.
            static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let mut name = path.file_name().unwrap_or_default().to_os_string();
            name.push(format!(".tmp.{}.{}", std::process::id(), seq));
            path.with_file_name(name)
        };
        std::fs::write(&tmp, out)?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        self.dirty = false;
        Ok(())
    }

    /// Saves under the advisory [`CacheLock`], first absorbing whatever a
    /// concurrent run persisted since this cache was loaded, so parallel
    /// `ids-verify` processes sharing one cache file union their verdicts
    /// instead of the last writer clobbering the others.
    pub fn save_merged(&mut self, path: &Path) -> io::Result<()> {
        let _lock = CacheLock::acquire(path, Duration::from_secs(10));
        if let Ok(disk) = VcCache::load(path) {
            self.absorb(disk);
        }
        self.save(path)
    }

    /// Merges another cache's entries into this one. Existing entries win on
    /// conflict (they are this run's freshly computed verdicts; a well-formed
    /// cache never disagrees on a key within one solver generation anyway) —
    /// except that a core-less entry is completed by the other side's core
    /// when the verdicts agree, so a core computed by a concurrent run is
    /// never discarded.
    pub fn absorb(&mut self, other: VcCache) {
        for (key, entry) in other.entries {
            match self.entries.entry(key) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(entry);
                    self.dirty = true;
                }
                std::collections::hash_map::Entry::Occupied(mut slot) => {
                    let mine = slot.get_mut();
                    if mine.core.is_none() && mine.verdict == entry.verdict && entry.core.is_some()
                    {
                        mine.core = entry.core;
                        self.dirty = true;
                    }
                }
            }
        }
    }

    /// Looks up a verdict.
    pub fn get(&self, key: u128) -> Option<VcVerdict> {
        self.entries.get(&key).map(|e| e.verdict)
    }

    /// Looks up the recorded unsat core, if any. `Some(&[])` is a real
    /// (empty) core; `None` means none was recorded. Only the tests read
    /// cores back.
    #[cfg(test)]
    fn get_core(&self, key: u128) -> Option<&[u32]> {
        self.entries.get(&key).and_then(|e| e.core.as_deref())
    }

    /// Records a verdict. `Unknown` verdicts are not cached. A core already
    /// recorded under the same verdict is kept — re-confirming a verdict
    /// (e.g. from a cache hit or a dedup within the batch) must not erase
    /// the core.
    pub fn insert(&mut self, key: u128, verdict: VcVerdict) {
        if verdict == VcVerdict::Unknown {
            return;
        }
        match self.entries.entry(key) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(CacheEntry {
                    verdict,
                    core: None,
                });
                self.dirty = true;
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                if entry.verdict != verdict {
                    // A verdict flip within one generation is pathological;
                    // whatever core went with the old verdict is meaningless.
                    *entry = CacheEntry {
                        verdict,
                        core: None,
                    };
                    self.dirty = true;
                }
            }
        }
    }

    /// Records a verdict together with its unsat core. `Unknown` verdicts
    /// are not cached; a `None` core behaves exactly like [`VcCache::insert`].
    pub fn insert_core(&mut self, key: u128, verdict: VcVerdict, core: Option<Vec<u32>>) {
        if verdict == VcVerdict::Unknown {
            return;
        }
        let Some(core) = core else {
            self.insert(key, verdict);
            return;
        };
        let entry = CacheEntry {
            verdict,
            core: Some(core),
        };
        if self.entries.get(&key) != Some(&entry) {
            self.entries.insert(key, entry);
            self.dirty = true;
        }
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the cache holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the cache changed since it was loaded/saved.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ids-vc-cache-test-{}-{}", std::process::id(), tag))
    }

    #[test]
    fn roundtrips_through_disk() {
        let path = temp_path("roundtrip");
        let mut cache = VcCache::new();
        cache.insert(42, VcVerdict::Valid);
        cache.insert(
            0xdead_beef_dead_beef_dead_beef_dead_beef,
            VcVerdict::Refuted,
        );
        cache.insert(7, VcVerdict::Unknown); // dropped
        assert!(cache.is_dirty());
        cache.save(&path).unwrap();
        assert!(!cache.is_dirty());

        let loaded = VcCache::load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.get(42), Some(VcVerdict::Valid));
        assert_eq!(
            loaded.get(0xdead_beef_dead_beef_dead_beef_dead_beef),
            Some(VcVerdict::Refuted)
        );
        assert_eq!(loaded.get(7), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cores_roundtrip_through_disk() {
        let path = temp_path("core-roundtrip");
        let mut cache = VcCache::new();
        cache.insert_core(1, VcVerdict::Valid, Some(vec![0, 3, 7]));
        cache.insert_core(2, VcVerdict::Valid, Some(vec![])); // empty core: `#`
        cache.insert_core(3, VcVerdict::Valid, None); // no core recorded
        cache.insert(4, VcVerdict::Refuted);
        cache.save(&path).unwrap();

        let loaded = VcCache::load(&path).unwrap();
        assert_eq!(loaded.get_core(1), Some(&[0, 3, 7][..]));
        assert_eq!(loaded.get_core(2), Some(&[][..]));
        assert_eq!(loaded.get_core(3), None);
        assert_eq!(loaded.get(3), Some(VcVerdict::Valid));
        assert_eq!(loaded.get_core(4), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reconfirming_a_verdict_keeps_the_core() {
        let mut cache = VcCache::new();
        cache.insert_core(1, VcVerdict::Valid, Some(vec![2, 5]));
        // A plain verdict re-insert (cache hit, dedup) must not erase the
        // core...
        cache.insert(1, VcVerdict::Valid);
        assert_eq!(cache.get_core(1), Some(&[2, 5][..]));
        // ...and neither must an insert_core with no core to offer.
        cache.insert_core(1, VcVerdict::Valid, None);
        assert_eq!(cache.get_core(1), Some(&[2, 5][..]));
        // A verdict flip invalidates the core with the verdict.
        cache.insert(1, VcVerdict::Refuted);
        assert_eq!(cache.get(1), Some(VcVerdict::Refuted));
        assert_eq!(cache.get_core(1), None);
    }

    #[test]
    fn absorb_completes_missing_cores_but_never_overrides() {
        let mut mine = VcCache::new();
        mine.insert(1, VcVerdict::Valid); // no core yet
        mine.insert_core(2, VcVerdict::Valid, Some(vec![9]));
        let mut theirs = VcCache::new();
        theirs.insert_core(1, VcVerdict::Valid, Some(vec![4, 6]));
        theirs.insert_core(2, VcVerdict::Valid, Some(vec![0, 1, 2]));
        theirs.insert(3, VcVerdict::Refuted);
        mine.absorb(theirs);
        // Filled where missing, kept where present, unioned where vacant.
        assert_eq!(mine.get_core(1), Some(&[4, 6][..]));
        assert_eq!(mine.get_core(2), Some(&[9][..]));
        assert_eq!(mine.get(3), Some(VcVerdict::Refuted));
    }

    #[test]
    fn malformed_core_tokens_invalidate_the_file() {
        let path = temp_path("bad-core");
        for bad in [
            "00000000000000000000000000000001 V 0,1\n", // missing '#'
            "00000000000000000000000000000001 V #x\n",  // non-numeric index
            "00000000000000000000000000000001 V #1,\n", // trailing comma
        ] {
            std::fs::write(&path, format!("{}\n{}", header(), bad)).unwrap();
            assert!(
                VcCache::load(&path).unwrap().is_empty(),
                "accepted malformed line {bad:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty() {
        let cache = VcCache::load(&temp_path("missing-never-created")).unwrap();
        assert!(cache.is_empty());
    }

    #[test]
    fn corrupt_file_is_ignored() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "some other format\n123 V\n").unwrap();
        assert!(VcCache::load(&path).unwrap().is_empty());
        std::fs::write(&path, format!("{}\nnot-hex V\n", header())).unwrap();
        assert!(VcCache::load(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_solver_generations_are_invalidated() {
        let key_line = "000000000000000000000000000000ff V\n";
        // A v1 cache (no fingerprint) is stale by definition.
        let path = temp_path("v1-stale");
        std::fs::write(&path, format!("ids-vc-cache v1\n{}", key_line)).unwrap();
        assert!(VcCache::load(&path).unwrap().is_empty());
        // A v2 cache reads as empty even at the current fingerprint — the
        // version bump itself invalidates (same discipline as v1→v2).
        std::fs::write(
            &path,
            format!(
                "ids-vc-cache v2 fp={:016x}\n{}",
                ids_smt::SOLVER_LOGIC_FINGERPRINT,
                key_line
            ),
        )
        .unwrap();
        assert!(VcCache::load(&path).unwrap().is_empty());
        // A v3 cache from a different solver generation is equally stale.
        std::fs::write(
            &path,
            format!("ids-vc-cache v3 fp=00000000deadbeef\n{}", key_line),
        )
        .unwrap();
        assert!(VcCache::load(&path).unwrap().is_empty());
        // The current generation's own header is accepted.
        std::fs::write(&path, format!("{}\n{}", header(), key_line)).unwrap();
        let cache = VcCache::load(&path).unwrap();
        assert_eq!(cache.get(0xff), Some(VcVerdict::Valid));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lock_excludes_and_releases() {
        let target = temp_path("lock");
        let a = CacheLock::acquire(&target, Duration::from_millis(10));
        assert!(a.owned());
        // While held, a second acquire times out un-owned (fail-open).
        let b = CacheLock::acquire(&target, Duration::from_millis(50));
        assert!(!b.owned());
        drop(b);
        drop(a);
        // Released: acquirable again.
        let c = CacheLock::acquire(&target, Duration::from_millis(10));
        assert!(c.owned());
    }

    #[test]
    fn concurrent_saves_union_instead_of_clobbering() {
        let path = temp_path("merge");
        std::fs::remove_file(&path).ok();
        // Two "processes" that each computed disjoint verdicts, saving in
        // either order: both sets must survive.
        let mut first = VcCache::new();
        first.insert(1, VcVerdict::Valid);
        let mut second = VcCache::new();
        second.insert(2, VcVerdict::Refuted);
        first.save_merged(&path).unwrap();
        second.save_merged(&path).unwrap();
        let loaded = VcCache::load(&path).unwrap();
        assert_eq!(loaded.get(1), Some(VcVerdict::Valid));
        assert_eq!(loaded.get(2), Some(VcVerdict::Refuted));
        std::fs::remove_file(&path).ok();

        // The same from many threads at once: every thread's verdict lands.
        let path2 = temp_path("merge-threads");
        std::fs::remove_file(&path2).ok();
        std::thread::scope(|scope| {
            for i in 0..8u128 {
                let path2 = &path2;
                scope.spawn(move || {
                    let mut c = VcCache::new();
                    c.insert(100 + i, VcVerdict::Valid);
                    c.save_merged(path2).unwrap();
                });
            }
        });
        let loaded = VcCache::load(&path2).unwrap();
        for i in 0..8u128 {
            assert_eq!(loaded.get(100 + i), Some(VcVerdict::Valid), "thread {}", i);
        }
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn stale_lock_is_broken() {
        let target = temp_path("stale-lock");
        let lock_file = CacheLock::lock_path(&target);
        std::fs::write(&lock_file, "pid 0").unwrap();
        // Backdate the lockfile beyond the staleness horizon.
        let old = SystemTime::now() - LOCK_STALE_AFTER - Duration::from_secs(60);
        let ok = set_mtime(&lock_file, old);
        if !ok {
            // No portable mtime API without deps; skip silently where the
            // filetime trick is unavailable.
            std::fs::remove_file(&lock_file).ok();
            return;
        }
        let l = CacheLock::acquire(&target, Duration::from_millis(50));
        assert!(l.owned(), "a stale lock must be broken and re-acquired");
    }

    /// Best-effort mtime backdating for the staleness test. Uses the
    /// (unix-only) `touch -d` via the filesystem; returns false if that is
    /// unavailable.
    fn set_mtime(path: &Path, when: SystemTime) -> bool {
        let secs = match when.duration_since(SystemTime::UNIX_EPOCH) {
            Ok(d) => d.as_secs(),
            Err(_) => return false,
        };
        std::process::Command::new("touch")
            .arg("-d")
            .arg(format!("@{}", secs))
            .arg(path)
            .status()
            .map(|s| s.success())
            .unwrap_or(false)
    }

    #[test]
    fn reinserting_same_verdict_keeps_clean() {
        let path = temp_path("clean");
        let mut cache = VcCache::new();
        cache.insert(1, VcVerdict::Valid);
        cache.save(&path).unwrap();
        cache.insert(1, VcVerdict::Valid);
        assert!(!cache.is_dirty(), "identical re-insert must not dirty");
        std::fs::remove_file(&path).ok();
    }
}
