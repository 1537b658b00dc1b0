//! The persistent result store: `(image fingerprint, pipeline id)` →
//! a serialized [`DetectionResult`] on disk, so a restarted daemon
//! answers warm.
//!
//! Each entry is one file in the store directory, named
//! `<fingerprint:016x>-<fnv(pipeline id):016x>.fres` and containing a
//! store header (magic, version, the *full* fingerprint and pipeline id
//! — the hash in the filename is only a rendezvous, never trusted)
//! followed by the core wire encoding of the result and its optional
//! image digest ([`fetch_core::serialize_result_with_digest`]: itself
//! versioned and checksummed). Writes go through a temp file + atomic
//! rename, so a crashed daemon never leaves a half-written entry under a
//! live key; loads verify header, key match, and checksum, so a
//! truncated or bit-flipped file is a [`StoreError`], never a wrong
//! answer.
//!
//! There is one store version ([`STORE_VERSION`]) and one blob version
//! ([`fetch_core::RESULT_VERSION`]); nothing is migrated. An entry of
//! any other version fails validation like a corrupt one: the sweep
//! quarantines it and the daemon recomputes the result on demand.
//!
//! ## Lifecycle
//!
//! Opening a store runs a **recovery sweep** ([`ResultStore::compact`]):
//! orphaned temp files (a crash between write and rename) are reaped,
//! and entries that fail validation — truncated, bit-flipped, of
//! another format version, or stored under a filename that is not their
//! embedded key's — are moved to a `quarantine/` subdirectory and counted,
//! never silently deleted and never served. After the sweep, every
//! resident entry is known-loadable.
//!
//! A [`GcPolicy`] bounds the store by entry count, total bytes, and/or
//! entry age. The policy is enforced after each save (cheap counter
//! check; a full sweep only when a bound is exceeded) and during
//! [`ResultStore::compact`]: the oldest entries (by modification time)
//! are removed until the store fits. Eviction only ever drops persisted
//! warmth — a later request recomputes the identical answer.
//!
//! Writes are serialized behind an internal lock and temp names carry a
//! per-process counter, so concurrent workers of one daemon never race
//! on the same temp file. All fault-injection sites of the store
//! ([`FaultPlan::STORE_SAVE`], [`FaultPlan::STORE_LOAD`]) live in this
//! module; an armed plan can force I/O errors, torn writes, silent
//! corruption, and stalls to prove the recovery machinery works.

use crate::fault::{FaultKind, FaultPlan};
use fetch_core::{
    deserialize_result_full, serialize_result_with_digest, DetectionResult, ImageDigest,
    SerialError,
};
use fetch_obs::{logmsg, Histogram, LogLevel};
use std::ffi::OsStr;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Magic bytes opening every store file.
pub const STORE_MAGIC: [u8; 4] = *b"FSTO";
/// The one store-file version ([`ResultStore::load_full`] rejects
/// others, and the open sweep quarantines them).
pub const STORE_VERSION: u16 = 1;
/// Store-file extension.
pub const STORE_EXT: &str = "fres";
/// Subdirectory quarantined entries are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// A failed store operation.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (with context).
    Io(io::Error),
    /// The file's store header is not this format/version.
    BadHeader(&'static str),
    /// The file's embedded key disagrees with the requested one
    /// (filename-hash collision or a misplaced file).
    KeyMismatch,
    /// The embedded result encoding is corrupt.
    Malformed(SerialError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadHeader(what) => write!(f, "bad store file header: {what}"),
            StoreError::KeyMismatch => write!(f, "store file key mismatch"),
            StoreError::Malformed(e) => write!(f, "corrupt stored result: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// FNV-1a over the pipeline id, for the filename rendezvous only (the
/// full id inside the file is what is verified).
fn id_hash(pipeline_id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in pipeline_id.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The filename an entry for `(fingerprint, pipeline_id)` lives under.
fn entry_name(fingerprint: u64, pipeline_id: &str) -> String {
    format!(
        "{fingerprint:016x}-{:016x}.{STORE_EXT}",
        id_hash(pipeline_id)
    )
}

/// Splits a store file into its embedded key and the result blob,
/// checking the store header (magic, version, id length) on the way.
fn parse_header(bytes: &[u8]) -> Result<(u64, &str, &[u8]), StoreError> {
    let min = STORE_MAGIC.len() + 2 + 8 + 2;
    if bytes.len() < min {
        return Err(StoreError::BadHeader("file shorter than header"));
    }
    if bytes[..4] != STORE_MAGIC {
        return Err(StoreError::BadHeader("bad magic"));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2"));
    if version != STORE_VERSION {
        return Err(StoreError::BadHeader("unsupported version"));
    }
    let fingerprint = u64::from_le_bytes(bytes[6..14].try_into().expect("8"));
    let id_len = u16::from_le_bytes(bytes[14..16].try_into().expect("2")) as usize;
    let id_end = 16 + id_len;
    if bytes.len() < id_end {
        return Err(StoreError::BadHeader("file shorter than its pipeline id"));
    }
    let pipeline_id = std::str::from_utf8(&bytes[16..id_end])
        .map_err(|_| StoreError::BadHeader("non-UTF-8 pipeline id"))?;
    Ok((fingerprint, pipeline_id, &bytes[id_end..]))
}

/// Runs `op`, recording its wall time in `hist` (when bound) whether it
/// succeeds or not — a failed operation still cost its time.
fn timed<T>(hist: &Option<Arc<Histogram>>, op: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = op();
    if let Some(h) = hist {
        h.record(t0.elapsed().as_micros() as u64);
    }
    out
}

/// Age/size bounds of a [`ResultStore`]. The default is unbounded —
/// nothing is ever garbage-collected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcPolicy {
    /// Maximum resident entries (`None` = unbounded).
    pub max_entries: Option<usize>,
    /// Maximum total entry bytes on disk (`None` = unbounded).
    pub max_bytes: Option<u64>,
    /// Maximum entry age since last write (`None` = unbounded).
    pub max_age: Option<Duration>,
}

impl GcPolicy {
    /// Whether any bound is configured.
    pub fn is_bounded(&self) -> bool {
        self.max_entries.is_some() || self.max_bytes.is_some() || self.max_age.is_some()
    }

    fn over(&self, entries: usize, bytes: u64) -> bool {
        self.max_entries.is_some_and(|m| entries > m) || self.max_bytes.is_some_and(|m| bytes > m)
    }
}

/// Monotone lifecycle counters of one [`ResultStore`] instance,
/// surfaced through the daemon's `stats` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreLifecycle {
    /// Orphaned temp files reaped (startup recovery + compaction).
    pub recovered_temps: u64,
    /// Entries that failed validation and were moved to `quarantine/`.
    pub quarantined: u64,
    /// Entries removed by age/size GC.
    pub gc_removed: u64,
    /// Bytes freed by age/size GC.
    pub gc_bytes_freed: u64,
}

/// The on-disk result store (see the [module docs](self)).
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    gc: GcPolicy,
    faults: Arc<FaultPlan>,
    /// Serializes writers: concurrent workers persist one at a time
    /// (writes are short; the answer path never blocks on this lock).
    write_lock: Mutex<()>,
    /// Per-process temp-name counter (pid alone is not unique across
    /// the worker pool).
    tmp_seq: AtomicU64,
    /// Approximate residency, maintained across saves so the GC check
    /// after each save is counter-only (a sweep rescans exactly).
    entries_approx: AtomicU64,
    bytes_approx: AtomicU64,
    recovered_temps: AtomicU64,
    quarantined: AtomicU64,
    gc_removed: AtomicU64,
    gc_bytes_freed: AtomicU64,
    /// Save/load latency histograms, bound by the daemon via
    /// [`ResultStore::bind_obs`] (`None` outside a daemon — the store
    /// then times nothing).
    save_us: Option<Arc<Histogram>>,
    load_us: Option<Arc<Histogram>>,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `dir` with no GC
    /// bounds and no fault plan, running the recovery sweep.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        ResultStore::open_with(dir, GcPolicy::default(), Arc::new(FaultPlan::default()))
    }

    /// Opens (creating if needed) the store rooted at `dir`, runs the
    /// startup recovery sweep ([`ResultStore::compact`]: orphaned temps
    /// reaped, invalid entries quarantined, GC bounds applied), and
    /// arms the given fault plan on every subsequent store operation.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        gc: GcPolicy,
        faults: Arc<FaultPlan>,
    ) -> io::Result<ResultStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let store = ResultStore {
            dir,
            gc,
            faults,
            write_lock: Mutex::new(()),
            tmp_seq: AtomicU64::new(0),
            entries_approx: AtomicU64::new(0),
            bytes_approx: AtomicU64::new(0),
            recovered_temps: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            gc_removed: AtomicU64::new(0),
            gc_bytes_freed: AtomicU64::new(0),
            save_us: None,
            load_us: None,
        };
        store.compact()?;
        Ok(store)
    }

    /// Binds save/load latency histograms (microseconds per operation,
    /// failures included — a failed save still cost its wall time).
    /// The daemon calls this once at startup with histograms from its
    /// metric registry; an unbound store records nothing.
    pub fn bind_obs(&mut self, save_us: Arc<Histogram>, load_us: Arc<Histogram>) {
        self.save_us = Some(save_us);
        self.load_us = Some(load_us);
    }

    /// The lifecycle counters of this store instance.
    pub fn lifecycle(&self) -> StoreLifecycle {
        StoreLifecycle {
            recovered_temps: self.recovered_temps.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            gc_removed: self.gc_removed.load(Ordering::Relaxed),
            gc_bytes_freed: self.gc_bytes_freed.load(Ordering::Relaxed),
        }
    }

    fn path_for(&self, fingerprint: u64, pipeline_id: &str) -> PathBuf {
        self.dir.join(entry_name(fingerprint, pipeline_id))
    }

    fn is_entry(path: &Path) -> bool {
        path.extension().and_then(|e| e.to_str()) == Some(STORE_EXT)
    }

    fn is_temp(path: &Path) -> bool {
        path.extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| e.starts_with("tmp"))
    }

    /// Persists `result` and the optional [`ImageDigest`] it was
    /// computed against under `(fingerprint, pipeline_id)`, atomically
    /// replacing any previous entry for the key. The digest rides inside
    /// the checksummed blob, so a later `reanalyze` of a new version of
    /// the same binary can delta against this entry. Writers are
    /// serialized behind the store's write lock; the save also triggers
    /// the GC check, so a bounded store never grows past its policy.
    ///
    /// # Errors
    ///
    /// I/O failures (injected ones included), or
    /// [`StoreError::Malformed`] when the result uses an
    /// out-of-vocabulary layer name (it could never be loaded back).
    pub fn save_with_digest(
        &self,
        fingerprint: u64,
        pipeline_id: &str,
        result: &DetectionResult,
        digest: Option<&ImageDigest>,
    ) -> Result<(), StoreError> {
        timed(&self.save_us, || {
            let blob =
                serialize_result_with_digest(result, digest).map_err(StoreError::Malformed)?;
            let mut file = Vec::with_capacity(blob.len() + 32);
            file.extend_from_slice(&STORE_MAGIC);
            file.extend_from_slice(&STORE_VERSION.to_le_bytes());
            file.extend_from_slice(&fingerprint.to_le_bytes());
            let id_len: u16 = pipeline_id
                .len()
                .try_into()
                .map_err(|_| StoreError::BadHeader("pipeline id too long"))?;
            file.extend_from_slice(&id_len.to_le_bytes());
            file.extend_from_slice(pipeline_id.as_bytes());
            file.extend_from_slice(&blob);

            match self.faults.fire(FaultPlan::STORE_SAVE) {
                Some(FaultKind::Io) => {
                    return Err(FaultPlan::injected_error(FaultPlan::STORE_SAVE).into())
                }
                // Torn write: only a prefix reaches disk, but the rename
                // still lands — the crash-mid-write shape. Load rejects it;
                // the recovery sweep quarantines it.
                Some(FaultKind::Short) => file.truncate(file.len() / 2),
                // Silent media corruption: one payload byte flips on the
                // way out. The serialized checksum catches it on load.
                Some(FaultKind::Corrupt) => {
                    let mid = file.len() / 2;
                    file[mid] ^= 0x01;
                }
                Some(FaultKind::Stall(_)) | None => {}
            }

            let path = self.path_for(fingerprint, pipeline_id);
            let tmp = path.with_extension(format!(
                "tmp{}-{}",
                std::process::id(),
                self.tmp_seq.fetch_add(1, Ordering::Relaxed)
            ));
            {
                let _writing = self.write_lock.lock().unwrap_or_else(|p| p.into_inner());
                let previous = fs::metadata(&path).map(|m| m.len()).ok();
                fs::write(&tmp, &file)?;
                if let Err(e) = fs::rename(&tmp, &path) {
                    let _ = fs::remove_file(&tmp);
                    return Err(e.into());
                }
                match previous {
                    Some(old) => {
                        self.bytes_approx.fetch_sub(old, Ordering::Relaxed);
                    }
                    None => {
                        self.entries_approx.fetch_add(1, Ordering::Relaxed);
                    }
                }
                self.bytes_approx
                    .fetch_add(file.len() as u64, Ordering::Relaxed);
            }
            self.maybe_gc()?;
            Ok(())
        })
    }

    /// Loads the entry for `(fingerprint, pipeline_id)`: the result and
    /// the [`ImageDigest`] it was saved with, if any.
    ///
    /// `Ok(None)` when the key has no entry; an error when an entry
    /// exists but is unreadable, mismatched, corrupt, or of another
    /// format version — the caller decides whether to recompute (the
    /// daemon does, then overwrites the bad entry).
    pub fn load_full(
        &self,
        fingerprint: u64,
        pipeline_id: &str,
    ) -> Result<Option<(DetectionResult, Option<ImageDigest>)>, StoreError> {
        timed(&self.load_us, || {
            let path = self.path_for(fingerprint, pipeline_id);
            let mut bytes = match fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
                Err(e) => return Err(e.into()),
            };
            match self.faults.fire(FaultPlan::STORE_LOAD) {
                Some(FaultKind::Io) => {
                    return Err(FaultPlan::injected_error(FaultPlan::STORE_LOAD).into())
                }
                Some(FaultKind::Short) => {
                    let keep = bytes.len() / 2;
                    bytes.truncate(keep);
                }
                Some(FaultKind::Corrupt) => {
                    let mid = bytes.len() / 2;
                    if let Some(b) = bytes.get_mut(mid) {
                        *b ^= 0x01;
                    }
                }
                Some(FaultKind::Stall(_)) | None => {}
            }
            let (stored_fp, stored_id, blob) = parse_header(&bytes)?;
            if stored_fp != fingerprint || stored_id != pipeline_id {
                return Err(StoreError::KeyMismatch);
            }
            deserialize_result_full(blob)
                .map(Some)
                .map_err(StoreError::Malformed)
        })
    }

    /// Validates an entry file in place (header, payload checksum)
    /// without an expected key: the file must sit under the filename of
    /// its embedded key, or no `load_full` could ever find it intact.
    fn validate_file(path: &Path) -> Result<(), StoreError> {
        let bytes = fs::read(path)?;
        let (stored_fp, stored_id, blob) = parse_header(&bytes)?;
        if path.file_name() != Some(OsStr::new(&entry_name(stored_fp, stored_id))) {
            return Err(StoreError::KeyMismatch);
        }
        deserialize_result_full(blob)
            .map(|_| ())
            .map_err(StoreError::Malformed)
    }

    /// The compaction sweep: reaps orphaned temp files, quarantines
    /// entries that fail validation (moved to `quarantine/`, counted,
    /// never silently deleted), rebuilds the exact residency counters,
    /// and applies the GC policy. Runs at open (the startup recovery
    /// sweep) and whenever a save pushes the store over a GC bound.
    pub fn compact(&self) -> io::Result<()> {
        let _writing = self.write_lock.lock().unwrap_or_else(|p| p.into_inner());
        let mut entries: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                continue;
            }
            if Self::is_temp(&path) {
                // A crash between temp write and rename: never adopted
                // (the writer died before publishing), always reaped.
                fs::remove_file(&path)?;
                self.recovered_temps.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if !Self::is_entry(&path) {
                continue;
            }
            if let Err(e) = Self::validate_file(&path) {
                self.quarantine(&path, &e)?;
                continue;
            }
            let meta = entry.metadata()?;
            entries.push((
                path,
                meta.len(),
                meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            ));
        }
        self.apply_gc(&mut entries)?;
        self.entries_approx
            .store(entries.len() as u64, Ordering::Relaxed);
        self.bytes_approx.store(
            entries.iter().map(|(_, len, _)| *len).sum(),
            Ordering::Relaxed,
        );
        Ok(())
    }

    /// Moves a failed entry into `quarantine/` (falling back to
    /// deletion only if the move itself fails — the entry must never
    /// stay where it could be served).
    fn quarantine(&self, path: &Path, why: &StoreError) -> io::Result<()> {
        let qdir = self.dir.join(QUARANTINE_DIR);
        fs::create_dir_all(&qdir)?;
        let name = path.file_name().expect("entry file has a name");
        let target = qdir.join(name);
        if fs::rename(path, &target).is_err() {
            fs::remove_file(path)?;
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        logmsg!(
            LogLevel::Warn,
            0,
            "fetch-serve: quarantined store entry {} ({why})",
            name.to_string_lossy()
        );
        Ok(())
    }

    /// Counter-only GC check after a save; sweeps only when a bound is
    /// exceeded (age bounds sweep on every check — they cannot be
    /// tracked by counters alone, so they are only enforced when some
    /// bound is configured).
    fn maybe_gc(&self) -> Result<(), StoreError> {
        if !self.gc.is_bounded() {
            return Ok(());
        }
        let entries = self.entries_approx.load(Ordering::Relaxed) as usize;
        let bytes = self.bytes_approx.load(Ordering::Relaxed);
        if self.gc.over(entries, bytes) || self.gc.max_age.is_some() {
            self.gc_sweep()?;
        }
        Ok(())
    }

    /// Scans entries and removes the oldest until the store fits the
    /// policy (age bound first, then size bounds oldest-first).
    fn gc_sweep(&self) -> Result<(), StoreError> {
        let _writing = self.write_lock.lock().unwrap_or_else(|p| p.into_inner());
        let mut entries: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() || !Self::is_entry(&path) {
                continue;
            }
            let meta = entry.metadata()?;
            entries.push((
                path,
                meta.len(),
                meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            ));
        }
        self.apply_gc(&mut entries)?;
        self.entries_approx
            .store(entries.len() as u64, Ordering::Relaxed);
        self.bytes_approx.store(
            entries.iter().map(|(_, len, _)| *len).sum(),
            Ordering::Relaxed,
        );
        Ok(())
    }

    /// Applies the GC policy to a scanned entry list, removing files
    /// and truncating the list to the survivors (oldest evicted first).
    fn apply_gc(&self, entries: &mut Vec<(PathBuf, u64, SystemTime)>) -> io::Result<()> {
        if !self.gc.is_bounded() {
            return Ok(());
        }
        entries.sort_by_key(|(_, _, mtime)| *mtime);
        let now = SystemTime::now();
        let mut keep = Vec::with_capacity(entries.len());
        for (path, len, mtime) in entries.drain(..) {
            let expired = self.gc.max_age.is_some_and(|max| {
                now.duration_since(mtime)
                    .map(|age| age > max)
                    .unwrap_or(false)
            });
            if expired {
                self.gc_remove(&path, len)?;
            } else {
                keep.push((path, len, mtime));
            }
        }
        let mut total: u64 = keep.iter().map(|(_, len, _)| *len).sum();
        let mut first_kept = 0usize;
        while first_kept < keep.len() && self.gc.over(keep.len() - first_kept, total) {
            let (path, len, _) = &keep[first_kept];
            self.gc_remove(path, *len)?;
            total -= *len;
            first_kept += 1;
        }
        keep.drain(..first_kept);
        *entries = keep;
        Ok(())
    }

    fn gc_remove(&self, path: &Path, len: u64) -> io::Result<()> {
        fs::remove_file(path)?;
        self.gc_removed.fetch_add(1, Ordering::Relaxed);
        self.gc_bytes_freed.fetch_add(len, Ordering::Relaxed);
        Ok(())
    }

    /// Entry count and total disk bytes (by directory scan), plus the
    /// lifecycle counters of this instance.
    pub fn stats(&self) -> io::Result<crate::protocol::StoreStats> {
        let mut entries = 0usize;
        let mut disk_bytes = 0u64;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if !path.is_dir() && Self::is_entry(&path) {
                entries += 1;
                disk_bytes += entry.metadata()?.len();
            }
        }
        let lifecycle = self.lifecycle();
        Ok(crate::protocol::StoreStats {
            entries,
            disk_bytes,
            recovered_temps: lifecycle.recovered_temps,
            quarantined: lifecycle.quarantined,
            gc_removed: lifecycle.gc_removed,
            gc_bytes_freed: lifecycle.gc_bytes_freed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetch_core::Pipeline;
    use fetch_synth::{synthesize, SynthConfig};

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fetch-serve-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trips_and_persists_across_instances() {
        let dir = scratch_dir("roundtrip");
        let case = synthesize(&SynthConfig::small(51));
        let pipeline = Pipeline::fetch();
        let result = pipeline.run(&case.binary);
        let fp = 0x51;

        let store = ResultStore::open(&dir).unwrap();
        assert!(store.load_full(fp, &pipeline.id()).unwrap().is_none());
        store
            .save_with_digest(fp, &pipeline.id(), &result, None)
            .unwrap();
        assert!(store.load_full(fp, &pipeline.id()).unwrap().is_some());

        // A second instance over the same directory — the restart shape.
        let restarted = ResultStore::open(&dir).unwrap();
        let (loaded, digest) = restarted.load_full(fp, &pipeline.id()).unwrap().unwrap();
        assert_eq!(loaded, result);
        assert!(digest.is_none());
        let stats = restarted.stats().unwrap();
        assert_eq!(stats.entries, 1);
        assert!(stats.disk_bytes > 0);
        assert_eq!(stats.quarantined, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_and_mismatched_entries_are_rejected() {
        let dir = scratch_dir("corrupt");
        let case = synthesize(&SynthConfig::small(52));
        let pipeline = Pipeline::parse("FDE+Rec").unwrap();
        let result = pipeline.run(&case.binary);
        let fp = 0x52;
        let store = ResultStore::open(&dir).unwrap();
        store
            .save_with_digest(fp, &pipeline.id(), &result, None)
            .unwrap();
        let path = store.path_for(fp, &pipeline.id());

        // Truncation: drop the tail.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 9]).unwrap();
        assert!(matches!(
            store.load_full(fp, &pipeline.id()),
            Err(StoreError::Malformed(_))
        ));

        // Bit flip in the payload.
        let mut flipped = full.clone();
        let mid = flipped.len() - 20;
        flipped[mid] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert!(store.load_full(fp, &pipeline.id()).is_err());

        // Wrong key inside a well-formed file: flip the stored
        // fingerprint bytes.
        let mut wrong_key = full.clone();
        wrong_key[6] ^= 0xff;
        fs::write(&path, &wrong_key).unwrap();
        assert!(matches!(
            store.load_full(fp, &pipeline.id()),
            Err(StoreError::KeyMismatch)
        ));

        // Not a store file at all.
        fs::write(&path, b"junkjunkjunkjunkjunkjunk").unwrap();
        assert!(matches!(
            store.load_full(fp, &pipeline.id()),
            Err(StoreError::BadHeader(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_sweep_reaps_temps_and_quarantines_truncated_entries() {
        let dir = scratch_dir("recovery");
        let case = synthesize(&SynthConfig::small(53));
        let pipeline = Pipeline::fetch();
        let result = pipeline.run(&case.binary);
        let fp = 0x53;
        {
            let store = ResultStore::open(&dir).unwrap();
            store
                .save_with_digest(fp, &pipeline.id(), &result, None)
                .unwrap();
        }
        // Simulate a crash: an orphaned temp file and a truncated entry.
        let entry = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| ResultStore::is_entry(p))
            .expect("one persisted entry");
        let full = fs::read(&entry).unwrap();
        fs::write(entry.with_extension("tmp999-0"), b"orphan").unwrap();
        let torn = dir.join(format!(
            "{:016x}-{:016x}.{STORE_EXT}",
            0xdead_u64, 0xbeef_u64
        ));
        fs::write(&torn, &full[..full.len() / 3]).unwrap();

        let store = ResultStore::open(&dir).unwrap();
        let stats = store.stats().unwrap();
        assert_eq!(stats.recovered_temps, 1, "orphan temp reaped");
        assert_eq!(stats.quarantined, 1, "truncated entry quarantined");
        assert_eq!(stats.entries, 1, "the valid entry survives");
        assert!(
            dir.join(QUARANTINE_DIR)
                .join(torn.file_name().unwrap())
                .exists(),
            "quarantined, not silently deleted"
        );
        // The surviving entry still loads.
        assert!(store.load_full(fp, &pipeline.id()).unwrap().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_bounds_entry_count_oldest_first() {
        let dir = scratch_dir("gc");
        let pipeline = Pipeline::parse("FDE").unwrap();
        let gc = GcPolicy {
            max_entries: Some(2),
            ..GcPolicy::default()
        };
        let store = ResultStore::open_with(&dir, gc, Arc::new(FaultPlan::default())).unwrap();
        let mut fps = Vec::new();
        for seed in 55u64..59 {
            let case = synthesize(&SynthConfig::small(seed));
            let fp = 0x5500 + seed;
            store
                .save_with_digest(fp, &pipeline.id(), &pipeline.run(&case.binary), None)
                .unwrap();
            fps.push(fp);
            // mtime resolution can be coarse; order by distinct writes.
            std::thread::sleep(Duration::from_millis(15));
        }
        let stats = store.stats().unwrap();
        assert_eq!(stats.entries, 2, "GC must hold the entry bound");
        assert_eq!(stats.gc_removed, 2);
        assert!(stats.gc_bytes_freed > 0);
        let present = |fp| store.load_full(fp, &pipeline.id()).unwrap().is_some();
        assert!(!present(fps[0]), "oldest evicted");
        assert!(present(fps[3]), "newest kept");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digests_persist_and_other_versions_are_quarantined() {
        use fetch_core::ImageDigest;
        let dir = scratch_dir("digest");
        let case = synthesize(&SynthConfig::small(57));
        let pipeline = Pipeline::fetch();
        let result = pipeline.run(&case.binary);
        let fp = 0x57;
        let digest = ImageDigest::compute(&case.binary, fp);

        let store = ResultStore::open(&dir).unwrap();
        store
            .save_with_digest(fp, &pipeline.id(), &result, Some(&digest))
            .unwrap();
        let (back, d) = store.load_full(fp, &pipeline.id()).unwrap().unwrap();
        assert_eq!(back, result);
        assert_eq!(d.as_ref(), Some(&digest));

        // Rewrite the embedded blob's version field. The blob version is
        // checked before its checksum, so no checksum needs forging.
        let path = store.path_for(fp, &pipeline.id());
        let file = fs::read(&path).unwrap();
        let id_len = u16::from_le_bytes(file[14..16].try_into().unwrap()) as usize;
        let version_at = 16 + id_len + 4;
        let others = (1..fetch_core::RESULT_VERSION).chain([fetch_core::RESULT_VERSION + 1]);
        for version in others {
            let mut other = file.clone();
            other[version_at..version_at + 2].copy_from_slice(&version.to_le_bytes());
            fs::write(&path, &other).unwrap();

            // A restart's recovery sweep quarantines the entry...
            let restarted = ResultStore::open(&dir).unwrap();
            let stats = restarted.stats().unwrap();
            assert_eq!(stats.quarantined, 1, "v{version} entry quarantined");
            assert_eq!(stats.entries, 0);
            // ...so the key reads as absent and is recomputed on demand.
            assert!(restarted.load_full(fp, &pipeline.id()).unwrap().is_none());
            fs::remove_dir_all(dir.join(QUARANTINE_DIR)).unwrap();
            fs::write(&path, &file).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn misfiled_entries_are_quarantined_at_open() {
        let dir = scratch_dir("misfiled");
        let case = synthesize(&SynthConfig::small(58));
        let pipeline = Pipeline::parse("FDE+Rec").unwrap();
        let result = pipeline.run(&case.binary);
        let fp = 0x58;
        let id = pipeline.id();
        {
            let store = ResultStore::open(&dir).unwrap();
            store.save_with_digest(fp, &id, &result, None).unwrap();
            // A valid entry copied under another key's filename.
            fs::copy(store.path_for(fp, &id), store.path_for(fp ^ 1, &id)).unwrap();
        }
        let store = ResultStore::open(&dir).unwrap();
        let stats = store.stats().unwrap();
        assert_eq!(stats.quarantined, 1, "the misfiled copy is quarantined");
        assert_eq!(stats.entries, 1);
        assert!(store.load_full(fp ^ 1, &id).unwrap().is_none());
        let (back, _) = store.load_full(fp, &id).unwrap().unwrap();
        assert_eq!(back, result, "the original still loads");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_store_faults_error_or_heal_never_misread() {
        let dir = scratch_dir("faults");
        let case = synthesize(&SynthConfig::small(56));
        let pipeline = Pipeline::fetch();
        let result = pipeline.run(&case.binary);
        let fp = 0x56;
        let plan = Arc::new(
            FaultPlan::parse("store.save=io#1,store.save=short#1,store.load=corrupt#1").unwrap(),
        );
        let store = ResultStore::open_with(&dir, GcPolicy::default(), plan.clone()).unwrap();

        // Firing 1: the save errors out loudly.
        assert!(matches!(
            store.save_with_digest(fp, &pipeline.id(), &result, None),
            Err(StoreError::Io(_))
        ));
        // Firing 2: a torn write persists a truncated entry.
        store
            .save_with_digest(fp, &pipeline.id(), &result, None)
            .unwrap();
        // Firing 3: the armed corrupt flip lands on top of the torn
        // entry — rejected either way.
        assert!(store.load_full(fp, &pipeline.id()).is_err());
        // With the plan spent, the truncation alone is still caught by
        // validation — rejected, never misread.
        assert!(store.load_full(fp, &pipeline.id()).is_err());
        // A clean save heals it and the same key loads cleanly.
        store
            .save_with_digest(fp, &pipeline.id(), &result, None)
            .unwrap();
        let (back, _) = store.load_full(fp, &pipeline.id()).unwrap().unwrap();
        assert_eq!(back, result);
        assert_eq!(plan.fired(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }
}
