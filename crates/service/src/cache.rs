//! The sharded, crash-safe schedule cache.
//!
//! Two layers share one namespace keyed by `(CanonicalKey, fingerprint)`:
//! an in-memory map (per-shard mutex, `Arc`-shared entries) serving the
//! hot path, and a persistent directory tree surviving restarts:
//!
//! ```text
//! <root>/s<shard>/<keyhex>-<fphex>.entry     one cache entry
//! <root>/quarantine/<file>.<reason>          corrupt entries, kept for autopsy
//! ```
//!
//! Entry files are self-verifying: a fixed header line carries the format
//! version, the FNV-64 checksum of the payload, and the payload byte
//! length, so a torn write (crash between `write` and `rename`, bit rot,
//! a partial copy) is detected on reload and **quarantined** — moved
//! aside with a reason suffix, never parsed, never served, never deleted
//! (the operator may want the evidence). The request that misses a
//! quarantined entry simply re-optimizes and re-persists.
//!
//! Writes follow the sweep executor's discipline: a `create_new`
//! lockfile elects one writer per entry, the payload goes to a unique
//! temp file, and an atomic rename publishes it — a crash at any point
//! leaves either the old entry, no entry, or a temp file that is never
//! read as an entry.

use crate::canon::CanonicalKey;
use polymix_bench::runner::{fnv1a64, FNV_OFFSET};
use polymix_bench::sweep::{json_escape, parse_record};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Current entry-format version. Bumping it quarantines (not deletes)
/// every older entry on reload. Version 3: emitted sources call the
/// pasted `kernel_rt` runtime; version-2 entries hold inline-protocol
/// sources the kernel lint no longer accepts, so they are re-optimized
/// rather than replayed. Version 4: the pasted block's entry points
/// report a per-call outcome; a parallel source of version 3 carries the
/// old block, which the lint no longer accepts either. Version 5: loops
/// carry `jam` marks the emitter realizes guard-free (poly+ast's own
/// register tiling, `pocc+vect`'s (2, 2)), and a pipeline mark the
/// emitter runs sequentially says so; a version-4 source for the same
/// request is correct but is not what the optimizer now emits, so it is
/// re-optimized rather than replayed. Version 6: register tiling's inner
/// factor is a `jam` mark too, so served `pocc+vect` sources and those of
/// an explicit `unroll` request lose their guarded replicas; a version-5
/// source is correct but is re-optimized for the same reason. Version 7:
/// poly+ast picks a register tile (gemm, 2mm, 3mm) and a tile-wide chain
/// jam (correlation, covariance) itself, so their served sources change
/// for unchanged requests; a version-6 source is re-optimized likewise.
/// Version 8: a reduction mark lists the arrays it privatizes, so every
/// reduction marker line reads `(reduced [..])`; gemver's poly+ast
/// reduction runs as a region, and cholesky, trisolv, lu and trmm
/// poly+ast, whose marks the emitter ran sequentially, are unmarked. A
/// version-7 source is re-optimized likewise. Version 9: poly+ast
/// separates the guards its loop bounds decide and emits a nest it does
/// not tile unskewed, so cholesky (split and jammed), jacobi-1d-imper,
/// trisolv, symm, lu and gramschmidt are served other sources for
/// unchanged requests; a version-8 source is re-optimized likewise.
/// Version 10: gramschmidt's input boosts the diagonal of `A`, whose
/// generic fill is singular at `small` and `standard`, so a version-9
/// gramschmidt source prints a `NaN` checksum there and is re-optimized.
pub const CACHE_VERSION: u32 = 10;

/// Header magic; anything else in position one is `NotAnEntry`.
const MAGIC: &str = "polymix-cache";

/// One certified, servable optimization result.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntry {
    /// Structural key of the SCoP this entry answers.
    pub key: CanonicalKey,
    /// Request fingerprint (variant/knobs/params/threads/reps).
    pub fingerprint: u64,
    /// Kernel name at admission time (diagnostic only — the key is the
    /// identity).
    pub kernel: String,
    /// Variant label.
    pub variant: String,
    /// The emitted, certified kernel source.
    pub source: String,
    /// Wall-clock seconds the original optimization took (what the hit
    /// saves).
    pub sched_s: f64,
}

/// Why a persistent entry was refused and quarantined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// The file does not even start with the magic header.
    NotAnEntry,
    /// Header version differs from [`CACHE_VERSION`].
    WrongVersion,
    /// Payload shorter than the header's byte length (torn write).
    Truncated,
    /// Payload checksum mismatch (bit flip / interleaved write).
    ChecksumMismatch,
    /// Checksum passed but the payload fields don't parse — a header
    /// copied onto the wrong payload, or an encoder bug.
    BadPayload,
}

impl Corruption {
    /// Short suffix appended to the quarantined file name.
    pub fn reason(self) -> &'static str {
        match self {
            Corruption::NotAnEntry => "not-an-entry",
            Corruption::WrongVersion => "wrong-version",
            Corruption::Truncated => "truncated",
            Corruption::ChecksumMismatch => "checksum",
            Corruption::BadPayload => "bad-payload",
        }
    }
}

/// Renders the on-disk bytes for `entry`.
pub fn encode_entry(entry: &CacheEntry) -> Vec<u8> {
    let mut payload = String::with_capacity(entry.source.len() + 256);
    let _ = write!(
        payload,
        "{{\"key\":\"{}\",\"fingerprint\":\"{:016x}\",\"kernel\":\"{}\",\"variant\":\"{}\",\"sched_s\":{:e},\"source\":\"{}\"}}",
        entry.key.hex(),
        entry.fingerprint,
        json_escape(&entry.kernel),
        json_escape(&entry.variant),
        entry.sched_s,
        json_escape(&entry.source),
    );
    let mut out = String::with_capacity(payload.len() + 64);
    let _ = writeln!(
        out,
        "{MAGIC} v{CACHE_VERSION} crc={:016x} len={}",
        fnv1a64(payload.as_bytes(), FNV_OFFSET),
        payload.len()
    );
    out.push_str(&payload);
    out.into_bytes()
}

/// Parses and verifies on-disk bytes. `Err` carries why the entry must
/// be quarantined.
pub fn decode_entry(bytes: &[u8]) -> Result<CacheEntry, Corruption> {
    let text = std::str::from_utf8(bytes).map_err(|_| Corruption::NotAnEntry)?;
    let (header, payload) = text.split_once('\n').ok_or(Corruption::NotAnEntry)?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some(MAGIC) {
        return Err(Corruption::NotAnEntry);
    }
    let version = parts
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or(Corruption::NotAnEntry)?;
    if version != CACHE_VERSION {
        return Err(Corruption::WrongVersion);
    }
    let crc = parts
        .next()
        .and_then(|v| v.strip_prefix("crc="))
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or(Corruption::NotAnEntry)?;
    let len = parts
        .next()
        .and_then(|v| v.strip_prefix("len="))
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or(Corruption::NotAnEntry)?;
    if payload.len() < len {
        return Err(Corruption::Truncated);
    }
    let payload = &payload[..len];
    if fnv1a64(payload.as_bytes(), FNV_OFFSET) != crc {
        return Err(Corruption::ChecksumMismatch);
    }
    let rec = parse_record(payload).ok_or(Corruption::BadPayload)?;
    let key_hex = rec.str_field("key").ok_or(Corruption::BadPayload)?;
    if key_hex.len() != 32 {
        return Err(Corruption::BadPayload);
    }
    let (hi_hex, lo_hex) = key_hex.split_at(16);
    let key = CanonicalKey {
        hi: u64::from_str_radix(hi_hex, 16).map_err(|_| Corruption::BadPayload)?,
        lo: u64::from_str_radix(lo_hex, 16).map_err(|_| Corruption::BadPayload)?,
    };
    let fingerprint = rec
        .str_field("fingerprint")
        .and_then(|f| u64::from_str_radix(f, 16).ok())
        .ok_or(Corruption::BadPayload)?;
    Ok(CacheEntry {
        key,
        fingerprint,
        kernel: rec.str_field("kernel").unwrap_or("?").to_string(),
        variant: rec.str_field("variant").unwrap_or("?").to_string(),
        source: rec
            .str_field("source")
            .ok_or(Corruption::BadPayload)?
            .to_string(),
        sched_s: rec.num_field("sched_s").unwrap_or(0.0),
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Shard {
    map: Mutex<HashMap<(CanonicalKey, u64), Arc<CacheEntry>>>,
}

/// The sharded cache: in-memory maps backed by the persistent tree.
pub struct ShardedCache {
    root: PathBuf,
    shards: Vec<Shard>,
    /// Entries refused and moved aside during [`ShardedCache::open`].
    pub quarantined_on_load: u64,
    write_failures: AtomicU64,
}

impl ShardedCache {
    /// Opens (creating directories as needed) and eagerly loads every
    /// persistent entry, quarantining corrupt ones with a warning. An
    /// unreadable root degrades to a memory-only cache rather than
    /// failing daemon startup.
    pub fn open(root: &Path, shards: usize) -> ShardedCache {
        let shards = shards.clamp(1, 256);
        let mut cache = ShardedCache {
            root: root.to_path_buf(),
            shards: (0..shards)
                .map(|_| Shard {
                    map: Mutex::new(HashMap::new()),
                })
                .collect(),
            quarantined_on_load: 0,
            write_failures: AtomicU64::new(0),
        };
        let mut quarantined = 0u64;
        for s in 0..shards {
            let dir = cache.shard_dir(s);
            if std::fs::create_dir_all(&dir).is_err() {
                continue;
            }
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for f in entries.flatten() {
                let path = f.path();
                let name = f.file_name();
                let Some(name) = name.to_str() else { continue };
                if !name.ends_with(".entry") {
                    // Leftover temp/lock files from a crashed writer are
                    // litter, not entries; reap them.
                    if name.contains(".tmp.") || name.ends_with(".lock") {
                        let _ = std::fs::remove_file(&path);
                    }
                    continue;
                }
                let Ok(bytes) = std::fs::read(&path) else {
                    continue;
                };
                match decode_entry(&bytes) {
                    Ok(entry) => {
                        let k = (entry.key, entry.fingerprint);
                        lock(&cache.shards[s].map).insert(k, Arc::new(entry));
                    }
                    Err(why) => {
                        cache.quarantine(&path, name, why);
                        quarantined += 1;
                    }
                }
            }
        }
        if quarantined > 0 {
            eprintln!(
                "warning: schedule cache {}: quarantined {quarantined} corrupt \
                 entr{} on reload; affected requests will re-optimize",
                root.display(),
                if quarantined == 1 { "y" } else { "ies" }
            );
        }
        cache.quarantined_on_load = quarantined;
        cache
    }

    fn shard_dir(&self, s: usize) -> PathBuf {
        self.root.join(format!("s{s:02}"))
    }

    fn entry_path(&self, key: CanonicalKey, fingerprint: u64) -> PathBuf {
        self.shard_dir(key.shard(self.shards.len()))
            .join(format!("{}-{fingerprint:016x}.entry", key.hex()))
    }

    /// Moves a refused entry into `quarantine/` with a reason suffix.
    /// Renames are atomic, so two daemons sharing the tree cannot both
    /// half-process one file.
    fn quarantine(&self, path: &Path, name: &str, why: Corruption) {
        let qdir = self.root.join("quarantine");
        let _ = std::fs::create_dir_all(&qdir);
        let dest = qdir.join(format!("{name}.{}", why.reason()));
        if std::fs::rename(path, &dest).is_err() {
            // Cross-device or permission trouble: fall back to removal so
            // the poisoned bytes can at least never be served.
            let _ = std::fs::remove_file(path);
        }
    }

    /// In-memory lookup; never touches the disk (reload happens once at
    /// [`ShardedCache::open`]).
    pub fn get(&self, key: CanonicalKey, fingerprint: u64) -> Option<Arc<CacheEntry>> {
        let shard = &self.shards[key.shard(self.shards.len())];
        lock(&shard.map).get(&(key, fingerprint)).cloned()
    }

    /// Admits `entry` to memory and (best-effort, lockfile + atomic
    /// rename) to disk. A persistence failure is counted, not fatal:
    /// the entry still serves from memory for this daemon's lifetime.
    pub fn insert(&self, entry: CacheEntry) -> Arc<CacheEntry> {
        let entry = Arc::new(entry);
        let shard = &self.shards[entry.key.shard(self.shards.len())];
        lock(&shard.map).insert((entry.key, entry.fingerprint), Arc::clone(&entry));
        if let Err(e) = self.persist(&entry) {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "warning: schedule cache: could not persist {}: {e}",
                entry.key.hex()
            );
        }
        entry
    }

    /// Fault-injected torn persist ([`crate::fault::Fault::TornWrite`]):
    /// admits to memory normally but writes a truncated byte stream
    /// straight to the entry path — no temp file, no rename — modeling a
    /// daemon that died between `write` and flush. Serving continues
    /// from memory for this process; the next [`ShardedCache::open`]
    /// detects the short payload and quarantines the file.
    pub fn insert_torn(&self, entry: CacheEntry) -> Arc<CacheEntry> {
        let entry = Arc::new(entry);
        let shard = &self.shards[entry.key.shard(self.shards.len())];
        lock(&shard.map).insert((entry.key, entry.fingerprint), Arc::clone(&entry));
        let path = self.entry_path(entry.key, entry.fingerprint);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let bytes = encode_entry(&entry);
        let cut = bytes.len() - bytes.len() / 3;
        let _ = std::fs::write(&path, &bytes[..cut.max(1)]);
        entry
    }

    /// Total persistence failures since open (surfaced in `/stats`).
    pub fn write_failures(&self) -> u64 {
        self.write_failures.load(Ordering::Relaxed)
    }

    /// Number of shards (for stats / tests).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn persist(&self, entry: &CacheEntry) -> Result<(), String> {
        let path = self.entry_path(entry.key, entry.fingerprint);
        let Some(dir) = path.parent() else {
            return Err("entry path has no parent".into());
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir: {e}"))?;
        let lock_path = path.with_extension("entry.lock");
        // `create_new` elects one writer; a loser simply skips — the
        // winner is writing identical certified bytes for this key.
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock_path)
        {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => return Ok(()),
            Err(e) => return Err(format!("lockfile: {e}")),
        }
        let result = self.write_locked(&path, entry);
        let _ = std::fs::remove_file(&lock_path);
        result
    }

    fn write_locked(&self, path: &Path, entry: &CacheEntry) -> Result<(), String> {
        let bytes = encode_entry(entry);
        let tmp = path.with_extension(format!(
            "entry.tmp.{}_{}",
            std::process::id(),
            NEXT_TMP.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &bytes).map_err(|e| format!("write: {e}"))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("rename: {e}")
        })
    }
}

static NEXT_TMP: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kernel: &str) -> CacheEntry {
        CacheEntry {
            key: CanonicalKey {
                hi: 0x1122_3344_5566_7788,
                lo: 0x99aa_bbcc_ddee_ff00,
            },
            fingerprint: 0xdead_beef_0000_0001,
            kernel: kernel.into(),
            variant: "poly+ast".into(),
            source: "fn main() {\n    println!(\"x\\\"y\");\n}\n".into(),
            sched_s: 0.0123,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let e = entry("gemm");
        let bytes = encode_entry(&e);
        let back = decode_entry(&bytes).expect("decodes");
        assert_eq!(back, e);
    }

    #[test]
    fn decode_rejects_corruptions() {
        let e = entry("gemm");
        let good = encode_entry(&e);
        // Truncated payload.
        let torn = &good[..good.len() - 7];
        assert_eq!(decode_entry(torn), Err(Corruption::Truncated));
        // Single bit flip in the payload.
        let mut flipped = good.clone();
        let n = flipped.len();
        flipped[n - 10] ^= 0x01;
        assert_eq!(decode_entry(&flipped), Err(Corruption::ChecksumMismatch));
        // Wrong version.
        let text = String::from_utf8(good.clone()).unwrap();
        let old = text.replacen(&format!("v{CACHE_VERSION}"), "v1", 1);
        assert_eq!(decode_entry(old.as_bytes()), Err(Corruption::WrongVersion));
        // Not an entry at all.
        assert_eq!(decode_entry(b"hello\nworld"), Err(Corruption::NotAnEntry));
    }

    #[test]
    fn persistent_roundtrip_and_reload() {
        let dir = std::env::temp_dir().join(format!("polymix-cache-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let e = entry("gemm");
        {
            let cache = ShardedCache::open(&dir, 4);
            assert!(cache.get(e.key, e.fingerprint).is_none());
            cache.insert(e.clone());
            assert_eq!(cache.get(e.key, e.fingerprint).as_deref(), Some(&e));
        }
        // Fresh process image: reload from disk.
        let cache = ShardedCache::open(&dir, 4);
        assert_eq!(cache.quarantined_on_load, 0);
        assert_eq!(cache.get(e.key, e.fingerprint).as_deref(), Some(&e));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
