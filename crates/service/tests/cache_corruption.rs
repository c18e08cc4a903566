//! Crash-safety of the persistent schedule cache across daemon
//! restarts: truncated, bit-flipped and wrong-version entries must be
//! quarantined (not served, not deleted) and the affected requests must
//! re-optimize rather than error.

use polymix_service::daemon::{Service, ServiceConfig};
use polymix_service::proto::{OptimizeRequest, Served};
use polymix_service::{Client, Fault, ShardedCache};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "polymix_cachecorrupt_{tag}_{}_{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ))
}

fn start(dir: &Path) -> Service {
    Service::start(ServiceConfig {
        cache_dir: dir.to_path_buf(),
        allow_inject: true,
        ..ServiceConfig::default()
    })
    .expect("daemon starts")
}

fn req(kernel: &str) -> OptimizeRequest {
    OptimizeRequest {
        kernel: kernel.into(),
        deadline_ms: 30_000,
        ..OptimizeRequest::default()
    }
}

/// All persisted `.entry` files under the cache root, sorted for
/// determinism.
fn entry_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(shards) = std::fs::read_dir(dir) else {
        return out;
    };
    for s in shards.flatten() {
        if !s.file_name().to_string_lossy().starts_with('s') {
            continue;
        }
        let Ok(files) = std::fs::read_dir(s.path()) else {
            continue;
        };
        for f in files.flatten() {
            if f.path().extension().is_some_and(|e| e == "entry") {
                out.push(f.path());
            }
        }
    }
    out.sort();
    out
}

fn quarantine_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir.join("quarantine"))
        .map(|rd| {
            rd.flatten()
                .map(|f| f.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn corrupt_entries_are_quarantined_and_requests_reoptimize() {
    let dir = temp_dir("mixed");
    let _ = std::fs::remove_dir_all(&dir);

    // Populate three distinct entries, then stop the daemon.
    let svc = start(&dir);
    let mut c = Client::connect(svc.addr, Duration::from_secs(30)).expect("connect");
    for kernel in ["gemm", "atax", "bicg"] {
        let r = c.optimize(&req(kernel)).expect("populate");
        assert_eq!(r.served, Some(Served::Miss));
    }
    svc.stop();
    let files = entry_files(&dir);
    assert_eq!(files.len(), 3, "three persisted entries expected");

    // Corrupt all three, one per failure family.
    let truncate_victim = &files[0];
    let bytes = std::fs::read(truncate_victim).expect("read entry");
    std::fs::write(truncate_victim, &bytes[..bytes.len() / 2]).expect("truncate");

    let flip_victim = &files[1];
    let mut bytes = std::fs::read(flip_victim).expect("read entry");
    let n = bytes.len();
    bytes[n - 5] ^= 0x40;
    std::fs::write(flip_victim, &bytes).expect("bit flip");

    let version_victim = &files[2];
    let text = String::from_utf8(std::fs::read(version_victim).expect("read entry"))
        .expect("entry is utf-8");
    let current = format!("polymix-cache v{}", polymix_service::cache::CACHE_VERSION);
    assert!(text.contains(&current), "entry header lost its version");
    std::fs::write(version_victim, text.replace(&current, "polymix-cache v2"))
        .expect("version rewrite");

    // Restart: every corrupt entry is refused and moved aside.
    let svc = start(&dir);
    let quarantined = quarantine_files(&dir);
    assert_eq!(
        quarantined.len(),
        3,
        "all corrupt entries quarantined, got {quarantined:?}"
    );
    assert!(quarantined.iter().any(|f| f.ends_with(".truncated")));
    assert!(quarantined.iter().any(|f| f.ends_with(".checksum")));
    assert!(quarantined.iter().any(|f| f.ends_with(".wrong-version")));
    assert!(entry_files(&dir).is_empty(), "no poisoned entry remains live");

    // The affected requests re-optimize (miss, not an error) and
    // re-persist good entries.
    let mut c = Client::connect(svc.addr, Duration::from_secs(30)).expect("connect");
    for kernel in ["gemm", "atax", "bicg"] {
        let r = c.optimize(&req(kernel)).expect("re-optimize");
        assert_eq!(r.status, "ok");
        assert_eq!(r.served, Some(Served::Miss), "{kernel} must re-optimize");
        assert!(!r.degraded);
    }
    svc.stop();
    assert_eq!(entry_files(&dir).len(), 3, "fresh entries re-persisted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_torn_write_serves_now_quarantines_on_restart() {
    let dir = temp_dir("torn");
    let _ = std::fs::remove_dir_all(&dir);

    let svc = start(&dir);
    let mut c = Client::connect(svc.addr, Duration::from_secs(30)).expect("connect");
    let mut r = req("mvt");
    r.inject = Fault::TornWrite;
    let first = c.optimize(&r).expect("torn-write miss");
    assert_eq!(first.served, Some(Served::Miss));
    // Same daemon still serves the entry from memory.
    r.inject = Fault::None;
    let hit = c.optimize(&r).expect("memory hit");
    assert_eq!(hit.served, Some(Served::Hit));
    svc.stop();

    // The restart detects the short payload and quarantines it; the
    // request becomes a clean miss.
    let svc = start(&dir);
    let quarantined = quarantine_files(&dir);
    assert_eq!(quarantined.len(), 1, "torn entry quarantined: {quarantined:?}");
    assert!(quarantined[0].ends_with(".truncated") || quarantined[0].ends_with(".checksum"));
    let mut c = Client::connect(svc.addr, Duration::from_secs(30)).expect("connect");
    let again = c.optimize(&r).expect("re-optimize after quarantine");
    assert_eq!(again.served, Some(Served::Miss));
    svc.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_reports_quarantine_count_via_open() {
    // The same behavior at the ShardedCache layer, without a daemon:
    // open → corrupt → reopen → quarantined_on_load.
    let dir = temp_dir("unit");
    let _ = std::fs::remove_dir_all(&dir);
    let svc = start(&dir);
    let mut c = Client::connect(svc.addr, Duration::from_secs(30)).expect("connect");
    c.optimize(&req("gemm")).expect("populate");
    svc.stop();
    let files = entry_files(&dir);
    assert_eq!(files.len(), 1);
    let bytes = std::fs::read(&files[0]).expect("read");
    std::fs::write(&files[0], &bytes[..10]).expect("truncate");
    let cache = ShardedCache::open(&dir, 16);
    assert_eq!(cache.quarantined_on_load, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
