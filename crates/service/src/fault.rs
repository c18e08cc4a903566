//! Service-layer fault injection.
//!
//! Extends the runtime's deterministic fault-injection story to the
//! daemon: tests and load runs can make the *scheduler* panic, the
//! *compile* (optimization pipeline) run slow, or the *cache write* tear
//! mid-payload — the three failure families the robustness machinery
//! (panic containment + breaker, deadlines + cancellation, checksums +
//! quarantine) exists to absorb.
//!
//! Faults arrive per request via the `inject` field, honored only when
//! the daemon was started with `allow_inject` (never in a production
//! configuration), so injection is precise and deterministic rather than
//! probabilistic: the caller decides exactly which request fails how.

use std::time::Duration;

/// The payload of the panic [`Fault::Panic`] raises.
pub const INJECTED_PANIC: &str = "injected scheduler panic";

/// Installs a panic hook that keeps [`INJECTED_PANIC`], which the worker
/// contains, off stderr and hands every other panic to the previous hook.
pub fn hide_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<&str>() != Some(&INJECTED_PANIC) {
            previous(info);
        }
    }));
}

/// A parsed injection directive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Fault {
    /// No fault.
    #[default]
    None,
    /// Panic inside the scheduling stage (contained by the worker).
    Panic,
    /// Sleep this long inside the scheduling stage, checking the
    /// cancellation token cooperatively (exercises deadlines).
    Slow(u64),
    /// Tear the persistent cache write for this entry: the bytes are
    /// truncated mid-payload before the atomic rename, as if the daemon
    /// died between `write` and flush. The checksum catches it on
    /// reload.
    TornWrite,
}

impl Fault {
    /// Parses `""`, `"panic"`, `"slow:<ms>"`, `"torn"`. Unknown
    /// directives are a client error, reported as `None` plus `false`.
    pub fn parse(spec: &str) -> Option<Fault> {
        match spec {
            "" => Some(Fault::None),
            "panic" => Some(Fault::Panic),
            "torn" => Some(Fault::TornWrite),
            other => other
                .strip_prefix("slow:")
                .and_then(|ms| ms.parse().ok())
                .map(Fault::Slow),
        }
    }

    /// Executes the scheduling-stage side of the fault: panics for
    /// [`Fault::Panic`], sleeps in 5ms cancellable slices for
    /// [`Fault::Slow`]. `cancelled` is polled between slices; returns
    /// `false` when the sleep was cut short by cancellation.
    // The panic *is* the injected fault (contained by the worker's
    // catch_unwind); everything else in this crate is abort-free and the
    // CI clippy gate enforces that.
    #[allow(clippy::panic)]
    pub fn apply_scheduling(&self, cancelled: &dyn Fn() -> bool) -> bool {
        match self {
            Fault::Panic => std::panic::panic_any(INJECTED_PANIC),
            Fault::Slow(ms) => {
                let mut left = *ms;
                while left > 0 {
                    if cancelled() {
                        return false;
                    }
                    let step = left.min(5);
                    std::thread::sleep(Duration::from_millis(step));
                    left -= step;
                }
                true
            }
            Fault::None | Fault::TornWrite => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_directives() {
        assert_eq!(Fault::parse(""), Some(Fault::None));
        assert_eq!(Fault::parse("panic"), Some(Fault::Panic));
        assert_eq!(Fault::parse("slow:250"), Some(Fault::Slow(250)));
        assert_eq!(Fault::parse("torn"), Some(Fault::TornWrite));
        assert_eq!(Fault::parse("slow:x"), None);
        assert_eq!(Fault::parse("nonsense"), None);
    }

    #[test]
    fn slow_fault_is_cancellable() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let flag = AtomicBool::new(true);
        let t = std::time::Instant::now();
        let completed = Fault::Slow(10_000).apply_scheduling(&|| flag.load(Ordering::Relaxed));
        assert!(!completed, "cancelled sleep must report interruption");
        assert!(t.elapsed() < Duration::from_secs(2));
    }
}
