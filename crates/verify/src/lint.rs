//! Certificate 3: structural audit of emitted kernel source.
//!
//! The Rust emitter (`polymix-codegen`) expresses every parallel
//! construct as one call into the kernel runtime
//! (`crates/runtime/src/kernel_rt.rs`, compiled and unit-tested as
//! `polymix_runtime::kernel_rt`), which it pastes verbatim into the
//! emitted file. The progress/poison protocol therefore lives in real
//! Rust, not in emitted text, and this lint only has to establish — from
//! the *source text alone*, so a cached or hand-edited kernel can be
//! audited before it is compiled and run — that the kernel really runs
//! that runtime and nothing else:
//!
//! * the block between `// polymix kernel_rt begin` / `end` is
//!   byte-identical to the in-repo runtime file;
//! * outside that block there is no threading or synchronization of the
//!   kernel's own: none of the `FORBIDDEN` tokens appears;
//! * every `// <kind> region N ...` marker is directly followed by the
//!   matching `kernel_rt::<kind>(` call, and no such call appears without
//!   its marker (a pipeline cannot be relabeled a doall) or without the
//!   runtime block;
//! * only a pipeline marker may declare the `sequential fallback` (a
//!   hand-built tree whose pipeline body is not loops alone; the detector
//!   marks no such loop) and be followed by plain loops instead. The
//!   emitter runs every reduction mark as a region, privatizing the
//!   arrays the mark lists, so a reduction marker is always followed by
//!   its call.
//!
//! Findings use [`ViolationKind::KernelLint`] with the region label in
//! `loop_name`. The lint is purely syntactic: that the *annotation* a
//! region was emitted from is safe is certificates 1–2; that the runtime
//! honors the annotation is what `kernel_rt`'s own tests check.

use crate::violation::{Certificate, Violation, ViolationKind};

/// The kernel runtime as `polymix-codegen` pastes it (same file, read
/// independently: the lint shares no state with the emitter).
const KERNEL_RT: &str = include_str!("../../runtime/src/kernel_rt.rs");
const BLOCK_BEGIN: &str = "// polymix kernel_rt begin\n";
const BLOCK_END: &str = "// polymix kernel_rt end\n";

/// The runtime's entry points, one per parallel construct.
pub const KINDS: [&str; 4] = ["doall", "reduction", "pipeline", "wavefront"];

/// Tokens that may only occur inside the runtime block: anything that
/// starts a thread, touches an atomic, or catches an unwind.
const FORBIDDEN: [&str; 6] = [
    "spawn",
    "Atomic",
    "fetch_",
    ".store(",
    "catch_unwind",
    "thread::scope",
];

/// Parses `// <kind> region N ...` markers; returns the marker's kind
/// and label when the line is one.
fn marker(line: &str) -> Option<(&'static str, &str)> {
    let body = line.trim().strip_prefix("// ")?;
    let kind = KINDS.into_iter().find(|k| {
        body.strip_prefix(k)
            .is_some_and(|rest| rest.trim_start().starts_with("region"))
    })?;
    Some((kind, body))
}

/// The runtime entry point a line calls, if any.
fn runtime_call(line: &str) -> Option<&'static str> {
    line.match_indices("kernel_rt::").find_map(|(at, path)| {
        let name = &line[at + path.len()..];
        KINDS.into_iter().find(|k| {
            name.strip_prefix(k)
                .is_some_and(|rest| rest.starts_with('('))
        })
    })
}

fn lint_violation(label: &str, detail: String, fix: &str) -> Violation {
    Violation {
        kind: ViolationKind::KernelLint,
        src: String::new(),
        dst: String::new(),
        vector: Vec::new(),
        level: 0,
        loop_name: label.to_string(),
        detail,
        fix: fix.to_string(),
    }
}

/// Audits emitted kernel source; `kernel` names the [`Certificate`].
pub fn verify_source(kernel: &str, source: &str) -> Certificate {
    let mut violations = Vec::new();

    // The pasted runtime block: check it, then skip its lines below. A
    // block without its end marker cannot match and runs to the end.
    let mut block_lines = 0..0;
    if let Some(b) = source.find(BLOCK_BEGIN) {
        let inner = b + BLOCK_BEGIN.len();
        let len = source[inner..].find(BLOCK_END);
        let pasted = len.and_then(|len| {
            let block = source[inner..inner + len].strip_prefix("mod kernel_rt {\n")?;
            block.strip_suffix("}\n")
        });
        if pasted != Some(KERNEL_RT) {
            violations.push(lint_violation(
                "",
                "kernel_rt block is not crates/runtime/src/kernel_rt.rs (edited, or its end \
                 marker is missing)"
                    .to_string(),
                "the progress/poison protocol is only as tested if the pasted runtime is \
                 byte-identical to the in-repo file; re-emit the kernel",
            ));
        }
        let line_of = |at: usize| source[..at].matches('\n').count();
        let after = len.map_or(usize::MAX, |len| line_of(inner + len + BLOCK_END.len()));
        block_lines = line_of(b)..after;
    } else if source.contains("kernel_rt::") {
        violations.push(lint_violation(
            "",
            "kernel calls kernel_rt but carries no kernel_rt block".to_string(),
            "a region can only run on the pasted runtime; without the block the call \
             resolves to unaudited code (or nothing); re-emit the kernel",
        ));
    }

    // A marker awaiting its call on the next line: (kind, label, line).
    let mut marked: Option<(&str, &str, usize)> = None;
    // The empty sentinel line flushes a marker on the last line.
    for (n, line) in source.lines().chain([""]).enumerate() {
        if block_lines.contains(&n) {
            continue;
        }
        let ln = n + 1;
        for token in FORBIDDEN {
            if line.contains(token) {
                violations.push(lint_violation(
                    "",
                    format!("line {ln}: `{token}` outside the kernel_rt block"),
                    "emitted kernels synchronize only through the pasted runtime: a \
                     hand-rolled thread, atomic or unwind boundary bypasses the tested \
                     poison protocol; express the region as a kernel_rt call",
                ));
            }
        }
        match (marked.take(), runtime_call(line)) {
            (Some((kind, _, _)), Some(called)) if kind == called => {}
            (Some((kind, label, at)), _) => violations.push(lint_violation(
                label,
                format!(
                    "line {at}: {kind} region marker is not followed by its kernel_rt::{kind} call"
                ),
                "the marker states the certified annotation and the next line must hand \
                 the loop to the matching runtime entry point; a different (or no) call \
                 means the region was relabeled or its synchronization dropped",
            )),
            (None, Some(called)) => violations.push(lint_violation(
                "",
                format!(
                    "line {ln}: kernel_rt::{called} call without a `// {called} region` marker"
                ),
                "every runtime call is emitted directly under the marker naming its \
                 certified annotation; re-emit the region",
            )),
            (None, None) => {}
        }
        // A pipeline whose body is not loops alone declares the
        // sequential fallback: plain loops follow, no runtime call.
        marked = marker(line)
            .filter(|&(kind, label)| !(kind == "pipeline" && label.contains("sequential fallback")))
            .map(|(kind, label)| (kind, label, ln));
    }

    violations.sort_by_key(|v| !v.kind.is_error());
    Certificate {
        kernel: kernel.to_string(),
        deps_checked: 0,
        pairs_checked: 0,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed kernel: the runtime block, one region of every
    /// kind, and a sequential-fallback pipeline.
    fn good() -> String {
        format!(
            "{BLOCK_BEGIN}mod kernel_rt {{\n{KERNEL_RT}}}\n{BLOCK_END}{}",
            r#"
fn main() {
let s_p_a = kernel_rt::P(p_a);
// doall region 0 (dynamic schedule)
kernel_rt::doall(THREADS, (0), (P_N - 1), 1, Some(0), move |v_c1: i64| unsafe {
});
// pipeline region 1 (phases 1, PIPE_BATCH = 8)
kernel_rt::pipeline(THREADS, o_lo, o_hi, 1, 1, span, 1, 8, move |v_c1: i64, phase: i64, off_lo: i64, off_hi: i64| unsafe {
});
// reduction region 2 (reduced [0])
kernel_rt::reduction(THREADS, (0), (P_N - 1), 1, &[(s_p_a, 4)], move |v_c1: i64, copies: &[kernel_rt::P]| unsafe {
});
// pipeline region 5: body not loops alone, sequential fallback
let mut v_c2: i64 = 0;
// wavefront region 4
kernel_rt::wavefront(THREADS, 3, tiles, move |v_c1: i64, v_c2: i64| unsafe {
});
if kernel_rt::poisoned() { std::process::exit(101); }
}
"#
        )
    }

    /// Asserts `source` is rejected with a finding mentioning `needle`.
    fn assert_flags(source: &str, needle: &str) {
        let cert = verify_source("k", source);
        assert!(
            cert.violations
                .iter()
                .any(|v| v.kind == ViolationKind::KernelLint && v.detail.contains(needle)),
            "expected a finding containing `{needle}`, got {:?}",
            cert.violations
        );
    }

    #[test]
    fn well_formed_kernel_is_clean() {
        let cert = verify_source("k", &good());
        assert!(cert.is_complete(), "{:?}", cert.violations);
        // So is a sequential kernel: no block, no regions.
        let cert = verify_source("k", "fn main() {\nlet mut v_c1: i64 = 0;\n}\n");
        assert!(cert.is_complete(), "{:?}", cert.violations);
    }

    #[test]
    fn edited_or_unterminated_block_is_flagged() {
        // A dropped await, a raw progress store, an uncontained worker:
        // any edit of the pasted protocol is an edit of the block.
        let bad = good().replacen("v >= ph - 1", "v >= ph - 2", 1);
        assert_ne!(bad, good());
        assert_flags(&bad, "is not crates/runtime/src/kernel_rt.rs");
        assert_flags(
            &good().replace(BLOCK_END, ""),
            "is not crates/runtime/src/kernel_rt.rs",
        );
    }

    #[test]
    fn threading_outside_the_block_is_flagged() {
        let bare_spawn = good().replace(
            "let mut v_c2: i64 = 0;",
            "std::thread::spawn(move || unsafe { body(0) });",
        );
        assert_flags(&bare_spawn, "`spawn` outside the kernel_rt block");
        let raw_store = good().replace(
            "let mut v_c2: i64 = 0;",
            "progress[t].0.store(v, Ordering::Release);",
        );
        assert_flags(&raw_store, "`.store(` outside the kernel_rt block");
    }

    #[test]
    fn relabeled_region_is_flagged() {
        // A pipeline marker over a doall call: the carried dependences
        // the marker promises to synchronize would run unsynchronized.
        let bad = good().replace(
            "kernel_rt::pipeline(THREADS, o_lo, o_hi, 1, 1, span, 1, 8, move |v_c1: i64, phase: i64, off_lo: i64, off_hi: i64|",
            "kernel_rt::doall(THREADS, o_lo, o_hi, 1, None, move |v_c1: i64|",
        );
        assert_flags(
            &bad,
            "pipeline region marker is not followed by its kernel_rt::pipeline call",
        );
        // The converse: a call whose marker was stripped.
        let bad = good().replace("// wavefront region 4\n", "");
        assert_flags(
            &bad,
            "kernel_rt::wavefront call without a `// wavefront region` marker",
        );
    }

    #[test]
    fn region_without_the_block_is_flagged() {
        let src = good();
        let own = &src[src.find(BLOCK_END).expect("end marker") + BLOCK_END.len()..];
        assert_flags(own, "no kernel_rt block");
    }

    #[test]
    fn unprivatized_reduction_is_flagged() {
        // A reduction region that runs plain loops, with or without
        // declaring a fallback (only a pipeline has one), and one whose
        // marker is the last line of the source.
        for label in ["", ": shape not parallelizable, sequential fallback"] {
            let bad = good().replace(
                "// pipeline region 5: body not loops alone, sequential fallback",
                &format!("// reduction region 5{label}"),
            );
            assert_flags(
                &bad,
                "reduction region marker is not followed by its kernel_rt::reduction",
            );
        }
        let bad = format!("{}// reduction region 9 (reduced [0])", good());
        assert_flags(&bad, "reduction region marker is not followed");
    }
}
