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
//! * a reduction marker that declares the `sequential fallback` (a shape
//!   that cannot be privatized) is followed by plain loops instead;
//! * vect regions (the explicit-vectorization post-pass, nested inside
//!   the construct that owns the loop) declare doall certification,
//!   stop a full lane group before the bound, advance by the lane
//!   width, and carry a scalar remainder loop plus an end marker.
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

/// Every explicit-vectorization region of the emitted source, delimited
/// `// vect region N (...)` … `// vect end N`: its label (e.g. `vect
/// region 0 (width 4, doall-certified)`) and its text, markers included
/// — `None` when the end marker is missing before the next vect region
/// or the end of the source. A vect rewrite lives *inside* the closure
/// of whichever `kernel_rt` region owns the loop (or in plain sequential
/// code), so these spans are independent of the [`KINDS`] markers.
fn vect_regions(source: &str) -> Vec<(String, Option<String>)> {
    let lines: Vec<&str> = source.lines().map(str::trim).collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(rest) = line.strip_prefix("// vect region ") else {
            continue;
        };
        let end = format!(
            "// vect end {}",
            rest.split_whitespace().next().unwrap_or("")
        );
        let text = lines[i + 1..]
            .iter()
            .position(|l| *l == end || l.starts_with("// vect region "))
            .filter(|&k| lines[i + 1 + k] == end)
            .map(|k| lines[i..=i + 1 + k].join("\n"));
        out.push((format!("vect region {rest}"), text));
    }
    out
}

/// Checks the obligations of one explicit-vectorization region: the
/// rewrite may only be applied to certified-doall loops, the group loop
/// must stop a full lane group before the bound and advance by the full
/// lane width, and a scalar remainder loop must cover the tail.
fn lint_vect_region(label: &str, text: Option<&str>, violations: &mut Vec<Violation>) {
    let Some(text) = text else {
        violations.push(lint_violation(
            label,
            "vect region has no matching `// vect end` marker".to_string(),
            "an unterminated vect span cannot be audited as a unit; re-emit the \
             region with its end marker",
        ));
        return;
    };
    if !label.contains("doall-certified") {
        violations.push(lint_violation(
            label,
            "vect region does not declare doall certification".to_string(),
            "the explicit-vect rewrite is only legal on loops the certifier proved \
             dependence-free; the marker must carry `doall-certified`",
        ));
    }
    if !text.contains("+ 3 <=") {
        violations.push(lint_violation(
            label,
            "vect group loop does not stop a full lane group before the bound".to_string(),
            "the grouped loop must test `v + (W-1) <= hi` so no lane reads past the \
             iteration space; re-emit the region",
        ));
    }
    if !text.contains("+= 4;") {
        violations.push(lint_violation(
            label,
            "vect group loop does not advance by the full lane width".to_string(),
            "the grouped loop must step by W after executing W lanes or lanes repeat; \
             re-emit the region",
        ));
    }
    if !text.contains("// vect remainder") {
        violations.push(lint_violation(
            label,
            "vect region has no scalar remainder loop".to_string(),
            "trip counts not divisible by the lane width drop their tail iterations \
             without the remainder loop; re-emit the region",
        ));
    }
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
        // A reduction whose shape cannot be privatized declares the
        // sequential fallback: plain loops follow, no runtime call.
        marked = marker(line)
            .filter(|(kind, label)| {
                !(*kind == "reduction" && label.contains("sequential fallback"))
            })
            .map(|(kind, label)| (kind, label, ln));
    }

    for (label, text) in vect_regions(source) {
        lint_vect_region(&label, text.as_deref(), &mut violations);
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
    /// kind, a sequential-fallback reduction, and a vect span nested in
    /// the wavefront closure.
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
// reduction region 2 (reduced [0], owner-indexed [])
kernel_rt::reduction(THREADS, (0), (P_N - 1), 1, &[(s_p_a, 4)], move |v_c1: i64, copies: &[kernel_rt::P]| unsafe {
});
// reduction region 3: shape not parallelizable, sequential fallback
let mut v_c1: i64 = 0;
// wavefront region 4
kernel_rt::wavefront(THREADS, 3, tiles, move |v_c1: i64, v_c2: i64| unsafe {
// vect region 5 (width 4, doall-certified)
{
let mut v_c1 = lo; let v_c1_hi = hi;
while v_c1 + 3 <= v_c1_hi {
{ let v_c1 = v_c1; body(v_c1); }
{ let v_c1 = v_c1 + 1; body(v_c1); }
{ let v_c1 = v_c1 + 2; body(v_c1); }
{ let v_c1 = v_c1 + 3; body(v_c1); }
v_c1 += 4;
}
// vect remainder
while v_c1 <= v_c1_hi { body(v_c1); v_c1 += 1; }
}
// vect end 5
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
            "let mut v_c1: i64 = 0;",
            "std::thread::spawn(move || unsafe { body(0) });",
        );
        assert_flags(&bare_spawn, "`spawn` outside the kernel_rt block");
        let raw_store = good().replace(
            "let mut v_c1: i64 = 0;",
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
        // A reduction region that runs plain loops without declaring the
        // fallback, and one whose marker is the last line of the source.
        let bad = good().replace(": shape not parallelizable, sequential fallback", "");
        assert_flags(
            &bad,
            "reduction region marker is not followed by its kernel_rt::reduction",
        );
        let bad = format!(
            "{}// reduction region 9 (reduced [0], owner-indexed [])",
            good()
        );
        assert_flags(&bad, "reduction region marker is not followed");
    }

    #[test]
    fn vect_missing_remainder_flagged() {
        let bad = good().replace(
            "// vect remainder\nwhile v_c1 <= v_c1_hi { body(v_c1); v_c1 += 1; }\n",
            "",
        );
        assert_flags(&bad, "no scalar remainder loop");
    }

    #[test]
    fn vect_uncertified_label_flagged() {
        let bad = good().replace(
            "// vect region 5 (width 4, doall-certified)",
            "// vect region 5 (width 4)",
        );
        assert_flags(&bad, "does not declare doall certification");
    }

    #[test]
    fn vect_partial_group_bound_flagged() {
        let bad = good().replace("while v_c1 + 3 <= v_c1_hi {", "while v_c1 <= v_c1_hi + 0 {");
        assert_flags(&bad, "full lane group before the bound");
    }

    #[test]
    fn vect_unterminated_region_flagged() {
        assert_flags(
            &good().replace("// vect end 5\n", ""),
            "no matching `// vect end`",
        );
    }
}
