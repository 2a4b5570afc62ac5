//! Repo-specific lint rules over the workspace source that rustc and
//! clippy cannot express:
//!
//! * **L2-stats-encapsulation** — counter structs the simulator owns
//!   ([`ENCAPSULATED_COUNTERS`]: `SimStats`, `StallStack`) are mutated
//!   only where the producer discipline can see them: inside `sim.rs`
//!   and the defining file. Field names are parsed from the defining
//!   file, so the rule tracks each struct automatically. Rust has no
//!   read-only `pub` fields, so no compiler check can take this over.
//! * **L5-policy-token-table** — every `pub enum` reachable through
//!   `SimConfig`'s field types (transitively, through the nested config
//!   structs it embeds) carries an `impl Policy for <Enum>` token table
//!   in `crates/core/src/policy.rs`, so canonical JSON, CLI parsing, and
//!   sweep labels can never drift apart for a new policy axis.
//!
//! The compiler enforces the other three rules (DESIGN.md §3f): L1 (no
//! panics in the hot loop) is a `#![deny]` of the panic-family clippy
//! lints on `crates/core/src/sim.rs` with one `#[expect]` per documented
//! invariant; L3 (no host time or environment reads) is the
//! `disallowed-methods` list in the workspace `clippy.toml`; L4 (every
//! `SimConfig` field in the canonical JSON) is the exhaustive
//! destructuring in `SimConfig::to_canonical_json`.
//!
//! The pass is lexical (see [`crate::rustsrc`]): the workspace has no
//! external dependencies, so a `syn`-based implementation is not
//! available offline. The scanner masks comments/strings and skips
//! `#[cfg(test)]` items, which is faithful for this codebase's
//! hand-written, macro-light style.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::rustsrc::{blank_noncode, blank_spans, brace_span, cfg_test_spans, line_of, line_text};

/// A lint diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `L2-stats-encapsulation`.
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.rule, self.path, self.line, self.message
        )
    }
}

/// Run both rules over the workspace rooted at `root` and return their
/// findings.
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let files = workspace_sources(root)?;
    let mut findings = Vec::new();
    lint_stats_encapsulation(root, &files, &mut findings)?;
    lint_policy_token_tables(root, &mut findings)?;
    Ok(findings)
}

/// All `.rs` files under `crates/*/src` and the root package's `src/`,
/// repo-relative. Tests directories are exempt from every rule.
fn workspace_sources(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let entries =
        std::fs::read_dir(&crates_dir).map_err(|e| format!("reading {crates_dir:?}: {e}"))?;
    let mut src_dirs: Vec<PathBuf> = vec![root.join("src")];
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        src_dirs.push(entry.path().join("src"));
    }
    for dir in src_dirs {
        if dir.is_dir() {
            collect_rs(&dir, &mut out)?;
        }
    }
    let mut rel: Vec<String> = out
        .iter()
        .map(|p| {
            p.strip_prefix(root)
                .expect("collected under root")
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {dir:?}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Blanked source with `#[cfg(test)]` items erased: what L2 scans.
fn scannable(src: &str) -> String {
    let mut blanked = blank_noncode(src);
    let spans = cfg_test_spans(&blanked);
    blank_spans(&mut blanked, &spans);
    blanked
}

/// Parse `pub <ident>:` field names from the named struct.
fn struct_fields(src: &str, blanked: &str, name: &str) -> Result<Vec<String>, String> {
    let at = blanked
        .find(&format!("pub struct {name}"))
        .ok_or_else(|| format!("struct {name} not found"))?;
    let (open, end) = brace_span(blanked, at).ok_or_else(|| format!("struct {name} unbalanced"))?;
    let body = &src[open..end];
    let mut fields = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("pub ") {
            if let Some((ident, _)) = rest.split_once(':') {
                let ident = ident.trim();
                if !ident.is_empty()
                    && ident
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                {
                    fields.push(ident.to_string());
                }
            }
        }
    }
    if fields.is_empty() {
        return Err(format!("no fields parsed from struct {name}"));
    }
    Ok(fields)
}

/// One L2-protected counter struct: where it is defined, which files may
/// mutate its fields, and the receiver substring a mutating line must
/// contain (`""` disables the receiver filter — right for structs whose
/// field names are already distinctive).
pub struct CounterSpec {
    /// Struct name, e.g. `SimStats`.
    pub name: &'static str,
    /// Defining file (fields are parsed from here).
    pub file: &'static str,
    /// Files allowed to mutate fields directly (the defining file is
    /// always allowed).
    pub allowed: &'static [&'static str],
    /// Receiver hint: the mutating line must contain this substring for
    /// the finding to count, filtering out same-named fields of other
    /// types.
    pub receiver: &'static str,
}

/// The counter structs L2 protects. Both live in pp-core and follow the
/// same discipline: `sim.rs` is the sole producer, so every mutation is
/// visible to the observer hook (`SimStats`) or the opt-in accessor
/// (`StallStack`), and goldens stay byte-authoritative.
pub const ENCAPSULATED_COUNTERS: &[CounterSpec] = &[
    CounterSpec {
        name: "SimStats",
        file: "crates/core/src/stats.rs",
        allowed: &["crates/core/src/sim.rs"],
        receiver: "stats",
    },
    CounterSpec {
        name: "StallStack",
        file: "crates/core/src/stall.rs",
        allowed: &["crates/core/src/sim.rs"],
        // `commit_slots`, `fetch_starved`, … collide with nothing else
        // in the workspace; no receiver filter needed.
        receiver: "",
    },
];

fn lint_stats_encapsulation(
    root: &Path,
    files: &[String],
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    for spec in ENCAPSULATED_COUNTERS {
        let def_src = std::fs::read_to_string(root.join(spec.file))
            .map_err(|e| format!("{}: {e}", spec.file))?;
        let fields = struct_fields(&def_src, &blank_noncode(&def_src), spec.name)?;
        for rel in files {
            // The producer(s) and the type itself may touch fields
            // directly: both are upstream of the observation surface.
            if rel == spec.file || spec.allowed.contains(&rel.as_str()) {
                continue;
            }
            let src = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
            let blanked = scannable(&src);
            for field in &fields {
                let needle = format!(".{field}");
                let mut from = 0;
                while let Some(rel_at) = blanked[from..].find(&needle) {
                    let at = from + rel_at;
                    from = at + needle.len();
                    // Receiver must match the spec's hint and the next
                    // token must be an assignment operator.
                    let line_so_far = &blanked[blanked[..at].rfind('\n').map_or(0, |i| i + 1)..at];
                    if !line_so_far.contains(spec.receiver) {
                        continue;
                    }
                    if is_assignment_after(&blanked, at + needle.len()) {
                        findings.push(Finding {
                            rule: "L2-stats-encapsulation",
                            path: rel.clone(),
                            line: line_of(&src, at),
                            message: format!(
                                "{} field `{field}` mutated outside {}: `{}`",
                                spec.name,
                                spec.allowed.join("/"),
                                line_text(&src, at)
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Is the text at `at` (after a field access) an assignment — `=`,
/// `+=`, `-=`, … — rather than a comparison or read?
fn is_assignment_after(blanked: &str, at: usize) -> bool {
    let rest = blanked[at..].trim_start();
    let b = rest.as_bytes();
    match b.first() {
        Some(b'=') => b.get(1) != Some(&b'=') && b.get(1) != Some(&b'>'),
        Some(op) if b"+-*/%&|^".contains(op) => b.get(1) == Some(&b'='),
        Some(b'<') => b.get(1) == Some(&b'<') && b.get(2) == Some(&b'='),
        Some(b'>') => b.get(1) == Some(&b'>') && b.get(2) == Some(&b'='),
        _ => false,
    }
}

/// Files scanned for the type declarations behind `SimConfig`'s fields:
/// the config itself, the cache config, and the pp-predictor sources
/// whose config structs `SimConfig` embeds (`JrsConfig`, `MergeConfig`,
/// …). Files that do not exist are simply skipped, so the rule degrades
/// gracefully on partial (synthetic test) workspaces.
const POLICY_DECL_FILES: &[&str] = &[
    "crates/core/src/config.rs",
    "crates/core/src/cache.rs",
    "crates/predictor/src/adaptive.rs",
    "crates/predictor/src/confidence.rs",
    "crates/predictor/src/h2p.rs",
    "crates/predictor/src/merge.rs",
];

/// Maximal `[A-Za-z0-9_]` runs starting with an uppercase letter — the
/// candidate type names inside a field type or enum body. Names not
/// declared in [`POLICY_DECL_FILES`] are ignored by the caller, which is
/// what drops `Option`, `Vec`, and friends.
fn type_idents(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            cur.push(c);
        } else {
            if cur.chars().next().is_some_and(|f| f.is_ascii_uppercase()) {
                out.push(std::mem::take(&mut cur));
            }
            cur.clear();
        }
    }
    if cur.chars().next().is_some_and(|f| f.is_ascii_uppercase()) {
        out.push(cur);
    }
    out
}

/// The `ident: type` declarations of a struct body, as raw type text
/// (empty when the struct has no parseable pub fields — unit structs
/// and private-field types are simply not walked into).
fn struct_field_type_texts(src: &str, blanked: &str, name: &str) -> Vec<String> {
    let Some(at) = blanked.find(&format!("pub struct {name}")) else {
        return Vec::new();
    };
    let Some((open, end)) = brace_span(blanked, at) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in src[open..end].lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("pub ") {
            if let Some((_, ty)) = rest.split_once(':') {
                out.push(ty.trim().trim_end_matches(',').to_string());
            }
        }
    }
    out
}

/// L5: every enum reachable through `SimConfig`'s field types must carry
/// a `Policy` token table. Walks the declared-type closure — struct
/// fields and enum variant payloads — starting from `SimConfig`, and
/// reports each reachable `pub enum` with no `impl Policy for <Enum>` in
/// `policy.rs`.
fn lint_policy_token_tables(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    // Where the declarations live: name -> (is_enum, file, src, blanked).
    struct Decl {
        is_enum: bool,
        file: &'static str,
        src: String,
        blanked: String,
    }
    let mut decls: std::collections::BTreeMap<String, Decl> = std::collections::BTreeMap::new();
    for rel in POLICY_DECL_FILES {
        let Ok(src) = std::fs::read_to_string(root.join(rel)) else {
            continue; // partial workspace: nothing declared here
        };
        let blanked = blank_noncode(&src);
        for (kw, is_enum) in [("pub struct ", false), ("pub enum ", true)] {
            let mut from = 0;
            while let Some(rel_at) = blanked[from..].find(kw) {
                let at = from + rel_at;
                from = at + kw.len();
                let name: String = blanked[at + kw.len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    decls.entry(name).or_insert(Decl {
                        is_enum,
                        file: rel,
                        src: src.clone(),
                        blanked: blanked.clone(),
                    });
                }
            }
        }
    }
    if !decls.contains_key("SimConfig") {
        return Ok(()); // no config surface in this workspace (synthetic)
    }

    let policy_src =
        std::fs::read_to_string(root.join("crates/core/src/policy.rs")).unwrap_or_default();
    let policy_blanked = blank_noncode(&policy_src);

    let mut work = vec!["SimConfig".to_string()];
    let mut seen = std::collections::BTreeSet::new();
    while let Some(name) = work.pop() {
        if !seen.insert(name.clone()) {
            continue;
        }
        let Some(decl) = decls.get(&name) else {
            continue; // std / foreign type: out of scope
        };
        if decl.is_enum {
            if !policy_blanked.contains(&format!("impl Policy for {name}")) {
                let at = decl
                    .blanked
                    .find(&format!("pub enum {name}"))
                    .expect("declared above");
                findings.push(Finding {
                    rule: "L5-policy-token-table",
                    path: decl.file.to_string(),
                    line: line_of(&decl.src, at),
                    message: format!(
                        "enum `{name}` is on the SimConfig canonical-JSON surface \
                         but has no `impl Policy for {name}` token table in \
                         crates/core/src/policy.rs"
                    ),
                });
            }
            // Variant payloads can embed further config types (scan the
            // blanked body so doc-comment prose contributes nothing).
            if let Some(at) = decl.blanked.find(&format!("pub enum {name}")) {
                if let Some((open, end)) = brace_span(&decl.blanked, at) {
                    work.extend(type_idents(&decl.blanked[open..end]));
                }
            }
        } else {
            for ty in struct_field_type_texts(&decl.src, &decl.blanked, &name) {
                work.extend(type_idents(&ty));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_detector_distinguishes_ops() {
        assert!(is_assignment_after("x = 1", 1));
        assert!(is_assignment_after("x += 1", 1));
        assert!(is_assignment_after("x <<= 1", 1));
        assert!(!is_assignment_after("x == 1", 1));
        assert!(!is_assignment_after("x => 1", 1));
        assert!(!is_assignment_after("x + 1", 1));
        assert!(!is_assignment_after("x >= 1", 1));
        assert!(!is_assignment_after("x)", 1));
    }

    #[test]
    fn struct_fields_parses_pub_fields() {
        let src = "pub struct S {\n    /// doc\n    pub alpha: u64,\n    pub beta_2: bool,\n    gamma: u8,\n}";
        let fields = struct_fields(src, &blank_noncode(src), "S").unwrap();
        assert_eq!(fields, vec!["alpha", "beta_2"]);
    }
}
