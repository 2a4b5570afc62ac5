//! Repo-specific lint rules over the workspace source.
//!
//! Five rules, each with a named diagnostic and an allowlist (see
//! `crates/analyze/lint.allow`):
//!
//! * **L1-hot-loop-panic** — no `unwrap`/`expect`/`panic!`-family calls
//!   inside the five-phase hot loop of `crates/core/src/sim.rs`, outside
//!   `debug_assert`-gated or `#[cfg(debug_assertions)]`/`#[cfg(test)]`
//!   code. Documented invariant `expect`s are allowlisted individually,
//!   with their message as the matching key, so a *new* panic site fails
//!   the build until it is justified.
//! * **L2-stats-encapsulation** — counter structs the simulator owns
//!   ([`ENCAPSULATED_COUNTERS`]: `SimStats`, `StallStack`) are mutated
//!   only where the producer discipline can see them: inside `sim.rs`
//!   and the defining file. Field names are parsed from the defining
//!   file, so the rule tracks each struct automatically.
//! * **L3-determinism** — no host-time or environment reads outside
//!   `selfprof.rs`, `crates/sweep`, `crates/serve`, and this crate:
//!   simulation results must be a pure function of (workload, seed,
//!   config) or the `pp-sweep` result cache would serve stale science.
//! * **L4-config-canonical-json** — every `SimConfig` field appears in
//!   `to_canonical_json` (field list parsed from `config.rs`), keeping
//!   the cache fingerprint complete as the config grows.
//! * **L5-policy-token-table** — every `pub enum` reachable through
//!   `SimConfig`'s field types (transitively, through the nested config
//!   structs it embeds) carries an `impl Policy for <Enum>` token table
//!   in `crates/core/src/policy.rs`, so canonical JSON, CLI parsing, and
//!   sweep labels can never drift apart for a new policy axis.
//!
//! The pass is lexical (see [`crate::rustsrc`]): the workspace has no
//! external dependencies, so a `syn`-based implementation is not
//! available offline. The scanner masks comments/strings and skips
//! `#[cfg(test)]` items, which is faithful for this codebase's
//! hand-written, macro-light style.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::rustsrc::{
    blank_noncode, blank_spans, brace_span, cfg_debug_spans, cfg_test_spans, debug_assert_spans,
    fn_span, line_of, line_text,
};

/// A lint diagnostic that survived the allowlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `L1-hot-loop-panic`.
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

/// One parsed allowlist entry: suppress findings of `rule` in `path`
/// whose source line contains `needle`.
#[derive(Debug, Clone)]
struct Allow {
    rule: String,
    path: String,
    needle: String,
}

/// Parse `lint.allow`: `RULE PATH "needle" — justification` per line,
/// `#` comments and blank lines ignored. The justification is
/// mandatory prose; the parser only demands it is non-empty.
fn parse_allowlist(text: &str) -> Result<Vec<Allow>, String> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("lint.allow:{}: {what}: {raw}", i + 1);
        let (rule, rest) = line.split_once(' ').ok_or_else(|| err("missing path"))?;
        let (path, rest) = rest
            .trim_start()
            .split_once(' ')
            .ok_or_else(|| err("missing needle"))?;
        let rest = rest.trim_start();
        let inner = rest
            .strip_prefix('"')
            .and_then(|r| r.split_once('"'))
            .ok_or_else(|| err("needle must be double-quoted"))?;
        let (needle, justification) = inner;
        if justification.trim().is_empty() {
            return Err(err("missing justification after the needle"));
        }
        out.push(Allow {
            rule: rule.to_string(),
            path: path.to_string(),
            needle: needle.to_string(),
        });
    }
    Ok(out)
}

/// The functions making up the five-phase hot loop in `sim.rs`: the
/// per-cycle driver, the five phase roots, and their helpers. A listed
/// name disappearing from the file is itself reported (the rule must
/// not rot silently when code is renamed).
pub const HOT_LOOP_FNS: &[&str] = &[
    "cycle",
    "do_commit",
    "commit_entry",
    "commit_branch",
    "commit_return",
    "release_branch_position",
    "do_writeback_and_resolve",
    "resolve_branch",
    "kill_subtree",
    "do_issue",
    "do_dispatch",
    "dispatch_one",
    "do_fetch",
    "fetch_arbitrate",
    "fetch_path",
    "fetch_cond_branch",
    "finish_merge",
    "merge_check",
    "fetch_indirect",
    "push_fetched",
    "push_fetched_with_tag",
];

const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Host-time / environment tokens forbidden by L3.
const NONDETERMINISM_TOKENS: &[&str] = &[
    "Instant::now",
    "SystemTime",
    "env::var",
    "env::vars",
    "env::args",
    "env::temp_dir",
    "temp_dir()",
    "process::id()",
];

/// Directories/files where L3 tokens are allowed by design (host timing
/// and environment access are these components' purpose).
const DETERMINISM_EXEMPT: &[&str] = &[
    "crates/core/src/selfprof.rs",
    "crates/sweep/",
    "crates/analyze/",
    "crates/serve/",
];

/// Run every rule over the workspace rooted at `root` and return the
/// findings that no allowlist entry covers.
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let allow_text = std::fs::read_to_string(root.join("crates/analyze/lint.allow"))
        .map_err(|e| format!("reading crates/analyze/lint.allow: {e}"))?;
    let allows = parse_allowlist(&allow_text)?;
    let files = workspace_sources(root)?;
    let mut findings = Vec::new();
    lint_hot_loop(root, &mut findings)?;
    lint_stats_encapsulation(root, &files, &mut findings)?;
    lint_determinism(root, &files, &mut findings)?;
    lint_config_canonical_json(root, &mut findings)?;
    lint_policy_token_tables(root, &mut findings)?;
    findings.retain(|f| {
        !allows.iter().any(|a| {
            a.rule == f.rule
                && a.path == f.path
                && read_line(root, &f.path, f.line).contains(&a.needle)
        })
    });
    Ok(findings)
}

fn read_line(root: &Path, rel: &str, line: usize) -> String {
    std::fs::read_to_string(root.join(rel))
        .ok()
        .and_then(|s| s.lines().nth(line - 1).map(str::to_string))
        .unwrap_or_default()
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

/// Blanked source with test/debug-gated spans erased: what the rules
/// actually scan.
fn scannable(src: &str) -> String {
    let mut blanked = blank_noncode(src);
    let mut spans = cfg_test_spans(&blanked);
    spans.extend(cfg_debug_spans(&blanked));
    spans.extend(debug_assert_spans(&blanked));
    blank_spans(&mut blanked, &spans);
    blanked
}

fn lint_hot_loop(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    let rel = "crates/core/src/sim.rs";
    let src = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
    let blanked = scannable(&src);
    for name in HOT_LOOP_FNS {
        let Some((start, end)) = fn_span(&blanked, name) else {
            findings.push(Finding {
                rule: "L1-hot-loop-panic",
                path: rel.to_string(),
                line: 1,
                message: format!(
                    "hot-loop function `{name}` not found in sim.rs — update \
                     HOT_LOOP_FNS in pp-analyze if it was renamed"
                ),
            });
            continue;
        };
        let body = &blanked[start..end];
        for token in PANIC_TOKENS {
            let mut from = 0;
            while let Some(rel_at) = body[from..].find(token) {
                let at = start + from + rel_at;
                findings.push(Finding {
                    rule: "L1-hot-loop-panic",
                    path: rel.to_string(),
                    line: line_of(&src, at),
                    message: format!(
                        "`{token}` in hot-loop fn `{name}`: `{}`",
                        line_text(&src, at)
                    ),
                });
                from += rel_at + token.len();
            }
        }
    }
    Ok(())
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

fn lint_determinism(
    root: &Path,
    files: &[String],
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    for rel in files {
        if DETERMINISM_EXEMPT.iter().any(|ex| rel.starts_with(ex)) {
            continue;
        }
        let src = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        let blanked = scannable(&src);
        for token in NONDETERMINISM_TOKENS {
            let mut from = 0;
            while let Some(rel_at) = blanked[from..].find(token) {
                let at = from + rel_at;
                from = at + token.len();
                findings.push(Finding {
                    rule: "L3-determinism",
                    path: rel.clone(),
                    line: line_of(&src, at),
                    message: format!(
                        "host time/environment read `{token}` outside \
                         selfprof/sweep/serve: `{}`",
                        line_text(&src, at)
                    ),
                });
            }
        }
    }
    Ok(())
}

fn lint_config_canonical_json(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    let rel = "crates/core/src/config.rs";
    let src = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
    let blanked = blank_noncode(&src);
    let fields = struct_fields(&src, &blanked, "SimConfig")?;
    let Some((start, end)) = fn_span(&blanked, "to_canonical_json") else {
        findings.push(Finding {
            rule: "L4-config-canonical-json",
            path: rel.to_string(),
            line: 1,
            message: "fn to_canonical_json not found in config.rs".to_string(),
        });
        return Ok(());
    };
    // Keys live inside string literals, so search the *raw* source span.
    // A key appears either plainly quoted (`"mode"` inside a raw/outer
    // literal) or escaped (`\"mode\"` inside a format string).
    let body = &src[start..end];
    for field in &fields {
        let plain = format!("\"{field}\"");
        let escaped = format!("\\\"{field}\\\"");
        if !body.contains(&plain) && !body.contains(&escaped) {
            findings.push(Finding {
                rule: "L4-config-canonical-json",
                path: rel.to_string(),
                line: line_of(&src, start),
                message: format!(
                    "SimConfig field `{field}` missing from to_canonical_json — \
                     the sweep-cache fingerprint would ignore it"
                ),
            });
        }
    }
    Ok(())
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
    fn allowlist_parses_and_rejects_malformed() {
        let ok = parse_allowlist(
            "# comment\n\
             L1-hot-loop-panic crates/core/src/sim.rs \"msg text\" — documented invariant\n",
        )
        .unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].needle, "msg text");
        assert!(parse_allowlist("L1 path").is_err(), "missing needle");
        assert!(
            parse_allowlist("L1 path \"n\"").is_err(),
            "missing justification"
        );
        assert!(
            parse_allowlist("L1 path unquoted just").is_err(),
            "unquoted needle"
        );
    }

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
