//! `turbopool-lint` — repo-native static analysis for the workspace.
//!
//! A deliberately small line/token scanner (no `syn`, no external crates;
//! this environment cannot reach a registry) enforcing rules that `rustc`
//! and `clippy` cannot express because they are *about this repository*:
//!
//! * **L1 `wallclock`** — no `Instant::now` / `SystemTime` /
//!   `thread::sleep` anywhere outside the harness allowlist: all
//!   simulation code must run on the virtual clock (`turbopool_iosim::Clk`),
//!   or experiments stop being deterministic and replayable.
//! * **L2 `panic`** — no `unwrap()` / `expect(..)` / `panic!` family in
//!   non-test code of `crates/core` and `crates/bufpool`: the buffer-pool
//!   hot paths must degrade, not abort. Justify exceptions with a
//!   `// lint: allow(panic)` comment.
//! * **L3 `lock-order`** — nested `Mutex`/`RwLock` acquisitions must
//!   follow the order declared in `crates/lint/lock_order.toml`, keeping
//!   the future multi-threaded pool deadlock-free. Intra-function only:
//!   guards are tracked through `let` bindings, `drop(..)` calls and
//!   block scope.
//! * **L4 `design-match`** — a `match` over a plain `SsdDesign` scrutinee
//!   must name all four designs and use no `_` arm, so adding a design is
//!   a compile-surface event. (Tuple scrutinees like `(design, state)`
//!   are exempt: those are transition tables, exhaustive per-row.)
//! * **L5 `unsafe`** — the workspace is `unsafe`-free today; any `unsafe`
//!   token must carry a `# Safety` comment explaining the contract.
//! * **L6 `io-error`** — a call to a known `Result<_, IoError>`-returning
//!   I/O method in non-test code of `crates/core` and `crates/bufpool`
//!   must not be `.unwrap()`ed/`.expect()`ed or discarded with `let _ =`:
//!   storage errors feed the graceful-degradation machinery (retry,
//!   quarantine, WAL salvage) and silently dropping one loses data.
//!   Justify exceptions with a `// lint: allow(io-error)` comment.
//! * **L12 `policy-match`** — the same exhaustiveness contract as L4 for
//!   the buffer-policy enums: a `match` over a plain `replacement`
//!   (`ReplacementKind`) or `admission` (`AdmissionKind`) scrutinee must
//!   name every variant and use no `_` arm, so a newly added policy
//!   cannot be silently funneled into some default behavior.
//!
//! On top of the per-line rules, a token-stream call graph ([`graph`])
//! powers the interprocedural rules:
//!
//! * **L9 `determinism`** — iterating a `HashMap`/`HashSet` in a
//!   sim-state crate (`core`, `bufpool`, `iosim`, `wal`, `workload`) is
//!   a finding unless the results are order-insensitive or sorted before
//!   observable use: hash iteration order leaks host randomness into the
//!   deterministic replay (the PR 3 bug class).
//! * **L10 `lock-across-io`** — a `Mutex`/`RwLock` guard held across a
//!   call that transitively reaches an `IoManager` submit/read/write
//!   path. Free under the virtual clock today, a convoy once the pool is
//!   shared by real threads over real I/O.
//! * **L3, cross-function** — lock acquisition order is also checked
//!   across one level of intra-crate calls, including guard-returning
//!   helpers like `SsdManager::part`.
//! * **L11 `dead-metric`** — every `pub` field of a `*Stats` /
//!   `*Metrics` / `*Snapshot` struct in a sim-state crate must be read
//!   by a bench JSON emitter, an integration test, an example, or a
//!   `#[cfg(test)]` region; unobserved counters are observability rot.
//! * **`unused-allow`** — a `lint: allow(<rule>)` marker that suppresses
//!   no finding is itself a finding, so the allow surface only shrinks.
//!
//! Comments and string literals are scrubbed before token matching, so a
//! rule name appearing in a doc comment or a message string never trips
//! the rule. Findings on a line are suppressed by a `lint: allow(<rule>)`
//! marker on the same line or in the comment block directly above it.

#![forbid(unsafe_code)]

mod graph;

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use graph::Graph;

/// The rules, named as they appear in `lint: allow(..)` markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    Wallclock,
    Panic,
    LockOrder,
    DesignMatch,
    PolicyMatch,
    Unsafe,
    IoError,
    ThreadSpawn,
    MagicThreshold,
    Determinism,
    LockAcrossIo,
    DeadMetric,
    UnusedAllow,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::Wallclock => "wallclock",
            Rule::Panic => "panic",
            Rule::LockOrder => "lock-order",
            Rule::DesignMatch => "design-match",
            Rule::PolicyMatch => "policy-match",
            Rule::Unsafe => "unsafe",
            Rule::IoError => "io-error",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::MagicThreshold => "magic-threshold",
            Rule::Determinism => "determinism",
            Rule::LockAcrossIo => "lock-across-io",
            Rule::DeadMetric => "dead-metric",
            Rule::UnusedAllow => "unused-allow",
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub file: PathBuf,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Harness-side files where wall-clock use is legitimate: they measure
/// *real* OS-thread contention, which the virtual clock cannot observe.
/// Each file carries a justification comment at the call site.
const WALLCLOCK_ALLOWLIST: &[&str] = &[
    "crates/bench/benches/ablation.rs",
    "examples/oltp_shootout.rs",
];

/// The only non-test sites allowed to spawn OS threads (rule L7): the
/// parallel driver's worker pool, and the ablation bench that measures
/// real latch contention. Everywhere else, threads could observe or
/// introduce scheduling nondeterminism that the virtual-time design
/// forbids.
const THREAD_ALLOWLIST: &[&str] = &[
    "crates/workload/src/pool.rs",
    "crates/bench/benches/ablation.rs",
];

/// Linter configuration.
pub struct Config {
    /// Directory to scan (normally the workspace root).
    pub root: PathBuf,
    /// Declared lock classes, outermost first (see `lock_order.toml`).
    pub lock_order: Vec<String>,
}

impl Config {
    pub fn new(root: PathBuf, lock_order: Vec<String>) -> Self {
        Config { root, lock_order }
    }
}

/// Locate the workspace root by walking up from `start` until a
/// `Cargo.toml` declaring `[workspace]` is found.
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Parse the `order = ["a", "b", ...]` line of a lock-order file. A
/// missing file yields an empty order (L3 disabled) rather than an error,
/// so the tool degrades gracefully outside the repository.
pub fn load_lock_order(path: &Path) -> Vec<String> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let scrubbed: String = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    let Some(start) = scrubbed.find("order") else {
        return Vec::new();
    };
    let Some(open) = scrubbed[start..].find('[') else {
        return Vec::new();
    };
    let Some(close) = scrubbed[start + open..].find(']') else {
        return Vec::new();
    };
    let body = &scrubbed[start + open + 1..start + open + close];
    let mut order: Vec<String> = Vec::new();
    for name in body
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
    {
        // Duplicate class names would make the order ambiguous; keep the
        // first occurrence (its position defines the class).
        if !order.contains(&name) {
            order.push(name);
        }
    }
    order
}

/// Allowlist entries naming files that no longer exist under `root`:
/// each would silently allowlist nothing. The self-test asserts this is
/// empty so allowlists cannot go stale.
pub fn stale_allowlist_entries(root: &Path) -> Vec<String> {
    WALLCLOCK_ALLOWLIST
        .iter()
        .chain(THREAD_ALLOWLIST.iter())
        .filter(|rel| !root.join(rel).is_file())
        .map(|rel| rel.to_string())
        .collect()
}

/// Run every rule over all `.rs` files under `cfg.root`, skipping
/// `target/`, `.git/` and `fixtures/` subtrees (fixtures are scanned by
/// the self-tests, or by pointing the binary straight at them).
pub fn run(cfg: &Config) -> Vec<Finding> {
    let mut files = Vec::new();
    collect_rs_files(&cfg.root, &cfg.root, &mut files);
    files.sort();
    let mut prepared: Vec<(PathBuf, Prepared)> = Vec::new();
    for rel in files {
        let Ok(source) = fs::read_to_string(cfg.root.join(&rel)) else {
            continue;
        };
        prepared.push((rel, prepare(&source)));
    }
    let g = Graph::build(&prepared, &cfg.lock_order);
    // L11 findings, grouped by the declaring file so its allow markers
    // and unused-allow accounting see them.
    let mut dead: HashMap<PathBuf, Vec<Finding>> = HashMap::new();
    for m in g.dead_metrics() {
        dead.entry(m.file.clone())
            .or_default()
            .push(dead_metric_finding(m));
    }
    let mut findings = Vec::new();
    for (rel, p) in &prepared {
        let mut out = scan_with(cfg, &g, rel, p);
        if let Some(extra) = dead.remove(rel) {
            out.extend(extra);
        }
        let (mut kept, used) = apply_markers(p, out);
        rule_unused_allow(p, rel, &used, &mut kept);
        kept.sort_by_key(|f| f.line);
        findings.extend(kept);
    }
    findings
}

fn dead_metric_finding(m: &graph::MetricField) -> Finding {
    Finding {
        rule: Rule::DeadMetric,
        file: m.file.clone(),
        line: m.line + 1,
        message: format!(
            "counter `{}.{}` is never read by a bench JSON emitter, test, or example — \
             wire it into a report or remove it (observability rot)",
            m.strukt, m.field
        ),
    }
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Never descend into build output or VCS state; skip fixture
            // subtrees unless they ARE the scan root.
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

/// A source file prepared for token matching.
struct Prepared {
    /// Lines with comments and string/char literals blanked out.
    code: Vec<String>,
    /// Comment text per line (everything after `//`, and block-comment
    /// bodies), used for `lint: allow` markers and `# Safety` checks.
    comments: Vec<String>,
    /// True for lines whose comment text is the whole line.
    comment_only: Vec<bool>,
    /// Lines inside `#[cfg(test)]` modules or `#[test]` functions.
    in_test: Vec<bool>,
}

/// Scrub comments and literals, keeping byte positions line-aligned.
fn prepare(source: &str) -> Prepared {
    let lines: Vec<&str> = source.lines().collect();
    let mut code: Vec<String> = Vec::with_capacity(lines.len());
    let mut comments: Vec<String> = vec![String::new(); lines.len()];

    #[derive(PartialEq)]
    enum St {
        Code,
        Block(usize), // nesting depth of /* */
        Str,
        RawStr(usize), // number of # in the delimiter
    }
    let mut st = St::Code;
    for (ln, line) in lines.iter().enumerate() {
        let b = line.as_bytes();
        let mut out = String::with_capacity(b.len());
        let mut i = 0usize;
        while i < b.len() {
            match st {
                St::Code => {
                    let c = b[i];
                    if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
                        comments[ln].push_str(&line[i + 2..]);
                        while out.len() < b.len() {
                            out.push(' ');
                        }
                        i = b.len();
                    } else if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        st = St::Block(1);
                        out.push_str("  ");
                        i += 2;
                    } else if c == b'"' {
                        st = St::Str;
                        out.push(' ');
                        i += 1;
                    } else if c == b'r'
                        && (i == 0 || !is_ident_byte(b[i - 1]))
                        && i + 1 < b.len()
                        && (b[i + 1] == b'"' || b[i + 1] == b'#')
                    {
                        // Raw string r"..." / r#"..."#.
                        let mut hashes = 0usize;
                        let mut j = i + 1;
                        while j < b.len() && b[j] == b'#' {
                            hashes += 1;
                            j += 1;
                        }
                        if j < b.len() && b[j] == b'"' {
                            st = St::RawStr(hashes);
                            for _ in i..=j {
                                out.push(' ');
                            }
                            i = j + 1;
                        } else {
                            out.push(c as char);
                            i += 1;
                        }
                    } else if c == b'\'' {
                        // Char literal vs lifetime: a literal closes with a
                        // quote within a few bytes ('a', '\n', '\u{..}').
                        let rest = &b[i + 1..];
                        let close = if rest.first() == Some(&b'\\') {
                            rest.iter().skip(1).position(|&x| x == b'\'').map(|p| p + 1)
                        } else if rest.len() >= 2 && rest[1] == b'\'' {
                            Some(1)
                        } else {
                            None
                        };
                        if let Some(off) = close {
                            for _ in 0..off + 2 {
                                out.push(' ');
                            }
                            i += off + 2;
                        } else {
                            out.push(' '); // lifetime tick
                            i += 1;
                        }
                    } else {
                        out.push(c as char);
                        i += 1;
                    }
                }
                St::Block(depth) => {
                    if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        st = if depth == 1 {
                            St::Code
                        } else {
                            St::Block(depth - 1)
                        };
                        out.push_str("  ");
                        i += 2;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        st = St::Block(depth + 1);
                        out.push_str("  ");
                        i += 2;
                    } else {
                        comments[ln].push(b[i] as char);
                        out.push(' ');
                        i += 1;
                    }
                }
                St::Str => {
                    if b[i] == b'\\' {
                        out.push_str("  ");
                        i += 2.min(b.len() - i);
                    } else if b[i] == b'"' {
                        st = St::Code;
                        out.push(' ');
                        i += 1;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
                St::RawStr(hashes) => {
                    if b[i] == b'"' {
                        let tail = &b[i + 1..];
                        if tail.len() >= hashes && tail[..hashes].iter().all(|&x| x == b'#') {
                            st = St::Code;
                            for _ in 0..hashes + 1 {
                                out.push(' ');
                            }
                            i += hashes + 1;
                            continue;
                        }
                    }
                    out.push(' ');
                    i += 1;
                }
            }
        }
        code.push(out);
    }

    let comment_only: Vec<bool> = lines
        .iter()
        .enumerate()
        .map(|(ln, l)| !l.trim().is_empty() && code[ln].trim().is_empty())
        .collect();

    // Mark #[cfg(test)] / #[test] regions by brace depth: the attribute
    // arms a flag that attaches to the next opened block.
    let mut in_test = vec![false; lines.len()];
    let mut depth = 0usize;
    let mut pending = false;
    let mut stack: Vec<bool> = Vec::new(); // is_test per open block
    for (ln, l) in code.iter().enumerate() {
        if l.contains("#[cfg(test)]") || l.contains("#[test]") {
            pending = true;
        }
        let inherited = stack.iter().any(|&t| t);
        in_test[ln] = inherited || pending;
        for ch in l.chars() {
            match ch {
                '{' => {
                    stack.push(pending);
                    pending = false;
                    depth += 1;
                }
                '}' => {
                    stack.pop();
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
        }
        let _ = depth;
    }

    Prepared {
        code,
        comments,
        comment_only,
        in_test,
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// If finding `rule` on line `ln` (0-based) is suppressed by a
/// `lint: allow(<rule>)` marker on the same line or the comment block
/// directly above, return the (0-based) line holding the marker. A
/// marker must *start* the comment text — prose that merely mentions
/// `lint: allow(..)` mid-sentence is not a marker.
fn marker_line(p: &Prepared, ln: usize, rule: Rule) -> Option<usize> {
    let marker = format!("lint: allow({})", rule.name());
    if p.comments.get(ln)?.trim_start().starts_with(&marker) {
        return Some(ln);
    }
    let mut i = ln;
    while i > 0 && p.comment_only[i - 1] {
        i -= 1;
        if p.comments[i].trim_start().starts_with(&marker) {
            return Some(i);
        }
    }
    None
}

/// Scan one file in isolation. `rel` is the path relative to the
/// workspace root; it drives per-rule scoping. Fixture files (any path
/// containing a `fixtures` component) are treated as in scope for every
/// rule. The call graph is built from this file alone, so L10's
/// transitive reach and the cross-function L3 check see intra-file
/// chains only — enough for fixtures and spot checks; `run` builds the
/// workspace-wide graph.
pub fn scan_file(cfg: &Config, rel: &Path, source: &str) -> Vec<Finding> {
    let files = vec![(rel.to_path_buf(), prepare(source))];
    let g = Graph::build(&files, &cfg.lock_order);
    let (rel, p) = &files[0];
    let mut out = scan_with(cfg, &g, rel, p);
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    // L11 needs the workspace-wide observation scope to be meaningful on
    // product files; in single-file mode it runs for fixtures only.
    if is_fixture_path(cfg, &rel_str) {
        for m in g.dead_metrics() {
            out.push(dead_metric_finding(m));
        }
    }
    let (mut kept, used) = apply_markers(p, out);
    rule_unused_allow(p, rel, &used, &mut kept);
    kept.sort_by_key(|f| f.line);
    kept
}

/// Fixture files are in scope for every rule, whether reached via their
/// repo-relative path or by scanning the fixtures dir directly.
fn is_fixture_path(cfg: &Config, rel_str: &str) -> bool {
    rel_str.contains("fixtures") || cfg.root.to_string_lossy().contains("fixtures")
}

/// Run every rule over one prepared file, pushing findings
/// unconditionally; `lint: allow` suppression happens afterwards in
/// [`apply_markers`] so unused markers can be detected.
fn scan_with(cfg: &Config, g: &Graph, rel: &Path, p: &Prepared) -> Vec<Finding> {
    let mut out = Vec::new();
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let is_fixture = is_fixture_path(cfg, &rel_str);

    rule_wallclock(p, rel, &rel_str, &mut out);
    if is_fixture
        || rel_str.starts_with("crates/core/src")
        || rel_str.starts_with("crates/bufpool/src")
    {
        rule_panic(p, rel, &mut out);
        rule_magic_threshold(p, rel, &mut out);
    }
    // L6 additionally covers the recovery stack: the WAL and engine crates
    // carry `Result<_, IoError>` from redo/salvage/import paths, where a
    // swallowed error silently downgrades crash-safety.
    if is_fixture
        || rel_str.starts_with("crates/core/src")
        || rel_str.starts_with("crates/bufpool/src")
        || rel_str.starts_with("crates/wal/src")
        || rel_str.starts_with("crates/engine/src")
    {
        rule_io_error(p, rel, &mut out);
    }
    rule_lock_order(cfg, p, rel, &mut out);
    rule_design_match(p, rel, &mut out);
    rule_policy_match(p, rel, &mut out);
    rule_unsafe(p, rel, &mut out);
    rule_thread_spawn(p, rel, &rel_str, &mut out);
    rule_determinism(g, p, rel, &rel_str, is_fixture, &mut out);
    rule_graph_walk(cfg, g, p, rel, &rel_str, is_fixture, &mut out);
    out
}

/// Apply `lint: allow` markers: drop suppressed findings, returning the
/// survivors plus the set of (0-based) comment lines whose marker
/// suppressed something.
fn apply_markers(p: &Prepared, findings: Vec<Finding>) -> (Vec<Finding>, HashSet<usize>) {
    let mut used: HashSet<usize> = HashSet::new();
    let kept = findings
        .into_iter()
        .filter(|f| match marker_line(p, f.line - 1, f.rule) {
            Some(ml) => {
                used.insert(ml);
                false
            }
            None => true,
        })
        .collect();
    (kept, used)
}

/// A `lint: allow(<rule>)` marker that suppresses no finding is itself a
/// finding: the allow surface may only shrink. Doc comments (`///`,
/// `//!`) and prose mentioning markers mid-sentence are exempt (a
/// marker must start the comment text, matching [`marker_line`]), as
/// are markers inside test code.
fn rule_unused_allow(p: &Prepared, rel: &Path, used: &HashSet<usize>, out: &mut Vec<Finding>) {
    for (ln, text) in p.comments.iter().enumerate() {
        // `///` and `//!` leave a leading '/' or '!' in the captured text.
        if text.starts_with('/') || text.starts_with('!') || p.in_test[ln] {
            continue;
        }
        let t = text.trim_start();
        let Some(rest) = t.strip_prefix("lint: allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let name = &rest[..close];
        // The unused-allow rule cannot justify itself away.
        if name == Rule::UnusedAllow.name() {
            continue;
        }
        if !used.contains(&ln) {
            out.push(Finding {
                rule: Rule::UnusedAllow,
                file: rel.to_path_buf(),
                line: ln + 1,
                message: format!(
                    "`lint: allow({name})` suppresses no finding — remove the marker \
                     (the allow surface may only shrink)"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- L1 ----

fn rule_wallclock(p: &Prepared, rel: &Path, rel_str: &str, out: &mut Vec<Finding>) {
    if WALLCLOCK_ALLOWLIST.iter().any(|a| rel_str.ends_with(a)) {
        return;
    }
    for (ln, code) in p.code.iter().enumerate() {
        for pat in ["Instant::now", "SystemTime", "thread::sleep"] {
            if code.contains(pat) {
                out.push(Finding {
                    rule: Rule::Wallclock,
                    file: rel.to_path_buf(),
                    line: ln + 1,
                    message: format!(
                        "wall-clock API `{pat}` — simulation code must use the virtual clock \
                         (turbopool_iosim::Clk)"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- L7 ----

/// Thread creation is confined to the driver's worker pool (and the
/// allowlisted contention bench): parallelism anywhere else could leak
/// scheduling nondeterminism into the virtual-time simulation. Test
/// modules are exempt, like L2/L6.
fn rule_thread_spawn(p: &Prepared, rel: &Path, rel_str: &str, out: &mut Vec<Finding>) {
    if THREAD_ALLOWLIST.iter().any(|a| rel_str.ends_with(a)) {
        return;
    }
    for (ln, code) in p.code.iter().enumerate() {
        if p.in_test[ln] {
            continue;
        }
        for pat in ["thread::spawn", "thread::scope", "thread::Builder"] {
            if code.contains(pat) {
                out.push(Finding {
                    rule: Rule::ThreadSpawn,
                    file: rel.to_path_buf(),
                    line: ln + 1,
                    message: format!(
                        "`{pat}` outside the driver worker pool — OS threads are confined to \
                         crates/workload/src/pool.rs so parallelism cannot leak nondeterminism"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- L2 ----

fn rule_panic(p: &Prepared, rel: &Path, out: &mut Vec<Finding>) {
    const PATS: &[&str] = &[
        ".unwrap()",
        ".expect(",
        "panic!(",
        "unreachable!(",
        "todo!(",
        "unimplemented!(",
    ];
    for (ln, code) in p.code.iter().enumerate() {
        if p.in_test[ln] {
            continue;
        }
        for pat in PATS {
            if let Some(pos) = code.find(pat) {
                // debug_assert!/assert! are fine; also skip macro *names*
                // appearing inside longer identifiers.
                if pat.starts_with(char::is_alphabetic)
                    && pos > 0
                    && is_ident_byte(code.as_bytes()[pos - 1])
                {
                    continue;
                }
                out.push(Finding {
                    rule: Rule::Panic,
                    file: rel.to_path_buf(),
                    line: ln + 1,
                    message: format!(
                        "`{}` in buffer-pool hot path — return an error or justify with \
                         `// lint: allow(panic)`",
                        pat.trim_end_matches('(')
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- L8 ----

/// Identifier fragments that mark an operand as a latency or queue-depth
/// quantity for L8. A comparison between such a quantity and an inline
/// numeric literal encodes a tuning decision that belongs in a named
/// config constant (`SsdConfig`, `FailSlowConfig`, `RetryPolicy`, ...).
const THRESHOLD_TOKENS: &[&str] = &["_ns", "latency", "depth", "ewma", "backoff"];

/// Parse `tok` as a plain integer literal (decimal digits, `_`
/// separators, optional integer type suffix). Returns its value.
fn int_literal(tok: &str) -> Option<u128> {
    const SUFFIXES: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    let t = tok.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_');
    if t.is_empty() || !t.as_bytes()[0].is_ascii_digit() {
        return None;
    }
    let digits_len = t
        .bytes()
        .take_while(|b| b.is_ascii_digit() || *b == b'_')
        .count();
    let rest = &t[digits_len..];
    if !rest.is_empty() && !SUFFIXES.contains(&rest) {
        return None;
    }
    t[..digits_len].replace('_', "").parse().ok()
}

fn has_threshold_token(operand: &str) -> bool {
    let l = operand.to_ascii_lowercase();
    THRESHOLD_TOKENS.iter().any(|t| l.contains(t))
}

/// L8: latency/queue-depth comparisons in the SSD-manager hot path must
/// test against *named* constants, not inline numeric literals — inline
/// thresholds drift apart across call sites and silently disagree with
/// the documented config defaults. Flags `<`/`>`/`<=`/`>=` where one
/// operand is an integer literal greater than 1 and the other mentions a
/// latency or depth quantity. Test modules are exempt, like L2/L6.
fn rule_magic_threshold(p: &Prepared, rel: &Path, out: &mut Vec<Finding>) {
    for (ln, code) in p.code.iter().enumerate() {
        if p.in_test[ln] {
            continue;
        }
        let bytes = code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            if b != b'<' && b != b'>' {
                i += 1;
                continue;
            }
            let prev = if i > 0 { bytes[i - 1] } else { 0 };
            let next = if i + 1 < bytes.len() { bytes[i + 1] } else { 0 };
            // Skip shifts (`<<`/`>>`), arrows (`->`/`=>`), and turbofish-ish
            // double signs; `<=`/`>=` are comparisons and stay in scope.
            if prev == b || next == b || prev == b'-' || prev == b'=' {
                i += 1;
                continue;
            }
            let op_end = if next == b'=' { i + 2 } else { i + 1 };
            let lhs = code[..i]
                .trim_end()
                .rsplit(|c: char| c.is_whitespace() || "(,{".contains(c))
                .next()
                .unwrap_or("");
            let rhs = code[op_end..]
                .trim_start()
                .split(|c: char| c.is_whitespace() || "),{;".contains(c))
                .next()
                .unwrap_or("");
            let hit = match (int_literal(lhs), int_literal(rhs)) {
                (Some(v), None) if v > 1 => has_threshold_token(rhs),
                (None, Some(v)) if v > 1 => has_threshold_token(lhs),
                _ => false,
            };
            if hit {
                out.push(Finding {
                    rule: Rule::MagicThreshold,
                    file: rel.to_path_buf(),
                    line: ln + 1,
                    message: format!(
                        "latency/queue-depth compared against inline literal \
                         (`{lhs} .. {rhs}`) — name the threshold in config \
                         (SsdConfig/FailSlowConfig/RetryPolicy) or justify with \
                         `// lint: allow(magic-threshold)`"
                    ),
                });
            }
            i = op_end;
        }
    }
}

// ---------------------------------------------------------------- L6 ----

/// Methods known to return `Result<_, IoError>` across the storage stack.
/// Matched as `.name(` so that `fn name(` declarations never fire.
const IO_RESULT_METHODS: &[&str] = &[
    "read_page",
    "read_run",
    "read_disk",
    "read_disk_run",
    "read_ssd",
    "write_disk_async",
    "write_disk_sync",
    "write_disk_run_async",
    "write_ssd_async",
    "write_ssd_sync",
    "prefetch_run",
    "ssd_read",
    "disk_read",
    "disk_read_run",
    "scan_heap",
    "get_with_salvage",
];

/// L6: a `Result<_, IoError>` must reach the degradation machinery — flag
/// statements that `.unwrap()`/`.expect(..)` such a result or throw it away
/// with `let _ =`. Statement-granular so multi-line call chains are seen.
fn rule_io_error(p: &Prepared, rel: &Path, out: &mut Vec<Finding>) {
    let mut stmt = String::new();
    let mut stmt_line: Option<usize> = None;
    let check = |stmt: &str, first_ln: Option<usize>, out: &mut Vec<Finding>| {
        let Some(ln) = first_ln else { return };
        if p.in_test[ln] {
            return;
        }
        let called = IO_RESULT_METHODS
            .iter()
            .find(|m| match_method_call(stmt, m));
        let Some(method) = called else { return };
        let t = stmt.trim_start();
        let discards = t.strip_prefix("let _").is_some_and(|rest| {
            // `let _ =` exactly; `let _x =` names (and uses) the binding.
            rest.trim_start().starts_with('=')
        });
        let unwraps = stmt.contains(".unwrap()") || stmt.contains(".expect(");
        if discards || unwraps {
            let how = if discards {
                "discarded with `let _ =`"
            } else {
                "unwrapped"
            };
            out.push(Finding {
                rule: Rule::IoError,
                file: rel.to_path_buf(),
                line: ln + 1,
                message: format!(
                    "`Result<_, IoError>` from `{method}` {how} — storage errors must \
                     propagate to the retry/quarantine/salvage machinery, or be justified \
                     with `// lint: allow(io-error)`"
                ),
            });
        }
    };
    for (ln, code) in p.code.iter().enumerate() {
        for ch in code.chars() {
            match ch {
                ';' | '{' | '}' => {
                    check(&stmt, stmt_line, out);
                    stmt.clear();
                    stmt_line = None;
                }
                c => {
                    if stmt_line.is_none() && !c.is_whitespace() {
                        stmt_line = Some(ln);
                    }
                    stmt.push(c);
                }
            }
        }
        stmt.push(' ');
    }
    check(&stmt, stmt_line, out);
}

/// True if `stmt` contains a *call* `.name(` of the given method.
fn match_method_call(stmt: &str, name: &str) -> bool {
    let pat = format!(".{name}(");
    let mut search = 0usize;
    while let Some(pos) = stmt[search..].find(&pat) {
        let at = search + pos;
        search = at + pat.len();
        // Reject matches inside longer identifiers: `.disk_read(` must not
        // match within `.my_disk_read(` (the leading '.' already anchors
        // the start, so only a false suffix match is possible — none, given
        // the '.', but keep the check for clarity).
        let after = at + 1 + name.len();
        if stmt.as_bytes().get(after) == Some(&b'(') {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------- L3 ----

/// One live lock guard inside a function body.
struct Guard {
    class: usize,
    depth: usize,
    binding: Option<String>,
    line: usize,
}

fn rule_lock_order(cfg: &Config, p: &Prepared, rel: &Path, out: &mut Vec<Finding>) {
    if cfg.lock_order.is_empty() {
        return;
    }
    let class_of = |ident: &str| cfg.lock_order.iter().position(|c| c == ident);

    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    let mut stmt = String::new(); // current statement text across lines
    for (ln, code) in p.code.iter().enumerate() {
        let b = code.as_bytes();
        let mut i = 0usize;
        while i < b.len() {
            let c = b[i];
            match c as char {
                '{' => {
                    depth += 1;
                    stmt.clear();
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                    stmt.clear();
                }
                ';' => {
                    // drop(name) releases a named guard early.
                    if let Some(dropped) = parse_drop(&stmt) {
                        guards.retain(|g| g.binding.as_deref() != Some(dropped.as_str()));
                    }
                    stmt.clear();
                }
                ch => stmt.push(ch),
            }
            // Acquisition site? `.lock()`, `.read()`, `.write()` with
            // empty parens.
            for (pat, _kind) in [(".lock()", 0), (".read()", 1), (".write()", 2)] {
                if b[i..].starts_with(pat.as_bytes()) {
                    if let Some(ident) = receiver_ident(&code[..i + 1]) {
                        if let Some(class) = class_of(&ident) {
                            for g in &guards {
                                if g.class > class {
                                    out.push(Finding {
                                        rule: Rule::LockOrder,
                                        file: rel.to_path_buf(),
                                        line: ln + 1,
                                        message: format!(
                                            "acquires `{}` while holding `{}` (line {}) — \
                                             declared order is {:?}",
                                            cfg.lock_order[class],
                                            cfg.lock_order[g.class],
                                            g.line,
                                            cfg.lock_order
                                        ),
                                    });
                                }
                            }
                            // Track let-bound guards; chained temporaries
                            // die within the statement and are not pushed.
                            if let Some(binding) = parse_let_binding(&stmt) {
                                guards.push(Guard {
                                    class,
                                    depth,
                                    binding: Some(binding),
                                    line: ln + 1,
                                });
                            }
                        }
                    }
                }
            }
            i += 1;
        }
        stmt.push(' ');
    }
}

/// Last identifier of the receiver chain ending just before the final
/// `.`: `self.parts[idx].lock()` -> `parts`; `self.inner.lock()` ->
/// `inner`. `text` ends at the `.` of the call.
fn receiver_ident(text: &str) -> Option<String> {
    let b = text.as_bytes();
    let mut i = b.len().checked_sub(1)?; // the '.'
    if b[i] != b'.' {
        return None;
    }
    // Skip backwards over (..) and [..] groups.
    loop {
        if i == 0 {
            return None;
        }
        i -= 1;
        match b[i] {
            b')' | b']' => {
                let (open, close) = if b[i] == b')' {
                    (b'(', b')')
                } else {
                    (b'[', b']')
                };
                let mut level = 1usize;
                while level > 0 {
                    if i == 0 {
                        return None;
                    }
                    i -= 1;
                    if b[i] == close {
                        level += 1;
                    } else if b[i] == open {
                        level -= 1;
                    }
                }
            }
            x if is_ident_byte(x) => break,
            _ => return None,
        }
    }
    let end = i + 1;
    let mut start = end;
    while start > 0 && is_ident_byte(b[start - 1]) {
        start -= 1;
    }
    let ident = &text[start..end];
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(ident.to_string())
    }
}

/// `let [mut] NAME ... = ...` -> NAME, if the statement is a let.
fn parse_let_binding(stmt: &str) -> Option<String> {
    let t = stmt.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest
        .trim_start()
        .strip_prefix("mut ")
        .unwrap_or(rest.trim_start());
    let name: String = rest
        .trim_start()
        .chars()
        .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// `drop(NAME)` -> NAME, if the statement is a drop call.
fn parse_drop(stmt: &str) -> Option<String> {
    let t = stmt.trim();
    let rest = t.strip_prefix("drop(")?;
    let name: String = rest
        .chars()
        .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
        .collect();
    rest[name.len()..].starts_with(')').then_some(name)
}

// ---------------------------------------------------------------- L4 ----

const DESIGNS: &[&str] = &["CleanWrite", "DualWrite", "LazyCleaning", "Tac"];

fn rule_design_match(p: &Prepared, rel: &Path, out: &mut Vec<Finding>) {
    rule_enum_match(
        p,
        rel,
        out,
        Rule::DesignMatch,
        &["design"],
        DESIGNS,
        "SsdDesign",
    );
}

// ---------------------------------------------------------------- L12 ---

const REPLACEMENTS: &[&str] = &["Lru2", "Clock", "Sieve", "LruK", "Ghost"];
const ADMISSIONS: &[&str] = &["DesignDefault", "AdmitAll", "GhostHit"];

fn rule_policy_match(p: &Prepared, rel: &Path, out: &mut Vec<Finding>) {
    rule_enum_match(
        p,
        rel,
        out,
        Rule::PolicyMatch,
        &["replacement"],
        REPLACEMENTS,
        "ReplacementKind",
    );
    rule_enum_match(
        p,
        rel,
        out,
        Rule::PolicyMatch,
        &["admission"],
        ADMISSIONS,
        "AdmissionKind",
    );
}

/// Shared engine for L4/L12: a `match` whose plain scrutinee is (or ends
/// in) one of `suffixes` must name every entry of `variants` and carry no
/// `_` arm. Tuple scrutinees are exempt: those are transition tables,
/// exhaustive per-row.
fn rule_enum_match(
    p: &Prepared,
    rel: &Path,
    out: &mut Vec<Finding>,
    rule: Rule,
    suffixes: &[&str],
    variants: &[&str],
    enum_name: &str,
) {
    // Flatten to one string with line markers for cross-line matches.
    let joined: Vec<(usize, &str)> = p
        .code
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s.as_str()))
        .collect();
    for (ln, code) in &joined {
        let mut search = 0usize;
        while let Some(pos) = code[search..].find("match ") {
            let at = search + pos;
            search = at + 6;
            if at > 0 && is_ident_byte(code.as_bytes()[at - 1]) {
                continue; // part of a longer identifier
            }
            // Scrutinee: text from after `match` to the opening `{`
            // (same line or the next few).
            let mut scrutinee = String::new();
            let mut body_start: Option<(usize, usize)> = None; // (line, col)
            'outer: for (l2, c2) in joined.iter().skip_while(|(i, _)| i < ln) {
                let text = if l2 == ln { &c2[at + 6..] } else { c2 };
                if let Some(b) = text.find('{') {
                    scrutinee.push_str(&text[..b]);
                    let col = if l2 == ln { at + 6 + b } else { b };
                    body_start = Some((*l2, col));
                    break 'outer;
                }
                scrutinee.push_str(text);
                scrutinee.push(' ');
            }
            let Some((bl, bc)) = body_start else { continue };
            let s = scrutinee.trim();
            // Plain scrutinee only: tuples are transition tables.
            let hit = !s.starts_with('(')
                && suffixes.iter().any(|suf| {
                    s == *suf || s.ends_with(&format!(".{suf}")) || s.ends_with(&format!(" {suf}"))
                });
            if !hit {
                continue;
            }
            // Walk the match body to its closing brace.
            let mut body = String::new();
            let mut depth = 1usize;
            let mut l = bl;
            let mut c = bc + 1;
            let mut wildcard_arm = false;
            'body: while l < joined.len() {
                let line = joined[l].1;
                let bytes = line.as_bytes();
                while c < bytes.len() {
                    match bytes[c] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                break 'body;
                            }
                        }
                        b'_' if depth == 1 => {
                            // `_ =>` or `_ if .. =>` at arm level.
                            let before_ok = c == 0 || !is_ident_byte(bytes[c - 1]);
                            let after = line[c + 1..].trim_start();
                            if before_ok && (after.starts_with("=>") || after.starts_with("if ")) {
                                wildcard_arm = true;
                            }
                        }
                        _ => {}
                    }
                    body.push(bytes[c] as char);
                    c += 1;
                }
                body.push('\n');
                l += 1;
                c = 0;
            }
            let missing: Vec<&str> = variants
                .iter()
                .filter(|d| !body.contains(*d))
                .copied()
                .collect();
            if wildcard_arm || !missing.is_empty() {
                let what = if wildcard_arm {
                    "has a `_` arm".to_string()
                } else {
                    format!("does not name {missing:?}")
                };
                out.push(Finding {
                    rule,
                    file: rel.to_path_buf(),
                    line: ln + 1,
                    message: format!(
                        "`match` over {enum_name} {what} — every variant must be handled \
                         explicitly so adding one is a compile-surface event"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- L5 ----

fn rule_unsafe(p: &Prepared, rel: &Path, out: &mut Vec<Finding>) {
    for (ln, code) in p.code.iter().enumerate() {
        let mut search = 0usize;
        while let Some(pos) = code[search..].find("unsafe") {
            let at = search + pos;
            search = at + 6;
            let before_ok = at == 0 || !is_ident_byte(code.as_bytes()[at - 1]);
            let after_ok = at + 6 >= code.len() || !is_ident_byte(code.as_bytes()[at + 6]);
            if !(before_ok && after_ok) {
                continue;
            }
            // `forbid(unsafe_code)` style attributes mention the lint
            // name, not the keyword; the ident check above filtered
            // `unsafe_code` already. A `lint: allow(unsafe)` marker also
            // works, via the central suppression pass.
            let mut justified = false;
            let mut i = ln;
            while !justified && i > 0 && p.comment_only[i - 1] {
                i -= 1;
                justified = p.comments[i].contains("# Safety") || p.comments[i].contains("SAFETY:");
            }
            justified = justified
                || p.comments[ln].contains("# Safety")
                || p.comments[ln].contains("SAFETY:");
            if !justified {
                out.push(Finding {
                    rule: Rule::Unsafe,
                    file: rel.to_path_buf(),
                    line: ln + 1,
                    message: "`unsafe` without a `# Safety` comment — the workspace is \
                              unsafe-free; document the contract or remove it"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- L9 ----

/// Hash-container iteration entry points (adaptor form).
const HASH_ITER_PATS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain()",
    ".into_iter()",
];

/// Consumers whose result cannot observe iteration order.
const ORDER_INSENSITIVE_SINKS: &[&str] = &[
    ".sum()",
    ".sum::",
    ".count()",
    ".max()",
    ".min()",
    ".all(",
    ".any(",
    ".len()",
    ".is_empty()",
];

/// L9: iterating a `HashMap`/`HashSet` in a sim-state crate leaks the
/// hasher's per-process randomness into replay-deterministic state (the
/// PR 3 bug class: commit publication iterated a `HashMap`). Exempt when
/// the statement ends in an order-insensitive sink, collects into a
/// BTree container, or `let`-binds a collection that is sorted within
/// the next few lines.
fn rule_determinism(
    g: &Graph,
    p: &Prepared,
    rel: &Path,
    rel_str: &str,
    is_fixture: bool,
    out: &mut Vec<Finding>,
) {
    let in_scope = is_fixture
        || graph::SIM_CRATES
            .iter()
            .any(|c| rel_str.starts_with(&format!("crates/{c}/src")));
    if !in_scope {
        return;
    }
    let empty = HashSet::new();
    let hashes = g
        .hash_idents
        .get(&graph::crate_of(rel_str))
        .unwrap_or(&empty);
    if hashes.is_empty() {
        return;
    }

    let check = |stmt: &str, first_ln: Option<usize>, out: &mut Vec<Finding>| {
        let Some(ln) = first_ln else { return };
        if p.in_test[ln] {
            return;
        }
        let mut hit: Option<String> = None;
        'pats: for pat in HASH_ITER_PATS {
            let mut search = 0usize;
            while let Some(pos) = stmt[search..].find(pat) {
                let at = search + pos;
                search = at + pat.len();
                if let Some(ident) = receiver_ident(&stmt[..at + 1]) {
                    if hashes.contains(&ident) {
                        hit = Some(ident);
                        break 'pats;
                    }
                }
            }
        }
        if hit.is_none() {
            // `for x in container` / `for x in &container` without an
            // adaptor (IntoIterator-driven iteration).
            if let Some(expr) = for_in_expr(stmt) {
                if !expr.contains('(') {
                    if let Some(id) = last_ident(expr) {
                        if hashes.contains(&id) {
                            hit = Some(id);
                        }
                    }
                }
            }
        }
        let Some(ident) = hit else { return };
        if ORDER_INSENSITIVE_SINKS.iter().any(|s| stmt.contains(s)) {
            return;
        }
        // Collecting straight into an ordered container is fine.
        if stmt.contains("BTree") {
            return;
        }
        // `let v = x.keys().collect(); ... v.sort..` shortly after.
        // `v.select_nth..` qualifies too: selecting the k-th order
        // statistic is order-insensitive (same element whatever the
        // iteration order that filled `v`).
        if let Some(binding) = parse_let_binding(stmt.trim_start()) {
            let sort_pat = format!("{binding}.sort");
            let nth_pat = format!("{binding}.select_nth");
            let horizon = (ln + 1)..(ln + 16).min(p.code.len());
            if horizon
                .clone()
                .any(|l| p.code[l].contains(&sort_pat) || p.code[l].contains(&nth_pat))
            {
                return;
            }
        }
        out.push(Finding {
            rule: Rule::Determinism,
            file: rel.to_path_buf(),
            line: ln + 1,
            message: format!(
                "iteration over hash container `{ident}` — order is nondeterministic across \
                 processes; use a BTree container, sort before observable use, or justify \
                 with `// lint: allow(determinism)`"
            ),
        });
    };

    let mut stmt = String::new();
    let mut stmt_line: Option<usize> = None;
    for (ln, code) in p.code.iter().enumerate() {
        for ch in code.chars() {
            match ch {
                ';' | '{' | '}' => {
                    check(&stmt, stmt_line, out);
                    stmt.clear();
                    stmt_line = None;
                }
                c => {
                    if stmt_line.is_none() && !c.is_whitespace() {
                        stmt_line = Some(ln);
                    }
                    stmt.push(c);
                }
            }
        }
        stmt.push(' ');
    }
    check(&stmt, stmt_line, out);
}

/// The expression of a `for .. in EXPR` statement, if any.
fn for_in_expr(stmt: &str) -> Option<&str> {
    let mut search = 0usize;
    while let Some(pos) = stmt[search..].find("for ") {
        let at = search + pos;
        search = at + 4;
        if at > 0 && is_ident_byte(stmt.as_bytes()[at - 1]) {
            continue;
        }
        let rest = &stmt[at + 4..];
        if let Some(ipos) = rest.find(" in ") {
            return Some(rest[ipos + 4..].trim());
        }
    }
    None
}

/// Trailing identifier of an expression (`&self.map` -> `map`).
fn last_ident(expr: &str) -> Option<String> {
    let b = expr.trim_end().as_bytes();
    let end = b.len();
    let mut start = end;
    while start > 0 && is_ident_byte(b[start - 1]) {
        start -= 1;
    }
    if start == end || b[start].is_ascii_digit() {
        None
    } else {
        Some(expr.trim_end()[start..].to_string())
    }
}

// ------------------------------------------- L10 + cross-function L3 ----

/// A live lock guard tracked through the graph walker.
struct WalkGuard {
    binding: String,
    /// Lock classes this guard holds (empty when the receiver is not a
    /// declared class — still relevant for L10).
    classes: Vec<usize>,
    depth: usize,
    line: usize,
    /// Acquired via a guard-returning helper (`self.part(pid)`), in
    /// which case the intra-function L3 pass cannot see it.
    from_fn: bool,
}

/// L10 `lock-across-io` plus the cross-function half of L3: walk each
/// file tracking `let`-bound guards (direct acquisitions and
/// guard-returning helpers), then flag (a) calls that transitively reach
/// an `IoManager` submit/read/write while a guard is live, and (b) calls
/// into same-crate functions whose own acquisitions would invert the
/// declared lock order against a held guard.
fn rule_graph_walk(
    cfg: &Config,
    g: &Graph,
    p: &Prepared,
    rel: &Path,
    rel_str: &str,
    is_fixture: bool,
    out: &mut Vec<Finding>,
) {
    let io_scope = is_fixture
        || ["core", "bufpool", "workload"]
            .iter()
            .any(|c| rel_str.starts_with(&format!("crates/{c}/src")));
    let krate = graph::crate_of(rel_str);
    let class_of = |ident: &str| cfg.lock_order.iter().position(|c| c == ident);

    let mut depth = 0usize;
    let mut guards: Vec<WalkGuard> = Vec::new();
    let mut stmt = String::new();
    for (ln, code) in p.code.iter().enumerate() {
        if code.trim_start().starts_with('#') {
            continue; // attribute line: #[derive(..)], #[cfg(..)]
        }
        let b = code.as_bytes();
        let mut i = 0usize;
        while i < b.len() {
            match b[i] as char {
                '{' => {
                    depth += 1;
                    stmt.clear();
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                    stmt.clear();
                }
                ';' => {
                    if let Some(dropped) = parse_drop(&stmt) {
                        guards.retain(|g| g.binding != dropped);
                    }
                    stmt.clear();
                }
                ch => stmt.push(ch),
            }
            // Direct acquisition: track the guard; check inversions only
            // against helper-acquired guards (rule_lock_order owns the
            // purely intra-function case).
            for pat in [".lock()", ".read()", ".write()"] {
                if !b[i..].starts_with(pat.as_bytes()) {
                    continue;
                }
                let cls = receiver_ident(&code[..i + 1]).and_then(|id| class_of(&id));
                if let Some(a) = cls {
                    if !p.in_test[ln] {
                        lock_order_violation(
                            cfg,
                            guards.iter().filter(|g| g.from_fn),
                            a,
                            None,
                            rel,
                            ln,
                            out,
                        );
                    }
                }
                let chained = b.get(i + pat.len()) == Some(&b'.');
                if !chained {
                    if let Some(binding) = parse_let_binding(stmt.trim_start()) {
                        guards.push(WalkGuard {
                            binding,
                            classes: cls.into_iter().collect(),
                            depth,
                            line: ln + 1,
                            from_fn: false,
                        });
                    }
                }
            }
            // Call site.
            if b[i] == b'(' {
                if let Some(name) = graph::callee_before(code, i) {
                    if io_scope
                        && !p.in_test[ln]
                        && g.io_reaching.contains(name)
                        && !guards.is_empty()
                    {
                        let gd = guards.last().expect("guards checked non-empty");
                        out.push(Finding {
                            rule: Rule::LockAcrossIo,
                            file: rel.to_path_buf(),
                            line: ln + 1,
                            message: format!(
                                "`{name}` reaches IoManager I/O while latch `{}` (line {}) is \
                                 held — release the latch before I/O or justify with \
                                 `// lint: allow(lock-across-io)`",
                                gd.binding, gd.line
                            ),
                        });
                    }
                    let key = (krate.clone(), name.to_string());
                    if let Some(classes) = g.fn_classes.get(&key) {
                        if !p.in_test[ln] {
                            for &a in classes {
                                lock_order_violation(
                                    cfg,
                                    guards.iter(),
                                    a,
                                    Some(name),
                                    rel,
                                    ln,
                                    out,
                                );
                            }
                        }
                        if g.guard_fns.contains(&key) && !call_chained(code, i) {
                            if let Some(binding) = parse_let_binding(stmt.trim_start()) {
                                guards.push(WalkGuard {
                                    binding,
                                    classes: classes.clone(),
                                    depth,
                                    line: ln + 1,
                                    from_fn: true,
                                });
                            }
                        }
                    }
                }
            }
            i += 1;
        }
        stmt.push(' ');
    }
}

/// Emit an L3 finding if acquiring class `a` (directly, or inside called
/// fn `via`) inverts the declared order against any held guard.
fn lock_order_violation<'a>(
    cfg: &Config,
    held: impl Iterator<Item = &'a WalkGuard>,
    a: usize,
    via: Option<&str>,
    rel: &Path,
    ln: usize,
    out: &mut Vec<Finding>,
) {
    for gd in held {
        for &h in &gd.classes {
            if h > a {
                let how = match via {
                    Some(f) => format!("calls `{f}`, which acquires"),
                    None => "acquires".to_string(),
                };
                out.push(Finding {
                    rule: Rule::LockOrder,
                    file: rel.to_path_buf(),
                    line: ln + 1,
                    message: format!(
                        "{how} `{}` while holding `{}` (line {}) — declared order is {:?}",
                        cfg.lock_order[a], cfg.lock_order[h], gd.line, cfg.lock_order
                    ),
                });
                return; // one finding per site is enough
            }
        }
    }
}

/// Is the call whose `(` sits at byte `open` chained into a longer
/// expression on the same line (`self.part(pid).frame_no(i)`)? Calls
/// whose parens span lines are treated as unchained.
fn call_chained(code: &str, open: usize) -> bool {
    let b = code.as_bytes();
    let mut level = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'(' => level += 1,
            b')' => {
                level -= 1;
                if level == 0 {
                    return b.get(i + 1) == Some(&b'.');
                }
            }
            _ => {}
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::new(
            PathBuf::from("."),
            vec!["inner".into(), "data".into(), "states".into()],
        )
    }

    fn scan(rel: &str, src: &str) -> Vec<Finding> {
        scan_file(&cfg(), Path::new(rel), src)
    }

    #[test]
    fn strings_and_comments_are_scrubbed() {
        let src = r#"
            // Instant::now in a comment is fine
            fn f() { let s = "Instant::now"; }
        "#;
        assert!(scan("crates/iosim/src/x.rs", src).is_empty());
    }

    #[test]
    fn wallclock_fires_and_allows() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let f = scan("crates/iosim/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Wallclock);
        let src = "// lint: allow(wallclock) harness-side\nfn f() { let t = std::time::Instant::now(); }\n";
        assert!(scan("crates/iosim/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_scoped_to_core_and_bufpool() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(scan("crates/core/src/x.rs", src).len(), 1);
        assert_eq!(scan("crates/bufpool/src/x.rs", src).len(), 1);
        assert!(scan("crates/iosim/src/x.rs", src).is_empty());
        // Test modules are exempt.
        let src = "#[cfg(test)]\nmod tests {\n fn f(x: Option<u8>) { x.unwrap(); }\n}\n";
        assert!(scan("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn thread_spawn_confined_to_worker_pool() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let f = scan("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::ThreadSpawn);
        // The driver worker pool and the contention bench are exempt.
        assert!(scan("crates/workload/src/pool.rs", src).is_empty());
        assert!(scan("crates/bench/benches/ablation.rs", src).is_empty());
        // Test modules are exempt, like L2/L6.
        let test_src = "#[cfg(test)]\nmod tests {\n fn f() { std::thread::spawn(|| {}); }\n}\n";
        assert!(scan("crates/core/src/x.rs", test_src).is_empty());
        // Scoped threads and builders count too.
        let scope_src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        assert_eq!(scan("crates/iosim/src/x.rs", scope_src).len(), 1);
        // The marker suppresses a justified exception.
        let allowed_src =
            "fn f() {\n // lint: allow(thread-spawn) justified\n std::thread::spawn(|| {});\n}\n";
        assert!(scan("crates/iosim/src/x.rs", allowed_src).is_empty());
    }

    #[test]
    fn io_error_rule_fires_on_unwrap_and_discard() {
        let unwrap = "fn f(&self) { self.io.read_disk(c, pid, buf, class).unwrap(); }\n";
        assert!(scan("crates/core/src/x.rs", unwrap)
            .iter()
            .any(|f| f.rule == Rule::IoError));
        let discard = "fn f(&self) { let _ = self.io.write_disk_async(n, pid, d, class); }\n";
        assert!(scan("crates/bufpool/src/x.rs", discard)
            .iter()
            .any(|f| f.rule == Rule::IoError));
        // Multi-line statements are still one statement.
        let multiline =
            "fn f(&self) {\n let _ = self\n  .io\n  .write_ssd_async(n, fr, d, pid);\n}\n";
        assert!(scan("crates/core/src/x.rs", multiline)
            .iter()
            .any(|f| f.rule == Rule::IoError));
    }

    #[test]
    fn io_error_rule_covers_recovery_stack() {
        // L6 extends to the WAL and engine crates (recovery/salvage paths)…
        let unwrap = "fn f(&self) { self.io.read_ssd(c, fr, buf).unwrap(); }\n";
        for rel in ["crates/wal/src/x.rs", "crates/engine/src/x.rs"] {
            let f = scan(rel, unwrap);
            assert!(f.iter().any(|x| x.rule == Rule::IoError), "{rel}: {f:?}");
        }
        // …but L2 (panic) stays scoped to core/bufpool: recovery code may
        // assert invariants, it just may not swallow storage errors.
        let plain = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(scan("crates/wal/src/x.rs", plain).is_empty());
        assert!(scan("crates/engine/src/x.rs", plain).is_empty());
    }

    #[test]
    fn io_error_rule_respects_scope_and_handling() {
        // Propagation with `?` is the intended pattern.
        let ok = "fn f(&self) -> Result<(), IoError> {\n self.io.read_disk(c, pid, b, cl)?;\n Ok(())\n}\n";
        assert!(scan("crates/core/src/x.rs", ok)
            .iter()
            .all(|f| f.rule != Rule::IoError));
        // A named binding is not a discard.
        let named =
            "fn f(&self) { let _r = self.io.write_disk_async(n, pid, d, cl); use_it(_r); }\n";
        assert!(scan("crates/core/src/x.rs", named)
            .iter()
            .all(|f| f.rule != Rule::IoError));
        // Out-of-scope crates and test modules are exempt.
        let unwrap = "fn f(&self) { self.io.read_disk(c, pid, buf, class).unwrap(); }\n";
        assert!(scan("crates/iosim/src/x.rs", unwrap).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests {\n fn f(&self) { self.io.read_disk(c, p, b, l).unwrap(); }\n}\n";
        assert!(scan("crates/core/src/x.rs", test_mod)
            .iter()
            .all(|f| f.rule != Rule::IoError));
        // Suppression marker on the comment line above.
        let allowed =
            "fn f(&self) {\n // lint: allow(io-error) — best-effort hint\n let _ = self.io.write_disk_async(n, pid, d, cl);\n}\n";
        assert!(scan("crates/core/src/x.rs", allowed)
            .iter()
            .all(|f| f.rule != Rule::IoError));
    }

    #[test]
    fn lock_order_detects_inversion_and_respects_drop() {
        let bad = "fn f(&self) {\n let d = self.data[0].write();\n let i = self.inner.lock();\n}\n";
        let f = scan("crates/bufpool/src/x.rs", bad);
        assert!(f.iter().any(|f| f.rule == Rule::LockOrder), "{f:?}");
        let ok = "fn f(&self) {\n let d = self.data[0].write();\n drop(d);\n let i = self.inner.lock();\n}\n";
        assert!(scan("crates/bufpool/src/x.rs", ok)
            .iter()
            .all(|f| f.rule != Rule::LockOrder));
        let nested_ok =
            "fn f(&self) {\n let i = self.inner.lock();\n let d = self.data[0].write();\n}\n";
        assert!(scan("crates/bufpool/src/x.rs", nested_ok)
            .iter()
            .all(|f| f.rule != Rule::LockOrder));
    }

    #[test]
    fn block_scope_releases_guards() {
        let src =
            "fn f(&self) {\n { let d = self.data[0].read(); }\n let i = self.inner.lock();\n}\n";
        assert!(scan("crates/bufpool/src/x.rs", src)
            .iter()
            .all(|f| f.rule != Rule::LockOrder));
    }

    #[test]
    fn design_match_requires_all_variants() {
        let bad = "fn f(&self) { match self.cfg.design {\n SsdDesign::CleanWrite => 1,\n _ => 2,\n }; }\n";
        let f = scan("crates/core/src/y.rs", bad);
        assert!(f.iter().any(|f| f.rule == Rule::DesignMatch), "{f:?}");
        let good = "fn f(&self) { match self.cfg.design {\n SsdDesign::CleanWrite => 1,\n SsdDesign::DualWrite => 2,\n SsdDesign::LazyCleaning => 3,\n SsdDesign::Tac => 4,\n }; }\n";
        assert!(scan("crates/core/src/y.rs", good)
            .iter()
            .all(|f| f.rule != Rule::DesignMatch));
        // Tuple scrutinees (transition tables) are exempt.
        let tuple = "fn f() { match (design, from) {\n (Tac, _) => 1,\n _ => 2,\n }; }\n";
        assert!(scan("crates/core/src/y.rs", tuple)
            .iter()
            .all(|f| f.rule != Rule::DesignMatch));
    }

    #[test]
    fn policy_match_requires_all_variants() {
        let bad = "fn f(&self) { match self.cfg.replacement {\n ReplacementKind::Lru2 => 1,\n _ => 2,\n }; }\n";
        let f = scan("crates/bufpool/src/y.rs", bad);
        assert!(f.iter().any(|f| f.rule == Rule::PolicyMatch), "{f:?}");
        let good = "fn f(&self) { match self.cfg.replacement {\n ReplacementKind::Lru2 => 1,\n ReplacementKind::Clock => 2,\n ReplacementKind::Sieve => 3,\n ReplacementKind::LruK { k } => k,\n ReplacementKind::Ghost => 5,\n }; }\n";
        assert!(scan("crates/bufpool/src/y.rs", good)
            .iter()
            .all(|f| f.rule != Rule::PolicyMatch));
        let bad_adm = "fn f(&self) { match self.cfg.admission {\n AdmissionKind::DesignDefault => 1,\n AdmissionKind::AdmitAll => 2,\n }; }\n";
        let f = scan("crates/core/src/y.rs", bad_adm);
        assert!(
            f.iter()
                .any(|f| f.rule == Rule::PolicyMatch && f.message.contains("GhostHit")),
            "{f:?}"
        );
        // Other scrutinees that merely *contain* the word are exempt.
        let unrelated = "fn f(v: AdmitVerdict) { match verdict {\n AdmitVerdict::Admit => 1,\n _ => 2,\n }; }\n";
        assert!(scan("crates/core/src/y.rs", unrelated)
            .iter()
            .all(|f| f.rule != Rule::PolicyMatch));
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { let p = unsafe { *(0 as *const u8) }; }\n";
        assert!(scan("crates/iosim/src/z.rs", bad)
            .iter()
            .any(|f| f.rule == Rule::Unsafe));
        let good = "// # Safety: null deref is fine in this test fixture.\nfn f() { let p = unsafe { *(0 as *const u8) }; }\n";
        assert!(scan("crates/iosim/src/z.rs", good)
            .iter()
            .all(|f| f.rule != Rule::Unsafe));
        // The lint *name* in attributes is not the keyword.
        let attr = "#![forbid(unsafe_code)]\nfn f() {}\n";
        assert!(scan("crates/iosim/src/z.rs", attr).is_empty());
    }

    #[test]
    fn lock_order_file_parses() {
        let dir = std::env::temp_dir().join("turbopool_lint_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lock_order.toml");
        fs::write(&path, "# comment\norder = [\"a\", \"b\"] # trailing\n").unwrap();
        assert_eq!(
            load_lock_order(&path),
            vec!["a".to_string(), "b".to_string()]
        );
        assert!(load_lock_order(&dir.join("missing.toml")).is_empty());
    }

    #[test]
    fn lock_order_dedups_and_survives_formatting() {
        let dir = std::env::temp_dir().join("turbopool_lint_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lock_order_edge.toml");
        fs::write(
            &path,
            "# lock classes, coarsest first\n\norder = [\n  \"outer\", # coarsest\n\n  \"inner\",\n  \"outer\",\n  \"leaf\", \"inner\",\n]\n",
        )
        .unwrap();
        // Duplicates keep their first occurrence (its position defines the
        // class); comments and blank lines inside the array are ignored.
        assert_eq!(load_lock_order(&path), ["outer", "inner", "leaf"]);
    }

    #[test]
    fn missing_lock_order_disables_l3_without_error() {
        let order = load_lock_order(Path::new("/no/such/dir/lock_order.toml"));
        assert!(order.is_empty(), "missing file must yield an empty order");
        // An empty order disables L3 (no classes to invert) but leaves
        // every other rule running.
        let empty = Config::new(PathBuf::from("."), order);
        let bad = "fn f(&self) {\n let d = self.data[0].write();\n let i = self.inner.lock();\n}\n";
        assert!(scan_file(&empty, Path::new("crates/bufpool/src/x.rs"), bad)
            .iter()
            .all(|f| f.rule != Rule::LockOrder));
        let unwrap_src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(
            scan_file(&empty, Path::new("crates/core/src/x.rs"), unwrap_src)
                .iter()
                .any(|f| f.rule == Rule::Panic)
        );
    }
}
