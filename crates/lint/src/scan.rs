//! Workspace walking and the phased analysis pipeline.
//!
//! The analyzer runs in four phases, each independently callable (the
//! bench harness times them separately):
//!
//! 1. [`load_sources`] — find every manifest and `.rs` file, attribute
//!    each file to its package, read the text.
//! 2. [`parse_phase`] — lex + item-parse every file into [`FileScan`]s.
//! 3. [`graph_phase`] — flatten the parsed items into a
//!    [`SymbolTable`] and build the workspace [`CallGraph`].
//! 4. [`rules_phase`] — token rules per file, graph rules over the
//!    whole workspace, waiver application, report assembly.
//!
//! [`lint_workspace`] composes all four.

use crate::callgraph::{self, CallGraph};
use crate::config::LintConfig;
use crate::findings::{Finding, Report};
use crate::manifest::{check_manifests, parse_manifest, Manifest};
use crate::rules::{apply_waivers, token_findings, waiver_hygiene, FileScan};
use crate::symbols::{FileSymbols, SymbolTable};
use crate::taint;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Errors that stop a lint run outright (distinct from findings).
#[derive(Debug)]
pub enum ScanError {
    /// IO failure reading the tree.
    Io(String),
    /// `lint.toml` or a manifest could not be parsed.
    Config(String),
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Io(m) => write!(f, "io error: {m}"),
            ScanError::Config(m) => write!(f, "config error: {m}"),
        }
    }
}

/// Locates the workspace root at or above `start`: the nearest
/// directory whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, ScanError> {
    let mut dir = start
        .canonicalize()
        .map_err(|e| ScanError::Io(format!("{}: {e}", start.display())))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| ScanError::Io(format!("{}: {e}", manifest.display())))?;
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Ok(dir);
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent.to_path_buf(),
            None => {
                return Err(ScanError::Config(
                    "no workspace Cargo.toml found at or above the start directory".into(),
                ))
            }
        }
    }
}

/// Reads `crates/lint/lint.toml` under `root`.
pub fn load_config(root: &Path) -> Result<LintConfig, ScanError> {
    let path = root.join("crates/lint/lint.toml");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ScanError::Io(format!("{}: {e}", path.display())))?;
    LintConfig::parse(&text).map_err(|e| ScanError::Config(format!("{}: {e}", path.display())))
}

/// One source file, read and attributed to its package.
pub struct SourceFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Owning package name.
    pub package: String,
    /// File contents.
    pub text: String,
}

/// Everything phase 1 reads off disk; later phases are pure.
pub struct SourceSet {
    /// The parsed workspace manifests.
    pub manifests: Vec<Manifest>,
    /// Every non-excluded `.rs` file, sorted by path.
    pub files: Vec<SourceFile>,
}

/// Phase 1: read manifests and sources under `root`.
pub fn load_sources(root: &Path, config: &LintConfig) -> Result<SourceSet, ScanError> {
    let mut manifests: Vec<Manifest> = Vec::new();
    let mut package_dirs: BTreeMap<String, String> = BTreeMap::new(); // rel dir -> package
    for rel in manifest_paths(root)? {
        let text = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| ScanError::Io(format!("{rel}: {e}")))?;
        let manifest = parse_manifest(&rel, &text).map_err(ScanError::Config)?;
        if let Some(package) = &manifest.package {
            let dir = rel.trim_end_matches("Cargo.toml").trim_end_matches('/');
            package_dirs.insert(dir.to_string(), package.clone());
        }
        manifests.push(manifest);
    }

    let mut paths = Vec::new();
    walk_rs(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for rel in paths {
        if config.exclude.iter().any(|p| rel.starts_with(p.as_str())) {
            continue;
        }
        let package = package_for(&package_dirs, &rel);
        let text = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| ScanError::Io(format!("{rel}: {e}")))?;
        files.push(SourceFile { rel, package, text });
    }
    Ok(SourceSet { manifests, files })
}

/// Phase 2: lex + item-parse every file.
pub fn parse_phase(set: &SourceSet) -> Vec<FileScan> {
    set.files
        .iter()
        .map(|f| FileScan::new(&f.package, &f.rel, &f.text))
        .collect()
}

/// Phase 3: symbol table + workspace call graph. Resolution is
/// restricted to each caller package's manifest dependency closure —
/// a call in `popan-spatial` can never land on a `popan-bench`
/// function it cannot name.
pub fn graph_phase(set: &SourceSet, scans: &[FileScan]) -> (SymbolTable, CallGraph) {
    let files: Vec<FileSymbols<'_>> = scans
        .iter()
        .map(|s| FileSymbols {
            package: &s.package,
            rel_path: &s.rel_path,
            kind: s.kind,
            parsed: &s.parsed,
        })
        .collect();
    let table = SymbolTable::build(&files);
    let mut edges: Vec<(String, String)> = Vec::new();
    for manifest in &set.manifests {
        if let Some(package) = &manifest.package {
            edges.push((package.clone(), package.clone()));
            for dep in &manifest.deps {
                edges.push((package.clone(), dep.name.clone()));
            }
        }
    }
    let deps = callgraph::dep_closure(&edges);
    let graph = callgraph::build(&table, &deps);
    (table, graph)
}

/// Phase 4: token rules per file, graph rules over the workspace,
/// waivers, report assembly. Idempotent over the same `scans` (waiver
/// `used` flags are reset each run).
pub fn rules_phase(
    config: &LintConfig,
    set: &SourceSet,
    scans: &mut [FileScan],
    table: &SymbolTable,
    graph: &CallGraph,
) -> Report {
    let mut report = Report::default();
    report
        .findings
        .extend(check_manifests(config, &set.manifests));

    let sinks = taint::find_sinks(scans, table, graph);
    let mut graph_by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for finding in taint::graph_findings(config, table, graph, &sinks) {
        graph_by_file
            .entry(finding.file.clone())
            .or_default()
            .push(finding);
    }

    for scan in scans.iter_mut() {
        let mut raw = token_findings(config, scan);
        if let Some(extra) = graph_by_file.remove(&scan.rel_path) {
            raw.extend(extra);
        }
        let mut findings = apply_waivers(scan, raw);
        let (hygiene, records) = waiver_hygiene(scan);
        findings.extend(hygiene);
        report.findings.extend(findings);
        report.waivers.extend(records);
        report.files_scanned += 1;
    }
    // Graph findings anchored in excluded/unscanned files (cannot
    // happen for sinks found in scanned files, but stay sound).
    for (_, extra) in graph_by_file {
        report.findings.extend(extra);
    }
    report.graph = Some(graph.stats.clone());
    report.sort();
    report
}

/// Lints the whole workspace rooted at `root` (all four phases).
pub fn lint_workspace(root: &Path, config: &LintConfig) -> Result<Report, ScanError> {
    let set = load_sources(root, config)?;
    let mut scans = parse_phase(&set);
    let (table, graph) = graph_phase(&set, &scans);
    Ok(rules_phase(config, &set, &mut scans, &table, &graph))
}

/// The workspace's manifests, workspace-relative: the root, every
/// `crates/*` member, then every top-level package that builds against
/// the members by path without joining the workspace (`perfbench/`), so
/// its sources are attributed to their own package, not the root's.
fn manifest_paths(root: &Path) -> Result<Vec<String>, ScanError> {
    let mut out = vec!["Cargo.toml".to_string()];
    out.extend(child_manifests(root, "crates")?);
    out.extend(child_manifests(root, "")?);
    Ok(out)
}

/// `<dir>/<child>/Cargo.toml` for every non-hidden child of `dir` that
/// has one, sorted (`dir` is workspace-relative; empty is the root).
fn child_manifests(root: &Path, dir: &str) -> Result<Vec<String>, ScanError> {
    let path = root.join(dir);
    if !path.is_dir() {
        return Ok(Vec::new());
    }
    let entries =
        std::fs::read_dir(&path).map_err(|e| ScanError::Io(format!("{}: {e}", path.display())))?;
    let mut names: Vec<String> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| ScanError::Io(e.to_string()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with('.') && entry.path().join("Cargo.toml").is_file() {
            names.push(if dir.is_empty() {
                format!("{name}/Cargo.toml")
            } else {
                format!("{dir}/{name}/Cargo.toml")
            });
        }
    }
    names.sort();
    Ok(names)
}

/// Which package owns a workspace-relative file.
fn package_for(package_dirs: &BTreeMap<String, String>, rel: &str) -> String {
    // Longest matching directory prefix wins (crates/x before the root).
    let mut best: Option<(&str, &str)> = None;
    for (dir, package) in package_dirs {
        let matches = dir.is_empty() || rel.starts_with(&format!("{dir}/"));
        if matches && best.is_none_or(|(b, _)| dir.len() > b.len()) {
            best = Some((dir, package));
        }
    }
    best.map(|(_, p)| p.to_string()).unwrap_or_default()
}

/// Collects `**/*.rs` under `dir`, skipping VCS and build output.
fn walk_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), ScanError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| ScanError::Io(format!("{}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| ScanError::Io(e.to_string()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| ScanError::Io(e.to_string()))?
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_attribution_prefers_the_longest_prefix() {
        let mut dirs = BTreeMap::new();
        dirs.insert("".to_string(), "popan".to_string());
        dirs.insert("crates/engine".to_string(), "popan-engine".to_string());
        assert_eq!(
            package_for(&dirs, "crates/engine/src/lib.rs"),
            "popan-engine"
        );
        assert_eq!(package_for(&dirs, "src/lib.rs"), "popan");
        assert_eq!(package_for(&dirs, "tests/end_to_end.rs"), "popan");
    }

    #[test]
    fn nested_top_level_packages_own_their_sources() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        let paths = manifest_paths(&root).unwrap();
        assert_eq!(paths.first().map(String::as_str), Some("Cargo.toml"));
        assert!(paths.contains(&"crates/lint/Cargo.toml".to_string()));
        assert!(paths.contains(&"perfbench/Cargo.toml".to_string()));
        let set = load_sources(&root, &load_config(&root).unwrap()).unwrap();
        let owner = |rel: &str| {
            set.files
                .iter()
                .find(|f| f.rel == rel)
                .map(|f| f.package.clone())
        };
        assert_eq!(
            owner("perfbench/src/main.rs").as_deref(),
            Some("popan-perfbench")
        );
        assert_eq!(owner("src/lib.rs").as_deref(), Some("popan"));
    }
}
