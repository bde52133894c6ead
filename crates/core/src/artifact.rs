//! Versioned on-disk artifacts: compile results that survive a restart.
//!
//! The pipeline is deterministic, so a [`CompileResult`] is fully
//! described by what produced it: the graph's
//! [`Dfg::content_hash`](mps_dfg::Dfg::content_hash) and the
//! [`CompileConfig::content_hash`](crate::CompileConfig::content_hash).
//! This module turns that determinism into restartable state — each
//! artifact is one single-line JSON file (written through
//! [`crate::json`], serialized through the vendored `serde` value tree)
//! wrapped in a small envelope that is **verified, never trusted**:
//!
//! ```text
//! {"magic":"mps-artifact","format_version":1,"toolchain":"mps/0.1.0",
//!  "kind":"compile-result","graph_hash":"16-hex","config_hash":"16-hex",
//!  "payload":{…}}
//! ```
//!
//! A file whose magic, [`FORMAT_VERSION`], [`toolchain`] stamp, kind, or
//! content hashes disagree — or that is truncated, unparseable, or
//! structurally invalid — is *rejected* with an [`ArtifactError`]; the
//! serving layer counts rejects and recompiles instead of crashing or
//! serving a stale answer. [`PatternTable`]s share the same envelope
//! (`kind: "pattern-table"`) so table snapshots can travel the same way.
//!
//! [`ArtifactStore`] is the directory tier: `save_result` writes
//! temp-then-rename so a kill mid-write can never leave a bad file under
//! an artifact name, `load_results` sweeps the directory at boot (bad
//! files counted, not fatal), and the budget sweeps apply the same
//! entry/byte LRU discipline the in-memory caches use, evicting
//! least-recently-written files first. [`ArtifactStore::enforce_budget`]
//! lists the directory; [`ArtifactStore::enforce_budget_indexed`] works
//! from an in-memory index read once at [`ArtifactStore::open`] and kept
//! current by every save, so a save-then-evict never lists the directory.

use crate::json;
use crate::session::{CompileResult, TableKey};
use mps_patterns::PatternTable;
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// Version of the artifact envelope and payload encoding. Bump on any
/// change to either; readers reject every other version.
pub const FORMAT_VERSION: u64 = 1;

/// The toolchain stamp embedded in (and required of) every artifact.
///
/// Payloads are only portable between identical builds of this
/// workspace — a `Debug`-derived config hash or a changed struct layout
/// silently changes meaning across versions — so the stamp ties each
/// file to the crate version that wrote it.
pub fn toolchain() -> &'static str {
    concat!("mps/", env!("CARGO_PKG_VERSION"))
}

/// The identity of an artifact: `(graph content hash, config content
/// hash)` — the same key the serving caches use.
pub type ArtifactKey = (u64, u64);

/// Why an artifact file was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum ArtifactError {
    /// The file could not be read.
    Io(String),
    /// The text is not valid JSON.
    Parse(json::ParseError),
    /// The JSON is missing envelope fields, carries the wrong magic, or
    /// the payload does not decode as the expected type.
    Malformed(String),
    /// The envelope's `format_version` is not [`FORMAT_VERSION`].
    VersionMismatch {
        /// Version found in the file.
        found: u64,
    },
    /// The envelope's `toolchain` stamp is not [`toolchain`]'s.
    ToolchainMismatch {
        /// Stamp found in the file.
        found: String,
    },
    /// The envelope's `kind` is not the kind being decoded.
    KindMismatch {
        /// Kind found in the file.
        found: String,
    },
    /// The envelope's content hashes disagree with the expected key
    /// (e.g. the file name it was stored under).
    KeyMismatch {
        /// Key found in the envelope.
        found: ArtifactKey,
        /// Key the caller expected.
        expected: ArtifactKey,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact unreadable: {e}"),
            ArtifactError::Parse(e) => write!(f, "artifact is not valid JSON: {e}"),
            ArtifactError::Malformed(e) => write!(f, "artifact malformed: {e}"),
            ArtifactError::VersionMismatch { found } => write!(
                f,
                "artifact format version {found} (this build reads {FORMAT_VERSION})"
            ),
            ArtifactError::ToolchainMismatch { found } => write!(
                f,
                "artifact written by toolchain {found:?} (this build is {:?})",
                toolchain()
            ),
            ArtifactError::KindMismatch { found } => {
                write!(f, "artifact kind {found:?} is not the kind requested")
            }
            ArtifactError::KeyMismatch { found, expected } => write!(
                f,
                "artifact keyed {:016x}-{:016x}, expected {:016x}-{:016x}",
                found.0, found.1, expected.0, expected.1
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

const MAGIC: &str = "mps-artifact";
const KIND_RESULT: &str = "compile-result";
const KIND_TABLE: &str = "pattern-table";

fn encode(kind: &str, key: ArtifactKey, payload: Value) -> String {
    json::write(&Value::Map(vec![
        ("magic".into(), Value::Str(MAGIC.into())),
        ("format_version".into(), Value::U64(FORMAT_VERSION)),
        ("toolchain".into(), Value::Str(toolchain().into())),
        ("kind".into(), Value::Str(kind.into())),
        ("graph_hash".into(), Value::Str(format!("{:016x}", key.0))),
        ("config_hash".into(), Value::Str(format!("{:016x}", key.1))),
        ("payload".into(), payload),
    ]))
}

fn str_field(doc: &Value, name: &str) -> Result<String, ArtifactError> {
    match json::field(doc, name) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(ArtifactError::Malformed(format!(
            "field `{name}` should be a string, is {other:?}"
        ))),
        None => Err(ArtifactError::Malformed(format!("missing field `{name}`"))),
    }
}

fn hash_field(doc: &Value, name: &str) -> Result<u64, ArtifactError> {
    let hex = str_field(doc, name)?;
    u64::from_str_radix(&hex, 16)
        .map_err(|_| ArtifactError::Malformed(format!("field `{name}` is not a 64-bit hex hash")))
}

/// Decode the envelope, verifying magic, version, toolchain and kind in
/// that order (so the error names the *first* reason a foreign file is
/// untrustworthy), and hand back the key and the raw payload.
fn decode_envelope(text: &str, kind: &str) -> Result<(ArtifactKey, Value), ArtifactError> {
    let mut doc = json::parse(text).map_err(ArtifactError::Parse)?;
    if str_field(&doc, "magic")? != MAGIC {
        return Err(ArtifactError::Malformed("wrong magic".into()));
    }
    match json::field(&doc, "format_version") {
        Some(Value::U64(v)) if *v == FORMAT_VERSION => {}
        Some(Value::U64(v)) => return Err(ArtifactError::VersionMismatch { found: *v }),
        _ => {
            return Err(ArtifactError::Malformed(
                "missing or non-integer `format_version`".into(),
            ))
        }
    }
    let stamp = str_field(&doc, "toolchain")?;
    if stamp != toolchain() {
        return Err(ArtifactError::ToolchainMismatch { found: stamp });
    }
    let found_kind = str_field(&doc, "kind")?;
    if found_kind != kind {
        return Err(ArtifactError::KindMismatch { found: found_kind });
    }
    let key = (
        hash_field(&doc, "graph_hash")?,
        hash_field(&doc, "config_hash")?,
    );
    let payload = json::take_field(&mut doc, "payload")
        .ok_or_else(|| ArtifactError::Malformed("missing field `payload`".into()))?;
    Ok((key, payload))
}

/// Encode a compile result as one artifact line.
pub fn encode_result(key: ArtifactKey, result: &CompileResult) -> String {
    encode(KIND_RESULT, key, serde::to_value(result))
}

/// Decode a compile-result artifact, verifying the full envelope. Pass
/// `expected` (e.g. the key implied by the file's name) to additionally
/// reject an artifact stored under the wrong identity.
pub fn decode_result(
    text: &str,
    expected: Option<ArtifactKey>,
) -> Result<(ArtifactKey, CompileResult), ArtifactError> {
    let (key, payload) = decode_envelope(text, KIND_RESULT)?;
    if let Some(expected) = expected {
        if key != expected {
            return Err(ArtifactError::KeyMismatch {
                found: key,
                expected,
            });
        }
    }
    let result: CompileResult =
        serde::from_value(payload).map_err(|e| ArtifactError::Malformed(e.to_string()))?;
    Ok((key, result))
}

/// Encode a pattern table as one artifact line. The key's second
/// component is the hash of whatever configuration shaped the table
/// (span, policy) — the caller owns that convention.
pub fn encode_table(key: ArtifactKey, table: &PatternTable) -> String {
    encode(KIND_TABLE, key, serde::to_value(table))
}

/// Decode a pattern-table artifact, verifying the full envelope (and the
/// expected key, when given). The table's derived structures are rebuilt
/// and re-validated by [`PatternTable::from_stats`].
pub fn decode_table(
    text: &str,
    expected: Option<ArtifactKey>,
) -> Result<(ArtifactKey, PatternTable), ArtifactError> {
    let (key, payload) = decode_envelope(text, KIND_TABLE)?;
    if let Some(expected) = expected {
        if key != expected {
            return Err(ArtifactError::KeyMismatch {
                found: key,
                expected,
            });
        }
    }
    let table: PatternTable =
        serde::from_value(payload).map_err(|e| ArtifactError::Malformed(e.to_string()))?;
    Ok((key, table))
}

/// Encode one persistent table-tier entry: a pattern table *plus* the
/// exact [`TableKey`] it was built under, so a loader can seed a
/// [`crate::TableCache`] without guessing the build parameters back out
/// of a hash. The envelope key is `(graph_hash,
/// [`TableKey::content_hash`])`.
pub fn encode_table_entry(graph: u64, key: &TableKey, table: &PatternTable) -> String {
    let payload = Value::Map(vec![
        ("capacity".into(), Value::U64(key.capacity as u64)),
        (
            "span".into(),
            key.span.map_or(Value::Unit, |s| Value::U64(u64::from(s))),
        ),
        ("table".into(), serde::to_value(table)),
    ]);
    encode(KIND_TABLE, (graph, key.content_hash()), payload)
}

/// Decode a table-tier entry, verifying the envelope, that the embedded
/// [`TableKey`] hashes to the envelope's `config_hash` (so a file whose
/// parameters were tampered with is rejected, not trusted), and the
/// table payload itself (revalidated by `PatternTable::from_stats`).
pub fn decode_table_entry(
    text: &str,
    expected: Option<ArtifactKey>,
) -> Result<(u64, TableKey, PatternTable), ArtifactError> {
    let (envelope_key, mut payload) = decode_envelope(text, KIND_TABLE)?;
    if let Some(expected) = expected {
        if envelope_key != expected {
            return Err(ArtifactError::KeyMismatch {
                found: envelope_key,
                expected,
            });
        }
    }
    let capacity = match json::field(&payload, "capacity") {
        Some(Value::U64(n)) => *n as usize,
        _ => {
            return Err(ArtifactError::Malformed(
                "table payload missing integer `capacity`".into(),
            ))
        }
    };
    let span = match json::field(&payload, "span") {
        None | Some(Value::Unit) => None,
        Some(Value::U64(n)) => Some(*n as u32),
        _ => {
            return Err(ArtifactError::Malformed(
                "table payload `span` must be an integer or null".into(),
            ))
        }
    };
    let key = TableKey { capacity, span };
    if key.content_hash() != envelope_key.1 {
        return Err(ArtifactError::Malformed(
            "table key parameters do not hash to the envelope's config_hash".into(),
        ));
    }
    let table_value = json::take_field(&mut payload, "table")
        .ok_or_else(|| ArtifactError::Malformed("table payload missing `table`".into()))?;
    let table: PatternTable =
        serde::from_value(table_value).map_err(|e| ArtifactError::Malformed(e.to_string()))?;
    Ok((envelope_key.0, key, table))
}

/// What a boot-time directory sweep found.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Artifacts that survived every envelope check, with their keys.
    pub loaded: Vec<(ArtifactKey, CompileResult)>,
    /// Files that failed any check (truncated, corrupt, wrong version /
    /// toolchain / key) and were skipped.
    pub rejected: usize,
}

/// What a boot-time sweep of the pattern-table tier found.
#[derive(Debug, Default)]
pub struct TableLoadReport {
    /// Tables that survived every check: graph content hash, the exact
    /// [`TableKey`] they were built under, and the revalidated table.
    pub loaded: Vec<(u64, TableKey, PatternTable)>,
    /// Files that failed any check and were skipped.
    pub rejected: usize,
}

/// A directory of persisted compile-result artifacts.
///
/// One file per artifact, named `cr-<graph_hash>-<config_hash>.json`, so
/// the identity is visible in a directory listing and an artifact
/// renamed onto the wrong key is caught at load. Writes go through a
/// same-directory temp file and an atomic rename; leftover `*.tmp-*`
/// files from a killed writer are swept out at the next boot.
///
/// The store also keeps an in-memory **budget index**: the size and
/// mtime of every `cr-`/`pt-` file, read from one directory listing at
/// [`ArtifactStore::open`] and updated with one stat of the file each
/// save writes. [`ArtifactStore::enforce_budget_indexed`] picks victims
/// from it in the listing sweep's order, so keeping a directory inside
/// its budget costs nothing per save beyond the save itself. Clones share
/// the index.
///
/// The index sees only this process's saves. A directory that two live
/// daemons share can overshoot its budget by the other daemon's writes
/// until the next boot re-reads the directory; files the other daemon
/// deleted or republished are found by the re-stat before each delete.
///
/// A serving layer that saves *after* replying (write-behind) trades a
/// small durability window for latency: a `kill -9` between the reply
/// and the save loses that one artifact, and the next boot recompiles
/// it. The temp-then-rename discipline still means no kill ever leaves a
/// torn file under an artifact name.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    index: Arc<Mutex<BudgetIndex>>,
}

/// Every `cr-`/`pt-` file of a store's directory, as last stat'ed, in
/// eviction order.
#[derive(Debug, Default)]
struct BudgetIndex {
    /// Victim order — oldest mtime first, ties broken by file name — with
    /// each file's length.
    order: BTreeMap<(SystemTime, String), u64>,
    /// File name → the mtime it is filed under in `order`.
    mtimes: HashMap<String, SystemTime>,
    /// Sum of the lengths in `order`.
    bytes: u64,
}

impl BudgetIndex {
    /// File `name` (again) under a fresh stat.
    fn insert(&mut self, name: String, len: u64, modified: SystemTime) {
        self.remove(&name);
        self.mtimes.insert(name.clone(), modified);
        self.order.insert((modified, name), len);
        self.bytes += len;
    }

    /// Forget `name`, if it is filed.
    fn remove(&mut self, name: &str) {
        if let Some(modified) = self.mtimes.remove(name) {
            let len = self
                .order
                .remove(&(modified, name.to_string()))
                .unwrap_or(0);
            self.bytes -= len;
        }
    }
}

/// What re-stat-then-delete did with one eviction candidate.
enum Eviction {
    /// The file was deleted.
    Deleted,
    /// The file's mtime changed since it was listed or indexed: a writer
    /// republished it, so it was kept. Carries the fresh length and mtime.
    Republished(u64, SystemTime),
    /// The file was already gone (or could not be deleted).
    Gone,
}

/// Delete `path` unless its mtime moved off `seen`. The re-stat guards
/// against deleting a file a concurrent save just renamed into place.
fn evict_if_unchanged(path: &Path, seen: SystemTime) -> Eviction {
    let Ok(meta) = fs::metadata(path) else {
        return Eviction::Gone;
    };
    let modified = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
    if modified != seen {
        return Eviction::Republished(meta.len(), modified);
    }
    match fs::remove_file(path) {
        Ok(()) => Eviction::Deleted,
        Err(_) => Eviction::Gone,
    }
}

/// List the `cr-`/`pt-` files of `dir` as `(name, length, mtime)`.
fn list_keyed(dir: &Path) -> io::Result<Vec<(String, u64, SystemTime)>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)?.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if parse_keyed_name("cr-", name).is_none() && parse_keyed_name("pt-", name).is_none() {
            continue;
        }
        if let Ok(meta) = entry.metadata() {
            let modified = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            files.push((name.to_string(), meta.len(), modified));
        }
    }
    Ok(files)
}

impl ArtifactStore {
    /// Open (creating if needed) the store at `dir`, reading the
    /// directory once to build the budget index.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut index = BudgetIndex::default();
        for (name, len, modified) in list_keyed(&dir)? {
            index.insert(name, len, modified);
        }
        Ok(ArtifactStore {
            dir,
            index: Arc::new(Mutex::new(index)),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an artifact with this key lives at.
    pub fn result_path(&self, key: ArtifactKey) -> PathBuf {
        self.dir
            .join(format!("cr-{:016x}-{:016x}.json", key.0, key.1))
    }

    /// The file a table artifact with this identity lives at.
    pub fn table_path(&self, graph: u64, key: &TableKey) -> PathBuf {
        self.dir.join(format!(
            "pt-{:016x}-{:016x}.json",
            graph,
            key.content_hash()
        ))
    }

    /// Persist one compile result: encode, write to a temp file in the
    /// same directory, flush, then rename onto the artifact name — so a
    /// kill at any instant leaves either the old file, no file, or the
    /// complete new file, never a torn one.
    pub fn save_result(&self, key: ArtifactKey, result: &CompileResult) -> io::Result<PathBuf> {
        let stem = format!("cr-{:016x}-{:016x}", key.0, key.1);
        self.save_line(&stem, &encode_result(key, result))
    }

    /// Persist one pattern table under its `(graph, key-hash)` identity,
    /// with the same temp-then-rename discipline as [`Self::save_result`].
    pub fn save_table(
        &self,
        graph: u64,
        key: &TableKey,
        table: &PatternTable,
    ) -> io::Result<PathBuf> {
        let stem = format!("pt-{:016x}-{:016x}", graph, key.content_hash());
        self.save_line(&stem, &encode_table_entry(graph, key, table))
    }

    /// Write `text` to `<stem>.json` via a same-directory temp file and
    /// an atomic rename, then file the result in the budget index. The
    /// rename and the stat happen under the index lock, so an indexed
    /// eviction in this process never deletes a file mid-publish.
    fn save_line(&self, stem: &str, text: &str) -> io::Result<PathBuf> {
        let name = format!("{stem}.json");
        let path = self.dir.join(&name);
        let tmp = self.dir.join(format!("{stem}.tmp-{}", std::process::id()));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        let mut index = self.index.lock().expect("budget index poisoned");
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        // A listing sweep in another thread may already have deleted the
        // file; then there is nothing to index.
        match fs::metadata(&path) {
            Ok(meta) => index.insert(
                name,
                meta.len(),
                meta.modified().unwrap_or(std::time::UNIX_EPOCH),
            ),
            Err(_) => index.remove(&name),
        }
        Ok(path)
    }

    /// Sweep the directory: decode every `cr-*.json`, verifying the
    /// envelope *and* that the embedded key matches the file name. Bad
    /// files are counted in [`LoadReport::rejected`] and left in place
    /// (they may be diagnosable); stale temp files are deleted. I/O
    /// trouble on the directory itself yields an empty report rather
    /// than an error — a missing cache is a cold start, not a failure.
    pub fn load_results(&self) -> LoadReport {
        let mut report = LoadReport::default();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(_) => return report,
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.contains(".tmp-") {
                let _ = fs::remove_file(entry.path());
                continue;
            }
            let Some(expected) = parse_result_name(name) else {
                continue;
            };
            let decoded = fs::read_to_string(entry.path())
                .map_err(|e| ArtifactError::Io(e.to_string()))
                .and_then(|text| decode_result(text.trim_end(), Some(expected)));
            match decoded {
                Ok((key, result)) => report.loaded.push((key, result)),
                Err(_) => report.rejected += 1,
            }
        }
        // Deterministic order for callers that admit into LRU caches.
        report.loaded.sort_by_key(|(key, _)| *key);
        report
    }

    /// Sweep the pattern-table tier: decode every `pt-*.json`, verifying
    /// the envelope, the key-parameter hash, and the file-name identity.
    /// Same degradation contract as [`Self::load_results`]: bad files are
    /// counted and skipped, directory trouble is a cold start.
    pub fn load_tables(&self) -> TableLoadReport {
        let mut report = TableLoadReport::default();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(_) => return report,
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.contains(".tmp-") {
                let _ = fs::remove_file(entry.path());
                continue;
            }
            let Some(expected) = parse_keyed_name("pt-", name) else {
                continue;
            };
            let decoded = fs::read_to_string(entry.path())
                .map_err(|e| ArtifactError::Io(e.to_string()))
                .and_then(|text| decode_table_entry(text.trim_end(), Some(expected)));
            match decoded {
                Ok((graph, key, table)) => report.loaded.push((graph, key, table)),
                Err(_) => report.rejected += 1,
            }
        }
        report
            .loaded
            .sort_by_key(|(graph, key, _)| (*graph, key.content_hash()));
        report
    }

    /// Apply entry/byte budgets to the directory (both the `cr-` result
    /// tier and the `pt-` table tier), deleting least-recently-modified
    /// artifacts first until both bounds hold. Identical modification
    /// times break ties by file name, so two stores sweeping the same
    /// directory pick the same victims. A file whose mtime changed
    /// between the listing and the delete was just republished by a
    /// concurrent writer — it is skipped, never deleted out from under
    /// its publisher. Returns how many files were evicted. With neither
    /// bound set nothing can be evicted, so the directory is not read.
    ///
    /// This sweep lists and stats the whole directory; a store that only
    /// needs to stay inside its budget after its own saves should call
    /// [`Self::enforce_budget_indexed`], which picks the same victims.
    pub fn enforce_budget(
        &self,
        max_entries: Option<usize>,
        max_bytes: Option<usize>,
    ) -> io::Result<usize> {
        if max_entries.is_none() && max_bytes.is_none() {
            return Ok(0);
        }
        let mut files = list_keyed(&self.dir)?;
        files.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
        let mut count = files.len();
        let mut evicted = 0;
        for (name, len, listed_mtime) in files {
            let over_entries = max_entries.is_some_and(|m| count > m);
            let over_bytes = max_bytes.is_some_and(|m| total > m as u64);
            if !over_entries && !over_bytes {
                break;
            }
            if let Eviction::Deleted = evict_if_unchanged(&self.dir.join(name), listed_mtime) {
                evicted += 1;
                count -= 1;
                total -= len;
            }
        }
        Ok(evicted)
    }

    /// [`Self::enforce_budget`] from the budget index instead of a
    /// directory listing: same bounds, same victim order (oldest mtime
    /// first, ties by file name), same re-stat before every delete. A
    /// victim republished since it was indexed is re-filed under its new
    /// mtime and kept for this call; one already gone is dropped from the
    /// index. Returns how many files were evicted.
    pub fn enforce_budget_indexed(
        &self,
        max_entries: Option<usize>,
        max_bytes: Option<usize>,
    ) -> usize {
        let over = |count: usize, bytes: u64| {
            max_entries.is_some_and(|m| count > m) || max_bytes.is_some_and(|m| bytes > m as u64)
        };
        let mut index = self.index.lock().expect("budget index poisoned");
        // Kept files are out of the index until the end, but still on
        // disk: they count against the budget.
        let (mut kept, mut kept_bytes) = (Vec::new(), 0);
        let mut evicted = 0;
        while over(index.order.len() + kept.len(), index.bytes + kept_bytes) {
            let Some(((modified, name), len)) = index.order.pop_first() else {
                break;
            };
            index.mtimes.remove(&name);
            index.bytes -= len;
            match evict_if_unchanged(&self.dir.join(&name), modified) {
                Eviction::Deleted => evicted += 1,
                Eviction::Gone => {}
                Eviction::Republished(len, modified) => {
                    kept_bytes += len;
                    kept.push((name, len, modified));
                }
            }
        }
        for (name, len, modified) in kept {
            index.insert(name, len, modified);
        }
        evicted
    }
}

/// Parse `cr-<16 hex>-<16 hex>.json` back into its key.
fn parse_result_name(name: &str) -> Option<ArtifactKey> {
    parse_keyed_name("cr-", name)
}

/// Parse `<prefix><16 hex>-<16 hex>.json` back into its key pair.
fn parse_keyed_name(prefix: &str, name: &str) -> Option<ArtifactKey> {
    let rest = name.strip_prefix(prefix)?.strip_suffix(".json")?;
    if rest.len() != 33 || !rest.is_char_boundary(16) || rest.as_bytes()[16] != b'-' {
        return None;
    }
    Some((
        u64::from_str_radix(&rest[..16], 16).ok()?,
        u64::from_str_radix(&rest[17..], 16).ok()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{CompileConfig, Session};

    fn sample() -> (ArtifactKey, CompileResult) {
        let dfg = mps_workloads::fig4();
        let cfg = CompileConfig::default();
        let key = (dfg.content_hash(), cfg.content_hash());
        let result = Session::with_config(dfg, cfg).compile().unwrap();
        (key, result)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mps-artifact-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn result_round_trips_through_text() {
        let (key, result) = sample();
        let text = encode_result(key, &result);
        assert!(!text.contains('\n'), "artifacts are single-line");
        let (got_key, got) = decode_result(&text, Some(key)).unwrap();
        assert_eq!(got_key, key);
        assert_eq!(got, result);
    }

    #[test]
    fn table_round_trips_through_text() {
        let adfg = mps_dfg::AnalyzedDfg::new(mps_workloads::fig2());
        let table = PatternTable::build(&adfg, mps_patterns::EnumerateConfig::default());
        let key = (adfg.dfg().content_hash(), 7);
        let (got_key, got) = decode_table(&encode_table(key, &table), Some(key)).unwrap();
        assert_eq!(got_key, key);
        assert_eq!(got, table);
    }

    #[test]
    fn foreign_envelopes_are_rejected_first() {
        let (key, result) = sample();
        let text = encode_result(key, &result);
        // Wrong version.
        let worse = text.replace("\"format_version\":1", "\"format_version\":999");
        assert!(matches!(
            decode_result(&worse, None),
            Err(ArtifactError::VersionMismatch { found: 999 })
        ));
        // Wrong toolchain stamp.
        let worse = text.replace(toolchain(), "mps/0.0.0-elsewhere");
        assert!(matches!(
            decode_result(&worse, None),
            Err(ArtifactError::ToolchainMismatch { .. })
        ));
        // Wrong kind.
        assert!(matches!(
            decode_table(&text, None),
            Err(ArtifactError::KindMismatch { .. })
        ));
        // Wrong key.
        assert!(matches!(
            decode_result(&text, Some((key.0 ^ 1, key.1))),
            Err(ArtifactError::KeyMismatch { .. })
        ));
        // Truncation.
        assert!(matches!(
            decode_result(&text[..text.len() / 2], None),
            Err(ArtifactError::Parse(_))
        ));
    }

    #[test]
    fn store_saves_atomically_and_reloads() {
        let dir = tmp_dir("reload");
        let store = ArtifactStore::open(&dir).unwrap();
        let (key, result) = sample();
        let path = store.save_result(key, &result).unwrap();
        assert_eq!(path, store.result_path(key));
        // A stale temp file from a "killed" writer is swept, not loaded.
        fs::write(dir.join("cr-0000000000000000-0000000000000000.tmp-1"), "{").unwrap();
        let report = store.load_results();
        assert_eq!(report.rejected, 0);
        assert_eq!(report.loaded.len(), 1);
        assert_eq!(report.loaded[0].0, key);
        assert_eq!(report.loaded[0].1, result);
        assert!(!dir
            .join("cr-0000000000000000-0000000000000000.tmp-1")
            .exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_evicts_oldest_files() {
        let dir = tmp_dir("budget");
        let store = ArtifactStore::open(&dir).unwrap();
        let (key, result) = sample();
        for i in 0..4u64 {
            store
                .save_result((key.0, key.1.wrapping_add(i)), &result)
                .unwrap();
        }
        let evicted = store.enforce_budget(Some(2), None).unwrap();
        assert_eq!(evicted, 2);
        assert_eq!(store.load_results().loaded.len(), 2);
        let evicted = store.enforce_budget(None, Some(1)).unwrap();
        assert_eq!(evicted, 2, "a 1-byte budget clears the directory");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbudgeted_enforcement_skips_the_directory_scan() {
        let dir = tmp_dir("nobudget");
        let store = ArtifactStore::open(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        // Nothing to evict without a bound, so the vanished directory is
        // never listed; a bounded sweep still reports the I/O error.
        assert_eq!(store.enforce_budget(None, None).unwrap(), 0);
        assert!(store.enforce_budget(Some(1), None).is_err());
    }

    #[test]
    fn legacy_table_entries_with_a_worker_policy_are_rejected_and_counted() {
        // A `pt-` file written while `TableKey` still carried `parallel`:
        // the payload names the field, and the envelope's config hash is
        // FNV-1a over the old `Debug` rendering of the key.
        let dir = tmp_dir("legacy-pt");
        let store = ArtifactStore::open(&dir).unwrap();
        let adfg = mps_dfg::AnalyzedDfg::new(mps_workloads::fig4());
        let graph = adfg.dfg().content_hash();
        let table = PatternTable::build(&adfg, mps_patterns::EnumerateConfig::default());
        let legacy_hash = "TableKey { capacity: 5, span: None, parallel: false }"
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        let payload = Value::Map(vec![
            ("capacity".into(), Value::U64(5)),
            ("span".into(), Value::Unit),
            ("parallel".into(), Value::Bool(false)),
            ("table".into(), serde::to_value(&table)),
        ]);
        let text = encode(KIND_TABLE, (graph, legacy_hash), payload);
        let name = format!("pt-{graph:016x}-{legacy_hash:016x}.json");
        fs::write(dir.join(name), text).unwrap();
        let report = store.load_tables();
        assert_eq!((report.loaded.len(), report.rejected), (0, 1));
        let _ = fs::remove_dir_all(&dir);
    }
}
