//! Persistence suite for the [`mps::artifact`] format: the on-disk
//! artifact codec must be a lossless round trip for compile results and
//! pattern tables over *random* inputs (not just the curated registry),
//! and the [`ArtifactStore`] directory sweep must treat every flavor of
//! damage — truncation, version skew, a file renamed onto the wrong
//! key, plain junk — as "skip and count", never as a crash and never as
//! trusted data.

use mps::artifact::{
    decode_result, decode_table, encode_result, encode_table, ArtifactError, ArtifactStore,
};
use mps::prelude::*;
use mps::workloads::{random_layered_dag, RandomDagConfig};
use mps::CompileConfig;
use proptest::prelude::*;
use std::path::PathBuf;

const SPANS: [Option<u32>; 3] = [None, Some(1), Some(3)];

fn config(span: Option<u32>, pdef: usize) -> CompileConfig {
    CompileConfig {
        select: SelectConfig {
            span_limit: span,
            pdef,
            parallel: false,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A fresh scratch directory under the system temp root, unique per
/// test, removed by the caller when the assertion survives.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mps-artifact-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compile a random layered DAG, push the result through the text
    /// codec and a real file in an [`ArtifactStore`], and demand the
    /// reloaded result equal the original bit-for-bit (`CompileResult`
    /// is `PartialEq`, and the JSON float writer is shortest-round-trip,
    /// so even the stage timings must survive).
    #[test]
    fn compile_results_round_trip_through_disk(
        seed in any::<u64>(),
        layers in 2usize..5,
        colors in 2u8..5,
        span_idx in 0usize..SPANS.len(),
        pdef in 2usize..6,
    ) {
        let dfg = random_layered_dag(&RandomDagConfig {
            layers,
            width: (2, 5),
            colors,
            seed,
            ..Default::default()
        });
        let cfg = config(SPANS[span_idx], pdef);
        let key = (dfg.content_hash(), cfg.content_hash());
        let mut session = Session::with_config(dfg, cfg);
        let result = session.compile().expect("random layered DAGs compile");

        // Text-level round trip.
        let text = encode_result(key, &result);
        let (decoded_key, decoded) = decode_result(&text, Some(key)).expect("decodes");
        prop_assert_eq!(decoded_key, key);
        prop_assert_eq!(&decoded, &result);

        // Disk-level round trip through the store sweep.
        let dir = scratch("rt");
        let store = ArtifactStore::open(&dir).expect("open store");
        store.save_result(key, &result).expect("save");
        let report = store.load_results();
        prop_assert_eq!(report.rejected, 0);
        prop_assert_eq!(report.loaded.len(), 1);
        let (loaded_key, loaded) = &report.loaded[0];
        prop_assert_eq!(*loaded_key, key);
        prop_assert_eq!(loaded, &result);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pattern tables rebuild their derived structures (cover matrix,
    /// index) on decode; the reloaded table must still compare equal.
    #[test]
    fn pattern_tables_round_trip_through_text(
        seed in any::<u64>(),
        layers in 2usize..5,
        colors in 2u8..5,
        span_idx in 0usize..SPANS.len(),
    ) {
        let dfg = random_layered_dag(&RandomDagConfig {
            layers,
            width: (2, 5),
            colors,
            seed,
            ..Default::default()
        });
        let adfg = AnalyzedDfg::new(dfg);
        let table = PatternTable::build(
            &adfg,
            mps::patterns::EnumerateConfig {
                span_limit: SPANS[span_idx],
                ..Default::default()
            },
        );
        let key = (adfg.dfg().content_hash(), 0);
        let text = encode_table(key, &table);
        let (decoded_key, decoded) = decode_table(&text, Some(key)).expect("decodes");
        prop_assert_eq!(decoded_key, key);
        prop_assert_eq!(&decoded, &table);
    }
}

/// One compiled fig4 result and its key, for the damage tests.
fn sample() -> ((u64, u64), mps::CompileResult) {
    let dfg = mps::workloads::fig4();
    let cfg = CompileConfig::default();
    let key = (dfg.content_hash(), cfg.content_hash());
    let mut session = Session::with_config(dfg, cfg);
    (key, session.compile().expect("fig4 compiles"))
}

#[test]
fn truncated_artifacts_are_rejected_with_counter() {
    let dir = scratch("trunc");
    let store = ArtifactStore::open(&dir).expect("open store");
    let (key, result) = sample();
    let path = store.save_result(key, &result).expect("save");
    // Chop the file at every interesting boundary: each prefix must be
    // rejected (decode error), never panic, never load.
    let full = std::fs::read_to_string(&path).expect("read back");
    for cut in [0, 1, full.len() / 4, full.len() / 2, full.len() - 2] {
        std::fs::write(&path, &full[..cut]).expect("truncate");
        let report = store.load_results();
        assert_eq!(
            (report.loaded.len(), report.rejected),
            (0, 1),
            "prefix of {cut} bytes must be skipped-and-counted"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_skewed_artifacts_are_rejected() {
    let dir = scratch("ver");
    let store = ArtifactStore::open(&dir).expect("open store");
    let (key, result) = sample();
    let path = store.save_result(key, &result).expect("save");
    let text = std::fs::read_to_string(&path).expect("read back");
    // A future format version must be refused outright…
    let bumped = text.replacen("\"format_version\":1", "\"format_version\":2", 1);
    assert_ne!(bumped, text, "envelope carries the version field");
    std::fs::write(&path, &bumped).expect("rewrite");
    let report = store.load_results();
    assert_eq!((report.loaded.len(), report.rejected), (0, 1));
    // …and the direct decoder names the failure precisely.
    match decode_result(bumped.trim_end(), None) {
        Err(ArtifactError::VersionMismatch { found }) => assert_eq!(found, 2),
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifacts_renamed_onto_the_wrong_key_are_rejected() {
    let dir = scratch("rename");
    let store = ArtifactStore::open(&dir).expect("open store");
    let (key, result) = sample();
    let path = store.save_result(key, &result).expect("save");
    // Simulate an operator copying a cache file onto another identity:
    // the embedded key no longer matches the file name.
    let wrong = store.result_path((key.0 ^ 1, key.1));
    std::fs::rename(&path, &wrong).expect("rename");
    let report = store.load_results();
    assert_eq!((report.loaded.len(), report.rejected), (0, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table_entries_round_trip_through_disk_and_reject_tampered_parameters() {
    let dir = scratch("pt");
    let store = ArtifactStore::open(&dir).expect("open store");
    let dfg = mps::workloads::fig2();
    let graph = dfg.content_hash();
    let adfg = AnalyzedDfg::new(dfg);
    let key = mps::TableKey {
        capacity: 4,
        span: Some(2),
    };
    let table = PatternTable::build(
        &adfg,
        mps::patterns::EnumerateConfig {
            span_limit: key.span,
            ..Default::default()
        },
    );
    let path = store.save_table(graph, &key, &table).expect("save table");
    assert_eq!(path, store.table_path(graph, &key));

    let report = store.load_tables();
    assert_eq!((report.loaded.len(), report.rejected), (1, 0));
    let (got_graph, got_key, got_table) = &report.loaded[0];
    assert_eq!(*got_graph, graph);
    assert_eq!(got_key, &key, "build parameters survive the disk trip");
    assert_eq!(got_table, &table);

    // Tampering with an embedded build parameter breaks the envelope's
    // config-hash check: the file is counted and skipped, never loaded
    // under the wrong key.
    let text = std::fs::read_to_string(&path).expect("read back");
    let tampered = text.replacen("\"capacity\":4", "\"capacity\":5", 1);
    assert_ne!(tampered, text, "payload carries the capacity field");
    std::fs::write(&path, &tampered).expect("rewrite");
    let report = store.load_tables();
    assert_eq!((report.loaded.len(), report.rejected), (0, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Build a directory of `n` same-sized artifacts whose mtimes are all
/// forced to one instant, saved in the order `order` visits the keys.
fn identical_mtime_store(tag: &str, n: u64, order: impl Iterator<Item = u64>) -> ArtifactStore {
    let dir = scratch(tag);
    let store = ArtifactStore::open(&dir).expect("open store");
    let (key, result) = sample();
    let stamp = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
    for i in order {
        assert!(i < n);
        let path = store
            .save_result((key.0, i), &result)
            .expect("save artifact");
        std::fs::File::options()
            .write(true)
            .open(path)
            .expect("reopen artifact")
            .set_modified(stamp)
            .expect("set mtime");
    }
    store
}

#[test]
fn identical_mtime_eviction_breaks_ties_by_name_deterministically() {
    // Two stores built with the same four keys but opposite write
    // orders, every file stamped with one shared mtime: the budget sweep
    // must pick the same victims in both (lexicographically smallest
    // names first), so replicas sweeping a shared directory agree.
    let forward = identical_mtime_store("tie-fwd", 4, 0..4);
    let reverse = identical_mtime_store("tie-rev", 4, (0..4).rev());
    for store in [&forward, &reverse] {
        let evicted = store.enforce_budget(Some(2), None).expect("sweep");
        assert_eq!(evicted, 2);
        let survivors: Vec<u64> = store
            .load_results()
            .loaded
            .iter()
            .map(|((_, cfg), _)| *cfg)
            .collect();
        assert_eq!(
            survivors,
            vec![2, 3],
            "ties must fall to the lexicographically smallest names"
        );
    }
    for store in [forward, reverse] {
        let _ = std::fs::remove_dir_all(store.dir());
    }
}

/// The names of the `cr-`/`pt-` files in `store`'s directory, sorted.
fn artifact_names(store: &ArtifactStore) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(store.dir())
        .expect("list store")
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| (n.starts_with("cr-") || n.starts_with("pt-")) && n.ends_with(".json"))
        .collect();
    names.sort();
    names
}

/// Copy every artifact of `store` into a fresh directory with its mtime,
/// and open a second store there.
fn mirror(store: &ArtifactStore, tag: &str) -> ArtifactStore {
    let dir = scratch(tag);
    std::fs::create_dir_all(&dir).expect("mirror dir");
    for name in artifact_names(store) {
        let from = store.dir().join(&name);
        let to = dir.join(&name);
        std::fs::copy(&from, &to).expect("copy artifact");
        let modified = std::fs::metadata(&from)
            .and_then(|m| m.modified())
            .expect("stat artifact");
        std::fs::File::options()
            .write(true)
            .open(&to)
            .and_then(|f| f.set_modified(modified))
            .expect("copy mtime");
    }
    ArtifactStore::open(dir).expect("open mirror")
}

#[test]
fn indexed_eviction_picks_the_listing_sweeps_survivors() {
    // One store saves a sequence with republished keys and keeps its
    // budget from the index after every save; a mirror of the directory,
    // taken after the save, runs the listing sweep instead. Both
    // must keep exactly the same files at every step, under an entry
    // budget and under a byte budget. Back-to-back saves often share a
    // coarse filesystem mtime, so the name tie-break is exercised too.
    let (key, result) = sample();
    let file_len = encode_result(key, &result).len() + 1;
    for (tag, max_entries, max_bytes, kept) in [
        ("idx-entries", Some(4), None, 4),
        ("idx-bytes", None, Some(3 * file_len), 3),
    ] {
        let store = ArtifactStore::open(scratch(tag)).expect("open store");
        for (step, k) in [3u64, 1, 4, 1, 5, 0, 2, 6, 5, 3, 7, 0]
            .into_iter()
            .enumerate()
        {
            store.save_result((key.0, k), &result).expect("save");
            let listed = mirror(&store, &format!("{tag}-mirror"));
            let by_listing = listed
                .enforce_budget(max_entries, max_bytes)
                .expect("sweep");
            let by_index = store.enforce_budget_indexed(max_entries, max_bytes);
            assert_eq!(by_index, by_listing, "{tag} step {step}: eviction counts");
            assert_eq!(
                artifact_names(&store),
                artifact_names(&listed),
                "{tag} step {step}: survivors"
            );
            let _ = std::fs::remove_dir_all(listed.dir());
        }
        assert_eq!(store.load_results().loaded.len(), kept);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    // Forced identical mtimes, read by the boot listing of a fresh store:
    // the index breaks the tie by name exactly as the sweep does.
    for (tag, order) in [
        ("idx-tie-fwd", vec![0, 1, 2, 3]),
        ("idx-tie-rev", vec![3, 2, 1, 0]),
    ] {
        let written = identical_mtime_store(tag, 4, order.into_iter());
        let reopened = ArtifactStore::open(written.dir()).expect("reopen");
        assert_eq!(reopened.enforce_budget_indexed(Some(2), None), 2);
        let survivors: Vec<u64> = reopened
            .load_results()
            .loaded
            .iter()
            .map(|((_, cfg), _)| *cfg)
            .collect();
        assert_eq!(survivors, vec![2, 3], "{tag}: smallest names fall first");
        let _ = std::fs::remove_dir_all(written.dir());
    }
}

#[test]
fn indexed_eviction_never_deletes_a_republished_file() {
    // Key 0 is the oldest file in this store's index. Another writer (a
    // second store on the same directory, as a second daemon would be)
    // republishes it, so the index's mtime for it is stale. An indexed
    // eviction down to one file must keep it and delete the others.
    let dir = scratch("idx-republish");
    let store = ArtifactStore::open(&dir).expect("open store");
    let (key, result) = sample();
    for k in 0..3u64 {
        store.save_result((key.0, k), &result).expect("save");
    }
    let other = ArtifactStore::open(&dir).expect("second writer");
    let path = other.save_result((key.0, 0), &result).expect("republish");
    let later = std::time::SystemTime::now() + std::time::Duration::from_secs(3600);
    std::fs::File::options()
        .write(true)
        .open(&path)
        .and_then(|f| f.set_modified(later))
        .expect("stamp the republished file");

    assert_eq!(store.enforce_budget_indexed(Some(1), None), 2);
    let report = store.load_results();
    assert_eq!(report.loaded.len(), 1);
    assert_eq!(
        report.loaded[0].0,
        (key.0, 0),
        "the republished key survives"
    );
    assert_eq!(report.loaded[0].1, result);
    // The index re-filed it under its new mtime: now it is an ordinary
    // victim.
    assert_eq!(store.enforce_budget_indexed(Some(0), None), 1);
    assert!(artifact_names(&store).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_sweep_races_concurrent_republication_without_losing_writes() {
    // A writer republishing one key (write-temp → rename) races a
    // sweeper whose budget is zero — the most hostile setting, every
    // sweep wants the file gone. The re-stat-before-delete discipline
    // means neither side ever errors and the store never holds a torn
    // file; after the dust settles a final publish is fully readable.
    let dir = scratch("race");
    let store = ArtifactStore::open(&dir).expect("open store");
    let (key, result) = sample();
    let writer = {
        let store = store.clone();
        let result = result.clone();
        std::thread::spawn(move || {
            for _ in 0..200 {
                store
                    .save_result(key, &result)
                    .expect("publish never fails");
            }
        })
    };
    let sweeper = {
        let store = store.clone();
        std::thread::spawn(move || {
            let mut evicted = 0;
            while !store.dir().join("done").exists() {
                evicted += store
                    .enforce_budget(Some(0), None)
                    .expect("sweep never fails");
            }
            evicted
        })
    };
    writer.join().expect("writer survived");
    std::fs::write(dir.join("done"), b"").expect("stop flag");
    let evicted = sweeper.join().expect("sweeper survived");
    assert!(evicted >= 1, "a zero budget must evict at least once");

    let path = store.save_result(key, &result).expect("final publish");
    let report = store.load_results();
    assert_eq!(
        (report.loaded.len(), report.rejected),
        (1, 0),
        "the republished artifact is intact, never torn"
    );
    assert_eq!(report.loaded[0].1, result);
    assert!(path.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_and_stale_files_are_ignored_or_swept() {
    let dir = scratch("foreign");
    let store = ArtifactStore::open(&dir).expect("open store");
    let (key, result) = sample();
    store.save_result(key, &result).expect("save");
    // Files that are not artifacts at all (no `cr-` name) are ignored,
    // not counted as rejects; a stale temp file from a killed writer is
    // deleted by the sweep.
    std::fs::write(dir.join("README.txt"), b"not an artifact").unwrap();
    let stale = dir.join(format!("cr-{:016x}-{:016x}.tmp-99999", key.0, key.1));
    std::fs::write(&stale, b"partial write").unwrap();
    let report = store.load_results();
    assert_eq!((report.loaded.len(), report.rejected), (1, 0));
    assert!(!stale.exists(), "sweep deletes stale temp files");
    assert!(
        dir.join("README.txt").exists(),
        "unrelated files are left alone"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
