//! Property tests for the crash-safe model store: for an *arbitrary*
//! repository and an *arbitrary* fault position, a corrupted primary must
//! never crash the loader, never surface garbage, and always recover the
//! previous good generation when one exists. The same holds when the
//! primary holds arbitrary bytes.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dbsherlock_core::{CausalModel, ModelRepository, ModelStore, Predicate, StoreFault};
use proptest::prelude::*;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A scratch directory unique to this proptest case (cases run in sequence,
/// but the suite runs in parallel with other test binaries).
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sherlock-store-props-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn repo_from(causes: &[(String, f64)]) -> ModelRepository {
    let mut repo = ModelRepository::new();
    for (cause, threshold) in causes {
        repo.add(CausalModel {
            cause: cause.clone(),
            predicates: vec![Predicate::gt("cpu", *threshold)],
            merged_from: 1,
        });
    }
    repo
}

/// Structural fingerprint for equality (the repository does not implement
/// `PartialEq`; its JSON form is canonical enough).
fn fingerprint(repo: &ModelRepository) -> String {
    serde_json::to_string(repo).unwrap()
}

/// The repository a store record holds, if it is one: the layout, length
/// and FNV-1a-64 checksum of the store's module docs, re-derived here so
/// the loader is checked against the format rather than against itself.
fn verified_record(bytes: &[u8]) -> Option<(u64, ModelRepository)> {
    let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    if bytes.len() < 32 || &bytes[..8] != b"SHLKSTO1" {
        return None;
    }
    let (generation, len, checksum) = (field(8), field(16), field(24));
    if bytes.len() as u64 != 32 + len {
        return None;
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes[8..24].iter().chain(&bytes[32..]) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let payload = std::str::from_utf8(&bytes[32..]).ok()?;
    let repo = serde_json::from_str(payload).ok()?;
    (hash == checksum).then_some((generation, repo))
}

/// The primary file's bytes, from a byte tape: raw bytes, bytes after a
/// `{`, a real record's JSON payload alone (a raw-JSON repository), bytes
/// after the record magic, a real record intact, or a real record with
/// `(offset, xor)` edits read off the tape (a zero xor leaves its byte as
/// it was).
fn primary_bytes(mode: u8, tape: &[u8], record: &[u8]) -> Vec<u8> {
    match mode {
        0 => tape.to_vec(),
        1 => [b"{".as_slice(), tape].concat(),
        2 => record[32..].to_vec(),
        3 => [b"SHLKSTO1".as_slice(), tape].concat(),
        4 => record.to_vec(),
        _ => {
            let mut bytes = record.to_vec();
            for edit in tape.chunks_exact(2) {
                let at = usize::from(edit[0]) * 7 % bytes.len();
                bytes[at] ^= edit[1];
            }
            bytes
        }
    }
}

proptest! {
    /// Arbitrary repository -> save -> load is the identity.
    #[test]
    fn round_trip_is_identity(
        causes in proptest::collection::vec(("[a-z]{1,12}", 0.0_f64..100.0), 1..6),
    ) {
        let dir = scratch_dir();
        let store = ModelStore::new(dir.join("models.bin"));
        let repo = repo_from(&causes);
        store.save(&repo).unwrap();
        let (loaded, report) = store.load().unwrap();
        prop_assert_eq!(fingerprint(&loaded), fingerprint(&repo));
        prop_assert_eq!(report.generation, 1);
        prop_assert!(report.warnings.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Arbitrary repository -> two generations -> truncate the primary at
    /// an arbitrary byte -> load recovers the prior generation, bit for
    /// bit, with the torn file quarantined (or, at zero length, recognised
    /// as a torn create).
    #[test]
    fn truncation_at_any_byte_recovers_the_prior_generation(
        causes in proptest::collection::vec(("[a-z]{1,12}", 0.0_f64..100.0), 1..6),
        extra_cause in "[A-Z]{4,10}",
        cut_frac in 0.0_f64..1.0,
    ) {
        let dir = scratch_dir();
        let store = ModelStore::new(dir.join("models.bin"));
        let prior = repo_from(&causes);
        store.save(&prior).unwrap();
        let mut newer = causes.clone();
        newer.push((extra_cause, 7.0));
        store.save(&repo_from(&newer)).unwrap();

        let full = fs::read(store.path()).unwrap();
        // Always a *proper* truncation: at least one byte missing.
        let cut = ((cut_frac * full.len() as f64) as usize).min(full.len() - 1);
        StoreFault::TruncateAt(cut).apply(store.path()).unwrap();

        let (recovered, report) = store.load().unwrap();
        prop_assert!(report.recovered_from_backup, "cut={} report={:?}", cut, report);
        prop_assert_eq!(report.generation, 1);
        prop_assert_eq!(fingerprint(&recovered), fingerprint(&prior));
        if cut == 0 {
            prop_assert!(report.quarantined.is_empty());
        } else {
            prop_assert_eq!(report.quarantined.len(), 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Same contract for a bit flip at an arbitrary position.
    #[test]
    fn bit_flip_at_any_byte_recovers_the_prior_generation(
        causes in proptest::collection::vec(("[a-z]{1,12}", 0.0_f64..100.0), 1..6),
        byte_frac in 0.0_f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = scratch_dir();
        let store = ModelStore::new(dir.join("models.bin"));
        let prior = repo_from(&causes);
        store.save(&prior).unwrap();
        let mut newer = causes.clone();
        newer.push(("flipped".to_string(), 7.0));
        store.save(&repo_from(&newer)).unwrap();

        let full = fs::read(store.path()).unwrap();
        let byte = ((byte_frac * full.len() as f64) as usize).min(full.len() - 1);
        StoreFault::FlipBit { byte, bit }.apply(store.path()).unwrap();

        let (recovered, report) = store.load().unwrap();
        prop_assert!(report.recovered_from_backup, "byte={} report={:?}", byte, report);
        prop_assert_eq!(fingerprint(&recovered), fingerprint(&prior));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Arbitrary bytes in the primary: `load` never panics and never
    /// deletes them. It returns their repository only when they are a
    /// record whose checksum verifies; otherwise the bytes are quarantined
    /// as `.corrupt-<n>` (or, when empty, left in place) and the `.prev`
    /// generation or a fresh repository, with a warning, takes over.
    #[test]
    fn load_of_arbitrary_bytes_recovers_or_verifies(
        mode in 0u8..6,
        tape in proptest::collection::vec(0u8..=255, 0..64),
        has_prev in any::<bool>(),
    ) {
        let dir = scratch_dir();
        let source = ModelStore::new(dir.join("source.bin"));
        source.save(&repo_from(&[("recorded".to_string(), 9.0)])).unwrap();
        let record = fs::read(source.path()).unwrap();

        let store = ModelStore::new(dir.join("models.bin"));
        let prior = repo_from(&[("prior".to_string(), 3.0)]);
        if has_prev {
            store.save(&prior).unwrap();
            store.save(&repo_from(&[("rotated".to_string(), 5.0)])).unwrap();
        }
        let bytes = primary_bytes(mode, &tape, &record);
        fs::write(store.path(), &bytes).unwrap();

        let (loaded, report) = store.load().unwrap();
        if let Some((generation, repo)) = verified_record(&bytes) {
            prop_assert_eq!(fingerprint(&loaded), fingerprint(&repo));
            prop_assert_eq!(report.generation, generation);
            prop_assert!(!report.recovered_from_backup && report.quarantined.is_empty());
            prop_assert_eq!(fs::read(store.path()).unwrap(), bytes);
        } else {
            if bytes.is_empty() {
                prop_assert!(report.quarantined.is_empty());
                prop_assert!(fs::read(store.path()).unwrap().is_empty());
            } else {
                prop_assert_eq!(report.quarantined.len(), 1, "{:?}", report);
                prop_assert!(report.quarantined[0].to_string_lossy().contains(".corrupt-"));
                prop_assert_eq!(fs::read(&report.quarantined[0]).unwrap(), bytes);
                prop_assert!(!store.path().exists());
            }
            prop_assert!(!report.warnings.is_empty());
            prop_assert_eq!(report.recovered_from_backup, has_prev);
            if has_prev {
                prop_assert_eq!(report.generation, 1);
                prop_assert_eq!(fingerprint(&loaded), fingerprint(&prior));
            } else {
                prop_assert_eq!(report.generation, 0);
                prop_assert!(loaded.models().is_empty());
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
