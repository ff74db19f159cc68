//! Crash-safe persistence for the model repository.
//!
//! A diagnosis tool earns its keep *during* incidents, which is exactly
//! when machines lose power and processes get OOM-killed. The knowledge
//! base — causal models accumulated over months of DBA feedback (§6) — must
//! survive a crash at any instant, including mid-write. This module stores
//! the [`ModelRepository`] as a single checksummed, versioned record with
//! the classic write-temp → fsync → atomic-rename discipline:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SHLKSTO1" (format marker + version)
//! 8       8     generation, u64 LE (monotonic save counter)
//! 16      8     payload length, u64 LE
//! 24      8     FNV-1a-64 checksum over generation ‖ length ‖ payload
//! 32      n     payload: the repository as JSON
//! ```
//!
//! The checksum covers the generation and length fields, not just the
//! payload, so a bit-flip anywhere in the record is caught — a flipped
//! generation header would otherwise silently break the "recover to the
//! last good generation" invariant. The file length must equal exactly
//! `32 + payload length`; trailing junk (a duplicated record appended by a
//! confused retry loop) is corruption, not data.
//!
//! Every save rotates the previous good record to `<path>.prev`, so a torn
//! primary is never the only copy. On load, a torn or corrupt primary is
//! quarantined to `<path>.corrupt-<n>` (evidence, never silently deleted)
//! and the store falls back to the last good generation in `.prev`, or to
//! a fresh repository when nothing valid survives. A *missing* primary with
//! a `.prev` present is also a crash signature — `save` has a window
//! between rotating the old primary to `.prev` and renaming the temp file
//! into place where the primary path is briefly empty — so load falls back
//! to the backup there too, rather than silently starting fresh.
//!
//! ## Concurrency contract
//!
//! The store is **single-writer**: at most one process saves to a given
//! path at a time (the CLI and the diagnosis engine both follow this).
//! Temp files are named uniquely per process and save (`<path>.tmp-<pid>-<n>`)
//! so even an unsanctioned concurrent writer cannot tear another writer's
//! in-flight record — the losing writer's generation may be overwritten,
//! and generation numbers may repeat, but the primary always holds one
//! complete, checksummed record. Stale temp files left by a crashed writer
//! are inert and swept on the next save.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::causal::ModelRepository;
use crate::error::SherlockError;

/// Format marker: 7 bytes of magic plus a one-byte version.
const MAGIC: &[u8; 8] = b"SHLKSTO1";
/// Bytes before the JSON payload starts.
const HEADER_LEN: usize = 32;

/// FNV-1a, 64-bit. Not cryptographic — the adversary is a power cut, not an
/// attacker — but it catches truncation, bit rot, and header flips, and it
/// needs no dependency.
fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &byte in *chunk {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Encode one repository snapshot as a v1 record.
fn encode_record(generation: u64, payload: &[u8]) -> Vec<u8> {
    let len = payload.len() as u64;
    let checksum = fnv1a64(&[&generation.to_le_bytes(), &len.to_le_bytes(), payload]);
    let mut record = Vec::with_capacity(HEADER_LEN + payload.len());
    record.extend_from_slice(MAGIC);
    record.extend_from_slice(&generation.to_le_bytes());
    record.extend_from_slice(&len.to_le_bytes());
    record.extend_from_slice(&checksum.to_le_bytes());
    record.extend_from_slice(payload);
    record
}

/// Decode a v1 record. `Err` carries the human-readable corruption reason.
fn decode_record(bytes: &[u8]) -> Result<(u64, ModelRepository), String> {
    let Some((header, payload)) = bytes.split_at_checked(HEADER_LEN) else {
        return Err(format!("truncated header: {} bytes, need {HEADER_LEN}", bytes.len()));
    };
    if header.get(0..8) != Some(MAGIC.as_slice()) {
        return Err("bad magic: not a v1 store record".to_string());
    }
    // `at + 8 <= HEADER_LEN` for every caller; a broken offset reads as 0
    // and fails the checksum below rather than panicking.
    let field = |at: usize| -> u64 {
        header
            .get(at..at + 8)
            .and_then(|s| <[u8; 8]>::try_from(s).ok())
            .map_or(0, u64::from_le_bytes)
    };
    let generation = field(8);
    let payload_len = field(16);
    let stored_checksum = field(24);
    let expected_total = (HEADER_LEN as u64).saturating_add(payload_len);
    if bytes.len() as u64 != expected_total {
        return Err(format!(
            "length mismatch: file has {} bytes, record declares {expected_total}",
            bytes.len()
        ));
    }
    let actual = fnv1a64(&[&generation.to_le_bytes(), &payload_len.to_le_bytes(), payload]);
    if actual != stored_checksum {
        return Err(format!(
            "checksum mismatch: stored {stored_checksum:#018x}, computed {actual:#018x}"
        ));
    }
    parse_repo(payload)
        .map(|repo| (generation, repo))
        .map_err(|e| format!("checksum ok but payload does not parse: {e}"))
}

/// Parse a JSON payload into a repository (the vendored `serde_json` only
/// speaks `&str`, so UTF-8 validation is part of parsing).
fn parse_repo(bytes: &[u8]) -> Result<ModelRepository, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// What a [`ModelStore`] operation did besides its main job: the generation
/// involved, any degradations it worked around, and the evidence it kept.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreReport {
    /// Generation loaded or written. `0` means a fresh repository.
    pub generation: u64,
    /// Human-readable notes about anything abnormal the operation survived.
    pub warnings: Vec<String>,
    /// Corrupt files moved aside as `<path>.corrupt-<n>` for post-mortem.
    pub quarantined: Vec<PathBuf>,
    /// `true` when the primary was unusable and `.prev` supplied the data.
    pub recovered_from_backup: bool,
}

impl StoreReport {
    fn warn(&mut self, message: String) {
        self.warnings.push(message);
    }
}

/// Crash-safe home of the model repository. See the module docs for the
/// on-disk format and recovery ladder.
#[derive(Debug, Clone)]
pub struct ModelStore {
    path: PathBuf,
}

impl ModelStore {
    /// A store rooted at `path`. Nothing is touched until
    /// [`load`](Self::load) or [`save`](Self::save).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        ModelStore { path: path.into() }
    }

    /// The primary file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Where the previous good generation lives.
    pub fn backup_path(&self) -> PathBuf {
        sibling(&self.path, ".prev")
    }

    fn io_err(&self, detail: impl std::fmt::Display) -> SherlockError {
        SherlockError::Store { path: self.path.display().to_string(), detail: detail.to_string() }
    }

    /// Load the repository, recovering from whatever the last crash left
    /// behind. Infallible in the face of corruption — a torn primary is
    /// quarantined and `.prev` (or a fresh repository) takes over, with the
    /// whole story in the [`StoreReport`]. Only real I/O failures (e.g. a
    /// permission error) are `Err`.
    pub fn load(&self) -> Result<(ModelRepository, StoreReport), SherlockError> {
        let mut report = StoreReport::default();
        if !self.path.exists() {
            // save()'s crash window sits between rename(primary -> .prev)
            // and rename(tmp -> primary): the primary is briefly absent
            // while `.prev` holds the last good generation. A missing
            // primary therefore only means "fresh repository" when there is
            // no backup either.
            if let Some((generation, repo)) = self.try_backup(&mut report)? {
                report.warn(format!(
                    "{}: store file missing but backup exists (crash during \
                     save rotation?); recovered generation {generation} from backup",
                    self.path.display()
                ));
                report.generation = generation;
                report.recovered_from_backup = true;
                return Ok((repo, report));
            }
            return Ok((ModelRepository::new(), report));
        }
        let bytes = fs::read(&self.path).map_err(|e| self.io_err(e))?;
        if bytes.is_empty() {
            // A zero-length file is the classic torn-create signature. If a
            // backup exists it has the real data; otherwise this is morally
            // a missing file — fresh repository, but say so.
            if let Some((generation, repo)) = self.try_backup(&mut report)? {
                report.warn(format!(
                    "{}: zero-length store file (torn write?); recovered generation \
                     {generation} from backup",
                    self.path.display()
                ));
                report.generation = generation;
                report.recovered_from_backup = true;
                return Ok((repo, report));
            }
            report.warn(format!(
                "{}: zero-length store file; treating as a fresh repository",
                self.path.display()
            ));
            return Ok((ModelRepository::new(), report));
        }
        match decode_record(&bytes) {
            Ok((generation, repo)) => {
                report.generation = generation;
                Ok((repo, report))
            }
            Err(reason) => self.recover(reason, report),
        }
    }

    /// Persist the repository as the next generation: write a fresh record
    /// to a uniquely named temp file, fsync it, rotate the current good
    /// record to `.prev`, atomically rename the temp into place, and fsync
    /// the directory. There is no instant at which the primary path holds a
    /// partial record.
    ///
    /// Single-writer (see the module docs): concurrent saves from two
    /// processes cannot tear each other's temp file, but may produce
    /// duplicate generation numbers and lose one writer's snapshot.
    pub fn save(&self, repo: &ModelRepository) -> Result<StoreReport, SherlockError> {
        let mut report = StoreReport::default();
        let payload = serde_json::to_string(repo).map_err(|e| self.io_err(e))?.into_bytes();
        let generation = self.next_generation();
        let record = encode_record(generation, &payload);

        self.sweep_stale_tmps();
        let tmp = self.tmp_path();
        let staged =
            (|| {
                let mut file =
                    OpenOptions::new().write(true).create(true).truncate(true).open(&tmp).map_err(
                        |e| self.io_err(format!("cannot create {}: {e}", tmp.display())),
                    )?;
                file.write_all(&record).map_err(|e| self.io_err(e))?;
                file.sync_all().map_err(|e| self.io_err(e))
            })();
        if let Err(e) = staged {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }

        // Rotate: a *good* primary becomes the backup; a corrupt one is
        // quarantined so it cannot clobber a good backup (and stays around
        // as evidence). A zero-length husk is simply overwritten.
        if self.path.exists() {
            let bytes = fs::read(&self.path).map_err(|e| self.io_err(e))?;
            if decode_record(&bytes).is_ok() {
                fs::rename(&self.path, self.backup_path()).map_err(|e| self.io_err(e))?;
            } else if !bytes.is_empty() {
                let grave = self.quarantine(&mut report)?;
                report.warn(format!(
                    "{}: corrupt record quarantined to {} before save",
                    self.path.display(),
                    grave.display()
                ));
            }
        }
        fs::rename(&tmp, &self.path).map_err(|e| self.io_err(e))?;
        self.sync_dir()?;
        report.generation = generation;
        Ok(report)
    }

    /// A temp path no other live save can collide with: pid distinguishes
    /// processes, the counter distinguishes saves within one.
    fn tmp_path(&self) -> PathBuf {
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        sibling(&self.path, &format!(".tmp-{}-{seq}", std::process::id()))
    }

    /// Best-effort removal of `<path>.tmp-*` debris left by a crashed
    /// writer. Under the single-writer contract no live save owns these.
    fn sweep_stale_tmps(&self) {
        let Some(file_name) = self.path.file_name().and_then(|n| n.to_str()) else {
            return;
        };
        let prefix = format!("{file_name}.tmp-");
        let dir = self.path.parent().filter(|p| !p.as_os_str().is_empty());
        let Ok(entries) = fs::read_dir(dir.unwrap_or(Path::new("."))) else {
            return;
        };
        for entry in entries.flatten() {
            if entry.file_name().to_str().is_some_and(|n| n.starts_with(&prefix)) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// Decode `.prev`, quarantining it if it turns out corrupt too.
    fn try_backup(
        &self,
        report: &mut StoreReport,
    ) -> Result<Option<(u64, ModelRepository)>, SherlockError> {
        let backup = self.backup_path();
        if !backup.exists() {
            return Ok(None);
        }
        let bytes = fs::read(&backup).map_err(|e| self.io_err(e))?;
        match decode_record(&bytes) {
            Ok(found) => Ok(Some(found)),
            Err(reason) => {
                let grave = quarantine_file(&backup)
                    .map_err(|e| self.io_err(format!("cannot quarantine backup: {e}")))?;
                report.warn(format!(
                    "{}: backup is corrupt too ({reason}); quarantined to {}",
                    backup.display(),
                    grave.display()
                ));
                report.quarantined.push(grave);
                Ok(None)
            }
        }
    }

    /// The primary is corrupt: quarantine it, fall back to `.prev` or a
    /// fresh repository.
    fn recover(
        &self,
        reason: String,
        mut report: StoreReport,
    ) -> Result<(ModelRepository, StoreReport), SherlockError> {
        let grave = self.quarantine(&mut report)?;
        report.warn(format!(
            "{}: corrupt store ({reason}); quarantined to {}",
            self.path.display(),
            grave.display()
        ));
        if let Some((generation, repo)) = self.try_backup(&mut report)? {
            report.warn(format!("recovered generation {generation} from backup"));
            report.generation = generation;
            report.recovered_from_backup = true;
            return Ok((repo, report));
        }
        report.warn("no usable backup; starting a fresh repository".to_string());
        Ok((ModelRepository::new(), report))
    }

    /// Move the primary aside as `<path>.corrupt-<n>` and record it.
    fn quarantine(&self, report: &mut StoreReport) -> Result<PathBuf, SherlockError> {
        let grave = quarantine_file(&self.path)
            .map_err(|e| self.io_err(format!("cannot quarantine: {e}")))?;
        report.quarantined.push(grave.clone());
        Ok(grave)
    }

    /// One past the highest generation any readable copy carries. A corrupt
    /// store counts as generation 0, so the first save is generation 1.
    fn next_generation(&self) -> u64 {
        let gen_of = |path: &Path| -> u64 {
            fs::read(path).ok().and_then(|b| decode_record(&b).ok()).map_or(0, |(g, _)| g)
        };
        gen_of(&self.path).max(gen_of(&self.backup_path())).saturating_add(1)
    }

    /// Durably record the renames: fsync the containing directory.
    fn sync_dir(&self) -> Result<(), SherlockError> {
        let parent = self.path.parent().filter(|p| !p.as_os_str().is_empty());
        let dir = parent.unwrap_or(Path::new("."));
        // Directory fsync is advisory on some filesystems; failure to open
        // the directory is not worth failing the save over.
        if let Ok(handle) = File::open(dir) {
            handle.sync_all().map_err(|e| self.io_err(e))?;
        }
        Ok(())
    }
}

/// `path` with `suffix` appended to its file name (`models.bin` →
/// `models.bin.prev`).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// Move `path` to the first free `<path>.corrupt-<n>`.
fn quarantine_file(path: &Path) -> std::io::Result<PathBuf> {
    for n in 1..10_000u32 {
        let grave = sibling(path, &format!(".corrupt-{n}"));
        if !grave.exists() {
            fs::rename(path, &grave)?;
            return Ok(grave);
        }
    }
    Err(std::io::Error::other("no free quarantine slot"))
}

/// Faults the crash-torture harness injects into store files — each one a
/// caricature of something real storage does: torn writes (truncation),
/// bit rot, and a retry loop appending a second copy of the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// Truncate the file to its first `k` bytes (a torn write that stopped
    /// mid-record).
    TruncateAt(usize),
    /// Flip one bit of one byte in place.
    FlipBit {
        /// Byte offset to corrupt (clamped to the last byte).
        byte: usize,
        /// Bit index, 0–7.
        bit: u8,
    },
    /// Append a full copy of the file to itself (a duplicated record).
    DuplicateRecord,
    /// Remove the primary file outright — the state `save` leaves behind
    /// when it crashes between rotating the old primary to `.prev` and
    /// renaming the temp file into place.
    DeletePrimary,
}

impl StoreFault {
    /// Inflict this fault on `path` in place.
    #[allow(
        clippy::indexing_slicing,
        reason = "FlipBit clamps its byte to len - 1 after the emptiness check"
    )]
    pub fn apply(&self, path: &Path) -> std::io::Result<()> {
        let mut bytes = fs::read(path)?;
        match *self {
            StoreFault::DeletePrimary => return fs::remove_file(path),
            StoreFault::TruncateAt(k) => bytes.truncate(k),
            StoreFault::FlipBit { byte, bit } => {
                if bytes.is_empty() {
                    return Ok(());
                }
                let at = byte.min(bytes.len() - 1);
                bytes[at] ^= 1 << (bit % 8);
            }
            StoreFault::DuplicateRecord => {
                let copy = bytes.clone();
                bytes.extend_from_slice(&copy);
            }
        }
        // Faults are injected while nothing is mid-save, so a plain
        // truncating rewrite is fine here — this is the *injector*, not the
        // store. The fault injector writes
        // deliberately unsafely.
        let mut file = OpenOptions::new().write(true).truncate(true).open(path)?;
        file.write_all(&bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::CausalModel;

    fn repo_with(causes: &[&str]) -> ModelRepository {
        let mut repo = ModelRepository::new();
        for cause in causes {
            repo.add(CausalModel {
                cause: (*cause).to_string(),
                predicates: vec![Predicate::gt("cpu", 80.0)],
                merged_from: 1,
            });
        }
        repo
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sherlock-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_preserves_models_and_bumps_generations() {
        let dir = tempdir("roundtrip");
        let store = ModelStore::new(dir.join("models.bin"));
        let (fresh, report) = store.load().unwrap();
        assert!(fresh.models().is_empty());
        assert_eq!(report, StoreReport::default());

        let repo = repo_with(&["lock contention"]);
        assert_eq!(store.save(&repo).unwrap().generation, 1);
        let (loaded, report) = store.load().unwrap();
        assert_eq!(loaded.models().len(), 1);
        assert_eq!(report.generation, 1);
        assert!(report.warnings.is_empty());

        let repo2 = repo_with(&["lock contention", "io saturation"]);
        assert_eq!(store.save(&repo2).unwrap().generation, 2);
        assert!(store.backup_path().exists(), "previous generation rotated to .prev");
        let (loaded, report) = store.load().unwrap();
        assert_eq!(loaded.models().len(), 2);
        assert_eq!(report.generation, 2);
    }

    #[test]
    fn truncation_at_every_byte_recovers_the_previous_generation() {
        let dir = tempdir("truncate");
        let store = ModelStore::new(dir.join("models.bin"));
        store.save(&repo_with(&["gen one"])).unwrap();
        store.save(&repo_with(&["gen one", "gen two"])).unwrap();
        let full = fs::read(store.path()).unwrap();

        for k in 0..full.len() {
            fs::write(store.path(), &full[..k]).unwrap();
            let (repo, report) = store.load().unwrap();
            if k == 0 {
                // Zero-length: recovered straight from backup, nothing to
                // quarantine.
                assert!(report.recovered_from_backup, "k={k}");
            } else {
                assert!(report.recovered_from_backup, "k={k}: {:?}", report.warnings);
                assert_eq!(report.quarantined.len(), 1, "k={k}");
                fs::remove_file(&report.quarantined[0]).unwrap();
            }
            assert_eq!(report.generation, 1, "k={k}");
            assert_eq!(repo.models().len(), 1, "k={k}");
            // Put the backup scheme back for the next truncation point.
            fs::write(store.path(), &full).unwrap();
        }
    }

    #[test]
    fn bit_flips_anywhere_are_detected_and_quarantined() {
        let dir = tempdir("bitflip");
        let store = ModelStore::new(dir.join("models.bin"));
        store.save(&repo_with(&["solid"])).unwrap();
        store.save(&repo_with(&["solid", "new"])).unwrap();
        let full = fs::read(store.path()).unwrap();

        for byte in [0, 9, 17, 25, HEADER_LEN, full.len() - 1] {
            StoreFault::FlipBit { byte, bit: 3 }.apply(store.path()).unwrap();
            let (repo, report) = store.load().unwrap();
            assert!(report.recovered_from_backup, "byte {byte}: {:?}", report.warnings);
            assert_eq!(repo.models().len(), 1, "byte {byte}");
            for grave in &report.quarantined {
                fs::remove_file(grave).unwrap();
            }
            fs::write(store.path(), &full).unwrap();
        }
    }

    #[test]
    fn duplicate_record_is_length_checked_corruption() {
        let dir = tempdir("duplicate");
        let store = ModelStore::new(dir.join("models.bin"));
        store.save(&repo_with(&["only"])).unwrap();
        StoreFault::DuplicateRecord.apply(store.path()).unwrap();
        let (repo, report) = store.load().unwrap();
        // No backup yet (single save): falls back to fresh, with evidence.
        assert!(repo.models().is_empty());
        assert!(!report.recovered_from_backup);
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.warnings.iter().any(|w| w.contains("length mismatch")), "{report:?}");
    }

    #[test]
    fn missing_primary_with_backup_recovers_the_backup_generation() {
        // Simulate save()'s crash window exactly: after the old primary is
        // rotated to .prev but before the temp file is renamed into place,
        // the primary path does not exist and .prev holds the last good
        // generation. The rename below *is* that intermediate state.
        let dir = tempdir("crashwindow");
        let store = ModelStore::new(dir.join("models.bin"));
        store.save(&repo_with(&["gen one"])).unwrap();
        store.save(&repo_with(&["gen one", "gen two"])).unwrap();
        fs::rename(store.path(), store.backup_path()).unwrap();

        let (repo, report) = store.load().unwrap();
        assert!(report.recovered_from_backup, "{report:?}");
        assert_eq!(report.generation, 2);
        assert_eq!(repo.models().len(), 2);
        assert!(report.warnings.iter().any(|w| w.contains("missing")), "{report:?}");
        assert!(report.quarantined.is_empty(), "nothing corrupt to quarantine");

        // The next save continues the generation sequence instead of
        // restarting, so the recovered backup is never rotated over by a
        // fresh generation-1 record.
        assert_eq!(store.save(&repo).unwrap().generation, 3);
        let (again, report) = store.load().unwrap();
        assert_eq!(again.models().len(), 2);
        assert!(!report.recovered_from_backup);
    }

    #[test]
    fn primary_deleted_between_saves_recovers_the_rotated_backup() {
        // The REVIEW scenario: delete the primary between two saves and
        // make sure the load does not silently hand back a fresh repository
        // while a good .prev sits on disk.
        let dir = tempdir("delprimary");
        let store = ModelStore::new(dir.join("models.bin"));
        store.save(&repo_with(&["gen one"])).unwrap();
        store.save(&repo_with(&["gen one", "gen two"])).unwrap();
        StoreFault::DeletePrimary.apply(store.path()).unwrap();

        // .prev holds generation 1 (rotated by the second save).
        let (repo, report) = store.load().unwrap();
        assert!(report.recovered_from_backup, "{report:?}");
        assert_eq!(report.generation, 1);
        assert_eq!(repo.models().len(), 1);
    }

    #[test]
    fn zero_length_with_no_backup_is_fresh_with_warning() {
        let dir = tempdir("zerolen");
        let store = ModelStore::new(dir.join("models.bin"));
        fs::write(store.path(), b"").unwrap();
        let (repo, report) = store.load().unwrap();
        assert!(repo.models().is_empty());
        assert!(report.warnings.iter().any(|w| w.contains("zero-length")), "{report:?}");
        assert!(report.quarantined.is_empty(), "nothing worth keeping in an empty file");
    }

    #[test]
    fn raw_json_primary_is_quarantined_like_any_undecodable_record() {
        let raw = serde_json::to_string_pretty(&repo_with(&["old faithful"])).unwrap();

        // With a good `.prev`, load falls back to it.
        let dir = tempdir("rawjson");
        let store = ModelStore::new(dir.join("models.bin"));
        store.save(&repo_with(&["gen one"])).unwrap();
        store.save(&repo_with(&["gen one", "gen two"])).unwrap();
        fs::write(store.path(), &raw).unwrap();
        let (repo, report) = store.load().unwrap();
        assert!(report.recovered_from_backup, "{report:?}");
        assert_eq!((report.generation, repo.models().len()), (1, 1));
        assert_eq!(report.quarantined, [sibling(store.path(), ".corrupt-1")]);
        assert_eq!(fs::read_to_string(&report.quarantined[0]).unwrap(), raw, "kept as evidence");

        // With nothing else on disk, load starts fresh and says so.
        let dir = tempdir("rawjson-alone");
        let store = ModelStore::new(dir.join("models.json"));
        fs::write(store.path(), &raw).unwrap();
        let (repo, report) = store.load().unwrap();
        assert!(repo.models().is_empty());
        assert!(!report.recovered_from_backup);
        assert!(report.warnings.iter().any(|w| w.contains("bad magic")), "{report:?}");
        assert!(report.warnings.iter().any(|w| w.contains("fresh repository")), "{report:?}");
        assert_eq!(fs::read_to_string(&report.quarantined[0]).unwrap(), raw);
    }

    #[test]
    fn save_over_corrupt_primary_quarantines_without_touching_good_backup() {
        let dir = tempdir("saveover");
        let store = ModelStore::new(dir.join("models.bin"));
        store.save(&repo_with(&["first"])).unwrap();
        store.save(&repo_with(&["first", "second"])).unwrap();
        // Corrupt the primary; .prev still holds generation 1.
        StoreFault::TruncateAt(10).apply(store.path()).unwrap();
        let report = store.save(&repo_with(&["first", "second", "third"])).unwrap();
        assert_eq!(report.quarantined.len(), 1, "{report:?}");
        // The good backup (generation 1) must not have been clobbered by
        // the corrupt husk.
        let backup = fs::read(store.backup_path()).unwrap();
        let (generation, repo) = decode_record(&backup).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(repo.models().len(), 1);
        // And the new save is intact.
        let (now, load_report) = store.load().unwrap();
        assert_eq!(now.models().len(), 3);
        assert!(!load_report.recovered_from_backup);
    }

    #[test]
    fn generations_survive_corruption_monotonically() {
        let dir = tempdir("monotonic");
        let store = ModelStore::new(dir.join("models.bin"));
        store.save(&repo_with(&["a"])).unwrap(); // gen 1
        store.save(&repo_with(&["a", "b"])).unwrap(); // gen 2
        StoreFault::FlipBit { byte: 40, bit: 1 }.apply(store.path()).unwrap();
        // Primary unreadable -> next generation still counts past the
        // backup's generation 1.
        let report = store.save(&repo_with(&["c"])).unwrap();
        assert_eq!(report.generation, 2, "max(readable generations) + 1");
    }

    #[test]
    fn checksum_covers_the_generation_field() {
        // Flip a bit inside the generation header of a valid record: the
        // record must decode as corrupt, not as a different generation.
        let payload = serde_json::to_string(&repo_with(&["x"])).unwrap().into_bytes();
        let mut record = encode_record(7, &payload);
        record[9] ^= 0x10;
        let err = decode_record(&record).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }
}
