//! Crash-safe artifact slots.
//!
//! A *slot* is a directory-resident, generation-numbered home for one
//! serialized artifact (a stats snapshot, a deployed model). Writes are
//! torn-write-proof and readers always land on a consistent generation:
//!
//! ```text
//! dir/
//!   name.gen-1          full artifact bytes, generation 1
//!   name.gen-2          full artifact bytes, generation 2 (current)
//!   name.manifest       tiny pointer record: magic, version, gen, CRC
//! ```
//!
//! Every file — generation payloads and the manifest alike — is written via
//! [`write_atomic`]: bytes go to a `.tmp` sibling, are fsynced, renamed over
//! the final path, and the directory is fsynced so the rename itself
//! survives power loss. A crash at any byte therefore leaves either the old
//! file or the new file, never a prefix of the new one.
//!
//! Recovery ([`ArtifactSlot::load_with`]) belts-and-suspenders that
//! guarantee: it validates the manifest's generation with the caller's
//! decoder (which checks the artifact's own CRC trailer), and on *any*
//! failure — torn bytes slipped in by a non-atomic writer, a stray manifest,
//! bit rot — walks older generations newest-first until one decodes, so a
//! bad deploy rolls back to the last good artifact instead of taking
//! serving down.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::codec;

const MANIFEST_MAGIC: &[u8; 8] = b"MBMANIF\0";
const MANIFEST_VERSION: u32 = 1;

/// Errors from slot IO and recovery.
#[derive(Debug)]
pub enum SlotError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// No generation in the slot passed validation.
    NoGoodGeneration {
        /// Slot directory that was searched.
        dir: PathBuf,
        /// Artifact name within the slot.
        name: String,
        /// Number of generations that were tried (0 = slot is empty).
        tried: usize,
        /// Rendering of the newest generation's validation failure, if any.
        last_error: Option<String>,
    },
}

impl std::fmt::Display for SlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotError::Io(e) => write!(f, "slot io error: {e}"),
            SlotError::NoGoodGeneration {
                dir,
                name,
                tried,
                last_error,
            } => {
                write!(
                    f,
                    "no good generation of {name:?} in {} ({tried} tried",
                    dir.display()
                )?;
                if let Some(e) = last_error {
                    write!(f, "; newest failed: {e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for SlotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SlotError::Io(e) => Some(e),
            SlotError::NoGoodGeneration { .. } => None,
        }
    }
}

impl From<std::io::Error> for SlotError {
    fn from(e: std::io::Error) -> Self {
        SlotError::Io(e)
    }
}

/// Write `bytes` to `path` crash-safely: temp file in the same directory,
/// `fsync`, atomic rename over `path`, then `fsync` of the directory so the
/// rename is durable. A crash at any point leaves either the previous file
/// or the complete new one — never a torn prefix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), std::io::Error> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Some(dir) = dir {
        // Directory fsync makes the rename itself durable. Failure here is
        // reported: the data is safe but its visibility after power loss
        // is not guaranteed.
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// The result of a successful slot load.
#[derive(Debug)]
pub struct SlotLoad<T> {
    /// The decoded artifact.
    pub value: T,
    /// Generation number the artifact was read from.
    pub generation: u64,
    /// True when a newer generation existed but failed validation, i.e.
    /// the loader rolled back past a torn or corrupt write.
    pub rolled_back: bool,
}

/// A generation-numbered, crash-safe home for one artifact.
#[derive(Debug, Clone)]
pub struct ArtifactSlot {
    dir: PathBuf,
    name: String,
}

impl ArtifactSlot {
    /// A slot for artifact `name` inside `dir` (created on first commit).
    pub fn new(dir: impl Into<PathBuf>, name: impl Into<String>) -> Self {
        Self {
            dir: dir.into(),
            name: name.into(),
        }
    }

    /// The slot directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of generation `gen`'s payload file.
    pub fn generation_path(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("{}.gen-{gen}", self.name))
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(format!("{}.manifest", self.name))
    }

    /// All generation numbers present on disk, ascending.
    pub fn generations(&self) -> Result<Vec<u64>, std::io::Error> {
        let mut gens = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(gens),
            Err(e) => return Err(e),
        };
        let prefix = format!("{}.gen-", self.name);
        for entry in entries {
            let entry = entry?;
            if let Some(rest) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.strip_prefix(&prefix))
            {
                // Ignore anything that is not a pure generation number —
                // in particular `.tmp` leftovers from a crashed writer.
                if let Ok(g) = rest.parse::<u64>() {
                    gens.push(g);
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Generation the manifest points at, if the manifest is present and
    /// intact (it carries its own CRC; a torn manifest reads as `None` and
    /// recovery falls back to scanning generation files).
    pub fn manifest_generation(&self) -> Option<u64> {
        let bytes = std::fs::read(self.manifest_path()).ok()?;
        decode_manifest(&bytes)
    }

    /// Commit `bytes` as the next generation: write the payload atomically,
    /// then atomically repoint the manifest. Returns the new generation
    /// number. A crash between the two steps leaves the manifest on the
    /// previous generation, which is exactly what readers then serve.
    pub fn commit(&self, bytes: &[u8]) -> Result<u64, SlotError> {
        std::fs::create_dir_all(&self.dir)?;
        let next = self
            .generations()?
            .last()
            .copied()
            .unwrap_or(0)
            .saturating_add(1);
        write_atomic(&self.generation_path(next), bytes)?;
        write_atomic(&self.manifest_path(), &encode_manifest(next))?;
        Ok(next)
    }

    /// Load the newest generation that passes `validate`, rolling back past
    /// corrupt or torn generations. The manifest generation is tried first;
    /// any generation files newer than it (a crash after payload write but
    /// before manifest repoint) are tried even earlier, newest first.
    pub fn load_with<T, E, F>(&self, validate: F) -> Result<SlotLoad<T>, SlotError>
    where
        E: std::fmt::Display,
        F: Fn(&[u8]) -> Result<T, E>,
    {
        let mut candidates = self.generations()?;
        candidates.reverse(); // newest first
        let mut tried = 0usize;
        let mut last_error: Option<String> = None;
        let newest = candidates.first().copied();
        for gen in candidates {
            tried += 1;
            let bytes = match std::fs::read(self.generation_path(gen)) {
                Ok(b) => b,
                Err(e) => {
                    last_error.get_or_insert_with(|| e.to_string());
                    continue;
                }
            };
            match validate(&bytes) {
                Ok(value) => {
                    return Ok(SlotLoad {
                        value,
                        generation: gen,
                        rolled_back: newest != Some(gen),
                    });
                }
                Err(e) => {
                    last_error.get_or_insert_with(|| e.to_string());
                }
            }
        }
        Err(SlotError::NoGoodGeneration {
            dir: self.dir.clone(),
            name: self.name.clone(),
            tried,
            last_error,
        })
    }

    /// Delete all but the newest `keep` generations (the manifest is left
    /// alone; it never points at a deleted generation because deletion is
    /// oldest-first). Returns how many files were removed.
    pub fn prune(&self, keep: usize) -> Result<usize, SlotError> {
        let gens = self.generations()?;
        let mut removed = 0;
        if gens.len() > keep {
            for &gen in &gens[..gens.len() - keep] {
                std::fs::remove_file(self.generation_path(gen))?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

fn encode_manifest(gen: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    codec::put_varint(&mut payload, gen);
    codec::frame(MANIFEST_MAGIC, MANIFEST_VERSION, &payload)
}

fn decode_manifest(bytes: &[u8]) -> Option<u64> {
    let mut buf = codec::unframe(MANIFEST_MAGIC, MANIFEST_VERSION, bytes).ok()?;
    codec::get_varint(&mut buf).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mbslot-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn ok_if_ascii(bytes: &[u8]) -> Result<String, String> {
        if bytes.is_empty() || !bytes.is_ascii() {
            return Err("not ascii".into());
        }
        String::from_utf8(bytes.to_vec()).map_err(|e| e.to_string())
    }

    #[test]
    fn commit_and_load_round_trip() {
        let dir = tmp_dir("roundtrip");
        let slot = ArtifactSlot::new(&dir, "model.mbm");
        assert_eq!(slot.commit(b"alpha").unwrap(), 1);
        assert_eq!(slot.commit(b"beta").unwrap(), 2);
        let load = slot.load_with(ok_if_ascii).unwrap();
        assert_eq!(load.value, "beta");
        assert_eq!(load.generation, 2);
        assert!(!load.rolled_back);
        assert_eq!(slot.manifest_generation(), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_rolls_back() {
        let dir = tmp_dir("rollback");
        let slot = ArtifactSlot::new(&dir, "model.mbm");
        slot.commit(b"good").unwrap();
        slot.commit(b"also good").unwrap();
        // Simulate a torn write from a non-atomic writer: generation 3
        // exists but fails validation.
        std::fs::write(slot.generation_path(3), [0xFF, 0x00]).unwrap();
        let load = slot.load_with(ok_if_ascii).unwrap();
        assert_eq!(load.value, "also good");
        assert_eq!(load.generation, 2);
        assert!(load.rolled_back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_slot_is_typed_error() {
        let dir = tmp_dir("empty");
        let slot = ArtifactSlot::new(&dir, "model.mbm");
        match slot.load_with(ok_if_ascii) {
            Err(SlotError::NoGoodGeneration { tried: 0, .. }) => {}
            other => panic!("expected NoGoodGeneration, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_generations_corrupt_reports_newest_error() {
        let dir = tmp_dir("allbad");
        let slot = ArtifactSlot::new(&dir, "m");
        slot.commit(&[0xFF]).unwrap();
        slot.commit(&[0xFE]).unwrap();
        match slot.load_with(ok_if_ascii) {
            Err(SlotError::NoGoodGeneration {
                tried: 2,
                last_error: Some(e),
                ..
            }) => assert!(e.contains("not ascii")),
            other => panic!("expected NoGoodGeneration, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stray_tmp_files_are_ignored() {
        let dir = tmp_dir("straytmp");
        let slot = ArtifactSlot::new(&dir, "model.mbm");
        slot.commit(b"good").unwrap();
        // Crash before rename: a .tmp sibling is left behind.
        std::fs::write(dir.join("model.mbm.gen-2.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("model.mbm.gen-x"), b"junk").unwrap();
        assert_eq!(slot.generations().unwrap(), vec![1]);
        let load = slot.load_with(ok_if_ascii).unwrap();
        assert_eq!(load.value, "good");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_manifest_still_loads_newest() {
        let dir = tmp_dir("tornmanifest");
        let slot = ArtifactSlot::new(&dir, "s");
        slot.commit(b"one").unwrap();
        slot.commit(b"two").unwrap();
        std::fs::write(dir.join("s.manifest"), b"garbage").unwrap();
        assert_eq!(slot.manifest_generation(), None);
        let load = slot.load_with(ok_if_ascii).unwrap();
        assert_eq!(load.value, "two");
        assert_eq!(load.generation, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = tmp_dir("prune");
        let slot = ArtifactSlot::new(&dir, "m");
        for i in 0..5 {
            slot.commit(format!("v{i}").as_bytes()).unwrap();
        }
        assert_eq!(slot.prune(2).unwrap(), 3);
        assert_eq!(slot.generations().unwrap(), vec![4, 5]);
        let load = slot.load_with(ok_if_ascii).unwrap();
        assert_eq!(load.value, "v4");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_replaces_whole_file() {
        let dir = tmp_dir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        write_atomic(&path, b"first version, long").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!dir.join("f.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_round_trip() {
        for gen in [0u64, 1, 127, 128, u64::MAX] {
            assert_eq!(decode_manifest(&encode_manifest(gen)), Some(gen));
        }
        assert_eq!(decode_manifest(b""), None);
        assert_eq!(decode_manifest(b"MBMANIF\0junkjunk"), None);
        let mut bytes = encode_manifest(7);
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert_eq!(decode_manifest(&bytes), None);
    }
}
