//! Disk-spilled design snapshots: the CSR structure of a sampled design
//! serialized next to the WAL, so recovery can reload warm designs
//! instead of resampling them.
//!
//! Resampling is always a correct fallback — designs are pure functions
//! of their [`DesignKey`] — so a snapshot is purely an accelerator, and
//! the safety bar is asymmetric: a *missing or corrupt* snapshot costs
//! one cold resample, but a *wrong* snapshot would silently change
//! every decode routed through it. The format therefore carries a
//! version header and a whole-file checksum, and the loader re-derives
//! every structural invariant (offset monotonicity, entry bounds, row
//! ordering) before handing the design back. Anything suspicious is
//! rejected as [`SnapshotError`] and the caller resamples.
//!
//! One file per design, named `design-<16-hex key digest>.snap`:
//!
//! ```text
//! offset        size        field
//! 0             1           magic    (0xD7)
//! 1             1           version  (1)
//! 2             1           design kind code (index into DesignKind::ALL)
//! 3             1           reserved (0)
//! 4             4           c_milli, u32 LE (seed provenance: density)
//! 8             8           n, u64 LE
//! 16            8           m, u64 LE
//! 24            8           seed, u64 LE (seed provenance)
//! 32            8           gamma, u64 LE
//! 40            8           nnz, u64 LE
//! 48            8(m+1)      q_offsets, u64 LE each
//! …             4·nnz       entries, u32 LE each
//! …             4·nnz       mults, u32 LE each
//! end-8         8           checksum, u64 LE over all preceding bytes
//! ```
//!
//! Writes go to a `.tmp` sibling and are renamed into place, so a crash
//! mid-spill leaves at worst a stale temp file, never a half-written
//! `.snap` under the real name.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pooled_design::{
    AnyDesign, BernoulliDesign, CsrDesign, DesignKind, EntryRegularDesign, NoReplaceDesign,
    PoolingDesign,
};

use crate::cache::DesignKey;
use crate::codec::{
    checksum, design_code, design_from_code, get_u32, get_u64, get_usize, put_u32, put_u64,
    CHECKSUM_LEN,
};
use crate::job::Digest;

/// First byte of every snapshot file.
pub const SNAP_MAGIC: u8 = 0xD7;
/// Snapshot format version this build writes and accepts.
pub const SNAP_VERSION: u8 = 1;

const FIXED_HEADER_LEN: usize = 48;

/// Why a snapshot was rejected (the caller resamples from the key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// File shorter than its fixed header, or shorter/longer than the
    /// size its own dimensions imply.
    BadSize,
    /// First byte is not [`SNAP_MAGIC`].
    BadMagic(u8),
    /// Unsupported format version.
    BadVersion(u8),
    /// Unknown design-kind code.
    BadKind(u8),
    /// Stored checksum does not match the file bytes.
    BadChecksum,
    /// A structural invariant failed: non-monotone offsets, an
    /// out-of-range entry, an unsorted row, or a zero multiplicity.
    BadStructure,
    /// The stored key fields do not match the key the caller asked for.
    KeyMismatch,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadSize => write!(f, "snapshot size contradicts its dimensions"),
            SnapshotError::BadMagic(b) => write!(f, "bad snapshot magic 0x{b:02X}"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadKind(k) => write!(f, "unknown design kind code {k}"),
            SnapshotError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::BadStructure => write!(f, "snapshot violates CSR invariants"),
            SnapshotError::KeyMismatch => write!(f, "snapshot key fields disagree with file name"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Snapshot file name for `key` (a digest keeps the name short and
/// filesystem-safe regardless of the key's numeric ranges).
pub fn snapshot_file_name(key: &DesignKey) -> String {
    let mut d = Digest::new();
    d.push(key.n as u64);
    d.push(key.m as u64);
    d.push(key.seed);
    d.push(key.c_milli as u64);
    d.push(design_code(key.kind) as u64);
    format!("design-{:016x}.snap", d.finish())
}

fn snapshot_path(dir: &Path, key: &DesignKey) -> PathBuf {
    dir.join(snapshot_file_name(key))
}

/// Serialize `design` under `key`'s name in `dir` (write-temp-rename).
pub fn spill_design(dir: &Path, key: &DesignKey, design: &AnyDesign) -> io::Result<()> {
    let csr = design.csr();
    let (n, m, gamma, nnz) = (csr.n(), csr.m(), csr.gamma(), csr.nnz());
    let mut buf = Vec::with_capacity(FIXED_HEADER_LEN + 8 * (m + 1) + 8 * nnz + CHECKSUM_LEN);
    buf.push(SNAP_MAGIC);
    buf.push(SNAP_VERSION);
    buf.push(design_code(key.kind));
    buf.push(0); // reserved
    put_u32(&mut buf, key.c_milli);
    put_u64(&mut buf, n as u64);
    put_u64(&mut buf, m as u64);
    put_u64(&mut buf, key.seed);
    put_u64(&mut buf, gamma as u64);
    put_u64(&mut buf, nnz as u64);
    let mut offset = 0u64;
    let mut rows = Vec::with_capacity(m);
    for q in 0..m {
        let (entries, mults) = csr.query_row(q);
        rows.push((entries, mults));
        put_u64(&mut buf, offset);
        offset += entries.len() as u64;
    }
    put_u64(&mut buf, offset);
    for &(entries, _) in &rows {
        for &e in entries {
            put_u32(&mut buf, e);
        }
    }
    for &(_, mults) in &rows {
        for &c in mults {
            put_u32(&mut buf, c);
        }
    }
    let ck = checksum(&buf);
    put_u64(&mut buf, ck);
    let path = snapshot_path(dir, key);
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, &buf)?;
    fs::rename(&tmp, &path)
}

/// Delete `key`'s snapshot if present (called on eviction; a missing
/// file is fine — the design may never have been spilled).
pub fn remove_design(dir: &Path, key: &DesignKey) -> io::Result<()> {
    match fs::remove_file(snapshot_path(dir, key)) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Parse snapshot `bytes` back into the design for `key`, verifying the
/// checksum, the stored key fields, and every CSR invariant. The
/// expected total size is computed from the header *before* any payload
/// allocation, so a corrupt dimension field cannot trigger a huge
/// allocation — the file's own length bounds everything.
pub fn decode_design(key: &DesignKey, bytes: &[u8]) -> Result<AnyDesign, SnapshotError> {
    if bytes.len() < FIXED_HEADER_LEN + CHECKSUM_LEN {
        return Err(SnapshotError::BadSize);
    }
    if bytes[0] != SNAP_MAGIC {
        return Err(SnapshotError::BadMagic(bytes[0]));
    }
    if bytes[1] != SNAP_VERSION {
        return Err(SnapshotError::BadVersion(bytes[1]));
    }
    let kind = design_from_code(bytes[2]).map_err(|_| SnapshotError::BadKind(bytes[2]))?;
    let size = |at| get_usize(bytes, at, "size").map_err(|_| SnapshotError::BadSize);
    let c_milli = get_u32(bytes, 4);
    let n = size(8)?;
    let m = size(16)?;
    let seed = get_u64(bytes, 24);
    let gamma = size(32)?;
    let nnz = size(40)?;
    let expected = FIXED_HEADER_LEN
        .checked_add(m.checked_add(1).and_then(|r| r.checked_mul(8)).ok_or(SnapshotError::BadSize)?)
        .and_then(|t| t.checked_add(nnz.checked_mul(8)?))
        .and_then(|t| t.checked_add(CHECKSUM_LEN))
        .ok_or(SnapshotError::BadSize)?;
    if bytes.len() != expected {
        return Err(SnapshotError::BadSize);
    }
    let body = &bytes[..expected - CHECKSUM_LEN];
    if checksum(body) != get_u64(bytes, expected - CHECKSUM_LEN) {
        return Err(SnapshotError::BadChecksum);
    }
    if kind != key.kind || c_milli != key.c_milli || n != key.n || m != key.m || seed != key.seed {
        return Err(SnapshotError::KeyMismatch);
    }
    let offsets_at = FIXED_HEADER_LEN;
    let entries_at = offsets_at + 8 * (m + 1);
    let mults_at = entries_at + 4 * nnz;
    let q_offsets = (0..=m).map(|q| get_u64(bytes, offsets_at + 8 * q)).collect();
    let entries = (0..nnz).map(|i| get_u32(bytes, entries_at + 4 * i)).collect();
    let mults = (0..nnz).map(|i| get_u32(bytes, mults_at + 4 * i)).collect();
    let csr = CsrDesign::from_rows(n, gamma, q_offsets, entries, mults)
        .ok_or(SnapshotError::BadStructure)?;
    let c = c_milli as f64 / 1000.0;
    Ok(match kind {
        DesignKind::RandomRegular => AnyDesign::RandomRegular(csr),
        DesignKind::NoReplace => AnyDesign::NoReplace(NoReplaceDesign::from_csr(csr)),
        DesignKind::Bernoulli => AnyDesign::Bernoulli(BernoulliDesign::from_csr(csr, c)),
        DesignKind::EntryRegular => AnyDesign::EntryRegular(EntryRegularDesign::from_csr(
            csr,
            EntryRegularDesign::matching_delta(m, c),
        )),
    })
}

/// Load `key`'s snapshot from `dir`. `Ok(None)` when no file exists.
pub fn load_design(dir: &Path, key: &DesignKey) -> Result<Option<AnyDesign>, SnapshotError> {
    let bytes = match fs::read(snapshot_path(dir, key)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(_) => return Err(SnapshotError::BadSize),
    };
    decode_design(key, &bytes).map(Some)
}

/// Load every available snapshot for `keys`, skipping missing or
/// rejected files (those keys resample later). Returns the loaded
/// designs plus how many snapshots were rejected as corrupt.
pub fn load_all(dir: &Path, keys: &[DesignKey]) -> (Vec<(DesignKey, Arc<AnyDesign>)>, u64) {
    let mut loaded = Vec::new();
    let mut rejected = 0u64;
    for key in keys {
        match load_design(dir, key) {
            Ok(Some(design)) => loaded.push((*key, Arc::new(design))),
            Ok(None) => {}
            Err(_) => rejected += 1,
        }
    }
    (loaded, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::testutil::scratch_dir;

    fn key(kind: DesignKind, seed: u64) -> DesignKey {
        DesignKey { n: 96, m: 32, kind, c_milli: 500, seed }
    }

    #[test]
    fn every_design_kind_round_trips_bit_identically() {
        // Reload rebuilds the transpose and the bitmap through the same
        // last step as sampling: both orientations, the bitmap, the sums
        // and the family's own state come back exactly, with a bitmap
        // (c = ½) and without one (c = 0.01).
        let dir = scratch_dir("snap-roundtrip");
        for (i, &kind) in DesignKind::ALL.iter().enumerate() {
            for (n, m, c_milli) in [(96, 32, 500), (700, 40, 10)] {
                let key = DesignKey { n, m, kind, c_milli, seed: 41 + i as u64 };
                let design = key.sample();
                spill_design(&dir, &key, &design).unwrap();
                let loaded = load_design(&dir, &key).unwrap().expect("snapshot present");
                assert_eq!(loaded.kind(), kind);
                assert_eq!(loaded.gamma(), design.gamma(), "{kind:?}");
                let (a, b) = (design.csr(), loaded.csr());
                assert_eq!((a.n(), a.m(), a.gamma(), a.nnz()), (b.n(), b.m(), b.gamma(), b.nnz()));
                assert_eq!(a.has_bitmap(), c_milli == 500, "{kind:?} at c = {c_milli}‰");
                assert_eq!(b.has_bitmap(), a.has_bitmap(), "{kind:?}");
                for q in 0..m {
                    assert_eq!(a.query_row(q), b.query_row(q), "{kind:?} row {q}");
                    assert_eq!(design.pool_len(q), loaded.pool_len(q), "{kind:?} pool {q}");
                }
                for e in 0..n {
                    assert_eq!(a.entry_row(e), b.entry_row(e), "{kind:?} entry {e}");
                }
                let w: Vec<u64> = (0..m as u64).map(|q| q % 5).collect();
                let sums = |d: &CsrDesign| {
                    let (mut psi, mut dstar) = (vec![0; n], vec![0; n]);
                    d.gather_distinct_into(&w, &mut psi, &mut dstar);
                    (psi, dstar)
                };
                assert_eq!(sums(a), sums(b), "{kind:?}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_missing_snapshot_is_none_not_an_error() {
        let dir = scratch_dir("snap-missing");
        assert!(load_design(&dir, &key(DesignKind::RandomRegular, 5)).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_anywhere_is_rejected_never_a_wrong_design() {
        let dir = scratch_dir("snap-corrupt");
        let key = key(DesignKind::NoReplace, 11);
        spill_design(&dir, &key, &key.sample()).unwrap();
        let path = snapshot_path(&dir, &key);
        let clean = fs::read(&path).unwrap();
        // Flip one bit at a spread of offsets covering header, offsets,
        // entries, mults and the checksum itself.
        for at in (0..clean.len()).step_by(37.max(clean.len() / 64)) {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            fs::write(&path, &bytes).unwrap();
            assert!(load_design(&dir, &key).is_err(), "bit flip at byte {at} was not detected");
        }
        // Truncation is also caught.
        fs::write(&path, &clean[..clean.len() - 3]).unwrap();
        assert!(load_design(&dir, &key).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_under_the_wrong_key_is_a_key_mismatch() {
        let dir = scratch_dir("snap-wrong-key");
        let a = key(DesignKind::Bernoulli, 1);
        let mut b = a;
        b.seed = 2;
        spill_design(&dir, &a, &a.sample()).unwrap();
        let bytes = fs::read(snapshot_path(&dir, &a)).unwrap();
        match decode_design(&b, &bytes) {
            Err(SnapshotError::KeyMismatch) => {}
            other => panic!("expected KeyMismatch, got {:?}", other.map(|d| d.kind())),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_all_skips_corrupt_files_and_counts_them() {
        let dir = scratch_dir("snap-load-all");
        let keys: Vec<_> = (0..3).map(|s| key(DesignKind::EntryRegular, s)).collect();
        for k in &keys {
            spill_design(&dir, k, &k.sample()).unwrap();
        }
        // Corrupt the middle snapshot.
        let path = snapshot_path(&dir, &keys[1]);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (loaded, rejected) = load_all(&dir, &keys);
        assert_eq!(loaded.len(), 2);
        assert_eq!(rejected, 1);
        assert!(loaded.iter().all(|(k, _)| *k != keys[1]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_removal_tolerates_a_missing_file() {
        let dir = scratch_dir("snap-remove");
        let k = key(DesignKind::RandomRegular, 77);
        remove_design(&dir, &k).unwrap(); // nothing there yet
        spill_design(&dir, &k, &k.sample()).unwrap();
        remove_design(&dir, &k).unwrap();
        assert!(load_design(&dir, &k).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}
