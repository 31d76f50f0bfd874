//! Crash-safe campaign checkpointing.
//!
//! A [`CampaignSnapshot`] is the complete serializable identity of a
//! paused [`crate::ShardedCampaign`] at an epoch boundary: config and
//! spec fingerprints, every shard's RNG streams / corpus / crash
//! tally / triage seen-set in shard-id order, the cross-shard
//! [`crate::hub::SeedHub`] contents, and the campaign
//! [`TriageReport`]. Restoring it and continuing is **bit-identical**
//! to never having stopped (pinned by `tests/durability.rs`).
//!
//! The encoding is a little-endian binary format written by hand —
//! the vendored `serde` derives are no-ops, and `kgpt_bench` depends
//! on this crate, so neither an external codec nor the bench JSON
//! writer is available here. The on-disk layout (version 3) is:
//!
//! ```text
//! file    = magic "KGPTCKPT" | version u32 | checksum u64 (FNV-1a of payload) | payload
//! payload = config fp u64 | spec fp u64 | epochs done u64
//!         | shards: u32 n, n × shard
//!         | hub top_k u64 | hub published u64 | hub union: dense
//!         | hub seeds: u32 n, n × (shard u32 | program | key)
//!         | triage: u32 n, n × entry (signatures strictly ascending)
//!         | traces: u32 n, n × (shard u32 | len u32 | store bytes)
//! shard   = id u32 | epoch u64 | rng_pick u64 | remaining u64 | fuel u64
//!         | gen rng 4 × u64 | corpus rng u64 | corpus union: dense
//!         | admitted u64 | imported u64 | evicted u64
//!         | entries: u32 n, n × (program | key | execs u64 | hits u64)
//!         | crashes: u32 n, n × (title str | count u64 | cve opt-str), titles strictly ascending
//!         | triage seen: u32 n, n × signature, strictly ascending
//! dense   = u32 n | n × u64 bitmap word, the last word nonzero
//! key     = u32 n | n × (u32 word index | u64 word), indices strictly increasing
//!           and at most `MAX_KEY_WORD_INDEX`, words nonzero
//! ```
//!
//! Programs use the [`Program::encode_into`] codec and keys the
//! [`SparseCoverage::encode_into`] codec. Every section is written in
//! one fixed order and the decoder rejects any other, so a snapshot
//! has exactly one encoding: `to_bytes(from_bytes(b)) == b` whenever
//! `b` decodes as version 3. Versions 1 and 2 still load. Their keys
//! are dense bitmaps, which are converted to sparse keys on load, and
//! their dense maps may end in zero words; version 1 has no trace
//! section.
//!
//! Writes are atomic and keep one generation of history: the payload
//! goes to `<path>.tmp`, the current snapshot (if any) rotates to
//! `<path>.prev`, and the temp file renames over `<path>`.
//! [`CampaignSnapshot::load`] verifies magic, version and checksum,
//! and falls back to the previous-good rotation when the current file
//! is truncated or corrupt — a torn write costs one epoch of
//! progress, never the campaign.

use crate::campaign::{CampaignConfig, CrashTally, ShardSnapshot};
use crate::corpus::{CorpusEntry, CorpusStats};
use crate::hub::{HubSeed, SeedHub};
use crate::program::Program;
use kgpt_triage::{TriageEntry, TriageReport};
use kgpt_vkernel::{
    CoverageMap, CoverageWordDiff, CrashSignature, KeyDecodeError, SanitizerKind, SparseCoverage,
    Sysno,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// File magic: identifies a campaign checkpoint.
const MAGIC: &[u8; 8] = b"KGPTCKPT";

/// Current snapshot format version. Bumped on any layout change; a
/// reader never guesses at an unknown version. Version 2 appended the
/// flight recorder's per-shard trace stores; version-1 snapshots are
/// still read (their trace section is simply empty — resume starts
/// with fresh rings, losing no campaign state). Version 3 stores
/// corpus and hub keys sparsely and dense maps without trailing zero
/// words ([`SPARSE_KEYS`]).
pub(crate) const VERSION: u32 = 3;

/// First version whose keys are [`SparseCoverage`] word lists and
/// whose dense maps end in a nonzero word. Earlier payloads carry
/// dense keys, converted on load.
const SPARSE_KEYS: u32 = 3;

/// Error reading, writing, or validating a campaign snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    /// What went wrong (always names the failing stage).
    pub message: String,
}

impl CheckpointError {
    pub(crate) fn new(message: impl Into<String>) -> CheckpointError {
        CheckpointError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CheckpointError {}

impl From<KeyDecodeError> for CheckpointError {
    fn from(e: KeyDecodeError) -> CheckpointError {
        CheckpointError::new(e.to_string())
    }
}

impl From<kgpt_syzlang::prog::DecodeError> for CheckpointError {
    fn from(e: kgpt_syzlang::prog::DecodeError) -> CheckpointError {
        CheckpointError::new(format!("program decode failed: {e}"))
    }
}

/// FNV-1a over a byte slice — the payload checksum. Deterministic,
/// dependency-free, and strong enough to catch truncation and bitrot
/// (the threat model; this is not a cryptographic seal).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable fingerprint of a campaign's deterministic identity: every
/// [`CampaignConfig`] field plus the shard count. Two campaigns with
/// equal fingerprints produce bit-identical results, so resume
/// refuses a snapshot whose fingerprint differs.
#[must_use]
pub fn config_fingerprint(config: &CampaignConfig, shards: u32) -> u64 {
    let mut bytes = Vec::new();
    put_u64(&mut bytes, config.execs);
    put_u64(&mut bytes, config.seed);
    put_u64(&mut bytes, config.max_prog_len as u64);
    match &config.enabled {
        None => bytes.push(0),
        Some(names) => {
            bytes.push(1);
            put_u32(&mut bytes, u32::try_from(names.len()).unwrap_or(u32::MAX));
            for n in names {
                put_str(&mut bytes, n);
            }
        }
    }
    put_u64(&mut bytes, config.hub_epoch);
    put_u64(&mut bytes, config.hub_top_k as u64);
    put_u64(&mut bytes, config.exec_fuel);
    put_u64(&mut bytes, config.trace_ring as u64);
    put_u32(&mut bytes, shards);
    fnv1a(&bytes)
}

/// The complete persisted state of a paused campaign. See the module
/// docs for the durability contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSnapshot {
    /// [`config_fingerprint`] of the writing campaign.
    pub(crate) config_fingerprint: u64,
    /// Spec-suite fingerprint ([`kgpt_syzlang::SpecCache::fingerprint`]).
    pub(crate) spec_fingerprint: u64,
    /// Driver epochs completed when the snapshot was taken.
    pub(crate) epochs_done: u64,
    /// Per-shard state, in shard-id order.
    pub(crate) shards: Vec<ShardSnapshot>,
    /// Hub publication budget.
    pub(crate) hub_top_k: usize,
    /// Hub publish-attempt counter.
    pub(crate) hub_published: u64,
    /// Hub claimed-coverage union.
    pub(crate) hub_coverage: CoverageMap,
    /// Retained hub seeds, in publication order.
    pub(crate) hub_seeds: Vec<HubSeed>,
    /// The campaign triage report so far.
    pub(crate) triage: TriageReport,
    /// The flight recorder's serialized per-shard trace stores
    /// (`(shard id, kgpt_trace::TraceStore::to_bytes)`), in shard-id
    /// order; empty when the campaign runs untraced or the snapshot
    /// predates version 2. Kept opaque here — the store bytes carry
    /// their own framing and are validated by the resume path.
    pub(crate) traces: Vec<(u32, Vec<u8>)>,
}

impl CampaignSnapshot {
    /// Driver epochs completed when this snapshot was taken.
    #[must_use]
    pub fn epochs_done(&self) -> u64 {
        self.epochs_done
    }

    /// Capture a paused campaign (shard states given in id order).
    pub(crate) fn capture(
        config_fp: u64,
        spec_fp: u64,
        epochs_done: u64,
        shards: Vec<ShardSnapshot>,
        hub: &SeedHub,
        triage: &TriageReport,
        traces: Vec<(u32, Vec<u8>)>,
    ) -> CampaignSnapshot {
        CampaignSnapshot {
            config_fingerprint: config_fp,
            spec_fingerprint: spec_fp,
            epochs_done,
            shards,
            hub_top_k: hub.top_k(),
            hub_published: hub.published(),
            hub_coverage: hub.coverage().clone(),
            hub_seeds: hub.seeds().to_vec(),
            triage: triage.clone(),
            traces,
        }
    }

    /// Serialize to the versioned, checksummed on-disk format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, self.config_fingerprint);
        put_u64(&mut payload, self.spec_fingerprint);
        put_u64(&mut payload, self.epochs_done);
        put_u32(
            &mut payload,
            u32::try_from(self.shards.len()).unwrap_or(u32::MAX),
        );
        for s in &self.shards {
            encode_shard(s, &mut payload);
        }
        put_u64(&mut payload, self.hub_top_k as u64);
        put_u64(&mut payload, self.hub_published);
        put_coverage(&mut payload, &self.hub_coverage);
        put_u32(
            &mut payload,
            u32::try_from(self.hub_seeds.len()).unwrap_or(u32::MAX),
        );
        for seed in &self.hub_seeds {
            put_u32(&mut payload, seed.shard);
            seed.program.encode_into(&mut payload);
            seed.contributed.encode_into(&mut payload);
        }
        let entries: Vec<&TriageEntry> = self.triage.entries().collect();
        put_u32(
            &mut payload,
            u32::try_from(entries.len()).unwrap_or(u32::MAX),
        );
        for e in entries {
            encode_triage_entry(e, &mut payload);
        }
        put_u32(
            &mut payload,
            u32::try_from(self.traces.len()).unwrap_or(u32::MAX),
        );
        for (id, store) in &self.traces {
            put_u32(&mut payload, *id);
            put_u32(&mut payload, u32::try_from(store.len()).unwrap_or(u32::MAX));
            payload.extend_from_slice(store);
        }

        let mut out = Vec::with_capacity(payload.len() + 20);
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_u64(&mut out, fnv1a(&payload));
        out.extend_from_slice(&payload);
        out
    }

    /// Parse a snapshot from bytes previously produced by
    /// [`CampaignSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on wrong magic, unknown version,
    /// checksum mismatch (truncation/bitrot), or any malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<CampaignSnapshot, CheckpointError> {
        if bytes.len() < MAGIC.len() + 12 {
            return Err(CheckpointError::new(format!(
                "snapshot too short ({} bytes)",
                bytes.len()
            )));
        }
        if &bytes[..8] != MAGIC {
            return Err(CheckpointError::new("bad snapshot magic"));
        }
        let mut pos = 8usize;
        let version = take_u32(bytes, &mut pos)?;
        if !(1..=VERSION).contains(&version) {
            return Err(CheckpointError::new(format!(
                "unsupported snapshot version {version} (expected {VERSION})"
            )));
        }
        let checksum = take_u64(bytes, &mut pos)?;
        let payload = &bytes[pos..];
        if fnv1a(payload) != checksum {
            return Err(CheckpointError::new("snapshot checksum mismatch"));
        }

        let bytes = payload;
        let mut pos = 0usize;
        let config_fingerprint = take_u64(bytes, &mut pos)?;
        let spec_fingerprint = take_u64(bytes, &mut pos)?;
        let epochs_done = take_u64(bytes, &mut pos)?;
        let n_shards = take_u32(bytes, &mut pos)? as usize;
        let mut shards = Vec::new();
        for _ in 0..n_shards {
            shards.push(decode_shard(bytes, &mut pos, version)?);
        }
        let hub_top_k = usize::try_from(take_u64(bytes, &mut pos)?)
            .map_err(|_| CheckpointError::new("hub top_k out of range"))?;
        let hub_published = take_u64(bytes, &mut pos)?;
        let hub_coverage = take_coverage(bytes, &mut pos, version)?;
        let n_seeds = take_u32(bytes, &mut pos)? as usize;
        let mut hub_seeds = Vec::new();
        for _ in 0..n_seeds {
            let shard = take_u32(bytes, &mut pos)?;
            let program = Program::decode_from(bytes, &mut pos)?;
            let contributed = take_key(bytes, &mut pos, version)?;
            hub_seeds.push(HubSeed {
                shard,
                program,
                contributed,
            });
        }
        let n_triage = take_u32(bytes, &mut pos)? as usize;
        let mut triage = TriageReport::new();
        let mut prev = None;
        for _ in 0..n_triage {
            let entry = decode_triage_entry(bytes, &mut pos)?;
            check_ascending(prev.as_ref(), &entry.signature, "triage signatures", pos)?;
            prev = Some(entry.signature);
            triage.admit(entry);
        }
        // The trace section arrived with version 2; version-1
        // snapshots simply have none.
        let mut traces = Vec::new();
        if version >= 2 {
            let n_traces = take_u32(bytes, &mut pos)? as usize;
            for _ in 0..n_traces {
                let id = take_u32(bytes, &mut pos)?;
                let len = take_u32(bytes, &mut pos)? as usize;
                let end = pos
                    .checked_add(len)
                    .filter(|&e| e <= bytes.len())
                    .ok_or_else(|| {
                        CheckpointError::new(format!("truncated trace store at {pos}"))
                    })?;
                traces.push((id, bytes[pos..end].to_vec()));
                pos = end;
            }
        }
        if pos != bytes.len() {
            return Err(CheckpointError::new(format!(
                "{} trailing bytes after snapshot payload",
                bytes.len() - pos
            )));
        }
        Ok(CampaignSnapshot {
            config_fingerprint,
            spec_fingerprint,
            epochs_done,
            shards,
            hub_top_k,
            hub_published,
            hub_coverage,
            hub_seeds,
            triage,
            traces,
        })
    }

    /// Write atomically to `path`: serialize to `<path>.tmp`, rotate
    /// any current snapshot to `<path>.prev` (the previous-good
    /// fallback), then rename the temp file into place. A crash at any
    /// point leaves either the old snapshot or the new one intact —
    /// never a torn file under `path` alone.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the filesystem rejects the
    /// temp-file write or a rename.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = sibling(path, "tmp");
        std::fs::write(&tmp, self.to_bytes())
            .map_err(|e| CheckpointError::new(format!("write {} failed: {e}", tmp.display())))?;
        if path.exists() {
            std::fs::rename(path, sibling(path, "prev")).map_err(|e| {
                CheckpointError::new(format!("rotate {} failed: {e}", path.display()))
            })?;
        }
        std::fs::rename(&tmp, path)
            .map_err(|e| CheckpointError::new(format!("install {} failed: {e}", path.display())))
    }

    /// Load the snapshot at `path`, falling back to the previous-good
    /// rotation (`<path>.prev`) when the current file is missing,
    /// truncated, or corrupt. Falling back costs the epochs between
    /// the two snapshots — they are simply re-executed on resume — and
    /// never determinism.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] describing both failures when
    /// neither generation parses.
    pub fn load(path: &Path) -> Result<CampaignSnapshot, CheckpointError> {
        let current = read_and_parse(path);
        match current {
            Ok(snap) => Ok(snap),
            Err(e) => match read_and_parse(&sibling(path, "prev")) {
                Ok(snap) => Ok(snap),
                Err(e2) => Err(CheckpointError::new(format!(
                    "no intact snapshot: current: {e}; previous: {e2}"
                ))),
            },
        }
    }

    /// Validate that this snapshot belongs to a campaign with the
    /// given fingerprints.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] naming the mismatched fingerprint.
    pub fn validate(&self, config_fp: u64, spec_fp: u64) -> Result<(), CheckpointError> {
        if self.config_fingerprint != config_fp {
            return Err(CheckpointError::new(format!(
                "config fingerprint mismatch: snapshot {:#x}, campaign {:#x}",
                self.config_fingerprint, config_fp
            )));
        }
        if self.spec_fingerprint != spec_fp {
            return Err(CheckpointError::new(format!(
                "spec fingerprint mismatch: snapshot {:#x}, campaign {:#x}",
                self.spec_fingerprint, spec_fp
            )));
        }
        Ok(())
    }
}

fn read_and_parse(path: &Path) -> Result<CampaignSnapshot, CheckpointError> {
    let bytes = std::fs::read(path)
        .map_err(|e| CheckpointError::new(format!("read {} failed: {e}", path.display())))?;
    CampaignSnapshot::from_bytes(&bytes)
}

/// `<path>.<ext>` with the extension appended (not substituted), so
/// `campaign.ckpt` rotates to `campaign.ckpt.prev`.
fn sibling(path: &Path, ext: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".");
    s.push(ext);
    PathBuf::from(s)
}

// ---- primitive writers/readers ------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).unwrap_or(u32::MAX));
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

/// Append a dense map: its words up to the last nonzero one.
pub(crate) fn put_coverage(out: &mut Vec<u8>, cov: &CoverageMap) {
    let words = cov.words();
    put_u32(out, u32::try_from(words.len()).unwrap_or(u32::MAX));
    for &w in words {
        put_u64(out, w);
    }
}

pub(crate) fn take_u8(bytes: &[u8], pos: &mut usize) -> Result<u8, CheckpointError> {
    let Some(&b) = bytes.get(*pos) else {
        return Err(CheckpointError::new(format!("truncated byte at {pos}")));
    };
    *pos += 1;
    Ok(b)
}

pub(crate) fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, CheckpointError> {
    let end = pos.checked_add(4).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(CheckpointError::new(format!("truncated u32 at {pos}")));
    };
    let v = u32::from_le_bytes(bytes[*pos..end].try_into().unwrap());
    *pos = end;
    Ok(v)
}

pub(crate) fn take_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, CheckpointError> {
    let end = pos.checked_add(8).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(CheckpointError::new(format!("truncated u64 at {pos}")));
    };
    let v = u64::from_le_bytes(bytes[*pos..end].try_into().unwrap());
    *pos = end;
    Ok(v)
}

pub(crate) fn take_str(bytes: &[u8], pos: &mut usize) -> Result<String, CheckpointError> {
    let len = take_u32(bytes, pos)? as usize;
    let end = pos.checked_add(len).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(CheckpointError::new(format!("truncated string at {pos}")));
    };
    let s = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|_| CheckpointError::new(format!("invalid utf-8 string at {pos}")))?
        .to_owned();
    *pos = end;
    Ok(s)
}

pub(crate) fn take_opt_str(
    bytes: &[u8],
    pos: &mut usize,
) -> Result<Option<String>, CheckpointError> {
    match take_u8(bytes, pos)? {
        0 => Ok(None),
        1 => Ok(Some(take_str(bytes, pos)?)),
        t => Err(CheckpointError::new(format!("bad option tag {t} at {pos}"))),
    }
}

/// Read a dense map written by [`put_coverage`] (or, before
/// [`SPARSE_KEYS`], by a writer that kept trailing zero words).
pub(crate) fn take_coverage(
    bytes: &[u8],
    pos: &mut usize,
    version: u32,
) -> Result<CoverageMap, CheckpointError> {
    let n = take_u32(bytes, pos)? as usize;
    let remaining = bytes.len().saturating_sub(*pos);
    if n > remaining / 8 {
        return Err(CheckpointError::new(format!(
            "coverage word count {n} exceeds the {remaining} remaining bytes"
        )));
    }
    let mut words = Vec::with_capacity(n);
    for _ in 0..n {
        words.push(take_u64(bytes, pos)?);
    }
    if version >= SPARSE_KEYS && words.last() == Some(&0) {
        return Err(CheckpointError::new(format!(
            "coverage map ends in a zero word at {pos}"
        )));
    }
    Ok(CoverageMap::from_words(words))
}

/// Read a corpus or hub key: a [`SparseCoverage`] since
/// [`SPARSE_KEYS`], a dense map converted to one before.
pub(crate) fn take_key(
    bytes: &[u8],
    pos: &mut usize,
    version: u32,
) -> Result<SparseCoverage, CheckpointError> {
    if version < SPARSE_KEYS {
        return Ok(SparseCoverage::from(&take_coverage(bytes, pos, version)?));
    }
    Ok(SparseCoverage::decode_from(bytes, pos)?)
}

/// Fail unless `next` strictly follows `prev`: map and set sections
/// are written in key order, so no other order encodes a snapshot.
fn check_ascending<T: Ord>(
    prev: Option<&T>,
    next: &T,
    what: &str,
    pos: usize,
) -> Result<(), CheckpointError> {
    match prev {
        Some(p) if p >= next => Err(CheckpointError::new(format!(
            "{what} not strictly ascending at {pos}"
        ))),
        _ => Ok(()),
    }
}

/// Tag bytes of the two [`CoverageWordDiff`] shapes on the wire.
const DIFF_SPARSE: u8 = 0;
const DIFF_DENSE: u8 = 1;

pub(crate) fn put_word_diff(out: &mut Vec<u8>, diff: &CoverageWordDiff) {
    match diff {
        CoverageWordDiff::Sparse(runs) => {
            out.push(DIFF_SPARSE);
            put_u32(out, u32::try_from(runs.len()).unwrap_or(u32::MAX));
            for (start, words) in runs {
                put_u32(out, *start);
                put_u32(out, u32::try_from(words.len()).unwrap_or(u32::MAX));
                for &w in words {
                    put_u64(out, w);
                }
            }
        }
        CoverageWordDiff::Dense(words) => {
            out.push(DIFF_DENSE);
            put_u32(out, u32::try_from(words.len()).unwrap_or(u32::MAX));
            for &w in words {
                put_u64(out, w);
            }
        }
    }
}

pub(crate) fn take_word_diff(
    bytes: &[u8],
    pos: &mut usize,
) -> Result<CoverageWordDiff, CheckpointError> {
    match take_u8(bytes, pos)? {
        DIFF_SPARSE => {
            let n_runs = take_u32(bytes, pos)? as usize;
            let mut runs = Vec::new();
            let mut next_free = 0u64;
            for _ in 0..n_runs {
                let start = take_u32(bytes, pos)?;
                if u64::from(start) < next_free {
                    return Err(CheckpointError::new(format!(
                        "word-diff runs out of order at {pos}"
                    )));
                }
                let len = take_u32(bytes, pos)? as usize;
                if len == 0 {
                    return Err(CheckpointError::new(format!(
                        "empty word-diff run at {pos}"
                    )));
                }
                let mut words = Vec::new();
                for _ in 0..len {
                    words.push(take_u64(bytes, pos)?);
                }
                next_free = u64::from(start) + words.len() as u64;
                runs.push((start, words));
            }
            Ok(CoverageWordDiff::Sparse(runs))
        }
        DIFF_DENSE => {
            let n = take_u32(bytes, pos)? as usize;
            let mut words = Vec::new();
            for _ in 0..n {
                words.push(take_u64(bytes, pos)?);
            }
            Ok(CoverageWordDiff::Dense(words))
        }
        t => Err(CheckpointError::new(format!(
            "bad word-diff tag {t} at {pos}"
        ))),
    }
}

pub(crate) fn put_signature(out: &mut Vec<u8>, sig: &CrashSignature) {
    out.push(sig.sysno.as_index());
    out.push(sig.chain_depth);
    out.push(sig.sanitizer.as_index());
    put_u64(out, sig.site);
}

pub(crate) fn take_signature(
    bytes: &[u8],
    pos: &mut usize,
) -> Result<CrashSignature, CheckpointError> {
    let sysno = Sysno::from_index(take_u8(bytes, pos)?)
        .ok_or_else(|| CheckpointError::new(format!("bad sysno index at {pos}")))?;
    let chain_depth = take_u8(bytes, pos)?;
    let sanitizer = SanitizerKind::from_index(take_u8(bytes, pos)?)
        .ok_or_else(|| CheckpointError::new(format!("bad sanitizer index at {pos}")))?;
    let site = take_u64(bytes, pos)?;
    Ok(CrashSignature {
        sysno,
        chain_depth,
        sanitizer,
        site,
    })
}

// ---- aggregate encoders/decoders ----------------------------------------

pub(crate) fn encode_corpus_entry(e: &CorpusEntry, out: &mut Vec<u8>) {
    e.program.encode_into(out);
    e.contributed.encode_into(out);
    put_u64(out, e.execs);
    put_u64(out, e.hits);
}

pub(crate) fn decode_corpus_entry(
    bytes: &[u8],
    pos: &mut usize,
    version: u32,
) -> Result<CorpusEntry, CheckpointError> {
    let program = Program::decode_from(bytes, pos)?;
    let contributed = take_key(bytes, pos, version)?;
    let execs = take_u64(bytes, pos)?;
    let hits = take_u64(bytes, pos)?;
    Ok(CorpusEntry {
        program,
        contributed,
        execs,
        hits,
    })
}

pub(crate) fn encode_shard(s: &ShardSnapshot, out: &mut Vec<u8>) {
    put_u32(out, s.id);
    put_u64(out, s.epoch);
    put_u64(out, s.rng_pick);
    put_u64(out, s.remaining);
    put_u64(out, s.fuel_exhausted);
    for w in s.gen_rng {
        put_u64(out, w);
    }
    put_u64(out, s.corpus_rng);
    put_coverage(out, &s.corpus_coverage);
    put_u64(out, s.corpus_stats.admitted);
    put_u64(out, s.corpus_stats.imported);
    put_u64(out, s.corpus_stats.evicted);
    put_u32(
        out,
        u32::try_from(s.corpus_entries.len()).unwrap_or(u32::MAX),
    );
    for e in &s.corpus_entries {
        encode_corpus_entry(e, out);
    }
    put_u32(out, u32::try_from(s.crashes.len()).unwrap_or(u32::MAX));
    for (title, (count, cve)) in &s.crashes {
        put_str(out, title);
        put_u64(out, *count);
        put_opt_str(out, cve.as_deref());
    }
    put_u32(out, u32::try_from(s.triage_seen.len()).unwrap_or(u32::MAX));
    for sig in &s.triage_seen {
        put_signature(out, sig);
    }
}

pub(crate) fn decode_shard(
    bytes: &[u8],
    pos: &mut usize,
    version: u32,
) -> Result<ShardSnapshot, CheckpointError> {
    let id = take_u32(bytes, pos)?;
    let epoch = take_u64(bytes, pos)?;
    let rng_pick = take_u64(bytes, pos)?;
    let remaining = take_u64(bytes, pos)?;
    let fuel_exhausted = take_u64(bytes, pos)?;
    let mut gen_rng = [0u64; 4];
    for w in &mut gen_rng {
        *w = take_u64(bytes, pos)?;
    }
    let corpus_rng = take_u64(bytes, pos)?;
    let corpus_coverage = take_coverage(bytes, pos, version)?;
    let corpus_stats = CorpusStats {
        admitted: take_u64(bytes, pos)?,
        imported: take_u64(bytes, pos)?,
        evicted: take_u64(bytes, pos)?,
    };
    let n_entries = take_u32(bytes, pos)? as usize;
    let mut corpus_entries = Vec::new();
    for _ in 0..n_entries {
        corpus_entries.push(decode_corpus_entry(bytes, pos, version)?);
    }
    let n_crashes = take_u32(bytes, pos)? as usize;
    let mut crashes = CrashTally::new();
    for _ in 0..n_crashes {
        let title = take_str(bytes, pos)?;
        check_ascending(crashes.keys().next_back(), &title, "crash titles", *pos)?;
        let count = take_u64(bytes, pos)?;
        let cve = take_opt_str(bytes, pos)?;
        crashes.insert(title, (count, cve));
    }
    let n_seen = take_u32(bytes, pos)? as usize;
    let mut triage_seen = BTreeSet::new();
    for _ in 0..n_seen {
        let sig = take_signature(bytes, pos)?;
        check_ascending(triage_seen.last(), &sig, "triage-seen signatures", *pos)?;
        triage_seen.insert(sig);
    }
    Ok(ShardSnapshot {
        id,
        gen_rng,
        corpus_rng,
        corpus_coverage,
        corpus_entries,
        corpus_stats,
        crashes,
        triage_seen,
        epoch,
        rng_pick,
        remaining,
        fuel_exhausted,
    })
}

pub(crate) fn encode_triage_entry(e: &TriageEntry, out: &mut Vec<u8>) {
    put_signature(out, &e.signature);
    put_str(out, &e.title);
    put_opt_str(out, e.cve.as_deref());
    put_u64(out, e.first_epoch);
    put_u32(out, e.first_shard);
    put_u64(out, e.count);
    e.raw.encode_into(out);
    e.minimized.encode_into(out);
    put_u64(out, e.minimize_execs);
    out.push(u8::from(e.reproducible));
}

pub(crate) fn decode_triage_entry(
    bytes: &[u8],
    pos: &mut usize,
) -> Result<TriageEntry, CheckpointError> {
    let signature = take_signature(bytes, pos)?;
    let title = take_str(bytes, pos)?;
    let cve = take_opt_str(bytes, pos)?;
    let first_epoch = take_u64(bytes, pos)?;
    let first_shard = take_u32(bytes, pos)?;
    let count = take_u64(bytes, pos)?;
    let raw = Program::decode_from(bytes, pos)?;
    let minimized = Program::decode_from(bytes, pos)?;
    let minimize_execs = take_u64(bytes, pos)?;
    let reproducible = match take_u8(bytes, pos)? {
        0 => false,
        1 => true,
        t => {
            return Err(CheckpointError::new(format!(
                "bad reproducible flag {t} at {pos}"
            )))
        }
    };
    Ok(TriageEntry {
        signature,
        title,
        cve,
        first_epoch,
        first_shard,
        count,
        raw,
        minimized,
        minimize_execs,
        reproducible,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgCall, Program};
    use kgpt_syzlang::Value;

    fn cov(blocks: &[u64]) -> CoverageMap {
        blocks.iter().copied().collect()
    }

    fn key(blocks: &[u64]) -> SparseCoverage {
        blocks.iter().copied().collect()
    }

    fn prog(sys: u32) -> Program {
        Program::from_calls(&[ProgCall {
            sys,
            args: vec![Value::Int(7), Value::Bytes(vec![1, 2, 3])],
        }])
    }

    fn sig(site: u64) -> CrashSignature {
        CrashSignature {
            sysno: Sysno::Ioctl,
            chain_depth: 2,
            sanitizer: SanitizerKind::UseAfterFree,
            site,
        }
    }

    fn sample() -> CampaignSnapshot {
        let mut crashes = CrashTally::new();
        crashes.insert("bug a".into(), (3, Some("CVE-2023-0001".into())));
        crashes.insert("bug b".into(), (1, None));
        let mut seen = BTreeSet::new();
        seen.insert(sig(5));
        seen.insert(sig(9));
        let mut triage = TriageReport::new();
        triage.admit(TriageEntry {
            signature: sig(5),
            title: "bug a".into(),
            cve: Some("CVE-2023-0001".into()),
            first_epoch: 2,
            first_shard: 1,
            count: 4,
            raw: prog(3),
            minimized: prog(3),
            minimize_execs: 11,
            reproducible: true,
        });
        CampaignSnapshot {
            config_fingerprint: 0xDEAD_BEEF,
            spec_fingerprint: 0xFEED_FACE,
            epochs_done: 7,
            shards: vec![ShardSnapshot {
                id: 0,
                gen_rng: [1, 2, 3, 4],
                corpus_rng: 99,
                corpus_coverage: cov(&[1, 2, 64, 500]),
                corpus_entries: vec![CorpusEntry {
                    program: prog(1),
                    contributed: key(&[64]),
                    execs: 12,
                    hits: 2,
                }],
                corpus_stats: CorpusStats {
                    admitted: 5,
                    imported: 1,
                    evicted: 2,
                },
                crashes,
                triage_seen: seen,
                epoch: 7,
                rng_pick: 0x1234,
                remaining: 1000,
                fuel_exhausted: 3,
            }],
            hub_top_k: 4,
            hub_published: 17,
            hub_coverage: cov(&[1, 2]),
            hub_seeds: vec![HubSeed {
                shard: 0,
                program: prog(2),
                contributed: key(&[2]),
            }],
            triage,
            // Opaque to the checkpoint layer: any bytes round-trip.
            traces: vec![(0, vec![0xAB, 0xCD, 0xEF])],
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kgpt-ckpt-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn byte_round_trip_is_lossless() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert_eq!(CampaignSnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn every_truncation_is_rejected_not_panicking() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                CampaignSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
    }

    #[test]
    fn bad_magic_version_and_checksum_are_distinct_errors() {
        let good = sample().to_bytes();

        let mut bad = good.clone();
        bad[0] = b'X';
        let e = CampaignSnapshot::from_bytes(&bad).unwrap_err();
        assert!(e.message.contains("magic"), "{e}");

        let mut bad = good.clone();
        bad[8] = 0xFF; // version LE low byte
        let e = CampaignSnapshot::from_bytes(&bad).unwrap_err();
        assert!(e.message.contains("version"), "{e}");

        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40; // flip a payload bit
        let e = CampaignSnapshot::from_bytes(&bad).unwrap_err();
        assert!(e.message.contains("checksum"), "{e}");

        assert!(CampaignSnapshot::from_bytes(&good).is_ok());
    }

    #[test]
    fn save_rotates_previous_good_and_load_falls_back() {
        let dir = scratch_dir("rotate");
        let path = dir.join("campaign.ckpt");

        let mut first = sample();
        first.epochs_done = 1;
        first.save(&path).unwrap();
        assert_eq!(CampaignSnapshot::load(&path).unwrap().epochs_done, 1);

        let mut second = sample();
        second.epochs_done = 2;
        second.save(&path).unwrap();
        assert_eq!(CampaignSnapshot::load(&path).unwrap().epochs_done, 2);
        // The rotation holds the previous generation.
        assert_eq!(
            CampaignSnapshot::from_bytes(&std::fs::read(sibling(&path, "prev")).unwrap())
                .unwrap()
                .epochs_done,
            1
        );

        // Corrupt the current file: load falls back to previous-good.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(CampaignSnapshot::load(&path).unwrap().epochs_done, 1);

        // Truncate the current file: same fallback.
        std::fs::write(&path, &second.to_bytes()[..40]).unwrap();
        assert_eq!(CampaignSnapshot::load(&path).unwrap().epochs_done, 1);

        // Both generations gone: a descriptive error, not a panic.
        std::fs::write(&path, b"junk").unwrap();
        std::fs::write(sibling(&path, "prev"), b"junk").unwrap();
        let e = CampaignSnapshot::load(&path).unwrap_err();
        assert!(e.message.contains("current"), "{e}");
        assert!(e.message.contains("previous"), "{e}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_names_the_mismatched_fingerprint() {
        let snap = sample();
        snap.validate(0xDEAD_BEEF, 0xFEED_FACE).unwrap();
        let e = snap.validate(1, 0xFEED_FACE).unwrap_err();
        assert!(e.message.contains("config fingerprint"), "{e}");
        let e = snap.validate(0xDEAD_BEEF, 1).unwrap_err();
        assert!(e.message.contains("spec fingerprint"), "{e}");
    }

    #[test]
    fn config_fingerprint_covers_every_identity_field() {
        let base = CampaignConfig::default();
        let fp = |c: &CampaignConfig, shards: u32| config_fingerprint(c, shards);
        let b = fp(&base, 8);
        assert_eq!(b, fp(&base.clone(), 8), "fingerprint is stable");
        assert_ne!(b, fp(&base, 4), "shard count is identity");
        for tweak in [
            CampaignConfig {
                execs: base.execs + 1,
                ..base.clone()
            },
            CampaignConfig {
                seed: base.seed + 1,
                ..base.clone()
            },
            CampaignConfig {
                max_prog_len: base.max_prog_len + 1,
                ..base.clone()
            },
            CampaignConfig {
                enabled: Some(vec!["ioctl$dm".into()]),
                ..base.clone()
            },
            CampaignConfig {
                hub_epoch: base.hub_epoch + 1,
                ..base.clone()
            },
            CampaignConfig {
                hub_top_k: base.hub_top_k + 1,
                ..base.clone()
            },
            CampaignConfig {
                exec_fuel: base.exec_fuel + 1,
                ..base.clone()
            },
            CampaignConfig {
                trace_ring: base.trace_ring + 1,
                ..base.clone()
            },
        ] {
            assert_ne!(b, fp(&tweak, 8), "{tweak:?}");
        }
    }

    /// `snap` framed as `version` 1 or 2, the dense-key formats: every
    /// key and union a bitmap padded with trailing zero words (as the
    /// old full-width diffs were), and no trace section in version 1.
    fn legacy_bytes(snap: &CampaignSnapshot, version: u32) -> Vec<u8> {
        fn dense(out: &mut Vec<u8>, blocks: impl Iterator<Item = u64>) {
            let mut words = blocks.collect::<CoverageMap>().words().to_vec();
            words.extend([0u64; 3]);
            put_u32(out, u32::try_from(words.len()).unwrap());
            for w in words {
                put_u64(out, w);
            }
        }
        let mut p = Vec::new();
        put_u64(&mut p, snap.config_fingerprint);
        put_u64(&mut p, snap.spec_fingerprint);
        put_u64(&mut p, snap.epochs_done);
        put_u32(&mut p, u32::try_from(snap.shards.len()).unwrap());
        for s in &snap.shards {
            put_u32(&mut p, s.id);
            for v in [s.epoch, s.rng_pick, s.remaining, s.fuel_exhausted] {
                put_u64(&mut p, v);
            }
            for w in s.gen_rng {
                put_u64(&mut p, w);
            }
            put_u64(&mut p, s.corpus_rng);
            dense(&mut p, s.corpus_coverage.iter());
            put_u64(&mut p, s.corpus_stats.admitted);
            put_u64(&mut p, s.corpus_stats.imported);
            put_u64(&mut p, s.corpus_stats.evicted);
            put_u32(&mut p, u32::try_from(s.corpus_entries.len()).unwrap());
            for e in &s.corpus_entries {
                e.program.encode_into(&mut p);
                dense(&mut p, e.contributed.iter());
                put_u64(&mut p, e.execs);
                put_u64(&mut p, e.hits);
            }
            put_u32(&mut p, u32::try_from(s.crashes.len()).unwrap());
            for (title, (count, cve)) in &s.crashes {
                put_str(&mut p, title);
                put_u64(&mut p, *count);
                put_opt_str(&mut p, cve.as_deref());
            }
            put_u32(&mut p, u32::try_from(s.triage_seen.len()).unwrap());
            for sig in &s.triage_seen {
                put_signature(&mut p, sig);
            }
        }
        put_u64(&mut p, snap.hub_top_k as u64);
        put_u64(&mut p, snap.hub_published);
        dense(&mut p, snap.hub_coverage.iter());
        put_u32(&mut p, u32::try_from(snap.hub_seeds.len()).unwrap());
        for seed in &snap.hub_seeds {
            put_u32(&mut p, seed.shard);
            seed.program.encode_into(&mut p);
            dense(&mut p, seed.contributed.iter());
        }
        put_u32(&mut p, u32::try_from(snap.triage.len()).unwrap());
        for e in snap.triage.entries() {
            encode_triage_entry(e, &mut p);
        }
        if version >= 2 {
            put_u32(&mut p, u32::try_from(snap.traces.len()).unwrap());
            for (id, store) in &snap.traces {
                put_u32(&mut p, *id);
                put_u32(&mut p, u32::try_from(store.len()).unwrap());
                p.extend_from_slice(store);
            }
        }
        let mut out = MAGIC.to_vec();
        put_u32(&mut out, version);
        put_u64(&mut out, fnv1a(&p));
        out.extend_from_slice(&p);
        out
    }

    /// Replace the payload checksum, so a payload edit reaches the
    /// decoder instead of failing the checksum.
    fn reseal(bytes: &mut [u8]) {
        let sum = fnv1a(&bytes[20..]);
        bytes[12..20].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn version_one_snapshots_without_traces_still_load() {
        // A pre-flight-recorder snapshot: dense keys padded with
        // trailing zero words, no trace section, version 1. It loads
        // with sparse keys and an empty trace list, and re-encodes as
        // the current version.
        let mut snap = sample();
        snap.traces.clear();
        let decoded = CampaignSnapshot::from_bytes(&legacy_bytes(&snap, 1)).unwrap();
        assert_eq!(decoded, snap);
        assert!(decoded.traces.is_empty());
        assert_eq!(decoded.to_bytes(), snap.to_bytes());
    }

    #[test]
    fn version_two_dense_key_snapshots_still_load() {
        let snap = sample();
        let decoded = CampaignSnapshot::from_bytes(&legacy_bytes(&snap, 2)).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.to_bytes(), snap.to_bytes());
    }

    #[test]
    fn dense_maps_are_canonical_from_version_three() {
        let mut bytes = Vec::new();
        put_coverage(&mut bytes, &cov(&[3, 700]));
        assert_eq!(bytes.len(), 4 + 8 * 11, "no trailing zero words written");
        let mut padded = Vec::new();
        put_u32(&mut padded, 12);
        padded.extend_from_slice(&bytes[4..]);
        put_u64(&mut padded, 0);
        let e = take_coverage(&padded, &mut 0, VERSION).unwrap_err();
        assert!(e.message.contains("zero word"), "{e}");
        assert_eq!(take_coverage(&padded, &mut 0, 2).unwrap(), cov(&[3, 700]));
        // A count the input cannot hold fails before any reservation.
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        let e = take_coverage(&huge, &mut 0, VERSION).unwrap_err();
        assert!(e.message.contains("exceeds"), "{e}");
    }

    #[test]
    fn out_of_order_sections_are_rejected() {
        // "bug a" first appears as the shard's first crash title;
        // renaming it "bug c" puts it after "bug b".
        let mut bytes = sample().to_bytes();
        let at = bytes.windows(5).position(|w| w == b"bug a").unwrap();
        bytes[at + 4] = b'c';
        reseal(&mut bytes);
        let e = CampaignSnapshot::from_bytes(&bytes).unwrap_err();
        assert!(e.message.contains("crash titles"), "{e}");
        // The shard's triage-seen set is sig(5), sig(9); raising the
        // first site to 10 puts it after the second.
        let mut bytes = sample().to_bytes();
        let mut seen = Vec::new();
        put_signature(&mut seen, &sig(5));
        put_signature(&mut seen, &sig(9));
        let at = bytes.windows(seen.len()).position(|w| w == seen).unwrap();
        bytes[at + 3] = 10;
        reseal(&mut bytes);
        let e = CampaignSnapshot::from_bytes(&bytes).unwrap_err();
        assert!(e.message.contains("triage-seen"), "{e}");
    }

    #[test]
    fn a_far_single_block_admission_keeps_one_key_word() {
        // Census handlers reach past block 3,000,000. The dense diff
        // of this admission would be 46,876 words; the key is one,
        // and its checkpoint encoding is at most 16 bytes.
        let mut corpus = crate::corpus::Corpus::new(8, 0);
        assert_eq!(corpus.observe(prog(1), &cov(&[3_000_011]), None), 1);
        let entry = corpus.entry(0);
        assert_eq!(entry.contributed.words().len(), 1);
        let mut out = Vec::new();
        encode_corpus_entry(entry, &mut out);
        let mut program = Vec::new();
        entry.program.encode_into(&mut program);
        let key_bytes = out.len() - program.len() - 16;
        assert!(key_bytes <= 16, "key encodes in {key_bytes} bytes");
        let decoded = decode_corpus_entry(&out, &mut 0, VERSION).unwrap();
        assert_eq!(&decoded, entry);
    }
}
