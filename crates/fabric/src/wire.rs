//! Message set and frame codec.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! version: u32 LE | checksum: u64 LE (FNV-1a of everything after) | tag: u8 | body
//! ```
//!
//! Bodies reuse the `CampaignSnapshot` dense little-endian codec via
//! the public [`kgpt_fuzzer::fabric`] encode/decode functions, so the
//! delta wire format *is* the checkpoint framing. Stream transports
//! add their own length prefix (see [`crate::transport`]); the frame
//! itself is self-validating — a flipped bit anywhere fails the
//! checksum and the frame is discarded, to be recovered by the
//! sender's resend loop.

use crate::FabricError;
use kgpt_fuzzer::checkpoint::fnv1a;
use kgpt_fuzzer::fabric::{
    decode_config, decode_deltas, decode_patches, decode_seeds, decode_snapshots, encode_config,
    encode_deltas, encode_patches, encode_seeds, encode_snapshots, EpochDelta, EpochPatch,
};
use kgpt_fuzzer::{CampaignConfig, HubSeed, ShardSnapshot};

/// Frame format version. Bump on any layout change.
/// v2: delta frames carry a [`DeltaKind`] tag (full vs incremental).
/// v3: multi-tenant service — `Register` carries a stable worker id,
/// grants/deltas/replies are tenant-tagged, and a new [`Message::Retry`]
/// refuses a registration (quarantine or overload shedding) with a
/// retry-after measured in grant cycles.
/// v4: corpus-entry and hub-seed coverage keys are sparse word lists
/// (`kgpt_vkernel::SparseCoverage`), and dense coverage maps end in a
/// nonzero word.
pub const FRAME_VERSION: u32 = 4;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, FabricError> {
    let end = pos
        .checked_add(4)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| FabricError::Protocol(format!("truncated u32 at {pos}")))?;
    let v = u32::from_le_bytes(bytes[*pos..end].try_into().unwrap());
    *pos = end;
    Ok(v)
}

fn take_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, FabricError> {
    let end = pos
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| FabricError::Protocol(format!("truncated u64 at {pos}")))?;
    let v = u64::from_le_bytes(bytes[*pos..end].try_into().unwrap());
    *pos = end;
    Ok(v)
}

/// A granted lease: everything a worker needs to run its shard range
/// deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct Grant {
    /// Tenant (campaign) this lease belongs to — admission order on
    /// the service; always 0 under the single-tenant coordinator.
    pub tenant: u32,
    /// Coordinator-assigned lease id; echoed back in every delta.
    pub lease_id: u64,
    /// Range slot index (== registration order == range order).
    pub slot: u32,
    /// First shard of the range (inclusive).
    pub shard_lo: u32,
    /// One past the last shard of the range.
    pub shard_hi: u32,
    /// Total shard count of the campaign.
    pub shards_total: u32,
    /// Boundaries already committed; the worker's first delta is for
    /// `boundary + 1`.
    pub boundary: u64,
    /// Lease deadline budget, for the worker's stall pacing.
    pub lease_timeout_ms: u64,
    /// Fingerprint of the spec suite the campaign runs against; the
    /// worker must resolve it to the same compiled suite.
    pub spec_fp: u64,
    /// The campaign config (the deterministic identity, with
    /// `shards_total`, of the whole run).
    pub config: CampaignConfig,
    /// Committed boundary state of the range; empty for a fresh
    /// campaign (the worker builds fresh shard states itself).
    pub snapshots: Vec<ShardSnapshot>,
}

/// How a [`Message::Delta`] frame encodes its boundary state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Complete per-shard boundary snapshots.
    Full,
    /// Increments against the last acked boundary's committed state.
    Incremental,
}

/// The payload of a [`Message::Delta`] frame.
///
/// A full payload is always valid and is **mandatory** on a worker's
/// first boundary after a grant — fresh campaign or lease
/// reassignment alike — because no baseline has been agreed yet. The
/// grant's `boundary`/`snapshots` fields tell the worker exactly
/// which committed state the coordinator holds; every boundary the
/// worker gets acked after that establishes a shared baseline (the
/// post-import snapshots both sides hold byte-identically), against
/// which the next boundary may ship as increments.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaPayload {
    /// One full [`EpochDelta`] per shard of the range, ascending id.
    Full(Vec<EpochDelta>),
    /// One [`EpochPatch`] per shard of the range, ascending id,
    /// diffed against the previous acked boundary.
    Incremental(Vec<EpochPatch>),
}

impl DeltaPayload {
    /// Which kind of payload this is.
    #[must_use]
    pub fn kind(&self) -> DeltaKind {
        match self {
            DeltaPayload::Full(_) => DeltaKind::Full,
            DeltaPayload::Incremental(_) => DeltaKind::Incremental,
        }
    }

    /// Number of per-shard records carried.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            DeltaPayload::Full(d) => d.len(),
            DeltaPayload::Incremental(p) => p.len(),
        }
    }

    /// Whether the payload carries no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shard ids of the carried records, in payload order.
    #[must_use]
    pub fn shard_ids(&self) -> Vec<u32> {
        match self {
            DeltaPayload::Full(d) => d.iter().map(EpochDelta::shard_id).collect(),
            DeltaPayload::Incremental(p) => p.iter().map(EpochPatch::shard_id).collect(),
        }
    }
}

/// The fabric protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → coordinator: "I exist, lease me a range." Resent
    /// periodically until a [`Message::Grant`] arrives, so a dropped
    /// registration self-heals.
    Register {
        /// Stable worker identity across reconnects, chosen by the
        /// worker (0 = anonymous). The multi-tenant service keys its
        /// strike counters and quarantine on it; anonymous workers
        /// are never quarantined (they cannot be re-identified).
        worker_id: u64,
    },
    /// Coordinator → worker: a range lease.
    Grant(Grant),
    /// Coordinator → worker: registration refused for now — quarantine
    /// cooldown or overload shedding. The worker is *parked*, not
    /// dropped: it may re-register after `after_grants` further grant
    /// cycles have been issued by the service.
    Retry {
        /// Grant cycles to wait before re-registering.
        after_grants: u64,
        /// True when the refusal is a quarantine (strike limit
        /// reached); false when it is overload shedding (worker cap).
        quarantined: bool,
    },
    /// Worker → coordinator: one epoch's deltas for the whole range,
    /// at `boundary` (= grant boundary + epochs run since).
    Delta {
        /// Tenant the lease belongs to (echoed from the grant).
        tenant: u32,
        /// Lease the deltas belong to.
        lease_id: u64,
        /// The boundary these deltas complete.
        boundary: u64,
        /// The boundary state, full or incremental.
        deltas: DeltaPayload,
    },
    /// Coordinator → worker: boundary `boundary` merged; import
    /// `seeds` (the hub's newly retained seeds) and run the next
    /// epoch.
    Proceed {
        /// Tenant whose boundary merged.
        tenant: u32,
        /// The boundary just merged.
        boundary: u64,
        /// Hub seeds retained at this boundary, in publication order.
        seeds: Vec<HubSeed>,
    },
    /// Coordinator → worker: the final boundary merged — naturally or
    /// by graceful budget exhaustion; the campaign is complete for
    /// this tenant and the worker may exit.
    Finish {
        /// Tenant whose campaign completed.
        tenant: u32,
        /// The final boundary.
        boundary: u64,
    },
}

const TAG_REGISTER: u8 = 1;
const TAG_GRANT: u8 = 2;
const TAG_DELTA: u8 = 3;
const TAG_PROCEED: u8 = 4;
const TAG_FINISH: u8 = 5;
const TAG_RETRY: u8 = 6;

const KIND_FULL: u8 = 0;
const KIND_INCREMENTAL: u8 = 1;

impl Message {
    /// Encode to a self-validating frame.
    #[must_use]
    pub fn to_frame(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            Message::Register { worker_id } => {
                body.push(TAG_REGISTER);
                put_u64(&mut body, *worker_id);
            }
            Message::Grant(g) => {
                body.push(TAG_GRANT);
                put_u32(&mut body, g.tenant);
                put_u64(&mut body, g.lease_id);
                put_u32(&mut body, g.slot);
                put_u32(&mut body, g.shard_lo);
                put_u32(&mut body, g.shard_hi);
                put_u32(&mut body, g.shards_total);
                put_u64(&mut body, g.boundary);
                put_u64(&mut body, g.lease_timeout_ms);
                put_u64(&mut body, g.spec_fp);
                encode_config(&g.config, &mut body);
                encode_snapshots(&g.snapshots, &mut body);
            }
            Message::Retry {
                after_grants,
                quarantined,
            } => {
                body.push(TAG_RETRY);
                put_u64(&mut body, *after_grants);
                body.push(u8::from(*quarantined));
            }
            Message::Delta {
                tenant,
                lease_id,
                boundary,
                deltas,
            } => {
                body.push(TAG_DELTA);
                put_u32(&mut body, *tenant);
                put_u64(&mut body, *lease_id);
                put_u64(&mut body, *boundary);
                match deltas {
                    DeltaPayload::Full(d) => {
                        body.push(KIND_FULL);
                        encode_deltas(d, &mut body);
                    }
                    DeltaPayload::Incremental(p) => {
                        body.push(KIND_INCREMENTAL);
                        encode_patches(p, &mut body);
                    }
                }
            }
            Message::Proceed {
                tenant,
                boundary,
                seeds,
            } => {
                body.push(TAG_PROCEED);
                put_u32(&mut body, *tenant);
                put_u64(&mut body, *boundary);
                encode_seeds(seeds, &mut body);
            }
            Message::Finish { tenant, boundary } => {
                body.push(TAG_FINISH);
                put_u32(&mut body, *tenant);
                put_u64(&mut body, *boundary);
            }
        }
        let mut frame = Vec::with_capacity(12 + body.len());
        put_u32(&mut frame, FRAME_VERSION);
        put_u64(&mut frame, fnv1a(&body));
        frame.extend_from_slice(&body);
        frame
    }

    /// Decode and validate a frame (inverse of [`Message::to_frame`]).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::Protocol`] on a bad version, checksum,
    /// tag, or trailing bytes, and [`FabricError::Codec`] when a body
    /// fails the checkpoint codec. Receivers treat any error as a
    /// dropped frame: the sender's resend loop recovers it.
    pub fn from_frame(frame: &[u8]) -> Result<Message, FabricError> {
        let mut pos = 0usize;
        let version = take_u32(frame, &mut pos)?;
        if version != FRAME_VERSION {
            return Err(FabricError::Protocol(format!(
                "frame version {version}, expected {FRAME_VERSION}"
            )));
        }
        let checksum = take_u64(frame, &mut pos)?;
        let body = &frame[pos..];
        if fnv1a(body) != checksum {
            return Err(FabricError::Protocol("frame checksum mismatch".into()));
        }
        if body.is_empty() {
            return Err(FabricError::Protocol("empty frame body".into()));
        }
        let tag = body[0];
        let bytes = body;
        let mut pos = 1usize;
        let msg = match tag {
            TAG_REGISTER => {
                let worker_id = take_u64(bytes, &mut pos)?;
                Message::Register { worker_id }
            }
            TAG_GRANT => {
                let tenant = take_u32(bytes, &mut pos)?;
                let lease_id = take_u64(bytes, &mut pos)?;
                let slot = take_u32(bytes, &mut pos)?;
                let shard_lo = take_u32(bytes, &mut pos)?;
                let shard_hi = take_u32(bytes, &mut pos)?;
                let shards_total = take_u32(bytes, &mut pos)?;
                let boundary = take_u64(bytes, &mut pos)?;
                let lease_timeout_ms = take_u64(bytes, &mut pos)?;
                let spec_fp = take_u64(bytes, &mut pos)?;
                let config = decode_config(bytes, &mut pos)?;
                let snapshots = decode_snapshots(bytes, &mut pos)?;
                Message::Grant(Grant {
                    tenant,
                    lease_id,
                    slot,
                    shard_lo,
                    shard_hi,
                    shards_total,
                    boundary,
                    lease_timeout_ms,
                    spec_fp,
                    config,
                    snapshots,
                })
            }
            TAG_RETRY => {
                let after_grants = take_u64(bytes, &mut pos)?;
                let quarantined = *bytes
                    .get(pos)
                    .ok_or_else(|| FabricError::Protocol("truncated retry flag".into()))?;
                pos += 1;
                if quarantined > 1 {
                    return Err(FabricError::Protocol(format!(
                        "bad retry flag {quarantined}"
                    )));
                }
                Message::Retry {
                    after_grants,
                    quarantined: quarantined == 1,
                }
            }
            TAG_DELTA => {
                let tenant = take_u32(bytes, &mut pos)?;
                let lease_id = take_u64(bytes, &mut pos)?;
                let boundary = take_u64(bytes, &mut pos)?;
                let kind = *bytes
                    .get(pos)
                    .ok_or_else(|| FabricError::Protocol("truncated delta kind".into()))?;
                pos += 1;
                let deltas = match kind {
                    KIND_FULL => DeltaPayload::Full(decode_deltas(bytes, &mut pos)?),
                    KIND_INCREMENTAL => DeltaPayload::Incremental(decode_patches(bytes, &mut pos)?),
                    k => {
                        return Err(FabricError::Protocol(format!("unknown delta kind {k}")));
                    }
                };
                Message::Delta {
                    tenant,
                    lease_id,
                    boundary,
                    deltas,
                }
            }
            TAG_PROCEED => {
                let tenant = take_u32(bytes, &mut pos)?;
                let boundary = take_u64(bytes, &mut pos)?;
                let seeds = decode_seeds(bytes, &mut pos)?;
                Message::Proceed {
                    tenant,
                    boundary,
                    seeds,
                }
            }
            TAG_FINISH => {
                let tenant = take_u32(bytes, &mut pos)?;
                let boundary = take_u64(bytes, &mut pos)?;
                Message::Finish { tenant, boundary }
            }
            t => return Err(FabricError::Protocol(format!("unknown frame tag {t}"))),
        };
        if pos != bytes.len() {
            return Err(FabricError::Protocol(format!(
                "{} trailing bytes after frame body",
                bytes.len() - pos
            )));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpt_fuzzer::fabric::{diff_boundary, sample_boundary};

    /// Meaty full + incremental delta frames built from the fuzzer
    /// crate's boundary fixture.
    fn sample_delta_frames() -> [Message; 2] {
        let (base, deltas) = sample_boundary();
        let patches = diff_boundary(&base, deltas.clone()).expect("diffable fixture");
        [
            Message::Delta {
                tenant: 1,
                lease_id: 5,
                boundary: 2,
                deltas: DeltaPayload::Full(deltas),
            },
            Message::Delta {
                tenant: 1,
                lease_id: 5,
                boundary: 2,
                deltas: DeltaPayload::Incremental(patches),
            },
        ]
    }

    #[test]
    fn control_messages_round_trip() {
        for msg in [
            Message::Register { worker_id: 0 },
            Message::Register {
                worker_id: 0xC0FFEE,
            },
            Message::Retry {
                after_grants: 12,
                quarantined: true,
            },
            Message::Retry {
                after_grants: 3,
                quarantined: false,
            },
            Message::Proceed {
                tenant: 2,
                boundary: 9,
                seeds: Vec::new(),
            },
            Message::Finish {
                tenant: 2,
                boundary: 17,
            },
            Message::Delta {
                tenant: 0,
                lease_id: 3,
                boundary: 4,
                deltas: DeltaPayload::Full(Vec::new()),
            },
            Message::Delta {
                tenant: 0,
                lease_id: 3,
                boundary: 4,
                deltas: DeltaPayload::Incremental(Vec::new()),
            },
            Message::Grant(Grant {
                tenant: 7,
                lease_id: 1,
                slot: 0,
                shard_lo: 0,
                shard_hi: 4,
                shards_total: 8,
                boundary: 0,
                lease_timeout_ms: 5000,
                spec_fp: 0xfeed,
                config: CampaignConfig::default(),
                snapshots: Vec::new(),
            }),
        ] {
            let frame = msg.to_frame();
            assert_eq!(Message::from_frame(&frame).expect("round trip"), msg);
        }
    }

    #[test]
    fn delta_payloads_round_trip_both_kinds() {
        for msg in sample_delta_frames() {
            let frame = msg.to_frame();
            let back = Message::from_frame(&frame).expect("round trip");
            assert_eq!(back, msg);
            if let Message::Delta { deltas, .. } = &back {
                assert_eq!(deltas.shard_ids(), vec![0, 1]);
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let frame = Message::Finish {
            tenant: 1,
            boundary: 42,
        }
        .to_frame();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut damaged = frame.clone();
                damaged[byte] ^= 1 << bit;
                assert!(
                    Message::from_frame(&damaged).is_err(),
                    "flip byte {byte} bit {bit} must be rejected"
                );
            }
        }
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let frame = Message::Register { worker_id: 9 }.to_frame();
        for len in 0..frame.len() {
            assert!(Message::from_frame(&frame[..len]).is_err(), "len {len}");
        }
        let mut padded = frame;
        padded.push(0);
        assert!(Message::from_frame(&padded).is_err(), "trailing byte");
    }

    /// Fuzz-style robustness over both delta kinds: every truncation,
    /// every single bit flip, and seeded random garbage (corrupted
    /// suffixes, garbage prefixes, pure noise) must return `Err` —
    /// never panic, and never decode to a different message.
    #[test]
    fn mangled_delta_frames_never_panic_or_misdecode() {
        let mut rng = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            // xorshift64* — deterministic, no external RNG dep.
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for msg in sample_delta_frames() {
            let frame = msg.to_frame();
            for len in 0..frame.len() {
                assert!(Message::from_frame(&frame[..len]).is_err(), "len {len}");
            }
            for byte in 0..frame.len() {
                for bit in 0..8 {
                    let mut damaged = frame.clone();
                    damaged[byte] ^= 1 << bit;
                    assert!(
                        Message::from_frame(&damaged).is_err(),
                        "flip byte {byte} bit {bit} must be rejected"
                    );
                }
            }
            for _ in 0..500 {
                // Corrupt a random run of bytes somewhere in the frame.
                let mut damaged = frame.clone();
                let start = (next() as usize) % damaged.len();
                let run = 1 + (next() as usize) % 32;
                for b in damaged.iter_mut().skip(start).take(run) {
                    *b ^= (next() & 0xFF) as u8;
                }
                // A run of zero xor bytes leaves the frame intact, so
                // Ok is tolerated iff it decodes to the same message.
                match Message::from_frame(&damaged) {
                    Err(_) => {}
                    Ok(back) => assert_eq!(back, msg, "corruption must not mis-decode"),
                }
                // Garbage prefix ahead of a valid frame.
                let mut prefixed = vec![(next() & 0xFF) as u8; 1 + (next() as usize) % 16];
                prefixed.extend_from_slice(&frame);
                assert!(Message::from_frame(&prefixed).is_err(), "garbage prefix");
                // Pure noise of a plausible length.
                let noise: Vec<u8> = (0..13 + (next() as usize) % 64)
                    .map(|_| (next() & 0xFF) as u8)
                    .collect();
                assert!(Message::from_frame(&noise).is_err(), "pure noise");
            }
        }
    }
}
