//! Flight-recorder wiring: per-shard trace capture during campaigns
//! and the deterministic time-travel replayer.
//!
//! The trace *formats* live in [`kgpt_trace`]; this module connects
//! them to the campaign loop. A `ShardTracer` rides inside each
//! `ShardState`, and capture is **by re-execution**: the replay
//! contract makes an exec's events a pure function of (program,
//! kernel, fuel), so the exec loop runs with the VM's
//! [`kgpt_vkernel::TraceLog`] disabled and the recorder keeps only
//! what a rebuild needs — the encoded program plus the header words
//! (epoch, exec ordinal, fuel limit, fuel verdict) — in a ring of at
//! most `trace_ring` recycled slots, plus the first exec of every
//! crash signature not yet pinned. A crash whose signature is already
//! pinned costs nothing at all.
//!
//! Event streams are rebuilt only at the read points — a checkpoint,
//! the end of the run, and the fault driver's pre-abort clone: the
//! pending programs are decoded and re-executed with tracing on, on a
//! scratch the exec loop never reads, delta-coded against the
//! kernel's [`CfgSuccessors`] table and filed in the shard's
//! [`TraceStore`] (bounded ring + pinned crash traces). The stores are
//! byte-identical to recording every exec eagerly. A re-execution
//! whose crash or fuel verdict differs from its recorded header is a
//! determinism bug and panics, naming the shard and exec; it is never
//! written as a trace. Because shard state evolves
//! schedule-independently, the stores are a pure function of
//! `(config, shards)` — the worker thread count never changes a single
//! recorded byte (pinned by tests in [`crate::shard`] and by the
//! golden digests below).
//!
//! [`replay_trace`] is the other direction: re-execute any recorded
//! exec from its self-contained header and cross-check the recorded
//! block stream against the live run, byte for byte. It shares the
//! traced re-execution helper with the rebuild.

use crate::exec::{execute_with, ExecScratch};
use crate::program::Program;
use kgpt_syzlang::lowered::{CfgRun, CfgSuccessors, LoweredDb};
use kgpt_trace::{decode_events, encode_events, ExecTrace, TraceError, TraceStore};
use kgpt_vkernel::{CrashSignature, TraceEvent, VKernel};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Build the delta-coding prediction table for a booted kernel.
///
/// The table is a pure function of the kernel's block layout
/// ([`VKernel::cfg_runs`]), so the recorder and any later replayer —
/// even in another process — derive the identical table and their
/// streams compare byte-for-byte.
#[must_use]
pub fn cfg_successors(kernel: &VKernel) -> CfgSuccessors {
    CfgSuccessors::build(
        kernel
            .cfg_runs()
            .into_iter()
            .map(|(start, len, next)| CfgRun { start, len, next })
            .collect(),
    )
}

/// One exec awaiting a rebuild: its encoded program and the header
/// words the re-execution must reproduce.
#[derive(Clone, Default)]
struct Pending {
    epoch: u64,
    exec: u64,
    exec_fuel: u64,
    fuel_exhausted: bool,
    crash: Option<CrashSignature>,
    /// [`Program::encode_into`] bytes; the buffer is recycled as the
    /// ring turns over.
    program: Vec<u8>,
}

/// Per-shard recorder: notes each exec's program and header, and
/// rebuilds the retained traces by re-execution at read points.
#[derive(Clone)]
pub(crate) struct ShardTracer {
    /// Shared prediction table (one per campaign, not per shard).
    cfg: Arc<CfgSuccessors>,
    /// The campaign's lowered IR, which rebuilds execute on.
    lowered: Arc<LoweredDb>,
    /// Spec-suite fingerprint stamped into every trace header.
    spec_fp: u64,
    /// Owning shard id, stamped into every trace header.
    shard: u32,
    /// Traces rebuilt at earlier read points.
    store: TraceStore,
    /// Executions seen over the recorder's lifetime.
    execs: u64,
    /// Most recent non-crashing execs since the last rebuild, oldest
    /// first; never longer than the store's ring capacity.
    ring: VecDeque<Pending>,
    /// First exec per crash signature the store has not pinned yet.
    pins: BTreeMap<CrashSignature, Pending>,
    /// Program encoding buffer, reused across execs.
    prog_buf: Vec<u8>,
}

impl ShardTracer {
    pub(crate) fn new(
        cfg: Arc<CfgSuccessors>,
        lowered: Arc<LoweredDb>,
        spec_fp: u64,
        shard: u32,
        cap: usize,
    ) -> ShardTracer {
        ShardTracer {
            cfg,
            lowered,
            spec_fp,
            shard,
            store: TraceStore::new(cap),
            execs: 0,
            ring: VecDeque::new(),
            pins: BTreeMap::new(),
            prog_buf: Vec::new(),
        }
    }

    /// Note the execution that just finished in `scratch` (run with
    /// tracing off): nothing for an already-pinned crash signature,
    /// otherwise the program and header words in a recycled slot.
    pub(crate) fn record(&mut self, scratch: &ExecScratch, prog: &Program, epoch: u64) {
        let exec = self.execs;
        self.execs += 1;
        let crash = scratch.crash().map(|c| c.signature);
        let mut slot = match crash {
            Some(sig) if self.store.pinned_for(&sig).is_some() || self.pins.contains_key(&sig) => {
                return;
            }
            Some(_) => Pending::default(),
            None if self.store.cap() == 0 => return,
            None if self.ring.len() == self.store.cap() => {
                self.ring.pop_front().expect("full ring")
            }
            None => Pending::default(),
        };
        slot.epoch = epoch;
        slot.exec = exec;
        slot.exec_fuel = scratch.state.fuel_limit();
        slot.fuel_exhausted = scratch.state.fuel_exhausted();
        slot.crash = crash;
        self.prog_buf.clear();
        prog.encode_into(&mut self.prog_buf);
        // Recycle the slot's buffer unless it would hold more than
        // twice the program's bytes: a ring of large programs (dm)
        // must not pin every slot at its high-water capacity.
        let n = self.prog_buf.len();
        if !(n..=2 * n).contains(&slot.program.capacity()) {
            slot.program = Vec::with_capacity(n);
        }
        slot.program.clear();
        slot.program.extend_from_slice(&self.prog_buf);
        match crash {
            Some(sig) => {
                self.pins.insert(sig, slot);
            }
            None => self.ring.push_back(slot),
        }
    }

    /// Re-execute every pending exec with tracing on — on a fresh
    /// scratch, never the exec loop's — and file the traces, leaving
    /// the store exactly as recording every exec eagerly would have.
    ///
    /// # Panics
    ///
    /// When a re-execution's crash or fuel verdict differs from the
    /// recorded header — a determinism bug, reported with the shard
    /// and exec ordinal rather than written as a trace.
    pub(crate) fn rebuild(&mut self, kernel: &VKernel) {
        let pending = (self.ring.len() + self.pins.len()) as u64;
        self.store
            .note_unrecorded(self.execs - self.store.execs_seen() - pending);
        if pending == 0 {
            return;
        }
        let mut replay = ExecScratch::from_lowered(Arc::clone(&self.lowered));
        let pins = std::mem::take(&mut self.pins).into_values();
        for p in pins.chain(std::mem::take(&mut self.ring)) {
            let trace = self.rebuild_one(kernel, &mut replay, p);
            self.store.record(trace);
        }
    }

    fn rebuild_one(&self, kernel: &VKernel, replay: &mut ExecScratch, p: Pending) -> ExecTrace {
        let mut trace = ExecTrace {
            shard: self.shard,
            epoch: p.epoch,
            exec: p.exec,
            exec_fuel: p.exec_fuel,
            spec_fingerprint: self.spec_fp,
            fuel_exhausted: p.fuel_exhausted,
            crash: p.crash,
            program: p.program,
            stream: Vec::new(),
            stream_bits: 0,
        };
        let prog = trace
            .decode_program()
            .expect("the recorder's own program encoding decodes");
        let live = traced_exec(kernel, replay, &self.cfg, &prog, trace.exec_fuel);
        assert!(
            live.crash == trace.crash && live.fuel_exhausted == trace.fuel_exhausted,
            "flight recorder: shard {} exec {} re-executed to crash {:?} / fuel exhausted {}, \
             but ran with crash {:?} / fuel exhausted {} — nondeterministic execution",
            trace.shard,
            trace.exec,
            live.crash,
            live.fuel_exhausted,
            trace.crash,
            trace.fuel_exhausted,
        );
        trace.stream = live.stream;
        trace.stream_bits = live.stream_bits;
        trace
    }

    /// Replace the retained traces (checkpoint resume); the restored
    /// store already counts every exec before the boundary.
    pub(crate) fn set_store(&mut self, store: TraceStore) {
        self.execs = store.execs_seen();
        self.ring.clear();
        self.pins.clear();
        self.store = store;
    }

    /// The retained traces, rebuilt up to the last exec.
    pub(crate) fn store(&mut self, kernel: &VKernel) -> &TraceStore {
        self.rebuild(kernel);
        &self.store
    }

    /// Surrender the retained traces, rebuilt up to the last exec.
    pub(crate) fn into_store(mut self, kernel: &VKernel) -> TraceStore {
        self.rebuild(kernel);
        self.store
    }
}

/// What one traced execution produced.
struct LiveRun {
    stream: Vec<u8>,
    stream_bits: u32,
    crash: Option<CrashSignature>,
    fuel_exhausted: bool,
}

/// Execute `prog` under `exec_fuel` with tracing on and delta-code its
/// events; the scratch's tracing flag and fuel limit are restored
/// afterwards. The one path by which both the recorder's rebuild and
/// [`replay_trace`] produce a stream.
fn traced_exec(
    kernel: &VKernel,
    scratch: &mut ExecScratch,
    cfg: &CfgSuccessors,
    prog: &Program,
    exec_fuel: u64,
) -> LiveRun {
    let was_enabled = scratch.state.trace().enabled();
    let prior_fuel = scratch.state.fuel_limit();
    scratch.state.trace_mut().set_enabled(true);
    scratch.state.set_fuel_limit(exec_fuel);
    execute_with(kernel, prog, scratch);
    let (stream, stream_bits) = encode_events(cfg, scratch.state.trace().events());
    let live = LiveRun {
        stream,
        stream_bits,
        crash: scratch.crash().map(|c| c.signature),
        fuel_exhausted: scratch.state.fuel_exhausted(),
    };
    scratch.state.set_fuel_limit(prior_fuel);
    scratch.state.trace_mut().set_enabled(was_enabled);
    live
}

/// Outcome of replaying one recorded exec against a live kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Whether the live run reproduced the recorded stream
    /// byte-for-byte, with matching crash signature and fuel verdict.
    pub identical: bool,
    /// Crash signature the trace recorded, if any.
    pub recorded_crash: Option<CrashSignature>,
    /// Crash signature the live replay produced, if any.
    pub live_crash: Option<CrashSignature>,
    /// Blocks retired in the recorded stream.
    pub blocks: u64,
}

/// Re-execute a recorded exec and cross-check it against its trace.
///
/// The trace header carries everything replay needs: the encoded
/// program, the fuel budget it ran under, and the fingerprint of the
/// spec suite it was generated against. The live run's event log is
/// re-encoded with the same prediction table and compared
/// byte-for-byte against the recorded stream; crash signatures and
/// the fuel-exhaustion verdict must match too. The scratch's tracing
/// flag and fuel limit are restored afterwards.
///
/// # Errors
///
/// Returns a [`TraceError`] when `spec_fp` (the live suite's
/// fingerprint) does not match the trace header, or when the embedded
/// program or stream fails strict decoding. A *divergent* replay is
/// not an error — it reports `identical == false`.
pub fn replay_trace(
    kernel: &VKernel,
    scratch: &mut ExecScratch,
    cfg: &CfgSuccessors,
    trace: &ExecTrace,
    spec_fp: u64,
) -> Result<ReplayOutcome, TraceError> {
    if trace.spec_fingerprint != spec_fp {
        return Err(TraceError::new(format!(
            "spec fingerprint mismatch: trace {:#x}, live suite {:#x}",
            trace.spec_fingerprint, spec_fp
        )));
    }
    let prog = trace.decode_program()?;
    // Strict well-formedness check of the recorded stream (and the
    // block tally for reporting) before anything executes.
    let recorded = decode_events(cfg, &trace.stream, trace.stream_bits)?;
    let blocks = recorded
        .iter()
        .map(|e| match e {
            TraceEvent::Block { len, .. } => u64::from(*len),
            _ => 0,
        })
        .sum();
    let live = traced_exec(kernel, scratch, cfg, &prog, trace.exec_fuel);
    Ok(ReplayOutcome {
        identical: live.stream == trace.stream
            && live.stream_bits == trace.stream_bits
            && live.crash == trace.crash
            && live.fuel_exhausted == trace.fuel_exhausted,
        recorded_crash: trace.crash,
        live_crash: live.crash,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::shard::ShardedCampaign;
    use kgpt_csrc::KernelCorpus;
    use kgpt_syzlang::{ConstDb, SpecCache, SpecFile};

    fn dm_setup() -> (VKernel, Vec<SpecFile>, ConstDb) {
        let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
        let suite = vec![kc.blueprints()[0].ground_truth_spec()];
        (
            VKernel::boot(vec![kgpt_csrc::flagship::dm()]),
            suite,
            kc.consts().clone(),
        )
    }

    #[test]
    fn every_retained_trace_replays_identically() {
        let (kernel, suite, consts) = dm_setup();
        let config = CampaignConfig {
            execs: 3000,
            seed: 1,
            ..CampaignConfig::default()
        };
        let campaign = ShardedCampaign::new(&kernel, &suite, &consts, config).with_shards(4);
        let (result, stores) = campaign.run_traced();
        let spec_fp = SpecCache::fingerprint(campaign.db().files());
        let cfg = cfg_successors(&kernel);
        let mut scratch = ExecScratch::from_lowered(campaign.lowered_shared());
        let mut replayed = 0usize;
        let mut crashing = 0usize;
        for store in &stores {
            for t in store.iter() {
                let out = replay_trace(&kernel, &mut scratch, &cfg, t, spec_fp).unwrap();
                assert!(
                    out.identical,
                    "trace shard={} exec={} diverged",
                    t.shard, t.exec
                );
                assert_eq!(out.live_crash, t.crash);
                replayed += 1;
                if t.crash.is_some() {
                    crashing += 1;
                }
            }
        }
        assert!(replayed > 0, "no traces retained");
        assert!(crashing > 0, "dm campaign should pin crash traces");
        // Every triaged signature has a pinned trace replaying to the
        // same CrashSignature.
        for e in result.triage.entries() {
            assert!(
                stores.iter().any(|s| s.pinned_for(&e.signature).is_some()),
                "{} has no pinned trace",
                e.title
            );
        }
    }

    /// FNV-1a over the concatenated serialized stores of one run.
    fn stores_digest(stores: &[TraceStore]) -> u64 {
        let bytes: Vec<u8> = stores.iter().flat_map(TraceStore::to_bytes).collect();
        kgpt_trace::fnv1a(&bytes)
    }

    fn deepchain_setup() -> (VKernel, Vec<SpecFile>, ConstDb) {
        let kc = KernelCorpus::from_blueprints(kgpt_csrc::deepchain::suite());
        let suite = kc
            .blueprints()
            .iter()
            .map(|bp| bp.ground_truth_spec())
            .collect();
        (
            VKernel::boot(kgpt_csrc::deepchain::suite()),
            suite,
            kc.consts().clone(),
        )
    }

    fn golden_config(ring: usize, execs: u64, max_prog_len: usize) -> CampaignConfig {
        CampaignConfig {
            execs,
            seed: 21,
            max_prog_len,
            hub_epoch: 128,
            trace_ring: ring,
            ..CampaignConfig::default()
        }
    }

    /// Digests of the serialized stores the recorder produced for
    /// fixed campaigns — dm and deepchain at rings 0, 1, 32 and 512,
    /// a checkpoint → resume run, and a shard-abort run. Pinned so
    /// any change to how stores are captured must reproduce them byte
    /// for byte.
    #[test]
    fn stores_match_the_golden_digests() {
        // Ring 0 records nothing: the digest of zero stores.
        const DM: [u64; 4] = [
            0xcbf2_9ce4_8422_2325,
            0x86cc_cbc4_1df6_a5ef,
            0x76cb_c77d_8d08_3d14,
            0xbd6a_c608_5781_85c9,
        ];
        const DEEPCHAIN: [u64; 4] = [
            0xcbf2_9ce4_8422_2325,
            0xe9a9_3da0_24c8_73d0,
            0x0ef2_cbfd_d16c_0cab,
            0x808c_8535_3f64_7ae2,
        ];
        const RINGS: [usize; 4] = [0, 1, 32, 512];
        let mut got = Vec::new();
        let (kernel, suite, consts) = dm_setup();
        for ring in RINGS {
            let c = ShardedCampaign::new(&kernel, &suite, &consts, golden_config(ring, 1500, 8))
                .with_shards(4)
                .with_threads(2);
            got.push(("dm", ring, stores_digest(&c.run_traced().1), DM));
        }
        // Checkpoint at the second boundary, then resume to the end:
        // the resumed stores equal the uninterrupted ring-32 run's.
        let dir = std::env::temp_dir().join(format!("kgpt_golden_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("golden.ckpt");
        let campaign = || {
            ShardedCampaign::new(&kernel, &suite, &consts, golden_config(32, 1500, 8))
                .with_shards(4)
                .with_checkpoint(&path)
        };
        let _ = campaign().with_halt_after(2).run_traced();
        let (_, resumed) = campaign().resume_traced(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        got.push(("dm resumed", 32, stores_digest(&resumed), DM));
        // A shard aborted mid-epoch is re-run from its boundary: the
        // stores equal the undisturbed run's.
        let aborted = ShardedCampaign::new(&kernel, &suite, &consts, golden_config(32, 1500, 8))
            .with_shards(4)
            .with_faults(
                crate::faults::FaultPlan::none()
                    .with(crate::faults::Fault::ShardAbort { epoch: 1, shard: 2 }),
            )
            .run_traced();
        got.push(("dm shard-abort", 32, stores_digest(&aborted.1), DM));
        let (kernel, suite, consts) = deepchain_setup();
        for ring in RINGS {
            let c = ShardedCampaign::new(&kernel, &suite, &consts, golden_config(ring, 6000, 12))
                .with_shards(4)
                .with_threads(2);
            got.push((
                "deepchain",
                ring,
                stores_digest(&c.run_traced().1),
                DEEPCHAIN,
            ));
        }
        for (name, ring, digest, table) in got {
            let want = table[RINGS.iter().position(|&r| r == ring).unwrap()];
            assert_eq!(digest, want, "{name} ring {ring}: {digest:#018x}");
        }
    }

    #[test]
    #[should_panic(expected = "shard 3 exec 0")]
    fn a_rebuild_that_contradicts_its_header_fails_loudly() {
        let (kernel, suite, consts) = dm_setup();
        let db = SpecCache::global().get_or_build(&suite);
        let lowered = SpecCache::global().get_or_lower(&db, &consts);
        let mut scratch = ExecScratch::from_lowered(Arc::clone(&lowered));
        let prog = crate::gen::Generator::from_lowered(Arc::clone(&lowered), 1).gen_program(4);
        execute_with(&kernel, &prog, &mut scratch);
        let table = Arc::new(cfg_successors(&kernel));
        let mut tracer = ShardTracer::new(table, lowered, 0, 3, 4);
        tracer.record(&scratch, &prog, 0);
        // Claim the opposite fuel verdict: the re-execution cannot
        // reproduce it, and the recorder must refuse to store it.
        for p in tracer.ring.iter_mut().chain(tracer.pins.values_mut()) {
            p.fuel_exhausted = !p.fuel_exhausted;
        }
        tracer.rebuild(&kernel);
    }

    #[test]
    fn replay_refuses_the_wrong_suite_fingerprint() {
        let (kernel, suite, consts) = dm_setup();
        let config = CampaignConfig {
            execs: 200,
            seed: 5,
            ..CampaignConfig::default()
        };
        let campaign = ShardedCampaign::new(&kernel, &suite, &consts, config).with_shards(1);
        let (_, stores) = campaign.run_traced();
        let cfg = cfg_successors(&kernel);
        let mut scratch = ExecScratch::from_lowered(campaign.lowered_shared());
        let t = stores[0].iter().next().expect("a retained trace");
        let err = replay_trace(&kernel, &mut scratch, &cfg, t, 0xDEAD).unwrap_err();
        assert!(err.message.contains("fingerprint"), "{err}");
    }

    #[test]
    fn tampered_streams_are_detected_as_divergent_or_malformed() {
        let (kernel, suite, consts) = dm_setup();
        let config = CampaignConfig {
            execs: 500,
            seed: 2,
            ..CampaignConfig::default()
        };
        let campaign = ShardedCampaign::new(&kernel, &suite, &consts, config).with_shards(1);
        let (_, stores) = campaign.run_traced();
        let spec_fp = SpecCache::fingerprint(campaign.db().files());
        let cfg = cfg_successors(&kernel);
        let mut scratch = ExecScratch::from_lowered(campaign.lowered_shared());
        let t = stores[0].iter().next().expect("a retained trace").clone();
        for bit in 0..t.stream_bits {
            let mut bad = t.clone();
            bad.stream[(bit / 8) as usize] ^= 1 << (bit % 8);
            // A strict-decode `Err` means the codec caught the flip
            // first; a successful replay must at least be flagged
            // non-identical.
            if let Ok(out) = replay_trace(&kernel, &mut scratch, &cfg, &bad, spec_fp) {
                assert!(!out.identical, "flipped bit {bit} replayed identically");
            }
        }
    }
}
