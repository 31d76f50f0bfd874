//! The span run's campaign drivers: the benchmark's own copies of the
//! loops `ShardedCampaign` and the fabric run, written against the
//! layers' public calls so that each call can be timed from outside.
//!
//! The copies must stay byte-for-byte faithful: [`ShadowCampaign`]
//! uses the same shard seeds, `shard_execs` budgets, hub order, triage
//! drain order and trace headers as `ShardedCampaign::run_traced`,
//! and the caller compares its result and trace stores with the real
//! campaign's. A refactor of the program that changes the loop shows
//! up as a fidelity failure, never as silently wrong layer numbers.

use crate::spans::{nanos, EpochAcc, Layer, SpanLog};
use kgpt_fuzzer::fabric::{
    apply_patches, decode_deltas, decode_patches, diff_boundary, encode_deltas, encode_patches,
    shard_execs,
};
use kgpt_fuzzer::{
    execute_with, minimize_program, CampaignConfig, CampaignMerge, CampaignResult, Corpus,
    CrashTally, ExecScratch, Generator, LeaseRunner, Program, SeedHub, TraceStore, TriageEntry,
    TriageReport,
};
use kgpt_syzlang::lowered::{CfgSuccessors, LoweredDb};
use kgpt_trace::{encode_events, ExecTrace};
use kgpt_vkernel::{CoverageMap, CrashSignature, VKernel};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Corpus size cap of a campaign shard (`CORPUS_CAP` in
/// `kgpt_fuzzer::campaign`; the fidelity check catches a change).
const CORPUS_CAP: usize = 2048;

/// Per-exec samples and counters the span run reports beside spans.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub exec_ns: Vec<u64>,
    pub observe_ns: Vec<u64>,
    pub admitted: u64,
    pub imported: u64,
    pub minimize_execs: u64,
    pub stream_bits: u64,
    pub encoded: u64,
}

struct Capture {
    signature: CrashSignature,
    title: String,
    cve: Option<String>,
    program: Program,
    epoch: u64,
}

struct Tracer {
    cfg: Arc<CfgSuccessors>,
    spec_fp: u64,
    store: TraceStore,
    prog_buf: Vec<u8>,
}

struct Shard {
    id: u32,
    generator: Generator,
    scratch: ExecScratch,
    corpus: Corpus,
    crashes: CrashTally,
    seen: BTreeSet<CrashSignature>,
    fresh: Vec<Capture>,
    counts: BTreeMap<CrashSignature, u64>,
    epoch: u64,
    max_prog_len: usize,
    rng_pick: u64,
    remaining: u64,
    fuel_exhausted: u64,
    tracer: Option<Tracer>,
}

impl Shard {
    fn new(lowered: &Arc<LoweredDb>, config: &CampaignConfig, id: u32, execs: u64) -> Shard {
        let seed = config.seed.wrapping_add(u64::from(id));
        let mut generator = Generator::from_lowered(Arc::clone(lowered), seed);
        if let Some(enabled) = &config.enabled {
            generator = generator.with_enabled(enabled.clone());
        }
        let mut scratch = ExecScratch::from_lowered(Arc::clone(lowered));
        scratch.state.set_fuel_limit(config.exec_fuel);
        Shard {
            id,
            generator,
            scratch,
            corpus: Corpus::new(CORPUS_CAP, seed),
            crashes: CrashTally::new(),
            seen: BTreeSet::new(),
            fresh: Vec::new(),
            counts: BTreeMap::new(),
            epoch: 0,
            max_prog_len: config.max_prog_len,
            rng_pick: seed,
            remaining: execs,
            fuel_exhausted: 0,
            tracer: None,
        }
    }

    /// One epoch of the coverage-guided loop, each layer call timed.
    fn run_epoch(&mut self, kernel: &VKernel, budget: u64, acc: &mut EpochAcc, st: &mut LoopStats) {
        let n = budget.min(self.remaining);
        for _ in 0..n {
            self.rng_pick = self
                .rng_pick
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let fresh = self.corpus.is_empty() || self.rng_pick.is_multiple_of(4);
            let (prog, parent) = if fresh {
                let t = Instant::now();
                let prog = self.generator.gen_program(self.max_prog_len);
                acc.close(Layer::Gen, t);
                (prog, None)
            } else {
                let t = Instant::now();
                let idx = self.corpus.select().expect("non-empty corpus");
                acc.close(Layer::Select, t);
                let t = Instant::now();
                let prog = self
                    .generator
                    .mutate(self.corpus.program(idx), self.max_prog_len);
                acc.close(Layer::Mutate, t);
                (prog, Some(idx))
            };
            let t = Instant::now();
            execute_with(kernel, &prog, &mut self.scratch);
            st.exec_ns.push(acc.close(Layer::Exec, t));
            if self.scratch.state.fuel_exhausted() {
                self.fuel_exhausted += 1;
            }
            if let Some(c) = self.scratch.crash() {
                let e = self
                    .crashes
                    .entry(c.title.clone())
                    .or_insert_with(|| (0, c.cve.clone()));
                e.0 += 1;
                *self.counts.entry(c.signature).or_insert(0) += 1;
                if self.seen.insert(c.signature) {
                    self.fresh.push(Capture {
                        signature: c.signature,
                        title: c.title.clone(),
                        cve: c.cve.clone(),
                        program: prog.clone(),
                        epoch: self.epoch,
                    });
                }
            }
            if let Some(tr) = &mut self.tracer {
                let t = Instant::now();
                let (stream, stream_bits) =
                    encode_events(&tr.cfg, self.scratch.state.trace().events());
                acc.close(Layer::TraceStream, t);
                let t = Instant::now();
                tr.prog_buf.clear();
                prog.encode_into(&mut tr.prog_buf);
                acc.close(Layer::TraceProgram, t);
                st.stream_bits += u64::from(stream_bits);
                st.encoded += 1;
                let t = Instant::now();
                let exec = tr.store.execs_seen();
                tr.store.record(ExecTrace {
                    shard: self.id,
                    epoch: self.epoch,
                    exec,
                    exec_fuel: self.scratch.state.fuel_limit(),
                    spec_fingerprint: tr.spec_fp,
                    fuel_exhausted: self.scratch.state.fuel_exhausted(),
                    crash: self.scratch.crash().map(|c| c.signature),
                    program: tr.prog_buf.clone(),
                    stream,
                    stream_bits,
                });
                acc.close(Layer::TraceRecord, t);
            }
            let t = Instant::now();
            if self.corpus.observe(prog, self.scratch.coverage(), parent) > 0 {
                st.admitted += 1;
            }
            st.observe_ns.push(acc.close(Layer::Observe, t));
        }
        self.remaining -= n;
        self.epoch += 1;
    }
}

/// The in-process campaign, driven one thread at a time from the
/// benchmark: the loop of `ShardedCampaign::run_traced` without fault
/// injection or checkpoints.
pub struct ShadowCampaign<'k> {
    pub kernel: &'k VKernel,
    pub lowered: Arc<LoweredDb>,
    pub config: CampaignConfig,
    pub shards: u32,
    pub spec_fp: u64,
}

impl ShadowCampaign<'_> {
    /// Run to completion, recording spans into `log`.
    pub fn run(&self, log: &mut SpanLog, st: &mut LoopStats) -> (CampaignResult, Vec<TraceStore>) {
        let mut shards: Vec<Shard> = (0..self.shards)
            .map(|i| {
                Shard::new(
                    &self.lowered,
                    &self.config,
                    i,
                    shard_execs(&self.config, self.shards, i),
                )
            })
            .collect();
        if self.config.trace_ring > 0 {
            let cfg = Arc::new(kgpt_fuzzer::cfg_successors(self.kernel));
            for s in &mut shards {
                s.scratch.state.trace_mut().set_enabled(true);
                s.tracer = Some(Tracer {
                    cfg: Arc::clone(&cfg),
                    spec_fp: self.spec_fp,
                    store: TraceStore::new(self.config.trace_ring),
                    prog_buf: Vec::new(),
                });
            }
        }
        let budget = match self.config.hub_epoch {
            0 => u64::MAX,
            e => e,
        };
        let mut hub = SeedHub::new(self.config.hub_top_k);
        let mut report = TriageReport::new();
        let mut min_scratch = ExecScratch::from_lowered(Arc::clone(&self.lowered));
        let mut epoch = 0u64;
        loop {
            for s in &mut shards {
                let mut acc = EpochAcc::default();
                s.run_epoch(self.kernel, budget, &mut acc, st);
                log.fold(s.id, epoch, &acc);
            }
            for s in &mut shards {
                self.drain(s, &mut min_scratch, &mut report, log, epoch, st);
            }
            epoch += 1;
            if shards.iter().all(|s| s.remaining == 0) {
                break;
            }
            for s in &shards {
                log.time(epoch, Layer::HubPublish, || hub.publish(s.id, &s.corpus));
            }
            for s in &mut shards {
                st.imported += log.time(epoch, Layer::HubImport, || {
                    hub.import_into(s.id, &mut s.corpus)
                }) as u64;
            }
        }
        let mut coverage = CoverageMap::new();
        let mut crashes = CrashTally::new();
        let mut corpus_size = 0;
        let mut fuel_exhausted = 0;
        let mut stores = Vec::new();
        for s in shards {
            fuel_exhausted += s.fuel_exhausted;
            stores.extend(s.tracer.map(|t| t.store));
            for (title, (count, cve)) in s.crashes {
                crashes.entry(title).or_insert((0, cve)).0 += count;
            }
            let (cov, size) = s.corpus.into_coverage();
            coverage.merge(&cov);
            corpus_size += size;
        }
        let result = CampaignResult {
            coverage,
            crashes,
            execs: self.config.execs,
            corpus_size,
            triage: report,
            fuel_exhausted,
        };
        (result, stores)
    }

    /// The boundary triage drain of one shard: first publisher wins,
    /// only an admitted capture is minimized.
    fn drain(
        &self,
        s: &mut Shard,
        scratch: &mut ExecScratch,
        report: &mut TriageReport,
        log: &mut SpanLog,
        epoch: u64,
        st: &mut LoopStats,
    ) {
        for cap in s.fresh.drain(..) {
            if report.contains(&cap.signature) {
                continue;
            }
            let (outcome, reproducible) = log.time(epoch, Layer::Minimize, || {
                minimize_program(self.kernel, scratch, &cap.program, cap.signature)
            });
            st.minimize_execs += outcome.execs;
            report.admit(TriageEntry {
                signature: cap.signature,
                title: cap.title,
                cve: cap.cve,
                first_epoch: cap.epoch,
                first_shard: s.id,
                count: 0,
                raw: cap.program,
                minimized: outcome.program,
                minimize_execs: outcome.execs,
                reproducible,
            });
        }
        for (sig, n) in std::mem::take(&mut s.counts) {
            report.add_count(&sig, n);
        }
    }
}

/// The fabric's deterministic halves driven in lockstep on one
/// thread: `workers` [`LeaseRunner`]s over contiguous shard ranges,
/// each boundary diffed against the committed baseline and encoded
/// (as a worker does), then decoded, re-based and merged by
/// [`CampaignMerge`] (as the coordinator does). No transport: the wire
/// is measured separately around the real `Coordinator`.
pub fn fabric_loop(
    kernel: &VKernel,
    lowered: &Arc<LoweredDb>,
    config: &CampaignConfig,
    shards: u32,
    workers: u32,
    log: &mut SpanLog,
) -> CampaignResult {
    let mut merge = CampaignMerge::new(config.clone(), shards);
    let ranges: Vec<(u32, u32)> = (0..workers)
        .map(|w| (shards * w / workers, shards * (w + 1) / workers))
        .collect();
    let mut runners: Vec<LeaseRunner> = ranges
        .iter()
        .map(|&(lo, hi)| LeaseRunner::fresh(lowered, config, shards, lo, hi))
        .collect();
    let mut baselines: Vec<Option<Vec<kgpt_fuzzer::ShardSnapshot>>> =
        ranges.iter().map(|_| None).collect();
    let mut epoch = 0u64;
    loop {
        let mut deltas = Vec::new();
        for (w, runner) in runners.iter_mut().enumerate() {
            let fresh = log.time(epoch, Layer::LeaseEpoch, || runner.run_epoch(kernel));
            let t = Instant::now();
            let mut frame = Vec::new();
            let incremental = match baselines[w].take() {
                Some(base) => match diff_boundary(&base, fresh) {
                    Ok(patches) => {
                        encode_patches(&patches, &mut frame);
                        true
                    }
                    Err(full) => {
                        encode_deltas(&full, &mut frame);
                        false
                    }
                },
                None => {
                    encode_deltas(&fresh, &mut frame);
                    false
                }
            };
            log.add(epoch, Layer::Delta, nanos(t.elapsed()));
            let t = Instant::now();
            let mut pos = 0;
            let decoded = if incremental {
                let (lo, hi) = ranges[w];
                let patches = decode_patches(&frame, &mut pos).expect("patch frame decodes");
                apply_patches(&merge.snapshots(lo, hi), patches).expect("patches fit baseline")
            } else {
                decode_deltas(&frame, &mut pos).expect("delta frame decodes")
            };
            log.add(epoch, Layer::Merge, nanos(t.elapsed()));
            deltas.extend(decoded);
        }
        let outcome = log
            .time(epoch, Layer::Merge, || merge.apply_boundary(deltas))
            .expect("boundary merges");
        epoch += 1;
        if outcome.finished {
            break;
        }
        for (w, runner) in runners.iter_mut().enumerate() {
            baselines[w] = Some(log.time(epoch, Layer::LeaseImport, || {
                runner.import(&outcome.seeds);
                runner.snapshots()
            }));
        }
    }
    merge.finish().expect("campaign finishes")
}
