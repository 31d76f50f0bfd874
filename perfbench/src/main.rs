//! The repository benchmark: four closed-loop workloads over the
//! KernelGPT reproduction, end-to-end metrics with spans off, and a
//! separate span run that attributes wall time to layers.
//!
//! `perfbench --workload <dm|deepchain|census|fabric> --seed <n>
//! --seconds <s> --trace <0|1>` prints one JSON object as its last
//! line. See `perfbench/README.md` for the workloads and metrics; run
//! it through `perfbench/run.py`, which builds it first.

mod shadow;
mod spans;

use kgpt_core::{GenerationReport, KernelGpt};
use kgpt_csrc::{deepchain, flagship, KernelCorpus};
use kgpt_extractor::{find_handlers, OpHandler};
use kgpt_fabric::{
    run_worker, ChannelTransport, Coordinator, CoordinatorOpts, FabricStats, Message, Transport,
    WorkerOpts,
};
use kgpt_fuzzer::{CampaignConfig, CampaignResult, CampaignSnapshot, ShardedCampaign, TraceStore};
use kgpt_llm::{ChatRequest, ChatResponse, LanguageModel, ModelKind, OracleModel, Usage};
use kgpt_syzlang::lowered::LoweredDb;
use kgpt_syzlang::{SpecCache, SpecDb, SpecFile};
use kgpt_vkernel::VKernel;
use shadow::{LoopStats, ShadowCampaign};
use spans::{median, nanos, percentile, self_time, Layer, SpanLog};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Logical shards of every campaign.
const SHARDS: u32 = 8;
/// Worker threads of every timed campaign (the benchmark targets a
/// 2-core machine: one process, at most two busy threads).
const THREADS: usize = 2;
/// Fabric worker connections.
const WORKERS: u32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Dm,
    DeepChain,
    Census,
    Fabric,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "dm" => Workload::Dm,
            "deepchain" => Workload::DeepChain,
            "census" => Workload::Census,
            "fabric" => Workload::Fabric,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Dm => "dm",
            Workload::DeepChain => "deepchain",
            Workload::Census => "census",
            Workload::Fabric => "fabric",
        }
    }

    /// The campaign every run of the workload executes (fixed exec
    /// budget: a closed-loop batch job).
    fn config(self, seed: u64) -> CampaignConfig {
        let base = CampaignConfig {
            seed,
            hub_top_k: 4,
            trace_ring: 32,
            ..CampaignConfig::default()
        };
        match self {
            Workload::Dm => CampaignConfig {
                execs: 4_096,
                max_prog_len: 8,
                hub_epoch: 128,
                ..base
            },
            Workload::DeepChain | Workload::Fabric => CampaignConfig {
                execs: 200_000,
                max_prog_len: 12,
                hub_epoch: 128,
                ..base
            },
            // One hub boundary (and so one checkpoint) at 2,048 execs:
            // dense per-entry coverage makes each snapshot ~250 MB
            // here, and peak RSS grows with the corpus.
            Workload::Census => CampaignConfig {
                execs: 4_096,
                max_prog_len: 8,
                hub_epoch: 256,
                ..base
            },
        }
    }

    /// Oracle draws per run: `generate_all` runs once per draw, and
    /// the generation metrics are means over the draws.
    fn oracle_draws(self) -> usize {
        match self {
            Workload::Census => 6,
            _ => 96,
        }
    }

    /// Campaigns every run makes at least (and over which `blocks` is
    /// averaged); more follow until `--seconds` is up.
    fn min_campaigns(self) -> u64 {
        match self {
            Workload::Dm => 12,
            Workload::DeepChain => 8,
            Workload::Census => 6,
            Workload::Fabric => 4,
        }
    }

    /// Cold set-ups per run in fresh child processes, beside the run's
    /// own set-up (their median is `setup_s`).
    fn setup_children(self) -> usize {
        match self {
            Workload::Census => 4,
            _ => 12,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

// ---- set-up ----------------------------------------------------------------

/// Everything a workload needs before its first exec.
struct Setup {
    kc: KernelCorpus,
    targets: Vec<OpHandler>,
    kernel: VKernel,
    report: GenerationReport,
    usage: Usage,
    suite: Vec<SpecFile>,
    db: Arc<SpecDb>,
    lowered: Arc<LoweredDb>,
    /// Set-up seconds, spec generation excluded.
    setup_s: f64,
    /// Seconds of the one `generate_all` call set-up made.
    specgen_s: f64,
}

/// Set the workload up from scratch: corpus, handler discovery,
/// kernel boot, spec generation (timed apart), cold compile and lower.
/// With `log`, each step is recorded as a span.
fn setup(w: Workload, seed: u64, start: Instant, mut log: Option<&mut SpanLog>) -> Setup {
    let span = |log: &mut Option<&mut SpanLog>, layer: Layer, ns: u64| {
        if let Some(log) = log.as_deref_mut() {
            log.add(0, layer, ns);
        }
    };
    let t = Instant::now();
    let kc = match w {
        Workload::Dm => KernelCorpus::from_blueprints(vec![flagship::dm()]),
        Workload::DeepChain | Workload::Fabric => KernelCorpus::from_blueprints(deepchain::suite()),
        Workload::Census => KernelCorpus::full(seed),
    };
    span(&mut log, Layer::CorpusBuild, nanos(t.elapsed()));
    let t = Instant::now();
    let handlers = find_handlers(kc.corpus());
    span(&mut log, Layer::Handlers, nanos(t.elapsed()));
    let targets: Vec<OpHandler> = match w {
        // The paper's generation targets: loaded handlers whose
        // existing specs are incomplete.
        Workload::Census => handlers
            .into_iter()
            .filter(|h| {
                let id = kgpt_llm::oracle::prefix_of_ops_var(&h.ops_var);
                kc.blueprint(&id)
                    .is_some_and(|bp| bp.loaded && kc.missing_fraction(bp) > 0.0)
            })
            .collect(),
        _ => handlers,
    };
    let t = Instant::now();
    let kernel = VKernel::boot(kc.blueprints().to_vec());
    span(&mut log, Layer::Boot, nanos(t.elapsed()));
    let (report, usage, specgen_s) = generate(&kc, &targets, &oracle(oracle_seed(seed, 0)));
    span(
        &mut log,
        Layer::SpecGen,
        nanos(Duration::from_secs_f64(specgen_s)),
    );
    let suite = match w {
        Workload::Census => {
            let mut suite = kc.existing_suite();
            suite.extend(report.specs());
            suite
        }
        _ => kc
            .blueprints()
            .iter()
            .map(|bp| bp.ground_truth_spec())
            .collect(),
    };
    let t = Instant::now();
    let db = SpecCache::global().get_or_build(&suite);
    span(&mut log, Layer::Compile, nanos(t.elapsed()));
    let t = Instant::now();
    let lowered = SpecCache::global().get_or_lower(&db, kc.consts());
    span(&mut log, Layer::Lower, nanos(t.elapsed()));
    let setup_s = start.elapsed().as_secs_f64() - specgen_s;
    Setup {
        kc,
        targets,
        kernel,
        report,
        usage,
        suite,
        db,
        lowered,
        setup_s,
        specgen_s,
    }
}

/// One `KernelGpt::generate_all` over `targets` with a fresh `model`
/// on [`THREADS`] threads. Returns the report, the model's metered
/// usage and the call's wall seconds.
fn generate(
    kc: &KernelCorpus,
    targets: &[OpHandler],
    model: &dyn LanguageModel,
) -> (GenerationReport, Usage, f64) {
    let t = Instant::now();
    let report = KernelGpt::new(model, kc.corpus())
        .with_threads(THREADS)
        .generate_all(targets, kc.consts());
    let wall = t.elapsed().as_secs_f64();
    (report, model.total_usage(), wall)
}

/// The GPT-4 oracle with `seed`.
fn oracle(seed: u64) -> OracleModel {
    OracleModel::new(ModelKind::Gpt4, seed)
}

/// A [`LanguageModel`] that delegates to an [`OracleModel`] and
/// records each call's interval and usage.
struct MeteredModel {
    inner: OracleModel,
    base: Instant,
    calls: Mutex<(Vec<(u64, u64)>, Usage)>,
}

impl MeteredModel {
    fn new(seed: u64) -> MeteredModel {
        MeteredModel {
            inner: oracle(seed),
            base: Instant::now(),
            calls: Mutex::new((Vec::new(), Usage::default())),
        }
    }
}

impl LanguageModel for MeteredModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        let s = nanos(self.base.elapsed());
        let r = self.inner.chat(request);
        let e = nanos(self.base.elapsed());
        let mut calls = self.calls.lock().expect("meter lock poisoned");
        calls.0.push((s, e));
        calls.1.add(r.usage);
        r
    }

    fn total_usage(&self) -> Usage {
        self.inner.total_usage()
    }
}

// ---- outputs ---------------------------------------------------------------

/// FNV-1a over a canonical rendering of the deterministic outputs.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a campaign's deterministic result: coverage, crash
/// tally, corpus size, triage report, and (when given) the trace
/// stores byte for byte.
fn result_digest(r: &CampaignResult, stores: Option<&[TraceStore]>) -> String {
    let cov: Vec<u64> = r.coverage.iter().collect();
    let mut s = format!(
        "blocks={} cov={:016x} crashes={:?} corpus={} fuel={} triage={:016x}",
        cov.len(),
        fnv(format!("{cov:?}").as_bytes()),
        r.crashes,
        r.corpus_size,
        r.fuel_exhausted,
        fnv(format!("{:?}", r.triage).as_bytes()),
    );
    if let Some(stores) = stores {
        let mut h = Vec::new();
        for st in stores {
            h.extend(st.to_bytes());
        }
        let _ = write!(s, " traces={:016x}", fnv(&h));
    }
    s
}

/// Digest of a spec-generation run: per-handler outcomes, usage, and
/// the fingerprint of the suite the workload fuzzes.
fn generation_digest(report: &GenerationReport, usage: &Usage, suite: &[SpecFile]) -> String {
    format!(
        "valid={} repaired={} report={:016x} tokens={}+{} requests={} suite={:016x}/{}",
        report.valid_count(),
        report.repaired_count(),
        fnv(format!("{report:?}").as_bytes()),
        usage.input_tokens,
        usage.output_tokens,
        usage.requests,
        SpecCache::fingerprint(suite),
        suite.len(),
    )
}

/// Scratch directory inside the checkout (next to the build output).
fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    target.join("perfbench-tmp")
}

/// Compare `digest` with the one an earlier run of the same workload
/// and seed stored, storing it if none exists. Returns whether they
/// agree.
fn check_reference(w: Workload, seed: u64, kind: &str, digest: &str) -> bool {
    let dir = scratch_dir().join("ref");
    let path = dir.join(format!("{}-{seed}-{kind}", w.name()));
    match std::fs::read_to_string(&path) {
        Ok(stored) if stored == digest => true,
        Ok(stored) => {
            eprintln!("perfbench: {kind} output differs from an earlier run of this seed:\n  was {stored}\n  now {digest}");
            false
        }
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            if std::fs::write(&tmp, digest).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
            true
        }
    }
}

/// The result object: `metrics` is a list of (name, value, unit).
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(spans::valid_metric_name(name), "invalid metric name {name}");
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    println!("{out}");
}

// ---- campaigns -------------------------------------------------------------

fn sharded<'k>(s: &'k Setup, config: &CampaignConfig, threads: usize) -> ShardedCampaign<'k> {
    ShardedCampaign::with_db(&s.kernel, Arc::clone(&s.db), s.kc.consts(), config.clone())
        .with_shards(SHARDS)
        .with_threads(threads)
}

/// Run the fabric: the real [`Coordinator`] on this thread and
/// [`WORKERS`] `run_worker`s on their own threads over in-memory
/// channels. `wrap` may wrap each coordinator-side connection.
fn run_fabric(
    s: &Setup,
    config: &CampaignConfig,
    wrap: &dyn Fn(ChannelTransport) -> Box<dyn Transport>,
) -> (CampaignResult, FabricStats) {
    let spec_fp = SpecCache::fingerprint(&s.suite);
    let kernel = &s.kernel;
    std::thread::scope(|scope| {
        let coordinator = Coordinator::new(
            config.clone(),
            CoordinatorOpts {
                shards: SHARDS,
                workers: WORKERS,
                lease_timeout: Duration::from_secs(30),
                spec_fp,
            },
        );
        let mut accept = || -> Option<Box<dyn Transport>> {
            let (coord_end, worker_end) = ChannelTransport::pair();
            let lowered = Arc::clone(&s.lowered);
            scope.spawn(move || {
                let opts = WorkerOpts {
                    reply_timeout: Duration::from_secs(10),
                    ..WorkerOpts::default()
                };
                run_worker(Box::new(worker_end), opts, |fp| {
                    (fp == spec_fp).then_some((kernel, lowered))
                })
                .expect("fabric worker protocol violation")
            });
            Some(wrap(coord_end))
        };
        coordinator.run(&mut accept).expect("fabric coordinator")
    })
}

/// Counters a [`Tap`] collects on the coordinator side of the wire.
#[derive(Default)]
struct TapStats {
    frames: u64,
    recv_wait: Duration,
    /// When each boundary reply (`Proceed`/`Finish`) left for slot 0.
    replies: Vec<Instant>,
}

/// A coordinator-side connection that counts frames, times blocking
/// receives and stamps boundary replies.
struct Tap {
    inner: ChannelTransport,
    stats: Arc<Mutex<TapStats>>,
    first: bool,
}

impl Transport for Tap {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let r = self.inner.send(frame);
        let mut st = self.stats.lock().expect("tap lock poisoned");
        st.frames += 1;
        if self.first
            && matches!(
                Message::from_frame(frame),
                Ok(Message::Proceed { .. } | Message::Finish { .. })
            )
        {
            st.replies.push(Instant::now());
        }
        r
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let t = Instant::now();
        let r = self.inner.recv_timeout(timeout);
        let mut st = self.stats.lock().expect("tap lock poisoned");
        st.recv_wait += t.elapsed();
        if matches!(r, Ok(Some(_))) {
            st.frames += 1;
        }
        r
    }
}

// ---- the end-to-end run ----------------------------------------------------

/// Outcome tallies: every campaign run and every fabric delta frame is
/// an operation whose output check must pass.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: output check failed: {what}");
        }
    }
}

/// Cold set-up in a fresh process (`--setup-only`): prints its
/// set-up seconds and generation digest.
fn setup_child(w: Workload, seed: u64, start: Instant) {
    let s = setup(w, seed, start, None);
    println!(
        "SETUP {:?} {}",
        s.setup_s,
        generation_digest(&s.report, &s.usage, &s.suite)
    );
}

fn spawn_setup(w: Workload, seed: u64) -> Option<(f64, String)> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--setup-only",
        ])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let stdout = String::from_utf8(out.stdout).ok()?;
    let line = stdout.lines().rev().find(|l| l.starts_with("SETUP "))?;
    let (secs, digest) = line["SETUP ".len()..].split_once(' ')?;
    Some((secs.parse().ok()?, digest.to_string()))
}

fn end_to_end(w: Workload, seed: u64, seconds: u64, start: Instant) -> ExitCode {
    let s = setup(w, seed, start, None);
    let mut tally = Tally::default();
    let gen_digest = generation_digest(&s.report, &s.usage, &s.suite);
    tally.check(
        check_reference(w, seed, "generation", &gen_digest),
        "generation report matches earlier runs",
    );

    // Cold set-ups and extra oracle draws are spread over the first
    // campaigns instead of bunched at the start: the machine's speed
    // drifts over seconds, and timings taken in one burst sample one
    // moment of it. One handler's token count depends on the draw, so
    // one draw alone would make the generation metrics a property of
    // the seed rather than of the program.
    let slots = w.min_campaigns() as usize;
    let slice = |n: usize, k: usize| k * n / slots..(k + 1) * n / slots;
    let mut setups = vec![s.setup_s];
    let mut gen_secs = s.specgen_s;
    let mut tokens = s.usage.input_tokens + s.usage.output_tokens;
    let mut valid = s.report.valid_count();

    // Campaigns with seeds drawn from the workload seed, until the
    // time is up: a few seeds' program shapes dominate a campaign's
    // rate, so the rate is taken over campaigns, not repeated on one.
    let ckpt_dir = scratch_dir().join(format!("ckpt-{}", std::process::id()));
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut rates = Vec::new();
    let mut blocks = 0usize;
    let mut peaks = Vec::new();
    let mut first_digest = None;
    let mut k = 0u64;
    while k < w.min_campaigns() || Instant::now() < deadline {
        let config = w.config(campaign_seed(seed, k));
        let (digest, r, secs, rss) = run_e2e_campaign(w, &s, &config, &ckpt_dir, &mut tally);
        peaks.push(rss);
        rates.push(config.execs as f64 / secs);
        if k < w.min_campaigns() {
            let slot = k as usize;
            blocks += r.blocks();
            for _ in slice(w.setup_children(), slot) {
                match spawn_setup(w, seed) {
                    Some((secs, digest)) => {
                        setups.push(secs);
                        tally.check(digest == gen_digest, "cold set-up reproduces generation");
                    }
                    None => tally.check(false, "set-up child ran"),
                }
            }
            let clock = BusyClock::start();
            for draw in slice(w.oracle_draws() - 1, slot) {
                let (report, usage, _) =
                    generate(&s.kc, &s.targets, &oracle(oracle_seed(seed, draw + 1)));
                tokens += usage.input_tokens + usage.output_tokens;
                valid += report.valid_count();
            }
            gen_secs += clock.elapsed();
        }
        tally.check(r.blocks() > 0, "campaign covered blocks");
        first_digest.get_or_insert(digest);
        k += 1;
    }
    let first_digest = first_digest.expect("at least one campaign ran");
    tally.check(
        check_reference(w, seed, "campaign", &first_digest),
        "campaign matches earlier runs of this seed",
    );
    if w != Workload::Fabric {
        // Determinism: the first campaign again, bit for bit. (Every
        // fabric campaign is already checked against its in-process
        // twin.)
        let config = w.config(campaign_seed(seed, 0));
        let (digest, _, _, _) = run_e2e_campaign(w, &s, &config, &ckpt_dir, &mut tally);
        tally.check(digest == first_digest, "campaign repeats exactly");
    }
    let campaigns = w.min_campaigns() as f64;
    let draws = w.oracle_draws() as f64;

    let metrics = [
        ("setup_s", median(&mut setups), "s"),
        ("specgen_s", gen_secs / draws, "s"),
        ("specs_valid", valid as f64 / draws, "count"),
        ("llm_tokens", tokens as f64 / draws, "tokens"),
        ("execs_per_s", median(&mut rates), "execs/s"),
        ("blocks", blocks as f64 / campaigns, "count"),
        ("peak_rss_mb", median(&mut peaks), "MiB"),
    ];
    print_result(tally.failed == 0, tally.attempted, tally.failed, &metrics);
    ExitCode::SUCCESS
}

/// One timed campaign of the end-to-end run: its output digest,
/// result, busy seconds of the campaign call ([`BusyClock`]) and the
/// peak resident set during it, in MiB.
fn run_e2e_campaign(
    w: Workload,
    s: &Setup,
    config: &CampaignConfig,
    ckpt_dir: &std::path::Path,
    tally: &mut Tally,
) -> (String, CampaignResult, f64, f64) {
    if w == Workload::Fabric {
        let ((r, stats), secs, rss) = timed(|| run_fabric(s, config, &|c| Box::new(c)));
        // Every delta frame is an operation; a rejected or
        // redelivered one failed.
        let frames = stats.boundaries * u64::from(WORKERS);
        tally.attempted += frames + stats.redelivered_frames + stats.rejected_frames;
        tally.failed += stats.redelivered_frames + stats.rejected_frames;
        let digest = result_digest(&r, None);
        let reference = result_digest(&sharded(s, config, THREADS).run(), None);
        tally.check(
            digest == reference,
            "fabric result equals the in-process campaign",
        );
        return (digest, r, secs, rss);
    }
    let mut c = sharded(s, config, THREADS);
    if w == Workload::Census {
        let _ = std::fs::create_dir_all(ckpt_dir);
        c = c.with_checkpoint(ckpt_dir.join("census.ckpt"));
    }
    let ((r, stores), secs, rss) = timed(|| c.run_traced());
    let _ = std::fs::remove_dir_all(ckpt_dir);
    (result_digest(&r, Some(&stores)), r, secs, rss)
}

/// Run `f`, returning its result, busy seconds and the peak resident
/// set (MiB) sampled every 5 ms while it ran.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = rss_mb();
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                peak = peak.max(rss_mb());
            }
            peak
        });
        let clock = BusyClock::start();
        let out = f();
        let secs = clock.elapsed();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        let peak = sampler.join().expect("rss sampler panicked").max(rss_mb());
        (out, secs, peak)
    })
}

/// Wall time less the CPU time the hypervisor stole from this
/// machine's CPUs meanwhile (the `steal` column of `/proc/stat`). On a
/// shared VM a neighbour's burst otherwise reads as a slowdown of the
/// program: with both CPUs busy and epoch barriers between them, a
/// stolen slice on either CPU delays the whole campaign.
struct BusyClock {
    start: Instant,
    steal: f64,
}

impl BusyClock {
    fn start() -> BusyClock {
        BusyClock {
            start: Instant::now(),
            steal: steal_s(),
        }
    }

    fn elapsed(&self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        (wall - (steal_s() - self.steal)).max(wall / 2.0)
    }
}

/// Seconds stolen from all CPUs so far (`USER_HZ` is 100 on Linux).
fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Current resident set of this process, in MiB.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |pages| pages * 4096.0 / (1024.0 * 1024.0))
}

/// SplitMix64 finalizer: well-spread derived seeds, so the 8
/// consecutive shard seeds of one campaign never overlap another's.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of the `k`-th campaign of a run.
fn campaign_seed(seed: u64, k: u64) -> u64 {
    mix(mix(seed) ^ k)
}

/// Seed of the `draw`-th oracle of a run.
fn oracle_seed(seed: u64, draw: usize) -> u64 {
    mix(mix(seed ^ 0x6f72_6163_6c65) ^ draw as u64)
}

// ---- the span run ----------------------------------------------------------

fn span_run(w: Workload, seed: u64, start: Instant) -> ExitCode {
    let config = w.config(campaign_seed(seed, 0));
    let mut log = SpanLog::default();
    let mut tally = Tally::default();

    // Set-up and spec generation, each step a span; generation runs
    // through the metered model.
    let phase = Instant::now();
    let s = setup(w, seed, start, Some(&mut log));
    let meter = MeteredModel::new(oracle_seed(seed, 0));
    let gen_start = nanos(meter.base.elapsed());
    let (report, usage, specgen_s) = generate(&s.kc, &s.targets, &meter);
    let gen_end = nanos(meter.base.elapsed());
    log.add(0, Layer::SpecGen, nanos(Duration::from_secs_f64(specgen_s)));
    let (llm_calls, llm_usage) = meter.calls.into_inner().expect("meter lock poisoned");
    let llm_busy: u64 = llm_calls.iter().map(|(a, b)| b - a).sum();
    let core_self = self_time(gen_start, gen_end, &llm_calls);
    tally.check(
        report == s.report && usage == s.usage && llm_usage == usage,
        "metered generation equals plain generation",
    );
    let gen_digest = generation_digest(&report, &usage, &s.suite);
    tally.check(
        check_reference(w, seed, "generation", &gen_digest),
        "generation report matches earlier runs",
    );
    let mut traced_wall = phase.elapsed().as_secs_f64();

    let mut loop_stats = LoopStats::default();
    let mut tap = TapStats::default();
    let mut fabric_stats = FabricStats::default();
    let mut ckpt_bytes = 0u64;
    let mut stores_kept = (0usize, 0u64);
    let overhead;

    // The real campaign, untraced on one thread: the fidelity
    // reference. It runs once more after the span loop, warm like it,
    // as the denominator of the tracing overhead.
    let (real, real_stores) = sharded(&s, &config, 1).run_traced();
    let real_wall = || {
        let t = Instant::now();
        let again = sharded(&s, &config, 1).run_traced();
        (t.elapsed().as_secs_f64(), again)
    };
    let real_digest = result_digest(&real, Some(&real_stores));
    let real_plain = result_digest(&real, None);
    // The fabric ships no trace stores; its runs are compared without.
    let stored = if w == Workload::Fabric {
        &real_plain
    } else {
        &real_digest
    };
    tally.check(
        check_reference(w, seed, "campaign", stored),
        "campaign matches earlier runs of this seed",
    );

    if w == Workload::Fabric {
        let t = Instant::now();
        let r = shadow::fabric_loop(&s.kernel, &s.lowered, &config, SHARDS, WORKERS, &mut log);
        let wall = t.elapsed().as_secs_f64();
        traced_wall += wall;
        let (real_s, _) = real_wall();
        overhead = wall / real_s;
        tally.check(
            result_digest(&r, None) == real_plain,
            "span fabric loop equals the in-process campaign",
        );
        let shared = Arc::new(Mutex::new(TapStats::default()));
        let slot = Mutex::new(0usize);
        let (r, stats) = run_fabric(&s, &config, &|c| {
            let mut n = slot.lock().expect("slot lock poisoned");
            *n += 1;
            Box::new(Tap {
                inner: c,
                stats: Arc::clone(&shared),
                first: *n == 1,
            })
        });
        tally.check(
            result_digest(&r, None) == real_plain,
            "tapped fabric equals the in-process campaign",
        );
        fabric_stats = stats;
        tap = std::mem::take(&mut *shared.lock().expect("tap lock poisoned"));
    } else {
        let shadow = ShadowCampaign {
            kernel: &s.kernel,
            lowered: Arc::clone(&s.lowered),
            config: config.clone(),
            shards: SHARDS,
            spec_fp: SpecCache::fingerprint(s.db.files()),
        };
        let t = Instant::now();
        let (r, stores) = shadow.run(&mut log, &mut loop_stats);
        let wall = t.elapsed().as_secs_f64();
        traced_wall += wall;
        let ok = result_digest(&r, Some(&stores)) == real_digest && stores == real_stores;
        tally.check(ok, "span run reproduces the real campaign");
        let (real_s, (again, again_stores)) = real_wall();
        overhead = wall / real_s;
        tally.check(
            result_digest(&again, Some(&again_stores)) == real_digest,
            "campaign repeats exactly",
        );
        stores_kept = (
            stores.iter().map(TraceStore::retained).sum(),
            loop_stats.encoded,
        );
        if w == Workload::Census {
            // Checkpoint layer: the real campaign halted at its first
            // boundary leaves a snapshot; load, encode and save it.
            let dir = scratch_dir().join(format!("ckpt-{}", std::process::id()));
            let _ = std::fs::create_dir_all(&dir);
            let path = dir.join("census.ckpt");
            let _ = sharded(&s, &config, THREADS)
                .with_checkpoint(&path)
                .with_halt_after(1)
                .run();
            let phase = Instant::now();
            let snap = log.time(0, Layer::CheckpointLoad, || CampaignSnapshot::load(&path));
            match snap {
                Ok(snap) => {
                    let bytes = log.time(0, Layer::CheckpointEncode, || snap.to_bytes());
                    let saved = log.time(0, Layer::CheckpointSave, || {
                        snap.save(&dir.join("again.ckpt"))
                    });
                    tally.check(saved.is_ok(), "checkpoint saves");
                    ckpt_bytes = bytes.len() as u64;
                }
                Err(e) => tally.check(false, &format!("checkpoint loads: {e}")),
            }
            traced_wall += phase.elapsed().as_secs_f64();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    let unattributed = spans::unattributed_frac(log.total_self_s(), traced_wall);
    let (gen_calls, gen_s) = log.layer(Layer::Gen);
    let (mut_calls, mut_s) = log.layer(Layer::Mutate);
    let (exec_calls, exec_s) = log.layer(Layer::Exec);
    let sec = |l: Layer| (l.metric(), log.layer(l).1, "s");
    let pct = |samples: &mut Vec<u64>, p: f64| {
        let p = spans::highest_supported_percentile(samples.len()).map_or(50.0, |h| h.min(p));
        percentile(samples, p) as f64
    };
    let mut exec_ns = std::mem::take(&mut loop_stats.exec_ns);
    let mut observe_ns = std::mem::take(&mut loop_stats.observe_ns);
    let mut gaps: Vec<u64> = tap.replies.windows(2).map(|p| nanos(p[1] - p[0])).collect();
    let metrics = vec![
        sec(Layer::CorpusBuild),
        sec(Layer::Handlers),
        sec(Layer::Boot),
        sec(Layer::Compile),
        sec(Layer::Lower),
        ("llm.requests", llm_usage.requests as f64, "count"),
        ("llm.input_tokens", llm_usage.input_tokens as f64, "tokens"),
        (
            "llm.output_tokens",
            llm_usage.output_tokens as f64,
            "tokens",
        ),
        ("llm.busy_s", llm_busy as f64 / 1e9, "s"),
        ("core.self_s", core_self as f64 / 1e9, "s"),
        ("core.repaired", report.repaired_count() as f64, "count"),
        ("fuzzer.gen.calls", gen_calls as f64, "count"),
        ("fuzzer.gen.self_s", gen_s, "s"),
        ("fuzzer.mutate.calls", mut_calls as f64, "count"),
        ("fuzzer.mutate.self_s", mut_s, "s"),
        ("fuzzer.exec.calls", exec_calls as f64, "count"),
        ("fuzzer.exec.self_s", exec_s, "s"),
        ("fuzzer.exec.p50_us", pct(&mut exec_ns, 50.0) / 1e3, "us"),
        ("fuzzer.exec.p99_us", pct(&mut exec_ns, 99.0) / 1e3, "us"),
        sec(Layer::Select),
        sec(Layer::Observe),
        (
            "fuzzer.corpus.observe_p99_us",
            pct(&mut observe_ns, 99.0) / 1e3,
            "us",
        ),
        (
            "fuzzer.corpus.admitted",
            loop_stats.admitted as f64,
            "count",
        ),
        ("fuzzer.crashes", real.unique_crashes() as f64, "count"),
        sec(Layer::TraceStream),
        sec(Layer::TraceProgram),
        sec(Layer::TraceRecord),
        (
            "trace.kept_frac",
            ratio(stores_kept.0 as f64, stores_kept.1 as f64),
            "ratio",
        ),
        (
            "trace.stream_bits_per_exec",
            ratio(loop_stats.stream_bits as f64, loop_stats.encoded as f64),
            "bits",
        ),
        sec(Layer::Minimize),
        (
            "triage.minimize_execs",
            loop_stats.minimize_execs as f64,
            "count",
        ),
        sec(Layer::HubPublish),
        sec(Layer::HubImport),
        ("fuzzer.hub.imported", loop_stats.imported as f64, "count"),
        ("fuzzer.checkpoint.bytes", ckpt_bytes as f64, "bytes"),
        sec(Layer::CheckpointEncode),
        sec(Layer::CheckpointSave),
        sec(Layer::CheckpointLoad),
        sec(Layer::LeaseEpoch),
        sec(Layer::Delta),
        sec(Layer::Merge),
        sec(Layer::LeaseImport),
        (
            "fabric.delta_bytes",
            fabric_stats.delta_bytes as f64,
            "bytes",
        ),
        ("fabric.frames", tap.frames as f64, "count"),
        ("fabric.recv_wait_s", tap.recv_wait.as_secs_f64(), "s"),
        ("fabric.boundary_p50_ms", pct(&mut gaps, 50.0) / 1e6, "ms"),
        ("fabric.boundary_p95_ms", pct(&mut gaps, 95.0) / 1e6, "ms"),
        ("span.unattributed_frac", unattributed, "ratio"),
        ("span.overhead", overhead, "ratio"),
    ];
    let ok = tally.failed == 0;
    print_result(ok, tally.attempted, tally.failed, &metrics);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <dm|deepchain|census|fabric> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        setup_child(args.workload, args.seed, start);
        return ExitCode::SUCCESS;
    }
    if args.trace {
        span_run(args.workload, args.seed, start)
    } else {
        end_to_end(args.workload, args.seed, args.seconds, start)
    }
}
