//! Span bookkeeping for the per-layer run, and the arithmetic the
//! benchmark reports from it.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions; the program itself is not instrumented. A span
//! belongs to a (shard, epoch) parent. Per-exec spans are summed into a
//! small per-epoch array and folded into a map keyed by
//! (shard, epoch, layer) when the epoch ends, so memory grows with the
//! number of epochs, not with the number of execs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The layers the span run times. Each is named after the crate and
/// module whose public call it wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    CorpusBuild,
    Handlers,
    Boot,
    Compile,
    Lower,
    SpecGen,
    Select,
    Gen,
    Mutate,
    Exec,
    Observe,
    TraceStream,
    TraceProgram,
    TraceRecord,
    Minimize,
    HubPublish,
    HubImport,
    CheckpointEncode,
    CheckpointSave,
    CheckpointLoad,
    LeaseEpoch,
    Delta,
    Merge,
    LeaseImport,
}

impl Layer {
    /// Metric name of the layer's time.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::CorpusBuild => "csrc.corpus_s",
            Layer::Handlers => "extractor.handlers_s",
            Layer::Boot => "vkernel.boot_s",
            Layer::Compile => "syzlang.compile_s",
            Layer::Lower => "syzlang.lower_s",
            Layer::SpecGen => "core.generate_all_s",
            Layer::Select => "fuzzer.corpus.select_s",
            Layer::Gen => "fuzzer.gen.self_s",
            Layer::Mutate => "fuzzer.mutate.self_s",
            Layer::Exec => "fuzzer.exec.self_s",
            Layer::Observe => "fuzzer.corpus.observe_s",
            Layer::TraceStream => "trace.stream_s",
            Layer::TraceProgram => "trace.program_s",
            Layer::TraceRecord => "trace.record_s",
            Layer::Minimize => "triage.minimize_s",
            Layer::HubPublish => "fuzzer.hub.publish_s",
            Layer::HubImport => "fuzzer.hub.import_s",
            Layer::CheckpointEncode => "fuzzer.checkpoint.encode_s",
            Layer::CheckpointSave => "fuzzer.checkpoint.save_s",
            Layer::CheckpointLoad => "fuzzer.checkpoint.load_s",
            Layer::LeaseEpoch => "fabric.lease_epoch_s",
            Layer::Delta => "fabric.delta_s",
            Layer::Merge => "fabric.merge_s",
            Layer::LeaseImport => "fabric.import_s",
        }
    }

    /// Every layer, in reporting order.
    pub const ALL: [Layer; 24] = [
        Layer::CorpusBuild,
        Layer::Handlers,
        Layer::Boot,
        Layer::Compile,
        Layer::Lower,
        Layer::SpecGen,
        Layer::Select,
        Layer::Gen,
        Layer::Mutate,
        Layer::Exec,
        Layer::Observe,
        Layer::TraceStream,
        Layer::TraceProgram,
        Layer::TraceRecord,
        Layer::Minimize,
        Layer::HubPublish,
        Layer::HubImport,
        Layer::CheckpointEncode,
        Layer::CheckpointSave,
        Layer::CheckpointLoad,
        Layer::LeaseEpoch,
        Layer::Delta,
        Layer::Merge,
        Layer::LeaseImport,
    ];
}

/// Count and summed self time of one layer under one parent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub nanos: u64,
}

/// Per-epoch accumulator for one shard: the hot loop adds to an array
/// indexed by layer, with no map lookup per exec.
#[derive(Debug, Clone)]
pub struct EpochAcc {
    aggs: [Agg; Layer::ALL.len()],
}

impl Default for EpochAcc {
    fn default() -> EpochAcc {
        EpochAcc {
            aggs: [Agg::default(); Layer::ALL.len()],
        }
    }
}

impl EpochAcc {
    /// Close a span of `layer` that started at `start`; returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, layer: Layer, start: Instant) -> u64 {
        let ns = nanos(start.elapsed());
        let a = &mut self.aggs[layer as usize];
        a.calls += 1;
        a.nanos += ns;
        ns
    }
}

/// All spans of one span run, keyed by (shard, epoch, layer). Setup
/// and driver-level spans use [`DRIVER`] as their shard.
#[derive(Debug, Default)]
pub struct SpanLog {
    aggs: BTreeMap<(u32, u64, Layer), Agg>,
}

/// Pseudo-shard id of spans the driving thread records outside any
/// shard (setup, triage drains, hub exchange, checkpoint, merge).
pub const DRIVER: u32 = u32::MAX;

impl SpanLog {
    /// Fold the spans one shard recorded during one epoch.
    pub fn fold(&mut self, shard: u32, epoch: u64, acc: &EpochAcc) {
        for (layer, a) in Layer::ALL.iter().zip(acc.aggs.iter()) {
            if a.calls == 0 {
                continue;
            }
            let e = self.aggs.entry((shard, epoch, *layer)).or_default();
            e.calls += a.calls;
            e.nanos += a.nanos;
        }
    }

    /// Record one driver-level span directly.
    pub fn add(&mut self, epoch: u64, layer: Layer, ns: u64) {
        let e = self.aggs.entry((DRIVER, epoch, layer)).or_default();
        e.calls += 1;
        e.nanos += ns;
    }

    /// Time `f` as a driver-level span of `layer`.
    pub fn time<T>(&mut self, epoch: u64, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(epoch, layer, nanos(t.elapsed()));
        out
    }

    /// Calls and seconds of `layer`, summed over every parent.
    pub fn layer(&self, layer: Layer) -> (u64, f64) {
        let (calls, ns) = self
            .aggs
            .iter()
            .filter(|((_, _, l), _)| *l == layer)
            .fold((0, 0), |(c, n), (_, a)| (c + a.calls, n + a.nanos));
        (calls, ns as f64 / 1e9)
    }

    /// Seconds of self time summed over every layer.
    pub fn total_self_s(&self) -> f64 {
        self.aggs.values().map(|a| a.nanos).sum::<u64>() as f64 / 1e9
    }
}

/// Saturating `Duration` → nanoseconds.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of the span `[start, end)` whose children ran in the
/// given intervals, possibly overlapping one another (children on
/// parallel threads) and possibly reaching outside the parent: the
/// span's length minus the length of the union of the children
/// clipped to it.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// Percentiles the benchmark may report, from the median upwards.
pub const PERCENTILES: [f64; 6] = [50.0, 90.0, 95.0, 98.0, 99.0, 99.9];

/// Nearest rank (1-based) of percentile `p` among `n` samples, in
/// integer per-mille so that e.g. p99.9 of 10,000 is exactly rank 9,990.
fn rank(p: f64, n: usize) -> usize {
    let milli = (p * 10.0).round() as usize;
    (milli * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest percentile of [`PERCENTILES`] that leaves at least 10
/// of `n` samples beyond it, or `None` when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= 1 && n - rank(p, n) >= 10)
}

/// Nearest-rank percentile `p` of `samples` (sorted in place); 0 for
/// no samples.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[rank(p, samples.len()) - 1]
}

/// Share of a span run's wall time that no layer span accounts for.
pub fn unattributed_frac(attributed_s: f64, wall_s: f64) -> f64 {
    if wall_s <= 0.0 {
        return 0.0;
    }
    (1.0 - attributed_s / wall_s).max(0.0)
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `values` (sorted in place); 0 for none.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_children_covering_the_span() {
        // Disjoint children inside the span.
        assert_eq!(self_time(0, 100, &[(10, 20), (40, 70)]), 60);
        // Overlapping children (two threads) count once.
        assert_eq!(self_time(0, 100, &[(10, 50), (30, 60)]), 50);
        // Children reaching outside the span are clipped to it.
        assert_eq!(self_time(10, 50, &[(0, 20), (40, 90)]), 20);
        // A child wholly outside covers nothing; touching ends merge.
        assert_eq!(self_time(0, 10, &[(20, 30)]), 10);
        assert_eq!(self_time(0, 10, &[(0, 5), (5, 10)]), 0);
        // No children: the span is all self time.
        assert_eq!(self_time(5, 9, &[]), 4);
    }

    #[test]
    fn span_log_sums_each_layer_over_shards_and_epochs() {
        let mut log = SpanLog::default();
        let mut acc = EpochAcc::default();
        acc.aggs[Layer::Exec as usize] = Agg {
            calls: 3,
            nanos: 600,
        };
        acc.aggs[Layer::Gen as usize] = Agg {
            calls: 1,
            nanos: 200,
        };
        log.fold(0, 0, &acc);
        log.fold(1, 0, &acc);
        log.add(0, Layer::HubPublish, 50);
        assert_eq!(log.layer(Layer::Exec), (6, 1.2e-6));
        assert_eq!(log.layer(Layer::HubPublish), (1, 5e-8));
        assert!((log.total_self_s() - 1.65e-6).abs() < 1e-15);
    }

    #[test]
    fn reported_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(391), Some(95.0));
        assert_eq!(highest_supported_percentile(500), Some(98.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 50.0), 50);
        assert_eq!(percentile(&mut s, 99.0), 99);
        assert_eq!(percentile(&mut s, 100.0), 100);
        assert_eq!(percentile(&mut [], 50.0), 0);
    }

    #[test]
    fn unattributed_share_is_the_uncovered_part_of_wall() {
        assert!((unattributed_frac(9.0, 10.0) - 0.1).abs() < 1e-12);
        assert_eq!(unattributed_frac(10.0, 10.0), 0.0);
        // Over-attribution (clock skew between spans) clamps at 0.
        assert_eq!(unattributed_frac(10.5, 10.0), 0.0);
        assert_eq!(unattributed_frac(1.0, 0.0), 0.0);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in ["setup_s", "fuzzer.exec.p99_us", "a-b.c_d", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for layer in Layer::ALL {
            assert!(valid_metric_name(layer.metric()));
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
