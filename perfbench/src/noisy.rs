//! `noisy-decode`: the paper's read path at the `Pipeline` layer.
//!
//! Set-up encodes a seeded set of distinct units (laptop geometry,
//! 16-base primers, Gini layout) and sequences each through the
//! `nanopore-decay` channel at a rate on the slope of the exact-decode
//! cliff, with Gamma coverage of mean 10. The timed phase decodes every
//! unit, pass after pass in a seeded order, on one thread through
//! `decode_unit_with_workspace`; right before each decode it encodes the
//! unit's payload again (`encode_unit`), the workload's write operation,
//! so reads and writes see the same host conditions. Consensus, the primer prefilter and RS
//! do nearly all the work; object I/O, crypto, the server and clustering
//! are never touched.

use crate::trace::{span_totals_ms, Tracer};
use crate::util::{
    mean, median, median_of_target_means, ms, payload, percentile, tail_percentile, timed, Json,
    Rng,
};
use crate::{Config, Metric, Outcome};
use dna_align::edit_distance_bounded_with;
use dna_channel::{ChannelModel, Cluster, CoverageModel};
use dna_consensus::{BmaTwoWay, TraceReconstructor};
use dna_storage::{CodecParams, DecodeWorkspace, Layout, Pipeline};
use dna_strand::DnaString;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Total error rate of the `nanopore-decay` channel: on the slope of the
/// exact-decode cliff, so a consensus or RS change that trades quality
/// for speed shows in `exact_pct`.
pub const ERROR_RATE: f64 = 0.0535;
/// Mean of the Gamma coverage model.
pub const MEAN_COVERAGE: f64 = 10.0;
/// Decodes per second this schedule is sized for: `--seconds` worth of
/// decodes, rounded to whole passes over the units.
const NOMINAL_DECODES_PER_S: f64 = 90.0;

struct Unit {
    payload: Vec<u8>,
    strands: Vec<DnaString>,
    clusters: Vec<Cluster>,
}

struct Setup {
    pipeline: Pipeline,
    units: Vec<Unit>,
    sequence_ms: Vec<f64>,
}

fn pipeline() -> Pipeline {
    Pipeline::builder()
        .params(
            CodecParams::laptop()
                .expect("laptop geometry is valid")
                .with_primer_len(16),
        )
        .layout(Layout::Gini {
            excluded_rows: vec![],
        })
        .build()
        .expect("laptop pipeline builds")
}

fn setup(config: &Config) -> Setup {
    let pipeline = pipeline();
    let channel = ChannelModel::nanopore_decay(ERROR_RATE);
    let coverage = CoverageModel::gamma_with_mean(MEAN_COVERAGE).expect("positive mean");
    let mut rng = Rng::new(config.seed, 1);
    let cap = pipeline.payload_capacity();
    let mut units = Vec::with_capacity(config.scale.units);
    let mut sequence_ms = Vec::with_capacity(config.scale.units);
    for _ in 0..config.scale.units {
        let data = payload(&mut rng, cap, false);
        let unit = pipeline.encode_unit(&data).expect("encode");
        let unit_seed = rng.next_u64();
        let (pool, d) = timed(|| pipeline.sequence_model(&unit, &channel, coverage, unit_seed));
        sequence_ms.push(ms(d));
        units.push(Unit {
            payload: data,
            strands: unit.strands().to_vec(),
            clusters: pool.clusters().to_vec(),
        });
    }
    Setup {
        pipeline,
        units,
        sequence_ms,
    }
}

/// The primer check `Pipeline` runs on each read before consensus:
/// the read's prefix must be within a small edit distance of the left
/// primer.
fn prefilter(left: &DnaString, cluster: &Cluster, out: &mut Vec<DnaString>, row: &mut Vec<usize>) {
    out.clear();
    let p = left.len();
    let slack = (p / 5).max(2);
    for read in &cluster.reads {
        let prefix = &read.as_slice()[..(p + slack / 2).min(read.len())];
        if edit_distance_bounded_with(left.as_slice(), prefix, slack + slack / 2, row).is_some() {
            out.push(read.clone());
        }
    }
}

/// Hands back the one read it is given: the replay's stand-in for
/// consensus when it decodes again from strands that already are
/// consensus output.
struct Verbatim;

impl TraceReconstructor for Verbatim {
    fn reconstruct(&self, reads: &[DnaString], _target_len: usize) -> DnaString {
        reads[0].clone()
    }

    fn name(&self) -> &'static str {
        "verbatim"
    }
}

/// Per-layer replay of one unit decode: prefilter, consensus, then the
/// rest of the decode (transcode, RS, unmap), timed by decoding again
/// from the consensus strands with consensus replaced by [`Verbatim`].
/// That last step still runs the primer check on one read per cluster,
/// about a tenth of the prefilter on `noisy-decode`, so the replay
/// over-attributes by that much. Returns the replayed payload and the
/// number of reads that passed the prefilter.
#[derive(Default)]
pub struct Replay {
    consensus: BmaTwoWay,
    filtered: Vec<DnaString>,
    row: Vec<usize>,
}

impl Replay {
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        pipeline: &Pipeline,
        tracer: &mut Tracer,
        op: u64,
        parent: Option<usize>,
        clusters: &[Cluster],
        opts: &dna_storage::RetrieveOptions,
        ws: &mut DecodeWorkspace,
    ) -> (Vec<u8>, usize) {
        let left = pipeline
            .primers()
            .expect("benchmark pipelines carry primers")
            .0
            .strand()
            .clone();
        let strand_bases = pipeline.params().strand_bases();
        let rest = pipeline.clone().with_consensus(Arc::new(Verbatim));
        let Replay {
            consensus,
            filtered,
            row,
        } = self;
        // Prefilter and consensus alternate per cluster, as inside the
        // decode, so each cluster's reads are cache-warm for consensus;
        // the two layers' busy times are summed over the unit.
        let mut reads = 0;
        let mut strands = Vec::with_capacity(clusters.len());
        let (mut prefilter_busy, mut consensus_busy) = (Duration::ZERO, Duration::ZERO);
        let start = Instant::now();
        for cluster in clusters {
            let t0 = Instant::now();
            prefilter(&left, cluster, filtered, row);
            let t1 = Instant::now();
            prefilter_busy += t1 - t0;
            if filtered.is_empty() {
                continue;
            }
            reads += filtered.len();
            let strand = consensus.reconstruct(filtered, strand_bases);
            consensus_busy += t1.elapsed();
            strands.push(Cluster {
                source: cluster.source,
                reads: vec![strand],
            });
        }
        let end = Instant::now();
        tracer.record_busy("align.prefilter", op, parent, start, end, prefilter_busy);
        tracer.record_busy(
            "consensus.reconstruct",
            op,
            parent,
            start,
            end,
            consensus_busy,
        );
        let ((payload, _), _) = tracer.call("storage.decode_residual", op, parent, || {
            rest.decode_unit_with_workspace(&strands, opts, ws)
                .expect("decode from consensus strands")
        });
        (payload, reads)
    }
}

/// What the timed phase did.
#[derive(Default)]
struct Tally {
    /// (unit, ms) of every decode and every encode.
    latencies: Vec<(usize, f64)>,
    encode_ms: Vec<(usize, f64)>,
    attempted: u64,
    failed: u64,
    exact: u64,
    silent: u64,
    corrected: u64,
    failed_cw: u64,
    reads: u64,
    replay_mismatch: u64,
}

/// The timed schedule: each unit of each pass is encoded (the write,
/// checked against set-up's strands) and then decoded (the read). With a
/// tracer, each decode is replayed layer by layer right after it.
fn decode_all(
    pipeline: &Pipeline,
    units: &[Unit],
    orders: &[Vec<usize>],
    opts: &dna_storage::RetrieveOptions,
    mut tracer: Option<&mut Tracer>,
) -> Tally {
    let mut tally = Tally::default();
    let mut ws = DecodeWorkspace::new();
    let mut replay = Replay::default();
    for (pass, order) in orders.iter().enumerate() {
        for (pos, &u) in order.iter().enumerate() {
            let op = 2 * (pass * order.len() + pos) as u64;
            let unit = &units[u];
            tally.attempted += 2;
            let te = Instant::now();
            let encoded = pipeline.encode_unit(&unit.payload);
            let te1 = Instant::now();
            tally.encode_ms.push((u, ms(te1 - te)));
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.record("storage.encode", op, None, te, te1);
            }
            if !encoded.is_ok_and(|e| e.strands() == unit.strands.as_slice()) {
                tally.failed += 1;
            }
            let t0 = Instant::now();
            let result = pipeline.decode_unit_with_workspace(&unit.clusters, opts, &mut ws);
            let t1 = Instant::now();
            tally.latencies.push((u, ms(t1 - t0)));
            let Ok((decoded, report)) = result else {
                tally.failed += 1;
                continue;
            };
            if decoded == unit.payload {
                tally.exact += 1;
            } else if report.failed_codewords() == 0 {
                tally.silent += 1;
                tally.failed += 1;
            }
            tally.corrected += report.total_corrected() as u64;
            tally.failed_cw += report.failed_codewords() as u64;
            if let Some(tracer) = tracer.as_deref_mut() {
                let (id, _) = tracer.record("storage.decode_unit", op + 1, None, t0, t1);
                let (replayed, n) = replay.run(
                    pipeline,
                    tracer,
                    op + 1,
                    Some(id),
                    &unit.clusters,
                    opts,
                    &mut ws,
                );
                tally.reads += n as u64;
                if replayed != decoded {
                    tally.replay_mismatch += 1;
                }
            }
        }
    }
    tally
}

pub fn run(config: &Config) -> Outcome {
    let epoch = Instant::now();
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..config.setup_reps {
        drop(last.take());
        let (s, d) = timed(|| setup(config));
        setup_s.push(d.as_secs_f64());
        last = Some(s);
    }
    let Setup {
        pipeline,
        units,
        sequence_ms,
        ..
    } = last.expect("at least one set-up");
    let cap = pipeline.payload_capacity();
    let opts = pipeline.decode_options().clone();

    let passes =
        ((config.seconds * NOMINAL_DECODES_PER_S / units.len() as f64).round() as usize).max(1);
    let mut order_rng = Rng::new(config.seed, 2);
    let orders: Vec<Vec<usize>> = (0..passes)
        .map(|_| {
            let mut order: Vec<usize> = (0..units.len()).collect();
            order_rng.shuffle(&mut order);
            order
        })
        .collect();
    let probe_start = crate::util::host_probe_ms();
    let mut tracer = Tracer::new(epoch, 0);
    let t_run = Instant::now();
    let tally = decode_all(
        &pipeline,
        &units,
        &orders,
        &opts,
        config.trace.then_some(&mut tracer),
    );
    let wall = t_run.elapsed().as_secs_f64();
    let probe_end = crate::util::host_probe_ms();
    let Tally {
        latencies: read_samples,
        encode_ms: write_samples,
        attempted,
        failed,
        exact,
        silent,
        corrected,
        failed_cw,
        reads,
        replay_mismatch,
    } = tally;

    let latencies: Vec<f64> = read_samples.iter().map(|s| s.1).collect();
    let encode_ms: Vec<f64> = write_samples.iter().map(|s| s.1).collect();
    let ops = latencies.len() as f64;
    let tail_q = tail_percentile(latencies.len());
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("peak_rss_MiB", crate::util::peak_rss_mib(), "MiB"),
        Metric::new("ops_per_s", attempted as f64 / wall, "1/s"),
        Metric::new("read_p50_ms", median_of_target_means(&read_samples), "ms"),
        Metric::new("read_tail_ms", percentile(&latencies, tail_q), "ms"),
        Metric::new(
            "read_MBps",
            ops * cap as f64 / 1e6 / (latencies.iter().sum::<f64>() / 1e3),
            "MB/s",
        ),
        Metric::new("write_p50_ms", median_of_target_means(&write_samples), "ms"),
        Metric::new(
            "write_MBps",
            encode_ms.len() as f64 * cap as f64 / 1e6 / (encode_ms.iter().sum::<f64>() / 1e3),
            "MB/s",
        ),
        Metric::new(
            "bases_per_byte",
            (pipeline.params().cols() * pipeline.params().strand_bases()) as f64 / cap as f64,
            "bases/B",
        ),
        Metric::new("exact_pct", 100.0 * exact as f64 / ops, "%"),
    ];

    let mut layers = Vec::new();
    if config.trace {
        let totals = span_totals_ms(std::slice::from_ref(&tracer));
        let get = |k: &str| totals.get(k).copied().unwrap_or(0.0) / ops;
        let decode = get("storage.decode_unit");
        let parts =
            get("align.prefilter") + get("consensus.reconstruct") + get("storage.decode_residual");
        layers = vec![
            Metric::new("storage.decode_unit_ms", decode, "ms"),
            Metric::new("align.prefilter_ms", get("align.prefilter"), "ms"),
            Metric::new(
                "consensus.reconstruct_ms",
                get("consensus.reconstruct"),
                "ms",
            ),
            Metric::new(
                "storage.decode_residual_ms",
                get("storage.decode_residual"),
                "ms",
            ),
            Metric::new("channel.sequence_ms", mean(&sequence_ms), "ms"),
            Metric::new("storage.encode_ms", mean(&encode_ms), "ms"),
            Metric::new("consensus.reads", reads as f64 / ops, "count"),
            Metric::new(
                "reed-solomon.corrected_symbols",
                corrected as f64 / ops,
                "count",
            ),
            Metric::new(
                "reed-solomon.failed_codewords",
                failed_cw as f64 / ops,
                "count",
            ),
            Metric::new(
                "trace.unattributed_pct",
                100.0 * (decode - parts) / decode,
                "%",
            ),
        ];
    }

    let mut outcome = Outcome::new(attempted, failed);
    outcome.metrics = metrics;
    outcome.layers = layers;
    outcome.read_mean_ms = mean(&latencies);
    outcome.counts = vec![
        ("decodes", latencies.len() as u64),
        ("exact", exact),
        ("silent_corruptions", silent),
        ("reed_solomon_corrected_symbols", corrected),
        ("reed_solomon_failed_codewords", failed_cw),
        ("consensus_reads", reads),
        ("replay_mismatches", replay_mismatch),
    ];
    outcome.diagnostics = Json::new()
        .int("units", units.len() as u64)
        .int("passes", passes as u64)
        .num("read_tail_percentile", tail_q)
        .num("error_rate", ERROR_RATE)
        .num("mean_coverage", MEAN_COVERAGE)
        .int("setup_reps", setup_s.len() as u64)
        .num("host_probe_start_ms", probe_start)
        .num("host_probe_end_ms", probe_end)
        .num("timed_wall_s", wall);
    outcome.tracers = vec![tracer];
    outcome
}
