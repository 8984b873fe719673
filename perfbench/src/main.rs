//! One workload run of the dna-skew benchmark, in its own process.
//!
//! ```text
//! perfbench --workload <noisy-decode|serve-mixed|serve-recover> --seed <n>
//!           --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Prints one JSON line: the end-to-end metrics (and, with `--trace 1`,
//! the per-layer metrics), the operation accounting, the deterministic
//! counts, and the environment record. `run.py` wraps it.

mod noisy;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use util::Json;

/// Workload sizes. `full` is the benchmark; the determinism test runs
/// the same schedules at `small` size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Distinct units sequenced by `noisy-decode`.
    pub units: usize,
    /// Objects written to the store in `serve-mixed` set-up.
    pub objects: usize,
    /// Single-unit objects written in `serve-recover` set-up.
    pub recover_objects: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        units: 192,
        objects: 200,
        recover_objects: 24,
    };
    pub const SMALL: Scale = Scale {
        units: 12,
        objects: 16,
        recover_objects: 3,
    };
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Sizes the fixed schedule: the run does `seconds` worth of
    /// operations at the workload's nominal rate, whatever the clock says.
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub scale: Scale,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    /// ERR replies, I/O errors, mismatched bytes, silent corruption.
    pub failed: u64,
    /// Reads or fetched-back writes whose bytes differ on a serve path.
    pub mismatched: u64,
    pub metrics: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Mean latency of the read operation, for the trace overhead.
    pub read_mean_ms: f64,
    /// Counts fixed by the seed: must repeat exactly on a rerun.
    pub counts: Vec<(&'static str, u64)>,
    pub diagnostics: Json,
    pub tracers: Vec<trace::Tracer>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            mismatched: 0,
            metrics: Vec::new(),
            layers: Vec::new(),
            read_mean_ms: 0.0,
            counts: Vec::new(),
            diagnostics: Json::new(),
            tracers: Vec::new(),
        }
    }
}

pub const WORKLOADS: [&str; 3] = ["noisy-decode", "serve-mixed", "serve-recover"];

/// Every per-layer metric of the traced run, with its unit. A workload
/// that never calls a layer reports 0 for it. `trace.overhead_pct` is
/// added by `run.py`, which alone sees both the traced and untraced run.
pub const LAYERS: [(&str, &str); 28] = [
    ("server.wire_ms", "ms"),
    ("server.queue_ms", "ms"),
    ("object.fetch_ms", "ms"),
    ("object.read_strands_ms", "ms"),
    ("storage.decode_unit_ms", "ms"),
    ("align.prefilter_ms", "ms"),
    ("consensus.reconstruct_ms", "ms"),
    ("storage.decode_residual_ms", "ms"),
    ("align.recover_ms", "ms"),
    ("align.cluster_ms", "ms"),
    ("crypto.keystream_ms", "ms"),
    ("object.decompress_ms", "ms"),
    ("object.put_ms", "ms"),
    ("object.compress_ms", "ms"),
    ("storage.encode_ms", "ms"),
    ("object.commit_residual_ms", "ms"),
    ("channel.sequence_ms", "ms"),
    ("consensus.reads", "count"),
    ("reed-solomon.corrected_symbols", "count"),
    ("reed-solomon.failed_codewords", "count"),
    ("object.capsules_per_fetch", "count"),
    ("object.units_per_fetch", "count"),
    ("object.reads_per_fetch", "count"),
    ("object.prefilter_dropped", "count"),
    ("align.clusters_found", "count"),
    ("server.coalesced_fetches", "count"),
    ("object.manifest_bases_share", "share"),
    ("trace.unattributed_pct", "%"),
];

/// The traced run's layers in [`LAYERS`] order, 0 for layers the
/// workload does not call.
fn all_layers(measured: &[Metric]) -> Vec<Metric> {
    for m in measured {
        assert!(
            LAYERS
                .iter()
                .any(|(name, unit)| *name == m.name && *unit == m.unit),
            "layer {} ({}) missing from LAYERS",
            m.name,
            m.unit
        );
    }
    LAYERS
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect()
}

pub fn run_workload(config: &Config) -> Outcome {
    match config.workload.as_str() {
        "noisy-decode" => noisy::run(config),
        "serve-mixed" => serve::run_mixed(config),
        "serve-recover" => serve::run_recover(config),
        other => panic!("unknown workload {other:?}"),
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    metrics.iter().fold(Json::new(), |j, m| {
        j.obj(
            m.name,
            Json::new().num("value", m.value).str("unit", m.unit),
        )
    })
}

fn environment(config: &Config) -> Json {
    Json::new()
        .int("seed", config.seed)
        .num("seconds", config.seconds)
        .int(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .str(
            "DNA_SKEW_THREADS",
            &std::env::var("DNA_SKEW_THREADS").unwrap_or_else(|_| "unset".into()),
        )
        .str("simd_kernel", &format!("{:?}", dna_gf::dispatch::kernel()))
        .str("store_filesystem", &util::filesystem_of(&config.work_dir))
        .str(
            "store_flush_policy",
            "pool appends flushed without fsync; each commit fsyncs the manifest sidecar and its directory",
        )
}

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let mut config = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".perfbench/work"),
        scale: Scale::FULL,
        setup_reps: 5,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => config.workload = value,
            "--seed" => config.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => config.trace = value == "1",
            "--work-dir" => config.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&config.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            config.workload
        ));
    }
    if !config.seconds.is_finite() || config.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(config)
}

fn main() {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&config.work_dir).expect("create work dir");
    let env = environment(&config);
    let outcome = run_workload(&config);
    if config.trace {
        let path = config.work_dir.join("spans.jsonl");
        if let Err(e) = trace::write_spans(&path, &outcome.tracers) {
            eprintln!("perfbench: writing spans: {e}");
        }
    }
    let counts = outcome
        .counts
        .iter()
        .fold(Json::new(), |j, (k, v)| j.int(k, *v));
    let line = Json::new()
        .str("workload", &config.workload)
        .bool("trace", config.trace)
        .int("attempted", outcome.attempted)
        .int("failed", outcome.failed)
        .int("mismatched", outcome.mismatched)
        .num("read_mean_ms", outcome.read_mean_ms)
        .obj("metrics", metrics_json(&outcome.metrics))
        .obj(
            "layers",
            metrics_json(&if config.trace {
                all_layers(&outcome.layers)
            } else {
                Vec::new()
            }),
        )
        .obj("counts", counts)
        .obj("diagnostics", outcome.diagnostics)
        .obj("environment", env);
    println!("{}", line.finish());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(metrics: &[Metric], name: &str) -> u64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .value
            .to_bits()
    }

    /// Runs `workload`'s schedule twice with one seed (traced, so the
    /// layer counts are produced too) and checks that every count,
    /// `exact_pct` and `bases_per_byte` repeat exactly.
    /// `server.coalesced_fetches` is left out: whether two connections'
    /// fetches of one object overlap depends on timing.
    fn repeats_exactly(workload: &str) {
        let runs: Vec<Outcome> = (0..2)
            .map(|k| {
                let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("../.perfbench/determinism")
                    .join(format!("{workload}-{k}"));
                let _ = std::fs::remove_dir_all(&work_dir);
                std::fs::create_dir_all(&work_dir).expect("create work dir");
                let config = Config {
                    workload: workload.into(),
                    seed: 7,
                    seconds: 2.0,
                    trace: true,
                    work_dir: work_dir.clone(),
                    scale: Scale::SMALL,
                    setup_reps: 1,
                };
                let outcome = run_workload(&config);
                let _ = std::fs::remove_dir_all(&work_dir);
                outcome
            })
            .collect();
        let (a, b) = (&runs[0], &runs[1]);
        assert_eq!(a.failed, 0, "{workload}: failed operations");
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
        assert_eq!(a.counts, b.counts, "{workload}: counts differ");
        for name in ["exact_pct", "bases_per_byte"] {
            assert_eq!(value(&a.metrics, name), value(&b.metrics, name), "{name}");
        }
        for (name, unit) in LAYERS {
            if matches!(unit, "count" | "share") && name != "server.coalesced_fetches" {
                assert_eq!(
                    value(&all_layers(&a.layers), name),
                    value(&all_layers(&b.layers), name),
                    "{workload}: {name}"
                );
            }
        }
    }

    #[test]
    fn noisy_decode_repeats_exactly() {
        repeats_exactly("noisy-decode");
    }

    #[test]
    fn serve_mixed_repeats_exactly() {
        repeats_exactly("serve-mixed");
    }

    #[test]
    fn serve_recover_repeats_exactly() {
        repeats_exactly("serve-recover");
    }
}
