//! Byte-identity of the workspace-reusing decode paths: the same bytes,
//! reports, and corrections must come out of a fresh workspace, a reused
//! (even poisoned) one, and `decode_batch` at any thread count, over
//! every supported field — and `decode_pool` must be exactly
//! `recover_pool` followed by the workspace decode.

use dna_channel::{Cluster, CoverageModel, ErrorModel};
use dna_gf::Field;
use dna_storage::{
    CodecParams, DecodeWorkspace, Layout, Pipeline, RecoveryPipeline, RetrieveOptions,
};

fn pipelines() -> Vec<(&'static str, Pipeline, f64, usize)> {
    vec![
        (
            "tiny-gf16",
            Pipeline::new(CodecParams::tiny().unwrap(), Layout::Baseline).unwrap(),
            0.01,
            4,
        ),
        (
            "gf256-gini",
            Pipeline::new(
                CodecParams::new(Field::gf256(), 8, 40, 10, 8).unwrap(),
                Layout::Gini {
                    excluded_rows: vec![],
                },
            )
            .unwrap(),
            0.02,
            8,
        ),
        (
            "gf65536-baseline",
            Pipeline::new(
                CodecParams::new(Field::gf65536(), 2, 30, 10, 16).unwrap(),
                Layout::Baseline,
            )
            .unwrap(),
            0.005,
            6,
        ),
    ]
}

#[test]
fn workspace_and_batch_paths_are_byte_identical() {
    for (name, pipeline, p, coverage) in pipelines() {
        let payloads: Vec<Vec<u8>> = (0..5)
            .map(|u| {
                (0..pipeline.payload_capacity())
                    .map(|i| ((i * 31 + u * 7 + 3) % 256) as u8)
                    .collect()
            })
            .collect();
        let units = pipeline.encode_batch(&payloads).unwrap();
        let per_unit: Vec<Vec<Cluster>> = units
            .iter()
            .enumerate()
            .map(|(u, unit)| {
                pipeline
                    .sequence(
                        unit,
                        ErrorModel::uniform(p),
                        CoverageModel::Fixed(coverage),
                        41 + u as u64,
                    )
                    .clusters()
                    .to_vec()
            })
            .collect();
        let opts = RetrieveOptions {
            forced_erasures: vec![1, 3],
            ..RetrieveOptions::default()
        };

        // Reference: one fresh workspace per unit.
        let reference: Vec<_> = per_unit
            .iter()
            .map(|clusters| {
                pipeline
                    .decode_unit_with_workspace(clusters, &opts, &mut DecodeWorkspace::new())
                    .unwrap()
            })
            .collect();

        // One explicit workspace reused across every unit, poisoned
        // between units by a decode whose codewords all fail.
        let mut ws = DecodeWorkspace::new();
        let hopeless: Vec<Cluster> = Vec::new();
        for (u, clusters) in per_unit.iter().enumerate() {
            let got = pipeline
                .decode_unit_with_workspace(clusters, &opts, &mut ws)
                .unwrap();
            assert_eq!(got, reference[u], "{name}: unit {u} via reused workspace");
            let (_, poisoned_report) = pipeline
                .decode_unit_with_workspace(&hopeless, &opts, &mut ws)
                .unwrap();
            assert!(
                poisoned_report.failed_codewords() > 0,
                "{name}: poison decode should fail codewords"
            );
        }

        // The batch path at several worker counts (workers only change
        // how units are sliced — and how many workspaces exist).
        for threads in ["1", "2", "8"] {
            std::env::set_var("DNA_SKEW_THREADS", threads);
            let got = pipeline.decode_batch(&per_unit, &opts).unwrap();
            std::env::remove_var("DNA_SKEW_THREADS");
            assert_eq!(got, reference, "{name}: decode_batch at {threads} threads");
        }
    }
}

#[test]
fn decode_pool_is_recover_pool_then_the_workspace_decode() {
    let params = CodecParams::tiny().unwrap().with_primer_len(15);
    let pipelines = [
        Pipeline::builder().params(params.clone()).build().unwrap(),
        // Builder-set recovery and forced erasures must both reach the
        // composed path.
        Pipeline::builder()
            .params(params)
            .recovery(RecoveryPipeline::anchored(None))
            .decode_options(RetrieveOptions {
                forced_erasures: vec![2],
                ..RetrieveOptions::default()
            })
            .build()
            .unwrap(),
    ];
    for (k, pipeline) in pipelines.iter().enumerate() {
        // One workspace, warmed and then poisoned between pools.
        let mut warm = DecodeWorkspace::new();
        let hopeless: Vec<Cluster> = Vec::new();
        for u in 0..3u64 {
            let payload: Vec<u8> = (0..pipeline.payload_capacity())
                .map(|i| (i as u64 * 37 + u * 11 + 5) as u8)
                .collect();
            let unit = pipeline.encode_unit(&payload).unwrap();
            let pool = pipeline
                .sequence(
                    &unit,
                    ErrorModel::uniform(0.01),
                    CoverageModel::Fixed(6),
                    70 + u,
                )
                .anonymize(80 + u);

            let fresh = pipeline
                .decode_pool(&pool, &mut DecodeWorkspace::new())
                .unwrap();
            let reused = pipeline.decode_pool(&pool, &mut warm).unwrap();
            assert_eq!(reused, fresh, "pipeline {k} pool {u}: warm workspace");

            // The composition the object store's recovery arm and external
            // replays spell out by hand.
            let (clusters, recovery) = pipeline.recover_pool(&pool).unwrap();
            let opts =
                RetrieveOptions::recovered(pipeline.decode_options().forced_erasures.clone());
            let (bytes, mut report) = pipeline
                .decode_unit_with_workspace(&clusters, &opts, &mut DecodeWorkspace::new())
                .unwrap();
            report.recovery = Some(recovery);
            assert_eq!((bytes, report), fresh, "pipeline {k} pool {u}: composition");
            assert_eq!(fresh.0, payload, "pipeline {k} pool {u}: bytes");

            let (_, poisoned) = pipeline
                .decode_unit_with_workspace(&hopeless, pipeline.decode_options(), &mut warm)
                .unwrap();
            assert!(poisoned.failed_codewords() > 0);
        }
    }
}
