//! Smoke binary for the streaming campaign engine, mirroring `serve_smoke`:
//!
//! - **stdout**: one FNV-1a digest per streamed chip row (hex), followed by
//!   a single `report ...` line with the fused screening counts and the
//!   mean-interval bit pattern. `ci.sh` diffs this output across
//!   `VMIN_THREADS` values — it must be *byte-identical* (the stream's
//!   counter-derived RNG schedule makes threading invisible).
//! - **stderr**: in-process self-checks (the same digests when the fleet
//!   is streamed again at an odd chunk size, stream-vs-monolithic bit
//!   identity, fused-vs-materialized screening report equality).
//!
//! Usage: `stream_smoke` — knobs are ambient (`VMIN_THREADS`,
//! `VMIN_TRACE`/`VMIN_TRACE_JSON`).

#![forbid(unsafe_code)]

use vmin_bench::die;
use vmin_conformal::Cqr;
use vmin_core::{assemble_dataset, fleet_screen, FeatureSet, FleetScreenConfig};
use vmin_models::{GradientBoost, GradientBoostParams, Loss, TreeParams};
use vmin_serve::ServeModel;
use vmin_silicon::{Campaign, CampaignStream, DatasetSpec};

const CHIPS: usize = 96;
const SEED: u64 = 20260807;
const MIN_SPEC_MV: f64 = 700.0;
/// Odd chunk size for the re-stream self-check: block boundaries land
/// mid-shard and the last block is short.
const ODD_CHUNK: usize = 17;

/// FNV-1a over a row's f64 bit patterns — a stable per-chip fingerprint.
fn fnv1a(row: &[f64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in row {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn main() {
    let spec = DatasetSpec::screening(CHIPS);

    // 1. Stream the fleet and fingerprint every chip row on stdout.
    let mut digests = Vec::with_capacity(CHIPS);
    let mut streamed = Vec::with_capacity(CHIPS);
    for block in CampaignStream::new(&spec, SEED) {
        for r in 0..block.len() {
            let digest = fnv1a(block.row(r));
            println!("{digest:016x}");
            digests.push(digest);
            streamed.push(block.to_measurements(r));
        }
    }
    if streamed.len() != CHIPS {
        die(&format!("streamed {} of {CHIPS} chips", streamed.len()));
    }

    // 2. Self-checks: chunking moves block boundaries, never a chip's bits,
    //    and the stream reproduces the monolithic campaign bit for bit.
    let rechunked: Vec<u64> = CampaignStream::with_chunk(&spec, SEED, ODD_CHUNK)
        .flat_map(|block| (0..block.len()).map(move |r| fnv1a(block.row(r))))
        .collect();
    if rechunked != digests {
        die(&format!(
            "chip digests depend on the chunk size ({ODD_CHUNK})"
        ));
    }
    let mono = Campaign::run(&spec, SEED);
    for (s, m) in streamed.iter().zip(&mono.chips) {
        let same = s.chip_id == m.chip_id
            && s.defective == m.defective
            && s.parametric
                .iter()
                .zip(&m.parametric)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && s.vmin_mv[0][0].to_bits() == m.vmin_mv[0][0].to_bits();
        if !same {
            die(&format!(
                "stream diverged from Campaign::run at chip {}",
                m.chip_id
            ));
        }
    }

    // 3. Fit a quick CQR pair on an independent campaign and screen the
    //    fleet fused; the report must equal the materialized path.
    let train = Campaign::run(&spec, SEED + 1);
    let ds = assemble_dataset(&train, 0, 0, FeatureSet::Both)
        .unwrap_or_else(|e| die(&format!("assemble training set: {e}")));
    let params = GradientBoostParams {
        n_rounds: 30,
        tree: TreeParams {
            max_depth: 4,
            ..TreeParams::default()
        },
        ..GradientBoostParams::default()
    };
    let mut cqr = Cqr::new(
        GradientBoost::with_params(Loss::Pinball(0.05), params),
        GradientBoost::with_params(Loss::Pinball(0.95), params),
        0.1,
    );
    cqr.fit_calibrate(ds.features(), ds.targets(), ds.features(), ds.targets())
        .unwrap_or_else(|e| die(&format!("fit_calibrate: {e}")));
    let model =
        ServeModel::from_gbt_cqr(&cqr, None).unwrap_or_else(|e| die(&format!("capture: {e}")));

    let cfg = FleetScreenConfig::new(MIN_SPEC_MV);
    let report = fleet_screen(&spec, SEED, &model, &cfg)
        .unwrap_or_else(|e| die(&format!("fleet_screen: {e}")));
    if report.chips != CHIPS {
        die(&format!(
            "fused screen saw {} of {CHIPS} chips",
            report.chips
        ));
    }

    // Materialized reference: serve the assembled matrix in one shot.
    let test_ds = assemble_dataset(&mono, 0, 0, FeatureSet::Both)
        .unwrap_or_else(|e| die(&format!("assemble test set: {e}")));
    let intervals = model
        .serve_batch(test_ds.features(), cfg.serve_rows)
        .unwrap_or_else(|e| die(&format!("materialized serve: {e}")));
    let (mut flagged, mut covered) = (0usize, 0usize);
    let mut length_sum = 0.0;
    for (chip, iv) in mono.chips.iter().zip(&intervals) {
        if iv.hi() > MIN_SPEC_MV {
            flagged += 1;
        }
        let truth = chip.vmin_mv[0][0];
        if iv.lo() <= truth && truth <= iv.hi() {
            covered += 1;
        }
        length_sum += iv.length();
    }
    if report.flagged != flagged || report.covered != covered {
        die(&format!(
            "fused report (flagged {}, covered {}) != materialized ({flagged}, {covered})",
            report.flagged, report.covered
        ));
    }
    let mean_ref = length_sum / CHIPS as f64;
    if report.mean_length_mv.to_bits() != mean_ref.to_bits() {
        die("fused mean interval length diverged from the materialized path");
    }

    println!(
        "report chips={} flagged={} covered={} defective={} mean={:016x}",
        report.chips,
        report.flagged,
        report.covered,
        report.defective,
        report.mean_length_mv.to_bits()
    );

    eprintln!(
        "stream_smoke: OK ({CHIPS} chips, threads={})",
        vmin_par::current_threads(),
    );
    vmin_trace::export::write_json_if_configured(vmin_par::current_threads());
}
