//! Stream-vs-monolithic equivalence: `CampaignStream` must reproduce
//! `Campaign::run` bit for bit at every chunk size and thread count.
//!
//! The contract under test is the counter-derived RNG schedule: chip `i`'s
//! entire draw sequence is a pure function of `(seed, i)`, so chunk
//! boundaries and thread partitioning cannot move a single draw. Both entry
//! points share one chip loop, so `tests/golden_generation.rs` at the
//! workspace root is the independent guard on the generated bits; this
//! suite pins that block geometry never moves them.

use vmin_silicon::{Campaign, CampaignStream, ChipMeasurements, DatasetSpec};

fn grid_spec() -> DatasetSpec {
    let mut spec = DatasetSpec::small();
    spec.chip_count = 40;
    spec
}

/// Collects the stream back into `ChipMeasurements` rows, checking block
/// geometry along the way.
fn collect_stream(spec: &DatasetSpec, seed: u64, chunk: usize) -> Vec<ChipMeasurements> {
    let stream = CampaignStream::with_chunk(spec, seed, chunk);
    let mut out = Vec::with_capacity(spec.chip_count);
    for block in stream {
        assert_eq!(block.start(), out.len(), "blocks must arrive in order");
        assert!(block.len() <= chunk);
        for r in 0..block.len() {
            out.push(block.to_measurements(r));
        }
    }
    out
}

fn assert_bit_identical(streamed: &[ChipMeasurements], mono: &Campaign, tag: &str) {
    assert_eq!(streamed.len(), mono.chips.len(), "{tag}: chip count");
    for (s, m) in streamed.iter().zip(&mono.chips) {
        assert_eq!(s.chip_id, m.chip_id, "{tag}");
        assert_eq!(s.defective, m.defective, "{tag}: chip {}", m.chip_id);
        let pairs = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(
            pairs(&s.parametric, &m.parametric),
            "{tag}: chip {} parametric",
            m.chip_id
        );
        for k in 0..m.rod.len() {
            assert!(
                pairs(&s.rod[k], &m.rod[k]),
                "{tag}: chip {} rod[{k}]",
                m.chip_id
            );
            assert!(
                pairs(&s.cpd[k], &m.cpd[k]),
                "{tag}: chip {} cpd[{k}]",
                m.chip_id
            );
            assert!(
                pairs(&s.vmin_mv[k], &m.vmin_mv[k]),
                "{tag}: chip {} vmin[{k}]",
                m.chip_id
            );
        }
    }
}

#[test]
fn stream_is_bit_identical_across_seeds_chunks_and_threads() {
    let spec = grid_spec();
    for seed in [3u64, 2024] {
        let mono = vmin_par::with_threads(1, || Campaign::run(&spec, seed));
        for threads in [1usize, 2, 8] {
            for chunk in [1usize, 7, 64] {
                let streamed =
                    vmin_par::with_threads(threads, || collect_stream(&spec, seed, chunk));
                assert_bit_identical(
                    &streamed,
                    &mono,
                    &format!("seed {seed}, threads {threads}, chunk {chunk}"),
                );
            }
        }
    }
}

#[test]
fn stream_metadata_matches_campaign() {
    let spec = grid_spec();
    let mono = Campaign::run(&spec, 5);
    let stream = CampaignStream::with_chunk(&spec, 5, 8);
    assert_eq!(stream.parametric_names(), mono.parametric_names);
    assert_eq!(stream.read_points(), &mono.read_points[..]);
    assert_eq!(stream.temperatures(), &mono.temperatures[..]);
    assert_eq!(stream.clock_period_ps(), mono.clock_period_ps);
    assert_eq!(stream.chip_count(), mono.chip_count());
    assert_eq!(
        stream.layout().row_width(),
        1 + spec.parametric.total_tests()
            + spec.stress.read_points.len()
                * (spec.monitors.rod_count
                    + spec.monitors.cpd_count
                    + spec.vmin_test.temperatures.len())
    );
}
