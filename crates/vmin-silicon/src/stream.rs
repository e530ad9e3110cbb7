//! Streaming campaign engine: million-chip fleets in fixed memory.
//!
//! [`Campaign::run`] materializes every chip's full measurement set in one
//! `Vec` — fine for the paper's 156-chip dataset, hopeless for fleet-scale
//! screening. [`CampaignStream`] instead yields fixed-size [`ChipBlock`]
//! chunks, each a single flat `f64` buffer, generated on demand:
//!
//! - **Counter-derived RNG streams** make generation random-access: chip
//!   `i`'s entire draw sequence comes from a stream seeded by a splitmix64
//!   mix of `(campaign seed, domain, i)`, and the lot/wafer shifts it
//!   shares with its neighbours come from per-lot / per-wafer streams
//!   derived the same way. No chip's randomness depends on any other
//!   chip's, so chunk boundaries and thread partitioning cannot move a
//!   single draw — output is **bit-identical** to the monolithic
//!   [`Campaign::run`] at any `VMIN_THREADS` and any chunk size.
//! - **Per-chunk scratch**: each shard worker carries one reusable
//!   [`Chip`] (path vector recycled via [`ChipFactory::refabricate`]), one
//!   [`MonitorBank`] (recycled via `reinstantiate`) and one Vmin search
//!   table, and measurements land directly in the block's flat rows
//!   through the `*_into` readout variants — no per-chip allocation in
//!   the hot loop.
//! - **Inert aging at 0 h**: a campaign whose read points all lie at or
//!   before 0 h can never observe aging, so its chips advance their
//!   streams past the aging-only draws without transforming them, bit
//!   for bit (see `AgingDraws`).
//! - **Shard fan-out**: rows are generated [`SHARD_CHIPS`] chips at a
//!   time through `vmin_par::par_chunks_mut`; the shard size is fixed (not
//!   thread-derived), so `silicon.stream.*` counters are thread-invariant.
//!
//! The shard loop is the only chip loop in the crate: [`Campaign::run`]
//! generates its whole population as one block through the same engine
//! and expands the rows with [`ChipBlock::to_measurements`].
//!
//! [`Campaign::run`]: crate::Campaign::run

use crate::aging::{AgingDraws, AgingModel};
use crate::chip::{Chip, ChipFactory};
use crate::config::DatasetSpec;
use crate::monitor::MonitorBank;
use crate::parametric::ParametricProgram;
use crate::process::{ProcessSampler, ProcessState};
use crate::sampling::normal;
use crate::testflow::{measure_vmin, nominal_chip, ChipMeasurements};
use crate::units::{Celsius, Hours};
use crate::vmin::{SearchTable, VminTester};
use vmin_rng::ChaCha8Rng;
use vmin_rng::Rng;
use vmin_rng::SeedableRng;

/// Chips generated per shard (one `par_chunks_mut` work item). Fixed —
/// never derived from the thread count — so shard topology and the
/// `silicon.stream.shards` counter are identical at any `VMIN_THREADS`.
/// A shard is about 0.08–0.10 ms of screening-spec generation (5.3–6.2
/// µs per chip, whose 0 h campaign skips its aging draws) or 5–7 ms of
/// default-spec paper chips (300–420 µs each) on one core of a 2-vCPU
/// Xeon KVM guest; a 4096-chip chunk splits into 256 shards, fine enough
/// to load-balance.
pub const SHARD_CHIPS: usize = 16;

/// Rows per [`ChipBlock`] of a stream opened with [`CampaignStream::new`].
pub const DEFAULT_STREAM_CHUNK: usize = 4096;

// ---------------------------------------------------------------------------
// Counter-derived substreams
// ---------------------------------------------------------------------------

/// Substream domain separators. Distinct domains guarantee that e.g. lot
/// stream 3 and chip stream 3 never collide.
const DOMAIN_LOT: u64 = 1;
const DOMAIN_WAFER: u64 = 2;
const DOMAIN_CHIP: u64 = 3;

/// splitmix64 finalizer over `(seed, domain, index)`: a cheap, well-mixed
/// injection from the counter triple to a substream seed.
fn substream_seed(seed: u64, domain: u64, index: u64) -> u64 {
    let mut z = seed
        ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of chip `i`'s private measurement/fabrication stream.
pub(crate) fn chip_stream_seed(seed: u64, chip: usize) -> u64 {
    substream_seed(seed, DOMAIN_CHIP, chip as u64)
}

/// Reproduces chip `i`'s process state without walking chips `0..i`: the
/// lot and wafer shifts come from their own counter-derived streams, the
/// die-level draws from `rng` (the chip's stream).
pub(crate) fn process_state_at<R: Rng + ?Sized>(
    sampler: &ProcessSampler,
    seed: u64,
    i: usize,
    rng: &mut R,
) -> ProcessState {
    let s = sampler.spec();
    let die_in_wafer = i % s.dies_per_wafer;
    let wafer_idx = i / s.dies_per_wafer;
    let lot_idx = wafer_idx / s.wafers_per_lot;
    let lot_shift = {
        let mut lr = ChaCha8Rng::seed_from_u64(substream_seed(seed, DOMAIN_LOT, lot_idx as u64));
        normal(&mut lr, 0.0, s.sigma_vth_lot)
    };
    let wafer_shift = {
        let mut wr =
            ChaCha8Rng::seed_from_u64(substream_seed(seed, DOMAIN_WAFER, wafer_idx as u64));
        normal(&mut wr, 0.0, s.sigma_vth_wafer)
    };
    sampler.sample_die(
        rng,
        lot_shift,
        wafer_shift,
        lot_idx,
        wafer_idx % s.wafers_per_lot,
        die_in_wafer,
    )
}

// ---------------------------------------------------------------------------
// Block layout
// ---------------------------------------------------------------------------

/// Row geometry of a [`ChipBlock`]: every chip is one flat `f64` row
/// `[defective, parametric.., (rod.. cpd..) per read point, vmin per
/// (read point × temperature)]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLayout {
    /// Parametric tests per chip.
    pub parametric: usize,
    /// Stress read points.
    pub read_points: usize,
    /// ROD monitors read at each read point.
    pub rods: usize,
    /// CPD monitors read at each read point.
    pub cpds: usize,
    /// Vmin test temperatures at each read point.
    pub temps: usize,
}

impl BlockLayout {
    /// The layout a campaign under `spec` produces.
    pub fn of(spec: &DatasetSpec) -> Self {
        BlockLayout {
            parametric: spec.parametric.total_tests(),
            read_points: spec.stress.read_points.len(),
            rods: spec.monitors.rod_count,
            cpds: spec.monitors.cpd_count,
            temps: spec.vmin_test.temperatures.len(),
        }
    }

    /// Width of one chip row.
    pub fn row_width(&self) -> usize {
        1 + self.parametric + self.read_points * (self.rods + self.cpds + self.temps)
    }

    /// Column range of the parametric section.
    pub fn parametric_span(&self) -> (usize, usize) {
        (1, 1 + self.parametric)
    }

    /// Column range of read point `k`'s ROD readouts.
    pub fn rod_span(&self, k: usize) -> (usize, usize) {
        let start = 1 + self.parametric + k * (self.rods + self.cpds);
        (start, start + self.rods)
    }

    /// Column range of read point `k`'s CPD readouts.
    pub fn cpd_span(&self, k: usize) -> (usize, usize) {
        let start = 1 + self.parametric + k * (self.rods + self.cpds) + self.rods;
        (start, start + self.cpds)
    }

    /// Column of the Vmin (mV) at read point `k`, temperature index `t`.
    pub fn vmin_col(&self, k: usize, t: usize) -> usize {
        1 + self.parametric + self.read_points * (self.rods + self.cpds) + k * self.temps + t
    }
}

/// A fixed-size chunk of generated chips: `len()` rows of
/// [`BlockLayout::row_width`] values each, chip ids implicit as
/// `start() + row`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipBlock {
    start: usize,
    layout: BlockLayout,
    data: Vec<f64>,
}

impl ChipBlock {
    /// Campaign index of the block's first chip.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of chips in the block.
    pub fn len(&self) -> usize {
        self.data.len() / self.layout.row_width()
    }

    /// True when the block holds no chips.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The row geometry.
    pub fn layout(&self) -> &BlockLayout {
        &self.layout
    }

    /// Width of one chip row.
    pub fn row_width(&self) -> usize {
        self.layout.row_width()
    }

    /// The whole flat buffer, row-major.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// One chip's flat row.
    pub fn row(&self, r: usize) -> &[f64] {
        let w = self.layout.row_width();
        &self.data[r * w..(r + 1) * w]
    }

    /// Campaign chip id of row `r`.
    pub fn chip_id(&self, r: usize) -> usize {
        self.start + r
    }

    /// Ground-truth defect flag of row `r` (stored as 0.0 / 1.0).
    pub fn defective(&self, r: usize) -> bool {
        self.row(r)[0] > 0.5
    }

    /// Parametric results of row `r`, program order.
    pub fn parametric(&self, r: usize) -> &[f64] {
        let (a, b) = self.layout.parametric_span();
        &self.row(r)[a..b]
    }

    /// ROD readouts of row `r` at read point `k`.
    pub fn rod(&self, r: usize, k: usize) -> &[f64] {
        let (a, b) = self.layout.rod_span(k);
        &self.row(r)[a..b]
    }

    /// CPD readouts of row `r` at read point `k`.
    pub fn cpd(&self, r: usize, k: usize) -> &[f64] {
        let (a, b) = self.layout.cpd_span(k);
        &self.row(r)[a..b]
    }

    /// Vmin (mV) of row `r` at read point `k`, temperature index `t`.
    pub fn vmin_mv(&self, r: usize, k: usize, t: usize) -> f64 {
        self.row(r)[self.layout.vmin_col(k, t)]
    }

    /// Expands row `r` into the nested [`ChipMeasurements`] shape the
    /// monolithic campaign holds (`Campaign::run`, the equivalence tests
    /// and the streaming CSV writer use this).
    pub fn to_measurements(&self, r: usize) -> ChipMeasurements {
        let l = &self.layout;
        ChipMeasurements {
            chip_id: self.chip_id(r),
            defective: self.defective(r),
            parametric: self.parametric(r).to_vec(),
            rod: (0..l.read_points)
                .map(|k| self.rod(r, k).to_vec())
                .collect(),
            cpd: (0..l.read_points)
                .map(|k| self.cpd(r, k).to_vec())
                .collect(),
            vmin_mv: (0..l.read_points)
                .map(|k| (0..l.temps).map(|t| self.vmin_mv(r, k, t)).collect())
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Shared, read-only per-campaign state every shard worker borrows — the
/// generator behind both [`CampaignStream`] and
/// [`Campaign::run`](crate::Campaign::run).
pub(crate) struct StreamEngine {
    spec: DatasetSpec,
    seed: u64,
    layout: BlockLayout,
    factory: ChipFactory,
    sampler: ProcessSampler,
    pub(crate) program: ParametricProgram,
    pub(crate) tester: VminTester,
    pub(crate) read_points: Vec<Hours>,
    pub(crate) temperatures: Vec<Celsius>,
    /// The nominal aging model every chip clones when no read point lies
    /// after 0 h, so the campaign can never observe aging (see
    /// [`AgingDraws`]); `None` draws each chip's own.
    inert: Option<AgingModel>,
}

/// Per-shard scratch: one reusable chip (path vector recycled), one
/// reusable monitor bank, one Vmin search table and the shard's aging
/// draws. Lives for a whole shard, so the per-chip loop allocates nothing;
/// the table's and the draws' work counters are flushed once per shard.
struct ChipScratch<'e> {
    chip: Chip,
    bank: MonitorBank,
    table: SearchTable,
    draws: AgingDraws<'e>,
}

impl<'e> ChipScratch<'e> {
    fn new(spec: &DatasetSpec, inert: Option<&'e AgingModel>) -> Self {
        ChipScratch {
            chip: nominal_chip(spec),
            bank: MonitorBank::empty(&spec.monitors),
            table: SearchTable::default(),
            draws: AgingDraws::new(inert),
        }
    }
}

impl StreamEngine {
    pub(crate) fn new(spec: &DatasetSpec, seed: u64) -> Self {
        // The master stream draws ONLY the shared parametric program; every
        // other draw comes from a counter-derived substream, which is what
        // makes generation random-access.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let program = ParametricProgram::generate(&mut rng, &spec.parametric);
        let nominal = nominal_chip(spec);
        let tester = VminTester::calibrated(spec.vmin_test.clone(), &nominal);
        // A NaN read point fails `<=` and keeps the campaign on the drawn
        // path.
        let inert = spec
            .stress
            .read_points
            .iter()
            .all(|h| h.0 <= 0.0)
            .then_some(nominal.aging);
        StreamEngine {
            spec: spec.clone(),
            seed,
            layout: BlockLayout::of(spec),
            factory: ChipFactory::new(spec.clone()),
            sampler: ProcessSampler::new(spec.process.clone()),
            program,
            tester,
            read_points: spec.stress.read_points.clone(),
            temperatures: spec.vmin_test.temperatures.clone(),
            inert,
        }
    }

    /// Generates chip `i` directly into its flat `row`, drawing everything
    /// from the chip's counter-derived stream in a fixed order: process
    /// state, fabrication, monitor instantiation, parametric program, then
    /// per read point the monitor reads and the Vmin searches.
    fn measure_chip_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        i: usize,
        scratch: &mut ChipScratch<'_>,
        row: &mut [f64],
    ) {
        let layout = &self.layout;
        let process = process_state_at(&self.sampler, self.seed, i, rng);
        self.factory
            .refabricate_with(rng, i, process, &mut scratch.chip, &mut scratch.draws);
        scratch.bank.reinstantiate_with(
            rng,
            self.spec.paths_per_chip,
            self.spec.process.sigma_vth_local,
            &mut scratch.draws,
        );
        let chip = &scratch.chip;
        debug_assert!(
            self.inert.is_none()
                || self
                    .read_points
                    .iter()
                    .all(|&rp| chip.aging.unit_shift(rp).to_bits() == 0),
            "an inert campaign would read a nonzero aging shift"
        );
        row[0] = if chip.defective { 1.0 } else { 0.0 };
        let (pa, pb) = layout.parametric_span();
        self.program
            .run_into(rng, chip, Hours(0.0), &mut row[pa..pb]);
        for (k, &rp) in self.read_points.iter().enumerate() {
            let (ra, rb) = layout.rod_span(k);
            scratch.bank.read_rods_into(rng, chip, rp, &mut row[ra..rb]);
            let (ca, cb) = layout.cpd_span(k);
            scratch.bank.read_cpds_into(rng, chip, rp, &mut row[ca..cb]);
            for (ti, &temp) in self.temperatures.iter().enumerate() {
                let v = measure_vmin(rng, &self.tester, &mut scratch.table, chip, temp, rp);
                row[layout.vmin_col(k, ti)] = v.to_millivolts();
            }
        }
    }

    /// Generates chips `start..start + rows` into one block. Rows fan out
    /// in shards of [`SHARD_CHIPS`] chips through `vmin_par`; each shard
    /// owns one [`ChipScratch`] and flushes its search counters once. This
    /// is the one chip loop behind [`CampaignStream`] and
    /// [`Campaign::run`](crate::Campaign::run); each caller records its
    /// own spans and counters.
    pub(crate) fn generate(&self, start: usize, rows: usize) -> ChipBlock {
        let width = self.layout.row_width();
        let mut data = vec![0.0f64; rows * width];
        vmin_par::par_chunks_mut(&mut data, SHARD_CHIPS * width, 2, |ci, shard| {
            let mut scratch = ChipScratch::new(&self.spec, self.inert.as_ref());
            let shard_start = start + ci * SHARD_CHIPS;
            for (j, row) in shard.chunks_mut(width).enumerate() {
                let idx = shard_start + j;
                let mut rng = ChaCha8Rng::seed_from_u64(chip_stream_seed(self.seed, idx));
                self.measure_chip_into(&mut rng, idx, &mut scratch, row);
            }
            scratch.table.flush_counters();
            scratch.draws.flush_counters();
        });
        ChipBlock {
            start,
            layout: self.layout,
            data,
        }
    }
}

/// A lazily generated campaign: iterate it to receive [`ChipBlock`]s in
/// chip order, bit-identical to [`Campaign::run`](crate::Campaign::run)
/// on the same spec/seed at any chunk size and any `VMIN_THREADS`.
pub struct CampaignStream {
    engine: StreamEngine,
    chunk: usize,
    next: usize,
}

impl CampaignStream {
    /// Opens a stream with [`DEFAULT_STREAM_CHUNK`] rows per block.
    pub fn new(spec: &DatasetSpec, seed: u64) -> Self {
        Self::with_chunk(spec, seed, DEFAULT_STREAM_CHUNK)
    }

    /// Opens a stream with an explicit chunk size (clamped to ≥ 1).
    pub fn with_chunk(spec: &DatasetSpec, seed: u64, chunk: usize) -> Self {
        vmin_trace::counter_add("silicon.stream.campaigns", 1);
        CampaignStream {
            engine: StreamEngine::new(spec, seed),
            chunk: chunk.max(1),
            next: 0,
        }
    }

    /// The spec the stream generates under.
    pub fn spec(&self) -> &DatasetSpec {
        &self.engine.spec
    }

    /// The campaign seed.
    pub fn seed(&self) -> u64 {
        self.engine.seed
    }

    /// Rows per block (the last block may be shorter).
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// The row geometry every block shares.
    pub fn layout(&self) -> &BlockLayout {
        &self.engine.layout
    }

    /// Total chips the stream will produce.
    pub fn chip_count(&self) -> usize {
        self.engine.spec.chip_count
    }

    /// Names of the parametric features, program order.
    pub fn parametric_names(&self) -> Vec<String> {
        self.engine.program.names()
    }

    /// Stress read points, ascending.
    pub fn read_points(&self) -> &[Hours] {
        &self.engine.read_points
    }

    /// Vmin test temperatures, spec order.
    pub fn temperatures(&self) -> &[Celsius] {
        &self.engine.temperatures
    }

    /// The calibrated tester clock period (ps).
    pub fn clock_period_ps(&self) -> f64 {
        self.engine.tester.clock_period().0
    }

    fn generate_block(&self, start: usize, rows: usize) -> ChipBlock {
        let _span = vmin_trace::span("silicon.stream.chunk");
        vmin_trace::counter_add("silicon.stream.chunks", 1);
        vmin_trace::counter_add("silicon.stream.chips", rows as u64);
        vmin_trace::counter_add("silicon.stream.shards", rows.div_ceil(SHARD_CHIPS) as u64);
        vmin_trace::counter_add(
            "silicon.vmin.searches",
            (rows * self.engine.read_points.len() * self.engine.temperatures.len()) as u64,
        );
        self.engine.generate(start, rows)
    }
}

impl Iterator for CampaignStream {
    type Item = ChipBlock;

    fn next(&mut self) -> Option<ChipBlock> {
        let total = self.engine.spec.chip_count;
        if self.next >= total {
            return None;
        }
        let start = self.next;
        let rows = (total - start).min(self.chunk);
        self.next = start + rows;
        Some(self.generate_block(start, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StreamEngine {
        /// An engine that transforms every aging draw whatever its read
        /// points: the oracle the inert mode is checked against.
        fn drawn(spec: &DatasetSpec, seed: u64) -> Self {
            StreamEngine {
                inert: None,
                ..Self::new(spec, seed)
            }
        }
    }

    #[test]
    fn aging_is_inert_only_when_no_read_point_lies_after_0_h() {
        assert!(StreamEngine::new(&DatasetSpec::screening(4), 1)
            .inert
            .is_some());
        assert!(StreamEngine::new(&DatasetSpec::small(), 1).inert.is_none());
        let mut nan = DatasetSpec::screening(4);
        nan.stress.read_points = vec![Hours(0.0), Hours(f64::NAN)];
        assert!(StreamEngine::new(&nan, 1).inert.is_none());
    }

    #[test]
    fn inert_aging_draws_are_bit_identical_to_drawn_ones() {
        // 130 chips cross two wafer boundaries (60 dies each), so the lot
        // and wafer substreams change under both modes within a run.
        let spec = DatasetSpec::screening(130);
        let inert = StreamEngine::new(&spec, 11);
        let drawn = StreamEngine::drawn(&spec, 11);
        assert!(inert.inert.is_some());
        let bits = |engine: &StreamEngine, chunk: usize| {
            (0..spec.chip_count)
                .step_by(chunk)
                .map(|start| {
                    let block = engine.generate(start, chunk.min(spec.chip_count - start));
                    block
                        .data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<u64>>()
                })
                .collect::<Vec<_>>()
        };
        for chunk in [1, 7, 64] {
            assert_eq!(bits(&inert, chunk), bits(&drawn, chunk), "chunk {chunk}");
        }
    }

    #[test]
    fn substreams_are_distinct_across_domains_and_indices() {
        let mut seen = std::collections::BTreeSet::new();
        for domain in [DOMAIN_LOT, DOMAIN_WAFER, DOMAIN_CHIP] {
            for index in 0..64 {
                assert!(seen.insert(substream_seed(7, domain, index)));
            }
        }
        assert_ne!(
            substream_seed(1, DOMAIN_CHIP, 0),
            substream_seed(2, DOMAIN_CHIP, 0)
        );
    }

    #[test]
    fn layout_spans_tile_the_row() {
        let spec = DatasetSpec::small();
        let l = BlockLayout::of(&spec);
        let (pa, pb) = l.parametric_span();
        assert_eq!(pa, 1);
        assert_eq!(pb - pa, spec.parametric.total_tests());
        let mut expected = pb;
        for k in 0..l.read_points {
            let (ra, rb) = l.rod_span(k);
            assert_eq!(ra, expected);
            let (ca, cb) = l.cpd_span(k);
            assert_eq!(ca, rb);
            expected = cb;
        }
        assert_eq!(l.vmin_col(0, 0), expected);
        assert_eq!(
            l.vmin_col(l.read_points - 1, l.temps - 1) + 1,
            l.row_width()
        );
    }

    #[test]
    fn blocks_cover_the_campaign_exactly_once() {
        let spec = DatasetSpec::small();
        let blocks: Vec<ChipBlock> = CampaignStream::with_chunk(&spec, 5, 7).collect();
        let mut next_id = 0;
        for b in &blocks {
            assert_eq!(b.start(), next_id);
            assert!(b.len() <= 7);
            next_id += b.len();
        }
        assert_eq!(next_id, spec.chip_count);
    }

    #[test]
    fn entry_points_attribute_generation_to_their_own_counters() {
        // Both entry points run the one chip loop, but each records only
        // its own span and chip counter: perfbench sums the two spans and
        // the two chip counters, so a campaign that nested a stream span
        // or counted `silicon.stream.*` would double-count generation.
        let spec = DatasetSpec::small();
        let prev = vmin_trace::set_enabled(true);
        let (campaign, run) = vmin_trace::with_collector(|| crate::Campaign::run(&spec, 7));
        let (blocks, stream) =
            vmin_trace::with_collector(|| CampaignStream::with_chunk(&spec, 7, 16).count());
        vmin_trace::set_enabled(prev);

        let chips = spec.chip_count as u64;
        let searches =
            chips * spec.stress.read_points.len() as u64 * spec.vmin_test.temperatures.len() as u64;
        assert_eq!(campaign.chip_count(), spec.chip_count);
        assert_eq!(run.timers["silicon.campaign.run"].count, 1);
        assert_eq!(run.counters["silicon.chips.fabricated"], chips);
        assert_eq!(run.counters["silicon.vmin.searches"], searches);
        let stream_keys = run.counters.keys().chain(run.timers.keys());
        for key in stream_keys {
            assert!(
                !key.starts_with("silicon.stream."),
                "campaign recorded {key}"
            );
        }

        assert_eq!(stream.timers["silicon.stream.chunk"].count, blocks as u64);
        assert_eq!(stream.counters["silicon.stream.chips"], chips);
        assert!(!stream.counters.contains_key("silicon.chips.fabricated"));
        assert!(!stream.timers.contains_key("silicon.campaign.run"));
        for key in [
            "silicon.vmin.searches",
            "silicon.vmin.bisect_steps",
            "silicon.device.evals",
            "silicon.vmin.certified",
        ] {
            assert_eq!(stream.counters.get(key), run.counters.get(key), "{key}");
        }
    }

    #[test]
    fn measurements_roundtrip_through_flat_rows() {
        let spec = DatasetSpec::small();
        let mut stream = CampaignStream::with_chunk(&spec, 3, 8);
        let block = stream.next().unwrap();
        let m = block.to_measurements(2);
        assert_eq!(m.chip_id, 2);
        assert_eq!(m.parametric.len(), spec.parametric.total_tests());
        assert_eq!(m.rod.len(), spec.stress.read_points.len());
        assert_eq!(m.rod[0].len(), spec.monitors.rod_count);
        assert_eq!(m.cpd[0].len(), spec.monitors.cpd_count);
        assert_eq!(m.vmin_mv[0].len(), spec.vmin_test.temperatures.len());
        assert_eq!(block.vmin_mv(2, 0, 0), m.vmin_mv[0][0]);
    }
}
