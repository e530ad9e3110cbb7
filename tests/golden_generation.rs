//! Golden digests of synthetic-silicon generation.
//!
//! Every value the simulator produces — streamed screening rows, the
//! monolithic burn-in campaign, paper-scale chips and the conventional
//! shmoo flow — is folded into FNV-1a digests over its IEEE-754 bits and
//! compared with constants recorded before the Vmin-search kernel was
//! restructured (the lot-boundary digest before the certified bracket's
//! steps were cut to the binding path). A change that moves a single
//! simulated bit fails here; a change meant to move outputs must
//! re-record the constants and say why.

use cqr_vmin::silicon::{
    nominal_chip, Campaign, CampaignStream, ChipFactory, DatasetSpec, Hours, VminTester,
};
use vmin_rng::{ChaCha8Rng, SeedableRng};

/// 64-bit FNV-1a over the little-endian bytes of a `u64` sequence.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }
}

fn campaign_digest(c: &Campaign) -> u64 {
    let mut h = Fnv::new();
    h.f64(c.clock_period_ps);
    h.u64(c.chips.len() as u64);
    for m in &c.chips {
        h.u64(m.chip_id as u64);
        h.u64(u64::from(m.defective));
        h.f64s(&m.parametric);
        for k in 0..m.rod.len() {
            h.f64s(&m.rod[k]);
            h.f64s(&m.cpd[k]);
            h.f64s(&m.vmin_mv[k]);
        }
    }
    h.0
}

/// One digest per row of a 96-chip screening stream (seed 2024, 40-row
/// chunks so a block boundary falls mid-shard).
const SCREENING_ROWS: [u64; 96] = [
    0x1b5d_a47f_a995_371e,
    0x3d6f_2fab_2877_7b08,
    0x4b09_cde0_2dec_1091,
    0x8ff0_66a1_ae22_4d31,
    0x147c_2260_bdea_e18e,
    0x29cc_943e_2718_cc65,
    0x6c14_68ce_d3c6_4e08,
    0x7b3a_187d_6851_badc,
    0x40d2_7480_393b_61a9,
    0x4f9a_68c6_d78e_268a,
    0xe6c8_67d1_4f20_bb60,
    0xb1ed_c225_f29a_e0fe,
    0x7ed2_b454_bb2b_ce1f,
    0xb67f_fe60_8bc7_1184,
    0xf658_7501_62cf_be07,
    0x5602_e5e8_d9cf_c5ac,
    0x9eb8_e734_580f_d4e1,
    0x616e_cc5b_5538_c78c,
    0xbd50_1869_57c4_cbc8,
    0x9350_1148_0f91_e0c7,
    0xf5e6_e1bf_9705_bc6e,
    0x46c0_0429_45a9_b366,
    0x51e6_7e63_66ca_ea37,
    0x345e_c538_9845_1dd9,
    0x7021_b385_c158_6d63,
    0xab9d_c486_afb1_89f2,
    0x84e8_7c0b_3299_5f72,
    0x4ba4_4417_f112_4ce3,
    0xa590_dff8_68a0_cb24,
    0xfa20_3118_28a8_6117,
    0x6216_a5dd_9edf_9939,
    0x45e6_4bc6_e9cb_e69c,
    0x3d2f_5eb7_b504_1b96,
    0x74b6_0d59_e9fb_3765,
    0xf548_8629_cb56_d947,
    0x13c6_ae44_7f53_b0e1,
    0x57c5_79e4_73d9_4a50,
    0xdd2e_4061_f298_ff48,
    0xbf74_82a6_185d_57dc,
    0x93c3_00f6_bfd7_3241,
    0xbbdc_2082_4bd2_d434,
    0x6a92_0693_3eb0_98ea,
    0x430f_9f76_4872_0e5f,
    0x85bb_cd68_4749_bdfc,
    0xfe63_19c1_fd5f_1603,
    0xa980_874d_7d1b_defb,
    0xe780_1dce_6ea8_31b0,
    0xeb53_5389_4ea5_3921,
    0x4ab7_a13f_dbbc_a676,
    0x907c_821e_9c05_bb01,
    0x6ac7_c719_a4b3_d981,
    0x5600_008a_9802_3438,
    0xdbb3_8434_33d4_3337,
    0x4457_c23e_e6cc_f3b7,
    0xd2d7_c50b_925f_13ca,
    0xc8d9_e540_f83c_abed,
    0x6b50_9412_e315_6ae1,
    0xa879_9ee8_fe0d_c71c,
    0xa82b_bc03_3dbc_ddbd,
    0x7ac0_817e_c224_afcd,
    0x8eb4_de58_6188_ec9d,
    0x3dc9_01f7_03fd_20b1,
    0xf1e0_d7db_9a9e_705d,
    0x6066_fb02_085c_850f,
    0x6a07_b853_ea68_f9fd,
    0x7b52_94f1_5529_df50,
    0x3417_6683_4031_2996,
    0x67f9_c4e0_88d5_482c,
    0x2dd3_dd72_b9cb_1a04,
    0x4395_8c7d_272b_c13f,
    0xdc97_0c5c_b78b_be94,
    0x402d_8de2_a6b9_c811,
    0xe98b_a67b_4cc6_d480,
    0x4ca5_4260_fd03_43b6,
    0xa92e_cf1f_ee1f_6f9b,
    0xd4da_a172_f0e1_6bf7,
    0xa616_bd55_2c76_4f20,
    0x4d5c_09d5_adb5_5bc3,
    0x8b21_5e00_a3ba_7e07,
    0xc3fb_338e_eefc_3da1,
    0x60a9_27e8_a3e3_9ee1,
    0xd76b_713d_5b9e_f493,
    0xbc7a_1b1a_86f6_4a18,
    0xf304_55c0_79f7_a535,
    0x1e97_79b5_ac0c_e861,
    0xa98b_4d2d_48d1_042e,
    0xeab7_9e1f_cf1a_5a23,
    0xc263_b8ca_7073_428c,
    0x9889_a490_48fd_7f43,
    0xbeec_8075_6052_1159,
    0x5c19_fb7f_944b_5a5f,
    0xda12_926e_0400_2cc0,
    0xce10_23f1_2829_83f7,
    0x0a59_122f_e926_7941,
    0x9aba_7d0d_ad4e_edca,
    0x3ac3_4c79_8160_558e,
];

/// Rows 1,470–1,529 of a 1,536-chip screening stream (seed 2024) read in
/// 7-row chunks: every shard starts mid-wafer, and block [1498, 1505)
/// crosses the lot 0 → 1 boundary at chip 1,500 (25 wafers × 60 dies).
const LOT_BOUNDARY_ROWS: u64 = 0x5fbb_03ac_96d7_ca74;

/// `Campaign::run(&DatasetSpec::small(), 7)`: 64 chips, 8 paths, six read
/// points (t > 0 exercises the aging shift), three temperatures.
const SMALL_CAMPAIGN: u64 = 0x4bfa_de3b_6a92_4165;

/// Six chips of the paper spec (24 paths, 1800 parametric tests, 168
/// RODs), seed 11.
const PAPER_CHIPS: u64 = 0x2b7a_612b_2771_f1f5;

/// `vmin_shmoo` value bits and evaluation counts, plus the noiseless
/// bisection result, on five small-spec chips at every temperature and
/// three read points.
const SHMOO: u64 = 0xaee1_6657_b92a_050e;

#[test]
fn screening_stream_rows_match_golden_digests() {
    let spec = DatasetSpec::screening(96);
    let mut digests = Vec::with_capacity(96);
    for block in CampaignStream::with_chunk(&spec, 2024, 40) {
        for r in 0..block.len() {
            let mut h = Fnv::new();
            h.u64(block.chip_id(r) as u64);
            h.f64s(block.row(r));
            digests.push(h.0);
        }
    }
    assert_eq!(digests.len(), 96);
    let mismatched: Vec<usize> = (0..96)
        .filter(|&i| digests[i] != SCREENING_ROWS[i])
        .collect();
    assert!(
        mismatched.is_empty(),
        "screening rows {mismatched:?} moved; digests now {digests:016x?}"
    );
}

#[test]
fn screening_stream_across_a_lot_boundary_matches_golden_digest() {
    let spec = DatasetSpec::screening(1_536);
    let mut h = Fnv::new();
    let mut rows = 0;
    for block in CampaignStream::with_chunk(&spec, 2024, 7) {
        for r in 0..block.len() {
            let id = block.chip_id(r);
            if (1_470..1_530).contains(&id) {
                h.u64(id as u64);
                h.f64s(block.row(r));
                rows += 1;
            }
        }
    }
    assert_eq!(rows, 60);
    assert_eq!(
        h.0, LOT_BOUNDARY_ROWS,
        "lot-boundary digest now {:016x}",
        h.0
    );
}

#[test]
fn small_campaign_matches_golden_digest() {
    let got = campaign_digest(&Campaign::run(&DatasetSpec::small(), 7));
    assert_eq!(got, SMALL_CAMPAIGN, "small campaign digest now {got:016x}");
}

#[test]
fn paper_scale_chips_match_golden_digest() {
    let spec = DatasetSpec {
        chip_count: 6,
        ..DatasetSpec::default()
    };
    let campaign = Campaign::run(&spec, 11);
    assert_eq!(campaign.chips[0].parametric.len(), 1800);
    let got = campaign_digest(&campaign);
    assert_eq!(got, PAPER_CHIPS, "paper-scale digest now {got:016x}");
}

#[test]
fn shmoo_and_bisection_match_golden_digest() {
    let spec = DatasetSpec::small();
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let chips = ChipFactory::new(spec.clone()).fabricate(&mut rng);
    let tester = VminTester::calibrated(spec.vmin_test.clone(), &nominal_chip(&spec));
    let mut h = Fnv::new();
    h.f64(tester.clock_period().0);
    for chip in chips.iter().take(5) {
        for &temp in &spec.vmin_test.temperatures {
            for t in [Hours(0.0), Hours(24.0), Hours(1008.0)] {
                match tester.vmin_shmoo(&mut rng, chip, temp, t) {
                    Some((v, evals)) => {
                        h.f64(v.0);
                        h.u64(evals as u64);
                    }
                    None => h.u64(u64::MAX),
                }
                match tester.vmin_noiseless(chip, temp, t) {
                    Some(v) => h.f64(v.0),
                    None => h.u64(u64::MAX),
                }
            }
        }
    }
    assert_eq!(h.0, SHMOO, "shmoo digest now {:016x}", h.0);
}
