//! Golden-artifact lockdown of the `vmin-artifact/v1` wire format.
//!
//! The fixtures under `tests/fixtures/` are **checked-in bytes**, written
//! once and never regenerated casually: they are the promise that an
//! artifact saved today reloads — bit for bit, prediction for prediction —
//! under every future build. Three layers of lock:
//!
//! 1. **Round-trip identity.** `from_bytes(fixture).to_bytes()` must equal
//!    the fixture byte for byte (encoding is a pure function of state).
//! 2. **Recorded predictions.** Serving a deterministic probe batch from
//!    the reloaded fixture must reproduce the interval bit patterns
//!    recorded beside it (`*.expected`, one `lo hi` hex pair per row).
//! 3. **Hostile bytes.** Truncations, corruptions, version flips and
//!    crafted structural damage must each produce the matching *typed*
//!    [`ArtifactError`] — and no mutation of any single byte may panic.
//!
//! To regenerate after a *deliberate* format change (bump the version
//! string when the layout changes!):
//! `cargo test -p vmin-serve --test golden_artifact -- --ignored regenerate`

use std::fs;
use std::path::PathBuf;
use vmin_conformal::Cqr;
use vmin_data::Standardizer;
use vmin_linalg::Matrix;
use vmin_models::{
    GradientBoost, GradientBoostParams, Loss, ObliviousBoost, ObliviousBoostParams, TreeParams,
};
use vmin_rng::ChaCha8Rng;
use vmin_rng::Rng;
use vmin_rng::SeedableRng;
use vmin_serve::{ArtifactError, ServeModel, MAGIC};

const ALPHA: f64 = 0.1;
const PROBE_ROWS: usize = 12;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn read_fixture(name: &str) -> Vec<u8> {
    fs::read(fixture_path(name))
        .unwrap_or_else(|e| panic!("missing fixture {name} ({e}); see module docs to regenerate"))
}

/// Deterministic training data: the fixture *content* comes from here, but
/// the golden tests never retrain — they only read the checked-in bytes.
fn draw(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..4.0)).collect();
        let target = row.iter().sum::<f64>() + rng.gen_range(-0.5..0.5);
        rows.push(row);
        y.push(target);
    }
    (Matrix::from_rows(&rows).unwrap(), y)
}

fn probe_batch(d: usize) -> Matrix {
    draw(PROBE_ROWS, d, 99).0
}

fn build_gbt_fixture() -> ServeModel {
    let (x_tr_raw, y_tr) = draw(60, 3, 1);
    let (x_ca_raw, y_ca) = draw(30, 3, 2);
    let scaler = Standardizer::fit(&x_tr_raw);
    let x_tr = scaler.transform(&x_tr_raw).unwrap();
    let x_ca = scaler.transform(&x_ca_raw).unwrap();
    let params = GradientBoostParams {
        n_rounds: 8,
        tree: TreeParams {
            max_depth: 3,
            ..TreeParams::default()
        },
        ..GradientBoostParams::default()
    };
    let mut cqr = Cqr::new(
        GradientBoost::with_params(Loss::Pinball(ALPHA / 2.0), params),
        GradientBoost::with_params(Loss::Pinball(1.0 - ALPHA / 2.0), params),
        ALPHA,
    );
    cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
    ServeModel::from_gbt_cqr(&cqr, Some(&scaler)).unwrap()
}

fn build_oblivious_fixture() -> ServeModel {
    let (x_tr, y_tr) = draw(60, 3, 3);
    let (x_ca, y_ca) = draw(30, 3, 4);
    let params = ObliviousBoostParams {
        n_rounds: 8,
        depth: 3,
        ..ObliviousBoostParams::default()
    };
    let mut cqr = Cqr::new(
        ObliviousBoost::with_params(Loss::Pinball(ALPHA / 2.0), params),
        ObliviousBoost::with_params(Loss::Pinball(1.0 - ALPHA / 2.0), params),
        ALPHA,
    );
    cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
    ServeModel::from_oblivious_cqr(&cqr, None).unwrap()
}

fn render_expected(model: &ServeModel) -> String {
    let served = model
        .serve_batch(&probe_batch(model.n_features()), 4)
        .unwrap();
    served
        .iter()
        .map(|iv| format!("{:016x} {:016x}\n", iv.lo().to_bits(), iv.hi().to_bits()))
        .collect()
}

/// One-shot fixture writer; `#[ignore]` so the suite never regenerates
/// implicitly. Run it only for a deliberate, version-bumped format change.
#[test]
#[ignore = "writes the golden fixtures; run explicitly after a format change"]
fn regenerate() {
    fs::create_dir_all(fixture_path("")).unwrap();
    for (stem, model) in [
        ("gbt", build_gbt_fixture()),
        ("oblivious", build_oblivious_fixture()),
    ] {
        fs::write(fixture_path(&format!("{stem}.artifact")), model.to_bytes()).unwrap();
        fs::write(
            fixture_path(&format!("{stem}.expected")),
            render_expected(&model),
        )
        .unwrap();
    }
}

#[test]
fn fixtures_start_with_the_greppable_version_line() {
    for stem in ["gbt", "oblivious"] {
        let bytes = read_fixture(&format!("{stem}.artifact"));
        assert!(
            bytes.starts_with(MAGIC),
            "{stem}: fixture does not begin with the vmin-artifact/v1 header"
        );
    }
}

#[test]
fn save_load_save_is_byte_identical() {
    for stem in ["gbt", "oblivious"] {
        let bytes = read_fixture(&format!("{stem}.artifact"));
        let model = ServeModel::from_bytes(&bytes).unwrap();
        assert_eq!(
            model.to_bytes(),
            bytes,
            "{stem}: re-encoding the reloaded fixture changed the bytes"
        );
        // And the identity is stable through a second generation.
        let again = ServeModel::from_bytes(&model.to_bytes()).unwrap();
        assert_eq!(again, model, "{stem}: second-generation reload diverged");
    }
}

#[test]
fn reloaded_fixture_reproduces_the_recorded_prediction_bits() {
    for stem in ["gbt", "oblivious"] {
        let bytes = read_fixture(&format!("{stem}.artifact"));
        let model = ServeModel::from_bytes(&bytes).unwrap();
        let expected = String::from_utf8(read_fixture(&format!("{stem}.expected"))).unwrap();
        assert_eq!(
            render_expected(&model),
            expected,
            "{stem}: served bits differ from the recorded golden predictions"
        );
    }
}

/// FNV-1a 64 re-implemented from the format spec, so crafted-corruption
/// tests can re-seal structurally damaged bytes with a *valid* checksum.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let mut h = 0xcbf29ce484222325u64;
    for &b in &bytes[..body] {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    bytes[body..].copy_from_slice(&h.to_le_bytes());
    bytes
}

#[test]
fn hostile_bytes_produce_typed_errors() {
    let good = read_fixture("gbt.artifact");

    // Not an artifact at all.
    assert_eq!(
        ServeModel::from_bytes(b"definitely not an artifact").unwrap_err(),
        ArtifactError::BadMagic
    );
    // Empty bytes are a degenerate truncation (a zero-length prefix of a
    // valid header), not a foreign file.
    assert_eq!(
        ServeModel::from_bytes(&[]).unwrap_err(),
        ArtifactError::Truncated {
            needed: MAGIC.len(),
            have: 0
        }
    );

    // Cut off inside the header.
    assert!(matches!(
        ServeModel::from_bytes(&good[..10]).unwrap_err(),
        ArtifactError::Truncated { .. }
    ));
    assert!(matches!(
        ServeModel::from_bytes(&good[..MAGIC.len() + 1]).unwrap_err(),
        ArtifactError::Truncated { .. }
    ));

    // Cut off mid-body: without a total-length field this is
    // indistinguishable from corruption, and the checksum catches it.
    assert!(matches!(
        ServeModel::from_bytes(&good[..good.len() - 5]).unwrap_err(),
        ArtifactError::BadChecksum { .. }
    ));

    // A future version header must be refused by name.
    let mut v2 = good.clone();
    v2[15] = b'2'; // "vmin-artifact/v1" → "vmin-artifact/v2"
    match ServeModel::from_bytes(&v2).unwrap_err() {
        ArtifactError::UnsupportedVersion(v) => assert_eq!(v, "v2"),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    // Single-byte payload corruption → checksum mismatch.
    let mut flipped = good.clone();
    let mid = good.len() / 2;
    flipped[mid] ^= 0xff;
    assert!(matches!(
        ServeModel::from_bytes(&flipped).unwrap_err(),
        ArtifactError::BadChecksum { .. }
    ));

    // Crafted damage with a *valid* checksum must still be rejected, as
    // Malformed: an unknown model family…
    let mut bad_family = good.clone();
    bad_family[MAGIC.len()] = 9;
    assert!(matches!(
        ServeModel::from_bytes(&reseal(bad_family)).unwrap_err(),
        ArtifactError::Malformed(_)
    ));
    // …and a resealed mid-body truncation, which the section cursor
    // reports as a typed truncation.
    let short = reseal(good[..good.len() - 16].to_vec());
    assert!(matches!(
        ServeModel::from_bytes(&short).unwrap_err(),
        ArtifactError::Truncated { .. } | ArtifactError::Malformed(_)
    ));
}

/// Payload offset of the lo-model section (tag 3) of an artifact, walking
/// the section framing: `tag u8 · payload_len u64 · payload`.
fn lo_payload(bytes: &[u8]) -> usize {
    let mut pos = MAGIC.len() + 2; // family, n_sections
    while bytes[pos] != 3 {
        pos += 9 + read_u64(bytes, pos + 1) as usize;
    }
    pos + 9
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn write_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn write_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Applies `patch` to a copy of `good`, reseals it and decodes it: the
/// damage must come back as `Malformed` naming `expect`.
fn assert_malformed(good: &[u8], case: &str, expect: &str, patch: impl FnOnce(&mut [u8])) {
    let mut bytes = good.to_vec();
    patch(&mut bytes);
    match ServeModel::from_bytes(&reseal(bytes)) {
        Err(ArtifactError::Malformed(m)) => {
            assert!(m.contains(expect), "{case}: message {m:?} lacks {expect:?}")
        }
        other => panic!("{case}: expected Malformed({expect:?}), got {other:?}"),
    }
}

#[test]
fn hostile_gbt_tables_hit_every_decoder_rejection() {
    // Lo-model payload: n_features u64 · base_score f64 · n_trees u64 ·
    // roots (n_trees+1)×u32 · n_nodes u64 · feature ×u32 · threshold ×f64 ·
    // left ×u32 · right ×u32.
    let good = read_fixture("gbt.artifact");
    let p = lo_payload(&good);
    let n_features = read_u64(&good, p) as u32;
    let n_trees = read_u64(&good, p + 16) as usize;
    let roots = p + 24;
    let nodes_at = roots + 4 * (n_trees + 1);
    let n_nodes = read_u64(&good, nodes_at) as usize;
    let feature = nodes_at + 8;
    let left = feature + 12 * n_nodes;
    let right = left + 4 * n_nodes;
    // Node 0 is tree 0's root split; find a leaf as well.
    assert_ne!(read_u32(&good, feature), u32::MAX, "tree 0 is a stump");
    let leaf = (0..n_nodes)
        .find(|&i| read_u32(&good, feature + 4 * i) == u32::MAX)
        .unwrap();
    let leaf_at = u32::try_from(leaf).unwrap();

    assert_malformed(&good, "zero width", "feature count 0", |b| {
        write_u64(b, p, 0)
    });
    assert_malformed(&good, "zero trees", "zero trees", |b| {
        write_u64(b, p + 16, 0)
    });
    assert_malformed(&good, "overlong count", "exceeds the section size", |b| {
        write_u64(b, nodes_at, u64::MAX)
    });
    assert_malformed(&good, "short count", "trailing bytes", |b| {
        write_u64(b, nodes_at, (n_nodes - 1) as u64)
    });
    assert_malformed(&good, "unanchored roots", "do not span", |b| {
        write_u32(b, roots, 1)
    });
    assert_malformed(&good, "empty tree", "not increasing", |b| {
        write_u32(b, roots + 4, 0)
    });
    assert_malformed(&good, "leaf exit", "not self-loops", |b| {
        write_u32(b, left + 4 * leaf, leaf_at + 1)
    });
    assert_malformed(&good, "wide split", "tests feature", |b| {
        write_u32(b, feature, n_features)
    });
    assert_malformed(&good, "backward child", "escape", |b| write_u32(b, left, 0));
    assert_malformed(&good, "shared child", "reuse a node", |b| {
        let l = read_u32(b, left);
        write_u32(b, right, l)
    });
}

#[test]
fn hostile_oblivious_tables_hit_every_decoder_rejection() {
    // Lo-model payload: n_features u64 · base_score f64 · n_trees u64 ·
    // level_off (n_trees+1)×u32 · n_levels u64 · level_feat ×u32 ·
    // level_thr ×f64 · lut_off (n_trees+1)×u32 · n_lut u64 · lut ×f64.
    let good = read_fixture("oblivious.artifact");
    let p = lo_payload(&good);
    let n_features = read_u64(&good, p) as u32;
    let n_trees = read_u64(&good, p + 16) as usize;
    let level_off = p + 24;
    let levels_at = level_off + 4 * (n_trees + 1);
    let n_levels = read_u64(&good, levels_at) as usize;
    let level_feat = levels_at + 8;
    let lut_off = level_feat + 12 * n_levels;
    let too_deep = 17; // one past the deepest servable tree
    assert!(n_trees >= 2 && n_levels >= too_deep, "fixture too small");

    assert_malformed(&good, "zero trees", "zero trees", |b| {
        write_u64(b, p + 16, 0)
    });
    assert_malformed(&good, "overlong count", "exceeds the section size", |b| {
        write_u64(b, levels_at, u64::MAX)
    });
    assert_malformed(
        &good,
        "unanchored levels",
        "level offsets do not span",
        |b| write_u32(b, level_off, 1),
    );
    assert_malformed(&good, "unanchored LUT", "LUT offsets do not span", |b| {
        write_u32(b, lut_off, 1)
    });
    assert_malformed(&good, "overrun levels", "not monotone", |b| {
        write_u32(b, level_off + 4, (n_levels + 1) as u32)
    });
    assert_malformed(&good, "deep tree", "levels (max 16)", |b| {
        write_u32(b, level_off + 4, too_deep as u32)
    });
    assert_malformed(&good, "short LUT", "slots for", |b| {
        let end = read_u32(b, lut_off + 4);
        write_u32(b, lut_off + 4, end - 1)
    });
    assert_malformed(&good, "wide level", "tests feature", |b| {
        write_u32(b, level_feat, n_features)
    });
}

#[test]
fn no_single_byte_mutation_panics() {
    // Exhaustive single-byte fuzz over the whole fixture: every mutation
    // must come back as Ok or a typed Err — never a panic, never a hang
    // (the strictly-forward child invariant bounds every walk).
    let good = read_fixture("oblivious.artifact");
    for i in 0..good.len() {
        let mut bytes = good.clone();
        bytes[i] ^= 0xff;
        let _ = ServeModel::from_bytes(&bytes);
        // Resealed variants reach the structural validators too.
        let _ = ServeModel::from_bytes(&reseal(bytes));
    }
}
