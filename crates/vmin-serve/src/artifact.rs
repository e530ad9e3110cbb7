//! `vmin-artifact/v1`: the portable on-disk snapshot of a [`ServeModel`].
//!
//! Layout (everything little-endian, `f64` stored as the IEEE bit
//! pattern via `to_bits`, so round-trips are bit-exact):
//!
//! ```text
//! magic      b"vmin-artifact/v1\n"              (17 bytes)
//! family     u8   (1 = GBT pair, 2 = oblivious pair)
//! n_sections u8
//! sections   tag u8 · payload_len u64 · payload  (tags strictly increasing)
//!   1 CAL        alpha f64 · qhat f64
//!   2 SCALER     n u64 · means n×f64 · scales n×f64   (optional)
//!   3 LO MODEL   family-specific table encoding (below)
//!   4 HI MODEL   same
//! footer     u64  FNV-1a 64 checksum of every preceding byte
//! ```
//!
//! GBT model payload: `n_features u64 · base_score f64 · n_trees u64 ·
//! roots (n_trees+1)×u32 · n_nodes u64 · feature n_nodes×u32 ·
//! threshold n_nodes×f64 · left n_nodes×u32 · right n_nodes×u32`.
//!
//! Oblivious model payload: `n_features u64 · base_score f64 ·
//! n_trees u64 · level_off (n_trees+1)×u32 · n_levels u64 ·
//! level_feat ×u32 · level_thr ×f64 · lut_off (n_trees+1)×u32 ·
//! n_lut u64 · lut ×f64`.
//!
//! Encoding is a pure function of the captured tables — same model, same
//! bytes — which is what makes the golden-artifact regression suite and
//! the save→load→save identity possible. Decoding trusts nothing: magic,
//! version, checksum, section framing and every structural invariant
//! (monotone offsets, in-range features, strictly-forward child indices,
//! `2^levels` LUT sizes) are re-checked, and every failure is a typed
//! [`ArtifactError`] — corrupt bytes never panic and never build a model
//! whose walks could fail to terminate.

use crate::engine::{FlatPair, ScalerState, ServeModel};
use crate::flat::{check_oblivious_tables, FlatGbt, FlatOblivious};
use std::error::Error;
use std::fmt;

/// The `vmin-artifact/v1` magic header, newline-terminated so the version
/// line is greppable in the raw file.
pub const MAGIC: &[u8] = b"vmin-artifact/v1\n";

/// Shared prefix of every artifact version, used to distinguish "not an
/// artifact at all" from "an artifact of a version this build cannot read".
const MAGIC_PREFIX: &[u8] = b"vmin-artifact/";

const FAMILY_GBT: u8 = 1;
const FAMILY_OBLIVIOUS: u8 = 2;

const SEC_CAL: u8 = 1;
const SEC_SCALER: u8 = 2;
const SEC_LO: u8 = 3;
const SEC_HI: u8 = 4;

/// Typed decode failure. Every way arbitrary bytes can disappoint maps to
/// exactly one variant; none of them panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Fewer bytes than the layout requires at this point.
    Truncated {
        /// Bytes the current read needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The file does not start with any `vmin-artifact/` header.
    BadMagic,
    /// A `vmin-artifact/` header of a version this build cannot read.
    UnsupportedVersion(String),
    /// Content checksum mismatch: the bytes were corrupted in flight.
    BadChecksum {
        /// Checksum recomputed over the received bytes.
        expected: u64,
        /// Checksum the footer claims.
        found: u64,
    },
    /// Framing or structural invariant violation inside a section.
    Malformed(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Truncated { needed, have } => {
                write!(f, "artifact truncated: needed {needed} bytes, have {have}")
            }
            ArtifactError::BadMagic => write!(f, "not a vmin-artifact file"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported artifact version {v:?} (this build reads v1)"
                )
            }
            ArtifactError::BadChecksum { expected, found } => write!(
                f,
                "artifact checksum mismatch: computed {expected:#018x}, stored {found:#018x}"
            ),
            ArtifactError::Malformed(m) => write!(f, "malformed artifact: {m}"),
        }
    }
}

impl Error for ArtifactError {}

/// FNV-1a 64 — tiny, dependency-free, deterministic; an integrity (not
/// security) checksum for catching bit rot and truncation.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

fn encode_gbt(m: &FlatGbt) -> Vec<u8> {
    let mut p = Vec::new();
    put_u64(&mut p, u64::from(m.n_features));
    put_f64(&mut p, m.base_score);
    put_u64(&mut p, m.n_trees() as u64);
    for &r in &m.roots {
        put_u32(&mut p, r);
    }
    put_u64(&mut p, m.feature.len() as u64);
    for &f in &m.feature {
        put_u32(&mut p, f);
    }
    for &t in &m.threshold {
        put_f64(&mut p, t);
    }
    for &l in &m.left {
        put_u32(&mut p, l);
    }
    for &r in &m.right {
        put_u32(&mut p, r);
    }
    p
}

fn encode_oblivious(m: &FlatOblivious) -> Vec<u8> {
    let mut p = Vec::new();
    put_u64(&mut p, u64::from(m.n_features));
    put_f64(&mut p, m.base_score);
    put_u64(&mut p, m.n_trees() as u64);
    for &o in &m.level_off {
        put_u32(&mut p, o);
    }
    put_u64(&mut p, m.level_feat.len() as u64);
    for &f in &m.level_feat {
        put_u32(&mut p, f);
    }
    for &t in &m.level_thr {
        put_f64(&mut p, t);
    }
    for &o in &m.lut_off {
        put_u32(&mut p, o);
    }
    put_u64(&mut p, m.lut.len() as u64);
    for &v in &m.lut {
        put_f64(&mut p, v);
    }
    p
}

impl ServeModel {
    /// Serializes the model as `vmin-artifact/v1` bytes — a pure function
    /// of the captured state, so equal models yield equal bytes and
    /// save→load→save is a byte-for-byte identity.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        let (family, lo_payload, hi_payload) = match &self.pair {
            FlatPair::Gbt { lo, hi } => (FAMILY_GBT, encode_gbt(lo), encode_gbt(hi)),
            FlatPair::Oblivious { lo, hi } => {
                (FAMILY_OBLIVIOUS, encode_oblivious(lo), encode_oblivious(hi))
            }
        };
        out.push(family);
        let n_sections = if self.scaler.is_some() { 4u8 } else { 3u8 };
        out.push(n_sections);
        let mut cal = Vec::new();
        put_f64(&mut cal, self.alpha);
        put_f64(&mut cal, self.qhat);
        put_section(&mut out, SEC_CAL, &cal);
        if let Some(s) = &self.scaler {
            let mut sc = Vec::new();
            put_u64(&mut sc, s.means.len() as u64);
            for &m in &s.means {
                put_f64(&mut sc, m);
            }
            for &v in &s.scales {
                put_f64(&mut sc, v);
            }
            put_section(&mut out, SEC_SCALER, &sc);
        }
        put_section(&mut out, SEC_LO, &lo_payload);
        put_section(&mut out, SEC_HI, &hi_payload);
        let checksum = fnv1a64(&out);
        put_u64(&mut out, checksum);
        vmin_trace::counter_add("serve.artifact.saves", 1);
        vmin_trace::gauge_max("serve.artifact.bytes", out.len() as f64);
        out
    }

    /// Decodes and validates `vmin-artifact/v1` bytes into a servable
    /// model, without touching any training crate code path.
    ///
    /// # Errors
    ///
    /// Every [`ArtifactError`] variant, per its documentation; arbitrary
    /// input never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        if bytes.len() < MAGIC.len() {
            if bytes.starts_with(MAGIC_PREFIX) || MAGIC_PREFIX.starts_with(bytes) {
                return Err(ArtifactError::Truncated {
                    needed: MAGIC.len(),
                    have: bytes.len(),
                });
            }
            return Err(ArtifactError::BadMagic);
        }
        if !bytes.starts_with(MAGIC) {
            if bytes.starts_with(MAGIC_PREFIX) {
                let rest = &bytes[MAGIC_PREFIX.len()..];
                let end = rest
                    .iter()
                    .position(|&b| b == b'\n')
                    .unwrap_or(rest.len().min(16));
                let version = String::from_utf8_lossy(&rest[..end]).into_owned();
                return Err(ArtifactError::UnsupportedVersion(version));
            }
            return Err(ArtifactError::BadMagic);
        }
        let body_len = bytes.len().saturating_sub(8);
        if body_len < MAGIC.len() + 2 {
            return Err(ArtifactError::Truncated {
                needed: MAGIC.len() + 2 + 8,
                have: bytes.len(),
            });
        }
        let expected = fnv1a64(&bytes[..body_len]);
        let mut footer = [0u8; 8];
        footer.copy_from_slice(&bytes[body_len..]);
        let found = u64::from_le_bytes(footer);
        if expected != found {
            return Err(ArtifactError::BadChecksum { expected, found });
        }
        let mut cur = Cur {
            bytes: &bytes[..body_len],
            pos: MAGIC.len(),
        };
        let family = cur.u8()?;
        let n_sections = cur.u8()?;
        let mut cal: Option<(f64, f64)> = None;
        let mut scaler: Option<ScalerState> = None;
        let mut lo_bytes: Option<&[u8]> = None;
        let mut hi_bytes: Option<&[u8]> = None;
        let mut last_tag = 0u8;
        for _ in 0..n_sections {
            let tag = cur.u8()?;
            if tag <= last_tag {
                return Err(ArtifactError::Malformed(format!(
                    "section tags must be strictly increasing (saw {tag} after {last_tag})"
                )));
            }
            last_tag = tag;
            let len = cur.u64()? as usize;
            let payload = cur.take(len)?;
            match tag {
                SEC_CAL => {
                    let mut c = Cur {
                        bytes: payload,
                        pos: 0,
                    };
                    cal = Some((c.f64()?, c.f64()?));
                    c.finish("calibration section")?;
                }
                SEC_SCALER => {
                    let mut c = Cur {
                        bytes: payload,
                        pos: 0,
                    };
                    let n = c.len("scaler column count")?;
                    let means = c.f64_vec(n)?;
                    let scales = c.f64_vec(n)?;
                    c.finish("scaler section")?;
                    scaler = Some(ScalerState { means, scales });
                }
                SEC_LO => lo_bytes = Some(payload),
                SEC_HI => hi_bytes = Some(payload),
                other => {
                    return Err(ArtifactError::Malformed(format!(
                        "unknown section tag {other}"
                    )));
                }
            }
        }
        cur.finish("artifact body")?;
        let (alpha, qhat) =
            cal.ok_or_else(|| ArtifactError::Malformed("missing calibration section".into()))?;
        let lo_bytes =
            lo_bytes.ok_or_else(|| ArtifactError::Malformed("missing lo-model section".into()))?;
        let hi_bytes =
            hi_bytes.ok_or_else(|| ArtifactError::Malformed("missing hi-model section".into()))?;
        let pair = match family {
            FAMILY_GBT => FlatPair::Gbt {
                lo: Box::new(decode_gbt(lo_bytes, "lo")?),
                hi: Box::new(decode_gbt(hi_bytes, "hi")?),
            },
            FAMILY_OBLIVIOUS => FlatPair::Oblivious {
                lo: Box::new(decode_oblivious(lo_bytes, "lo")?),
                hi: Box::new(decode_oblivious(hi_bytes, "hi")?),
            },
            other => {
                return Err(ArtifactError::Malformed(format!(
                    "unknown model family {other}"
                )));
            }
        };
        let model = ServeModel::from_parts(pair, alpha, qhat, scaler)
            .map_err(|e| ArtifactError::Malformed(e.to_string()))?;
        vmin_trace::counter_add("serve.artifact.loads", 1);
        vmin_trace::gauge_max("serve.artifact.bytes", bytes.len() as f64);
        Ok(model)
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian cursor; every overrun is a typed
/// [`ArtifactError::Truncated`].
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let have = self.bytes.len() - self.pos;
        if n > have {
            return Err(ArtifactError::Truncated { needed: n, have });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` count that must also fit the remaining payload (8 bytes per
    /// element lower bound would over-reject u32 vecs, so just cap at the
    /// remaining byte count — the per-vector `take` does the exact check).
    fn len(&mut self, what: &str) -> Result<usize, ArtifactError> {
        let v = self.u64()?;
        if v > self.bytes.len() as u64 {
            return Err(ArtifactError::Malformed(format!(
                "{what} {v} exceeds the section size"
            )));
        }
        Ok(v as usize)
    }

    fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, ArtifactError> {
        let raw = self.take(n.saturating_mul(4))?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn f64_vec(&mut self, n: usize) -> Result<Vec<f64>, ArtifactError> {
        let raw = self.take(n.saturating_mul(8))?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                f64::from_bits(u64::from_le_bytes(b))
            })
            .collect())
    }

    fn finish(&self, what: &str) -> Result<(), ArtifactError> {
        if self.pos != self.bytes.len() {
            return Err(ArtifactError::Malformed(format!(
                "{what} has {} trailing bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn decode_width(cur: &mut Cur<'_>, which: &str) -> Result<u32, ArtifactError> {
    let w = cur.u64()?;
    match u32::try_from(w) {
        Ok(w) if w > 0 => Ok(w),
        _ => Err(ArtifactError::Malformed(format!(
            "{which} model: feature count {w} out of range"
        ))),
    }
}

fn decode_gbt(payload: &[u8], which: &str) -> Result<FlatGbt, ArtifactError> {
    let mut c = Cur {
        bytes: payload,
        pos: 0,
    };
    let n_features = decode_width(&mut c, which)?;
    let base_score = c.f64()?;
    let n_trees = c.len("tree count")?;
    if n_trees == 0 {
        return Err(ArtifactError::Malformed(format!(
            "{which} model: zero trees"
        )));
    }
    let roots = c.u32_vec(n_trees + 1)?;
    let n_nodes = c.len("node count")?;
    let feature = c.u32_vec(n_nodes)?;
    let threshold = c.f64_vec(n_nodes)?;
    let left = c.u32_vec(n_nodes)?;
    let right = c.u32_vec(n_nodes)?;
    c.finish("GBT model section")?;
    FlatGbt::from_tables(
        n_features, base_score, roots, feature, threshold, left, right,
    )
    .map_err(|m| ArtifactError::Malformed(format!("{which} model: {m}")))
}

fn decode_oblivious(payload: &[u8], which: &str) -> Result<FlatOblivious, ArtifactError> {
    let mut c = Cur {
        bytes: payload,
        pos: 0,
    };
    let n_features = decode_width(&mut c, which)?;
    let base_score = c.f64()?;
    let n_trees = c.len("tree count")?;
    if n_trees == 0 {
        return Err(ArtifactError::Malformed(format!(
            "{which} model: zero trees"
        )));
    }
    let level_off = c.u32_vec(n_trees + 1)?;
    let n_levels = c.len("level count")?;
    let level_feat = c.u32_vec(n_levels)?;
    let level_thr = c.f64_vec(n_levels)?;
    let lut_off = c.u32_vec(n_trees + 1)?;
    let n_lut = c.len("LUT length")?;
    let lut = c.f64_vec(n_lut)?;
    c.finish("oblivious model section")?;
    check_oblivious_tables(n_features, &level_off, &level_feat, &lut_off, n_lut)
        .map_err(|m| ArtifactError::Malformed(format!("{which} model: {m}")))?;
    Ok(FlatOblivious {
        n_features,
        base_score,
        level_feat,
        level_thr,
        level_off,
        lut,
        lut_off,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::LEAF;

    /// A GBT ensemble of `n_trees` single-leaf trees — the cheapest tree
    /// an artifact can carry (24 bytes).
    fn leaves(n_trees: usize) -> FlatGbt {
        let n = u32::try_from(n_trees).unwrap();
        FlatGbt::from_tables(
            2,
            0.5,
            (0..=n).collect(),
            vec![LEAF; n_trees],
            (0..n_trees).map(|i| 1e-3 * i as f64).collect(),
            (0..n).collect(),
            (0..n).collect(),
        )
        .unwrap()
    }

    #[test]
    fn thousands_of_single_leaf_trees_decode_in_linear_memory() {
        let pair = FlatPair::Gbt {
            lo: Box::new(leaves(5_000)),
            hi: Box::new(leaves(3_001)),
        };
        let bytes = ServeModel::from_parts(pair, 0.1, 0.0, None)
            .unwrap()
            .to_bytes();
        let (decoded, snap) = vmin_trace::with_collector(|| ServeModel::from_bytes(&bytes));
        let model = decoded.unwrap();
        let table_bytes = model.pair.table_bytes();
        assert!(
            table_bytes <= 4 * bytes.len(),
            "{table_bytes} derived bytes from a {}-byte artifact",
            bytes.len()
        );
        if vmin_trace::enabled() {
            assert_eq!(snap.gauges["serve.table.bytes"], table_bytes as f64);
        }
        // Every tree contributes its leaf, in tree order.
        let x = vmin_linalg::Matrix::from_rows(&vec![vec![0.0, 1.0]; 19]).unwrap();
        let served = model.serve_batch(&x, 16).unwrap();
        let sum = |n: usize| (0..n).fold(0.5, |acc, i| acc + 1e-3 * i as f64);
        for iv in served {
            assert_eq!(iv.lo().to_bits(), sum(5_000).min(sum(3_001)).to_bits());
            assert_eq!(iv.hi().to_bits(), sum(5_000).max(sum(3_001)).to_bits());
        }
    }
}
