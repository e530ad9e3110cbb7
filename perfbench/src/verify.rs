//! Request accounting and the reference digests.
//!
//! Every request's output is checked against the invariants of its
//! workload. A fixed prefix of requests at [`DEFAULT_SEED`] is also
//! digested and compared with `reference.txt`, so a change that moves a
//! single simulated or served bit shows up as failed requests, not as a
//! speed-up. Each run executes that prefix, whatever its own seed.

use crate::workloads::Reply;

/// The seed of the digested request prefix.
pub const DEFAULT_SEED: u64 = 1;

/// Reference digests: lines of `<workload> <request index> <digest hex>`.
const REFERENCE: &str = include_str!("../reference.txt");

/// Failure messages printed before the rest are only counted.
const MAX_REPORTED: u64 = 5;

/// Requests attempted and failed in a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Requests executed.
    pub attempted: u64,
    /// Requests whose output failed a check.
    pub failed: u64,
}

impl Tally {
    /// Counts one request with its check `outcome`.
    pub fn record(&mut self, request: u64, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.failed <= MAX_REPORTED {
                eprintln!("request {request} failed: {msg}");
            }
        }
    }
}

/// The reference digest of request `index` of `workload`, read from
/// `text` in the `reference.txt` format (`#` starts a comment line).
pub fn reference_digest(text: &str, workload: &str, index: u64) -> Option<u64> {
    text.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .find_map(|line| {
            let mut f = line.split_whitespace();
            let (w, i, d) = (f.next()?, f.next()?, f.next()?);
            if w != workload || i.parse::<u64>().ok()? != index {
                return None;
            }
            u64::from_str_radix(d, 16).ok()
        })
}

/// Checks `reply` and compares its digest with `expected`.
pub fn check_digest(reply: &Reply, expected: Option<u64>) -> Result<(), String> {
    reply.check()?;
    let got = reply.digest();
    match expected {
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!(
            "digest {got:016x} differs from the reference {want:016x} ({})",
            reply.summary()
        )),
        None => Err(format!("no reference digest; this output has {got:016x}")),
    }
}

/// [`check_digest`] against the digest checked in with the benchmark.
pub fn check_against_reference(workload: &str, index: u64, reply: &Reply) -> Result<(), String> {
    check_digest(reply, reference_digest(REFERENCE, workload, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmin_conformal::PredictionInterval;

    const TEXT: &str = "# workload index digest\nrescreen 0 00000000000000ff\nrescreen 1 10\n";

    #[test]
    fn parses_reference_lines() {
        assert_eq!(reference_digest(TEXT, "rescreen", 0), Some(255));
        assert_eq!(reference_digest(TEXT, "rescreen", 1), Some(16));
        assert_eq!(reference_digest(TEXT, "rescreen", 2), None);
        assert_eq!(reference_digest(TEXT, "fleet_screen", 0), None);
    }

    #[test]
    fn a_perturbed_output_counts_as_a_failed_request() {
        let ivs = vec![PredictionInterval::new(600.0, 650.0); crate::workloads::SERVE_ROWS];
        let reply = Reply::Intervals(ivs.clone());
        let reference = reply.digest();

        let mut perturbed = ivs;
        // One ulp on one served bound: still a valid interval.
        perturbed[17] = PredictionInterval::new(600.0, f64::from_bits(650f64.to_bits() + 1));
        let perturbed = Reply::Intervals(perturbed);
        assert_eq!(perturbed.check(), Ok(()));

        let mut tally = Tally::default();
        tally.record(0, check_digest(&reply, Some(reference)));
        tally.record(1, check_digest(&perturbed, Some(reference)));
        tally.record(2, check_digest(&reply, None));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
    }

    #[test]
    fn the_checked_in_reference_covers_every_digested_request() {
        use crate::workloads::{FleetScreen, Name, Rescreen, Table3Cell, Workload};
        let prefixes = [
            (Name::FleetScreen, FleetScreen::DIGEST_PREFIX),
            (Name::Table3Cell, Table3Cell::DIGEST_PREFIX),
            (Name::Rescreen, Rescreen::DIGEST_PREFIX),
        ];
        for (name, prefix) in prefixes {
            for i in 0..prefix {
                assert!(
                    reference_digest(REFERENCE, name.as_str(), i).is_some(),
                    "reference.txt lacks {} {i}",
                    name.as_str()
                );
            }
        }
    }
}
