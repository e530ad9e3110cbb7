//! Plain-text (CSV) export of campaign data.
//!
//! Lets users take the synthetic dataset to external tools (Python/R,
//! MAPIE, …) to cross-check this crate's results. No serde dependency —
//! the format is a flat, excel-friendly CSV.

use crate::stream::{BlockLayout, CampaignStream, ChipBlock};
use crate::testflow::{cpd_name, rod_name, Campaign};
use crate::units::{Celsius, Hours};
use std::io::{self, Write};

/// Writes the full campaign as CSV to `out`.
///
/// Layout: one row per chip with columns
/// `chip_id, defective, <parametric...>, <rod_h{H}_{j}...>, <cpd_h{H}_{j}...>,
/// vmin_h{H}_t{T}...` — parametric at time 0, monitors and Vmin at every
/// read point.
///
/// # Errors
///
/// Propagates I/O errors from `out`. The writer may be `&mut Vec<u8>` or a
/// `&mut File` (any `Write` by mutable reference).
pub fn write_campaign_csv<W: Write>(campaign: &Campaign, mut out: W) -> io::Result<()> {
    // Header.
    let mut header: Vec<String> = vec!["chip_id".into(), "defective".into()];
    header.extend(campaign.parametric_names.iter().cloned());
    for k in 0..campaign.read_points.len() {
        header.extend(campaign.rod_names(k));
        header.extend(campaign.cpd_names(k));
    }
    for rp in &campaign.read_points {
        for t in &campaign.temperatures {
            header.push(format!("vmin_h{:.0}_t{:.0}", rp.0, t.0));
        }
    }
    writeln!(out, "{}", header.join(","))?;

    // Rows.
    for chip in &campaign.chips {
        let mut row: Vec<String> = vec![
            chip.chip_id.to_string(),
            usize::from(chip.defective).to_string(),
        ];
        row.extend(chip.parametric.iter().map(|v| format!("{v:.6e}")));
        for k in 0..campaign.read_points.len() {
            row.extend(chip.rod[k].iter().map(|v| format!("{v:.6}")));
            row.extend(chip.cpd[k].iter().map(|v| format!("{v:.6}")));
        }
        for k in 0..campaign.read_points.len() {
            for t in 0..campaign.temperatures.len() {
                row.push(format!("{:.4}", chip.vmin_mv[k][t]));
            }
        }
        writeln!(out, "{}", row.join(","))?;
    }
    Ok(())
}

/// Streaming form of [`write_campaign_csv`]: consumes a [`CampaignStream`]
/// and writes each [`ChipBlock`] as it is generated, so a million-chip
/// campaign exports in fixed memory. Output is byte-identical to
/// materializing the same campaign and using the monolithic writer.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_stream_csv<W: Write>(stream: CampaignStream, out: W) -> io::Result<()> {
    let parametric_names = stream.parametric_names();
    let read_points = stream.read_points().to_vec();
    let temperatures = stream.temperatures().to_vec();
    let layout = *stream.layout();
    write_blocks_csv(
        &parametric_names,
        &read_points,
        &temperatures,
        &layout,
        stream,
        out,
    )
}

/// Core of the streaming export: writes any [`ChipBlock`] sequence under
/// the given campaign metadata. Blocks must arrive in chip order and share
/// `layout`; the writer holds only one block at a time.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_blocks_csv<W, I>(
    parametric_names: &[String],
    read_points: &[Hours],
    temperatures: &[Celsius],
    layout: &BlockLayout,
    blocks: I,
    mut out: W,
) -> io::Result<()>
where
    W: Write,
    I: IntoIterator<Item = ChipBlock>,
{
    // Header — same column names, in the same order, as the monolithic
    // writer (the name formats are shared with `Campaign::rod_names`).
    let mut header: Vec<String> = vec!["chip_id".into(), "defective".into()];
    header.extend(parametric_names.iter().cloned());
    for rp in read_points {
        header.extend((0..layout.rods).map(|j| rod_name(j, rp.0)));
        header.extend((0..layout.cpds).map(|j| cpd_name(j, rp.0)));
    }
    for rp in read_points {
        for t in temperatures {
            header.push(format!("vmin_h{:.0}_t{:.0}", rp.0, t.0));
        }
    }
    writeln!(out, "{}", header.join(","))?;

    // Rows, straight from the flat block buffers — same value formats as
    // the monolithic writer.
    for block in blocks {
        for r in 0..block.len() {
            let mut row: Vec<String> = vec![
                block.chip_id(r).to_string(),
                usize::from(block.defective(r)).to_string(),
            ];
            row.extend(block.parametric(r).iter().map(|v| format!("{v:.6e}")));
            for k in 0..read_points.len() {
                row.extend(block.rod(r, k).iter().map(|v| format!("{v:.6}")));
                row.extend(block.cpd(r, k).iter().map(|v| format!("{v:.6}")));
            }
            for k in 0..read_points.len() {
                for t in 0..temperatures.len() {
                    row.push(format!("{:.4}", block.vmin_mv(r, k, t)));
                }
            }
            writeln!(out, "{}", row.join(","))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatasetSpec;

    fn small_campaign() -> Campaign {
        let mut spec = DatasetSpec::small();
        spec.chip_count = 6;
        spec.paths_per_chip = 4;
        Campaign::run(&spec, 9)
    }

    #[test]
    fn csv_has_header_plus_one_row_per_chip() {
        let c = small_campaign();
        let mut buf = Vec::new();
        write_campaign_csv(&c, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + c.chip_count());
        assert!(lines[0].starts_with("chip_id,defective,"));
    }

    #[test]
    fn every_row_has_the_header_width() {
        let c = small_campaign();
        let mut buf = Vec::new();
        write_campaign_csv(&c, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let width = lines.next().unwrap().split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), width, "ragged row: {line}");
        }
        // Expected width: id + defective + parametric + monitors×rps + vmin.
        let spec = &c.spec;
        let per_rp = spec.monitors.rod_count + spec.monitors.cpd_count;
        let expected = 2
            + spec.parametric.total_tests()
            + per_rp * c.read_points.len()
            + c.read_points.len() * c.temperatures.len();
        assert_eq!(width, expected);
    }

    #[test]
    fn vmin_columns_match_campaign_values() {
        let c = small_campaign();
        let mut buf = Vec::new();
        write_campaign_csv(&c, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let header: Vec<&str> = text.lines().next().unwrap().split(',').collect();
        let col = header
            .iter()
            .position(|h| *h == "vmin_h0_t25")
            .expect("vmin column present");
        let first_row: Vec<&str> = text.lines().nth(1).unwrap().split(',').collect();
        let v: f64 = first_row[col].parse().unwrap();
        assert!((v - c.chips[0].vmin_mv[0][1]).abs() < 1e-3);
    }

    #[test]
    fn streaming_export_is_byte_identical_to_monolithic() {
        let mut spec = DatasetSpec::small();
        spec.chip_count = 10;
        spec.paths_per_chip = 4;
        let mut mono = Vec::new();
        write_campaign_csv(&Campaign::run(&spec, 9), &mut mono).unwrap();
        for chunk in [1, 3, 10, 64] {
            let mut streamed = Vec::new();
            write_stream_csv(CampaignStream::with_chunk(&spec, 9, chunk), &mut streamed).unwrap();
            assert_eq!(mono, streamed, "chunk {chunk}");
        }
    }

    #[test]
    fn io_errors_propagate() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let c = small_campaign();
        assert!(write_campaign_csv(&c, Failing).is_err());
    }
}
