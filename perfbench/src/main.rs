//! Steady single-thread closed-loop benchmark of the two pipelines the
//! repository is measured by — the fleet screen and the Table III region
//! cell — plus batch re-screening through the serving tier.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_screen|table3_cell|rescreen [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run pins the program to one worker thread and serves one client:
//! request `i` starts when request `i − 1` has returned and uses seed
//! `seed + i`. With `--trace 0` recording is off and the run reports the
//! end-to-end metrics; with `--trace 1` every request also runs once with
//! the program's tracing on, and the run reports per-layer metrics. The
//! last line of standard output is the result as one JSON object; the line
//! before it carries request counts and tail latencies.

#![forbid(unsafe_code)]

mod closed_loop;
mod layers;
mod rss;
mod spans;
mod stats;
mod verify;
mod workloads;

use layers::{ratio, Sample};
use spans::{Kind, SpanLog};
use verify::{check_against_reference, Tally, DEFAULT_SEED};
use vmin_trace::clock::{self, Tick};
use workloads::{FleetScreen, Name, Rescreen, Table3Cell, Workload, LOAD_CALL};

const USAGE: &str = "usage: vmin-perfbench --workload fleet_screen|table3_cell|rescreen \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Setups per untraced run: at least `SETUP_MIN_RUNS`, then more until
/// `SETUP_MIN_NS` of setup time has passed, at most `SETUP_MAX_RUNS`.
/// `setup_s` is their median.
const SETUP_MIN_RUNS: usize = 5;
const SETUP_MAX_RUNS: usize = 25;
const SETUP_MIN_NS: u64 = 1_000_000_000;
/// No request starts later than this after the process started, so every
/// run exits well within three minutes even when the program slows down.
const CAP_NS: u64 = 140_000_000_000;
/// The largest share of a traced request's wall time that may fall
/// inside public calls without a program span covering it.
const ATTRIBUTION_TOLERANCE: f64 = 0.05;

/// Command-line arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Args {
    workload: Name,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Name::FleetScreen,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Name::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    if parsed.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(parsed)
}

/// What a run reports.
struct Outcome {
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
    /// One JSON object of counts and tails, printed before the result.
    detail: String,
}

fn main() {
    let args =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|e| die(&format!("{e}\n{USAGE}")));
    let started = clock::now();
    vmin_trace::set_enabled(false);
    let outcome = vmin_par::with_threads(1, || match args.workload {
        Name::FleetScreen => run::<FleetScreen>(&args, &started),
        Name::Table3Cell => run::<Table3Cell>(&args, &started),
        Name::Rescreen => run::<Rescreen>(&args, &started),
    })
    .unwrap_or_else(|e| die(&e));
    let result = result_line(&outcome).unwrap_or_else(|e| die(&e));
    println!("{}", outcome.detail);
    println!("{result}");
}

fn run<W: Workload>(args: &Args, started: &Tick) -> Result<Outcome, String> {
    if args.trace {
        traced::<W>(args, started)
    } else {
        untraced::<W>(args, started)
    }
}

/// The loop plan of a run: `--seconds` of requests, stopping on a rotation
/// boundary, and never past [`CAP_NS`] after the process started.
fn plan<W: Workload>(args: &Args, started: &Tick) -> closed_loop::Plan {
    closed_loop::Plan {
        min_ns: args.seconds.saturating_mul(1_000_000_000),
        cap_ns: CAP_NS.saturating_sub(started.elapsed_ns()),
        rotation: W::ROTATION,
    }
}

/// Runs the digested prefix at the default seed: it warms the caches
/// before timing and pins the outputs to the reference digests.
fn verify_prefix<W: Workload>(w: &W, tally: &mut Tally) {
    let name = W::NAME.as_str();
    let mut off = SpanLog::off();
    for i in 0..W::DIGEST_PREFIX {
        let outcome = w.request(i, DEFAULT_SEED + i, &mut off).and_then(|reply| {
            eprintln!(
                "digest {name} {i} {:016x} {}",
                reply.digest(),
                reply.summary()
            );
            check_against_reference(name, i, &reply)
        });
        tally.record(i, outcome);
    }
}

fn to_usize(n: u64) -> Result<usize, String> {
    usize::try_from(n).map_err(|e| e.to_string())
}

/// End-to-end run: tracing off, setups timed, requests timed.
fn untraced<W: Workload>(args: &Args, started: &Tick) -> Result<Outcome, String> {
    let mut off = SpanLog::off();
    let mut setup_s = Vec::with_capacity(SETUP_MAX_RUNS);
    let mut workload = None;
    let setups_start = clock::now();
    while setup_s.len() < SETUP_MIN_RUNS
        || (setups_start.elapsed_ns() < SETUP_MIN_NS && setup_s.len() < SETUP_MAX_RUNS)
    {
        // Free the previous setup first, so peak memory holds one.
        drop(workload.take());
        let t = clock::now();
        workload = Some(W::setup(&mut off)?);
        setup_s.push(t.elapsed_ns() as f64 / 1e9);
    }
    let w = workload.ok_or("no setup ran")?;
    let mut tally = Tally::default();
    verify_prefix(&w, &mut tally);

    let mut latency_ns: Vec<u64> = Vec::new();
    let loop_start = clock::now();
    let issued = closed_loop::run(
        &plan::<W>(args, started),
        || loop_start.elapsed_ns(),
        |i| {
            let t = clock::now();
            let reply = w.request(i, args.seed.wrapping_add(i), &mut off);
            latency_ns.push(t.elapsed_ns());
            tally.record(i, reply.and_then(|r| r.check()));
        },
    );
    let n = closed_loop::counted(issued, W::ROTATION)?;
    let latency_us: Vec<f64> = latency_ns
        .iter()
        .take(to_usize(n)?)
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let busy_s = latency_us.iter().sum::<f64>() / 1e6;
    let p50 = stats::stratified_median(&latency_us, to_usize(W::ROTATION)?).ok_or("no requests")?;
    let metrics = vec![
        (
            "setup_s".to_string(),
            stats::median(&setup_s).ok_or("no setups")?,
            "s",
        ),
        (
            "items_per_s".to_string(),
            ratio((n * W::ITEMS_PER_REQUEST) as f64, busy_s),
            "1/s",
        ),
        ("request_p50_us".to_string(), p50, "us"),
        ("peak_rss_mb".to_string(), rss::peak_rss_mb()?, "MB"),
    ];
    let detail = detail_line::<W>(args, n, issued, &latency_us, &tally, &setup_s, "");
    Ok(Outcome {
        tally,
        metrics,
        detail,
    })
}

/// Per-layer run: a traced setup, then every request twice — once with
/// tracing off and once traced, in alternating order.
fn traced<W: Workload>(args: &Args, started: &Tick) -> Result<Outcome, String> {
    let mut log = SpanLog::on();
    let root = log.open("setup", Kind::Own);
    vmin_trace::set_enabled(true);
    let (setup, snap) = vmin_trace::with_collector(|| W::setup(&mut log));
    vmin_trace::set_enabled(false);
    log.close(root);
    let w = setup?;
    let setup_sample =
        Sample::from_phase(&snap, W::SETUP_SEARCHES, log.ns(root), log.call_ns_in(root));
    let load_ns: u64 = log
        .spans()
        .iter()
        .filter(|s| s.name == LOAD_CALL)
        .map(spans::Span::ns)
        .sum();

    let mut tally = Tally::default();
    verify_prefix(&w, &mut tally);

    let mut off = SpanLog::off();
    // Per request: untraced ns, traced ns, and the traced attribution.
    let mut legs: Vec<(u64, u64, Sample)> = Vec::new();
    let loop_start = clock::now();
    let issued = closed_loop::run(
        &plan::<W>(args, started),
        || loop_start.elapsed_ns(),
        |i| {
            let seed = args.seed.wrapping_add(i);
            let mut untraced_leg = |tally: &mut Tally| {
                let t = clock::now();
                let reply = w.request(i, seed, &mut off);
                let ns = t.elapsed_ns();
                tally.record(i, reply.and_then(|r| r.check()));
                ns
            };
            // Alternate the order so neither leg always runs on warm caches.
            let (plain_ns, (traced_ns, sample)) = if i % 2 == 0 {
                let plain = untraced_leg(&mut tally);
                (plain, traced_request(&w, i, seed, &mut log, &mut tally))
            } else {
                let traced = traced_request(&w, i, seed, &mut log, &mut tally);
                (untraced_leg(&mut tally), traced)
            };
            legs.push((plain_ns, traced_ns, sample));
        },
    );
    let n = closed_loop::counted(issued, W::ROTATION)?;
    let counted = legs
        .get(..to_usize(n)?)
        .ok_or("fewer request records than requests")?;

    let mut requests = Sample::default();
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
    let mut worst_share = 0f64;
    let mut over_tolerance = 0u64;
    for (plain, traced, sample) in counted {
        requests.add(sample);
        plain_ns += plain;
        traced_ns += traced;
        let share = sample.unattributed_share().abs();
        worst_share = worst_share.max(share);
        if share > ATTRIBUTION_TOLERANCE {
            over_tolerance += 1;
        }
    }
    if over_tolerance > 0 {
        eprintln!(
            "attribution: {over_tolerance} of {n} traced requests have more than {}% of their \
             time unattributed (worst {:.2}%)",
            ATTRIBUTION_TOLERANCE * 100.0,
            worst_share * 100.0
        );
    }
    report_gaps(&setup_sample, &requests);
    eprintln!(
        "request phase ({n} traced requests):\n{}",
        requests.stage_table()
    );
    eprintln!("setup phase:\n{}", setup_sample.stage_table());
    write_span_log::<W>(args, &log)?;

    let mut metrics = requests.metrics("");
    metrics.push((
        "trace.overhead_share".to_string(),
        1.0 - ratio(plain_ns as f64, traced_ns as f64),
        "fraction",
    ));
    metrics.extend(setup_sample.metrics("setup."));
    metrics.push(("setup.serve.load_s".to_string(), load_ns as f64 / 1e9, "s"));

    let latency_us: Vec<f64> = counted.iter().map(|l| l.2.wall_ns as f64 / 1e3).collect();
    let extra = format!(
        ", \"attribution\": {{\"tolerance\": {ATTRIBUTION_TOLERANCE}, \"worst_share\": {worst_share}, \
         \"requests_over_tolerance\": {over_tolerance}}}"
    );
    let detail = detail_line::<W>(args, n, issued, &latency_us, &tally, &[], &extra);
    Ok(Outcome {
        tally,
        metrics,
        detail,
    })
}

/// One traced request: the program's metrics land in a collector of the
/// request's own, and the benchmark's spans carry the request id.
/// Returns the traced call time and the request's attribution.
fn traced_request<W: Workload>(
    w: &W,
    i: u64,
    seed: u64,
    log: &mut SpanLog,
    tally: &mut Tally,
) -> (u64, Sample) {
    log.set_request(Some(i));
    let root = log.open("request", Kind::Own);
    vmin_trace::set_enabled(true);
    let t = clock::now();
    let (reply, snap) = vmin_trace::with_collector(|| w.request(i, seed, log));
    let traced_ns = t.elapsed_ns();
    vmin_trace::set_enabled(false);
    let outcome = log.own("check", || reply.and_then(|r| r.check()));
    log.close(root);
    log.set_request(None);
    tally.record(i, outcome);
    let sample = Sample::from_phase(
        &snap,
        W::REQUEST_SEARCHES,
        log.ns(root),
        log.call_ns_in(root),
    );
    (traced_ns, sample)
}

/// Prints the program's instrumentation gaps the traced run exposes.
fn report_gaps(setup: &Sample, requests: &Sample) {
    for (phase, s) in [("setup", setup), ("requests", requests)] {
        let (program, bench) = s.searches_counted();
        if program != bench {
            eprintln!(
                "gap: silicon.vmin.searches counts {program} Vmin searches in the {phase}, the \
                 benchmark counts {bench} (the streaming engine does not count its searches)"
            );
        }
    }
    let conflicts = setup.kind_conflicts() + requests.kind_conflicts();
    if conflicts > 0 {
        eprintln!(
            "gap: {conflicts} trace kind conflicts (models.fitplan.build is both a counter and \
             a span, so every fit-plan build drops its span)"
        );
    }
}

/// Writes the benchmark's span log next to the benchmark's sources.
fn write_span_log<W: Workload>(args: &Args, log: &SpanLog) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        W::NAME.as_str(),
        args.seed
    ));
    std::fs::write(&path, log.to_jsonl()).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("span log: {}", path.display());
    Ok(())
}

/// The JSON line of request counts and latency percentiles.
fn detail_line<W: Workload>(
    args: &Args,
    counted: u64,
    issued: u64,
    latency_us: &[f64],
    tally: &Tally,
    setup_s: &[f64],
    extra: &str,
) -> String {
    let quantile = |q: Option<stats::Quantile>| match q {
        Some(q) => format!(
            "{{\"pct\": {}, \"value\": {}, \"samples\": {}}}",
            q.pct, q.value, q.samples
        ),
        None => "null".to_string(),
    };
    let setups: Vec<String> = setup_s.iter().map(f64::to_string).collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": 1, \
         \"loop\": \"closed\", \"clients\": 1, \"requests\": {counted}, \"issued\": {issued}, \
         \"items_per_request\": {}, \"attempted\": {}, \"failed\": {}, \"setup_runs_s\": [{}], \
         \"request_pooled_p50_us\": {}, \"request_p90_us\": {}, \"request_tail_us\": {}{extra}}}",
        W::NAME.as_str(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        W::ITEMS_PER_REQUEST,
        tally.attempted,
        tally.failed,
        setups.join(", "),
        quantile(stats::p50(latency_us)),
        quantile(stats::percentile(latency_us, 9000)),
        quantile(stats::tail(latency_us)),
    )
}

/// The result object: correctness, request counts and metrics.
fn result_line(outcome: &Outcome) -> Result<String, String> {
    let mut fields = Vec::with_capacity(outcome.metrics.len());
    for (name, value, unit) in &outcome.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let t = outcome.tally;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0 && t.attempted > 0,
        t.attempted,
        t.failed,
        fields.join(", ")
    ))
}

/// Exits with a message and a nonzero status, without printing a result.
fn die(msg: &str) -> ! {
    eprintln!("vmin-perfbench: {msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload table3_cell --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Name::Table3Cell,
                seed: 42,
                seconds: 10,
                trace: true
            }
        );
        let d = parse("--workload rescreen").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, 10, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--seed 1",
            "--workload hit",
            "--workload rescreen --trace 2",
            "--workload rescreen --seconds 0",
            "--workload rescreen --seed",
            "--workload rescreen --seed -1",
            "--workload rescreen --threads 2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let outcome = Outcome {
            tally: Tally {
                attempted: 3,
                failed: 1,
            },
            metrics: vec![("setup_s".to_string(), 0.5, "s")],
            detail: String::new(),
        };
        assert_eq!(
            result_line(&outcome).unwrap(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let nan = Outcome {
            metrics: vec![("x".to_string(), f64::NAN, "s")],
            ..outcome
        };
        assert!(result_line(&nan).is_err());
    }
}
