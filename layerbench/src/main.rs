//! Layer-separating benchmark for the spanning-forest service.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives one layer of the stack and bypasses the others
//! (README.md beside this crate says which). Load is closed-loop from
//! this one process. The untraced run (`--trace 0`) prints the
//! end-to-end metrics; the traced run (`--trace 1`) records spans around
//! every call into a layer, runs the standalone kernel and catalog
//! probes, writes the spans to `layerbench/out/`, and prints the
//! per-layer metrics. The last line of standard output is the result;
//! any wrong or failed operation makes the run exit non-zero.

mod host;
mod inputs;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Metrics, END_TO_END, PER_LAYER};
use workloads::Ctx;

const USAGE: &str = "usage: layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Spans written to a trace file at most; metrics use every span.
const TRACE_FILE_SPANS: usize = 100_000;

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if workloads::NAMES.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {:?}", workloads::NAMES))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => match value.parse() {
                Ok(s @ 1..=600) => seconds = Some(s),
                _ => return Err(bad("whole seconds in 1..=600")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = host::st_knobs_set(std::env::vars_os());
    if !knobs.is_empty() {
        eprintln!(
            "layerbench: refusing to run with {knobs:?} set: ST_* variables change the \
             program under test (team widths, cache size, recompute rule)"
        );
        return ExitCode::from(2);
    }

    let host = host::Host::detect();
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        width: host.available_parallelism,
        origin: Instant::now(),
    };
    let out = workloads::run(&args.workload, &ctx);

    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": \"{}\", \
         \"nproc\": {}, \"available_parallelism\": {}, \"team_width\": {}, \"clients\": {}, \
         \"oversubscribed\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.git_rev,
        host.nproc,
        host.available_parallelism,
        ctx.width,
        out.clients,
        ctx.width > host.available_parallelism,
    );

    diagnostics(&out, &args);
    let (Some(rate), Some(p50)) = (out.ops_per_s(), stats::p50(&out.ops_ms)) else {
        eprintln!(
            "layerbench: {} operations are too few for a median with ten samples beyond it; \
             raise --seconds",
            out.ops_ms.len()
        );
        return ExitCode::from(1);
    };

    let mut e2e = Metrics::default();
    e2e.set("setup_s", stats::median(&out.setup_s));
    e2e.set("peak_rss_mb", out.peak_rss_mb);
    e2e.set("ops_per_s", rate);
    e2e.set("op_ms.p50", p50);

    let metrics = if args.trace {
        let mut layers = out.layers.clone();
        layers.set("traced.ops_per_s", rate);
        layers.set("traced.op_ms.p50", p50);
        if let Some(p90) = stats::percentile(&out.ops_ms, 0.9) {
            layers.set("traced.op_ms.p90", p90);
        }
        let path = PathBuf::from(format!(
            "layerbench/out/{}-seed{}.trace.json",
            args.workload, args.seed
        ));
        match out.log.write_chrome(&path, TRACE_FILE_SPANS) {
            Ok(dropped) => eprintln!(
                "layerbench: {} spans, trace in {} ({dropped} left out)",
                out.log.len(),
                path.display()
            ),
            Err(e) => eprintln!("layerbench: could not write {}: {e}", path.display()),
        }
        eprintln!(
            "layerbench: end-to-end (traced) {}",
            e2e.to_json(END_TO_END)
        );
        layers.to_json(PER_LAYER)
    } else {
        e2e.to_json(END_TO_END)
    };
    let correct = out.tally.failed == 0;
    println!(
        "{}",
        report::result_line(correct, out.tally.attempted, out.tally.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Sample counts, failures and the latency tail, on standard error.
/// The tail is a diagnostic, not a metric: p90 spread up to 21% of its
/// median between runs of the same code, too far to gate a change on.
fn diagnostics(out: &workloads::Outcome, args: &Args) {
    let n = out.ops_ms.len();
    let max = out.ops_ms.iter().copied().fold(0.0, f64::max);
    let tail = |q: f64| {
        stats::percentile(&out.ops_ms, q).map_or("n/a".to_owned(), |v| format!("{v:.4} ms"))
    };
    eprintln!(
        "layerbench: {} seed {}: {n} ops over {} s by {} client(s); p90 {}, p99 {}, max {max:.4} ms; \
         set-ups {:?} s",
        args.workload,
        args.seed,
        args.seconds,
        out.clients,
        tail(0.9),
        tail(0.99),
        out.setup_s
    );
    eprintln!(
        "layerbench: attempted {}, failed {}",
        out.tally.attempted, out.tally.failed
    );
    for e in &out.tally.errors {
        eprintln!("layerbench: FAILED: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_documented_command_line() {
        assert_eq!(
            args("--workload small_jobs --seed 42 --seconds 15 --trace 1"),
            Ok(Args {
                workload: "small_jobs".to_owned(),
                seed: 42,
                seconds: 15,
                trace: true,
            })
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 5 --trace 0").is_err());
        assert!(args("--workload small_jobs --seed -1 --seconds 5 --trace 0").is_err());
        assert!(args("--workload small_jobs --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload small_jobs --seed 1 --seconds 5 --trace 2").is_err());
        assert!(args("--workload small_jobs --seed 1 --seconds 5").is_err());
        assert!(args("--workload small_jobs --seed 1 --seconds 5 --trace").is_err());
    }
}
