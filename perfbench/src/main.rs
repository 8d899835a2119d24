//! One offline benchmark for Mockingbird's compile path and call path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile_api|call_small|call_bulk> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, measures for about
//! `--seconds` seconds, checks every output against ground truth it
//! computes itself, and prints one JSON object as the last line of
//! standard output. With `--trace 0` the object carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics, measured
//! by timing the public functions of each layer from outside. See
//! `perfbench/NOTES.md` for what each workload and metric means.

mod call;
mod compile;
mod measure;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Every end-to-end metric, with its unit. Each workload reports all of
/// them: the compile metrics of a call workload time the compile of its
/// own declaration pair, and a call of `compile_api` is one compile.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compile_cold_s", "s"),
    ("compile_rebuild_s", "s"),
    ("call_p50_us", "us"),
    ("goodput_per_s", "1/s"),
    ("cpu_us_per_call", "us"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, with its unit. Layers a workload does not
/// exercise report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stype.annotate_ms", "ms"),
    ("stype.lower_ms", "ms"),
    ("mtype.graph_nodes", "count"),
    ("mtype.canon_ms", "ms"),
    ("comparer.compare_ms", "ms"),
    ("comparer.pair_p50_us", "us"),
    ("comparer.pair_max_ms", "ms"),
    ("comparer.cache_hit_ratio", "ratio"),
    ("comparer.cache_misses", "count"),
    ("comparer.corr_hits", "count"),
    ("plan.plan_ms", "ms"),
    ("wire.canonize_ms", "ms"),
    ("wire.lower_ms", "ms"),
    ("wire.programs", "count"),
    ("wire.fallbacks", "count"),
    ("artifact.commit_ms", "ms"),
    ("artifact.load_ms", "ms"),
    ("artifact.records", "count"),
    ("artifact.bytes", "bytes"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.encode_opcode_us", "us"),
    ("wire.encode_interp_us", "us"),
    ("stubgen.client_self_us", "us"),
    ("runtime.transport_us", "us"),
    ("runtime.request_path_us", "us"),
    ("runtime.dispatch_us", "us"),
    ("runtime.servant_us", "us"),
    ("runtime.reply_path_us", "us"),
    ("runtime.retries", "count"),
    ("runtime.sheds", "count"),
    ("runtime.overloads", "count"),
    ("runtime.native_calls", "count"),
    ("runtime.native_fallbacks", "count"),
    ("runtime.pool_reuse_ratio", "ratio"),
    ("runtime.bytes_sent_per_call", "bytes"),
    ("loadgen.lag_p99_us", "us"),
    ("tail.call_p90_us", "us"),
    ("tail.call_p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
    ("error_ratio", "ratio"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: verdicts, calls, and differential checks.
    pub attempted: u64,
    /// Attempted operations that failed, were refused, or were wrong.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per the mode).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a check: one attempt, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {what}");
            }
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <compile_api|call_small|call_bulk> \
                 --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "compile_api" => compile::run(args.seed, args.seconds, args.trace),
        "call_small" => call::run(call::CallShape::Small, args.seed, args.seconds, args.trace),
        "call_bulk" => call::run(call::CallShape::Bulk, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.set("error_ratio", ratio);
    } else {
        outcome.set("peak_rss_mb", measure::peak_rss_mb());
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    match render(&outcome, table) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result line: exactly the metrics of `table`, every one finite.
fn render(outcome: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("workload did not measure {name}"))?;
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables and `BENCHMARK.json` must name the same
    /// metrics with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn render_requires_every_metric() {
        let mut o = Outcome::default();
        o.check(true, "ok");
        o.set("setup_s", 1.5);
        assert!(render(&o, &[("setup_s", "s"), ("x", "s")]).is_err());
        let line = render(&o, &[("setup_s", "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
