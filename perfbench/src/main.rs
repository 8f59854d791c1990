//! The benchmark of record for dpgen.
//!
//! ```text
//! dpgen-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload on inputs made from `--seed`, checks every
//! timed operation, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` records spans around every call
//! into a layer, writes them as a Chrome trace under `.bench_out/`, and
//! reports the per-layer metrics. Exits 1 when any check fails and 2 on
//! bad usage. See `README.md` for why each workload exists.

mod batch;
mod naive;
mod report;
mod serve;
mod setup;
mod span;
mod stats;

use report::Report;
use span::Spans;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "lcs_w48",
    "editdist_bigtile",
    "bandit3_hybrid",
    "serve_mixed",
];

/// End-to-end metrics (`--trace 0`), with units. See `README.md` for
/// why absolute times and tails are per-layer metrics.
pub const END_TO_END: [(&str, &str); 4] = [
    ("vs_naive", "ratio"),
    ("setup_s", "s"),
    ("slo_met_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload whose
/// measured path does not reach a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("solve_ms_p50", "ms"),
    ("solve_ms_tail", "ms"),
    ("cells_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("spec.parse_us", "us"),
    ("program.from_spec_us", "us"),
    ("program.compile_us", "us"),
    ("plan.admit_us", "us"),
    ("plan.warm_us", "us"),
    ("runtime.tile_overhead_us", "us"),
    ("runtime.tile_overhead_ratio", "ratio"),
    ("tiling.scan_runs_ns_per_cell", "ns"),
    ("tiling.edge_walk_ns_per_cell", "ns"),
    ("kernel.ns_per_cell", "ns"),
    ("naive.ns_per_cell", "ns"),
    ("simd.lanes", "count"),
    ("runtime.init_us", "us"),
    ("runtime.idle_frac", "ratio"),
    ("runtime.steal_count", "count"),
    ("runtime.lock_wait_us", "us"),
    ("runtime.tiles", "count"),
    ("runtime.tiles_partial", "count"),
    ("runtime.mean_run_len", "cells"),
    ("runtime.buffer_reuse_frac", "ratio"),
    ("mpisim.bytes_sent", "bytes"),
    ("mpisim.messages", "count"),
    ("mpisim.retransmits", "count"),
    ("runtime.edges_remote", "count"),
    ("loadbalance.imbalance", "ratio"),
    ("runtime.rank_idle_frac", "ratio"),
    ("serve.compile_ms_p50", "ms"),
    ("serve.compile_ms_tail", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.evictions", "count"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.gen_late_ms_tail", "ms"),
    ("trace.overhead", "ratio"),
    ("fail_frac", "ratio"),
    ("slo_miss_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dpgen-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spans = Spans::new(args.trace);
    let mut rep = Report::default();
    let result = match batch::Batch::named(&args.workload, args.seed) {
        Some(b) => batch::run(&b, args.seconds, &spans, args.trace, &mut rep),
        None => serve::run(args.seed, args.seconds, &spans, args.trace, &mut rep),
    };
    if let Err(e) = result {
        eprintln!("dpgen-perfbench: {}: {e}", args.workload);
        rep.check(false);
    }

    if args.trace {
        let done = spans.finished();
        rep.put(
            "fail_frac",
            rep.failed as f64 / rep.attempted.max(1) as f64,
            "ratio",
        );
        rep.fill_missing(&PER_LAYER);
        let path = format!(".bench_out/{}-seed{}.trace.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, span::chrome_trace(&done)));
        match written {
            Ok(()) => rep.notes.push(format!("trace: {path}")),
            Err(e) => eprintln!("dpgen-perfbench: writing {path}: {e}"),
        }
    } else {
        if !rep.has_all(&END_TO_END) {
            eprintln!(
                "dpgen-perfbench: {}: missing end-to-end metrics",
                args.workload
            );
            rep.check(false);
        }
    }

    for note in &rep.notes {
        println!("# {note}");
    }
    println!("{}", rep.json());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload lcs_w48 --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("lcs_w48", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload lcs_w48 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload lcs_w48 --seed")).is_err());
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(stats::valid_metric_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn benchmark_json_names_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for w in WORKLOADS {
            assert!(compact.contains(&format!("\"name\":\"{w}\"")), "{w}");
        }
        for (n, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\":\"{n}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{entry}");
        }
    }
}
