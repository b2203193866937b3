//! The StegFS benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <vault_sessions|handle_rw_4x_cache|fsync_openloop> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A timed run (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) turns observability and the benchmark's spans on, writes
//! the spans to `perfbench/out/`, runs the single-threaded per-layer rungs
//! and prints the per-layer metrics.  Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod common;
mod dev;
mod handle;
mod model;
mod openloop;
mod stats;
mod trace;
mod vault;

use common::Tally;
use stats::{metrics_json, Metrics};

/// What a workload reports: its checks and its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed operations plus verification mismatches.
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Add a pass's operations plus `checks` extra checks of which `broken`
    /// failed.
    pub fn absorb(&mut self, t: &Tally, checks: u64, broken: u64) {
        self.attempted += t.attempted + checks;
        self.failed += t.failed + t.mismatches + broken;
    }

    pub fn finish(mut self, mut m: Metrics) -> Self {
        m.e2e("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        m.layer(
            "bench.error_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
        );
        self.metrics = m;
        self
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
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "vault_sessions" => vault::run,
        "handle_rw_4x_cache" => handle::run,
        "fsync_openloop" => openloop::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let out = run(args.seed, args.seconds, args.trace);
    let metrics = if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let (kept, dropped) = trace::counts();
        match trace::write_out(&path) {
            Ok(()) => println!(
                "spans: {kept} kept, {dropped} dropped, written to {}",
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
        &out.metrics.per_layer
    } else {
        &out.metrics.end_to_end
    };
    for (name, value, unit) in &out.metrics.end_to_end {
        println!("e2e   {name:<28} {value:>14.4} {unit}");
    }
    for (name, value, unit) in &out.metrics.per_layer {
        println!("layer {name:<34} {value:>14.4} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics_json(metrics)
    );
}
