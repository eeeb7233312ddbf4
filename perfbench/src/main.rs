//! End-to-end and per-layer benchmark of the UPAQ serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload saturate-ladder|fleet-realtime|single-stream-burst \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload's engine (`FleetServer::run` or
//! `Pipeline::run`) and reports the end-to-end metrics. `--trace 1` runs
//! the same engine, then a traced replay of the workload's frames through
//! the lower layers' public calls, reports the per-layer metrics and writes
//! the spans to `.bench_out/`. Both print every metric by name and unit and
//! end with one JSON line; a correctness-gate failure exits with code 1.

mod engine;
mod host;
mod replay;

use std::process::ExitCode;
use upaq_json::{json, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SaturateLadder,
    FleetRealtime,
    SingleStreamBurst,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "saturate-ladder" => Some(Workload::SaturateLadder),
            "fleet-realtime" => Some(Workload::FleetRealtime),
            "single-stream-burst" => Some(Workload::SingleStreamBurst),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SaturateLadder => "saturate-ladder",
            Workload::FleetRealtime => "fleet-realtime",
            Workload::SingleStreamBurst => "single-stream-burst",
        }
    }
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: upaq-perfbench --workload saturate-ladder|fleet-realtime|\
                     single-stream-burst --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
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
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let fingerprint = host::Fingerprint::take(w.tensor_threads(), w.engine_workers());
    println!(
        "workload {} seed {} seconds {}",
        w.name(),
        args.seed,
        args.seconds
    );
    println!("host {}", fingerprint.to_json());

    let setup = engine::setup(w, args.seed, args.seconds);
    let warmup_s = engine::warm_up(w, &setup);
    let probe_gbps = host::drift_probe_gbps();
    println!(
        "set-up {:.4} s (ladder {:.4} s + frames {:.4} s, median of repeats), \
         warm-up {:.4} s, drift probe {:.2} GB/s",
        setup.setup_s, setup.ladder_s, setup.frames_s, warmup_s, probe_gbps
    );
    if !host::reset_peak_rss() {
        println!("peak RSS could not be reset: it includes set-up and the drift probe");
    }

    let mut measured = engine::measure(w, &setup, args.seconds);
    let mut problems = std::mem::take(&mut measured.problems);
    if measured.latency_samples < engine::MIN_LATENCY_SAMPLES {
        problems.push(format!(
            "only {} latency samples; a p99 needs {}",
            measured.latency_samples,
            engine::MIN_LATENCY_SAMPLES
        ));
    }
    println!(
        "frames attempted {} failed {} (failed_frac {}), latency samples {}",
        measured.attempted,
        measured.failed,
        measured.failed as f64 / measured.attempted.max(1) as f64,
        measured.latency_samples
    );

    let metrics = if args.trace {
        let env = replay::TraceEnv {
            workload: w,
            seed: args.seed,
            fingerprint: &fingerprint,
            probe_gbps,
            warmup_s,
        };
        replay::run(&env, &setup, &measured.stats).unwrap_or_else(|e| {
            problems.push(format!("trace not written: {e}"));
            Vec::new()
        })
    } else {
        let mut metrics = measured.metrics;
        metrics.push(Metric {
            name: "setup_s".into(),
            value: setup.setup_s,
            unit: "s",
        });
        metrics.push(Metric {
            name: "peak_rss_mb".into(),
            value: host::peak_rss_mb(),
            unit: "MiB",
        });
        metrics
    };

    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for p in &problems {
        println!("CORRECTNESS GATE FAILED: {p}");
    }
    let correct = problems.is_empty() && measured.failed == 0;
    let result = Value::Obj(vec![
        ("correct".into(), json!(correct)),
        ("attempted".into(), json!(measured.attempted.max(1))),
        ("failed".into(), json!(measured.failed)),
        (
            "metrics".into(),
            Value::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
