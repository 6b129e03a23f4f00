//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints report lines, then one JSON result line
//! (`correct`, `attempted`, `failed`, `metrics`): the end-to-end metrics
//! untraced, the per-layer metrics with `--trace 1`. Exits 1 without a
//! result line on any corrupted delivery, decode mismatch or digest
//! divergence, and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use bytecache_experiments::host::HostInfo;
use bytecache_perfbench::metrics::{
    result_line, MetricDef, END_TO_END, PER_LAYER, WORKLOAD_SPECIFIC,
};
use bytecache_perfbench::{run, Config, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <gateway_replay|flash_crowd|lossy_retx> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale: Scale::Full,
        span_dir: Some(PathBuf::from(".bench_out")),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = HostInfo::detect();
    println!(
        "host: cpu \"{}\", nproc {}, {}, os {}",
        host.cpu_model, host.cores, host.rustc, host.os
    );
    println!(
        "run: workload {} seed {} seconds {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("INCORRECT: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &out.report {
        println!("{line}");
    }
    let defs = if cfg.trace { PER_LAYER } else { END_TO_END };
    let shown: &[&[MetricDef]] = if cfg.trace {
        &[PER_LAYER]
    } else {
        &[END_TO_END, WORKLOAD_SPECIFIC]
    };
    for d in shown.iter().copied().flatten() {
        if let Some(v) = out.values.get(d.name) {
            println!("metric: {} {v} {}", d.name, d.unit);
        }
    }
    match result_line(true, out.attempted, out.failed, defs, &out.values) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("INCOMPLETE: {e}");
            ExitCode::from(1)
        }
    }
}
