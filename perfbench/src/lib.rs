//! The repository benchmark: three workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one.
//!
//! * `gateway_replay` — a seeded multi-flow trace through encoder →
//!   wire → decoder with no simulator; the DRE data path does all the
//!   work.
//! * `flash_crowd` — thousands of concurrent TCP downloads through
//!   sharded gateway pairs on the deterministic serial engine: a deep
//!   event queue, per-flow TCP state and per-flow gateway dispatch.
//! * `lossy_retx` — single-flow downloads over 8 % lossy channels,
//!   baseline vs cache-flush vs tcp-seq vs nc-xor, cells run through a
//!   `Campaign`; flushes, undecodable shims and retransmissions
//!   dominate.
//!
//! Layers are timed from outside, around calls into each crate's
//! public functions (see [`span`]); no program crate is changed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod span;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use metrics::Values;
use span::Span;

/// Input size: the benchmark's own, or a tiny one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Seconds-long sizes for tests.
    Tiny,
}

/// The workloads, by the names `BENCHMARK.json` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Encoder → wire → decoder replay, no simulator.
    GatewayReplay,
    /// Flash crowd over sharded gateways on the serial engine.
    FlashCrowd,
    /// Lossy single-flow downloads across four arms.
    LossyRetx,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::GatewayReplay,
        Workload::FlashCrowd,
        Workload::LossyRetx,
    ];

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::GatewayReplay => "gateway_replay",
            Workload::FlashCrowd => "flash_crowd",
            Workload::LossyRetx => "lossy_retx",
        }
    }

    /// Parse a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Also run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Where the traced pass writes its spans (`None`: not written).
    pub span_dir: Option<PathBuf>,
}

/// What a workload measured. A correctness failure (corrupted bytes,
/// decode mismatch, digest divergence) is an `Err` instead.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (packets or flows).
    pub attempted: u64,
    /// Operations that failed without corrupting anything (aborted or
    /// incomplete flows, undecodable packets).
    pub failed: u64,
    /// Every measured metric, by name.
    pub values: Values,
    /// Human-readable report lines (sample counts, reconciliation).
    pub report: Vec<String>,
    /// The traced pass's spans (empty untraced).
    pub spans: Vec<Span>,
}

/// Run one workload: set up, measure, check, and trace if asked.
///
/// # Errors
///
/// A correctness failure, described.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = match cfg.workload {
        Workload::GatewayReplay => workloads::gateway_replay::run(cfg)?,
        Workload::FlashCrowd => workloads::flash_crowd::run(cfg)?,
        Workload::LossyRetx => workloads::lossy_retx::run(cfg)?,
    };
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.values.set("failed_frac", failed_frac);
    out.report.push(format!(
        "failed_frac = {failed_frac} share ({} failed of {} attempted)",
        out.failed, out.attempted
    ));
    let rss = stats::peak_rss_mib().ok_or("peak RSS unavailable (no /proc/self/status)")?;
    out.values.set("peak_rss_mib", rss);
    if cfg.trace {
        // A layer this workload never calls did no work.
        for d in metrics::PER_LAYER {
            if out.values.get(d.name).is_none() {
                out.values.set(d.name, 0.0);
            }
        }
        if let Some(dir) = &cfg.span_dir {
            let path = dir.join(format!(
                "spans-{}-seed{}.tsv",
                cfg.workload.name(),
                cfg.seed
            ));
            span::write_tsv(&path, &out.spans)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            out.report.push(format!(
                "spans: {} written to {}",
                out.spans.len(),
                path.display()
            ));
        }
    }
    Ok(out)
}

/// What [`measure`] returns.
pub struct Measured<I, T> {
    /// The inputs every unit ran on.
    pub input: I,
    /// Every unit's result in run order; the first is the warm-up,
    /// which callers check like the rest but leave out of host-time
    /// metrics.
    pub units: Vec<T>,
    /// Median input build time, seconds (the `setup_s` metric).
    pub setup_s: f64,
}

/// Build the inputs, then run `unit` on them: once to warm up, then
/// until `seconds` have passed and at least `min_reps` more ran.
///
/// The inputs are built again (and dropped) after every unit, so set-up
/// time is sampled across the whole run. A burst of builds at the start
/// could fall entirely inside one slow moment of a shared host.
///
/// # Errors
///
/// The first error a unit returns.
pub fn measure<I, T>(
    seconds: f64,
    min_reps: usize,
    mut setup: impl FnMut() -> I,
    mut unit: impl FnMut(&I) -> Result<T, String>,
) -> Result<Measured<I, T>, String> {
    let mut setup_times = Vec::new();
    let mut build = || {
        let t0 = Instant::now();
        let input = setup();
        setup_times.push(t0.elapsed());
        input
    };
    let input = build();
    let started = Instant::now();
    let mut units = Vec::new();
    while units.len() < min_reps + 1 || started.elapsed().as_secs_f64() < seconds {
        units.push(unit(&input)?);
        drop(build());
    }
    Ok(Measured {
        input,
        units,
        setup_s: stats::median_secs(&setup_times),
    })
}

/// A report line on the spread of per-unit rates within one run.
#[must_use]
pub fn unit_rates_line(unit: &str, rates: &[f64]) -> String {
    let mut v = rates.to_vec();
    v.sort_by(f64::total_cmp);
    let all: Vec<String> = rates.iter().map(|r| format!("{r:.3}")).collect();
    format!(
        "host_mib_s per {unit}: n={} min {:.4} median {:.4} max {:.4} MiB/s; in run order: {}",
        v.len(),
        v[0],
        stats::median(&v),
        v[v.len() - 1],
        all.join(" ")
    )
}

/// Format a share as a percentage for report lines.
#[must_use]
pub fn pct(part: f64, whole: f64) -> String {
    if whole == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.1}%", 100.0 * part / whole)
    }
}
