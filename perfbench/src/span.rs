//! In-memory spans, recorded from outside the program's crates.
//!
//! A span is one call into a layer: its name, start and end (ns since a
//! run-wide epoch), the span that caused it, and the flow it served.
//! Spans stay in memory until the run ends; [`summarize`] turns them
//! into per-layer busy and self times, and [`write_tsv`] dumps them.
//!
//! Two ways to record:
//! * [`Probe`] — explicit enter/exit around direct calls into `core`,
//!   `packet` and `rabin`. The untraced path uses the `()` probe, which
//!   compiles to nothing.
//! * [`Timed`] — a [`Node`] that delegates every callback to the node
//!   it wraps, timing each one when tracing is on. Nodes never nest, so
//!   their spans have no parent.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use bytecache_netsim::{Context, Node};
use bytecache_packet::{FlowId, Packet};

/// Parent index of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `core.encode` or `tcp.server`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, or [`NO_PARENT`].
    pub parent: u32,
    /// Flow the call served (0 when it served none, e.g. a timer).
    pub flow: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Enter/exit hooks around direct layer calls.
pub trait Probe {
    /// Open a span; it nests inside the innermost open one.
    fn enter(&mut self, name: &'static str, flow: u64);
    /// Close the innermost open span.
    fn exit(&mut self);

    /// Run `f` inside a span.
    #[inline]
    fn time<R>(&mut self, name: &'static str, flow: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, flow);
        let out = f();
        self.exit();
        out
    }
}

/// The untraced probe: records nothing.
impl Probe for () {
    #[inline(always)]
    fn enter(&mut self, _: &'static str, _: u64) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// An append-only span log with a stack of open spans.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    /// Empty log timing against `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append every span of `other`, keeping its parent links.
    pub fn absorb(&mut self, other: &SpanLog) {
        let base = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.extend(other.spans.iter().map(|s| Span {
            parent: if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent + base
            },
            ..*s
        }));
    }
}

impl Probe for SpanLog {
    fn enter(&mut self, name: &'static str, flow: u64) {
        let idx = u32::try_from(self.spans.len()).expect("span count fits u32");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            flow,
        });
        self.open.push(idx);
    }

    fn exit(&mut self) {
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx as usize].end_ns = self.now_ns();
    }
}

/// Direction-free flow id: both directions of a connection share it,
/// so a data segment and the ACK it causes carry the same id.
#[must_use]
pub fn flow_key(flow: FlowId) -> u64 {
    flow.stable_hash().min(flow.reversed().stable_hash())
}

/// A node wrapper that times every callback of the node it wraps.
///
/// With tracing off it only delegates, so a simulation with and without
/// it is the same simulation (a test checks the digests).
pub struct Timed<N> {
    /// The wrapped node.
    pub inner: N,
    name: &'static str,
    log: Option<SpanLog>,
}

impl<N> Timed<N> {
    /// Wrap `inner`; record spans named `name` when `epoch` is given.
    pub fn new(inner: N, name: &'static str, epoch: Option<Instant>) -> Self {
        Timed {
            inner,
            name,
            log: epoch.map(SpanLog::new),
        }
    }

    /// The spans recorded so far (`None` when tracing is off).
    #[must_use]
    pub fn log(&self) -> Option<&SpanLog> {
        self.log.as_ref()
    }
}

impl<N: Node> Node for Timed<N> {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        match &mut self.log {
            None => self.inner.on_packet(packet, ctx),
            Some(log) => {
                log.enter(self.name, flow_key(packet.flow()));
                self.inner.on_packet(packet, ctx);
                log.exit();
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        match &mut self.log {
            None => self.inner.on_timer(token, ctx),
            Some(log) => {
                log.enter(self.name, 0);
                self.inner.on_timer(token, ctx);
                log.exit();
            }
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        match &mut self.log {
            None => self.inner.on_start(ctx),
            Some(log) => {
                log.enter(self.name, 0);
                self.inner.on_start(ctx);
                log.exit();
            }
        }
    }
}

/// Per-name totals over a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus the part their child
    /// spans cover), ns.
    pub self_ns: u64,
}

/// Busy and self time per span name.
#[must_use]
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child);
    }
    out
}

/// Busy seconds of one span name (0 when it never ran).
#[must_use]
pub fn busy_s(summary: &BTreeMap<&'static str, LayerTime>, name: &str) -> f64 {
    summary.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9)
}

/// Mean ns per call of one span name (0 when it never ran).
#[must_use]
pub fn ns_per_call(summary: &BTreeMap<&'static str, LayerTime>, name: &str) -> f64 {
    summary
        .get(name)
        .filter(|t| t.count > 0)
        .map_or(0.0, |t| t.total_ns as f64 / t.count as f64)
}

/// Total self time over all spans, ns.
#[must_use]
pub fn self_total_ns(summary: &BTreeMap<&'static str, LayerTime>) -> u64 {
    summary.values().map(|t| t.self_ns).sum()
}

/// Write spans as tab-separated `name start_ns end_ns parent flow`
/// lines (parent `-` for top-level spans).
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tparent\tflow")?;
    for s in spans {
        if s.parent == NO_PARENT {
            writeln!(
                out,
                "{}\t{}\t{}\t-\t{:x}",
                s.name, s.start_ns, s.end_ns, s.flow
            )?;
        } else {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{:x}",
                s.name, s.start_ns, s.end_ns, s.parent, s.flow
            )?;
        }
    }
    out.flush()
}
