//! `gateway_replay`: a seeded trace of many concurrent flows through
//! encoder → wire → decoder, with no simulator.
//!
//! Objects are web pages drawn from a Zipf catalog whose distinct bytes
//! exceed each shard's cache budget, so eviction runs. Flows are
//! interleaved packet by packet; payloads are MSS-sized except for a
//! small-payload share where per-packet cost dominates. Every packet is
//! encoded (`Encoder::encode_into`), framed and serialized
//! (`Packet::write_bytes`), parsed back (`Packet::from_bytes`), decoded
//! (`Decoder::decode_shared`) and byte-compared with the original.
//!
//! One unit of work is one pass of the whole trace through fresh
//! gateway pairs; the timed phase repeats passes and every pass must
//! produce the same digest.

use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use bytecache::{Decoder, DreConfig, Encoder, PacketMeta, PolicyKind};
use bytecache_packet::{FlowId, Packet, SeqNum, TcpFlags};
use bytecache_workload::{generate, ObjectKind};
use bytes::Bytes;

use super::{mib, mss_chunks, rabin_scan_mib_s, DreCounters, MSS};
use crate::span::{self, Probe, SpanLog};
use crate::stats::{self, fnv64, Rng, Zipf};
use crate::{measure, pct, Config, Outcome, Scale};

/// Trace shape.
#[derive(Debug, Clone)]
pub struct Params {
    /// Distinct objects in the catalog.
    pub catalog: usize,
    /// Smallest object, bytes.
    pub obj_min: usize,
    /// Largest object, bytes.
    pub obj_max: usize,
    /// Zipf popularity exponent.
    pub zipf: f64,
    /// Flows in the trace; each downloads one object.
    pub flows: usize,
    /// Flows in progress at once (their packets interleave).
    pub concurrent: usize,
    /// Encoder/decoder pairs; flow `f` uses pair `f % shards`.
    pub shards: usize,
    /// Cache byte budget of every encoder and decoder.
    pub cache_bytes: usize,
    /// Share of packets with a small (16–255 byte) payload.
    pub small_share: f64,
}

impl Params {
    /// The sizes for `scale`.
    #[must_use]
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Params {
                catalog: 128,
                obj_min: 96 << 10,
                obj_max: 160 << 10,
                zipf: 0.9,
                flows: 320,
                concurrent: 32,
                shards: 4,
                cache_bytes: 4 << 20,
                small_share: 0.1,
            },
            Scale::Tiny => Params {
                catalog: 8,
                obj_min: 4 << 10,
                obj_max: 16 << 10,
                zipf: 0.9,
                flows: 24,
                concurrent: 4,
                shards: 2,
                cache_bytes: 64 << 10,
                small_share: 0.1,
            },
        }
    }
}

/// One packet of the trace: a slice of a catalog object.
#[derive(Debug, Clone, Copy)]
struct Seg {
    flow: u32,
    obj: u32,
    off: u32,
    len: u32,
}

/// The generated inputs.
pub struct Input {
    params: Params,
    catalog: Vec<Bytes>,
    flows: Vec<FlowId>,
    trace: Vec<Seg>,
}

impl Input {
    fn payload(&self, s: &Seg) -> Bytes {
        self.catalog[s.obj as usize].slice(s.off as usize..(s.off + s.len) as usize)
    }

    /// Original payload bytes in one pass.
    fn trace_bytes(&self) -> u64 {
        self.trace.iter().map(|s| u64::from(s.len)).sum()
    }
}

/// Generate the catalog and the interleaved trace from `seed`.
#[must_use]
pub fn setup(seed: u64, params: &Params) -> Input {
    let mut rng = Rng::new(stats::sub_seed(seed, 1));
    let catalog: Vec<Bytes> = (0..params.catalog)
        .map(|i| {
            let size = rng.range(params.obj_min, params.obj_max);
            Bytes::from(generate(
                ObjectKind::WebPage,
                size,
                stats::sub_seed(seed, 100 + i as u64),
            ))
        })
        .collect();
    let zipf = Zipf::new(params.catalog, params.zipf);
    let objects: Vec<usize> = (0..params.flows).map(|_| zipf.sample(&mut rng)).collect();
    let flows: Vec<FlowId> = (0..params.flows as u32)
        .map(|f| FlowId {
            src: Ipv4Addr::from(0x0A10_0000 + f),
            src_port: 80,
            dst: Ipv4Addr::from(0x0A20_0000 + f),
            dst_port: 40_000,
        })
        .collect();

    // Interleave: each step sends the next segment of a random flow in
    // progress; a finished flow's slot goes to the next flow.
    let mut trace = Vec::new();
    let mut active: Vec<(usize, usize)> = (0..params.concurrent.min(params.flows))
        .map(|f| (f, 0))
        .collect();
    let mut next = active.len();
    while !active.is_empty() {
        let i = rng.range(0, active.len() - 1);
        let (f, off) = active[i];
        let obj_len = catalog[objects[f]].len();
        let want = if rng.unit() < params.small_share {
            rng.range(16, 255)
        } else {
            MSS
        };
        let len = want.min(obj_len - off);
        trace.push(Seg {
            flow: f as u32,
            obj: objects[f] as u32,
            off: off as u32,
            len: len as u32,
        });
        if off + len < obj_len {
            active[i] = (f, off + len);
        } else if next < params.flows {
            active[i] = (next, 0);
            next += 1;
        } else {
            active.swap_remove(i);
        }
    }
    Input {
        params: params.clone(),
        catalog,
        flows,
        trace,
    }
}

/// What one pass produced.
struct Pass {
    /// Digest of every deterministic counter.
    digest: u64,
    /// Host time of the packet loop.
    wall: Duration,
    /// Host time constructing the encoder/decoder pairs.
    gateway_new: Duration,
    /// Payload bytes delivered intact.
    delivered: u64,
    /// Packets that did not decode or did not parse.
    failed: u64,
    /// Packets that decoded to different bytes.
    corrupted: u64,
    counters: DreCounters,
}

/// Push the whole trace through fresh gateway pairs. Per-packet round
/// trip times (ns) are appended to `samples`.
fn pass<P: Probe>(input: &Input, probe: &mut P, samples: &mut Vec<u64>) -> Pass {
    let p = &input.params;
    let t_new = Instant::now();
    let dre = DreConfig {
        cache_bytes: p.cache_bytes,
        ..DreConfig::default()
    };
    let mut pairs: Vec<(Encoder, Decoder)> = (0..p.shards)
        .map(|_| {
            (
                Encoder::new(dre.clone(), PolicyKind::Naive.build()),
                Decoder::new(dre.clone()),
            )
        })
        .collect();
    let gateway_new = t_new.elapsed();

    let mut shim = Vec::with_capacity(2 * MSS);
    let mut frame = Vec::with_capacity(2 * MSS);
    let (mut delivered, mut failed, mut corrupted) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for seg in &input.trace {
        let ts = Instant::now();
        let id = u64::from(seg.flow);
        let flow = input.flows[seg.flow as usize];
        let payload = input.payload(seg);
        let seq = 1 + seg.off;
        let meta = PacketMeta {
            flow,
            seq: SeqNum::new(seq),
            payload_len: payload.len(),
            flow_index: 0,
        };
        let (enc, dec) = &mut pairs[seg.flow as usize % p.shards];
        probe.enter("gw.packet", id);
        probe.time("core.encode", id, || {
            enc.encode_into(&meta, &payload, &mut shim)
        });
        let pkt = Packet::builder()
            .src(flow.src, flow.src_port)
            .dst(flow.dst, flow.dst_port)
            .seq(seq)
            .flags(TcpFlags::ACK)
            .payload(Bytes::copy_from_slice(&shim))
            .build();
        probe.time("packet.write", id, || pkt.write_bytes(&mut frame));
        match probe.time("packet.parse", id, || Packet::from_bytes(&frame)) {
            Ok(rx) => {
                let (res, _) =
                    probe.time("core.decode", id, || dec.decode_shared(&rx.payload, &meta));
                match res {
                    Ok(b) if b == payload => delivered += u64::from(seg.len),
                    Ok(_) => corrupted += 1,
                    Err(_) => failed += 1,
                }
            }
            Err(_) => failed += 1,
        }
        probe.exit();
        samples.push(u64::try_from(ts.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    let wall = t0.elapsed();

    let mut counters = DreCounters::default();
    let mut text = String::new();
    for (enc, dec) in &pairs {
        counters.add_encoder(enc);
        counters.add_decoder(dec);
        text.push_str(&format!(
            "{:?}{:?}{:?}",
            enc.stats(),
            dec.stats(),
            enc.cache().stats()
        ));
    }
    text.push_str(&format!("{delivered} {failed} {corrupted}"));
    Pass {
        digest: fnv64(text.as_bytes()),
        wall,
        gateway_new,
        delivered,
        failed,
        corrupted,
        counters,
    }
}

/// Run the workload.
///
/// # Errors
///
/// Corrupted deliveries or passes whose digests differ.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let params = Params::for_scale(cfg.scale);
    let mut samples = Vec::new();
    let m = measure(
        cfg.seconds,
        3,
        || setup(cfg.seed, &params),
        |input| Ok(pass(input, &mut (), &mut samples)),
    )?;
    let (input, passes, setup_s) = (m.input, m.units, m.setup_s);
    let trace_bytes = input.trace_bytes();
    let packets = input.trace.len() as u64;
    // The warm-up pass is checked below but not timed.
    samples.drain(..input.trace.len());
    let timed = &passes[1..];
    let first = &passes[0];
    if let Some(p) = passes.iter().find(|p| p.corrupted > 0) {
        return Err(format!("{} packets decoded to wrong bytes", p.corrupted));
    }
    if passes.iter().any(|p| p.digest != first.digest) {
        return Err("passes over the same trace produced different digests".to_string());
    }

    let mut out = Outcome {
        attempted: packets * passes.len() as u64,
        failed: passes.iter().map(|p| p.failed).sum(),
        ..Outcome::default()
    };
    let rates: Vec<f64> = timed
        .iter()
        .map(|p| mib(p.delivered) / p.wall.as_secs_f64())
        .collect();
    let walls: Vec<Duration> = timed.iter().map(|p| p.wall).collect();
    out.report.push(crate::unit_rates_line("pass", &rates));
    let v = &mut out.values;
    v.set("host_mib_s", stats::upper_quartile(&rates));
    v.set("bytes_ratio", first.counters.bytes_ratio());
    v.set("setup_s", setup_s);
    let q = stats::p50_p99(&mut samples).ok_or("no packets in the trace")?;
    v.set("gw_pkt_p50_us", q.p50 as f64 / 1e3);
    v.set("gw_pkt_p99_us", q.p99 as f64 / 1e3);
    out.report.push(format!(
        "gateway_replay: {} flows, {packets} packets, {:.1} MiB per pass, {} timed passes, {} shards",
        params.flows,
        mib(trace_bytes),
        timed.len(),
        params.shards
    ));
    out.report.push(format!(
        "gw_pkt_p50_us = {} us, gw_pkt_p99_us = {} us (n={} packet round trips)",
        q.p50 as f64 / 1e3,
        q.p99 as f64 / 1e3,
        q.count
    ));

    if cfg.trace {
        let mut log = SpanLog::new(Instant::now());
        let traced = pass(&input, &mut log, &mut Vec::new());
        if traced.digest != first.digest {
            return Err("traced pass diverged from the untraced digest".to_string());
        }
        let sum = span::summarize(log.spans());
        let untraced_wall = stats::median_secs(&walls);
        let wall = traced.wall.as_secs_f64();
        let v = &mut out.values;
        v.set(
            "core.encode_ns_per_pkt",
            span::ns_per_call(&sum, "core.encode"),
        );
        v.set(
            "core.decode_ns_per_pkt",
            span::ns_per_call(&sum, "core.decode"),
        );
        v.set("core.encode_busy_s", span::busy_s(&sum, "core.encode"));
        v.set("core.decode_busy_s", span::busy_s(&sum, "core.decode"));
        v.set(
            "packet.parse_ns_per_pkt",
            span::ns_per_call(&sum, "packet.parse"),
        );
        v.set(
            "packet.write_ns_per_pkt",
            span::ns_per_call(&sum, "packet.write"),
        );
        v.set("core.gateway_new_s", traced.gateway_new.as_secs_f64());
        traced.counters.set_layer_values(v);
        let chunks = mss_chunks(
            input
                .trace
                .iter()
                .map(|s| &input.catalog[s.obj as usize][s.off as usize..(s.off + s.len) as usize]),
        );
        v.set("rabin.scan_mib_s", rabin_scan_mib_s(&chunks, 0.5));
        v.set("trace.overhead", wall / untraced_wall);

        let attributed = span::self_total_ns(&sum) as f64 / 1e9;
        out.report.push(format!(
            "reconcile: traced pass wall {wall:.4} s = span self time {attributed:.4} s + \
             unattributed {:.4} s ({})",
            wall - attributed,
            pct(wall - attributed, wall)
        ));
        for (name, t) in &sum {
            out.report.push(format!(
                "  {name:<14} calls {:>8}  busy {:.4} s  self {:.4} s ({})",
                t.count,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9,
                pct(t.self_ns as f64 / 1e9, wall)
            ));
        }
        out.spans = log.spans().to_vec();
    }
    Ok(out)
}
