//! `flash_crowd`: the `capacity` scenario scaled to seconds of wall
//! time, on the deterministic serial engine.
//!
//! Thousands of TCP downloads from a Zipf catalog arrive as a Poisson
//! process and run through sharded encoder/decoder gateway pairs (Naive
//! policy, NACK marking, near-zero loss). The topology is built here,
//! node for node as `capacity::run` builds it, with every node wrapped
//! in [`Timed`]; the check re-runs `capacity::run` at the same
//! parameters and compares its deterministic outputs.
//!
//! One unit of work is one simulation: build plus run.

use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use bytecache::gateway::{DecoderGateway, EncoderGateway};
use bytecache::{Decoder, DreConfig, Encoder, PolicyKind};
use bytecache_experiments::capacity::{self, CapacityParams};
use bytecache_netsim::channel::{ChannelConfig, LossModel};
use bytecache_netsim::time::SimDuration;
use bytecache_netsim::{
    replay_schedule, ExecMode, LinkConfig, LinkId, NodeId, QueueKind, Simulator,
};
use bytecache_tcp::{TcpClientNode, TcpConfig, TcpServerNode};
use bytecache_workload::{flash_crowd, generate, FlowSpec, ObjectKind};
use bytes::Bytes;

use super::{mib, mss_chunks, rabin_scan_mib_s, DreCounters};
use crate::span::{self, SpanLog, Timed};
use crate::stats::{self, fnv64};
use crate::{measure, pct, Config, Outcome, Scale};

/// Flash-crowd shape (the fields of [`CapacityParams`] this workload
/// uses; policy is Naive, the engine `SerialDet`, the queue the wheel).
#[derive(Debug, Clone)]
pub struct Params {
    /// Flows launched.
    pub flows: usize,
    /// Gateway shards.
    pub shards: usize,
    /// Distinct catalog objects.
    pub catalog: usize,
    /// Bytes per object.
    pub object_size: usize,
    /// Zipf exponent.
    pub zipf: f64,
    /// Mean Poisson inter-arrival, µs.
    pub interarrival_us: f64,
    /// Bernoulli loss on each shard's wireless data direction.
    pub loss: f64,
    /// Cache byte budget per shard.
    pub cache_bytes: usize,
    /// TCP receive window, bytes.
    pub receive_window: usize,
    /// Wireless rate per shard, bytes/s.
    pub link_rate: u64,
}

impl Params {
    /// The sizes for `scale`.
    #[must_use]
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Params {
                flows: 2_000,
                shards: 4,
                catalog: 64,
                object_size: 24_000,
                zipf: 0.9,
                interarrival_us: 250.0,
                loss: 0.000_5,
                cache_bytes: 4 << 20,
                receive_window: 34_752,
                link_rate: 1_000_000,
            },
            Scale::Tiny => Params {
                flows: 40,
                shards: 2,
                catalog: 8,
                object_size: 12_000,
                zipf: 0.9,
                interarrival_us: 1_000.0,
                loss: 0.000_5,
                cache_bytes: 256 << 10,
                receive_window: 17_376,
                link_rate: 2_000_000,
            },
        }
    }

    /// The same run as `capacity::run` parameters.
    #[must_use]
    pub fn capacity(&self, seed: u64) -> CapacityParams {
        CapacityParams {
            flows: self.flows,
            shards: self.shards,
            catalog: self.catalog,
            object_size: self.object_size,
            zipf_exponent: self.zipf,
            mean_interarrival_us: self.interarrival_us,
            loss: self.loss,
            cache_bytes: self.cache_bytes,
            policy: PolicyKind::Naive,
            receive_window: self.receive_window,
            link_rate: self.link_rate,
            seed,
            sim_workers: 1,
            queue: Some(QueueKind::Wheel),
            reps: 1,
        }
    }
}

/// The generated inputs: catalog objects and the arrival plan, exactly
/// as `capacity::run` derives them from the seed.
pub struct Input {
    params: Params,
    seed: u64,
    objects: Vec<Bytes>,
    plan: Vec<FlowSpec>,
}

/// Generate the inputs for `seed`.
#[must_use]
pub fn setup(seed: u64, params: &Params) -> Input {
    let objects = (0..params.catalog)
        .map(|i| {
            Bytes::from(generate(
                ObjectKind::WebPage,
                params.object_size,
                seed.wrapping_add(i as u64),
            ))
        })
        .collect();
    let plan = flash_crowd(
        params.flows,
        params.catalog,
        params.zipf,
        params.interarrival_us,
        seed,
    );
    Input {
        params: params.clone(),
        seed,
        objects,
        plan,
    }
}

fn addr(flow: usize, host: u8) -> Ipv4Addr {
    Ipv4Addr::new(40 + (flow / 250) as u8, (flow % 250) as u8, 0, host)
}

fn shard_addr(shard: usize, host: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, shard as u8, host)
}

/// A built simulation and the handles to read it back.
struct Built {
    sim: Simulator,
    encs: Vec<NodeId>,
    decs: Vec<NodeId>,
    wireless: Vec<LinkId>,
    servers: Vec<NodeId>,
    clients: Vec<NodeId>,
    gateway_new: Duration,
}

/// Build the flash crowd as `capacity::run` does; every node is wrapped
/// in [`Timed`], recording spans when `epoch` is given.
fn build(input: &Input, epoch: Option<Instant>, mode: ExecMode, record: bool) -> Built {
    let p = &input.params;
    let mut sim = Simulator::new(input.seed);
    sim.set_queue_kind(QueueKind::Wheel);
    sim.set_exec_mode(mode);
    if record {
        sim.record_schedule();
    }
    let tcp = TcpConfig {
        receive_window: p.receive_window,
        max_retries: 20,
        initial_rto: SimDuration::from_secs(5),
        min_rto: SimDuration::from_secs(2),
        ..TcpConfig::default()
    };
    let lan = LinkConfig {
        rate_bytes_per_sec: None,
        propagation: SimDuration::from_micros(200),
        channel: ChannelConfig::clean(),
    };
    let data_channel = if p.loss > 0.0 {
        ChannelConfig {
            loss: LossModel::Bernoulli { rate: p.loss },
            ..ChannelConfig::clean()
        }
    } else {
        ChannelConfig::clean()
    };
    let dre = DreConfig {
        cache_bytes: p.cache_bytes,
        ..DreConfig::default()
    };
    let shard_clients = |s: usize| {
        (0..p.flows)
            .filter(move |f| f % p.shards == s)
            .map(|f| addr(f, 2))
    };
    let mut encs = Vec::with_capacity(p.shards);
    let mut decs = Vec::with_capacity(p.shards);
    let mut wireless = Vec::with_capacity(p.shards);
    let mut gateway_new = Duration::ZERO;
    for s in 0..p.shards {
        let t0 = Instant::now();
        let enc_gw = EncoderGateway::for_destinations(
            Encoder::new(dre.clone(), PolicyKind::Naive.build()),
            shard_clients(s),
        )
        .with_control_addr(shard_addr(s, 3));
        let dec_gw = DecoderGateway::for_destinations(
            Decoder::new(dre.clone()),
            shard_clients(s),
            shard_addr(s, 4),
        )
        .with_nacks(shard_addr(s, 3));
        gateway_new += t0.elapsed();
        let enc = sim.add_node(Timed::new(enc_gw, "gw.enc", epoch));
        let dec = sim.add_node(Timed::new(dec_gw, "gw.dec", epoch));
        let radio = |channel: ChannelConfig| LinkConfig {
            rate_bytes_per_sec: Some(p.link_rate),
            propagation: SimDuration::from_millis(10),
            channel,
        };
        wireless.push(sim.add_link(enc, dec, radio(data_channel.clone())));
        sim.add_link(dec, enc, radio(ChannelConfig::clean()));
        sim.add_route(dec, shard_addr(s, 3), enc);
        encs.push(enc);
        decs.push(dec);
    }
    let mut servers = Vec::with_capacity(p.flows);
    let mut clients = Vec::with_capacity(p.flows);
    for (f, spec) in input.plan.iter().enumerate() {
        let s = f % p.shards;
        let (enc, dec) = (encs[s], decs[s]);
        let server_ip = addr(f, 1);
        let client_ip = addr(f, 2);
        let server = sim.add_node(Timed::new(
            TcpServerNode::new(
                server_ip,
                80,
                input.objects[spec.object].clone(),
                tcp.clone(),
            ),
            "tcp.server",
            epoch,
        ));
        let client = sim.add_node(Timed::new(
            TcpClientNode::new(client_ip, 40_000, server_ip, 80, tcp.clone())
                .with_start_delay(SimDuration::from_micros(spec.start_us)),
            "tcp.client",
            epoch,
        ));
        sim.add_duplex_link(server, enc, lan.clone());
        sim.add_duplex_link(dec, client, lan.clone());
        sim.add_route(server, client_ip, enc);
        sim.add_route(enc, client_ip, dec);
        sim.add_route(dec, client_ip, client);
        sim.add_route(client, server_ip, dec);
        sim.add_route(dec, server_ip, enc);
        sim.add_route(enc, server_ip, server);
        servers.push(server);
        clients.push(client);
    }
    Built {
        sim,
        encs,
        decs,
        wireless,
        servers,
        clients,
        gateway_new,
    }
}

/// The deterministic outputs of one simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SimStats {
    completed: usize,
    aborted: usize,
    failed: usize,
    corrupted: usize,
    delivered_intact: u64,
    peak_concurrent: usize,
    /// Flow completion times of complete flows, µs of simulated time.
    fct_us: Vec<u64>,
    counters: DreCounters,
    decoder_dropped: u64,
    wire_bytes: u64,
    segments_sent: u64,
    retransmissions: u64,
    timeouts: u64,
    events: u64,
    end_us: u64,
    digest: u64,
}

fn enc_of(b: &Built, id: NodeId) -> &EncoderGateway {
    &b.sim
        .node::<Timed<EncoderGateway>>(id)
        .expect("encoder gateway")
        .inner
}

fn dec_of(b: &Built, id: NodeId) -> &DecoderGateway {
    &b.sim
        .node::<Timed<DecoderGateway>>(id)
        .expect("decoder gateway")
        .inner
}

/// Read the finished simulation back; every delivered byte is compared
/// with the object its flow fetched.
fn extract(input: &Input, b: &Built, end_us: u64) -> SimStats {
    let p = &input.params;
    let mut st = SimStats::default();
    let mut text = String::new();
    let mut edges: Vec<(u64, i64)> = Vec::with_capacity(p.flows * 2);
    for (f, (&client, &server)) in b.clients.iter().zip(&b.servers).enumerate() {
        let node = &b
            .sim
            .node::<Timed<TcpClientNode>>(client)
            .expect("client")
            .inner;
        let report = node.report();
        let object = &input.objects[input.plan[f].object];
        let intact = object.starts_with(node.received());
        let full = report.complete && report.bytes_delivered == p.object_size as u64;
        st.completed += usize::from(full);
        st.aborted += usize::from(report.aborted);
        st.corrupted += usize::from(!intact);
        if full && intact {
            st.delivered_intact += report.bytes_delivered;
            if let Some(d) = report.duration() {
                st.fct_us.push(d.as_micros());
            }
        } else {
            st.failed += 1;
        }
        let start_us = report
            .started_at
            .map_or(input.plan[f].start_us, |t| t.as_micros());
        let done_us = report.completed_at.map_or(end_us, |t| t.as_micros());
        edges.push((start_us, 1));
        edges.push((done_us.max(start_us), -1));
        let srv = b
            .sim
            .node::<Timed<TcpServerNode>>(server)
            .expect("server")
            .inner
            .report();
        st.segments_sent += srv.segments_sent;
        st.retransmissions += srv.retransmissions;
        st.timeouts += srv.timeouts;
        let _ = writeln!(text, "{f} {report:?} {srv:?}");
    }
    edges.sort_unstable();
    let mut active = 0i64;
    for (_, d) in edges {
        active += d;
        st.peak_concurrent = st.peak_concurrent.max(usize::try_from(active).unwrap_or(0));
    }
    for s in 0..p.shards {
        let enc = enc_of(b, b.encs[s]);
        let dec = dec_of(b, b.decs[s]);
        st.counters.add_encoder(enc.encoder());
        st.counters.add_decoder(dec.decoder());
        st.decoder_dropped += dec.dropped();
        let ws = b.sim.link_stats(b.wireless[s]);
        st.wire_bytes += ws.bytes_offered;
        let _ = writeln!(text, "shard {s} {:?} {:?} {ws:?}", enc.stats(), dec.stats());
    }
    st.events = b.sim.events_processed();
    st.end_us = end_us;
    let _ = writeln!(text, "end {end_us} events {}", st.events);
    st.digest = fnv64(text.as_bytes());
    st
}

/// One simulation, timed.
struct SimRun {
    stats: SimStats,
    /// Build plus run.
    host: Duration,
    /// `run_until_idle` alone.
    run: Duration,
    built: Built,
}

fn simulate(input: &Input, epoch: Option<Instant>, mode: ExecMode, record: bool) -> SimRun {
    let t0 = Instant::now();
    let mut built = build(input, epoch, mode, record);
    let t_run = Instant::now();
    let end = built.sim.run_until_idle();
    let run = t_run.elapsed();
    let host = t0.elapsed();
    let stats = extract(input, &built, end.as_micros());
    SimRun {
        stats,
        host,
        run,
        built,
    }
}

/// Compare with `capacity::run` at the same parameters.
fn check_against_capacity(input: &Input, st: &SimStats) -> Result<(), String> {
    let r = capacity::run(&input.params.capacity(input.seed));
    let ours = (
        st.completed,
        st.aborted,
        st.peak_concurrent,
        st.counters.bytes_in,
        st.counters.bytes_out,
        st.wire_bytes,
        st.counters.evictions,
        st.counters.resident_bytes,
        st.decoder_dropped,
        st.events,
        st.end_us,
    );
    let theirs = (
        r.completed,
        r.aborted,
        r.peak_concurrent,
        r.bytes_in,
        r.bytes_out,
        r.wire_bytes,
        r.cache_evictions,
        r.cache_resident,
        r.decoder_dropped,
        r.events,
        r.end_us,
    );
    if ours == theirs && r.identical {
        Ok(())
    } else {
        Err(format!(
            "flash_crowd build diverged from capacity::run: ours {ours:?}, capacity {theirs:?}"
        ))
    }
}

/// Run the workload.
///
/// # Errors
///
/// Corrupted deliveries, runs whose digests differ, or divergence from
/// `capacity::run`.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let params = Params::for_scale(cfg.scale);
    let m = measure(
        cfg.seconds,
        3,
        || setup(cfg.seed, &params),
        |input| {
            let r = simulate(input, None, ExecMode::SerialDet, false);
            Ok((r.stats, r.host, r.run))
        },
    )?;
    let (input, runs, setup_s) = (m.input, m.units, m.setup_s);
    let first = &runs[0].0;
    if first.corrupted > 0 {
        return Err(format!(
            "{} flows received corrupted bytes",
            first.corrupted
        ));
    }
    if runs.iter().any(|r| r.0.digest != first.digest) {
        return Err("repeated simulations produced different digests".to_string());
    }
    check_against_capacity(&input, first)?;

    let mut out = Outcome {
        attempted: (params.flows * runs.len()) as u64,
        failed: (first.failed * runs.len()) as u64,
        ..Outcome::default()
    };
    // The warm-up simulation is checked above but not timed.
    let timed = &runs[1..];
    let rates: Vec<f64> = timed
        .iter()
        .map(|r| mib(r.0.delivered_intact) / r.1.as_secs_f64())
        .collect();
    let run_walls: Vec<Duration> = timed.iter().map(|r| r.2).collect();
    out.report
        .push(crate::unit_rates_line("simulation", &rates));
    let untraced_run = stats::median_secs(&run_walls);
    let v = &mut out.values;
    v.set("host_mib_s", stats::upper_quartile(&rates));
    v.set("bytes_ratio", first.counters.bytes_ratio());
    v.set("setup_s", setup_s);
    let mut fct = first.fct_us.clone();
    let q = stats::p50_p99(&mut fct).ok_or("no flow completed")?;
    v.set("fct_p50_ms", q.p50 as f64 / 1e3);
    v.set("fct_p99_ms", q.p99 as f64 / 1e3);
    out.report.push(format!(
        "flash_crowd: {} flows, {} shards, {} timed simulations, {} events each, peak {} concurrent",
        params.flows,
        params.shards,
        timed.len(),
        first.events,
        first.peak_concurrent
    ));
    out.report.push(format!(
        "fct_p50_ms = {} ms, fct_p99_ms = {} ms (n={} flows, simulated time)",
        q.p50 as f64 / 1e3,
        q.p99 as f64 / 1e3,
        q.count
    ));
    out.report.push(format!(
        "check: matches capacity::run (sim_workers 1) at seed {}",
        input.seed
    ));

    if cfg.trace {
        let traced = simulate(&input, Some(Instant::now()), ExecMode::SerialDet, false);
        if traced.stats.digest != first.digest {
            return Err("traced simulation diverged from the untraced digest".to_string());
        }
        let mut log = SpanLog::new(Instant::now());
        let b = &traced.built;
        let mut absorb = |l: Option<&SpanLog>| log.absorb(l.expect("tracing was on"));
        for s in 0..params.shards {
            absorb(
                b.sim
                    .node::<Timed<EncoderGateway>>(b.encs[s])
                    .and_then(Timed::log),
            );
            absorb(
                b.sim
                    .node::<Timed<DecoderGateway>>(b.decs[s])
                    .and_then(Timed::log),
            );
        }
        for (&c, &s) in b.clients.iter().zip(&b.servers) {
            absorb(b.sim.node::<Timed<TcpServerNode>>(s).and_then(Timed::log));
            absorb(b.sim.node::<Timed<TcpClientNode>>(c).and_then(Timed::log));
        }
        let sum = span::summarize(log.spans());

        let mut recorded = simulate(&input, None, ExecMode::SerialDet, true);
        if recorded.stats.digest != first.digest {
            return Err("recording simulation diverged from the untraced digest".to_string());
        }
        let schedule = recorded.built.sim.take_schedule();
        drop(recorded);
        let mut pops = 0;
        let replays: Vec<Duration> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                pops = replay_schedule(&schedule, QueueKind::Wheel);
                t0.elapsed()
            })
            .collect();
        let replay_s = stats::median_secs(&replays);

        let pdes = simulate(&input, None, ExecMode::Parallel { workers: 2 }, false);
        if pdes.stats.digest != first.digest {
            return Err("PDES at 2 workers diverged from the serial digest".to_string());
        }

        let wall = traced.run.as_secs_f64();
        let nodes_s = span::self_total_ns(&sum) as f64 / 1e9;
        let events = traced.stats.events as f64;
        let unattributed = wall - nodes_s - replay_s;
        let v = &mut out.values;
        v.set("core.gateway_enc_busy_s", span::busy_s(&sum, "gw.enc"));
        v.set("core.gateway_dec_busy_s", span::busy_s(&sum, "gw.dec"));
        v.set("core.gateway_new_s", traced.built.gateway_new.as_secs_f64());
        traced.stats.counters.set_layer_values(v);
        v.set("tcp.server_busy_s", span::busy_s(&sum, "tcp.server"));
        v.set("tcp.client_busy_s", span::busy_s(&sum, "tcp.client"));
        v.set(
            "tcp.retx_share",
            traced.stats.retransmissions as f64 / traced.stats.segments_sent.max(1) as f64,
        );
        v.set("tcp.timeouts", traced.stats.timeouts as f64);
        v.set("netsim.events", events);
        v.set(
            "netsim.engine_ns_per_event",
            (wall - nodes_s) * 1e9 / events,
        );
        v.set(
            "netsim.replay_ns_per_event",
            replay_s * 1e9 / pops.max(1) as f64,
        );
        v.set("netsim.unattributed_share", unattributed / wall);
        v.set(
            "netsim.pdes2_speedup",
            untraced_run / pdes.run.as_secs_f64(),
        );
        let chunks = mss_chunks(input.objects.iter().map(|o| &o[..]));
        v.set("rabin.scan_mib_s", rabin_scan_mib_s(&chunks, 0.5));
        v.set("trace.overhead", wall / untraced_run);

        out.report.push(format!(
            "reconcile: traced run wall {wall:.4} s = node self {nodes_s:.4} s + scheduler \
             replay {replay_s:.4} s + unattributed {unattributed:.4} s ({})",
            pct(unattributed, wall)
        ));
        for (name, t) in &sum {
            out.report.push(format!(
                "  {name:<14} calls {:>8}  self {:.4} s ({})",
                t.count,
                t.self_ns as f64 / 1e9,
                pct(t.self_ns as f64 / 1e9, wall)
            ));
        }
        out.report.push(format!(
            "pdes: 2 workers {:.4} s vs SerialDet {untraced_run:.4} s (run only), digests equal",
            pdes.run.as_secs_f64()
        ));
        out.spans = log.spans().to_vec();
    }
    Ok(out)
}
