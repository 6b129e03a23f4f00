//! `lossy_retx`: single-flow paper-chain downloads over 8 % lossy
//! channels, where the cache is used the opposite way from
//! `flash_crowd`: flushes, undecodable shims, retransmissions, RTOs and
//! NC repair dominate, and hits are rare.
//!
//! The arms are baseline, cache-flush, tcp-seq and nc-xor; the channels
//! Bernoulli and Gilbert–Elliott burst(4) loss; each (arm, channel)
//! runs several seeds. Cells run through a `Campaign` on at most
//! `nproc` threads and each builds its own gateways, so construction is
//! timed work. The topology is built here, node for node as
//! `run_scenario` builds it, with every node wrapped in [`Timed`]; the
//! check re-runs `run_scenario` on every cell and compares.
//!
//! One unit of work is one round: every cell once.

use std::time::{Duration, Instant};

use bytecache::gateway::{DecoderGateway, EncoderGateway};
use bytecache::{Decoder, Encoder, PolicyKind};
use bytecache_experiments::scenario::addrs::{
    CLIENT, CLIENT_PORT, DECODER_GW, ENCODER_GW, NC_DEC, NC_ENC, SERVER, SERVER_PORT,
};
use bytecache_experiments::{run_scenario, Campaign, PassThrough, RunResult, ScenarioConfig};
use bytecache_netsim::channel::{ChannelConfig, LossModel};
use bytecache_netsim::nc::{NcConfig, NcDecoderNode, NcEncoderNode, NcTuning};
use bytecache_netsim::time::SimDuration;
use bytecache_netsim::{
    replay_schedule, ExecMode, LinkConfig, NodeId, QueueKind, ScheduleOp, Simulator,
};
use bytecache_tcp::{TcpClientNode, TcpServerNode};
use bytecache_workload::{FileSpec, StreamSpec};

use super::{mib, mss_chunks, rabin_scan_mib_s, DreCounters};
use crate::span::{self, SpanLog, Timed};
use crate::stats::{self, fnv64};
use crate::{measure, pct, Config, Outcome, Scale};

/// One contender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arm {
    /// Plain TCP through pass-through middleboxes.
    Baseline,
    /// Byte caching with this policy.
    Dre(PolicyKind),
    /// The XOR network-coding pair around the wireless hop.
    Nc,
}

impl Arm {
    fn label(self) -> String {
        match self {
            Arm::Baseline => "baseline".to_string(),
            Arm::Dre(kind) => kind.label(),
            Arm::Nc => "nc-xor".to_string(),
        }
    }
}

/// The arms, baseline first.
pub const ARMS: [Arm; 4] = [
    Arm::Baseline,
    Arm::Dre(PolicyKind::CacheFlush),
    Arm::Dre(PolicyKind::TcpSeq),
    Arm::Nc,
];

/// Channels: `None` is Bernoulli, `Some(len)` Gilbert–Elliott bursts.
pub const CHANNELS: [Option<f64>; 2] = [None, Some(4.0)];

/// Download shape.
#[derive(Debug, Clone)]
pub struct Params {
    /// Object bytes.
    pub object_size: usize,
    /// Redundant-packet share of each object (File 1's shape otherwise).
    pub redundancy: f64,
    /// Long-run loss rate on the wireless data direction.
    pub loss: f64,
    /// Wireless one-way propagation, µs.
    pub prop_us: u64,
    /// Wireless rate, bytes/s.
    pub rate: u64,
    /// Channel seeds per (arm, channel); each seed also draws its own
    /// object, which every arm on that seed downloads.
    pub seeds: u64,
}

impl Params {
    /// The sizes for `scale`.
    #[must_use]
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Params {
                object_size: 300_000,
                redundancy: 0.5,
                loss: 0.08,
                prop_us: 10_000,
                rate: 1_000_000,
                seeds: 24,
            },
            Scale::Tiny => Params {
                object_size: 40_000,
                redundancy: 0.5,
                loss: 0.08,
                prop_us: 2_000,
                rate: 1_000_000,
                seeds: 1,
            },
        }
    }
}

/// One cell: an arm on a channel realization.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Index into [`ARMS`].
    pub arm: usize,
    /// Index into [`CHANNELS`].
    pub channel: usize,
    /// Channel seed.
    pub seed: u64,
    /// Index of the object downloaded.
    pub object: usize,
}

/// The generated inputs.
pub struct Input {
    params: Params,
    objects: Vec<Vec<u8>>,
    cells: Vec<Cell>,
}

/// Generate the objects and the cells for `seed`.
#[must_use]
pub fn setup(seed: u64, params: &Params) -> Input {
    let spec = StreamSpec {
        redundant_packet_fraction: params.redundancy,
        ..FileSpec::File1.spec()
    };
    let objects = (0..params.seeds)
        .map(|k| spec.build(params.object_size, stats::sub_seed(seed, 2_000 + k)))
        .collect();
    let mut cells = Vec::new();
    for k in 0..params.seeds {
        for channel in 0..CHANNELS.len() {
            for arm in 0..ARMS.len() {
                cells.push(Cell {
                    arm,
                    channel,
                    seed: stats::sub_seed(seed, 1_000 + k),
                    object: k as usize,
                });
            }
        }
    }
    Input {
        params: params.clone(),
        objects,
        cells,
    }
}

/// The `run_scenario` configuration of a cell (deterministic engine).
#[must_use]
pub fn scenario(input: &Input, cell: Cell) -> ScenarioConfig {
    let p = &input.params;
    let mut cfg = ScenarioConfig::new(input.objects[cell.object].clone())
        .loss(p.loss)
        .seed(cell.seed)
        .sim_workers(1);
    // A long Gilbert–Elliott bad run loses every retransmission of a
    // segment; with the default 15 retries about one transfer in a
    // hundred aborts. 50 retries turn those aborts into long stalls, so
    // every cell completes and the arms compare on the same cells.
    cfg.tcp.max_retries = 50;
    cfg.burst_len = CHANNELS[cell.channel];
    cfg.wireless_propagation = SimDuration::from_micros(p.prop_us);
    cfg.wireless_rate = p.rate;
    match ARMS[cell.arm] {
        Arm::Baseline => cfg,
        Arm::Dre(kind) => cfg.policy(kind),
        Arm::Nc => cfg.nc(NcTuning {
            initial_loss: p.loss,
            ..NcTuning::default()
        }),
    }
}

/// Data and control channels as `run_scenario` derives them.
fn channels(cfg: &ScenarioConfig) -> (ChannelConfig, ChannelConfig) {
    let loss = match (cfg.loss_rate, cfg.burst_len) {
        (rate, _) if rate <= 0.0 => LossModel::None,
        (rate, Some(burst)) => LossModel::bursty(rate, burst),
        (rate, None) => LossModel::Bernoulli { rate },
    };
    let data = ChannelConfig {
        loss,
        reorder_window: SimDuration::from_millis(20),
        reorder_burst_len: cfg.reorder_burst_len,
        ..ChannelConfig::clean()
    };
    (data, ChannelConfig::clean())
}

/// What one cell produced.
pub struct CellOut {
    /// Deterministic outputs in `run_scenario`'s terms.
    pub result: RunResult,
    /// Host time: build plus run.
    pub host: Duration,
    /// Host time of `run_until_idle` alone.
    pub run: Duration,
    /// Host time constructing the gateways.
    pub gateway_new: Duration,
    /// Simulator events.
    pub events: u64,
    /// Encoder store counters (DRE arms).
    pub counters: DreCounters,
    /// Node spans (traced runs).
    pub spans: Option<SpanLog>,
    /// The recorded schedule (recording runs).
    pub schedule: Vec<ScheduleOp>,
}

/// Run one cell through the chain `run_scenario` builds, every node
/// wrapped in [`Timed`] (recording spans when `epoch` is given).
///
/// # Panics
///
/// Panics if `cfg` asks for a `run_scenario` feature this build does
/// not reproduce (fault injection, recovery, NACKs, telemetry).
#[must_use]
pub fn run_cell(cfg: &ScenarioConfig, epoch: Option<Instant>, record: bool) -> CellOut {
    assert!(
        !cfg.nacks
            && !cfg.recovery
            && !cfg.wire_gen
            && !cfg.telemetry
            && cfg.wipe_at.is_none()
            && cfg.corruption_rate == 0.0
            && cfg.reorder_rate == 0.0
            && cfg.nack_loss == 0.0
            && cfg.nack_duplicate == 0.0,
        "lossy_retx reproduces the plain chain only"
    );
    let t0 = Instant::now();
    let mut sim = Simulator::new(cfg.seed);
    sim.set_exec_mode(ExecMode::SerialDet);
    if record {
        sim.record_schedule();
    }
    let server = sim.add_node(Timed::new(
        TcpServerNode::new(SERVER, SERVER_PORT, cfg.object.clone(), cfg.tcp.clone()),
        "tcp.server",
        epoch,
    ));
    let client = sim.add_node(Timed::new(
        TcpClientNode::new(CLIENT, CLIENT_PORT, SERVER, SERVER_PORT, cfg.tcp.clone()),
        "tcp.client",
        epoch,
    ));
    let t_new = Instant::now();
    let (enc_gw, dec_gw) = match cfg.policy {
        Some(kind) => {
            let enc = EncoderGateway::new(Encoder::new(cfg.dre.clone(), kind.build()), CLIENT)
                .with_control_addr(ENCODER_GW)
                .with_payload_mode(cfg.payload_mode);
            let dec = DecoderGateway::new(Decoder::new(cfg.dre.clone()), CLIENT, DECODER_GW)
                .with_payload_mode(cfg.payload_mode);
            (
                sim.add_node(Timed::new(enc, "gw.enc", epoch)),
                sim.add_node(Timed::new(dec, "gw.dec", epoch)),
            )
        }
        None => (
            sim.add_node(Timed::new(PassThrough, "gw.pass", epoch)),
            sim.add_node(Timed::new(PassThrough, "gw.pass", epoch)),
        ),
    };
    let gateway_new = t_new.elapsed();

    let lan = LinkConfig {
        rate_bytes_per_sec: None,
        propagation: SimDuration::from_micros(500),
        channel: ChannelConfig::clean(),
    };
    sim.add_duplex_link(server, enc_gw, lan.clone());
    sim.add_duplex_link(dec_gw, client, lan);
    let (data_channel, control_channel) = channels(cfg);
    let radio = |channel| LinkConfig {
        rate_bytes_per_sec: Some(cfg.wireless_rate),
        propagation: cfg.wireless_propagation,
        channel,
    };
    let (wireless, nc_nodes) = match &cfg.nc {
        None => {
            let wireless = sim.add_link(enc_gw, dec_gw, radio(data_channel));
            sim.add_link(dec_gw, enc_gw, radio(control_channel));
            sim.add_route(server, CLIENT, enc_gw);
            sim.add_route(enc_gw, CLIENT, dec_gw);
            sim.add_route(dec_gw, CLIENT, client);
            sim.add_route(client, SERVER, dec_gw);
            sim.add_route(dec_gw, SERVER, enc_gw);
            sim.add_route(enc_gw, SERVER, server);
            sim.add_route(dec_gw, ENCODER_GW, enc_gw);
            (wireless, None)
        }
        Some(tuning) => {
            let nc_cfg = |src| NcConfig {
                data_dst: CLIENT,
                feedback_dst: SERVER,
                src,
                tuning: tuning.clone(),
            };
            let nc_enc = sim.add_node(Timed::new(
                NcEncoderNode::new(nc_cfg(NC_ENC)),
                "nc.enc",
                epoch,
            ));
            let nc_dec = sim.add_node(Timed::new(
                NcDecoderNode::new(nc_cfg(NC_DEC)),
                "nc.dec",
                epoch,
            ));
            let hop = LinkConfig {
                rate_bytes_per_sec: None,
                propagation: SimDuration::from_micros(1),
                channel: ChannelConfig::clean(),
            };
            sim.add_duplex_link(enc_gw, nc_enc, hop.clone());
            sim.add_duplex_link(nc_dec, dec_gw, hop);
            let wireless = sim.add_link(nc_enc, nc_dec, radio(data_channel));
            sim.add_link(nc_dec, nc_enc, radio(control_channel));
            sim.add_route(server, CLIENT, enc_gw);
            sim.add_route(enc_gw, CLIENT, nc_enc);
            sim.add_route(nc_enc, CLIENT, nc_dec);
            sim.add_route(nc_dec, CLIENT, dec_gw);
            sim.add_route(dec_gw, CLIENT, client);
            sim.add_route(client, SERVER, dec_gw);
            sim.add_route(dec_gw, SERVER, nc_dec);
            sim.add_route(nc_dec, SERVER, nc_enc);
            sim.add_route(nc_enc, SERVER, enc_gw);
            sim.add_route(enc_gw, SERVER, server);
            sim.add_route(dec_gw, ENCODER_GW, nc_dec);
            sim.add_route(nc_dec, ENCODER_GW, nc_enc);
            sim.add_route(nc_enc, ENCODER_GW, enc_gw);
            (wireless, Some((nc_enc, nc_dec)))
        }
    };

    let t_run = Instant::now();
    let end_time = sim.run_until_idle();
    let run = t_run.elapsed();
    let host = t0.elapsed();

    let client_node = &sim
        .node::<Timed<TcpClientNode>>(client)
        .expect("client")
        .inner;
    let server_node = &sim
        .node::<Timed<TcpServerNode>>(server)
        .expect("server")
        .inner;
    let received = client_node.received();
    let data_intact = if client_node.report().complete {
        received == &cfg.object[..]
    } else {
        cfg.object.starts_with(received)
    };
    let mut counters = DreCounters::default();
    let (encoder, decoder, undecodable_drops) = match cfg.policy {
        Some(_) => {
            let e = &sim
                .node::<Timed<EncoderGateway>>(enc_gw)
                .expect("encoder")
                .inner;
            let d = &sim
                .node::<Timed<DecoderGateway>>(dec_gw)
                .expect("decoder")
                .inner;
            counters.add_encoder(e.encoder());
            counters.add_decoder(d.decoder());
            (
                Some(e.encoder().stats().clone()),
                Some(d.decoder().stats().clone()),
                d.dropped(),
            )
        }
        None => (None, None, 0),
    };
    let (nc_encoder, nc_decoder) = match nc_nodes {
        Some((a, b)) => (
            Some(
                sim.node::<Timed<NcEncoderNode>>(a)
                    .expect("nc encoder")
                    .inner
                    .stats()
                    .clone(),
            ),
            Some(
                sim.node::<Timed<NcDecoderNode>>(b)
                    .expect("nc decoder")
                    .inner
                    .stats()
                    .clone(),
            ),
        ),
        None => (None, None),
    };
    let spans = epoch.map(|e| {
        let mut log = SpanLog::new(e);
        let ids: Vec<NodeId> = [Some(server), Some(client), Some(enc_gw), Some(dec_gw)]
            .into_iter()
            .chain(nc_nodes.map_or([None, None], |(a, b)| [Some(a), Some(b)]))
            .flatten()
            .collect();
        for id in ids {
            log.absorb(node_log(&sim, id).expect("tracing was on"));
        }
        log
    });
    let result = RunResult {
        client: client_node.report().clone(),
        server: server_node.report().clone(),
        encoder,
        decoder,
        undecodable_drops,
        recovery_requests: 0,
        resyncs_sent: 0,
        wireless: sim.link_stats(wireless).clone(),
        end_time,
        data_intact,
        object_len: cfg.object.len(),
        telemetry: None,
        nc_encoder,
        nc_decoder,
    };
    CellOut {
        result,
        host,
        run,
        gateway_new,
        events: sim.events_processed(),
        counters,
        spans,
        schedule: sim.take_schedule(),
    }
}

/// The span log of whichever wrapped node `id` is.
fn node_log(sim: &Simulator, id: NodeId) -> Option<&SpanLog> {
    fn log_of<N: 'static>(sim: &Simulator, id: NodeId) -> Option<&SpanLog> {
        sim.node::<Timed<N>>(id).and_then(Timed::log)
    }
    log_of::<TcpServerNode>(sim, id)
        .or_else(|| log_of::<TcpClientNode>(sim, id))
        .or_else(|| log_of::<EncoderGateway>(sim, id))
        .or_else(|| log_of::<DecoderGateway>(sim, id))
        .or_else(|| log_of::<PassThrough>(sim, id))
        .or_else(|| log_of::<NcEncoderNode>(sim, id))
        .or_else(|| log_of::<NcDecoderNode>(sim, id))
}

/// The deterministic part of a run, as comparable text.
#[must_use]
pub fn digest_text(r: &RunResult) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{}|{:?}|{:?}",
        r.client,
        r.server,
        r.encoder,
        r.decoder,
        r.undecodable_drops,
        r.wireless,
        r.end_time,
        r.data_intact,
        r.nc_encoder,
        r.nc_decoder
    )
}

/// One round: every cell once through the campaign.
struct Round {
    cells: Vec<CellOut>,
    wall: Duration,
}

fn round(campaign: &Campaign, input: &Input, epoch: Option<Instant>, record: bool) -> Round {
    let t0 = Instant::now();
    let cells = campaign.run_cells("lossy_retx", input.cells.clone(), |_, cell| {
        run_cell(&scenario(input, cell), epoch, record)
    });
    Round {
        cells,
        wall: t0.elapsed(),
    }
}

fn round_digest(r: &Round) -> u64 {
    let text: String = r
        .cells
        .iter()
        .map(|c| digest_text(&c.result) + "\n")
        .collect();
    fnv64(text.as_bytes())
}

/// Run the workload.
///
/// # Errors
///
/// Corrupted deliveries, rounds whose digests differ, or divergence from
/// `run_scenario`.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let params = Params::for_scale(cfg.scale);

    let threads = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);
    let campaign = Campaign::default().with_threads(threads);

    let m = measure(
        cfg.seconds,
        3,
        || setup(cfg.seed, &params),
        |input| Ok(round(&campaign, input, None, false)),
    )?;
    let (input, rounds, setup_s) = (m.input, m.units, m.setup_s);
    let first = &rounds[0];
    let digest = round_digest(first);
    if let Some((i, _)) = first
        .cells
        .iter()
        .enumerate()
        .find(|(_, c)| !c.result.data_intact)
    {
        return Err(format!("cell {i} delivered corrupted bytes"));
    }
    if rounds.iter().any(|r| round_digest(r) != digest) {
        return Err("repeated rounds produced different digests".to_string());
    }
    // Reproduce every cell with the crate's own runner.
    let reference = campaign.run_cells("lossy_retx check", input.cells.clone(), |_, cell| {
        digest_text(&run_scenario(&scenario(&input, cell)))
    });
    for (i, (theirs, ours)) in reference.iter().zip(&first.cells).enumerate() {
        if *theirs != digest_text(&ours.result) {
            return Err(format!("cell {i} diverged from run_scenario"));
        }
    }

    let cells_per_round = input.cells.len() as u64;
    let failed_per_round = first.cells.iter().filter(|c| !c.result.completed()).count() as u64;
    let mut out = Outcome {
        attempted: cells_per_round * rounds.len() as u64,
        failed: failed_per_round * rounds.len() as u64,
        ..Outcome::default()
    };
    let delivered = |r: &Round| -> u64 {
        r.cells
            .iter()
            .filter(|c| c.result.completed())
            .map(|c| c.result.object_len as u64)
            .sum()
    };
    // The warm-up round is checked above but not timed.
    let timed = &rounds[1..];
    let rates: Vec<f64> = timed
        .iter()
        .map(|r| mib(delivered(r)) / r.wall.as_secs_f64())
        .collect();
    out.report.push(crate::unit_rates_line("round", &rates));
    let mut counters = DreCounters::default();
    for c in &first.cells {
        counters.merge(&c.counters);
    }
    // Download time of every arm over the baseline on the same channel
    // realization (paper Fig. 11).
    let duration = |c: &CellOut| c.result.duration_secs().unwrap_or(f64::NAN);
    let mut ratios = Vec::new();
    let mut by_arm = vec![Vec::new(); ARMS.len()];
    for (i, c) in first.cells.iter().enumerate() {
        let cell = input.cells[i];
        if cell.arm == 0 {
            continue;
        }
        let base = &first.cells[i - cell.arm];
        if c.result.completed() && base.result.completed() {
            let r = duration(c) / duration(base);
            ratios.push(r);
            by_arm[cell.arm].push(r);
        }
    }
    let busy: Vec<f64> = timed
        .iter()
        .map(|r| {
            let cell_s: f64 = r.cells.iter().map(|c| c.host.as_secs_f64()).sum();
            cell_s / (threads as f64 * r.wall.as_secs_f64())
        })
        .collect();
    let round_walls: Vec<Duration> = timed.iter().map(|r| r.wall).collect();
    let untraced_wall = stats::median_secs(&round_walls);

    let v = &mut out.values;
    v.set("host_mib_s", stats::upper_quartile(&rates));
    v.set("bytes_ratio", counters.bytes_ratio());
    v.set("setup_s", setup_s);
    if !ratios.is_empty() {
        v.set("dl_time_ratio", stats::geomean(&ratios));
    }
    out.report.push(format!(
        "lossy_retx: {} cells per round ({} arms x {} channels x {} seeds), {} timed rounds on {threads} threads",
        cells_per_round,
        ARMS.len(),
        CHANNELS.len(),
        params.seeds,
        timed.len()
    ));
    out.report.push(format!(
        "dl_time_ratio = {} ratio (geometric mean over n={} arm cells vs baseline, simulated time)",
        v.get("dl_time_ratio").unwrap_or(f64::NAN),
        ratios.len()
    ));
    for (i, c) in first.cells.iter().enumerate() {
        if !c.result.completed() {
            let cell = input.cells[i];
            out.report.push(format!(
                "  failed: {} on channel {:?} seed {:#x}: complete {} aborted {} server {:?}",
                ARMS[cell.arm].label(),
                CHANNELS[cell.channel],
                cell.seed,
                c.result.client.complete,
                c.result.client.aborted,
                c.result.server
            ));
        }
    }
    for (a, arm) in ARMS.iter().enumerate().skip(1) {
        if !by_arm[a].is_empty() {
            out.report.push(format!(
                "  {:<12} download time vs baseline: geomean {:.4} (n={})",
                arm.label(),
                stats::geomean(&by_arm[a]),
                by_arm[a].len()
            ));
        }
    }
    for (label, policy) in [
        ("cache-flush", PolicyKind::CacheFlush),
        ("tcp-seq", PolicyKind::TcpSeq),
    ] {
        let cells: Vec<&CellOut> = first
            .cells
            .iter()
            .zip(&input.cells)
            .filter(|(_, cell)| ARMS[cell.arm] == Arm::Dre(policy))
            .map(|(c, _)| c)
            .collect();
        let host: f64 = cells.iter().map(|c| c.host.as_secs_f64()).sum();
        let flushes: u64 = cells.iter().map(|c| c.counters.flushes).sum();
        let packets: u64 = cells
            .iter()
            .filter_map(|c| c.result.encoder.as_ref())
            .map(|e| e.packets)
            .sum();
        out.report.push(format!(
            "  {label:<12} {} cells: host {host:.4} s, {flushes} flushes, {packets} packets encoded",
            cells.len()
        ));
    }
    out.report.push(format!(
        "campaign busy share {:.4} (median over rounds); check: every cell matches run_scenario",
        stats::median(&busy)
    ));

    if cfg.trace {
        let traced = round(&campaign, &input, Some(Instant::now()), false);
        if round_digest(&traced) != digest {
            return Err("traced round diverged from the untraced digest".to_string());
        }
        let recorded = round(&campaign, &input, None, true);
        if round_digest(&recorded) != digest {
            return Err("recording round diverged from the untraced digest".to_string());
        }
        let mut replay_s = 0.0;
        let mut pops = 0u64;
        for c in &recorded.cells {
            let t0 = Instant::now();
            pops += replay_schedule(&c.schedule, QueueKind::Wheel);
            replay_s += t0.elapsed().as_secs_f64();
        }
        drop(recorded);

        let mut log = SpanLog::new(Instant::now());
        for c in &traced.cells {
            log.absorb(c.spans.as_ref().expect("tracing was on"));
        }
        let sum = span::summarize(log.spans());
        let wall: f64 = traced.cells.iter().map(|c| c.run.as_secs_f64()).sum();
        let events: u64 = traced.cells.iter().map(|c| c.events).sum();
        let nodes_s = span::self_total_ns(&sum) as f64 / 1e9;
        let unattributed = wall - nodes_s - replay_s;
        let results: Vec<&RunResult> = traced.cells.iter().map(|c| &c.result).collect();
        let segments: u64 = results.iter().map(|r| r.server.segments_sent).sum();
        let retx: u64 = results.iter().map(|r| r.server.retransmissions).sum();
        let timeouts: u64 = results.iter().map(|r| r.server.timeouts).sum();
        let recovered: u64 = results
            .iter()
            .filter_map(|r| r.nc_decoder.as_ref())
            .map(|s| s.recovered)
            .sum();
        let repairs: u64 = results
            .iter()
            .filter_map(|r| r.nc_encoder.as_ref())
            .map(|s| s.repairs_sent)
            .sum();

        let v = &mut out.values;
        v.set("core.gateway_enc_busy_s", span::busy_s(&sum, "gw.enc"));
        v.set("core.gateway_dec_busy_s", span::busy_s(&sum, "gw.dec"));
        v.set(
            "core.gateway_new_s",
            traced
                .cells
                .iter()
                .map(|c| c.gateway_new.as_secs_f64())
                .sum(),
        );
        counters.set_layer_values(v);
        v.set("tcp.server_busy_s", span::busy_s(&sum, "tcp.server"));
        v.set("tcp.client_busy_s", span::busy_s(&sum, "tcp.client"));
        v.set("tcp.retx_share", retx as f64 / segments.max(1) as f64);
        v.set("tcp.timeouts", timeouts as f64);
        v.set("netsim.events", events as f64);
        v.set(
            "netsim.engine_ns_per_event",
            (wall - nodes_s) * 1e9 / events as f64,
        );
        v.set(
            "netsim.replay_ns_per_event",
            replay_s * 1e9 / pops.max(1) as f64,
        );
        v.set("netsim.unattributed_share", unattributed / wall);
        v.set("nc.enc_busy_s", span::busy_s(&sum, "nc.enc"));
        v.set("nc.dec_busy_s", span::busy_s(&sum, "nc.dec"));
        v.set(
            "nc.repair_useful_share",
            recovered as f64 / repairs.max(1) as f64,
        );
        v.set("campaign.busy_share", stats::median(&busy));
        let chunks = mss_chunks(input.objects.iter().map(|o| &o[..]));
        v.set("rabin.scan_mib_s", rabin_scan_mib_s(&chunks, 0.5));
        v.set("trace.overhead", traced.wall.as_secs_f64() / untraced_wall);

        out.report.push(format!(
            "reconcile: sum of traced cell run walls {wall:.4} s = node self {nodes_s:.4} s + \
             scheduler replay {replay_s:.4} s + unattributed {unattributed:.4} s ({})",
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
        out.spans = log.spans().to_vec();
    }
    Ok(out)
}
