//! The three workloads and the layer counters they share.

pub mod flash_crowd;
pub mod gateway_replay;
pub mod lossy_retx;

use std::hint::black_box;
use std::time::Instant;

use bytecache::{Decoder, DreConfig, Encoder};
use bytecache_rabin::sampler::Sampler;
use bytecache_rabin::{Fingerprinter, LaneScratch, Polynomial};

use crate::metrics::Values;

/// TCP maximum segment size every workload cuts payloads to.
pub const MSS: usize = 1448;

const MIB: f64 = 1024.0 * 1024.0;

/// Bytes to MiB.
#[must_use]
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / MIB
}

/// Isolated Rabin scan over `chunks` with the default DRE window and
/// sampling, repeated until at least `min_secs` passed: MiB/s.
#[must_use]
pub fn rabin_scan_mib_s(chunks: &[&[u8]], min_secs: f64) -> f64 {
    let dre = DreConfig::default();
    let fp = Fingerprinter::new(Polynomial::generate(dre.polynomial_seed), dre.window);
    let sampler = Sampler::new(dre.sample_bits);
    let mut scratch = LaneScratch::default();
    let mut acc = 0u64;
    let mut bytes = 0u64;
    let t0 = Instant::now();
    loop {
        for c in chunks {
            fp.scan_sampled_batched(black_box(c), &sampler, &mut scratch, |pos, f| {
                acc = acc.wrapping_add(f ^ u64::from(pos));
            });
            bytes += c.len() as u64;
        }
        if t0.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    black_box(acc);
    mib(bytes) / t0.elapsed().as_secs_f64()
}

/// Cut each payload into MSS-sized chunks.
#[must_use]
pub fn mss_chunks<'a>(payloads: impl IntoIterator<Item = &'a [u8]>) -> Vec<&'a [u8]> {
    payloads.into_iter().flat_map(|p| p.chunks(MSS)).collect()
}

/// DRE counters summed over a set of encoders and decoders.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DreCounters {
    /// Original payload bytes into the encoders.
    pub bytes_in: u64,
    /// Shim bytes out of the encoders.
    pub bytes_out: u64,
    /// Original bytes covered by matches.
    pub matched_bytes: u64,
    /// Fingerprint-table insertions at the encoders.
    pub index_insertions: u64,
    /// Packets evicted from the encoder stores.
    pub evictions: u64,
    /// Encoder store bytes resident at the end.
    pub resident_bytes: u64,
    /// Policy flushes at the encoders.
    pub flushes: u64,
    /// Shims the decoders received.
    pub dec_packets: u64,
    /// Shims the decoders could not reconstruct.
    pub dec_undecodable: u64,
}

impl DreCounters {
    /// Add one encoder's counters.
    pub fn add_encoder(&mut self, e: &Encoder) {
        let s = e.stats();
        self.bytes_in += s.bytes_in;
        self.bytes_out += s.bytes_out;
        self.matched_bytes += s.matched_bytes;
        self.index_insertions += s.index_insertions;
        self.flushes += s.flushes;
        self.evictions += e.cache().stats().evictions;
        self.resident_bytes += e.cache().bytes_used() as u64;
    }

    /// Add one decoder's counters.
    pub fn add_decoder(&mut self, d: &Decoder) {
        self.dec_packets += d.stats().packets;
        self.dec_undecodable += d.stats().undecodable();
    }

    /// Fold another set of counters in.
    pub fn merge(&mut self, o: &DreCounters) {
        self.bytes_in += o.bytes_in;
        self.bytes_out += o.bytes_out;
        self.matched_bytes += o.matched_bytes;
        self.index_insertions += o.index_insertions;
        self.evictions += o.evictions;
        self.resident_bytes += o.resident_bytes;
        self.flushes += o.flushes;
        self.dec_packets += o.dec_packets;
        self.dec_undecodable += o.dec_undecodable;
    }

    /// Shim bytes out over original bytes in (paper Fig. 10).
    #[must_use]
    pub fn bytes_ratio(&self) -> f64 {
        self.bytes_out as f64 / self.bytes_in.max(1) as f64
    }

    /// Record the `core.*` store and policy counters.
    pub fn set_layer_values(&self, v: &mut Values) {
        v.set(
            "core.matched_byte_share",
            self.matched_bytes as f64 / self.bytes_in.max(1) as f64,
        );
        v.set("core.index_insertions", self.index_insertions as f64);
        v.set("core.store_evictions", self.evictions as f64);
        v.set("core.store_resident_mib", mib(self.resident_bytes));
        v.set("core.flushes", self.flushes as f64);
        v.set(
            "core.undecodable_share",
            self.dec_undecodable as f64 / self.dec_packets.max(1) as f64,
        );
    }
}
