//! Flush bench: the Cache Flush policy's cost per flush, isolated from
//! the simulator.
//!
//! One encoder at the default budget (so its fingerprint table is the
//! 1 Mi-slot, 8 MiB-key table every default cache allocates) encodes
//! the same MSS-sized stream with a retransmission every N packets.
//! Each retransmission makes the Cache Flush policy empty the cache
//! before encoding. The no-flush control encodes the identical stream
//! with sequence numbers that always advance. The encoder is built
//! once, outside the timed loop, and sequence numbers keep advancing
//! across iterations, so only the chosen packets flush.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bytecache::{DreConfig, Encoder, PacketMeta, PolicyKind};
use bytecache_packet::{FlowId, SeqNum, MSS};
use bytecache_workload::FileSpec;
use bytes::Bytes;
use std::net::Ipv4Addr;

const PACKETS: usize = 256;

fn flow() -> FlowId {
    FlowId {
        src: Ipv4Addr::new(10, 0, 0, 1),
        src_port: 80,
        dst: Ipv4Addr::new(10, 0, 0, 2),
        dst_port: 4000,
    }
}

fn bench_flush(c: &mut Criterion) {
    let object = FileSpec::File1.build(PACKETS * MSS, 7);
    let payloads: Vec<Bytes> = object.chunks(MSS).map(Bytes::copy_from_slice).collect();
    let mut group = c.benchmark_group("flush");
    group.throughput(Throughput::Bytes(object.len() as u64));
    group.sample_size(10);
    for every in [Some(1usize), Some(8), Some(64), None] {
        let label = every.map_or("never".to_string(), |n| n.to_string());
        let mut enc = Encoder::new(DreConfig::default(), PolicyKind::CacheFlush.build());
        let mut seq = 1u32;
        group.bench_with_input(
            BenchmarkId::new("every", label),
            &payloads,
            |b, payloads| {
                b.iter(|| {
                    let mut out = 0usize;
                    for (i, payload) in payloads.iter().enumerate() {
                        // A retransmission reuses the last sequence
                        // number, which the policy answers with a flush.
                        if every.is_none_or(|n| i % n != n - 1) {
                            seq = seq.wrapping_add(MSS as u32);
                        }
                        let meta = PacketMeta {
                            flow: flow(),
                            seq: SeqNum::new(seq),
                            payload_len: payload.len(),
                            flow_index: 0,
                        };
                        out += enc.encode(&meta, payload).wire.len();
                    }
                    out
                })
            },
        );
        let flushes = enc.stats().flushes;
        match every {
            Some(n) => assert!(flushes >= (PACKETS / n) as u64, "too few flushes"),
            None => assert_eq!(flushes, 0, "the control must never flush"),
        }
    }
    group.finish();
}

criterion_group!(benches, bench_flush);
criterion_main!(benches);
