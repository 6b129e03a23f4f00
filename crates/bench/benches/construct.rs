//! Construction bench: what a short transfer pays to build and drop its
//! gateway pair, isolated from the simulator.
//!
//! Every simulated transfer builds a fresh encoder and decoder at the
//! default budget, whose fingerprint tables are the 1 Mi-slot clamp
//! (20 MiB each), and drops them when it ends. `empty` builds and drops
//! the pair. `filled` also encodes and decodes a 300 kB stream in
//! between (about 20k fingerprint inserts per cache, what one lossy
//! download indexes), so the drop has written groups to clear.

use criterion::{criterion_group, criterion_main, Criterion};

use bytecache::{Decoder, DreConfig, Encoder, PacketMeta, PolicyKind};
use bytecache_packet::{FlowId, SeqNum, MSS};
use bytecache_workload::FileSpec;
use bytes::Bytes;
use std::net::Ipv4Addr;

const PACKETS: usize = 220;

fn flow() -> FlowId {
    FlowId {
        src: Ipv4Addr::new(10, 0, 0, 1),
        src_port: 80,
        dst: Ipv4Addr::new(10, 0, 0, 2),
        dst_port: 4000,
    }
}

fn pair() -> (Encoder, Decoder) {
    (
        Encoder::new(DreConfig::default(), PolicyKind::CacheFlush.build()),
        Decoder::new(DreConfig::default()),
    )
}

/// Encode and decode every payload once; returns the encoder's index
/// insertions.
fn transfer(enc: &mut Encoder, dec: &mut Decoder, payloads: &[Bytes]) -> u64 {
    let mut seq = 1u32;
    for payload in payloads {
        let meta = PacketMeta {
            flow: flow(),
            seq: SeqNum::new(seq),
            payload_len: payload.len(),
            flow_index: 0,
        };
        seq = seq.wrapping_add(MSS as u32);
        let wire = enc.encode(&meta, payload).wire;
        let (decoded, _) = dec.decode(&wire, &meta);
        assert_eq!(decoded.as_ref(), Ok(payload), "round trip");
    }
    enc.stats().index_insertions
}

fn bench_construct(c: &mut Criterion) {
    let object = FileSpec::File1.build(PACKETS * MSS, 7);
    let payloads: Vec<Bytes> = object.chunks(MSS).map(Bytes::copy_from_slice).collect();
    let (mut enc, mut dec) = pair();
    let inserts = transfer(&mut enc, &mut dec, &payloads);
    assert!(inserts >= 18_000, "only {inserts} fingerprint inserts");
    drop((enc, dec));

    let mut group = c.benchmark_group("gateway_new");
    group.sample_size(10);
    // `iter` drops each routine's output inside the timed loop.
    group.bench_function("empty", |b| b.iter(pair));
    group.bench_function("filled", |b| {
        b.iter(|| {
            let (mut enc, mut dec) = pair();
            transfer(&mut enc, &mut dec, &payloads)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_construct);
criterion_main!(benches);
