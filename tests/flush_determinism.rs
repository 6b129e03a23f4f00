//! Determinism pin for flush-heavy transfers.
//!
//! Cache Flush empties both caches on every TCP retransmission, so at
//! 8 % loss one 300 kB download flushes dozens of times. Any change to
//! how the cache is emptied must leave these transfers exactly as they
//! were: same simulated end time, same encoder and decoder counters
//! (compared as their `Debug` rendering), same bytes on the wireless
//! link. TCP-seq, which never flushes, runs alongside as a control.
//!
//! The expected values were recorded once and must never be edited to
//! make the test pass; a mismatch means the cache's observable
//! behaviour changed.

use bytecache::PolicyKind;
use bytecache_experiments::{run_scenario, ScenarioConfig};
use bytecache_netsim::time::SimDuration;
use bytecache_workload::{FileSpec, StreamSpec};

/// One pinned transfer: (policy, Gilbert–Elliott burst length or
/// `None` for Bernoulli, expected outcome).
struct Pin {
    policy: PolicyKind,
    burst: Option<f64>,
    end_us: u64,
    encoder: &'static str,
    decoder: &'static str,
    /// `(bytes_offered, bytes_delivered, packets_lost)` on the wireless
    /// data direction.
    wireless: (u64, u64, u64),
}

fn scenario(policy: PolicyKind, burst: Option<f64>) -> ScenarioConfig {
    let spec = StreamSpec {
        redundant_packet_fraction: 0.5,
        ..FileSpec::File1.spec()
    };
    let mut cfg = ScenarioConfig::new(spec.build(300_000, 11))
        .policy(policy)
        .loss(0.08)
        .seed(5);
    cfg.tcp.max_retries = 50;
    cfg.burst_len = burst;
    cfg.wireless_propagation = SimDuration::from_millis(10);
    cfg
}

const PINS: &[Pin] = &[
    Pin {
        policy: PolicyKind::CacheFlush,
        burst: None,
        end_us: 9_401_768,
        encoder: "EncoderStats { packets: 248, bytes_in: 361320, bytes_out: 270040, encoded_packets: 93, raw_packets: 155, references: 0, flushes: 42, matches: 382, matched_bytes: 101993, sum_distinct_refs: 293, scan_windows: 357600, sampled_windows: 22632, index_insertions: 22632, index_skips: 0, resyncs: 0, repairs: 0, repair_misses: 0 }",
        decoder: "DecoderStats { packets: 223, raw: 142, decoded: 64, missing_reference: 12, checksum_mismatch: 5, bad_region: 0, malformed: 0, epoch_flushes: 38, bytes_in: 244255, bytes_out: 300000, scan_windows: 296910, sampled_windows: 18786, index_insertions: 18786, index_skips: 0, stale_gen: 0, wipes: 0, resyncs: 0 }",
        wireless: (280080, 253295, 25),
    },
    Pin {
        policy: PolicyKind::CacheFlush,
        burst: Some(4.0),
        end_us: 1_586_359,
        encoder: "EncoderStats { packets: 231, bytes_in: 336500, bytes_out: 229768, encoded_packets: 92, raw_packets: 139, references: 0, flushes: 25, matches: 436, matched_bytes: 118108, sum_distinct_refs: 351, scan_windows: 333035, sampled_windows: 20948, index_insertions: 20948, index_skips: 0, resyncs: 0, repairs: 0, repair_misses: 0 }",
        decoder: "DecoderStats { packets: 215, raw: 130, decoded: 76, missing_reference: 8, checksum_mismatch: 1, bad_region: 0, malformed: 0, epoch_flushes: 24, bytes_in: 214795, bytes_out: 300000, scan_windows: 296910, sampled_windows: 18786, index_insertions: 18786, index_skips: 0, stale_gen: 0, wipes: 0, resyncs: 0 }",
        wireless: (239128, 223515, 16),
    },
    Pin {
        policy: PolicyKind::TcpSeq,
        burst: None,
        end_us: 10_967_281,
        encoder: "EncoderStats { packets: 252, bytes_in: 367160, bytes_out: 246430, encoded_packets: 114, raw_packets: 138, references: 0, flushes: 0, matches: 496, matched_bytes: 133540, sum_distinct_refs: 392, scan_windows: 363380, sampled_windows: 23041, index_insertions: 23041, index_skips: 0, resyncs: 0, repairs: 0, repair_misses: 0 }",
        decoder: "DecoderStats { packets: 226, raw: 119, decoded: 87, missing_reference: 15, checksum_mismatch: 5, bad_region: 0, malformed: 0, epoch_flushes: 0, bytes_in: 216639, bytes_out: 300000, scan_windows: 296910, sampled_windows: 18786, index_insertions: 18786, index_skips: 0, stale_gen: 0, wipes: 0, resyncs: 0 }",
        wireless: (256630, 225799, 26),
    },
    Pin {
        policy: PolicyKind::TcpSeq,
        burst: Some(4.0),
        end_us: 2_493_580,
        encoder: "EncoderStats { packets: 237, bytes_in: 345260, bytes_out: 219041, encoded_packets: 114, raw_packets: 123, references: 0, flushes: 0, matches: 519, matched_bytes: 139197, sum_distinct_refs: 409, scan_windows: 341705, sampled_windows: 21543, index_insertions: 21543, index_skips: 0, resyncs: 0, repairs: 0, repair_misses: 0 }",
        decoder: "DecoderStats { packets: 221, raw: 114, decoded: 92, missing_reference: 10, checksum_mismatch: 5, bad_region: 0, malformed: 0, epoch_flushes: 0, bytes_in: 204068, bytes_out: 300000, scan_windows: 296910, sampled_windows: 18786, index_insertions: 18786, index_skips: 0, stale_gen: 0, wipes: 0, resyncs: 0 }",
        wireless: (228641, 213028, 16),
    },
];

/// Runs one pinned transfer and asserts every pinned value.
fn assert_pinned(pin: &Pin) {
    let (policy, burst) = (pin.policy, pin.burst);
    let r = run_scenario(&scenario(policy, burst));
    assert!(r.data_intact, "{policy:?} {burst:?} corrupted data");
    assert!(r.completed(), "{policy:?} {burst:?} did not complete");
    assert_eq!(r.end_time.as_micros(), pin.end_us, "{policy:?} {burst:?}");
    let encoder = format!("{:?}", r.encoder.expect("DRE run"));
    assert_eq!(encoder, pin.encoder, "{policy:?} {burst:?}");
    let decoder = format!("{:?}", r.decoder.expect("DRE run"));
    assert_eq!(decoder, pin.decoder, "{policy:?} {burst:?}");
    let wireless = (
        r.wireless.bytes_offered,
        r.wireless.bytes_delivered,
        r.wireless.packets_lost,
    );
    assert_eq!(wireless, pin.wireless, "{policy:?} {burst:?}");
}

#[test]
fn flush_heavy_transfers_are_pinned() {
    for pin in PINS {
        assert_pinned(pin);
    }
}

/// A thread reuses the fingerprint tables its previous transfer
/// dropped, cleared of the groups written since their last flush
/// (about 11k of the 128 Ki groups after a TCP-seq cell, which never
/// flushes; a few hundred to a few thousand after a Cache Flush cell).
/// Each cell must still match its pin whichever cells ran before it on
/// the same thread.
#[test]
fn pinned_transfers_hold_back_to_back_on_one_thread() {
    std::thread::spawn(|| {
        for pin in PINS.iter().chain(PINS.iter().rev()) {
            assert_pinned(pin);
        }
    })
    .join()
    .expect("a pinned transfer diverged");
}
