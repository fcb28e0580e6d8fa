//! Fuzz-style properties for `Snapshot::decode`, the metrics plane's
//! wire entry: `.snap` files are untrusted input to the aggregator.
//! Random bytes, every truncation of a valid encoding and single-byte
//! flips of one must never panic; every valid encoding round-trips, and
//! whatever the decoder accepts re-encodes to the same snapshot.

use lifeguard_metrics::{CoreSnapshot, Histogram, IoSnapshot, Snapshot};
use proptest::prelude::*;

/// Samples spread over every magnitude, so histograms use low and high
/// buckets alike.
fn sample() -> impl Strategy<Value = u64> {
    any::<u64>().prop_map(|v| v >> (v % 64))
}

fn histogram(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// A snapshot from 27 counters (15 core, then 12 I/O) and the samples
/// of its two histograms.
fn build(counters: &[u64], rtt: &[u64], lifetime: &[u64]) -> Snapshot {
    let c = |i: usize| counters.get(i).copied().unwrap_or(0);
    Snapshot {
        core: CoreSnapshot {
            lhm: c(0),
            lhm_peak: c(1),
            lhm_max: c(2),
            probes_sent: c(3),
            probes_failed: c(4),
            indirect_probes_sent: c(5),
            suspicions_raised: c(6),
            refutations: c(7),
            failures_declared: c(8),
            flaps: c(9),
            broadcast_queue_depth: c(10),
            broadcast_queue_peak: c(11),
            delta_syncs: c(12),
            delta_sync_bytes: c(13),
            full_sync_fallbacks: c(14),
            probe_rtt: histogram(rtt),
            suspicion_lifetime: histogram(lifetime),
        },
        io: IoSnapshot {
            send_syscalls: c(15),
            sendmmsg_batches: c(16),
            datagrams_sent: c(17),
            datagram_bytes: c(18),
            send_errors: c(19),
            would_block_drops: c(20),
            recv_syscalls: c(21),
            datagrams_received: c(22),
            recv_truncations: c(23),
            streams_sent: c(24),
            stream_bytes: c(25),
            wakeups: c(26),
        },
    }
}

fn snapshot() -> impl Strategy<Value = Snapshot> {
    (
        collection::vec(sample(), 27..28),
        collection::vec(sample(), 0..40),
        collection::vec(sample(), 0..40),
    )
        .prop_map(|(counters, rtt, lifetime)| build(&counters, &rtt, &lifetime))
}

/// Whatever the decoder accepts must survive its own encoding.
fn accepted_round_trips(bytes: &[u8]) -> Result<(), String> {
    if let Ok(decoded) = Snapshot::decode(bytes) {
        prop_assert_eq!(Snapshot::decode(&decoded.encode()), Ok(decoded));
    }
    Ok(())
}

proptest! {
    #[test]
    fn valid_snapshots_round_trip(snap in snapshot()) {
        prop_assert_eq!(Snapshot::decode(&snap.encode()), Ok(snap));
    }

    /// Raw bytes, with and without a valid magic and version in front
    /// (without one, nearly every input stops at the header).
    #[test]
    fn random_bytes_never_panic(
        body in collection::vec(any::<u8>(), 0..600),
        headed in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        if headed {
            bytes.extend_from_slice(&Snapshot::default().encode()[..5]);
        }
        bytes.extend_from_slice(&body);
        accepted_round_trips(&bytes)?;
    }

    /// Every strict prefix of a valid encoding is rejected.
    #[test]
    fn every_truncation_is_an_error(snap in snapshot()) {
        let bytes = snap.encode();
        for cut in 0..bytes.len() {
            prop_assert!(Snapshot::decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn single_byte_flips_never_panic(
        snap in snapshot(),
        at in any::<usize>(),
        to in any::<u8>(),
    ) {
        let mut bytes = snap.encode();
        let at = at % bytes.len();
        bytes[at] = to;
        accepted_round_trips(&bytes)?;
    }
}
