//! The serializable per-node metrics snapshot.
//!
//! Every runtime exports the same shape: a [`CoreSnapshot`] of the
//! deterministic protocol metrics (recorded by `SwimNode` on its
//! sans-io input path) plus an [`IoSnapshot`] of runtime transport
//! counters (sim telemetry, the net agent's syscall and reactor-wakeup
//! counters). That single shape is what makes simulated and socket
//! behavior comparable from one struct.
//!
//! The one codec is a versioned compact binary form
//! ([`Snapshot::encode`] / [`Snapshot::decode`], magic `SWMM`,
//! little-endian, histograms as sparse `(bucket, count)` pairs),
//! dependency-free because the build is offline. It stays because the
//! repository benchmark's `metrics.snapshot_encode` and
//! `metrics.snapshot_decode` rows round-trip it, and the determinism
//! golden in `tests/sim_determinism.rs` hashes a run's encoded
//! snapshots. Decoding treats its input as untrusted: a corrupt or
//! foreign buffer is a [`DecodeError`], never a panic.

use crate::hist::Histogram;

/// Snapshot codec magic.
const MAGIC: [u8; 4] = *b"SWMM";
/// Snapshot codec version; bumped on any layout change.
const VERSION: u8 = 1;

/// Deterministic protocol-core metrics (identical across runtimes for
/// the same input trace).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoreSnapshot {
    /// Current Local Health Multiplier score (0 = healthy).
    pub lhm: u64,
    /// Highest LHM score ever reached.
    pub lhm_peak: u64,
    /// Configured LHM ceiling.
    pub lhm_max: u64,
    /// Direct probes initiated.
    pub probes_sent: u64,
    /// Probe rounds that ended without an ack.
    pub probes_failed: u64,
    /// `ping-req` messages sent to intermediaries.
    pub indirect_probes_sent: u64,
    /// Suspicions started or adopted.
    pub suspicions_raised: u64,
    /// Times this node refuted a claim about itself.
    pub refutations: u64,
    /// Failures declared from this node's own suspicion timeouts
    /// (the false-positive numerator when the target was healthy).
    pub failures_declared: u64,
    /// Members seen Suspect/Dead and then Alive again (flap counter).
    pub flaps: u64,
    /// Gossip broadcasts queued right now.
    pub broadcast_queue_depth: u64,
    /// Highest queued-broadcast level observed at a snapshot point.
    pub broadcast_queue_peak: u64,
    /// Incremental push-pull messages sent (requests + replies).
    pub delta_syncs: u64,
    /// Encoded bytes of those incremental push-pull messages.
    pub delta_sync_bytes: u64,
    /// Full-state push-pull requests queued: delta sync disabled, a
    /// watermark stale past the horizon, or a watermark the peer could
    /// not serve. Joins and reconnects carry one record each, are not
    /// full syncs and are not counted.
    pub full_sync_fallbacks: u64,
    /// Probe round-trip time, microseconds (timely acks only).
    pub probe_rtt: Histogram,
    /// Lifetime of suspicions from raise to resolution (refute, death
    /// claim, or local expiry), microseconds.
    pub suspicion_lifetime: Histogram,
}

/// Transport counters in one runtime-agnostic shape. Fields a runtime
/// cannot observe stay zero (the sim has no syscalls or wakeups).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// UDP send syscalls issued (`sendmmsg` calls, failed ones too).
    pub send_syscalls: u64,
    /// `sendmmsg` calls that carried more than one datagram.
    pub sendmmsg_batches: u64,
    /// Datagrams handed to the kernel (or the sim network).
    pub datagrams_sent: u64,
    /// Payload bytes of those datagrams.
    pub datagram_bytes: u64,
    /// Send errors other than `WouldBlock`.
    pub send_errors: u64,
    /// Datagrams dropped because the socket buffer was full.
    pub would_block_drops: u64,
    /// UDP receive syscalls issued.
    pub recv_syscalls: u64,
    /// Datagrams received.
    pub datagrams_received: u64,
    /// Datagrams truncated on receive (malformed oversized senders).
    pub recv_truncations: u64,
    /// Stream (TCP / sim-stream) messages sent.
    pub streams_sent: u64,
    /// Encoded payload bytes of those stream messages.
    pub stream_bytes: u64,
    /// Reactor event-loop wakeups (poll returns).
    pub wakeups: u64,
}

/// One node's complete metrics export.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Deterministic protocol metrics.
    pub core: CoreSnapshot,
    /// Runtime transport metrics.
    pub io: IoSnapshot,
}

/// A snapshot that failed to decode (corrupt buffer, foreign version).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// What was wrong, for operator-facing error output.
    pub reason: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot decode failed: {}", self.reason)
    }
}

impl std::error::Error for DecodeError {}

const fn err(reason: &'static str) -> DecodeError {
    DecodeError { reason }
}

/// Little-endian reader over a snapshot buffer; every accessor is
/// bounds-checked (a buffer is untrusted input, and the metrics crate
/// is panic-baseline zero).
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    /// The next `N` bytes as an array, or `None` past the end.
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, _) = self.buf.get(self.at..)?.split_first_chunk::<N>()?;
        self.at += N;
        Some(*head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_hist(out: &mut Vec<u8>, h: &Histogram) {
    put_u64(out, h.count());
    put_u64(out, h.sum());
    put_u64(out, h.min());
    put_u64(out, h.max());
    let pairs: Vec<(u32, u64)> = h.nonzero_buckets().collect();
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for (idx, c) in pairs {
        out.extend_from_slice(&idx.to_le_bytes());
        put_u64(out, c);
    }
}

fn decode_hist(c: &mut Cursor<'_>) -> Option<Histogram> {
    let count = c.u64()?;
    let sum = c.u64()?;
    let min = c.u64()?;
    let max = c.u64()?;
    let n = c.u32()? as usize;
    let mut pairs = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        pairs.push((c.u32()?, c.u64()?));
    }
    Histogram::from_parts(count, sum, min, max, &pairs)
}

impl Snapshot {
    /// Encodes the snapshot into its compact binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        let co = &self.core;
        for v in [
            co.lhm,
            co.lhm_peak,
            co.lhm_max,
            co.probes_sent,
            co.probes_failed,
            co.indirect_probes_sent,
            co.suspicions_raised,
            co.refutations,
            co.failures_declared,
            co.flaps,
            co.broadcast_queue_depth,
            co.broadcast_queue_peak,
            co.delta_syncs,
            co.delta_sync_bytes,
            co.full_sync_fallbacks,
        ] {
            put_u64(&mut out, v);
        }
        encode_hist(&mut out, &co.probe_rtt);
        encode_hist(&mut out, &co.suspicion_lifetime);
        let io = &self.io;
        for v in [
            io.send_syscalls,
            io.sendmmsg_batches,
            io.datagrams_sent,
            io.datagram_bytes,
            io.send_errors,
            io.would_block_drops,
            io.recv_syscalls,
            io.datagrams_received,
            io.recv_truncations,
            io.streams_sent,
            io.stream_bytes,
            io.wakeups,
        ] {
            put_u64(&mut out, v);
        }
        out
    }

    /// Decodes a snapshot produced by [`Snapshot::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on a bad magic/version, truncation,
    /// trailing bytes, or inconsistent histogram bucket counts.
    pub fn decode(buf: &[u8]) -> Result<Snapshot, DecodeError> {
        let mut c = Cursor { buf, at: 0 };
        if c.array() != Some(MAGIC) {
            return Err(err("bad magic"));
        }
        if c.u8() != Some(VERSION) {
            return Err(err("unsupported version"));
        }
        let mut core15 = [0u64; 15];
        for slot in &mut core15 {
            *slot = c.u64().ok_or(err("truncated core counters"))?;
        }
        let probe_rtt = decode_hist(&mut c).ok_or(err("bad probe_rtt histogram"))?;
        let suspicion_lifetime =
            decode_hist(&mut c).ok_or(err("bad suspicion_lifetime histogram"))?;
        let mut io12 = [0u64; 12];
        for slot in &mut io12 {
            *slot = c.u64().ok_or(err("truncated io counters"))?;
        }
        if c.at != buf.len() {
            return Err(err("trailing bytes"));
        }
        Ok(Snapshot {
            core: CoreSnapshot {
                lhm: core15[0],
                lhm_peak: core15[1],
                lhm_max: core15[2],
                probes_sent: core15[3],
                probes_failed: core15[4],
                indirect_probes_sent: core15[5],
                suspicions_raised: core15[6],
                refutations: core15[7],
                failures_declared: core15[8],
                flaps: core15[9],
                broadcast_queue_depth: core15[10],
                broadcast_queue_peak: core15[11],
                delta_syncs: core15[12],
                delta_sync_bytes: core15[13],
                full_sync_fallbacks: core15[14],
                probe_rtt,
                suspicion_lifetime,
            },
            io: IoSnapshot {
                send_syscalls: io12[0],
                sendmmsg_batches: io12[1],
                datagrams_sent: io12[2],
                datagram_bytes: io12[3],
                send_errors: io12[4],
                would_block_drops: io12[5],
                recv_syscalls: io12[6],
                datagrams_received: io12[7],
                recv_truncations: io12[8],
                streams_sent: io12[9],
                stream_bytes: io12[10],
                wakeups: io12[11],
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.core.lhm = 2;
        s.core.lhm_peak = 4;
        s.core.lhm_max = 8;
        s.core.probes_sent = 100;
        s.core.probes_failed = 3;
        s.core.suspicions_raised = 2;
        s.core.flaps = 1;
        s.core.delta_syncs = 12;
        s.core.delta_sync_bytes = 3456;
        s.core.full_sync_fallbacks = 2;
        for v in [900u64, 1200, 250_000] {
            s.core.probe_rtt.record(v);
        }
        s.core.suspicion_lifetime.record(4_000_000);
        s.io.datagrams_sent = 321;
        s.io.datagram_bytes = 65_000;
        s.io.wakeups = 77;
        s
    }

    #[test]
    fn binary_round_trip() {
        let s = sample();
        let bytes = s.encode();
        assert_eq!(Snapshot::decode(&bytes), Ok(s));
        // The default (all-zero) snapshot round-trips too.
        let d = Snapshot::default();
        assert_eq!(Snapshot::decode(&d.encode()), Ok(d));
    }

    #[test]
    fn decode_rejects_corruption() {
        let s = sample();
        let bytes = s.encode();
        assert!(Snapshot::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(Snapshot::decode(b"XXXX").is_err());
        let mut wrong_ver = bytes.clone();
        wrong_ver[4] = 99;
        assert!(Snapshot::decode(&wrong_ver).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Snapshot::decode(&trailing).is_err());
    }
}
