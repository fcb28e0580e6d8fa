//! The simulated network.
//!
//! Models the loopback interface the paper's experiments ran over:
//! sub-millisecond latency with light jitter, optional datagram loss, and
//! optional pairwise partitions (used by partition-healing tests, not by
//! the paper's experiments).

use std::collections::HashSet;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Latency and loss parameters for the simulated network.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkConfig {
    /// Minimum one-way datagram latency.
    pub datagram_latency: Duration,
    /// Additional uniform jitter on datagram latency.
    pub datagram_jitter: Duration,
    /// Probability in `[0, 1]` that a datagram is silently dropped.
    pub datagram_loss: f64,
    /// Minimum one-way latency per stream message (connection setup is
    /// folded into this, so it is higher than the datagram latency).
    pub stream_latency: Duration,
    /// Additional uniform jitter on stream latency.
    pub stream_jitter: Duration,
}

impl NetworkConfig {
    /// Loopback profile: ~0.1–0.4 ms datagrams, no loss — the environment
    /// of the paper's experiments (128 agents in one VM).
    pub fn loopback() -> Self {
        NetworkConfig {
            datagram_latency: Duration::from_micros(100),
            datagram_jitter: Duration::from_micros(300),
            datagram_loss: 0.0,
            stream_latency: Duration::from_micros(500),
            stream_jitter: Duration::from_micros(500),
        }
    }

    /// A lossy LAN profile for failure-injection tests.
    pub fn lossy_lan(loss: f64) -> Self {
        NetworkConfig {
            datagram_latency: Duration::from_micros(500),
            datagram_jitter: Duration::from_millis(1),
            datagram_loss: loss,
            stream_latency: Duration::from_millis(2),
            stream_jitter: Duration::from_millis(2),
        }
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::loopback()
    }
}

/// The fate of a datagram offered to the network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Delivery {
    /// Deliver after the given one-way delay.
    Deliver(Duration),
    /// Silently dropped (loss or partition).
    Dropped,
}

/// Simulated network state: latency sampling, loss and partitions.
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    rng: StdRng,
    /// Unordered pairs of partitioned node indices.
    partitions: HashSet<(usize, usize)>,
}

impl Network {
    /// Creates a network with its own deterministic RNG stream.
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        Network {
            config,
            rng: StdRng::seed_from_u64(seed),
            partitions: HashSet::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Severs (or restores) connectivity between two nodes in both
    /// directions.
    pub fn set_partitioned(&mut self, a: usize, b: usize, partitioned: bool) {
        let key = (a.min(b), a.max(b));
        if partitioned {
            self.partitions.insert(key);
        } else {
            self.partitions.remove(&key);
        }
    }

    /// Whether two nodes are currently partitioned.
    pub fn is_partitioned(&self, a: usize, b: usize) -> bool {
        self.partitions.contains(&(a.min(b), a.max(b)))
    }

    /// Removes all partitions.
    pub fn heal_all(&mut self) {
        self.partitions.clear();
    }

    /// Decides the fate of one datagram from `from` to `to`.
    pub fn datagram(&mut self, from: usize, to: usize) -> Delivery {
        if self.is_partitioned(from, to) {
            return Delivery::Dropped;
        }
        if self.config.datagram_loss > 0.0 && self.rng.random::<f64>() < self.config.datagram_loss {
            return Delivery::Dropped;
        }
        Delivery::Deliver(self.sample(self.config.datagram_latency, self.config.datagram_jitter))
    }

    /// Decides the fate of one stream message from `from` to `to`.
    /// Streams are reliable: they are only lost to partitions.
    pub fn stream(&mut self, from: usize, to: usize) -> Delivery {
        if self.is_partitioned(from, to) {
            return Delivery::Dropped;
        }
        Delivery::Deliver(self.sample(self.config.stream_latency, self.config.stream_jitter))
    }

    fn sample(&mut self, base: Duration, jitter: Duration) -> Duration {
        if jitter.is_zero() {
            return base;
        }
        let j = self.rng.random_range(0..=jitter.as_micros() as u64);
        base + Duration::from_micros(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_delivers_within_latency_bounds() {
        let mut net = Network::new(NetworkConfig::loopback(), 1);
        for _ in 0..1000 {
            match net.datagram(0, 1) {
                Delivery::Deliver(d) => {
                    assert!(d >= Duration::from_micros(100));
                    assert!(d <= Duration::from_micros(400));
                }
                Delivery::Dropped => panic!("loopback must not drop"),
            }
        }
    }

    #[test]
    fn loss_rate_is_respected_statistically() {
        let mut net = Network::new(NetworkConfig::lossy_lan(0.3), 7);
        let mut dropped = 0;
        let trials = 10_000;
        for _ in 0..trials {
            if net.datagram(0, 1) == Delivery::Dropped {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed loss rate {rate}");
    }

    #[test]
    fn partitions_drop_both_directions_and_heal() {
        let mut net = Network::new(NetworkConfig::loopback(), 3);
        net.set_partitioned(2, 5, true);
        assert!(net.is_partitioned(5, 2));
        assert_eq!(net.datagram(2, 5), Delivery::Dropped);
        assert_eq!(net.datagram(5, 2), Delivery::Dropped);
        assert_eq!(net.stream(5, 2), Delivery::Dropped);
        assert!(!matches!(net.datagram(2, 3), Delivery::Dropped));

        net.heal_all();
        assert!(!net.is_partitioned(2, 5));
        assert!(!matches!(net.datagram(2, 5), Delivery::Dropped));
    }

    #[test]
    fn streams_are_reliable_under_loss() {
        let mut net = Network::new(NetworkConfig::lossy_lan(0.9), 9);
        for _ in 0..100 {
            assert!(matches!(net.stream(0, 1), Delivery::Deliver(_)));
        }
    }

    #[test]
    fn same_seed_same_delays() {
        let mut a = Network::new(NetworkConfig::loopback(), 42);
        let mut b = Network::new(NetworkConfig::loopback(), 42);
        for _ in 0..100 {
            assert_eq!(a.datagram(0, 1), b.datagram(0, 1));
        }
    }
}
