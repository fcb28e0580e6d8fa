//! Protocol configuration.
//!
//! Defaults follow HashiCorp memberlist's LAN profile, which is what the
//! paper's evaluation ran (Consul with default memberlist settings), with
//! the Lifeguard parameters from §IV of the paper: `BaseProbeInterval` 1 s,
//! `BaseProbeTimeout` 500 ms, suspicion `α = 5`, `β = 6`.
//!
//! Each Lifeguard component can be toggled independently, mirroring the
//! five configurations of Table I.
//!
//! # Fixed values
//!
//! The paper's evaluation varies only α, β (Table VII) and the Table I
//! components; §VII leaves the rest to future work. Those values are
//! constants, each in the module that applies it:
//!
//! | value | fixed at | source | held in |
//! |---|---|---|---|
//! | LHM saturation `S` | 8 | paper §IV-A | [`awareness::SATURATION`] |
//! | LHM delta, acked probe | −1 | paper §IV-A | [`awareness::PROBE_SUCCESS_DELTA`] |
//! | LHM delta, failed probe | +1 | paper §IV-A | [`awareness::PROBE_FAILED_DELTA`] |
//! | LHM delta, each missed nack | +1 | paper §IV-A | [`awareness::MISSED_NACK_DELTA`] |
//! | LHM delta, refute | +1 | paper §IV-A | [`awareness::REFUTE_DELTA`] |
//! | confirmations to reach `Min` (`K`) | 3 | paper §IV-B | [`suspicion::CONFIRMATIONS`] |
//! | retransmit multiplier λ | 4 | memberlist LAN | [`broadcast::RETRANSMIT_MULT`] |
//! | indirect probes per round (`k`) | 3 | memberlist LAN | `prober::INDIRECT_CHECKS` |
//! | nack deadline, share of probe timeout | 0.8 | paper §IV-A | `prober::NACK_FRACTION` |
//! | gossip to dead members for | 30 s | memberlist LAN | `node::GOSSIP_TO_THE_DEAD` |
//! | datagram byte budget | 1400 B | memberlist UDP buffer | [`DEFAULT_PACKET_BUDGET`] |
//! | delta-sync watermark horizon | 300 s | this crate | `sync::DELTA_SYNC_HORIZON` |
//! | warm delta-sync partners | 3 | this crate | `sync::DELTA_SYNC_PARTNERS` |
//!
//! [`awareness::SATURATION`]: crate::awareness::SATURATION
//! [`awareness::PROBE_SUCCESS_DELTA`]: crate::awareness::PROBE_SUCCESS_DELTA
//! [`awareness::PROBE_FAILED_DELTA`]: crate::awareness::PROBE_FAILED_DELTA
//! [`awareness::MISSED_NACK_DELTA`]: crate::awareness::MISSED_NACK_DELTA
//! [`awareness::REFUTE_DELTA`]: crate::awareness::REFUTE_DELTA
//! [`suspicion::CONFIRMATIONS`]: crate::suspicion::CONFIRMATIONS
//! [`broadcast::RETRANSMIT_MULT`]: crate::broadcast::RETRANSMIT_MULT
//! [`DEFAULT_PACKET_BUDGET`]: lifeguard_proto::DEFAULT_PACKET_BUDGET

use std::time::Duration;

/// A reason a [`Config`] is rejected by [`Config::validate`].
///
/// Every variant names the invariant it protects; [`SwimNode`] and the
/// runtime builders validate on construction instead of silently
/// accepting a configuration that cannot run the protocol.
///
/// [`SwimNode`]: crate::node::SwimNode
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ConfigError {
    /// `probe_interval` is zero: the failure detector would never run.
    ZeroProbeInterval,
    /// `probe_timeout` is zero: every direct probe would fail instantly.
    ZeroProbeTimeout,
    /// `probe_timeout` exceeds `probe_interval`: the round would end
    /// before its own timeout, so indirect probes could never fire on
    /// time (only the blocked-I/O deferral path tolerates inverted
    /// deadlines, and it is not a configuration).
    ProbeTimeoutExceedsInterval,
    /// `suspicion_alpha` is not a positive finite number.
    InvalidSuspicionAlpha,
    /// `suspicion_beta` is not a finite number of at least 1: below 1
    /// `Max` would undercut `Min`, and an infinite `Max` scales to zero,
    /// which would silently pin the timeout at `Min` (plain SWIM).
    InvalidSuspicionBeta,
    /// `gossip_interval` is zero: the gossip loop would spin.
    ZeroGossipInterval,
    /// `gossip_nodes` is zero: queued broadcasts would never leave the
    /// node through the dedicated gossip tick.
    EmptyGossipFanout,
    /// `push_pull_interval` is `Some(0)`: use `None` to disable
    /// anti-entropy instead of a zero period.
    ZeroPushPullInterval,
    /// `reconnect_interval` is `Some(0)`: use `None` to disable
    /// reconnects instead of a zero period.
    ZeroReconnectInterval,
    /// `dead_reclaim` is zero: dead members would be reaped before
    /// push-pull could disseminate their fate.
    ZeroDeadReclaim,
    /// `push_pull_interval` is longer than the fixed delta-sync horizon
    /// (`sync::DELTA_SYNC_HORIZON`, 300 s) while delta sync is enabled: a
    /// watermark would expire before the next periodic exchange could
    /// ever reuse it, so no delta would ever be sent.
    DeltaSyncHorizonBelowPushPullInterval,
    /// The local node's name is longer than `u16::MAX` bytes, more than
    /// a decoder accepts as a name's length. Not a [`Config`]
    /// field: [`SwimNode::try_new`](crate::node::SwimNode::try_new)
    /// checks it next to the configuration.
    NodeNameTooLong,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ConfigError::ZeroProbeInterval => "probe_interval must be positive",
            ConfigError::ZeroProbeTimeout => "probe_timeout must be positive",
            ConfigError::ProbeTimeoutExceedsInterval => {
                "probe_timeout must not exceed probe_interval"
            }
            ConfigError::InvalidSuspicionAlpha => "suspicion_alpha must be a positive number",
            ConfigError::InvalidSuspicionBeta => "suspicion_beta must be a finite number >= 1",
            ConfigError::ZeroGossipInterval => "gossip_interval must be positive",
            ConfigError::EmptyGossipFanout => "gossip_nodes must be at least 1",
            ConfigError::ZeroPushPullInterval => {
                "push_pull_interval must be positive (use None to disable)"
            }
            ConfigError::ZeroReconnectInterval => {
                "reconnect_interval must be positive (use None to disable)"
            }
            ConfigError::ZeroDeadReclaim => "dead_reclaim must be positive",
            ConfigError::DeltaSyncHorizonBelowPushPullInterval => {
                "push_pull_interval must not exceed the 300 s delta-sync horizon"
            }
            ConfigError::NodeNameTooLong => "node name must be at most 65535 bytes",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// Which Lifeguard components are enabled (Table I of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LifeguardConfig {
    /// Local Health Aware Probe: scale probe interval/timeout by the LHM
    /// counter and use `nack` feedback.
    pub lha_probe: bool,
    /// Local Health Aware Suspicion: dynamic suspicion timeouts with
    /// logarithmic decay and re-gossip of the first `K` independent
    /// suspicions.
    pub lha_suspicion: bool,
    /// Buddy System: guarantee a `ping` to a suspected member carries the
    /// `suspect` message about it.
    pub buddy_system: bool,
}

impl LifeguardConfig {
    /// Plain SWIM: everything disabled (the paper's `SWIM` baseline).
    pub fn swim() -> Self {
        LifeguardConfig::default()
    }

    /// Only LHA-Probe enabled (the paper's `LHA-Probe` configuration).
    pub fn lha_probe_only() -> Self {
        LifeguardConfig {
            lha_probe: true,
            ..Default::default()
        }
    }

    /// Only LHA-Suspicion enabled (the paper's `LHA-Suspicion`
    /// configuration).
    pub fn lha_suspicion_only() -> Self {
        LifeguardConfig {
            lha_suspicion: true,
            ..Default::default()
        }
    }

    /// Only the Buddy System enabled (the paper's `Buddy System`
    /// configuration).
    pub fn buddy_system_only() -> Self {
        LifeguardConfig {
            buddy_system: true,
            ..Default::default()
        }
    }

    /// All three components enabled (the paper's `Lifeguard`
    /// configuration).
    pub fn full() -> Self {
        LifeguardConfig {
            lha_probe: true,
            lha_suspicion: true,
            buddy_system: true,
        }
    }

    /// Short label used in reports, matching the paper's Table I names.
    pub fn label(&self) -> &'static str {
        match (self.lha_probe, self.lha_suspicion, self.buddy_system) {
            (false, false, false) => "SWIM",
            (true, false, false) => "LHA-Probe",
            (false, true, false) => "LHA-Suspicion",
            (false, false, true) => "Buddy System",
            (true, true, true) => "Lifeguard",
            _ => "Custom",
        }
    }
}

/// Full protocol configuration.
///
/// Construct with [`Config::lan`] and adjust via the builder-style
/// methods:
///
/// ```
/// use lifeguard_core::config::Config;
///
/// let cfg = Config::lan().lifeguard().with_alpha(4.0).with_beta(2.0);
/// assert_eq!(cfg.lifeguard.label(), "Lifeguard");
/// assert_eq!(cfg.suspicion_alpha, 4.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Config {
    /// Base period between failure-detector probe rounds
    /// (`BaseProbeInterval`, 1 s). Scaled by `LHM + 1` when LHA-Probe is
    /// enabled.
    pub probe_interval: Duration,
    /// Base timeout for a direct probe before falling back to indirect
    /// probes (`BaseProbeTimeout`, 500 ms). Scaled by `LHM + 1` when
    /// LHA-Probe is enabled.
    pub probe_timeout: Duration,
    /// Suspicion timeout multiplier α:
    /// `Min = α·max(1, log10(n))·probe_interval`.
    pub suspicion_alpha: f64,
    /// Suspicion maximum timeout multiplier β: `Max = β·Min`. Only
    /// effective when LHA-Suspicion is enabled; plain SWIM behaves as
    /// `β = 1` (fixed timeout).
    pub suspicion_beta: f64,
    /// Period of the dedicated gossip tick (memberlist: 200 ms).
    pub gossip_interval: Duration,
    /// Fan-out of the dedicated gossip tick (memberlist: 3).
    pub gossip_nodes: usize,
    /// Period of anti-entropy push-pull sync (memberlist LAN: 30 s);
    /// `None` disables it.
    pub push_pull_interval: Option<Duration>,
    /// Whether periodic anti-entropy uses incremental (delta) push-pull:
    /// each exchange carries only the members whose record changed since
    /// the watermark the peer last confirmed, falling back to a full
    /// [`PushPull`](lifeguard_proto::PushPull) whenever a watermark
    /// cannot be trusted. Joins and reconnects carry one record and are
    /// answered with the full table either way.
    pub delta_sync: bool,
    /// Period of reconnect attempts to members believed dead (Serf-style
    /// `reconnect_interval`, 30 s): one random dead member is sent a
    /// push-pull request carrying only its own record, `Dead` at the
    /// incarnation held here. A live target refutes it and answers with
    /// its full table, so fully partitioned sub-groups re-merge
    /// automatically once connectivity returns; a crashed one cost one
    /// record. `None` disables reconnects.
    pub reconnect_interval: Option<Duration>,
    /// How long dead/left members are retained in the table (so that
    /// push-pull can share them) before being reaped.
    pub dead_reclaim: Duration,
    /// Whether to attempt a stream-transport ("TCP") direct probe in
    /// parallel with indirect probes, like memberlist.
    pub stream_fallback_probe: bool,
    /// Which Lifeguard components are enabled.
    pub lifeguard: LifeguardConfig,
}

impl Config {
    /// memberlist LAN profile with Lifeguard disabled (paper baseline).
    pub fn lan() -> Self {
        Config {
            probe_interval: Duration::from_secs(1),
            probe_timeout: Duration::from_millis(500),
            suspicion_alpha: 5.0,
            suspicion_beta: 6.0,
            gossip_interval: Duration::from_millis(200),
            gossip_nodes: 3,
            push_pull_interval: Some(Duration::from_secs(30)),
            delta_sync: true,
            reconnect_interval: Some(Duration::from_secs(30)),
            dead_reclaim: Duration::from_secs(300),
            stream_fallback_probe: true,
            lifeguard: LifeguardConfig::swim(),
        }
    }

    /// Enables all Lifeguard components.
    pub fn lifeguard(mut self) -> Self {
        self.lifeguard = LifeguardConfig::full();
        self
    }

    /// Disables all Lifeguard components (plain SWIM).
    pub fn swim(mut self) -> Self {
        self.lifeguard = LifeguardConfig::swim();
        self
    }

    /// Sets the enabled Lifeguard components.
    pub fn with_components(mut self, components: LifeguardConfig) -> Self {
        self.lifeguard = components;
        self
    }

    /// Sets the suspicion timeout multiplier α.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.suspicion_alpha = alpha;
        self
    }

    /// Sets the suspicion maximum timeout multiplier β.
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.suspicion_beta = beta;
        self
    }

    /// Sets the probe interval and timeout together, preserving their
    /// ratio semantics.
    pub fn with_probe_timing(mut self, interval: Duration, timeout: Duration) -> Self {
        self.probe_interval = interval;
        self.probe_timeout = timeout;
        self
    }

    /// Effective β: plain SWIM has a fixed suspicion timeout, equivalent
    /// to `β = 1` (paper §V-C).
    pub fn effective_beta(&self) -> f64 {
        if self.lifeguard.lha_suspicion {
            self.suspicion_beta.max(1.0)
        } else {
            1.0
        }
    }

    /// Effective `K`: without LHA-Suspicion no confirmations are needed
    /// (the timeout is already at `Min`).
    pub fn effective_k(&self) -> u32 {
        if self.lifeguard.lha_suspicion {
            crate::suspicion::CONFIRMATIONS
        } else {
            0
        }
    }

    /// Effective LHM saturation: without LHA-Probe the multiplier is
    /// pinned to zero (no scaling).
    pub fn effective_awareness_max(&self) -> u32 {
        if self.lifeguard.lha_probe {
            crate::awareness::SATURATION
        } else {
            0
        }
    }

    /// Whether `nack` responses are requested for indirect probes.
    pub fn nack_enabled(&self) -> bool {
        self.lifeguard.lha_probe
    }

    /// Suspicion timeout lower bound for a group of `n` live members:
    /// `Min = α·max(1, log10(n))·probe_interval` (paper §V-C, memberlist).
    pub fn suspicion_min(&self, n: usize) -> Duration {
        let log = (n.max(1) as f64).log10().max(1.0);
        crate::time::scale_duration(self.probe_interval, self.suspicion_alpha * log)
    }

    /// Suspicion timeout upper bound: `Max = β·Min`.
    pub fn suspicion_max(&self, n: usize) -> Duration {
        crate::time::scale_duration(self.suspicion_min(n), self.effective_beta())
    }

    /// Validates invariants, returning the first violation as a typed
    /// [`ConfigError`].
    ///
    /// Called by [`SwimNode::new`](crate::node::SwimNode::new) and the
    /// runtime builders, so a nonsense configuration (zero probe
    /// interval, inverted timeouts, empty gossip fan-out, …) is rejected
    /// at construction rather than silently accepted.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] describing the first field that is
    /// out of its documented range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.probe_interval.is_zero() {
            return Err(ConfigError::ZeroProbeInterval);
        }
        if self.probe_timeout.is_zero() {
            return Err(ConfigError::ZeroProbeTimeout);
        }
        if self.probe_timeout > self.probe_interval {
            return Err(ConfigError::ProbeTimeoutExceedsInterval);
        }
        if !(self.suspicion_alpha.is_finite() && self.suspicion_alpha > 0.0) {
            return Err(ConfigError::InvalidSuspicionAlpha);
        }
        if !(self.suspicion_beta.is_finite() && self.suspicion_beta >= 1.0) {
            return Err(ConfigError::InvalidSuspicionBeta);
        }
        if self.gossip_interval.is_zero() {
            return Err(ConfigError::ZeroGossipInterval);
        }
        if self.gossip_nodes == 0 {
            return Err(ConfigError::EmptyGossipFanout);
        }
        if self.push_pull_interval.is_some_and(|d| d.is_zero()) {
            return Err(ConfigError::ZeroPushPullInterval);
        }
        if self.reconnect_interval.is_some_and(|d| d.is_zero()) {
            return Err(ConfigError::ZeroReconnectInterval);
        }
        if self.dead_reclaim.is_zero() {
            return Err(ConfigError::ZeroDeadReclaim);
        }
        if self.delta_sync
            && self
                .push_pull_interval
                .is_some_and(|pp| crate::sync::DELTA_SYNC_HORIZON < pp)
        {
            return Err(ConfigError::DeltaSyncHorizonBelowPushPullInterval);
        }
        Ok(())
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_labels() {
        assert_eq!(LifeguardConfig::swim().label(), "SWIM");
        assert_eq!(LifeguardConfig::lha_probe_only().label(), "LHA-Probe");
        assert_eq!(
            LifeguardConfig::lha_suspicion_only().label(),
            "LHA-Suspicion"
        );
        assert_eq!(LifeguardConfig::buddy_system_only().label(), "Buddy System");
        assert_eq!(LifeguardConfig::full().label(), "Lifeguard");
        assert_eq!(
            LifeguardConfig {
                lha_probe: true,
                lha_suspicion: true,
                buddy_system: false
            }
            .label(),
            "Custom"
        );
    }

    #[test]
    fn swim_baseline_is_equivalent_to_alpha5_beta1() {
        let cfg = Config::lan();
        assert_eq!(cfg.effective_beta(), 1.0);
        assert_eq!(cfg.effective_k(), 0);
        assert_eq!(cfg.effective_awareness_max(), 0);
        assert!(!cfg.nack_enabled());
        // Fixed timeout: min == max.
        assert_eq!(cfg.suspicion_min(128), cfg.suspicion_max(128));
    }

    #[test]
    fn lifeguard_enables_dynamic_timeouts() {
        let cfg = Config::lan().lifeguard();
        assert_eq!(cfg.effective_beta(), 6.0);
        assert_eq!(cfg.effective_k(), 3);
        assert_eq!(cfg.effective_awareness_max(), 8);
        assert!(cfg.nack_enabled());
        assert_eq!(
            cfg.suspicion_max(128).as_micros(),
            cfg.suspicion_min(128).as_micros() * 6
        );
    }

    #[test]
    fn suspicion_min_formula_matches_paper() {
        // α=5, n=128 → 5·log10(128)·1s ≈ 10.535s
        let cfg = Config::lan();
        let min = cfg.suspicion_min(128);
        let expected = 5.0 * (128f64).log10();
        assert!((min.as_secs_f64() - expected).abs() < 1e-3);
        // Small groups clamp log10 to 1.
        assert_eq!(cfg.suspicion_min(5), Duration::from_secs(5));
    }

    #[test]
    fn validate_rejects_bad_configs_with_typed_errors() {
        assert_eq!(Config::lan().validate(), Ok(()));
        assert_eq!(Config::lan().lifeguard().validate(), Ok(()));

        let check = |mutate: fn(&mut Config), expected: ConfigError| {
            let mut c = Config::lan();
            mutate(&mut c);
            assert_eq!(c.validate(), Err(expected));
        };
        check(
            |c| c.probe_interval = Duration::ZERO,
            ConfigError::ZeroProbeInterval,
        );
        check(
            |c| c.probe_timeout = Duration::ZERO,
            ConfigError::ZeroProbeTimeout,
        );
        check(
            |c| c.probe_timeout = Duration::from_secs(5),
            ConfigError::ProbeTimeoutExceedsInterval,
        );
        check(
            |c| c.suspicion_alpha = 0.0,
            ConfigError::InvalidSuspicionAlpha,
        );
        check(
            |c| c.suspicion_alpha = f64::INFINITY,
            ConfigError::InvalidSuspicionAlpha,
        );
        check(
            |c| c.suspicion_beta = 0.5,
            ConfigError::InvalidSuspicionBeta,
        );
        check(
            |c| c.suspicion_beta = f64::NAN,
            ConfigError::InvalidSuspicionBeta,
        );
        check(
            |c| c.suspicion_beta = f64::INFINITY,
            ConfigError::InvalidSuspicionBeta,
        );
        check(
            |c| c.gossip_interval = Duration::ZERO,
            ConfigError::ZeroGossipInterval,
        );
        check(|c| c.gossip_nodes = 0, ConfigError::EmptyGossipFanout);
        check(
            |c| c.push_pull_interval = Some(Duration::ZERO),
            ConfigError::ZeroPushPullInterval,
        );
        check(
            |c| c.reconnect_interval = Some(Duration::ZERO),
            ConfigError::ZeroReconnectInterval,
        );
        check(
            |c| c.dead_reclaim = Duration::ZERO,
            ConfigError::ZeroDeadReclaim,
        );
        check(
            |c| c.push_pull_interval = Some(Duration::from_secs(301)),
            ConfigError::DeltaSyncHorizonBelowPushPullInterval,
        );
        // The horizon only constrains push-pull while delta sync is on.
        let mut off = Config::lan();
        off.delta_sync = false;
        off.push_pull_interval = Some(Duration::from_secs(301));
        assert_eq!(off.validate(), Ok(()));
        // Errors render a human-readable reason.
        assert!(ConfigError::EmptyGossipFanout
            .to_string()
            .contains("gossip_nodes"));
        assert!(ConfigError::DeltaSyncHorizonBelowPushPullInterval
            .to_string()
            .contains("push_pull_interval"));
    }

    #[test]
    fn builder_methods_chain() {
        let cfg = Config::lan()
            .lifeguard()
            .with_alpha(2.0)
            .with_beta(4.0)
            .with_probe_timing(Duration::from_millis(500), Duration::from_millis(250));
        assert_eq!(cfg.suspicion_alpha, 2.0);
        assert_eq!(cfg.suspicion_beta, 4.0);
        assert_eq!(cfg.probe_interval, Duration::from_millis(500));
        assert!(cfg.validate().is_ok());
    }
}
