//! Convenience for spinning up N agents on localhost (tests, demos).

use std::io;
use std::time::{Duration, Instant};

use lifeguard_core::config::Config;

use crate::agent::{Agent, AgentConfig};

/// A set of localhost agents joined into one group, owned together.
///
/// ```no_run
/// use lifeguard_net::local_cluster::LocalCluster;
/// use lifeguard_core::config::Config;
///
/// # fn main() -> std::io::Result<()> {
/// let cluster = LocalCluster::start(3, Config::lan().lifeguard(), 7)?;
/// cluster.wait_converged(std::time::Duration::from_secs(10));
/// cluster.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct LocalCluster {
    agents: Vec<Agent>,
}

impl LocalCluster {
    /// Starts `n` agents named `node-0 … node-{n-1}` on OS-assigned
    /// localhost ports; agents 1… join through `node-0`.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] for `n == 0`, and if
    /// any agent cannot bind its sockets.
    pub fn start(n: usize, protocol: Config, seed: u64) -> io::Result<LocalCluster> {
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cluster needs at least one agent",
            ));
        }
        let mut agents = Vec::with_capacity(n);
        for i in 0..n {
            agents.push(Agent::start(
                AgentConfig::local(format!("node-{i}"))
                    .protocol(protocol.clone())
                    .seed(seed.wrapping_add(i as u64)),
            )?);
        }
        if let Some((seed, rest)) = agents.split_first() {
            let seed_addr = seed.addr();
            for agent in rest {
                agent.join(&[seed_addr]);
            }
        }
        Ok(LocalCluster { agents })
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.agents.len()
    }

    /// Whether the cluster is empty (never true after `start`).
    pub fn is_empty(&self) -> bool {
        self.agents.is_empty()
    }

    /// Access to one agent; `None` past the end.
    pub fn agent(&self, i: usize) -> Option<&Agent> {
        self.agents.get(i)
    }

    /// Blocks until every agent sees every other alive, or the deadline
    /// passes. Returns whether convergence was reached.
    pub fn wait_converged(&self, deadline: Duration) -> bool {
        let n = self.agents.len();
        let start = Instant::now();
        while start.elapsed() < deadline {
            if self.agents.iter().all(|a| a.num_alive() == n) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        false
    }

    /// Removes one agent from the cluster *without* a leave (peers see a
    /// failure). Panics if `i` is out of range.
    pub fn kill(&mut self, i: usize) -> String {
        let agent = self.agents.remove(i);
        let name = agent.name().as_str().to_owned();
        agent.shutdown();
        name
    }

    /// Shuts every agent down (abruptly; call
    /// [`Agent::leave`] on individuals first for graceful exits).
    pub fn shutdown(self) {
        for agent in self.agents {
            agent.shutdown();
        }
    }
}

impl std::fmt::Debug for LocalCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalCluster")
            .field("agents", &self.agents.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifeguard_core::event::Event;

    fn fast() -> Config {
        let mut cfg = Config::lan()
            .lifeguard()
            .with_probe_timing(Duration::from_millis(200), Duration::from_millis(100));
        cfg.gossip_interval = Duration::from_millis(50);
        cfg.suspicion_alpha = 3.0;
        cfg.suspicion_beta = 2.0;
        cfg
    }

    #[test]
    fn an_empty_cluster_is_invalid_input() {
        let started = LocalCluster::start(0, fast(), 1);
        assert_eq!(
            started.err().map(|e| e.kind()),
            Some(io::ErrorKind::InvalidInput)
        );
    }

    #[test]
    fn local_cluster_converges_and_detects_kill() {
        let mut cluster = LocalCluster::start(4, fast(), 99).expect("bind");
        assert_eq!(cluster.len(), 4);
        assert!(
            cluster.wait_converged(Duration::from_secs(15)),
            "no convergence"
        );
        let victim = cluster.kill(3);
        assert_eq!(victim, "node-3");
        let observer = cluster.agent(0).unwrap();
        let start = Instant::now();
        let mut detected = false;
        while start.elapsed() < Duration::from_secs(20) && !detected {
            detected = observer.events().try_iter().any(|e| {
                matches!(&e.event, Event::MemberFailed { name, .. } if name.as_str() == victim)
            });
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(detected, "kill of {victim} not detected");
        cluster.shutdown();
    }
}
