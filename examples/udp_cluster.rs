//! Run a real Lifeguard cluster over localhost UDP/TCP sockets.
//!
//! Five agents join through a seed, converge, then one leaves
//! gracefully and one is killed; the remaining agents report what they
//! observed.
//!
//! ```text
//! cargo run --example udp_cluster
//! ```

use std::time::{Duration, Instant};

use lifeguard::core::config::Config;
use lifeguard::core::event::Event;
use lifeguard::net::agent::{Agent, AgentConfig};

/// Speed the protocol up so the demo finishes in ~20 s.
fn fast() -> Config {
    let mut cfg = Config::lan()
        .lifeguard()
        .with_probe_timing(Duration::from_millis(250), Duration::from_millis(120));
    cfg.gossip_interval = Duration::from_millis(60);
    cfg.suspicion_alpha = 3.0;
    cfg.suspicion_beta = 2.0;
    cfg.push_pull_interval = Some(Duration::from_secs(3));
    cfg
}

fn wait_until(deadline: Duration, mut check: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

fn main() -> std::io::Result<()> {
    let names = ["alpha", "bravo", "charlie", "delta", "echo"];
    let mut agents = Vec::new();
    for (i, name) in names.iter().enumerate() {
        agents.push(Agent::start(
            AgentConfig::local(*name).protocol(fast()).seed(i as u64),
        )?);
    }
    let seed_addr = agents[0].addr();
    println!("seed agent {} listening on {}", names[0], seed_addr);
    for agent in &agents[1..] {
        agent.join(&[seed_addr]);
    }

    if !wait_until(Duration::from_secs(15), || {
        agents.iter().all(|a| a.num_alive() == names.len())
    }) {
        eprintln!("cluster failed to converge");
        std::process::exit(1);
    }
    println!("all {} agents see {} alive members\n", names.len(), names.len());

    println!("echo leaves gracefully...");
    let echo = agents.pop().expect("echo exists");
    echo.leave();
    std::thread::sleep(Duration::from_millis(500));
    echo.shutdown();

    println!("delta is killed (no leave)...");
    let delta = agents.pop().expect("delta exists");
    delta.shutdown();

    let observer = &agents[0];
    let ok = wait_until(Duration::from_secs(25), || {
        let mut saw_leave = false;
        let mut saw_fail = false;
        for m in observer.members() {
            match m.name.as_str() {
                "echo" => saw_leave = m.state == lifeguard::proto::MemberState::Left,
                "delta" => saw_fail = m.state == lifeguard::proto::MemberState::Dead,
                _ => {}
            }
        }
        saw_leave && saw_fail
    });
    println!();
    for e in observer.events().try_iter() {
        match e.event {
            Event::MemberJoined { name } => println!("  [{}] {name} joined", e.at),
            Event::MemberSuspected { name, from } => {
                println!("  [{}] {name} suspected (by {from})", e.at)
            }
            Event::MemberFailed { name, .. } => println!("  [{}] {name} FAILED", e.at),
            Event::MemberLeft { name } => println!("  [{}] {name} left gracefully", e.at),
            Event::MemberRecovered { name } => println!("  [{}] {name} recovered", e.at),
            Event::SelfRefuted { incarnation } => {
                println!("  [{}] refuted a suspicion about ourselves (inc {incarnation})", e.at)
            }
        }
    }
    if ok {
        println!("\nalpha correctly distinguished the graceful leave from the crash");
    } else {
        println!("\n(observer had not fully converged before the deadline)");
    }
    for a in agents {
        a.shutdown();
    }
    Ok(())
}
