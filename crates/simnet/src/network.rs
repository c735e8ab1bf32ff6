//! The discrete-time, round-based message-passing engine.

use crate::agent::{Agent, Context, Message};
use crate::faults::mix64;
use crate::stats::{NetStats, RoundStats};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The SplitMix64 (golden-ratio) increment that spaces agent seed streams.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic round-based network of agents.
///
/// Execution model: in round `t`, every agent runs once (in id order —
/// determinism matters more than simulated concurrency here, and agents
/// only interact through messages, which are not delivered until round
/// `t+1`, so the in-round order is unobservable to the agents themselves).
///
/// ```
/// use simnet::{Network, Context};
/// use bytes::Bytes;
///
/// // A ring: each agent forwards a token to its right neighbor.
/// let mut net = Network::new(4, 42);
/// for i in 0..4 {
///     net.add_agent(move |ctx: &mut Context<'_>| {
///         let next = (ctx.id() + 1) % ctx.n_agents();
///         if ctx.round() == 0 && ctx.id() == 0 {
///             ctx.send(next, Bytes::from_static(b"token"));
///         }
///         if !ctx.inbox().is_empty() {
///             ctx.send(next, ctx.inbox()[0].payload.clone());
///         }
///         let _ = i;
///     });
/// }
/// let stats = net.run(8);
/// assert_eq!(stats.rounds, 8);
/// assert!(stats.messages >= 8);
/// ```
pub struct Network {
    agents: Vec<Box<dyn Agent>>,
    expected_agents: usize,
    mailboxes: Vec<Vec<Message>>,
    next_mailboxes: Vec<Vec<Message>>,
    rngs: Vec<SmallRng>,
    stats: NetStats,
    history: Vec<RoundStats>,
    round: usize,
    halted: bool,
}

impl Network {
    /// Create a network expecting `n` agents, with deterministic per-agent
    /// RNG streams derived from `seed`: agent `i` is seeded with the
    /// SplitMix64 output at `seed + i·γ` (γ the golden-ratio increment).
    pub fn new(n: usize, seed: u64) -> Self {
        Self {
            agents: Vec::with_capacity(n),
            expected_agents: n,
            mailboxes: (0..n).map(|_| Vec::new()).collect(),
            next_mailboxes: (0..n).map(|_| Vec::new()).collect(),
            rngs: (0..n as u64)
                .map(|i| SmallRng::seed_from_u64(mix64(seed.wrapping_add(i.wrapping_mul(GAMMA)))))
                .collect(),
            stats: NetStats::default(),
            history: Vec::new(),
            round: 0,
            halted: false,
        }
    }

    /// Register the next agent. Agents receive ids in registration order.
    ///
    /// # Panics
    /// Panics if more than the declared `n` agents are added.
    pub fn add_agent<A: Agent + 'static>(&mut self, agent: A) {
        assert!(
            self.agents.len() < self.expected_agents,
            "network already has {} agents",
            self.expected_agents
        );
        self.agents.push(Box::new(agent));
    }

    /// Number of registered agents.
    pub fn n_agents(&self) -> usize {
        self.agents.len()
    }

    /// Run one round; returns its statistics. Every message sent in the
    /// round lands, in send order, in its recipient's inbox for the next
    /// round.
    ///
    /// # Panics
    /// Panics if fewer agents are registered than declared.
    pub fn step(&mut self) -> RoundStats {
        assert_eq!(
            self.agents.len(),
            self.expected_agents,
            "register all agents before running"
        );
        let n = self.agents.len();
        let round = self.round;
        let mut outbox: Vec<Message> = Vec::new();
        for id in 0..n {
            let mut halted = self.halted;
            let mut ctx = Context {
                id,
                round,
                n_agents: n,
                inbox: &self.mailboxes[id],
                outbox: &mut outbox,
                rng: &mut self.rngs[id],
                halted: &mut halted,
            };
            self.agents[id].step(&mut ctx);
            self.halted = halted;
        }

        let mut rs = RoundStats {
            round,
            ..RoundStats::default()
        };
        let mut in_degree = vec![0usize; n];
        let mut out_degree = vec![0usize; n];
        for m in outbox {
            rs.messages += 1;
            rs.bytes += m.payload.len() as u64;
            in_degree[m.to] += 1;
            out_degree[m.from] += 1;
            self.next_mailboxes[m.to].push(m);
        }
        rs.max_in_degree = in_degree.into_iter().max().unwrap_or(0);
        rs.max_out_degree = out_degree.into_iter().max().unwrap_or(0);

        for (mb, next) in self
            .mailboxes
            .iter_mut()
            .zip(self.next_mailboxes.iter_mut())
        {
            mb.clear();
            std::mem::swap(mb, next);
        }
        self.stats.absorb(&rs);
        self.history.push(rs);
        self.round += 1;
        rs
    }

    /// Run up to `rounds` rounds (stopping early on halt); returns the
    /// cumulative statistics.
    pub fn run(&mut self, rounds: usize) -> NetStats {
        for _ in 0..rounds {
            if self.halted {
                break;
            }
            self.step();
        }
        self.stats
    }

    /// Cumulative statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Per-round statistics history.
    pub fn history(&self) -> &[RoundStats] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn messages_delivered_next_round() {
        let mut net = Network::new(2, 0);
        net.add_agent(|ctx: &mut Context<'_>| {
            if ctx.round() == 0 {
                ctx.send(1, Bytes::from_static(b"ping"));
            }
        });
        net.add_agent(|ctx: &mut Context<'_>| {
            if ctx.round() == 0 {
                assert!(ctx.inbox().is_empty(), "delivery must lag one round");
            }
            if ctx.round() == 1 {
                assert_eq!(ctx.inbox().len(), 1);
                assert_eq!(&ctx.inbox()[0].payload[..], b"ping");
            }
        });
        net.run(2);
    }

    #[test]
    fn congestion_of_star_pattern_is_n_minus_one() {
        // Everyone messages agent 0 — a gather, congestion n−1.
        let n = 10;
        let mut net = Network::new(n, 1);
        for _ in 0..n {
            net.add_agent(|ctx: &mut Context<'_>| {
                if ctx.id() != 0 {
                    ctx.send(0, Bytes::new());
                }
            });
        }
        let rs = net.step();
        assert_eq!(rs.max_in_degree, n - 1);
        assert_eq!(rs.messages, (n - 1) as u64);
    }

    #[test]
    fn halt_stops_the_run() {
        let mut net = Network::new(1, 0);
        net.add_agent(|ctx: &mut Context<'_>| {
            if ctx.round() == 2 {
                ctx.halt();
            }
        });
        let stats = net.run(100);
        assert_eq!(stats.rounds, 3);
        assert!(net.halted);
    }

    #[test]
    fn deterministic_across_constructions() {
        fn run_once() -> (u64, usize) {
            let mut net = Network::new(8, 99);
            for _ in 0..8 {
                net.add_agent(|ctx: &mut Context<'_>| {
                    use rand::Rng;
                    let n = ctx.n_agents();
                    let me = ctx.id();
                    let mut to = ctx.rng().gen_range(0..n - 1);
                    if to >= me {
                        to += 1;
                    }
                    ctx.send(to, Bytes::new());
                });
            }
            let s = net.run(20);
            (s.messages, s.peak_congestion)
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic]
    fn running_underpopulated_network_panics() {
        let mut net = Network::new(3, 0);
        net.add_agent(|_: &mut Context<'_>| {});
        net.step();
    }

    #[test]
    fn history_matches_rounds() {
        let mut net = Network::new(2, 0);
        net.add_agent(|_: &mut Context<'_>| {});
        net.add_agent(|_: &mut Context<'_>| {});
        net.run(5);
        assert_eq!(net.history().len(), 5);
        assert_eq!(net.history()[3].round, 3);
    }
}
