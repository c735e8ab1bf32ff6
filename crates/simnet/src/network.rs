//! The discrete-time, round-based message-passing engine.

use crate::agent::{Agent, Context, Message};
use crate::faults::{FaultPlan, FaultRoundStats, MessageFate, RetryPolicy};
use crate::stats::{NetStats, RoundStats};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A message whose delivery is deferred: a delayed original, or a scheduled
/// retransmission of a dropped one.
struct PendingDelivery {
    /// Deliver (into next-round mailboxes) at the end of this round.
    due: usize,
    msg: Message,
    /// Fate key of the *original* send (round, nonce) — retransmissions
    /// re-draw their fate under the same key with a bumped attempt.
    key_round: usize,
    nonce: u64,
    attempt: u32,
    /// True while the entry still needs a fate draw (retransmission);
    /// false once a fate has already been decided (plain delayed delivery).
    is_retry: bool,
}

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
    faults: Option<FaultPlan>,
    retry: Option<RetryPolicy>,
    pending: Vec<PendingDelivery>,
}

impl Network {
    /// Create a network expecting `n` agents, with deterministic per-agent
    /// RNG streams derived from `seed`.
    pub fn new(n: usize, seed: u64) -> Self {
        Self {
            agents: Vec::with_capacity(n),
            expected_agents: n,
            mailboxes: (0..n).map(|_| Vec::new()).collect(),
            next_mailboxes: (0..n).map(|_| Vec::new()).collect(),
            rngs: (0..n as u64)
                .map(|i| SmallRng::seed_from_u64(mwu_seed(seed, i)))
                .collect(),
            stats: NetStats::default(),
            history: Vec::new(),
            round: 0,
            halted: false,
            faults: None,
            retry: None,
            pending: Vec::new(),
        }
    }

    /// Install a fault plan. Subsequent rounds are subject to its drop /
    /// delay / duplicate / reorder / crash decisions; per-round counts
    /// appear in [`RoundStats::faults`]. A quiescent plan is equivalent to
    /// none.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = if plan.config().is_quiescent() {
            None
        } else {
            Some(plan)
        };
    }

    /// Enable retransmission of dropped messages under `policy` (seeded
    /// exponential backoff; see [`RetryPolicy`]). Only meaningful together
    /// with [`Network::set_faults`].
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
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

    /// Run one round; returns its statistics.
    ///
    /// With a fault plan installed (see [`Network::set_faults`]) the
    /// delivery path consults it per message: drops vanish (or are
    /// retransmitted under the retry policy), delays defer delivery,
    /// duplicates inject an extra copy, reorder reverses mailbox order, and
    /// crashed agents neither run nor keep the messages delivered to them
    /// while down. Traffic statistics count *deliveries* (so the fault-free
    /// path is unchanged, and duplicates/retransmissions show up as real
    /// traffic).
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
        let plan = self.faults;
        let mut faults = FaultRoundStats::default();

        // Crashed agents do not run, and whatever was delivered to them
        // while down is lost.
        let mut crashed = vec![false; n];
        if let Some(p) = &plan {
            for (id, down) in crashed.iter_mut().enumerate() {
                if p.is_crashed(id, round) {
                    *down = true;
                    faults.crashed += 1;
                    faults.lost_to_crash += self.mailboxes[id].len() as u64;
                    self.mailboxes[id].clear();
                }
            }
        }

        let mut outbox: Vec<Message> = Vec::new();
        let mut round_messages = 0u64;
        let mut round_bytes = 0u64;
        let mut in_degree = vec![0usize; n];
        let mut out_degree = vec![0usize; n];

        for (id, &down) in crashed.iter().enumerate() {
            if down {
                continue;
            }
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

        let deliver = |m: Message,
                       next_mailboxes: &mut Vec<Vec<Message>>,
                       round_messages: &mut u64,
                       round_bytes: &mut u64,
                       in_degree: &mut Vec<usize>,
                       out_degree: &mut Vec<usize>| {
            *round_messages += 1;
            *round_bytes += m.payload.len() as u64;
            in_degree[m.to] += 1;
            out_degree[m.from] += 1;
            next_mailboxes[m.to].push(m);
        };

        // Fresh sends: fate each message, then deliver / defer / drop.
        for (nonce, m) in outbox.drain(..).enumerate() {
            let nonce = nonce as u64;
            let fate = match &plan {
                Some(p) => p.message_fate(round, m.from, m.to, nonce, 0),
                None => MessageFate::Deliver,
            };
            match fate {
                MessageFate::Deliver => deliver(
                    m,
                    &mut self.next_mailboxes,
                    &mut round_messages,
                    &mut round_bytes,
                    &mut in_degree,
                    &mut out_degree,
                ),
                MessageFate::Duplicate => {
                    faults.duplicated += 1;
                    deliver(
                        m.clone(),
                        &mut self.next_mailboxes,
                        &mut round_messages,
                        &mut round_bytes,
                        &mut in_degree,
                        &mut out_degree,
                    );
                    deliver(
                        m,
                        &mut self.next_mailboxes,
                        &mut round_messages,
                        &mut round_bytes,
                        &mut in_degree,
                        &mut out_degree,
                    );
                }
                MessageFate::Delay(d) => {
                    faults.delayed += 1;
                    self.pending.push(PendingDelivery {
                        due: round + d as usize,
                        msg: m,
                        key_round: round,
                        nonce,
                        attempt: 0,
                        is_retry: false,
                    });
                }
                MessageFate::Drop => {
                    faults.dropped += 1;
                    if let Some(pol) = &self.retry {
                        if pol.max_attempts >= 1 {
                            let jitter = plan
                                .as_ref()
                                .expect("drop implies plan")
                                .retry_jitter(round, nonce, 1);
                            faults.retried += 1;
                            self.pending.push(PendingDelivery {
                                due: round + pol.backoff_rounds(1, jitter),
                                msg: m,
                                key_round: round,
                                nonce,
                                attempt: 1,
                                is_retry: true,
                            });
                        } else {
                            faults.retry_exhausted += 1;
                        }
                    }
                }
            }
        }

        // Deferred deliveries (delays and retransmissions) that come due
        // now. Order-stable extraction keeps the schedule deterministic.
        if !self.pending.is_empty() {
            let mut later = Vec::with_capacity(self.pending.len());
            let mut due_now = Vec::new();
            for p in self.pending.drain(..) {
                if p.due <= round {
                    due_now.push(p);
                } else {
                    later.push(p);
                }
            }
            self.pending = later;
            for p in due_now {
                if !p.is_retry {
                    deliver(
                        p.msg,
                        &mut self.next_mailboxes,
                        &mut round_messages,
                        &mut round_bytes,
                        &mut in_degree,
                        &mut out_degree,
                    );
                    continue;
                }
                let fate = plan.as_ref().expect("retry implies plan").message_fate(
                    p.key_round,
                    p.msg.from,
                    p.msg.to,
                    p.nonce,
                    p.attempt,
                );
                match fate {
                    MessageFate::Deliver => deliver(
                        p.msg,
                        &mut self.next_mailboxes,
                        &mut round_messages,
                        &mut round_bytes,
                        &mut in_degree,
                        &mut out_degree,
                    ),
                    MessageFate::Duplicate => {
                        faults.duplicated += 1;
                        deliver(
                            p.msg.clone(),
                            &mut self.next_mailboxes,
                            &mut round_messages,
                            &mut round_bytes,
                            &mut in_degree,
                            &mut out_degree,
                        );
                        deliver(
                            p.msg,
                            &mut self.next_mailboxes,
                            &mut round_messages,
                            &mut round_bytes,
                            &mut in_degree,
                            &mut out_degree,
                        );
                    }
                    MessageFate::Delay(d) => {
                        faults.delayed += 1;
                        self.pending.push(PendingDelivery {
                            due: round + d as usize,
                            is_retry: false,
                            ..p
                        });
                    }
                    MessageFate::Drop => {
                        faults.dropped += 1;
                        let pol = self.retry.as_ref().expect("retry entry implies policy");
                        if p.attempt < pol.max_attempts {
                            let next = p.attempt + 1;
                            let jitter = plan.as_ref().expect("retry implies plan").retry_jitter(
                                p.key_round,
                                p.nonce,
                                next,
                            );
                            faults.retried += 1;
                            self.pending.push(PendingDelivery {
                                due: round + pol.backoff_rounds(next, jitter),
                                attempt: next,
                                ..p
                            });
                        } else {
                            faults.retry_exhausted += 1;
                        }
                    }
                }
            }
        }

        // Reorder: reverse next-round delivery order for loaded mailboxes.
        if plan.as_ref().is_some_and(|p| p.reorders(round)) {
            for mb in &mut self.next_mailboxes {
                if mb.len() >= 2 {
                    mb.reverse();
                    faults.reordered += 1;
                }
            }
        }

        for (mb, next) in self
            .mailboxes
            .iter_mut()
            .zip(self.next_mailboxes.iter_mut())
        {
            mb.clear();
            std::mem::swap(mb, next);
        }

        let rs = RoundStats {
            round,
            messages: round_messages,
            bytes: round_bytes,
            max_in_degree: in_degree.iter().copied().max().unwrap_or(0),
            max_out_degree: out_degree.iter().copied().max().unwrap_or(0),
            faults,
        };
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

/// Seed derivation (mirrors `mwu_core::rng::mix` without the dependency —
/// simnet is a substrate below mwu-core in spirit; keeping it dependency-free
/// of the algorithm crate avoids a cycle since mwrepair composes both).
fn mwu_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Context;
    use bytes::Bytes;

    /// Send `payload` to every other agent.
    fn send_to_peers(ctx: &mut Context<'_>, payload: &'static [u8]) {
        let me = ctx.id();
        for to in (0..ctx.n_agents()).filter(|&to| to != me) {
            ctx.send(to, Bytes::from_static(payload));
        }
    }

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
    fn quiescent_faults_change_nothing() {
        fn run(with_plan: bool) -> NetStats {
            let mut net = Network::new(6, 7);
            if with_plan {
                net.set_faults(FaultPlan::quiescent());
            }
            for _ in 0..6 {
                net.add_agent(|ctx: &mut Context<'_>| {
                    let to = (ctx.id() + 1) % ctx.n_agents();
                    ctx.send(to, Bytes::from_static(b"x"));
                });
            }
            net.run(10)
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn drops_reduce_deliveries_and_are_counted() {
        let mut net = Network::new(4, 3);
        net.set_faults(FaultPlan::new(9, crate::faults::FaultConfig::drops(0.5)));
        for _ in 0..4 {
            net.add_agent(|ctx: &mut Context<'_>| {
                send_to_peers(ctx, b"g");
            });
        }
        let stats = net.run(50);
        // 4 agents × 3 peers × 50 rounds = 600 sends; about half must drop.
        assert!(
            stats.faults.dropped > 150,
            "dropped {}",
            stats.faults.dropped
        );
        assert!(
            stats.messages < 550,
            "deliveries {} not reduced by drops",
            stats.messages
        );
        assert_eq!(stats.faults.retried, 0, "no retry policy installed");
    }

    #[test]
    fn retries_recover_dropped_messages() {
        fn total_delivered(retry: bool) -> (u64, FaultRoundStats) {
            let mut net = Network::new(2, 3);
            net.set_faults(FaultPlan::new(5, crate::faults::FaultConfig::drops(0.4)));
            if retry {
                net.set_retry(RetryPolicy {
                    max_attempts: 5,
                    base_delay: 1,
                });
            }
            net.add_agent(|ctx: &mut Context<'_>| {
                if ctx.round() < 40 {
                    ctx.send(1, Bytes::from_static(b"m"));
                }
            });
            net.add_agent(|_: &mut Context<'_>| {});
            let s = net.run(90);
            (s.messages, s.faults)
        }
        let (without, _) = total_delivered(false);
        let (with, faults) = total_delivered(true);
        assert!(faults.retried > 0, "retries should be scheduled");
        assert!(
            with > without,
            "retry delivered {with} <= no-retry {without}"
        );
        // With 5 attempts at 40% drop, nearly all 40 sends eventually land.
        assert!(with >= 38, "only {with}/40 delivered with retries");
    }

    #[test]
    fn delayed_messages_arrive_late_not_never() {
        let cfg = crate::faults::FaultConfig {
            delay_rate: 1.0,
            max_delay: 3,
            ..crate::faults::FaultConfig::default()
        };
        let mut net = Network::new(2, 1);
        net.set_faults(FaultPlan::new(2, cfg));
        net.add_agent(|ctx: &mut Context<'_>| {
            if ctx.round() == 0 {
                ctx.send(1, Bytes::from_static(b"late"));
            }
        });
        net.add_agent(|_: &mut Context<'_>| {});
        // Round 0: send is deferred. It must land within max_delay rounds.
        let mut delivered_round = None;
        for r in 0..8 {
            let rs = net.step();
            if rs.messages > 0 {
                delivered_round = Some(r);
                break;
            }
        }
        let r = delivered_round.expect("delayed message never delivered");
        assert!((1..=3).contains(&r), "delivered in round {r}");
        assert_eq!(net.stats().faults.delayed, 1);
    }

    #[test]
    fn duplicates_inject_extra_copies() {
        let cfg = crate::faults::FaultConfig {
            duplicate_rate: 1.0,
            ..crate::faults::FaultConfig::default()
        };
        let mut net = Network::new(2, 1);
        net.set_faults(FaultPlan::new(4, cfg));
        net.add_agent(|ctx: &mut Context<'_>| {
            if ctx.round() == 0 {
                ctx.send(1, Bytes::from_static(b"d"));
            }
        });
        net.add_agent(|ctx: &mut Context<'_>| {
            if ctx.round() == 1 {
                assert_eq!(ctx.inbox().len(), 2, "duplicate should deliver twice");
            }
        });
        let stats = net.run(2);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.faults.duplicated, 1);
    }

    #[test]
    fn crashed_agents_skip_rounds_and_lose_mail() {
        let cfg = crate::faults::FaultConfig {
            crash_rate: 0.1,
            crash_length: 3,
            ..crate::faults::FaultConfig::default()
        };
        let mut net = Network::new(4, 2);
        net.set_faults(FaultPlan::new(8, cfg));
        for _ in 0..4 {
            net.add_agent(|ctx: &mut Context<'_>| {
                send_to_peers(ctx, b"hb");
            });
        }
        let stats = net.run(60);
        assert!(
            stats.faults.crashed > 0,
            "no crashes at rate 0.1 over 240 draws"
        );
        assert!(
            stats.faults.lost_to_crash > 0,
            "crashed broadcast targets should lose mail"
        );
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        fn run_once() -> (NetStats, Vec<RoundStats>) {
            let mut net = Network::new(5, 11);
            net.set_faults(FaultPlan::new(13, crate::faults::FaultConfig::mixed(0.2)));
            net.set_retry(RetryPolicy::default());
            for _ in 0..5 {
                net.add_agent(|ctx: &mut Context<'_>| {
                    use rand::Rng;
                    let n = ctx.n_agents();
                    let to = ctx.rng().gen_range(0..n);
                    if to != ctx.id() {
                        ctx.send(to, Bytes::from_static(b"gossip"));
                    }
                });
            }
            net.run(40);
            (net.stats(), net.history().to_vec())
        }
        let (s1, h1) = run_once();
        let (s2, h2) = run_once();
        assert_eq!(s1, s2);
        assert_eq!(h1, h2);
        assert!(s1.faults.total() > 0, "mixed(0.2) should inject something");
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
