//! Agents, messages, and the per-round execution context.

use bytes::Bytes;
use rand::rngs::SmallRng;

/// Dense agent identifier within one [`crate::Network`].
pub type AgentId = usize;

/// A point-to-point message. Payloads are cheaply-cloneable byte buffers so
/// sending one payload to many recipients does not copy it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sender.
    pub from: AgentId,
    /// Recipient.
    pub to: AgentId,
    /// Opaque payload (application-defined encoding).
    pub payload: Bytes,
}

/// What one agent sees and can do during one round.
///
/// Created by the engine per (agent, round); sends are buffered and
/// delivered at the start of the *next* round (synchronous / round-based
/// message passing — the standard model for congestion analysis).
pub struct Context<'a> {
    pub(crate) id: AgentId,
    pub(crate) round: usize,
    pub(crate) n_agents: usize,
    pub(crate) inbox: &'a [Message],
    pub(crate) outbox: &'a mut Vec<Message>,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) halted: &'a mut bool,
}

impl<'a> Context<'a> {
    /// This agent's id.
    pub fn id(&self) -> AgentId {
        self.id
    }

    /// Current round (0-based).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Number of agents in the network.
    pub fn n_agents(&self) -> usize {
        self.n_agents
    }

    /// Messages delivered to this agent this round (sent last round).
    pub fn inbox(&self) -> &[Message] {
        self.inbox
    }

    /// Queue a message for delivery next round.
    pub fn send(&mut self, to: AgentId, payload: Bytes) {
        assert!(to < self.n_agents, "recipient {to} out of range");
        self.outbox.push(Message {
            from: self.id,
            to,
            payload,
        });
    }

    /// Deterministic per-agent-per-round RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Request that the whole network stop after this round.
    pub fn halt(&mut self) {
        *self.halted = true;
    }
}

/// A participant in a [`crate::Network`].
pub trait Agent {
    /// Run one round: read `ctx.inbox()`, optionally `ctx.send(..)`.
    fn step(&mut self, ctx: &mut Context<'_>);
}

impl<F: FnMut(&mut Context<'_>)> Agent for F {
    fn step(&mut self, ctx: &mut Context<'_>) {
        self(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    #[should_panic]
    fn send_out_of_range_panics() {
        let mut outbox = Vec::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut halted = false;
        let inbox: Vec<Message> = vec![];
        let mut ctx = Context {
            id: 0,
            round: 0,
            n_agents: 2,
            inbox: &inbox,
            outbox: &mut outbox,
            rng: &mut rng,
            halted: &mut halted,
        };
        ctx.send(5, Bytes::new());
    }

    #[test]
    fn closures_are_agents() {
        let mut hits = 0usize;
        {
            let mut agent = |_ctx: &mut Context<'_>| {
                hits += 1;
            };
            let mut outbox = Vec::new();
            let mut rng = SmallRng::seed_from_u64(0);
            let mut halted = false;
            let inbox: Vec<Message> = vec![];
            let mut ctx = Context {
                id: 0,
                round: 0,
                n_agents: 1,
                inbox: &inbox,
                outbox: &mut outbox,
                rng: &mut rng,
                halted: &mut halted,
            };
            agent.step(&mut ctx);
        }
        assert_eq!(hits, 1);
    }
}
