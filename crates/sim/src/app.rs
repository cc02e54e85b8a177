//! The protocol-facing interface: [`Application`] and [`Context`].
//!
//! A protocol implements [`Application`] once per *node*; the simulator
//! owns one instance per deployed node and invokes the callbacks as frames
//! arrive and timers fire. All side effects (sending, timers) go through
//! the [`Context`], which buffers them as commands the engine executes
//! after the callback returns — this keeps callbacks free of re-entrancy
//! and makes the event order deterministic.

use crate::frame::{Destination, Frame, WireSize};
use crate::ids::NodeId;
use crate::metrics::Metrics;
use crate::sim::node_rng;
use crate::time::{SimDuration, SimTime};
use icpda_obs::{Obs, SpanSnapshot};
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::sync::Arc;

/// Token passed back to [`Application::on_timer`]; protocols encode which
/// logical timer fired (e.g. "cluster-formation deadline").
pub type TimerToken = u64;

/// Handle to a scheduled timer, usable with [`Context::cancel_timer`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(pub(crate) u64);

/// A node-local protocol state machine.
///
/// One value of the implementing type exists per node. Callbacks must not
/// block; they interact with the network exclusively through the
/// [`Context`].
pub trait Application {
    /// The protocol's message type. Its [`WireSize`] drives airtime,
    /// collisions, byte counters and energy.
    type Message: Clone + fmt::Debug + WireSize;

    /// Invoked once for every node at simulation start (time zero),
    /// in ascending node-id order.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let _ = ctx;
    }

    /// A frame addressed to this node (unicast to it, or broadcast)
    /// was received successfully.
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Message>,
        from: NodeId,
        msg: &Self::Message,
    );

    /// A frame addressed to *another* node was overheard (promiscuous
    /// mode). The integrity layer's peer monitoring lives here.
    fn on_overhear(&mut self, ctx: &mut Context<'_, Self::Message>, frame: &Frame<Self::Message>) {
        let _ = (ctx, frame);
    }

    /// A timer set via [`Context::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Message>, token: TimerToken) {
        let _ = (ctx, token);
    }
}

/// A message prepared for (repeated) transmission: the payload behind a
/// shared allocation plus its wire size, computed **once** at
/// construction. Retransmission paths (duplicate upstream reports,
/// flood repeats, roster echoes) hold one of these and re-send it with
/// [`Context::send_shared`] / [`Context::broadcast_shared`] — each
/// repeat costs a reference-count bump instead of a deep clone and a
/// fresh `wire_size()` walk over the message.
#[derive(Debug, Clone)]
pub struct SharedPayload<M> {
    payload: Arc<M>,
    size_bytes: usize,
}

impl<M: WireSize> SharedPayload<M> {
    /// Wraps `payload`, caching its wire size.
    #[must_use]
    pub fn new(payload: M) -> Self {
        let size_bytes = payload.wire_size();
        SharedPayload {
            payload: Arc::new(payload),
            size_bytes,
        }
    }
}

impl<M> SharedPayload<M> {
    /// The wrapped message.
    #[must_use]
    pub fn payload(&self) -> &M {
        &self.payload
    }

    /// The cached wire size, as computed at construction.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }
}

/// Buffered side effect produced by an application callback.
#[derive(Debug)]
pub(crate) enum Command<M> {
    Send {
        dest: Destination,
        payload: Arc<M>,
        size_bytes: usize,
    },
    SetTimer {
        at: SimTime,
        token: TimerToken,
        id: TimerId,
    },
    CancelTimer {
        id: TimerId,
    },
    /// Record an adversary-action trace note (see
    /// [`crate::trace::TraceKind::AdversaryAction`]). Buffered like every
    /// other side effect so the callback stays re-entrancy-free; the
    /// engine drops it unless the trace sink is enabled.
    TraceNote {
        code: u8,
    },
}

/// The environment handed to every [`Application`] callback.
///
/// Provides the node's identity, virtual clock, one-hop neighborhood,
/// a deterministic per-node RNG, protocol counters, and the send/timer
/// primitives.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) neighbors: &'a [NodeId],
    /// The node's RNG slot; the stream is derived from `seed` on the
    /// first [`Context::rng`] call, so callbacks that draw nothing never
    /// pay for it.
    pub(crate) rng: &'a mut Option<ChaCha8Rng>,
    pub(crate) seed: u64,
    pub(crate) metrics: &'a Metrics,
    pub(crate) obs: &'a mut Obs,
    pub(crate) commands: &'a mut Vec<Command<M>>,
    pub(crate) next_timer_id: &'a mut u64,
}

impl<'a, M: WireSize> Context<'a, M> {
    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// One-hop neighbors (sorted by id). The paper family assumes nodes
    /// know their one-hop neighborhood (learned from HELLO traffic); the
    /// simulator exposes it directly as an oracle with identical content.
    #[must_use]
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// Deterministic per-node random source.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        let (seed, i) = (self.seed, self.node.index());
        self.rng.get_or_insert_with(|| node_rng(seed, i))
    }

    /// The run's observability registry (see [`icpda_obs::Obs`]):
    /// protocol-level named counters count at every level (e.g.
    /// `obs().inc("share_sent")`); spans, gauges and histograms record
    /// only when `SimConfig::obs_level` is raised. Guard those with
    /// [`Obs::enabled`] before computing arguments.
    pub fn obs(&mut self) -> &mut Obs {
        self.obs
    }

    /// A point-in-time [`SpanSnapshot`] of this node's traffic/energy
    /// accounting, for span start/end bookkeeping. Call only under an
    /// [`Obs::enabled`] guard.
    #[must_use]
    pub fn obs_snapshot(&self) -> SpanSnapshot {
        let nm = self.metrics.node(self.node);
        SpanSnapshot {
            messages: nm.frames_sent + nm.frames_received + nm.frames_overheard,
            bytes: nm.bytes_sent + nm.bytes_received,
            energy_nj: nm.energy_total_nj() as u64,
        }
    }

    /// Queues a unicast to `to`. Neighbors other than `to` will overhear
    /// the frame. Sending to a node out of radio range is legal but the
    /// frame will never be delivered.
    pub fn send(&mut self, to: NodeId, payload: M) {
        let size_bytes = payload.wire_size();
        self.commands.push(Command::Send {
            dest: Destination::Unicast(to),
            payload: Arc::new(payload),
            size_bytes,
        });
    }

    /// Queues a local broadcast to all nodes in radio range.
    pub fn broadcast(&mut self, payload: M) {
        let size_bytes = payload.wire_size();
        self.commands.push(Command::Send {
            dest: Destination::Broadcast,
            payload: Arc::new(payload),
            size_bytes,
        });
    }

    /// Queues a unicast of a prepared [`SharedPayload`]: no payload
    /// clone, no wire-size recomputation — the repeat path for large
    /// composite messages.
    pub fn send_shared(&mut self, to: NodeId, payload: &SharedPayload<M>) {
        self.commands.push(Command::Send {
            dest: Destination::Unicast(to),
            payload: Arc::clone(&payload.payload),
            size_bytes: payload.size_bytes,
        });
    }

    /// Queues a broadcast of a prepared [`SharedPayload`].
    pub fn broadcast_shared(&mut self, payload: &SharedPayload<M>) {
        self.commands.push(Command::Send {
            dest: Destination::Broadcast,
            payload: Arc::clone(&payload.payload),
            size_bytes: payload.size_bytes,
        });
    }

    /// Schedules `on_timer(token)` to fire after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.commands.push(Command::SetTimer {
            at: self.now + delay,
            token,
            id,
        });
        id
    }

    /// Cancels a previously scheduled timer. Cancelling an already-fired
    /// or unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.commands.push(Command::CancelTimer { id });
    }

    /// Records that this node exercised a malicious behaviour (an
    /// `AdversaryAction` trace entry with application-defined `code`).
    /// A no-op unless the trace sink records `Metrics`-level events, so
    /// honest runs never see it and adversarial runs pay one branch.
    pub fn trace_adversary(&mut self, code: u8) {
        self.commands.push(Command::TraceNote { code });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn harness<'a, M: WireSize>(
        cmds: &'a mut Vec<Command<M>>,
        rng: &'a mut Option<ChaCha8Rng>,
        metrics: &'a Metrics,
        obs: &'a mut Obs,
        next_id: &'a mut u64,
    ) -> Context<'a, M> {
        Context {
            now: SimTime::from_millis(5),
            node: NodeId::new(2),
            neighbors: &[],
            rng,
            seed: 9,
            metrics,
            obs,
            commands: cmds,
            next_timer_id: next_id,
        }
    }

    #[test]
    fn send_records_wire_size() {
        let mut cmds = Vec::new();
        let mut rng = None;
        let metrics = Metrics::new(4);
        let mut obs = Obs::off();
        let mut next_id = 0;
        let mut ctx = harness::<Vec<u8>>(&mut cmds, &mut rng, &metrics, &mut obs, &mut next_id);
        ctx.send(NodeId::new(1), vec![0; 9]);
        ctx.broadcast(vec![0; 3]);
        match &cmds[0] {
            Command::Send {
                dest, size_bytes, ..
            } => {
                assert_eq!(*dest, Destination::Unicast(NodeId::new(1)));
                assert_eq!(*size_bytes, 9);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &cmds[1] {
            Command::Send {
                dest, size_bytes, ..
            } => {
                assert_eq!(*dest, Destination::Broadcast);
                assert_eq!(*size_bytes, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shared_payload_caches_wire_size_and_allocation() {
        let mut cmds = Vec::new();
        let mut rng = None;
        let metrics = Metrics::new(4);
        let mut obs = Obs::off();
        let mut next_id = 0;
        let shared = SharedPayload::new(vec![0u8; 13]);
        assert_eq!(shared.size_bytes(), 13);
        let mut ctx = harness::<Vec<u8>>(&mut cmds, &mut rng, &metrics, &mut obs, &mut next_id);
        ctx.send_shared(NodeId::new(1), &shared);
        ctx.broadcast_shared(&shared);
        for cmd in &cmds {
            match cmd {
                Command::Send {
                    payload,
                    size_bytes,
                    ..
                } => {
                    assert_eq!(*size_bytes, 13);
                    // Same allocation: the repeat path never deep-clones.
                    assert!(Arc::ptr_eq(payload, &shared.payload));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn timers_get_unique_ids_and_absolute_times() {
        let mut cmds = Vec::new();
        let mut rng = None;
        let metrics = Metrics::new(4);
        let mut obs = Obs::off();
        let mut next_id = 0;
        let mut ctx = harness::<()>(&mut cmds, &mut rng, &metrics, &mut obs, &mut next_id);
        let a = ctx.set_timer(SimDuration::from_millis(10), 7);
        let b = ctx.set_timer(SimDuration::from_millis(20), 8);
        assert_ne!(a, b);
        ctx.cancel_timer(a);
        match &cmds[0] {
            Command::SetTimer { at, token, id } => {
                assert_eq!(*at, SimTime::from_millis(15));
                assert_eq!(*token, 7);
                assert_eq!(*id, a);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&cmds[2], Command::CancelTimer { id } if *id == a));
    }

    #[test]
    fn rng_is_derived_on_first_use_only() {
        let mut cmds = Vec::new();
        let mut rng = None;
        let metrics = Metrics::new(4);
        let mut obs = Obs::off();
        let mut next_id = 0;
        let mut ctx = harness::<()>(&mut cmds, &mut rng, &metrics, &mut obs, &mut next_id);
        ctx.set_timer(SimDuration::from_millis(1), 0);
        assert!(ctx.rng.is_none(), "no draw, no stream");
        let first = ctx.rng().next_u64();
        let second = ctx.rng().next_u64();
        let mut reference = node_rng(9, 2);
        assert_eq!(
            (first, second),
            (reference.next_u64(), reference.next_u64())
        );
    }
}
