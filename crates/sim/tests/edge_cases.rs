//! Engine edge cases at the boundaries of the medium and timer models:
//! collision chains, receptions that touch at an endpoint, receivers
//! that bounce while a frame is in the air, and timer cancellation at
//! scale. Each test pins the exact semantics the engine has always had.

use wsn_sim::fault::FaultPlan;
use wsn_sim::geometry::{Point, Region};
use wsn_sim::prelude::*;
use wsn_sim::trace::{TraceKind, TraceLevel};

/// Broadcasts one frame of `bytes` payload bytes at each scripted
/// `(at_us, bytes)` step and counts what it receives.
#[derive(Default)]
struct Sender {
    script: Vec<(u64, usize)>,
    received: Vec<NodeId>,
}

impl Application for Sender {
    type Message = Vec<u8>;

    fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
        for (i, &(at_us, _)) in self.script.iter().enumerate() {
            ctx.set_timer(SimDuration::from_micros(at_us), i as u64);
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Vec<u8>>, from: NodeId, _m: &Vec<u8>) {
        self.received.push(from);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Vec<u8>>, token: TimerToken) {
        let bytes = self.script[token as usize].1;
        ctx.broadcast(vec![0; bytes]);
    }
}

/// Payload bytes whose frame occupies exactly `ms` milliseconds on the
/// paper radio (1 Mbps, 16-byte header: 125 bytes per ms).
fn bytes_for_ms(ms: u64) -> usize {
    ms as usize * 125 - 16
}

fn sim_over(points: Vec<Point>, scripts: Vec<Vec<(u64, usize)>>) -> Simulator<Sender> {
    let mut config = SimConfig::paper_default();
    config.mac = MacConfig::ideal();
    config.trace_capacity = 4096;
    config.trace_level = TraceLevel::Full;
    let dep = Deployment::from_positions(points, Region::new(200.0, 200.0), 15.0);
    Simulator::new(dep, config, 3, move |id| Sender {
        script: scripts.get(id.index()).cloned().unwrap_or_default(),
        ..Sender::default()
    })
}

/// Three transmitters on a circle of radius 10 around a receiver at
/// 120° spacing: each reaches the receiver, none hears another (17.3 m
/// apart, range 15 m), so carrier sense never separates them.
fn hidden_triangle() -> Vec<Point> {
    let centre = Point::new(100.0, 100.0);
    let mut points = vec![centre];
    for deg in [90.0f64, 210.0, 330.0] {
        let a = deg.to_radians();
        points.push(Point::new(
            centre.x + 10.0 * a.cos(),
            centre.y + 10.0 * a.sin(),
        ));
    }
    points
}

#[test]
fn collision_chain_loses_every_link_even_if_the_ends_never_overlap() {
    // A = [1, 9) ms, B = [5, 13) ms, C = [10, 18) ms at receiver 0.
    // A and C are disjoint, but each overlaps B: all three are lost.
    let frame = bytes_for_ms(8);
    let mut sim = sim_over(
        hidden_triangle(),
        vec![
            vec![],
            vec![(1_000, frame)],
            vec![(5_000, frame)],
            vec![(10_000, frame)],
        ],
    );
    sim.run_until(SimTime::from_secs(1));
    let rx = NodeId::new(0);
    assert!(sim.app(rx).received.is_empty());
    assert_eq!(sim.metrics().node(rx).lost_collision, 3);
    assert_eq!(sim.metrics().total_lost(LossCause::Collision), 3);
}

#[test]
fn a_reception_after_a_collision_chain_is_clean() {
    // A and B collide; C starts after both ended and arrives intact.
    let frame = bytes_for_ms(8);
    let mut sim = sim_over(
        hidden_triangle(),
        vec![
            vec![],
            vec![(1_000, frame)],
            vec![(5_000, frame)],
            vec![(13_000, frame)],
        ],
    );
    sim.run_until(SimTime::from_secs(1));
    let rx = NodeId::new(0);
    assert_eq!(sim.app(rx).received, vec![NodeId::new(3)]);
    assert_eq!(sim.metrics().node(rx).lost_collision, 2);
}

#[test]
fn receptions_touching_at_an_endpoint_both_survive() {
    // Receiver R=0 hears A=1 and B=2, which are hidden from each other.
    // E=3 is heard only by B: its 9 ms frame keeps B deferring, so B's
    // retry is scheduled at 0.5 ms for exactly 9 ms — before A starts at
    // 1 ms. At 9 ms, B therefore starts transmitting *before* A's
    // delivery to R runs, while A's reception is still on the books.
    let points = vec![
        Point::new(100.0, 100.0),
        Point::new(90.0, 100.0),
        Point::new(110.0, 100.0),
        Point::new(122.0, 100.0),
    ];
    let mut sim = sim_over(
        points,
        vec![
            vec![],
            vec![(1_000, bytes_for_ms(8))],
            vec![(500, bytes_for_ms(4))],
            vec![(0, bytes_for_ms(9))],
        ],
    );
    sim.run_until(SimTime::from_secs(1));
    let rx = NodeId::new(0);
    assert_eq!(sim.app(rx).received, vec![NodeId::new(1), NodeId::new(2)]);
    assert_eq!(sim.metrics().total_lost(LossCause::Collision), 0);

    // The interleaving the test is about really happened: B's frame went
    // on the air at 9 ms ahead of A's delivery at the same instant.
    let nine = SimTime::from_millis(9);
    let at_nine: Vec<TraceKind> = sim
        .trace()
        .iter()
        .filter(|e| e.time == nine)
        .map(|e| e.kind)
        .collect();
    let b_sent = at_nine
        .iter()
        .position(|k| matches!(k, TraceKind::FrameSent { src, .. } if *src == NodeId::new(2)));
    let a_delivered = at_nine
        .iter()
        .position(|k| matches!(k, TraceKind::FrameDelivered { node, .. } if *node == rx));
    assert!(
        matches!((b_sent, a_delivered), (Some(b), Some(a)) if b < a),
        "{at_nine:?}"
    );
}

/// Node 0 sends one 40 ms frame at 1 ms (on the air until 41 ms); node 1
/// is down over `outage` (ms).
fn bounce(outage: (u64, u64)) -> Simulator<Sender> {
    let points = vec![Point::new(100.0, 100.0), Point::new(110.0, 100.0)];
    let mut sim = sim_over(points, vec![vec![(1_000, bytes_for_ms(40))]]);
    let mut plan = FaultPlan::none();
    plan.outage(
        NodeId::new(1),
        SimTime::from_millis(outage.0),
        SimTime::from_millis(outage.1),
    )
    .expect("valid outage");
    sim.set_fault_plan(plan);
    sim.run_until(SimTime::from_secs(1));
    sim
}

#[test]
fn receiver_bouncing_mid_air_gets_the_frame_iff_up_at_delivery() {
    let rx = NodeId::new(1);
    // Down at 10 ms, back at 20 ms: up again when the frame ends.
    let sim = bounce((10, 20));
    assert_eq!(sim.app(rx).received, vec![NodeId::new(0)]);
    assert_eq!(sim.metrics().total_lost(LossCause::ReceiverDown), 0);

    // Down at 10 ms, back at 60 ms: down when the frame ends.
    let sim = bounce((10, 60));
    assert!(sim.app(rx).received.is_empty());
    assert_eq!(sim.metrics().node(rx).lost_receiver_down, 1);

    // Down when the frame starts, up long before it ends: a receiver
    // that was off at the start never locked on, so the frame is lost.
    let sim = bounce((0, 5));
    assert!(sim.app(rx).received.is_empty());
    assert_eq!(sim.metrics().node(rx).lost_receiver_down, 1);
}

/// Sets `count` timers at 1, 2, …, `count` ms (token = index), cancels
/// every third one right away (interleaved with the sets), and on each
/// firing cancels a timer that already fired, a foreign id, and the
/// timer five slots ahead when the token is a multiple of seven.
struct ManyTimers {
    count: u64,
    ids: Vec<TimerId>,
    foreign: Option<TimerId>,
    fired: Vec<TimerToken>,
}

impl Application for ManyTimers {
    type Message = ();

    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        for k in 0..self.count {
            self.ids
                .push(ctx.set_timer(SimDuration::from_millis(k + 1), k));
            if k % 3 == 2 {
                ctx.cancel_timer(self.ids[k as usize]);
            }
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _m: &()) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, ()>, token: TimerToken) {
        if let Some(&last) = self.fired.last() {
            ctx.cancel_timer(self.ids[last as usize]);
        }
        if let Some(foreign) = self.foreign {
            ctx.cancel_timer(foreign);
        }
        if token.is_multiple_of(7) {
            if let Some(&ahead) = self.ids.get(token as usize + 5) {
                ctx.cancel_timer(ahead);
            }
        }
        self.fired.push(token);
    }
}

fn timer_sim(count: u64, foreign: Option<TimerId>) -> Simulator<ManyTimers> {
    let dep = Deployment::from_positions(vec![Point::new(0.0, 0.0)], Region::new(10.0, 10.0), 5.0);
    let mut config = SimConfig::ideal();
    config.obs_level = ObsLevel::Full;
    Simulator::new(dep, config, 1, move |_| ManyTimers {
        count,
        ids: Vec::new(),
        foreign,
        fired: Vec::new(),
    })
}

#[test]
fn many_timers_with_interleaved_cancels_fire_exactly_the_live_ones() {
    // An id this run never issues: the 300th timer of a larger run.
    let mut donor = timer_sim(300, None);
    donor.run_until(SimTime::ZERO);
    let foreign = donor.app(NodeId::new(0)).ids[299];

    let count = 150u64;
    let mut sim = timer_sim(count, Some(foreign));
    sim.run_until(SimTime::from_secs(1));

    let mut expected = Vec::new();
    let mut cancelled = vec![false; count as usize];
    for k in 0..count {
        if k % 3 == 2 || cancelled[k as usize] {
            continue;
        }
        expected.push(k);
        if k.is_multiple_of(7) && k + 5 < count {
            cancelled[(k + 5) as usize] = true;
        }
    }
    assert_eq!(sim.app(NodeId::new(0)).fired, expected);
    // Every scheduled timer pops once, fired or not.
    assert_eq!(sim.events_processed(), count);
    let obs = sim.obs();
    assert_eq!(obs.counter("engine.timers_set"), count);
    assert_eq!(obs.counter("engine.timers_fired"), expected.len() as u64);
    assert_eq!(
        obs.counter("engine.timers_stale"),
        count - expected.len() as u64
    );
}
