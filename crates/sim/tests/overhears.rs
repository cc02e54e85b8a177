//! [`Application::overhears`]: a declined overheard frame skips only the
//! application callback. Metrics, receive energy and the trace count it
//! exactly as when the application takes it.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsn_sim::prelude::*;

/// Unicasts a few frames to random neighbours and logs every overheard
/// frame it is handed as `(seq, first payload byte)`. With `decline_odd`
/// it declines the overheard frames whose first payload byte is odd.
struct Gossip {
    decline_odd: bool,
    overheard: Vec<(u64, u8)>,
}

const SENDS: u64 = 4;

fn odd(tag: u8) -> bool {
    tag % 2 == 1
}

impl Application for Gossip {
    type Message = Vec<u8>;

    fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
        for token in 0..SENDS {
            let delay = ctx.rng().gen_range(1..400);
            ctx.set_timer(SimDuration::from_millis(delay), token);
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Vec<u8>>, _from: NodeId, _msg: &Vec<u8>) {}

    fn overhears(&self, frame: &Frame<Vec<u8>>) -> bool {
        !(self.decline_odd && odd(frame.payload[0]))
    }

    fn on_overhear(&mut self, _ctx: &mut Context<'_, Vec<u8>>, frame: &Frame<Vec<u8>>) {
        self.overheard.push((frame.seq, frame.payload[0]));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Vec<u8>>, _token: TimerToken) {
        let n = ctx.neighbors().len();
        if n == 0 {
            return;
        }
        let pick = ctx.rng().gen_range(0..n);
        let to = ctx.neighbors()[pick];
        let tag: u8 = ctx.rng().gen();
        ctx.send(to, vec![tag; 12]);
    }
}

/// One seeded run on a dense field with collisions, half-duplex loss,
/// duplicated and reordered receptions, traced in full.
fn run(decline_odd: bool) -> Simulator<Gossip> {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let dep = Deployment::uniform_random(60, Region::new(120.0, 120.0), 40.0, &mut rng);
    let config = SimConfig {
        trace_capacity: 1 << 16,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(dep, config, 5, |_| Gossip {
        decline_odd,
        overheard: Vec::new(),
    });
    sim.set_channel_plan(
        ChannelPlan::none()
            .with_duplication(0.1)
            .and_then(|p| p.with_reordering(0.1, SimDuration::from_millis(5)))
            .expect("valid plan"),
    );
    sim.run_until(SimTime::from_secs(2));
    sim
}

#[test]
fn declined_frames_skip_only_the_callback() {
    let takes = run(false);
    let declines = run(true);

    let mut declined = 0;
    for ((id, all), (_, some)) in takes.apps().zip(declines.apps()) {
        assert!(
            !some.overheard.iter().any(|&(_, tag)| odd(tag)),
            "{id:?} was handed a declined frame"
        );
        let accepted: Vec<_> = all
            .overheard
            .iter()
            .copied()
            .filter(|&(_, tag)| !odd(tag))
            .collect();
        assert_eq!(some.overheard, accepted, "{id:?}");
        declined += all.overheard.len() - accepted.len();
    }
    assert!(declined > 100, "only {declined} frames declined");

    // Every reception is still counted, declined or not.
    let overheard: u64 = declines
        .metrics()
        .iter()
        .map(|(_, m)| m.frames_overheard)
        .sum();
    let handed: usize = takes.apps().map(|(_, a)| a.overheard.len()).sum();
    assert_eq!(overheard, handed as u64);
    for ((id, a), (_, b)) in takes.metrics().iter().zip(declines.metrics().iter()) {
        assert_eq!(a, b, "{id:?}: metrics differ");
    }
    assert!(takes.trace().evicted() == 0 && !takes.trace().is_empty());
    assert_eq!(takes.trace().to_jsonl(), declines.trace().to_jsonl());
}
