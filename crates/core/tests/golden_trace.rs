//! Golden-trace regression: the engine's observable behaviour — every
//! trace entry, every metrics counter, the virtual clock — is pinned to
//! committed fixtures. Any engine refactor (payload sharing, batched
//! delivery, trace levels, timer bookkeeping) must reproduce them
//! byte-for-byte; a diff here means the "same seed ⇒ identical trace"
//! invariant broke, not that a fixture needs a casual refresh.
//!
//! Two inputs are pinned: the paper default on a clean channel, and the
//! deep retry budget on fig20's bursty, corrupting channel — the only
//! one that fires the `cluster_arq` repeats (announce, join, shares,
//! FSum) next to the roster and upstream repeats.
//!
//! To re-bless after an *intentional* behaviour change (one that
//! DESIGN.md §6 sanctions), run:
//!
//! ```text
//! ICPDA_BLESS=1 cargo test -p icpda --test golden_trace
//! ```
//!
//! and commit the regenerated fixtures together with the change that
//! justifies it.

use agg::AggFunction;
use icpda::{IcpdaConfig, IcpdaNode, ReliabilityConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::path::PathBuf;
use wsn_sim::geometry::Region;
use wsn_sim::prelude::*;
use wsn_sim::TraceKind;

/// Network size for the clean fixture: the evaluation sweep's smallest
/// point — dense enough to form many clusters and exercise collisions,
/// overhearing and multi-hop relays, small enough to keep the committed
/// fixture reviewable.
const N: usize = 200;
/// Network size for the lossy fixture: enough clusters that every
/// blind repeat fires, with a fixture about half the clean one's size.
const ARQ_N: usize = 120;
const SEED: u64 = 42;

/// The blind-repeat timer tokens: roster, upstream, announce, join,
/// shares and FSum (`crates/core/src/node.rs`).
const REPEAT_TOKENS: [u64; 6] = [11, 16, 21, 22, 23, 24];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Runs one full iCPDA round with tracing on and renders every
/// observable into a deterministic text document headed by `title`.
/// Returns the document and how often each of [`REPEAT_TOKENS`] fired.
fn render_run(
    title: &str,
    n: usize,
    config: IcpdaConfig,
    channel: ChannelPlan,
) -> (String, [usize; 6]) {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let dep =
        Deployment::uniform_random_with_central_bs(n, Region::paper_default(), 50.0, &mut rng);
    let readings = agg::readings::count_readings(n);
    let mut sim_config = SimConfig::paper_default();
    // Room for the full round: the assertion below proves nothing was
    // evicted, so the fixture is the *complete* event record.
    sim_config.trace_capacity = 1 << 20;
    let mut sim = Simulator::new(dep, sim_config, SEED, |id| {
        IcpdaNode::new(config, id == NodeId::new(0), readings[id.index()])
    });
    sim.set_channel_plan(channel);
    let deadline = SimTime::ZERO + config.schedule.decision_time() + SimDuration::from_secs(1);
    sim.run_until(deadline);
    assert_eq!(sim.trace().evicted(), 0, "fixture must hold the full trace");

    let mut out = String::new();
    let mut repeats = [0; 6];
    let _ = writeln!(out, "# golden trace: {title}");
    let _ = writeln!(out, "now_ns={}", sim.now().as_nanos());
    let _ = writeln!(out, "events_processed={}", sim.events_processed());
    for entry in sim.trace().iter() {
        if let TraceKind::TimerFired { token, .. } = entry.kind {
            if let Some(i) = REPEAT_TOKENS.iter().position(|&t| t == token) {
                repeats[i] += 1;
            }
        }
        let _ = writeln!(out, "{} {:?}", entry.time.as_nanos(), entry.kind);
    }
    let m = sim.metrics();
    let _ = writeln!(
        out,
        "totals frames={} bytes={} energy_uj={}",
        m.total_frames_sent(),
        m.total_bytes_sent(),
        // Integer microjoules: full-precision floats would make the
        // fixture brittle against benign float formatting.
        (m.total_energy_mj() * 1000.0).round() as i64,
    );
    for (id, nm) in m.iter() {
        let _ = writeln!(
            out,
            "node {} tx={}/{} rx={}/{} oh={} lost={},{},{},{} drops={}",
            id.as_u32(),
            nm.frames_sent,
            nm.bytes_sent,
            nm.frames_received,
            nm.bytes_received,
            nm.frames_overheard,
            nm.lost_collision,
            nm.lost_stochastic,
            nm.lost_half_duplex,
            nm.lost_receiver_down,
            nm.mac_drops,
        );
    }
    for (name, value) in sim.obs().counters() {
        let _ = writeln!(out, "counter {name}={value}");
    }
    (out, repeats)
}

/// Compares `rendered` with the committed fixture `name` (or rewrites
/// the fixture under `ICPDA_BLESS`).
fn assert_matches_fixture(rendered: &str, name: &str) {
    let path = golden_path(name);
    if std::env::var_os("ICPDA_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, rendered).expect("write golden fixture");
        eprintln!("blessed {} ({} bytes)", path.display(), rendered.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with ICPDA_BLESS=1 to generate it",
            path.display()
        )
    });
    if rendered != golden {
        // Locate the first divergent line so the failure is actionable
        // without diffing megabytes by hand.
        let mismatch = rendered
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (got, want))) => panic!(
                "golden trace {name} diverged at line {}:\n  got:  {got}\n  want: {want}\n\
                 (ICPDA_BLESS=1 re-blesses after an intentional change)",
                i + 1
            ),
            None => panic!(
                "golden trace {name} length changed: got {} lines, want {} lines",
                rendered.lines().count(),
                golden.lines().count()
            ),
        }
    }
}

#[test]
fn engine_reproduces_the_blessed_trace() {
    let config = IcpdaConfig::paper_default(AggFunction::Count);
    let title = format!("n={N} seed={SEED} one round");
    let (rendered, _) = render_run(&title, N, config, ChannelPlan::none());
    assert_matches_fixture(&rendered, "trace_n200_seed42.txt");
}

#[test]
fn every_blind_repeat_reproduces_the_blessed_trace() {
    let mut config = IcpdaConfig::paper_default(AggFunction::Count);
    config.reliability = ReliabilityConfig::aggressive();
    // fig20's bursty 20 % channel with 2 % corruption; crash recovery
    // stays off, so this pins the repeats and not the recovery paths.
    let channel = ChannelPlan::bursty(0.2, 0.8)
        .and_then(|plan| plan.with_corruption(0.02))
        .expect("valid channel parameters");
    let title =
        format!("n={ARQ_N} seed={SEED} one round, aggressive ARQ, bursty 0.2/0.8 + 2% corrupt");
    let (rendered, repeats) = render_run(&title, ARQ_N, config, channel);
    for (token, fired) in REPEAT_TOKENS.iter().zip(repeats) {
        assert!(fired > 0, "repeat timer token {token} never fired");
    }
    assert_matches_fixture(&rendered, "trace_arq_n120_seed42.txt");
}
