//! The partial path without process spawn: one program split across two
//! scheduler instances in one process.
//!
//! The distributed backend runs each worker's ranks as a *partial*
//! scheduler instance whose cross-group channels are ports. This suite
//! drives that path directly: a 4-rank all-to-all program is launched as
//! two partial instances (ranks {0, 1} and {2, 3}) from the scheduler's one
//! launch, and two pump threads bridge them gateway-to-gateway
//! (`pump_outbound` → `push_inbound`). By Theorem 1 the split run is just
//! another maximal interleaving, so its snapshots must equal the
//! simulator's bitwise — both from the zero cut and when resumed from a
//! mid-run simulator cut whose cross-group in-flight messages are re-fed
//! through `push_inbound`.
//!
//! Pool size follows `SSP_WORKERS` (CI also runs this file with
//! `SSP_WORKERS=2` to exercise stealing inside each instance).

use std::thread;

use ssp_runtime::proc::push_u64;
use ssp_runtime::{
    launch, run_simulated, Adversary, AdversarialPolicy, ChannelId, Effect, FaultPlan, NoFlight,
    PartialSeed, Process, RoundRobin, RunMetrics, SchedulePolicy, SimState, Simulator,
    ThreadedConfig, Topology, Trace,
};

const N: usize = 4;

/// Which instance hosts `rank`.
fn group_of(rank: usize) -> usize {
    rank / 2
}

/// One rank of an all-to-all exchange: each round it sends one value to
/// every peer, mixes, then receives one value from every peer. The state
/// is an order-sensitive hash of every delivery and every outgoing value
/// depends on it, so a lost, duplicated or reordered message anywhere
/// changes the final snapshots.
#[derive(Clone)]
struct Mixer {
    id: usize,
    rounds: u64,
    round: u64,
    /// Position within the round: sends, one compute, then receives.
    k: usize,
    acc: u64,
    out: Vec<ChannelId>,
    inp: Vec<ChannelId>,
}

impl Process for Mixer {
    type Msg = u64;

    fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
        if let Some(v) = delivery {
            self.acc = self.acc.wrapping_mul(31).wrapping_add(v);
        }
        if self.round == self.rounds {
            return Effect::Halt;
        }
        let peers = self.out.len();
        let k = self.k;
        self.k += 1;
        if self.k == 2 * peers + 1 {
            self.k = 0;
            self.round += 1;
        }
        if k < peers {
            let tag = ((self.id as u64) << 40) ^ (self.round << 8) ^ k as u64;
            let msg = self.acc.wrapping_add(tag);
            Effect::Send { chan: self.out[k], msg }
        } else if k == peers {
            self.acc = self.acc.rotate_left(7) ^ 0x9E37_79B9_7F4A_7C15;
            Effect::Compute { units: 1 }
        } else {
            Effect::Recv { chan: self.inp[k - peers - 1] }
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut b = Vec::new();
        push_u64(&mut b, self.acc);
        push_u64(&mut b, self.round);
        b
    }

    fn msg_size_bytes(_: &u64) -> u64 {
        8
    }
}

fn program(rounds: u64) -> (Topology, Vec<Mixer>) {
    let mut topo = Topology::new(N);
    let mut chan = vec![vec![None; N]; N];
    for (i, row) in chan.iter_mut().enumerate() {
        for (j, c) in row.iter_mut().enumerate() {
            if i != j {
                *c = Some(topo.connect(i, j));
            }
        }
    }
    let procs = (0..N)
        .map(|id| Mixer {
            id,
            rounds,
            round: 0,
            k: 0,
            acc: id as u64 + 1,
            out: (0..N).filter_map(|j| chan[id][j]).collect(),
            inp: (0..N).filter_map(|j| chan[j][id]).collect(),
        })
        .collect();
    (topo, procs)
}

/// Launch the two instances, re-feed `in_flight` into the readers'
/// gateways, bridge the instances with one pump thread each, and return
/// full-length snapshots plus the metrics slices summed.
fn run_split(
    topo: &Topology,
    seeds: [PartialSeed<Mixer>; 2],
    in_flight: Vec<(ChannelId, Vec<u64>)>,
) -> (Vec<Vec<u8>>, RunMetrics) {
    let runs: Vec<_> = seeds
        .into_iter()
        .map(|s| launch::<_, NoFlight>(topo, s, ThreadedConfig::default(), &FaultPlan::none()))
        .collect();
    let gateways: Vec<_> = runs.iter().map(|r| r.gateway()).collect();
    // Messages in flight across the cut go in before any pump starts, so
    // they precede every post-cut send on their channel.
    for (chan, msgs) in in_flight {
        let to = &gateways[group_of(topo.spec(chan).reader)];
        for m in msgs {
            to.push_inbound(chan, m).unwrap();
        }
    }
    let pumps: Vec<_> = (0..2)
        .map(|g| {
            let (from, to) = (gateways[g].clone(), gateways[1 - g].clone());
            thread::spawn(move || from.pump_outbound(|chan, m| to.push_inbound(chan, m)))
        })
        .collect();
    let mut snapshots = vec![Vec::new(); N];
    let mut metrics = RunMetrics::for_topology(topo);
    for run in runs {
        let out = run.join().unwrap();
        for (r, snap) in out.snapshots {
            snapshots[r] = snap;
            metrics.procs[r] = out.metrics.procs[r];
        }
        for (total, part) in metrics.channels.iter_mut().zip(&out.metrics.channels) {
            total.messages += part.messages;
            total.bytes += part.bytes;
        }
    }
    for p in pumps {
        p.join().unwrap().unwrap();
    }
    (snapshots, metrics)
}

/// Split a whole-program simulator cut into the two instances' seeds plus
/// the cross-group messages in flight at the cut (internal queues stay in
/// their instance's seed).
#[allow(clippy::type_complexity)]
fn split_cut(
    topo: &Topology,
    state: SimState<Mixer>,
) -> ([PartialSeed<Mixer>; 2], Vec<(ChannelId, Vec<u64>)>) {
    let whole = PartialSeed::from(state);
    let mut seeds = [0, 1].map(|_| PartialSeed {
        procs: Vec::new(),
        queues: Vec::new(),
        consumed: whole.consumed.clone(),
        counters: whole.counters.clone(),
    });
    for rank in whole.procs {
        seeds[group_of(rank.0)].procs.push(rank);
    }
    let mut in_flight = Vec::new();
    for (chan, msgs) in whole.queues {
        let spec = topo.spec(ChannelId(chan));
        if group_of(spec.writer) == group_of(spec.reader) {
            seeds[group_of(spec.reader)].queues.push((chan, msgs));
        } else if !msgs.is_empty() {
            in_flight.push((ChannelId(chan), msgs));
        }
    }
    (seeds, in_flight)
}

fn assert_matches_reference(topo: &Topology, got: &(Vec<Vec<u8>>, RunMetrics), rounds: u64) {
    let (_, procs) = program(rounds);
    let reference = run_simulated(topo.clone(), procs, &mut RoundRobin::new()).unwrap();
    assert_eq!(got.0, reference.snapshots, "split run diverged from the simulator");
    for (c, (g, r)) in got.1.channels.iter().zip(&reference.metrics.channels).enumerate() {
        assert_eq!((g.messages, g.bytes), (r.messages, r.bytes), "traffic on ch{c}");
    }
    for (r, (g, s)) in got.1.procs.iter().zip(&reference.metrics.procs).enumerate() {
        assert_eq!((g.sends, g.receives), (s.sends, s.receives), "rank {r} traffic");
    }
}

#[test]
fn two_partial_instances_from_the_zero_cut_match_the_simulator() {
    let rounds = 40;
    let (topo, procs) = program(rounds);
    let mut groups: [Vec<(usize, Mixer)>; 2] = [Vec::new(), Vec::new()];
    for (r, p) in procs.into_iter().enumerate() {
        groups[group_of(r)].push((r, p));
    }
    let seeds = groups.map(|g| PartialSeed::fresh(&topo, g));
    let got = run_split(&topo, seeds, Vec::new());
    assert_matches_reference(&topo, &got, rounds);
}

#[test]
fn two_partial_instances_resumed_from_a_mid_run_cut_match_the_simulator() {
    let rounds = 40;
    let (topo, procs) = program(rounds);
    // Lowest-first lets rank 0 run a round ahead of its peers, so the cut
    // holds multi-message queues as well as blocked ranks.
    let mut sim = Simulator::new(topo.clone(), procs);
    let mut policy = AdversarialPolicy::new(Adversary::LowestFirst);
    let mut trace = Trace::new();
    for _ in 0..101 {
        let runnable = sim.runnable();
        let p = policy.pick(&runnable);
        sim.step_process(p, &mut trace).unwrap();
    }
    let (seeds, in_flight) = split_cut(&topo, sim.into_state());
    assert!(!in_flight.is_empty(), "the cut must leave cross-group messages in flight");
    assert!(
        seeds.iter().flat_map(|s| &s.queues).any(|(_, q)| q.len() >= 2),
        "the cut must leave an internal queue holding more than one message"
    );
    let got = run_split(&topo, seeds, in_flight);
    assert_matches_reference(&topo, &got, rounds);
}
