//! Crash-consistency integration tests: deterministic fault injection plus
//! checkpoint/restart on a small exchange program.
//!
//! The key property (ISSUE 3, from Theorem 1 §3.2): a run killed at *any*
//! step and recovered from the latest checkpoint terminates in a final
//! state bitwise identical to the uninjected run — a crashed-and-restarted
//! execution is just another maximal interleaving.

use ssp_runtime::{
    run_recovering, run_simulated, ChannelId, Effect, FaultPlan, Process, RecoveryConfig,
    RoundRobin, RunError, Topology,
};

/// One node of a §3.3-disciplined ring exchange: for each of `rounds`
/// iterations, send to the right neighbour, then receive from the left,
/// then fold the received value into a running order-sensitive hash.
#[derive(Clone)]
struct ExchangeNode {
    out: ChannelId,
    inp: ChannelId,
    rounds: u64,
    round: u64,
    phase: u8, // 0 = about to send, 1 = about to receive
    acc: u64,
}

impl Process for ExchangeNode {
    type Msg = u64;
    fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
        if let Some(v) = delivery {
            self.acc = self.acc.wrapping_mul(1_000_003).wrapping_add(v);
            self.round += 1;
            self.phase = 0;
        }
        if self.round >= self.rounds {
            return Effect::Halt;
        }
        if self.phase == 0 {
            self.phase = 1;
            Effect::Send { chan: self.out, msg: self.acc ^ self.round }
        } else {
            Effect::Recv { chan: self.inp }
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        self.acc.to_le_bytes().to_vec()
    }
    fn progress(&self) -> u64 {
        self.round * 4 + self.phase as u64
    }
}

fn exchange_ring(n: usize, rounds: u64) -> (Topology, Vec<ExchangeNode>) {
    let mut topo = Topology::new(n);
    let outs: Vec<ChannelId> = (0..n).map(|i| topo.connect(i, (i + 1) % n)).collect();
    let procs = (0..n)
        .map(|i| ExchangeNode {
            out: outs[i],
            inp: outs[(i + n - 1) % n],
            rounds,
            round: 0,
            phase: 0,
            acc: 1 + i as u64,
        })
        .collect();
    (topo, procs)
}

/// The satellite property test: kill the run at **every** step index of the
/// exchange plan; recovery must converge to the uninjected final state each
/// time, for several checkpoint intervals.
#[test]
fn crash_at_every_step_recovers_to_the_uninjected_state() {
    let (topo, procs) = exchange_ring(3, 4);
    let reference = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
    assert!(reference.steps > 20, "test program should be non-trivial");

    for every in [1u64, 3, 8] {
        for k in 0..reference.steps as usize {
            // Global step k was taken by proc p; expressed proc-locally it
            // is p's n-th step, the schedule-independent coordinate crashes
            // are keyed by.
            let p = reference.picks[k];
            let local = reference.picks[..=k].iter().filter(|&&q| q == p).count() as u64;
            let faults = FaultPlan::none().crash(p, local);
            let (topo, procs) = exchange_ring(3, 4);
            let out = run_recovering(
                topo,
                procs,
                faults,
                &mut RoundRobin::new(),
                RecoveryConfig::every(every),
            )
            .unwrap_or_else(|e| panic!("crash at step {k} (every {every}): {e}"));
            assert_eq!(
                out.snapshots, reference.snapshots,
                "recovered state diverged (crash at step {k}, checkpoint every {every})"
            );
            assert_eq!(out.stats.restarts, 1);
            assert_eq!(out.steps, reference.steps, "final lineage is maximal");
            assert!(out.stats.steps_reexecuted <= k as u64 + 1);
        }
    }
}

/// Several crashes and stalls in one plan: each crash fires once, each
/// restart resumes from the latest checkpoint, and the result is still
/// bitwise clean.
#[test]
fn multiple_crashes_and_stalls_recover_with_one_restart_each() {
    let (topo, procs) = exchange_ring(4, 5);
    let reference = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();

    let faults = FaultPlan::none()
        .crash(0, 2)
        .crash(2, 7)
        .crash(3, 11)
        .stall(ChannelId(1), 0, 6)
        .stall(ChannelId(2), 3, 9);
    let (topo, procs) = exchange_ring(4, 5);
    let out = run_recovering(topo, procs, faults, &mut RoundRobin::new(), RecoveryConfig::every(4))
        .unwrap();
    assert_eq!(out.snapshots, reference.snapshots);
    assert_eq!(out.stats.restarts, 3, "each crash fires exactly once");
    assert!(out.stats.checkpoints_taken > 0);
    assert_eq!(out.stats.faults_fired.len(), 3);
    assert!(out
        .stats
        .faults_fired
        .iter()
        .all(|e| matches!(e, RunError::Injected { .. })));
}

/// A genuine (program-bug) deadlock recurs on every lineage; the supervisor
/// burns its restart budget and surfaces the typed deadlock instead of
/// looping forever.
#[test]
fn recurring_deadlock_exhausts_the_restart_budget() {
    /// Receive-first symmetric exchange: deadlocks under every schedule.
    #[derive(Clone)]
    struct RecvFirst {
        out: ChannelId,
        inp: ChannelId,
        received: Option<u64>,
        sent: bool,
    }
    impl Process for RecvFirst {
        type Msg = u64;
        fn resume(&mut self, d: Option<u64>) -> Effect<u64> {
            if let Some(v) = d {
                self.received = Some(v);
            }
            if self.received.is_none() {
                return Effect::Recv { chan: self.inp };
            }
            if !self.sent {
                self.sent = true;
                return Effect::Send { chan: self.out, msg: 7 };
            }
            Effect::Halt
        }
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
    }
    let mut topo = Topology::new(2);
    let c01 = topo.connect(0, 1);
    let c10 = topo.connect(1, 0);
    let procs = vec![
        RecvFirst { out: c01, inp: c10, received: None, sent: false },
        RecvFirst { out: c10, inp: c01, received: None, sent: false },
    ];
    let cfg = RecoveryConfig { checkpoint_every: 2, max_restarts: 3 };
    let err = run_recovering(topo, procs, FaultPlan::none(), &mut RoundRobin::new(), cfg)
        .unwrap_err();
    assert!(matches!(err, RunError::Deadlock { .. }), "got {err}");
}
