//! The deterministic simulated runner.
//!
//! [`Simulator`] interleaves atomic actions of a process collection one at a
//! time under a [`SchedulePolicy`], maintaining channel queues in its own
//! address space — the executable counterpart of the paper's §3.1 recipe for
//! simulating a parallel program:
//!
//! 1. simulate concurrent execution by interleaving actions from processes;
//! 2. simulate separate address spaces with distinct data structures;
//! 3. represent channels as queues, never reading from an empty one.
//!
//! A run terminates when every process has halted; the interleaving taken is
//! then *maximal* and the final state is the vector of process snapshots.
//! Running the same collection under different policies and comparing
//! outcomes is the empirical form of Theorem 1.

use std::collections::VecDeque;

use crate::chan::{ChannelId, Topology};
use crate::error::RunError;
use crate::fault::FaultPlan;
use crate::observer::{NoopObserver, StepEvent, StepObserver};
use crate::policy::SchedulePolicy;
use crate::proc::{Effect, ProcId, Process};
use crate::trace::{Event, EventKind, RunMetrics, Trace};
use crate::waitgraph::{self, BlockKind};

/// Result of a terminated simulated run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Byte snapshot of each process's final state, indexed by process id.
    pub snapshots: Vec<Vec<u8>>,
    /// The maximal interleaving that was executed.
    pub trace: Trace,
    /// The exact pick sequence the policy produced. This is a superset of
    /// [`Trace::schedule`]: a pick that merely *declares* a blocking
    /// receive performs no visible action and records no trace event, but
    /// still consumed a scheduling slot. Feeding `picks` to
    /// [`crate::policy::FixedSchedule`] replays the run exactly.
    pub picks: Vec<ProcId>,
    /// Number of atomic actions taken (equals `trace.len()`).
    pub steps: u64,
    /// High-water mark of total queued messages across all channels — the
    /// "slack" the run actually used. Infinite-slack channels make this
    /// unbounded in principle; observing it shows how adversarial schedules
    /// inflate buffering.
    pub max_queued: usize,
    /// Per-channel and per-process execution metrics (message counts,
    /// payload bytes, queue-depth high-water marks, block accounting).
    pub metrics: RunMetrics,
}

impl RunOutcome {
    /// True if `self` and `other` ended in the same final state
    /// (bitwise-identical snapshots for every process) — the equivalence
    /// Theorem 1 guarantees.
    pub fn same_final_state(&self, other: &RunOutcome) -> bool {
        self.snapshots == other.snapshots
    }
}

enum Status<M> {
    /// Can be resumed with `None`.
    Ready,
    /// Waiting for a message on the channel; runnable iff queue non-empty.
    BlockedRecv(ChannelId),
    /// Waiting for space on a bounded channel or for the channel's send
    /// frontier to rise; holds the undelivered message.
    BlockedSend(ChannelId, M),
    /// Terminated.
    Halted,
}

/// Public mirror of a process's scheduling status, used when a simulator's
/// state is exported ([`Simulator::into_state`]) to seed another backend —
/// notably the threaded scheduler resuming from a replayed checkpoint.
#[derive(Debug, Clone)]
pub enum ProcState<M> {
    /// Can be resumed with no delivery.
    Ready,
    /// A receive is posted on the channel; the delivery has not happened.
    BlockedRecv(ChannelId),
    /// A send is pending on a full bounded channel or at a send frontier;
    /// holds the message.
    BlockedSend(ChannelId, M),
    /// The process has halted.
    Halted,
}

/// The full data plane of a simulator at some consistent cut: processes
/// (mid-state), their statuses, the in-flight queue contents, and the
/// metrics accumulated so far. Any backend that starts from this state and
/// runs to completion reaches the same final state as continuing the
/// simulation would (Theorem 1: the steps before the cut plus the steps
/// after form one maximal interleaving).
pub struct SimState<P: Process> {
    /// The processes, each at its post-prefix state.
    pub procs: Vec<P>,
    /// Per-process scheduling status at the cut.
    pub status: Vec<ProcState<P::Msg>>,
    /// Per-channel in-flight messages, FIFO order.
    pub queues: Vec<VecDeque<P::Msg>>,
    /// Metrics accumulated by the prefix (steps, sends, channel counters);
    /// a resuming backend continues these counts, keeping proc-local step
    /// ordinals (which key fault injection) consistent across the cut.
    pub metrics: RunMetrics,
}

/// Simulated executor for one process collection over one topology.
pub struct Simulator<P: Process> {
    topo: Topology,
    procs: Vec<P>,
    status: Vec<Status<P::Msg>>,
    queues: Vec<VecDeque<P::Msg>>,
    metrics: RunMetrics,
    /// Per-channel send frontier: a send completes only while the
    /// channel's sent count is below it (`u64::MAX` = no frontier).
    frontier: Vec<u64>,
    /// Maximum atomic actions before aborting with [`RunError::StepLimit`].
    pub step_limit: u64,
}

impl<P: Process + Clone> Clone for Simulator<P>
where
    P::Msg: Clone,
{
    fn clone(&self) -> Self {
        Simulator {
            topo: self.topo.clone(),
            procs: self.procs.clone(),
            status: self
                .status
                .iter()
                .map(|s| match s {
                    Status::Ready => Status::Ready,
                    Status::BlockedRecv(c) => Status::BlockedRecv(*c),
                    Status::BlockedSend(c, m) => Status::BlockedSend(*c, m.clone()),
                    Status::Halted => Status::Halted,
                })
                .collect(),
            queues: self.queues.clone(),
            metrics: self.metrics.clone(),
            frontier: self.frontier.clone(),
            step_limit: self.step_limit,
        }
    }
}

impl<P: Process> Simulator<P> {
    /// Build a simulator. `procs[i]` is process `i`; its length must match
    /// the topology's process count.
    pub fn new(topo: Topology, procs: Vec<P>) -> Self {
        assert_eq!(
            procs.len(),
            topo.n_procs(),
            "process count must match topology"
        );
        let n_chans = topo.n_channels();
        let n_procs = procs.len();
        let metrics = RunMetrics::for_topology(&topo);
        Simulator {
            topo,
            procs,
            status: (0..n_procs).map(|_| Status::Ready).collect(),
            queues: (0..n_chans).map(|_| VecDeque::new()).collect(),
            metrics,
            frontier: vec![u64::MAX; n_chans],
            step_limit: u64::MAX,
        }
    }

    /// Set the step limit (builder style).
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Hold every send on `chan` once the channel has carried `frontier`
    /// messages (`None` lifts the hold). A held writer blocks exactly as on
    /// a full bounded channel, and raising the frontier later completes
    /// its send as a step of its own. This lets an external stepper run the
    /// program no further than an observed execution on that channel.
    pub fn set_send_frontier(&mut self, chan: ChannelId, frontier: Option<u64>) {
        self.frontier[chan.0] = frontier.unwrap_or(u64::MAX);
    }

    /// The messages in flight on `chan`, oldest first.
    pub fn queue(&self, chan: ChannelId) -> &VecDeque<P::Msg> {
        &self.queues[chan.0]
    }

    /// True if a send on `chan` may complete now: the channel has space and
    /// its sent count is below its frontier.
    fn can_send(&self, chan: ChannelId) -> bool {
        self.topo.spec(chan).capacity.is_none_or(|k| self.queues[chan.0].len() < k)
            && self.metrics.channels[chan.0].messages < self.frontier[chan.0]
    }

    /// True if process `p` can take a step now.
    pub fn is_runnable(&self, p: ProcId) -> bool {
        match &self.status[p] {
            Status::Ready => true,
            Status::BlockedRecv(c) => !self.queues[c.0].is_empty(),
            Status::BlockedSend(c, _) => self.can_send(*c),
            Status::Halted => false,
        }
    }

    fn blocked_list(&self) -> Vec<(ProcId, ChannelId, BlockKind)> {
        self.status
            .iter()
            .enumerate()
            .filter_map(|(p, s)| match s {
                Status::BlockedRecv(c) => Some((p, *c, BlockKind::Recv)),
                Status::BlockedSend(c, _) => Some((p, *c, BlockKind::Send)),
                _ => None,
            })
            .collect()
    }

    /// Handle the effect a process returned from `resume`, updating its
    /// status and the queues, and record the corresponding event.
    fn apply_effect(
        &mut self,
        p: ProcId,
        eff: Effect<P::Msg>,
        trace: &mut Trace,
        obs: &mut dyn StepObserver,
    ) -> Result<(), RunError> {
        match eff {
            Effect::Compute { units } => {
                trace.push(Event { proc: p, kind: EventKind::Computed { units } });
                self.metrics.procs[p].compute_units += units;
                self.status[p] = Status::Ready;
                obs.on_event(StepEvent::Computed { proc: p, units });
            }
            Effect::Send { chan, msg } => {
                self.topo.check_writer(chan, p)?;
                let bytes = P::msg_size_bytes(&msg);
                if !self.can_send(chan) {
                    // Full bounded channel (non-paper model) or a send
                    // frontier: hold the message and block until it may go.
                    self.status[p] = Status::BlockedSend(chan, msg);
                    obs.on_event(StepEvent::SendBlocked { proc: p, chan, bytes });
                } else {
                    self.queues[chan.0].push_back(msg);
                    self.metrics.on_send(chan, bytes, self.queues[chan.0].len());
                    trace.push(Event { proc: p, kind: EventKind::Sent { chan } });
                    self.status[p] = Status::Ready;
                    obs.on_event(StepEvent::Sent { proc: p, chan, bytes });
                }
            }
            Effect::Recv { chan } => {
                self.topo.check_reader(chan, p)?;
                // The receive itself (delivery) is a separate atomic action,
                // taken when this process is next scheduled and the queue is
                // non-empty.
                self.status[p] = Status::BlockedRecv(chan);
                obs.on_event(StepEvent::RecvPosted { proc: p, chan });
            }
            Effect::Halt => {
                trace.push(Event { proc: p, kind: EventKind::Halted });
                self.status[p] = Status::Halted;
                obs.on_event(StepEvent::Halted { proc: p });
            }
            Effect::Fault { error } => {
                // The process detected an unrecoverable condition; mark it
                // halted so it is never resumed again and abort the run.
                self.status[p] = Status::Halted;
                return Err(error);
            }
        }
        Ok(())
    }

    /// Take one atomic step for process `p` (which must be runnable).
    fn step(
        &mut self,
        p: ProcId,
        trace: &mut Trace,
        obs: &mut dyn StepObserver,
    ) -> Result<(), RunError> {
        // Temporarily replace the status to take ownership of any held message.
        let status = std::mem::replace(&mut self.status[p], Status::Ready);
        self.metrics.procs[p].steps += 1;
        match status {
            Status::Ready => {
                let eff = self.procs[p].resume(None);
                self.apply_effect(p, eff, trace, obs)?;
            }
            Status::BlockedRecv(chan) => {
                let msg = self.queues[chan.0]
                    .pop_front()
                    .expect("scheduled a recv-blocked process with empty queue");
                trace.push(Event { proc: p, kind: EventKind::Received { chan } });
                self.metrics.on_recv(chan);
                obs.on_event(StepEvent::Received { proc: p, chan });
                let eff = self.procs[p].resume(Some(msg));
                self.apply_effect(p, eff, trace, obs)?;
            }
            Status::BlockedSend(chan, msg) => {
                // The send may go now: complete it. The process is not
                // resumed this step; the send is the action.
                let bytes = P::msg_size_bytes(&msg);
                self.queues[chan.0].push_back(msg);
                self.metrics.on_send(chan, bytes, self.queues[chan.0].len());
                trace.push(Event { proc: p, kind: EventKind::Sent { chan } });
                self.status[p] = Status::Ready;
                obs.on_event(StepEvent::Sent { proc: p, chan, bytes });
            }
            Status::Halted => unreachable!("halted processes are never scheduled"),
        }
        Ok(())
    }

    /// The currently runnable processes (empty + not all halted ⇒ deadlock).
    /// Public for interactive exploration: exhaustive interleaving
    /// enumeration branches on exactly this set.
    pub fn runnable(&self) -> Vec<ProcId> {
        (0..self.procs.len()).filter(|&p| self.is_runnable(p)).collect()
    }

    /// [`Simulator::runnable`] under a fault plan: processes whose pending
    /// delivery is withheld by an active channel stall are excluded.
    ///
    /// A stall may delay deliveries but must never fabricate a deadlock
    /// (Theorem 1: stalls cannot change outcomes, so they cannot *create*
    /// a stuck state): if filtering would empty a non-empty runnable set,
    /// the stalls are released for this step and the unfiltered set is
    /// returned.
    pub fn runnable_under(&self, faults: &FaultPlan) -> Vec<ProcId> {
        let base = self.runnable();
        let filtered: Vec<ProcId> = base
            .iter()
            .copied()
            .filter(|&p| {
                !matches!(&self.status[p],
                          Status::BlockedRecv(c) if faults.delivery_withheld(*c))
            })
            .collect();
        if filtered.is_empty() {
            base
        } else {
            filtered
        }
    }

    /// True when every process has halted (the interleaving is maximal).
    pub fn is_done(&self) -> bool {
        self.status.iter().all(|s| matches!(s, Status::Halted))
    }

    /// Take one atomic step for runnable process `p`, appending its event to
    /// `trace`. Public counterpart of the internal stepper, for interactive
    /// exploration.
    pub fn step_process(&mut self, p: ProcId, trace: &mut Trace) -> Result<(), RunError> {
        self.step_process_with(p, trace, &mut NoopObserver)
    }

    /// [`Simulator::step_process`] with a [`StepObserver`] that is told
    /// exactly what the step did (including the non-actions a trace omits:
    /// posted receives and blocked sends). External steppers — notably the
    /// `perf-sim` discrete-event engine — use this to reuse the simulator's
    /// semantics instead of reimplementing them.
    pub fn step_process_with(
        &mut self,
        p: ProcId,
        trace: &mut Trace,
        obs: &mut dyn StepObserver,
    ) -> Result<(), RunError> {
        assert!(self.is_runnable(p), "step_process requires a runnable process");
        self.step(p, trace, obs)
    }

    /// [`Simulator::step_process_with`] under a fault plan.
    ///
    /// If the plan holds a crash for `p` at the step it is about to take
    /// (its own, process-local step count — schedule-independent by the
    /// paper's model), the process is marked halted, the crash is consumed
    /// from the plan, and [`RunError::Injected`] is returned. Otherwise the
    /// step proceeds normally and the plan's stall bookkeeping (global tick
    /// count, per-channel delivery counts) is advanced.
    pub fn step_process_injected(
        &mut self,
        p: ProcId,
        faults: &mut FaultPlan,
        trace: &mut Trace,
        obs: &mut dyn StepObserver,
    ) -> Result<(), RunError> {
        assert!(self.is_runnable(p), "step_process requires a runnable process");
        let local_step = self.metrics.procs[p].steps + 1;
        if let Some(crash) = faults.take_crash(p, local_step) {
            self.status[p] = Status::Halted;
            return Err(RunError::Injected { proc: p, step: crash.at_step });
        }
        let delivering = match &self.status[p] {
            Status::BlockedRecv(c) if !self.queues[c.0].is_empty() => Some(*c),
            _ => None,
        };
        let r = self.step(p, trace, obs);
        faults.tick();
        if let Some(c) = delivering {
            faults.note_recv(c);
        }
        r
    }

    /// The typed deadlock error describing the *current* blocked
    /// configuration (every process blocked, none runnable). External
    /// steppers call this when [`Simulator::runnable`] comes back empty
    /// before [`Simulator::is_done`], so they report the same wait-for
    /// cycles [`Simulator::run`] would.
    pub fn deadlock_error(&self) -> RunError {
        waitgraph::deadlock_error(&self.topo, &self.blocked_list())
    }

    /// The communication metrics accumulated so far (complete once
    /// [`Simulator::is_done`]). External steppers read these instead of
    /// re-counting traffic themselves.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Snapshot every process's current state (meaningful once
    /// [`Simulator::is_done`], but callable at any point).
    pub fn snapshots_now(&self) -> Vec<Vec<u8>> {
        self.procs.iter().map(|p| p.snapshot()).collect()
    }

    /// A canonical fingerprint of the *entire* simulator state — process
    /// snapshots and progress counters, statuses, and queue contents
    /// (encoded by `msg_bytes`). Two simulators with equal fingerprints are
    /// behaviourally identical, so state-graph exploration may merge them.
    pub fn state_fingerprint(&self, msg_bytes: impl Fn(&P::Msg) -> Vec<u8>) -> Vec<u8> {
        let mut buf = Vec::new();
        for p in &self.procs {
            let snap = p.snapshot();
            buf.extend_from_slice(&(snap.len() as u64).to_le_bytes());
            buf.extend_from_slice(&snap);
            buf.extend_from_slice(&p.progress().to_le_bytes());
        }
        for s in &self.status {
            match s {
                Status::Ready => buf.push(0),
                Status::BlockedRecv(c) => {
                    buf.push(1);
                    buf.extend_from_slice(&(c.0 as u64).to_le_bytes());
                }
                Status::BlockedSend(c, m) => {
                    buf.push(2);
                    buf.extend_from_slice(&(c.0 as u64).to_le_bytes());
                    let mb = msg_bytes(m);
                    buf.extend_from_slice(&(mb.len() as u64).to_le_bytes());
                    buf.extend_from_slice(&mb);
                }
                Status::Halted => buf.push(3),
            }
        }
        for q in &self.queues {
            buf.extend_from_slice(&(q.len() as u64).to_le_bytes());
            for m in q {
                let mb = msg_bytes(m);
                buf.extend_from_slice(&(mb.len() as u64).to_le_bytes());
                buf.extend_from_slice(&mb);
            }
        }
        buf
    }

    /// Export the simulator's entire data plane for another backend to
    /// resume from (see [`SimState`]). Consumes the simulator: the state is
    /// moved, not copied.
    pub fn into_state(self) -> SimState<P> {
        SimState {
            procs: self.procs,
            status: self
                .status
                .into_iter()
                .map(|s| match s {
                    Status::Ready => ProcState::Ready,
                    Status::BlockedRecv(c) => ProcState::BlockedRecv(c),
                    Status::BlockedSend(c, m) => ProcState::BlockedSend(c, m),
                    Status::Halted => ProcState::Halted,
                })
                .collect(),
            queues: self.queues,
            metrics: self.metrics,
        }
    }

    /// Run to termination under `policy`, producing the maximal interleaving
    /// taken and the final state.
    pub fn run(self, policy: &mut dyn SchedulePolicy) -> Result<RunOutcome, RunError> {
        self.run_observed(policy, &mut NoopObserver)
    }

    /// [`Simulator::run`] under a fault plan: channel stalls delay
    /// deliveries (without changing the final state — Theorem 1), and the
    /// first crash that fires aborts the run with [`RunError::Injected`].
    /// For crash *recovery* rather than mere injection, use
    /// [`crate::recover::run_recovering`], which wraps this stepping with
    /// checkpoints and a restart supervisor.
    pub fn run_injected(
        self,
        policy: &mut dyn SchedulePolicy,
        faults: &mut FaultPlan,
    ) -> Result<RunOutcome, RunError> {
        self.run_loop(policy, faults, &mut NoopObserver)
    }

    /// [`Simulator::run`] with every atomic action reported to `obs`.
    pub fn run_observed(
        self,
        policy: &mut dyn SchedulePolicy,
        obs: &mut dyn StepObserver,
    ) -> Result<RunOutcome, RunError> {
        self.run_loop(policy, &mut FaultPlan::none(), obs)
    }

    /// The one stepping loop: pick a runnable process under `policy` (with
    /// `faults` withholding stalled deliveries), step it, repeat until every
    /// process halts. Fault-free runs pass the empty plan.
    fn run_loop(
        mut self,
        policy: &mut dyn SchedulePolicy,
        faults: &mut FaultPlan,
        obs: &mut dyn StepObserver,
    ) -> Result<RunOutcome, RunError> {
        let mut trace = Trace::new();
        let mut picks = Vec::new();
        let mut steps: u64 = 0;
        let mut max_queued = 0usize;
        while !self.is_done() {
            let runnable = self.runnable_under(faults);
            if runnable.is_empty() {
                return Err(self.deadlock_error());
            }
            if steps >= self.step_limit {
                return Err(RunError::StepLimit { limit: self.step_limit });
            }
            let p = policy.pick(&runnable);
            debug_assert!(runnable.contains(&p), "policy must pick a runnable process");
            picks.push(p);
            // Every blocked, non-runnable process loses this scheduling slot:
            // one blocked step of virtual time.
            for (q, _, _) in self.blocked_list() {
                if !self.is_runnable(q) {
                    self.metrics.procs[q].blocked_steps += 1;
                }
            }
            self.step_process_injected(p, faults, &mut trace, obs)?;
            steps += 1;
            let queued: usize = self.queues.iter().map(|q| q.len()).sum();
            max_queued = max_queued.max(queued);
        }
        let snapshots = self.procs.iter().map(|p| p.snapshot()).collect();
        let metrics = std::mem::take(&mut self.metrics);
        Ok(RunOutcome { snapshots, trace, steps, max_queued, picks, metrics })
    }
}

/// Convenience: build and run in one call.
pub fn run_simulated<P: Process>(
    topo: Topology,
    procs: Vec<P>,
    policy: &mut dyn SchedulePolicy,
) -> Result<RunOutcome, RunError> {
    Simulator::new(topo, procs).run(policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::ChannelSpec;
    use crate::policy::{Adversary, AdversarialPolicy, RandomPolicy, RoundRobin};
    use crate::proc::{push_f64, push_u64};

    /// A process that sends `count` increasing integers then halts, or
    /// receives `count` integers, sums them, then halts.
    enum PingPong {
        Sender { chan: ChannelId, next: u64, count: u64 },
        Receiver { chan: ChannelId, got: u64, sum: u64, count: u64 },
    }

    impl Process for PingPong {
        type Msg = u64;

        fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
            match self {
                PingPong::Sender { chan, next, count } => {
                    if *next < *count {
                        let msg = *next;
                        *next += 1;
                        Effect::Send { chan: *chan, msg }
                    } else {
                        Effect::Halt
                    }
                }
                PingPong::Receiver { chan, got, sum, count } => {
                    if let Some(m) = delivery {
                        *sum = sum.wrapping_mul(31).wrapping_add(m);
                        *got += 1;
                    }
                    if *got < *count {
                        Effect::Recv { chan: *chan }
                    } else {
                        Effect::Halt
                    }
                }
            }
        }

        fn snapshot(&self) -> Vec<u8> {
            let mut buf = Vec::new();
            match self {
                PingPong::Sender { next, .. } => push_u64(&mut buf, *next),
                PingPong::Receiver { sum, .. } => push_u64(&mut buf, *sum),
            }
            buf
        }
    }

    fn pair(count: u64) -> (Topology, Vec<PingPong>) {
        let mut topo = Topology::new(2);
        let c = topo.connect(0, 1);
        let procs = vec![
            PingPong::Sender { chan: c, next: 0, count },
            PingPong::Receiver { chan: c, got: 0, sum: 0, count },
        ];
        (topo, procs)
    }

    #[test]
    fn messages_arrive_in_fifo_order() {
        let (topo, procs) = pair(10);
        let out = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        // The receiver's order-sensitive hash must equal the in-order hash.
        let mut expect: u64 = 0;
        for m in 0..10u64 {
            expect = expect.wrapping_mul(31).wrapping_add(m);
        }
        let mut buf = Vec::new();
        push_u64(&mut buf, expect);
        assert_eq!(out.snapshots[1], buf);
    }

    #[test]
    fn all_policies_agree_on_final_state() {
        let run = |policy: &mut dyn SchedulePolicy| {
            let (topo, procs) = pair(25);
            run_simulated(topo, procs, policy).unwrap()
        };
        let reference = run(&mut RoundRobin::new());
        let outcomes = [
            run(&mut AdversarialPolicy::new(Adversary::LowestFirst)),
            run(&mut AdversarialPolicy::new(Adversary::HighestFirst)),
            run(&mut AdversarialPolicy::new(Adversary::PingPong)),
            run(&mut RandomPolicy::seeded(1)),
            run(&mut RandomPolicy::seeded(2)),
        ];
        for o in &outcomes {
            assert!(reference.same_final_state(o));
        }
    }

    #[test]
    fn lowest_first_maximizes_queueing() {
        // Under LowestFirst the sender (process 0) runs to completion before
        // the receiver ever drains: the queue peaks at the full message count.
        let (topo, procs) = pair(25);
        let out = run_simulated(
            topo,
            procs,
            &mut AdversarialPolicy::new(Adversary::LowestFirst),
        )
        .unwrap();
        assert_eq!(out.max_queued, 25);

        // Round-robin drains as it goes: strictly less buffering.
        let (topo, procs) = pair(25);
        let rr = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        assert!(rr.max_queued < 25);
    }

    #[test]
    fn recv_from_never_written_channel_deadlocks() {
        let mut topo = Topology::new(2);
        let c = topo.connect(0, 1);
        // Sender sends nothing; receiver expects one message.
        let procs = vec![
            PingPong::Sender { chan: c, next: 0, count: 0 },
            PingPong::Receiver { chan: c, got: 0, sum: 0, count: 1 },
        ];
        let err = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap_err();
        match err {
            RunError::Deadlock { blocked, cycle } => {
                assert_eq!(blocked.len(), 1);
                assert_eq!((blocked[0].proc, blocked[0].chan), (1, c));
                assert_eq!(blocked[0].kind, BlockKind::Recv);
                assert_eq!(blocked[0].on, 0, "waiting on the channel's writer");
                assert!(cycle.is_empty(), "writer halted: no wait-for cycle");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn bounded_channels_block_senders_but_still_complete_here() {
        // With capacity 1 and an eager sender, the sender blocks between
        // messages; the run still completes because the receiver drains.
        let mut topo = Topology::new(2);
        let c = topo.add(ChannelSpec::bounded(0, 1, 1));
        let procs = vec![
            PingPong::Sender { chan: c, next: 0, count: 8 },
            PingPong::Receiver { chan: c, got: 0, sum: 0, count: 8 },
        ];
        let out = run_simulated(
            topo,
            procs,
            &mut AdversarialPolicy::new(Adversary::LowestFirst),
        )
        .unwrap();
        assert_eq!(out.max_queued, 1, "capacity bound respected");
    }

    #[test]
    fn step_limit_aborts_long_runs() {
        let (topo, procs) = pair(100);
        let err = Simulator::new(topo, procs)
            .with_step_limit(5)
            .run(&mut RoundRobin::new())
            .unwrap_err();
        assert_eq!(err, RunError::StepLimit { limit: 5 });
    }

    /// Two processes that each send one message to the other and then
    /// receive — the safe "all sends before any receives" ordering of §3.3.
    struct ExchangeOk {
        out: ChannelId,
        inp: ChannelId,
        sent: bool,
        value: f64,
        received: Option<f64>,
    }

    impl Process for ExchangeOk {
        type Msg = f64;
        fn resume(&mut self, delivery: Option<f64>) -> Effect<f64> {
            if let Some(v) = delivery {
                self.received = Some(v);
                return Effect::Halt;
            }
            if !self.sent {
                self.sent = true;
                Effect::Send { chan: self.out, msg: self.value }
            } else {
                Effect::Recv { chan: self.inp }
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut buf = Vec::new();
            push_f64(&mut buf, self.received.unwrap_or(f64::NAN));
            buf
        }
    }

    #[test]
    fn symmetric_exchange_sends_before_receives_terminates() {
        let mut topo = Topology::new(2);
        let c01 = topo.connect(0, 1);
        let c10 = topo.connect(1, 0);
        let procs = vec![
            ExchangeOk { out: c01, inp: c10, sent: false, value: 1.0, received: None },
            ExchangeOk { out: c10, inp: c01, sent: false, value: 2.0, received: None },
        ];
        let out = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        let mut b0 = Vec::new();
        push_f64(&mut b0, 2.0);
        let mut b1 = Vec::new();
        push_f64(&mut b1, 1.0);
        assert_eq!(out.snapshots, vec![b0, b1]);
    }

    /// The *undisciplined* exchange: receive first, then send — the ordering
    /// §3.3 warns against. Fine with infinite slack? No — even with infinite
    /// slack this deadlocks, since neither process ever reaches its send.
    struct ExchangeBad {
        out: ChannelId,
        inp: ChannelId,
        received: Option<f64>,
        value: f64,
        sent: bool,
    }

    impl Process for ExchangeBad {
        type Msg = f64;
        fn resume(&mut self, delivery: Option<f64>) -> Effect<f64> {
            if let Some(v) = delivery {
                self.received = Some(v);
            }
            if self.received.is_none() {
                return Effect::Recv { chan: self.inp };
            }
            if !self.sent {
                self.sent = true;
                return Effect::Send { chan: self.out, msg: self.value };
            }
            Effect::Halt
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut buf = Vec::new();
            push_f64(&mut buf, self.received.unwrap_or(f64::NAN));
            buf
        }
    }

    #[test]
    fn receive_before_send_exchange_reports_the_wait_for_cycle() {
        let mut topo = Topology::new(2);
        let c01 = topo.connect(0, 1);
        let c10 = topo.connect(1, 0);
        let procs = vec![
            ExchangeBad { out: c01, inp: c10, received: None, value: 1.0, sent: false },
            ExchangeBad { out: c10, inp: c01, received: None, value: 2.0, sent: false },
        ];
        let err = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap_err();
        let RunError::Deadlock { blocked, cycle } = err else {
            panic!("expected a typed deadlock");
        };
        assert_eq!(blocked.len(), 2);
        assert_eq!(cycle.len(), 2, "0 waits on 1 waits on 0");
        assert!(cycle.iter().all(|w| w.kind == BlockKind::Recv));
        assert_eq!(cycle[0].on, cycle[1].proc);
        assert_eq!(cycle[1].on, cycle[0].proc);
    }

    #[test]
    fn send_side_deadlock_names_the_cycle_at_slack_one() {
        // Both processes send TWO messages before receiving any, over
        // capacity-1 channels: the second send blocks each process, and the
        // deadlock is on the send side.
        struct TwoSends {
            out: ChannelId,
            inp: ChannelId,
            sent: u64,
            got: u64,
        }
        impl Process for TwoSends {
            type Msg = u64;
            fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
                if delivery.is_some() {
                    self.got += 1;
                }
                if self.sent < 2 {
                    self.sent += 1;
                    return Effect::Send { chan: self.out, msg: self.sent };
                }
                if self.got < 2 {
                    return Effect::Recv { chan: self.inp };
                }
                Effect::Halt
            }
            fn snapshot(&self) -> Vec<u8> {
                let mut buf = Vec::new();
                push_u64(&mut buf, self.got);
                buf
            }
        }
        let mut topo = Topology::new(2);
        let c01 = topo.add(ChannelSpec::bounded(0, 1, 1));
        let c10 = topo.add(ChannelSpec::bounded(1, 0, 1));
        let procs = vec![
            TwoSends { out: c01, inp: c10, sent: 0, got: 0 },
            TwoSends { out: c10, inp: c01, sent: 0, got: 0 },
        ];
        let err = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap_err();
        let RunError::Deadlock { cycle, .. } = err else {
            panic!("expected a typed deadlock");
        };
        assert_eq!(cycle.len(), 2);
        assert!(cycle.iter().all(|w| w.kind == BlockKind::Send));
    }

    #[test]
    fn metrics_profile_a_simple_run() {
        let (topo, procs) = pair(10);
        let out = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        let m = &out.metrics;
        assert_eq!(m.channels[0].messages, 10);
        assert_eq!(m.procs[0].sends, 10);
        assert_eq!(m.procs[1].receives, 10);
        assert_eq!(m.total_messages(), 10);
        assert!(m.max_queue_depth() >= 1);
        assert_eq!(m.max_queue_depth(), out.max_queued, "single channel: marks agree");
        // PingPong messages are u64 but msg_size_bytes is not overridden.
        assert_eq!(m.total_bytes(), 0);
        let json = m.to_json();
        assert!(json.contains("\"messages\":10"));

        // Under HighestFirst the receiver runs first, blocks on the empty
        // channel, and loses scheduling slots while the sender catches up.
        let (topo, procs) = pair(10);
        let out = run_simulated(
            topo,
            procs,
            &mut AdversarialPolicy::new(Adversary::HighestFirst),
        )
        .unwrap();
        assert!(out.metrics.procs[1].blocked_steps > 0);
    }

    #[test]
    fn observer_sees_every_action_with_matching_counts() {
        use crate::observer::{RecordingObserver, StepEvent};
        let (topo, procs) = pair(5);
        let mut rec = RecordingObserver::default();
        let out = Simulator::new(topo, procs)
            .run_observed(&mut RoundRobin::new(), &mut rec)
            .unwrap();

        let count = |f: &dyn Fn(&StepEvent) -> bool| rec.events.iter().filter(|e| f(e)).count();
        let sent = count(&|e| matches!(e, StepEvent::Sent { .. }));
        let received = count(&|e| matches!(e, StepEvent::Received { .. }));
        let posted = count(&|e| matches!(e, StepEvent::RecvPosted { .. }));
        let halted = count(&|e| matches!(e, StepEvent::Halted { .. }));
        assert_eq!(sent as u64, out.metrics.total_messages());
        assert_eq!(received as u64, out.metrics.procs[1].receives);
        assert_eq!(posted, received, "every delivery was awaited first");
        assert_eq!(halted, 2);
        // Observation is strictly richer than the trace: posted receives are
        // not interleaving actions, so they appear only here.
        assert_eq!(rec.events.len(), out.trace.len() + posted);
    }

    #[test]
    fn observer_reports_blocked_sends_on_bounded_channels() {
        use crate::observer::{RecordingObserver, StepEvent};
        let mut topo = Topology::new(2);
        let c = topo.add(ChannelSpec::bounded(0, 1, 1));
        let procs = vec![
            PingPong::Sender { chan: c, next: 0, count: 3 },
            PingPong::Receiver { chan: c, got: 0, sum: 0, count: 3 },
        ];
        let mut rec = RecordingObserver::default();
        // LowestFirst drives the sender into the full channel immediately.
        Simulator::new(topo, procs)
            .run_observed(&mut AdversarialPolicy::new(Adversary::LowestFirst), &mut rec)
            .unwrap();
        let blocked = rec
            .events
            .iter()
            .filter(|e| matches!(e, StepEvent::SendBlocked { proc: 0, .. }))
            .count();
        let sent = rec.events.iter().filter(|e| matches!(e, StepEvent::Sent { .. })).count();
        assert!(blocked >= 1, "capacity-1 channel must block the eager sender");
        assert_eq!(sent, 3, "every blocked send eventually completes as Sent");
    }

    #[test]
    fn fault_effect_aborts_the_run_with_its_error() {
        struct Faulty;
        impl Process for Faulty {
            type Msg = ();
            fn resume(&mut self, _d: Option<()>) -> Effect<()> {
                Effect::Fault {
                    error: RunError::Protocol { proc: 0, detail: "bad message".into() },
                }
            }
            fn snapshot(&self) -> Vec<u8> {
                Vec::new()
            }
        }
        let topo = Topology::new(1);
        let err = run_simulated(topo, vec![Faulty], &mut RoundRobin::new()).unwrap_err();
        assert_eq!(err, RunError::Protocol { proc: 0, detail: "bad message".into() });
    }

    #[test]
    fn injected_crash_aborts_with_typed_error_and_is_consumed() {
        use crate::fault::FaultPlan;
        let (topo, procs) = pair(10);
        let mut faults = FaultPlan::none().crash(0, 3);
        let err = Simulator::new(topo, procs)
            .run_injected(&mut RoundRobin::new(), &mut faults)
            .unwrap_err();
        assert_eq!(err, RunError::Injected { proc: 0, step: 3 });
        assert!(faults.crashes().is_empty(), "a fired crash is one-shot");

        // With the crash consumed, a fresh run under the same plan completes
        // and matches an entirely uninjected run.
        let (topo, procs) = pair(10);
        let redo = Simulator::new(topo, procs)
            .run_injected(&mut RoundRobin::new(), &mut faults)
            .unwrap();
        let (topo, procs) = pair(10);
        let clean = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        assert!(redo.same_final_state(&clean));
    }

    #[test]
    fn channel_stalls_delay_delivery_but_never_change_the_final_state() {
        use crate::fault::FaultPlan;
        let (topo, procs) = pair(10);
        let c = ChannelId(0);
        // Stall the first and the fifth delivery, generously.
        let mut faults = FaultPlan::none().stall(c, 0, 7).stall(c, 4, 9);
        let stalled = Simulator::new(topo, procs)
            .run_injected(&mut RoundRobin::new(), &mut faults)
            .expect("stalls must not deadlock or abort");
        let (topo, procs) = pair(10);
        let clean = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        assert!(stalled.same_final_state(&clean), "Theorem 1: stalls are harmless");
        // The stalled run is a different interleaving (delivery was pushed
        // later), but still maximal.
        assert!(stalled.steps >= clean.steps);
    }

    #[test]
    fn stalls_never_fabricate_a_deadlock_when_only_the_reader_can_move() {
        use crate::fault::FaultPlan;
        // Sender finishes everything, then only the receiver remains — and
        // its one pending delivery is stalled "forever". The auto-release
        // rule must let the run complete.
        let (topo, procs) = pair(1);
        let mut faults = FaultPlan::none().stall(ChannelId(0), 0, u64::MAX / 2);
        let out = Simulator::new(topo, procs)
            .run_injected(&mut RoundRobin::new(), &mut faults)
            .expect("stall on the only runnable process must auto-release");
        let (topo, procs) = pair(1);
        let clean = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        assert!(out.same_final_state(&clean));
    }

    #[test]
    fn send_frontier_holds_the_writer_until_raised() {
        use crate::observer::{RecordingObserver, StepEvent};
        let (topo, procs) = pair(3);
        let c = ChannelId(0);
        let mut sim = Simulator::new(topo, procs);
        let mut trace = Trace::new();
        sim.set_send_frontier(c, Some(1));
        let mut rec = RecordingObserver::default();
        sim.step_process_with(0, &mut trace, &mut rec).unwrap();
        sim.step_process_with(0, &mut trace, &mut rec).unwrap();
        assert_eq!(
            rec.events,
            vec![
                StepEvent::Sent { proc: 0, chan: c, bytes: 0 },
                StepEvent::SendBlocked { proc: 0, chan: c, bytes: 0 },
            ]
        );
        assert!(!sim.is_runnable(0), "a writer held at its frontier is blocked");
        assert_eq!(sim.queue(c).len(), 1);

        // Raising the frontier completes the held send as a step of its
        // own: the writer is not resumed (it would send again).
        sim.set_send_frontier(c, Some(2));
        assert!(sim.is_runnable(0));
        let before = sim.snapshots_now()[0].clone();
        let mut rec = RecordingObserver::default();
        sim.step_process_with(0, &mut trace, &mut rec).unwrap();
        assert_eq!(rec.events, vec![StepEvent::Sent { proc: 0, chan: c, bytes: 0 }]);
        assert_eq!(sim.snapshots_now()[0], before);
        assert_eq!(sim.queue(c).iter().copied().collect::<Vec<_>>(), vec![0, 1]);

        // Lifting it runs on to the final state of an unheld run.
        sim.set_send_frontier(c, None);
        let held = sim.run(&mut RoundRobin::new()).unwrap();
        let (topo, procs) = pair(3);
        let free = run_simulated(topo, procs, &mut RoundRobin::new()).unwrap();
        assert!(held.same_final_state(&free));
    }

    #[test]
    fn fingerprint_tracks_state() {
        let (topo, procs) = pair(3);
        let sim = Simulator::new(topo, procs);
        // Fingerprints differ once any process steps.
        let f0 = sim.state_fingerprint(|m| m.to_le_bytes().to_vec());
        let mut sim = sim;
        let mut trace = Trace::new();
        sim.step_process(0, &mut trace).unwrap();
        let f1 = sim.state_fingerprint(|m| m.to_le_bytes().to_vec());
        assert_ne!(f0, f1);
    }
}
