//! Checkpoint/restart: crash-consistent execution on top of Theorem 1.
//!
//! The paper's Theorem 1 (§3.2) says every maximal interleaving of a
//! program in the §3.1 model reaches the same final state. A crashed and
//! restarted run *is* just another interleaving: the steps before the crash
//! plus the steps after the restore form a prefix-consistent execution of
//! the same deterministic processes, so checkpoint/restart is
//! semantics-preserving **by construction** — no fsync ordering arguments,
//! no idempotence audits. The tests assert the strongest form of this:
//! recovered final states are *bitwise identical* to uninjected runs.
//!
//! Three pieces:
//!
//! * A checkpoint — a consistent cut of the whole system, taken every *K*
//!   steps by the supervisor. In process a cut *is* a [`Simulator`] value
//!   (process states, statuses, in-flight channel contents) plus the fault
//!   plan's bookkeeping and the length of the pick prefix that produced it;
//!   restoring is a clone. The one wire form of a cut is the
//!   fingerprint-sealed binary [`GroupManifest`] the distributed backend
//!   migrates ranks with.
//! * [`run_recovering`] — the supervisor: steps the simulator under a
//!   [`FaultPlan`], checkpoints every `checkpoint_every` steps, and on an
//!   injected crash (or a deadlock) restores the latest checkpoint and
//!   re-runs. Fired crashes stay consumed across restores (the plan lives
//!   outside the checkpointed state), so recovery cannot livelock on the
//!   same fault; `max_restarts` bounds genuinely recurring failures.
//! * [`run_threaded_recovering`] — the threaded counterpart. OS threads
//!   cannot be snapshotted mid-flight, so the supervisor borrows the
//!   simulator as its checkpointing device: it re-derives the crash
//!   frontier by simulation (process-local step ordinals are
//!   schedule-independent) and seeds a fresh pool straight from that cut —
//!   resuming, not restarting.

use crate::chan::Topology;
use crate::error::RunError;
use crate::fault::{Crash, FaultPlan};
use crate::observer::{NoopObserver, StepObserver};
use crate::policy::{RoundRobin, SchedulePolicy};
use crate::proc::{ProcId, Process};
use crate::sim::Simulator;
use crate::threaded::{run_threaded_faulted, run_whole, ThreadedConfig, ThreadedOutcome};
use crate::trace::{FlightKind, RunMetrics, Trace};

/// Supervisor tuning: how often to checkpoint and how many restarts to
/// tolerate before giving up.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Take a checkpoint after every this-many executed steps (≥ 1).
    pub checkpoint_every: u64,
    /// Abort (returning the triggering error) after this many restarts.
    pub max_restarts: usize,
}

impl RecoveryConfig {
    /// A config checkpointing every `k` steps with the default restart
    /// budget.
    pub fn every(k: u64) -> Self {
        RecoveryConfig { checkpoint_every: k.max(1), max_restarts: 8 }
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig::every(64)
    }
}

/// What recovery cost: the numbers `perf-sim` prices into overhead spans.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// How many times the supervisor restored a checkpoint and re-ran.
    pub restarts: u64,
    /// Checkpoints taken (excluding the implicit step-0 one).
    pub checkpoints_taken: u64,
    /// Steps that were executed, lost to a crash, and executed again.
    pub steps_reexecuted: u64,
    /// Steps executed *in the simulator* to rebuild a crash frontier for
    /// the threaded hybrid path ([`run_threaded_recovering`]); zero for
    /// purely simulated recovery and for the pre-PR 7 restart-from-scratch
    /// behavior this stat exists to guard against regressing to.
    pub steps_replayed: u64,
    /// The errors that triggered each restart, in order.
    pub faults_fired: Vec<RunError>,
}

/// Result of a recovered run: the same final state any uninjected run
/// reaches (Theorem 1), plus the recovery cost accounting.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// Byte snapshot of each process's final state, indexed by process id.
    pub snapshots: Vec<Vec<u8>>,
    /// The pick sequence of the final (successful) lineage: the latest
    /// checkpoint's prefix plus everything executed after it.
    pub picks: Vec<ProcId>,
    /// Steps of the final lineage (not counting steps lost to crashes).
    pub steps: u64,
    /// Execution metrics of the final lineage.
    pub metrics: RunMetrics,
    /// The interleaving of the final lineage.
    pub trace: Trace,
    /// Restart/checkpoint/re-execution accounting.
    pub stats: RecoveryStats,
}

/// A consistent cut of a run in progress: everything needed to resume as
/// if the steps after it never happened. The live lineage always extends
/// the latest cut's pick prefix and trace, so the cut keeps only their
/// lengths; a restore truncates them.
struct Checkpoint<P: Process> {
    step: u64,
    trace_len: usize,
    sim: Simulator<P>,
    faults: FaultPlan,
}

/// Run `procs` over `topo` under `policy` with `faults` injected,
/// checkpointing every [`RecoveryConfig::checkpoint_every`] steps and
/// recovering from crashes (and deadlocks) by restoring the latest
/// checkpoint and re-running — to completion, or until
/// [`RecoveryConfig::max_restarts`] is exhausted.
///
/// By Theorem 1 the recovered final state is bitwise identical to any
/// uninjected run's. Unrecoverable errors (protocol violations, step-limit
/// exhaustion — both of which would deterministically recur) abort
/// immediately.
pub fn run_recovering<P>(
    topo: Topology,
    procs: Vec<P>,
    faults: FaultPlan,
    policy: &mut dyn SchedulePolicy,
    cfg: RecoveryConfig,
) -> Result<RecoveryOutcome, RunError>
where
    P: Process + Clone,
    P::Msg: Clone,
{
    run_recovering_observed(topo, procs, faults, policy, cfg, &mut NoopObserver)
}

/// [`run_recovering`] with every atomic action of every lineage (including
/// steps later lost to a crash) reported to `obs`.
pub fn run_recovering_observed<P>(
    topo: Topology,
    procs: Vec<P>,
    mut faults: FaultPlan,
    policy: &mut dyn SchedulePolicy,
    cfg: RecoveryConfig,
    obs: &mut dyn StepObserver,
) -> Result<RecoveryOutcome, RunError>
where
    P: Process + Clone,
    P::Msg: Clone,
{
    let mut stats = RecoveryStats::default();
    let sim = Simulator::new(topo, procs);
    let (sim, picks, trace) =
        recover_until(sim, &mut faults, policy, cfg, &mut stats, obs, |_| false)?;
    Ok(RecoveryOutcome {
        snapshots: sim.snapshots_now(),
        steps: picks.len() as u64,
        picks,
        metrics: sim.metrics().clone(),
        trace,
        stats,
    })
}

/// The one recovery loop: step `sim` under `policy` with `faults` injected
/// until every process halts or `stop` holds, checkpointing every
/// [`RecoveryConfig::checkpoint_every`] steps. A crash that fires (or a
/// deadlock) restores the latest checkpoint and re-runs, up to
/// [`RecoveryConfig::max_restarts`] times. Returns the final lineage: its
/// simulator, pick sequence and trace.
///
/// The plan rolls back with each restore, except that every crash that has
/// *ever* fired stays consumed — else the same proc-local trigger would
/// re-fire on every lineage and recovery would livelock.
fn recover_until<P>(
    mut sim: Simulator<P>,
    faults: &mut FaultPlan,
    policy: &mut dyn SchedulePolicy,
    cfg: RecoveryConfig,
    stats: &mut RecoveryStats,
    obs: &mut dyn StepObserver,
    stop: impl Fn(&Simulator<P>) -> bool,
) -> Result<(Simulator<P>, Vec<ProcId>, Trace), RunError>
where
    P: Process + Clone,
    P::Msg: Clone,
{
    let every = cfg.checkpoint_every.max(1);
    let mut trace = Trace::new();
    let mut picks: Vec<ProcId> = Vec::new();
    let mut fired: Vec<Crash> = Vec::new();
    let mut latest = Checkpoint { step: 0, trace_len: 0, sim: sim.clone(), faults: faults.clone() };

    while !sim.is_done() && !stop(&sim) {
        let steps = picks.len() as u64;
        let runnable = sim.runnable_under(faults);
        let failure = if runnable.is_empty() {
            sim.deadlock_error()
        } else if steps >= sim.step_limit {
            // Would recur on every re-run: not recoverable.
            return Err(RunError::StepLimit { limit: sim.step_limit });
        } else {
            let p = policy.pick(&runnable);
            match sim.step_process_injected(p, faults, &mut trace, obs) {
                Ok(()) => {
                    picks.push(p);
                    if (steps + 1).is_multiple_of(every) {
                        latest = Checkpoint {
                            step: steps + 1,
                            trace_len: trace.len(),
                            sim: sim.clone(),
                            faults: faults.clone(),
                        };
                        stats.checkpoints_taken += 1;
                    }
                    continue;
                }
                Err(RunError::Injected { proc, step }) => {
                    fired.push(Crash { proc, at_step: step });
                    RunError::Injected { proc, step }
                }
                // Protocol violations etc. are deterministic program
                // bugs: re-running reproduces them, so don't.
                Err(e) => return Err(e),
            }
        };
        stats.faults_fired.push(failure.clone());
        stats.restarts += 1;
        if stats.restarts as usize > cfg.max_restarts {
            return Err(failure);
        }
        sim = latest.sim.clone();
        *faults = latest.faults.clone();
        for c in &fired {
            faults.remove_crash(*c);
        }
        trace.truncate(latest.trace_len);
        picks.truncate(latest.step as usize);
        stats.steps_reexecuted += steps - latest.step;
    }
    Ok((sim, picks, trace))
}

/// Crash recovery for the threaded backend — *resuming*, not restarting.
///
/// OS threads cannot be snapshotted mid-flight, so this path borrows the
/// simulator as its checkpointing device. On an injected crash at
/// `(proc, step)` the supervisor:
///
/// 1. re-derives the crash frontier by simulating the same deterministic
///    program to the cut where `proc` has completed `step − 1` actions
///    (sound by Theorem 1: process-local step ordinals are
///    schedule-independent, so the simulated prefix passes through the
///    state the threaded lineage crashed out of);
/// 2. seeds a fresh pool straight from that cut through the scheduler's
///    one launch ([`crate::sched::launch`], the same path a fresh run
///    takes from the zero cut) and runs to completion. The cut never
///    leaves the process, so it is the [`Simulator`] value itself (the
///    distributed supervisor, whose cuts do cross a process boundary,
///    migrates ranks through the binary [`GroupManifest`]).
///
/// Only the pre-crash prefix re-executes, once, in the cheap simulator;
/// the threaded run itself never restarts from scratch. Crashes that fire
/// during the frontier simulation itself are consumed and recovered by the same loop as
/// [`run_recovering`], with mini-checkpoints; watchdog-declared deadlocks
/// retry from the latest cut.
///
/// Step-ordinal caveat: for paper-model (unbounded) channels the two
/// backends count local steps identically. A *bounded* channel counts a
/// completed blocked send as a simulator step but not a threaded one, so
/// frontiers for such programs land near, not exactly on, the crash point
/// — the final state is bitwise exact either way (Theorem 1).
pub fn run_threaded_recovering<P, F>(
    topo: &Topology,
    make_procs: F,
    faults: FaultPlan,
    config: ThreadedConfig,
    cfg: RecoveryConfig,
) -> Result<(ThreadedOutcome, RecoveryStats), RunError>
where
    P: Process + Clone + 'static,
    P::Msg: Clone,
    F: Fn() -> Vec<P>,
{
    let mut faults = faults;
    let mut stats = RecoveryStats::default();
    // The cut to resume from; none until the first crash.
    let mut resume: Option<Simulator<P>> = None;
    // Cross-leg lifecycle marks `(kind, rank, bytes)`; each leg's flight
    // recorder (if any) starts a fresh epoch, so these are appended to the
    // *final* leg's log as a `lifecycle` lane ordered by ordinal, not by
    // wall clock.
    let mut lifecycle: Vec<(FlightKind, ProcId, u64)> = Vec::new();
    loop {
        let attempt = match &resume {
            None => run_threaded_faulted(topo, make_procs(), config, &faults),
            Some(cut) => run_whole(topo, cut.clone().into_state().into(), config, &faults),
        };
        match attempt {
            Ok(mut out) => {
                if let Some(log) = out.flight.as_mut() {
                    for (i, &(kind, rank, bytes)) in lifecycle.iter().enumerate() {
                        log.push_lifecycle(i as u64, kind, rank, 0, bytes);
                    }
                }
                return Ok((out, stats));
            }
            Err(e @ (RunError::Injected { .. } | RunError::Deadlock { .. })) => {
                stats.faults_fired.push(e.clone());
                stats.restarts += 1;
                if stats.restarts as usize > cfg.max_restarts {
                    return Err(e);
                }
                if let RunError::Injected { proc, step } = e {
                    faults.remove_crash(Crash { proc, at_step: step });
                    lifecycle.push((FlightKind::Fault, proc, step));
                    // Rebuild the crash frontier: simulate round-robin to
                    // the cut where `proc` has completed `step - 1` local
                    // steps. Crashes planned before it fire here and are
                    // recovered like any other.
                    let target = step.saturating_sub(1);
                    let reexecuted = stats.steps_reexecuted;
                    let (cut, picks, _) = recover_until(
                        Simulator::new(topo.clone(), make_procs()),
                        &mut faults,
                        &mut RoundRobin::new(),
                        cfg,
                        &mut stats,
                        &mut NoopObserver,
                        |sim| sim.metrics().procs[proc].steps >= target,
                    )?;
                    let at = picks.len() as u64;
                    stats.steps_replayed += at + stats.steps_reexecuted - reexecuted;
                    stats.checkpoints_taken += 1;
                    lifecycle.push((FlightKind::Checkpoint, proc, at));
                    lifecycle.push((FlightKind::Restore, proc, at));
                    resume = Some(cut);
                }
                // A deadlock retries from the latest cut (or from scratch).
            }
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Group manifests: the distributed backend's migration payload.
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash — the manifest fingerprint. Cheap, dependency-free,
/// and plenty for *corruption detection* (the threat model is a truncated
/// or bit-flipped frame, not an adversary forging collisions).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A hosted rank's entry in a [`GroupManifest`]: scheduler status plus the
/// process state, both as opaque bytes — the typed side (the workload
/// registry) owns the codecs, so this container stays workload-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestRank {
    /// Global rank id.
    pub rank: u32,
    /// Scheduler status at the cut.
    pub status: ManifestStatus,
    /// Encoded process state ([`crate::sim::ProcState`]'s payload).
    pub state: Vec<u8>,
    /// Metrics accumulated by the prefix (step ordinals key fault
    /// injection, so they must survive the move).
    pub metrics: crate::trace::ProcMetrics,
}

/// Untyped [`crate::sim::ProcState`]: blocked-send messages travel encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestStatus {
    /// The rank can take a step.
    Ready,
    /// Blocked receiving on the channel.
    BlockedRecv(u32),
    /// Blocked sending the encoded message on the channel.
    BlockedSend(u32, Vec<u8>),
    /// The rank halted.
    Halted,
}

/// A fingerprint-verified consistent cut of a rank subset — what migrates
/// when a distributed worker dies. Decodes into a
/// [`crate::sched::PartialSeed`] on the receiving worker (via the typed
/// workload registry), resuming the merged group from the supervisor's
/// last checkpoint instead of step zero.
///
/// Theorem 1 licenses this exactly as it licenses an in-process restore:
/// the cut plus the resumed execution is just another maximal interleaving
/// of the same deterministic processes, so the final state is unchanged —
/// which the distributed suites assert bitwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupManifest {
    /// Global shadow step ordinal of the cut (diagnostics; replay-cost
    /// accounting).
    pub steps: u64,
    /// One entry per hosted rank.
    pub ranks: Vec<ManifestRank>,
    /// Queue contents at the cut for channels internal to the rank set:
    /// `(chan, encoded messages front-to-back)`.
    pub queues: Vec<(u32, Vec<Vec<u8>>)>,
    /// Deliveries completed before the cut, per channel (full topology).
    pub consumed: Vec<u64>,
    /// Writer-side traffic counters at the cut, per channel:
    /// `(messages, bytes, max_depth)`.
    pub counters: Vec<(u64, u64, u64)>,
}

const GMAN_MAGIC: &[u8; 8] = b"SSPGMAN1";

fn gman_err(detail: impl Into<String>) -> RunError {
    RunError::Protocol { proc: 0, detail: format!("group manifest: {}", detail.into()) }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RunError> {
        let end = self.pos.checked_add(n).ok_or_else(|| gman_err("length overflow"))?;
        if end > self.buf.len() {
            return Err(gman_err("truncated"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8f(&mut self) -> Result<u8, RunError> {
        Ok(self.take(1)?[0])
    }

    fn u32f(&mut self) -> Result<u32, RunError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64f(&mut self) -> Result<u64, RunError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A count that will be followed by at least `min_each` bytes per item:
    /// rejects allocation bombs before reserving anything.
    fn count(&mut self, min_each: usize, what: &str) -> Result<usize, RunError> {
        let n = self.u32f()? as usize;
        let need = n.checked_mul(min_each).ok_or_else(|| gman_err("length overflow"))?;
        if need > self.buf.len() - self.pos {
            return Err(gman_err(format!("{what} count {n} exceeds payload")));
        }
        Ok(n)
    }

    fn bytes(&mut self, what: &str) -> Result<Vec<u8>, RunError> {
        let n = self.count(1, what)?;
        Ok(self.take(n)?.to_vec())
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64v(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_bytes(out: &mut Vec<u8>, b: &[u8]) {
    push_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

impl GroupManifest {
    /// Binary wire form, fingerprint-sealed: the last 8 bytes are the
    /// FNV-1a-64 of everything before them.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(GMAN_MAGIC);
        push_u64v(&mut out, self.steps);
        push_u32(&mut out, self.consumed.len() as u32);
        for &c in &self.consumed {
            push_u64v(&mut out, c);
        }
        push_u32(&mut out, self.counters.len() as u32);
        for &(m, b, d) in &self.counters {
            push_u64v(&mut out, m);
            push_u64v(&mut out, b);
            push_u64v(&mut out, d);
        }
        push_u32(&mut out, self.ranks.len() as u32);
        for r in &self.ranks {
            push_u32(&mut out, r.rank);
            for v in [
                r.metrics.steps,
                r.metrics.compute_units,
                r.metrics.sends,
                r.metrics.receives,
                r.metrics.blocked_steps,
                r.metrics.blocked_nanos,
            ] {
                push_u64v(&mut out, v);
            }
            match &r.status {
                ManifestStatus::Ready => out.push(0),
                ManifestStatus::BlockedRecv(c) => {
                    out.push(1);
                    push_u32(&mut out, *c);
                }
                ManifestStatus::BlockedSend(c, msg) => {
                    out.push(2);
                    push_u32(&mut out, *c);
                    push_bytes(&mut out, msg);
                }
                ManifestStatus::Halted => out.push(3),
            }
            push_bytes(&mut out, &r.state);
        }
        push_u32(&mut out, self.queues.len() as u32);
        for (chan, msgs) in &self.queues {
            push_u32(&mut out, *chan);
            push_u32(&mut out, msgs.len() as u32);
            for m in msgs {
                push_bytes(&mut out, m);
            }
        }
        let fp = fnv1a_64(&out);
        push_u64v(&mut out, fp);
        out
    }

    /// Decode and fingerprint-verify a wire manifest. Every failure is a
    /// typed [`RunError::Protocol`] — this path reads network bytes, so it
    /// must never panic and never allocate proportionally to a forged
    /// count.
    pub fn decode(buf: &[u8]) -> Result<GroupManifest, RunError> {
        if buf.len() < GMAN_MAGIC.len() + 8 {
            return Err(gman_err("truncated"));
        }
        let (body, fp_bytes) = buf.split_at(buf.len() - 8);
        let want = u64::from_le_bytes(fp_bytes.try_into().unwrap());
        let got = fnv1a_64(body);
        if want != got {
            return Err(gman_err(format!(
                "fingerprint mismatch (manifest says {want:#018x}, bytes hash to {got:#018x})"
            )));
        }
        let mut c = Cursor { buf: body, pos: 0 };
        if c.take(GMAN_MAGIC.len())? != GMAN_MAGIC {
            return Err(gman_err("bad magic"));
        }
        let steps = c.u64f()?;
        let n_consumed = c.count(8, "consumed")?;
        let mut consumed = Vec::with_capacity(n_consumed);
        for _ in 0..n_consumed {
            consumed.push(c.u64f()?);
        }
        let n_counters = c.count(24, "counters")?;
        let mut counters = Vec::with_capacity(n_counters);
        for _ in 0..n_counters {
            counters.push((c.u64f()?, c.u64f()?, c.u64f()?));
        }
        let n_ranks = c.count(4 + 48 + 1 + 4, "ranks")?;
        let mut ranks = Vec::with_capacity(n_ranks);
        for _ in 0..n_ranks {
            let rank = c.u32f()?;
            let mut m = [0u64; 6];
            for v in &mut m {
                *v = c.u64f()?;
            }
            let metrics = crate::trace::ProcMetrics {
                steps: m[0],
                compute_units: m[1],
                sends: m[2],
                receives: m[3],
                blocked_steps: m[4],
                blocked_nanos: m[5],
            };
            let status = match c.u8f()? {
                0 => ManifestStatus::Ready,
                1 => ManifestStatus::BlockedRecv(c.u32f()?),
                2 => {
                    let chan = c.u32f()?;
                    ManifestStatus::BlockedSend(chan, c.bytes("blocked send message")?)
                }
                3 => ManifestStatus::Halted,
                t => return Err(gman_err(format!("unknown status tag {t}"))),
            };
            let state = c.bytes("rank state")?;
            ranks.push(ManifestRank { rank, status, state, metrics });
        }
        let n_queues = c.count(8, "queues")?;
        let mut queues = Vec::with_capacity(n_queues);
        for _ in 0..n_queues {
            let chan = c.u32f()?;
            let n_msgs = c.count(4, "queued messages")?;
            let mut msgs = Vec::with_capacity(n_msgs);
            for _ in 0..n_msgs {
                msgs.push(c.bytes("queued message")?);
            }
            queues.push((chan, msgs));
        }
        if c.pos != body.len() {
            return Err(gman_err(format!("{} trailing bytes", body.len() - c.pos)));
        }
        Ok(GroupManifest { steps, ranks, queues, consumed, counters })
    }
}

#[cfg(test)]
mod manifest_tests {
    use super::*;

    fn sample() -> GroupManifest {
        GroupManifest {
            steps: 913,
            ranks: vec![
                ManifestRank {
                    rank: 2,
                    status: ManifestStatus::BlockedSend(7, vec![1, 2, 3]),
                    state: vec![9; 33],
                    metrics: crate::trace::ProcMetrics {
                        steps: 41,
                        compute_units: 5,
                        sends: 11,
                        receives: 12,
                        blocked_steps: 3,
                        blocked_nanos: 77,
                    },
                },
                ManifestRank {
                    rank: 5,
                    status: ManifestStatus::Halted,
                    state: Vec::new(),
                    metrics: Default::default(),
                },
            ],
            queues: vec![(3, vec![vec![0xAA], vec![]]), (4, vec![])],
            consumed: vec![0, 4, 9],
            counters: vec![(5, 600, 2), (0, 0, 0), (9, 901, 3)],
        }
    }

    #[test]
    fn manifest_round_trips_and_is_fingerprint_sealed() {
        let m = sample();
        let wire = m.encode();
        assert_eq!(GroupManifest::decode(&wire).unwrap(), m);
        // Tail fingerprint really covers the body.
        assert_eq!(
            u64::from_le_bytes(wire[wire.len() - 8..].try_into().unwrap()),
            fnv1a_64(&wire[..wire.len() - 8])
        );
    }

    #[test]
    fn every_truncation_fails_typed() {
        let wire = sample().encode();
        for cut in 0..wire.len() {
            let err = GroupManifest::decode(&wire[..cut]).expect_err("truncation must fail");
            assert!(matches!(err, RunError::Protocol { .. }), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn every_byte_flip_fails_typed_or_decodes_nothing_silently_wrong() {
        let wire = sample().encode();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            // A flip anywhere lands on the fingerprint check (body flips
            // change the hash; tail flips change the expectation).
            let err = GroupManifest::decode(&bad).expect_err("bit flip must fail");
            assert!(matches!(err, RunError::Protocol { .. }), "flip {i}: {err:?}");
        }
    }

    #[test]
    fn forged_counts_fail_before_allocating() {
        // A fingerprint-correct manifest whose rank count is absurd: the
        // count guard must reject it (the fingerprint can't help against a
        // *well-formed* hostile sender).
        let mut body = Vec::new();
        body.extend_from_slice(GMAN_MAGIC);
        push_u64v(&mut body, 0);
        push_u32(&mut body, 0); // consumed
        push_u32(&mut body, 0); // counters
        push_u32(&mut body, u32::MAX); // ranks: 4B entries, ~230 B payload
        let fp = fnv1a_64(&body);
        push_u64v(&mut body, fp);
        let err = GroupManifest::decode(&body).expect_err("forged count must fail");
        let detail = err.to_string();
        assert!(detail.contains("exceeds payload"), "{detail}");
    }
}
