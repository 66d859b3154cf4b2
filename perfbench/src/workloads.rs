//! The four Figure-2 workloads: set-up, reference, one closed-loop solve,
//! and the bitwise check of a solve against its reference.
//!
//! Every setting a solve depends on is pinned here — rank count, pool
//! size, transport, peer flavour, steps, seed — so nothing is inherited
//! from `SSP_WORKERS`, `SSP_DIST_TRANSPORT` or `SSP_DIST_PEER_TCP`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use fdtd::par::{init_a, plan_a, LocalA};
use fdtd::{run_seq_version_a, Fields, MaterialSpec, Params};
use mesh_archetype::driver::{
    run_msg_simulated_slack, run_msg_threaded_slack, run_simpar, HostMode, SimParConfig,
    ValidationLevel,
};
use mesh_archetype::plan::InitFn;
use mesh_archetype::Plan;
use meshgrid::{Grid3, ProcGrid3};
use ssp_dist::{
    build_workload, fdtd_a_args, run_distributed, DistConfig, DistOutcome, MigrationPolicy,
    TransportMode, Workload,
};
use ssp_runtime::{JsonValue, RoundRobin, RunMetrics, ThreadedConfig};

/// Ranks of every workload: `ProcGrid3::choose` makes this 2×2×1.
pub const RANKS: usize = 4;
/// M:N pool size of the threaded solve: four ranks on one worker. On a
/// shared 2-vCPU host the second vCPU comes and goes with other tenants'
/// load (a 2-worker solve measured 0.80 s with the host idle and 2.1 s
/// with 28% steal), while one busy vCPU is barely stolen from — so the
/// threaded workload measures the runtime's own cost (channels, halo,
/// park/resume) over the kernel, not the host's spare capacity.
pub const THREADED_WORKERS: usize = 1;
/// Scheduler threads per group inside each distributed worker process:
/// the backend's automatic choice on a 2-core host, pinned.
pub const GROUP_WORKERS: usize = 2;
/// Worker processes of the distributed solves.
pub const DIST_WORKERS: usize = 2;
/// Steps of the reduced (self-test) size on the Figure-2 grid.
pub const REDUCED_STEPS: usize = 8;

/// The distributed data plane every distributed workload pins: the
/// backend's default, direct peer sockets plus shared-memory rings.
pub const TRANSPORT: TransportMode = TransportMode::Direct { shm: true };

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `run_seq_version_a` on the Figure-2 grid: the single-threaded baseline.
    Fig2Seq,
    /// `plan_a` on the in-process M:N scheduler, four ranks on one worker.
    Fig2Threaded,
    /// `plan_a` across worker processes through the wire, shm and supervisor.
    Fig2Dist,
    /// Back-to-back distributed solves of the `tiny` preset, dominated by
    /// process spawn, handshake and teardown.
    TinyDistBurst,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 4] = [
        Kind::Fig2Seq,
        Kind::Fig2Threaded,
        Kind::Fig2Dist,
        Kind::TinyDistBurst,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig2Seq => "fig2-seq",
            Kind::Fig2Threaded => "fig2-threaded",
            Kind::Fig2Dist => "fig2-dist",
            Kind::TinyDistBurst => "tiny-dist-burst",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    fn is_dist(self) -> bool {
        matches!(self, Kind::Fig2Dist | Kind::TinyDistBurst)
    }
}

/// Input size: the benchmark proper, or the reduced size its self-tests
/// run (8 steps on the Figure-2 grid; the `tiny` preset for distributed
/// solves, whose registry accepts only preset names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's inputs.
    Full,
    /// The self-test inputs.
    Reduced,
}

/// What one run measures.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub kind: Kind,
    /// Workload seed; 0 is the preset exactly.
    pub seed: u64,
    /// Input size.
    pub size: Size,
    /// Executable the distributed supervisor spawns as its workers.
    pub worker_bin: PathBuf,
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The Figure-2 parameters for `seed`: seed 0 is `Params::figure2()`
/// exactly; other seeds move the source and the scatterer centre by up
/// to ±6 cells per axis, which keeps both well inside the 66³ box.
pub fn seeded_params(seed: u64, steps: Option<usize>) -> Params {
    let mut p = Params::figure2();
    if let Some(s) = steps {
        p.steps = s;
    }
    if seed != 0 {
        let mut state = seed;
        let mut shift = || (splitmix64(&mut state) % 13) as i64 - 6;
        let mv = |c: usize, d: i64| (c as i64 + d) as usize;
        let (si, sj, sk) = p.source.pos;
        p.source.pos = (mv(si, shift()), mv(sj, shift()), mv(sk, shift()));
        if let MaterialSpec::DielectricSphere { center, .. } = &mut p.material {
            *center = (
                center.0 + shift() as f64,
                center.1 + shift() as f64,
                center.2 + shift() as f64,
            );
        }
    }
    p
}

impl Settings {
    fn steps_override(&self) -> Option<usize> {
        (self.size == Size::Reduced).then_some(REDUCED_STEPS)
    }

    /// The registry preset a distributed solve runs.
    pub fn preset(&self) -> &'static str {
        match (self.kind, self.size) {
            (Kind::Fig2Dist, Size::Full) => "figure2",
            _ => "tiny",
        }
    }

    /// Time steps one solve advances.
    pub fn steps(&self) -> usize {
        match self.kind {
            Kind::Fig2Seq | Kind::Fig2Threaded => {
                self.steps_override().unwrap_or(Params::figure2().steps)
            }
            _ if self.preset() == "figure2" => Params::figure2().steps,
            _ => Params::tiny().steps,
        }
    }

    /// Global grid extent of one solve.
    pub fn grid(&self) -> (usize, usize, usize) {
        if self.kind.is_dist() && self.preset() == "tiny" {
            Params::tiny().n
        } else {
            Params::figure2().n
        }
    }

    /// The pinned settings, for the host fingerprint.
    pub fn pinned(&self) -> Vec<(&'static str, String)> {
        let (pool, transport, peer, procs) = match self.kind {
            Kind::Fig2Seq => ("none".to_string(), "none", "none", "0".to_string()),
            Kind::Fig2Threaded => (
                THREADED_WORKERS.to_string(),
                "in-process",
                "none",
                "0".to_string(),
            ),
            _ => (
                GROUP_WORKERS.to_string(),
                "direct+shm",
                "unix",
                DIST_WORKERS.to_string(),
            ),
        };
        let (nx, ny, nz) = self.grid();
        vec![
            ("workload", self.kind.name().to_string()),
            ("seed", self.seed.to_string()),
            ("steps", self.steps().to_string()),
            ("grid", format!("{nx}x{ny}x{nz}")),
            (
                "ranks",
                if self.kind == Kind::Fig2Seq { 1 } else { RANKS }.to_string(),
            ),
            ("pool_workers", pool),
            ("worker_processes", procs),
            ("transport", transport.to_string()),
            ("peer", peer.to_string()),
            (
                "inputs",
                if self.kind.is_dist() {
                    format!("preset {}", self.preset())
                } else {
                    "seeded".to_string()
                },
            ),
        ]
    }
}

/// The dist config every distributed solve uses, built field by field so
/// no environment variable reaches it.
fn dist_config(worker_bin: PathBuf, timeout: Duration, flight: Option<usize>) -> DistConfig {
    DistConfig {
        workers: DIST_WORKERS,
        worker_bin,
        group_workers: Some(GROUP_WORKERS),
        policy: MigrationPolicy::Survivor,
        // A lost worker is a failed solve, not a silent migration.
        max_migrations: 0,
        timeout,
        chaos_kill: None,
        flight,
        transport: TRANSPORT,
        checkpoint_every: None,
        peer_tcp: false,
    }
}

/// The threaded config of the `fig2-threaded` solve.
pub fn threaded_config() -> ThreadedConfig {
    ThreadedConfig::with_watchdog(Duration::from_secs(30)).with_workers(THREADED_WORKERS)
}

/// The result of one solve, in the form compared against the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// The six global field interiors as raw `f64` bits.
    Bits(Vec<u64>),
    /// Per-rank final snapshots.
    Snapshots(Vec<Vec<u8>>),
}

impl Output {
    /// Flip one bit — the self-test's injected mismatch.
    pub fn corrupt(&mut self) {
        match self {
            Output::Bits(b) => {
                let mid = b.len() / 2;
                b[mid] ^= 1;
            }
            Output::Snapshots(s) => s[0][0] ^= 1,
        }
    }
}

/// Counters one solve reports through the program's own telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Channel messages (all channels, `RunMetrics.channels`).
    pub msgs: u64,
    /// Channel payload bytes.
    pub bytes: u64,
    /// Scheduler task parks.
    pub parks: u64,
    /// Scheduler steals.
    pub steals: u64,
    /// Scheduler budget yields.
    pub yields: u64,
    /// Σ `blocked_nanos` over ranks.
    pub blocked_ns: u64,
    /// `DistStats.frames_logged`.
    pub frames_logged: u64,
    /// `DistStats.star_frames`.
    pub star_frames: u64,
    /// `DistStats.direct_frames`.
    pub direct_frames: u64,
    /// `DistStats.direct_bytes`.
    pub direct_bytes: u64,
    /// `DistStats.shm_frames`.
    pub shm_frames: u64,
    /// `DistStats.shm_bytes`.
    pub shm_bytes: u64,
    /// `DistStats.checkpoints_taken`.
    pub checkpoints: u64,
    /// Mean PING→PONG round trip over workers that answered, in µs.
    pub heartbeat_rtt_us: f64,
}

fn fold_metrics(m: &RunMetrics, c: &mut Counts) {
    c.msgs = m.channels.iter().map(|ch| ch.messages).sum();
    c.bytes = m.channels.iter().map(|ch| ch.bytes).sum();
    c.parks = m.sched.task_parks;
    c.steals = m.sched.steals;
    c.yields = m.sched.yields;
    c.blocked_ns = m.procs.iter().map(|p| p.blocked_nanos).sum();
}

/// A workload after set-up: everything a solve needs, built once.
pub enum Prepared {
    /// `fig2-seq`.
    Seq {
        /// Seeded parameters.
        params: Params,
    },
    /// `fig2-threaded`.
    Threaded {
        /// The 2×2×1 process grid.
        pg: ProcGrid3,
        /// `plan_a`.
        plan: Plan<LocalA>,
        /// `init_a`.
        init: InitFn<LocalA>,
    },
    /// `fig2-dist` and `tiny-dist-burst`.
    Dist {
        /// Registry args.
        args: JsonValue,
        /// The pinned config.
        cfg: DistConfig,
        /// The registry workload (for the reference).
        workload: Box<dyn Workload>,
    },
}

/// The benchmark's set-up calls: `Params`, `plan_a`/`init_a`, or
/// `build_workload`/`DistConfig`.
pub fn setup(s: &Settings) -> Result<Prepared, String> {
    Ok(match s.kind {
        Kind::Fig2Seq => Prepared::Seq {
            params: seeded_params(s.seed, s.steps_override()),
        },
        Kind::Fig2Threaded => {
            let params = Arc::new(seeded_params(s.seed, s.steps_override()));
            let pg = ProcGrid3::choose(params.n, RANKS);
            let plan = plan_a(&params);
            let init = init_a(params.clone());
            Prepared::Threaded { pg, plan, init }
        }
        Kind::Fig2Dist | Kind::TinyDistBurst => {
            let args = fdtd_a_args(s.preset(), RANKS);
            let workload = build_workload("fdtd-a", &args).map_err(|e| e.to_string())?;
            let timeout = Duration::from_secs(if s.preset() == "tiny" { 15 } else { 60 });
            let cfg = dist_config(s.worker_bin.clone(), timeout, None);
            Prepared::Dist {
                args,
                cfg,
                workload,
            }
        }
    })
}

fn fields_bits(parts: [&Grid3<f64>; 6]) -> Vec<u64> {
    parts
        .iter()
        .flat_map(|g| g.interior_to_vec())
        .map(f64::to_bits)
        .collect()
}

fn seq_bits(f: &Fields) -> Vec<u64> {
    fields_bits([&f.ex, &f.ey, &f.ez, &f.hx, &f.hy, &f.hz])
}

/// The reference a solve must match bitwise, computed once per run
/// outside the timed region: the simulator for threaded and distributed
/// solves, and for `fig2-seq` the gathered fields of the simulated-
/// parallel program (§4.5: the two are bitwise identical).
pub fn reference(p: &Prepared) -> Result<Output, String> {
    match p {
        Prepared::Seq { params } => {
            let pg = ProcGrid3::choose(params.n, RANKS);
            let cfg = SimParConfig {
                validation: ValidationLevel::Off,
                record_trace: false,
                host_mode: HostMode::GridRank0,
            };
            let init = init_a(Arc::new(params.clone()));
            let mut out = run_simpar(&plan_a(params), pg, cfg, |e| init(e));
            let g = [
                out.assemble_global(&pg, |l| &mut l.fields.ex),
                out.assemble_global(&pg, |l| &mut l.fields.ey),
                out.assemble_global(&pg, |l| &mut l.fields.ez),
                out.assemble_global(&pg, |l| &mut l.fields.hx),
                out.assemble_global(&pg, |l| &mut l.fields.hy),
                out.assemble_global(&pg, |l| &mut l.fields.hz),
            ];
            Ok(Output::Bits(fields_bits([
                &g[0], &g[1], &g[2], &g[3], &g[4], &g[5],
            ])))
        }
        Prepared::Threaded { pg, plan, init } => {
            run_msg_simulated_slack(plan, *pg, init, None, &mut RoundRobin::new())
                .map(|o| Output::Snapshots(o.snapshots))
                .map_err(|e| e.to_string())
        }
        Prepared::Dist { workload, .. } => workload
            .run_reference()
            .map(Output::Snapshots)
            .map_err(|e| e.to_string()),
    }
}

/// One solve through the workload's backend.
pub fn solve(p: &Prepared) -> Result<(Output, Counts), String> {
    let mut c = Counts::default();
    match p {
        Prepared::Seq { params } => {
            let out = run_seq_version_a(params);
            Ok((Output::Bits(seq_bits(&out.fields)), c))
        }
        Prepared::Threaded { pg, plan, init } => {
            let out = run_msg_threaded_slack(plan, *pg, init, None, threaded_config())
                .map_err(|e| e.to_string())?;
            fold_metrics(&out.metrics, &mut c);
            Ok((Output::Snapshots(out.snapshots), c))
        }
        Prepared::Dist { args, cfg, .. } => {
            let out = run_distributed("fdtd-a", args, cfg).map_err(|e| e.to_string())?;
            let c = dist_counts(&out);
            Ok((Output::Snapshots(out.snapshots), c))
        }
    }
}

/// The counters of one distributed solve: `RunMetrics` and `DistStats`.
fn dist_counts(out: &DistOutcome) -> Counts {
    let mut c = Counts::default();
    fold_metrics(&out.metrics, &mut c);
    let st = &out.stats;
    c.frames_logged = st.frames_logged;
    c.star_frames = st.star_frames;
    c.direct_frames = st.direct_frames;
    c.direct_bytes = st.direct_bytes;
    c.shm_frames = st.shm_frames;
    c.shm_bytes = st.shm_bytes;
    c.checkpoints = st.checkpoints_taken;
    let rtts: Vec<f64> = st
        .per_worker
        .iter()
        .filter(|r| r.pongs > 0)
        .map(|r| r.rtt_nanos as f64 / 1e3)
        .collect();
    if !rtts.is_empty() {
        c.heartbeat_rtt_us = rtts.iter().sum::<f64>() / rtts.len() as f64;
    }
    c
}

/// One `tiny` distributed solve with the flight recorder on or off, and
/// its counters — the layer suite's view of the distributed backend.
pub fn tiny_dist_solve(worker_bin: PathBuf, flight: bool) -> Result<Counts, String> {
    let cap = flight.then_some(ssp_runtime::DEFAULT_FLIGHT_CAP);
    let cfg = dist_config(worker_bin, Duration::from_secs(15), cap);
    let out =
        run_distributed("fdtd-a", &fdtd_a_args("tiny", RANKS), &cfg).map_err(|e| e.to_string())?;
    Ok(dist_counts(&out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_preset_and_other_seeds_move_source_and_scatterer() {
        let base = Params::figure2();
        let p0 = seeded_params(0, None);
        assert_eq!(p0.source, base.source);
        assert_eq!(format!("{:?}", p0.material), format!("{:?}", base.material));
        let p7 = seeded_params(7, None);
        assert_eq!(format!("{:?}", p7), format!("{:?}", seeded_params(7, None)));
        assert_ne!(p7.source.pos, base.source.pos);
        let (n, s) = (p7.n, p7.source.pos);
        assert!(s.0 < n.0 && s.1 < n.1 && s.2 < n.2);
    }
}
