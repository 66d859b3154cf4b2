//! The Figure-2 benchmark: FDTD Version A on the paper's 66³ grid, run
//! closed-loop (one client; the next solve starts when the previous one
//! returns) on the sequential, threaded and distributed backends.
//!
//! ```text
//! perfbench --workload <fig2-seq|fig2-threaded|fig2-dist|tiny-dist-burst|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--reduced] [--inject-mismatch]
//! ```
//!
//! Every solve is checked bitwise against a reference computed once,
//! outside the timed region. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` records spans around the benchmark's calls into each layer,
//! runs the layer microbenches and reports the per-layer metrics, and
//! writes the spans to `.perfbench/`. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--workload all` runs the four workloads in turn, each report followed
//! by its own result line.
//!
//! `--reduced` shrinks the inputs for the self-tests; `--inject-mismatch`
//! corrupts one bit of every solve's output to prove the check fires.
//!
//! The distributed workloads keep several processes busy at once, so on a
//! shared host their walls track the capacity other tenants leave free
//! (hypervisor steal): each report prints the steal of its run, and runs
//! with different steal are not comparable.
//!
//! Invoked with a socket path instead of flags, the executable is an
//! `ssp-dist` worker: the distributed solves spawn it as their workers.

mod layers;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ssp_runtime::JsonValue;

use layers::Metric;
use spans::Spans;
use stats::{harrell_davis, median, quantile};
use workloads::{Counts, Kind, Settings, Size};

/// Where the benchmark keeps its spans and scratch files, relative to the
/// directory it runs from.
const OUT_DIR: &str = ".perfbench";
/// Set-up batches taken before the reference, and then one more per
/// `SETUP_EVERY_S` of closed-loop time, so `setup_s` is a median over the
/// whole run rather than over one moment of it.
const SETUP_FIRST: usize = 5;
const SETUP_EVERY_S: f64 = 0.25;
/// Minimum length of one timed batch of set-up calls.
const SETUP_BATCH_S: f64 = 0.002;
/// Solves every run makes at least, however short `--seconds` is.
const MIN_SOLVES: usize = 3;

struct Opts {
    /// One entry per workload to run (`--workload all` runs the four).
    runs: Vec<Settings>,
    seconds: f64,
    trace: bool,
    inject_mismatch: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <fig2-seq|fig2-threaded|fig2-dist|tiny-dist-burst|all> \
     --seed <n> --seconds <s> --trace <0|1> [--reduced] [--inject-mismatch]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let (mut kinds, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut size, mut inject_mismatch) = (Size::Full, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .ok_or_else(|| format!("{a} needs a value\n{}", usage()))
        };
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                kinds = Some(match Kind::parse(v) {
                    Some(k) => vec![k],
                    None if v == "all" => Kind::ALL.to_vec(),
                    None => return Err(format!("unknown workload {v:?}\n{}", usage())),
                });
            }
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--reduced" => size = Size::Reduced,
            "--inject-mismatch" => inject_mismatch = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let missing = |n: &str| format!("missing {n}\n{}", usage());
    let worker_bin = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let seed = seed.ok_or_else(|| missing("--seed"))?;
    let runs = kinds
        .ok_or_else(|| missing("--workload"))?
        .into_iter()
        .map(|kind| Settings {
            kind,
            seed,
            size,
            worker_bin: worker_bin.clone(),
        })
        .collect();
    Ok(Opts {
        runs,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        inject_mismatch,
    })
}

/// The `ssp-worker` entry point: `<socket path> <worker index>
/// <threads per group> <unix|tcp>`, exactly as the supervisor spawns it.
fn worker(args: &[String]) -> ExitCode {
    let idx = args.get(1).and_then(|s| s.parse().ok());
    let threads = args
        .get(2)
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0);
    let tcp = args.get(3).map(String::as_str) == Some("tcp");
    let Some(idx) = idx else {
        eprintln!("perfbench worker: bad arguments {args:?}");
        return ExitCode::FAILURE;
    };
    match ssp_dist::worker_main(&args[0], idx, threads, tcp) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker {idx}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Times the benchmark's set-up calls in batches long enough for the
/// clock, spread over the run.
struct SetupSampler {
    batch: usize,
    samples: Vec<f64>,
}

impl SetupSampler {
    /// Calibrate the batch length and take the first `SETUP_FIRST` batches.
    fn new(s: &Settings) -> Result<SetupSampler, String> {
        let t = Instant::now();
        workloads::setup(s)?;
        let one = t.elapsed().as_secs_f64().max(1e-9);
        let batch = ((SETUP_BATCH_S / one).ceil() as usize).clamp(1, 1 << 24);
        let mut sampler = SetupSampler {
            batch,
            samples: Vec::new(),
        };
        sampler.top_up(s, 0.0);
        Ok(sampler)
    }

    /// Take batches until the run has one per `SETUP_EVERY_S` of the
    /// `elapsed` closed-loop seconds, on top of the first ones.
    fn top_up(&mut self, s: &Settings, elapsed: f64) {
        let due = SETUP_FIRST + (elapsed / SETUP_EVERY_S) as usize;
        while self.samples.len() < due {
            let t = Instant::now();
            for _ in 0..self.batch {
                drop(std::hint::black_box(workloads::setup(s)));
            }
            self.samples
                .push(t.elapsed().as_secs_f64() / self.batch as f64);
        }
    }
}

/// What the closed loop measured.
#[derive(Default)]
struct Loop {
    /// (wall s, cpu s, recorded with spans) per timed solve.
    solves: Vec<(f64, f64, bool)>,
    counts: Vec<Counts>,
    attempted: u64,
    failed: u64,
}

impl Loop {
    fn walls(&self, traced: Option<bool>) -> Vec<f64> {
        self.solves
            .iter()
            .filter(|s| traced.is_none_or(|t| s.2 == t))
            .map(|s| s.0)
            .collect()
    }

    fn cpus(&self) -> Vec<f64> {
        self.solves.iter().map(|s| s.1).collect()
    }

    fn count(&self, f: impl Fn(&Counts) -> f64) -> f64 {
        median(&self.counts.iter().map(f).collect::<Vec<_>>())
    }
}

/// One attempted solve: backend call, then the bitwise check. Errors,
/// watchdog and timeout aborts, and mismatches are all failures.
fn attempt(
    prep: &workloads::Prepared,
    reference: &workloads::Output,
    inject: bool,
    spans: &mut Spans,
) -> Result<Counts, String> {
    let (mut out, counts) = spans.span("solve", |_| workloads::solve(prep))?;
    spans.span("verify", |_| {
        if inject {
            out.corrupt();
        }
        if out == *reference {
            Ok(counts)
        } else {
            Err("output differs bitwise from the reference".to_string())
        }
    })
}

fn closed_loop(
    opts: &Opts,
    s: &Settings,
    prep: &workloads::Prepared,
    reference: &workloads::Output,
    spans: &mut Spans,
    setup: &mut SetupSampler,
) -> Loop {
    let mut lp = Loop::default();
    let mut untraced = Spans::new(false);
    let name = s.kind.name();
    // Warm-up: caches, page faults and lazy set-up settle before timing.
    // It is attempted and checked like any other solve.
    lp.attempted += 1;
    if let Err(e) = spans.span("warmup", |s| {
        attempt(prep, reference, opts.inject_mismatch, s)
    }) {
        lp.failed += 1;
        eprintln!("perfbench {name}: warm-up solve failed: {e}");
    }
    sys::reset_peak_rss();
    let start = Instant::now();
    while lp.attempted < 1 + MIN_SOLVES as u64 || start.elapsed().as_secs_f64() < opts.seconds {
        // The traced run alternates recorded and unrecorded solves; the
        // difference of their medians is the tracing overhead.
        let traced = spans.on() && lp.attempted % 2 == 1;
        let sp = if traced { &mut *spans } else { &mut untraced };
        lp.attempted += 1;
        let (t, c) = (Instant::now(), sys::cpu_seconds());
        match attempt(prep, reference, opts.inject_mismatch, sp) {
            Ok(counts) => {
                lp.solves
                    .push((t.elapsed().as_secs_f64(), sys::cpu_seconds() - c, traced));
                lp.counts.push(counts);
            }
            Err(e) => {
                lp.failed += 1;
                eprintln!("perfbench {name}: solve {} FAILED: {e}", lp.attempted);
            }
        }
        // Between solves, outside the timed region.
        setup.top_up(s, start.elapsed().as_secs_f64());
    }
    lp
}

/// Layer unit cost × count for the solve, against the measured wall and
/// CPU time: a report of where the time went, not a gate.
fn reconcile(
    s: &Settings,
    lp: &Loop,
    layer: &BTreeMap<&str, f64>,
) -> (Vec<(String, f64, f64, f64)>, f64) {
    let get = |k: &str| layer.get(k).copied().unwrap_or(0.0);
    let (nx, ny, nz) = s.grid();
    let cells = (nx * ny * nz) as f64;
    let steps = s.steps() as f64;
    let mut rows = Vec::new();
    let (e, h) = if s.kind == Kind::Fig2Seq {
        (
            get("fdtd.update_e.ns_per_cell.grid"),
            get("fdtd.update_h.ns_per_cell.grid"),
        )
    } else {
        (
            get("fdtd.update_e.ns_per_cell.rank"),
            get("fdtd.update_h.ns_per_cell.rank"),
        )
    };
    rows.push((
        "fdtd kernel (E+H) ns/cell × cells·steps".to_string(),
        e + h,
        cells * steps,
        1e-9,
    ));
    let kib = lp.count(|c| c.bytes as f64) / 1024.0;
    let halo = get("halo.extract.ns_per_kib") + get("halo.insert.ns_per_kib");
    rows.push(("halo pack+unpack ns/KiB × KiB".to_string(), halo, kib, 1e-9));
    let msgs = lp.count(|c| c.msgs as f64);
    let cross = lp.count(|c| (c.direct_frames + c.shm_frames) as f64);
    rows.push((
        "channel hop ns × in-process msgs".to_string(),
        get("chan.hop_ns"),
        msgs - cross,
        1e-9,
    ));
    if cross > 0.0 {
        let cross_kib = lp.count(|c| (c.direct_bytes + c.shm_bytes) as f64) / 1024.0;
        let wire = get("wire.encode.ns_per_kib.face") + get("wire.decode.ns_per_kib.face");
        rows.push((
            "wire codec ns/KiB × KiB (delivery + mirror)".to_string(),
            wire,
            2.0 * cross_kib,
            1e-9,
        ));
        rows.push((
            "shm hop µs × shm frames".to_string(),
            get("shm.hop_us.face"),
            lp.count(|c| c.shm_frames as f64),
            1e-6,
        ));
        let socket_frames = lp.count(|c| (c.frames_logged + c.direct_frames) as f64);
        rows.push((
            "socket hop µs × mirror+direct frames".to_string(),
            get("sock.hop_us.face"),
            socket_frames,
            1e-6,
        ));
    }
    let rows: Vec<_> = rows
        .into_iter()
        .map(|(n, unit, count, scale)| (n, unit, count, unit * count * scale))
        .collect();
    let explained = rows.iter().map(|r| r.3).sum();
    (rows, explained)
}

fn metrics_json(metrics: &[Metric]) -> JsonValue {
    let m = metrics
        .iter()
        .map(|(name, value, unit)| {
            let mut o = BTreeMap::new();
            o.insert("value".to_string(), JsonValue::Num(*value));
            o.insert("unit".to_string(), JsonValue::Str(unit.to_string()));
            (name.to_string(), JsonValue::Obj(o))
        })
        .collect();
    JsonValue::Obj(m)
}

fn run(opts: &Opts, s: &Settings) -> Result<(JsonValue, bool), String> {
    let name = s.kind.name();
    let mut spans = Spans::new(opts.trace);
    let run_id = format!(
        "{name}-s{}-{}-{}",
        s.seed,
        if opts.trace { "traced" } else { "plain" },
        std::process::id()
    );

    let mut fp = vec![
        ("nproc", sys::nproc().to_string()),
        ("commit", sys::commit()),
        (
            "l3_mib",
            sys::l3_mib().map_or("unknown".to_string(), |v| format!("{v}")),
        ),
        ("size", format!("{:?}", s.size).to_lowercase()),
    ];
    fp.extend(s.pinned());
    println!("perfbench: run {run_id}");
    println!(
        "fingerprint: {}",
        fp.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let steal_at_start = sys::steal_ticks();
    let mut setup = spans.span("setup", |_| SetupSampler::new(s))?;
    let prep = workloads::setup(s)?;
    let reference = spans.span("reference", |_| workloads::reference(&prep))?;
    let lp = closed_loop(opts, s, &prep, &reference, &mut spans, &mut setup);
    let setup_s = median(&setup.samples);
    let peak_rss_mb = sys::peak_rss_mb();
    let steal_at_end = sys::steal_ticks();
    let steal_ticks = steal_at_end.0.saturating_sub(steal_at_start.0);
    let steal_pct =
        100.0 * steal_ticks as f64 / steal_at_end.1.saturating_sub(steal_at_start.1).max(1) as f64;

    let walls = lp.walls(None);
    let wall_s = median(&walls);
    let cpu_s = median(&lp.cpus());
    let failed_frac = lp.failed as f64 / lp.attempted as f64;
    let e2e: Vec<Metric> = vec![
        ("wall_s", wall_s, "s"),
        ("wall_s.p90", harrell_davis(&walls, 0.9), "s"),
        ("cpu_s", cpu_s, "s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("solved_frac", 1.0 - failed_frac, "frac"),
    ];
    println!(
        "closed loop: 1 client, {} solves timed ({} attempted incl. warm-up), failed_frac = {failed_frac}",
        walls.len(),
        lp.attempted
    );
    println!(
        "  solve wall min/median/max: {:.6} / {wall_s:.6} / {:.6} s; setup: {} batches of {} calls",
        quantile(&walls, 0.0),
        quantile(&walls, 1.0),
        setup.samples.len(),
        setup.batch
    );
    for (n, v, u) in &e2e {
        println!("  {n:<12} {v:>14.6} {u}");
    }
    println!("host: hypervisor steal was {steal_pct:.2}% of CPU time during this run");

    let correct = lp.failed == 0 && !walls.is_empty();
    let metrics = if !opts.trace {
        e2e
    } else {
        let traced_walls = lp.walls(Some(true));
        let plain_walls = lp.walls(Some(false));
        let params = workloads::seeded_params(
            0,
            (s.size == Size::Reduced).then_some(workloads::REDUCED_STEPS),
        );
        let scratch = Path::new(OUT_DIR).join("tmp");
        let mut m = layers::run_suite(&params, &s.worker_bin, &scratch, &mut spans)?;
        let steps = s.steps() as f64;
        m.extend([
            (
                "mesh.msgs_per_step",
                lp.count(|c| c.msgs as f64) / steps,
                "count",
            ),
            (
                "mesh.bytes_per_step",
                lp.count(|c| c.bytes as f64) / steps,
                "B",
            ),
            ("sched.task_parks", lp.count(|c| c.parks as f64), "count"),
            ("sched.steals", lp.count(|c| c.steals as f64), "count"),
            ("sched.yields", lp.count(|c| c.yields as f64), "count"),
            (
                "runtime.blocked_s",
                lp.count(|c| c.blocked_ns as f64) / 1e9,
                "s",
            ),
            (
                "trace.overhead_s",
                median(&traced_walls) - median(&plain_walls),
                "s",
            ),
        ]);
        let layer: BTreeMap<&str, f64> = m.iter().map(|(n, v, _)| (*n, *v)).collect();
        let (rows, explained) = reconcile(s, &lp, &layer);
        println!("reconciliation ({name}, per solve; a report, not a gate):");
        for (n, unit, count, secs) in &rows {
            println!("  {n:<48} {unit:>12.3} × {count:>14.1} = {secs:>10.6} s");
        }
        println!("  {:<48} {explained:>10.6} s", "sum of layer costs");
        println!(
            "  {:<48} {wall_s:>10.6} s  (remainder {:.6} s)",
            "measured wall_s",
            wall_s - explained
        );
        println!(
            "  {:<48} {cpu_s:>10.6} s  (remainder {:.6} s)",
            "measured cpu_s",
            cpu_s - explained
        );
        m.push(("recon.explained_frac_cpu", explained / cpu_s, "frac"));
        println!(
            "kernel roofline: working set {:.1} MiB (computed) vs L3 {} MiB; bandwidth ratio omitted",
            layer["fdtd.working_set_mib"],
            sys::l3_mib().map_or("unknown".to_string(), |v| format!("{v:.0}"))
        );
        println!("per-layer metrics:");
        for (n, v, u) in &m {
            println!("  {n:<34} {v:>16.6} {u}");
        }
        fp.push(("steal_pct", format!("{steal_pct:.2}")));
        write_trace(&run_id, &fp, &spans, &m, &rows)?;
        m
    };

    let mut out = BTreeMap::new();
    out.insert("correct".to_string(), JsonValue::Bool(correct));
    out.insert("attempted".to_string(), JsonValue::Num(lp.attempted as f64));
    out.insert("failed".to_string(), JsonValue::Num(lp.failed as f64));
    out.insert("metrics".to_string(), metrics_json(&metrics));
    Ok((JsonValue::Obj(out), correct))
}

fn write_trace(
    run_id: &str,
    fp: &[(&str, String)],
    spans: &Spans,
    metrics: &[Metric],
    recon: &[(String, f64, f64, f64)],
) -> Result<(), String> {
    let mut doc = BTreeMap::new();
    doc.insert("run".to_string(), JsonValue::Str(run_id.to_string()));
    let fpj = fp
        .iter()
        .map(|(k, v)| (k.to_string(), JsonValue::Str(v.clone())))
        .collect();
    doc.insert("fingerprint".to_string(), JsonValue::Obj(fpj));
    doc.insert("spans".to_string(), spans.to_json(run_id));
    doc.insert("metrics".to_string(), metrics_json(metrics));
    let rows = recon
        .iter()
        .map(|(n, unit, count, secs)| {
            JsonValue::Arr(vec![
                JsonValue::Str(n.clone()),
                JsonValue::Num(*unit),
                JsonValue::Num(*count),
                JsonValue::Num(*secs),
            ])
        })
        .collect();
    doc.insert("reconciliation".to_string(), JsonValue::Arr(rows));
    let path = PathBuf::from(OUT_DIR).join(format!("trace-{run_id}.json"));
    std::fs::write(&path, JsonValue::Obj(doc).to_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.len(), path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| !a.starts_with("--")) {
        return worker(&args);
    }
    // Pin the environment: no SSP_* knob reaches this process or the
    // workers it spawns, and their sockets and ring files stay under the
    // run directory.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("SSP_") {
            std::env::remove_var(k);
        }
    }
    let tmp = Path::new(OUT_DIR).join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", &tmp);
    let result = parse_args(&args).and_then(|opts| {
        // Each workload's result line follows its report; the last line
        // of the output is the last workload's.
        let mut all_correct = true;
        for s in &opts.runs {
            let (json, correct) = run(&opts, s)?;
            println!("{}", json.to_json());
            all_correct &= correct;
        }
        Ok(all_correct)
    });
    let _ = std::fs::remove_dir(&tmp);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: FAILED — a solve errored or differed from its reference");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
