//! Per-layer microbenches, timed from outside through each layer's public
//! functions: the Yee kernel (`fdtd`), halo pack/unpack (`meshgrid`), plan
//! set-up and the overlap plan (`mesh`), channel hops (`ssp-runtime`),
//! the wire codec and the socket and shm planes (`ssp-dist`), and the
//! flight recorder's cost on both in-process and distributed solves.

use std::fs;
use std::hint::black_box;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use fdtd::par::{init_a, plan_a, plan_a_overlap};
use fdtd::update::{update_e, update_h, FLOPS_PER_CELL_E};
use fdtd::{Fields, Material, Params};
use mesh_archetype::driver::{encode_mesh_msg, run_msg_threaded_slack, MeshMsg};
use mesh_archetype::exchange::face_links;
use meshgrid::halo::{extract_face3_into, slab_len3, try_insert_ghost3};
use meshgrid::{Grid3, ProcGrid3};
use ssp_dist::frame::{
    decode_data, decode_shm_doorbell, encode_data, encode_shm_doorbell, read_frame, write_frame,
    Frame, FrameType,
};
use ssp_dist::shm::{ShmReceiver, ShmSender, SHM_CAPACITY};
use ssp_dist::{PeerListener, PeerStream};
use ssp_runtime::{fnv1a_64, ChannelId, Effect, Process, Topology};

use crate::spans::Spans;
use crate::stats::{batched_median_s, median};
use crate::workloads::{self, RANKS};

/// A named per-layer value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Arrays the Yee update touches once per cell: six field components and
/// four material coefficient grids.
const ARRAYS: f64 = 10.0;
/// Compulsory bytes per cell of one E (or H) pass, counting each array
/// once: read 3 own components + 3 curl components + 2 coefficients,
/// write 3 own components — 11 × 8 B. Computed, not measured.
const BYTES_PER_CELL_PASS: f64 = 11.0 * 8.0;

/// Round trips per hop sample of the socket and shm microbenches.
const HOPS: usize = 2000;
/// Alternating on/off pairs of each comparison of whole solves.
const SOLVE_PAIRS: usize = 3;
/// Alternating pairs of `tiny` distributed solves (recorder off / on).
const DIST_FLIGHT_PAIRS: usize = 7;
/// Laps of the two-rank channel ping-pong.
const PING_LAPS: u64 = 20_000;
/// Payload of the small-frame microbenches, in f64 values.
const SMALL_VALUES: usize = 4;

/// Names of the wire, socket and shm metrics at each payload size.
const NET_METRICS: [[&str; 4]; 2] = [
    [
        "wire.encode.ns_per_kib.small",
        "wire.decode.ns_per_kib.small",
        "sock.hop_us.small",
        "shm.hop_us.small",
    ],
    [
        "wire.encode.ns_per_kib.face",
        "wire.decode.ns_per_kib.face",
        "sock.hop_us.face",
        "shm.hop_us.face",
    ],
];

/// Yee kernel cost in ns per cell for one E and one H pass over a
/// `block` section of the Figure-2 material layout.
fn kernel_ns_per_cell(params: &Params, block: meshgrid::Block3) -> (f64, f64) {
    let (nx, ny, nz) = block.extent();
    let mut f = Fields::zeros(nx, ny, nz);
    let m = Material::build(&params.material, block, params.dt);
    let cells = (nx * ny * nz) as f64;
    let e = batched_median_s(7, 0.01, || update_e(black_box(&mut f), &m));
    let h = batched_median_s(7, 0.01, || update_h(black_box(&mut f), &m));
    (e * 1e9 / cells, h * 1e9 / cells)
}

/// `extract_face3_into` / `try_insert_ghost3` cost in ns per KiB over
/// rank 0's faces of the 2×2×1 decomposition.
fn halo_ns_per_kib(params: &Params) -> (f64, f64) {
    let pg = ProcGrid3::choose(params.n, RANKS);
    let (nx, ny, nz) = pg.block(0).extent();
    let mut g = Grid3::from_fn(nx, ny, nz, 1, |i, j, k| (i * 7 + j * 3 + k) as f64);
    let links = face_links(&pg, 0);
    let kib = links
        .iter()
        .map(|l| slab_len3((nx, ny, nz), 1, l.face))
        .sum::<usize>() as f64
        * 8.0
        / 1024.0;
    let mut buf = Vec::new();
    let extract = batched_median_s(9, 0.005, || {
        for l in &links {
            buf.clear();
            extract_face3_into(&g, l.face, &mut buf);
            black_box(&buf);
        }
    });
    let payloads: Vec<_> = links
        .iter()
        .map(|l| {
            let mut p = Vec::new();
            extract_face3_into(&g, l.face.opposite(), &mut p);
            (l.face, p)
        })
        .collect();
    let insert = batched_median_s(9, 0.005, || {
        for (face, p) in &payloads {
            try_insert_ghost3(black_box(&mut g), *face, p).expect("payload matches the ghost slab");
        }
    });
    (extract * 1e9 / kib, insert * 1e9 / kib)
}

/// One side of a two-rank ping-pong: rank 0 sends then waits for the
/// echo; rank 1 echoes. One message in flight at a time.
struct PingPong {
    rank: usize,
    laps: u64,
    done: u64,
    awaiting: bool,
}

impl Process for PingPong {
    type Msg = u64;

    fn resume(&mut self, delivery: Option<u64>) -> Effect<u64> {
        let (out, inp) = (ChannelId(self.rank), ChannelId(1 - self.rank));
        if self.rank == 0 {
            if delivery.is_some() {
                self.done += 1;
            }
            if self.done == self.laps {
                return Effect::Halt;
            }
            if self.awaiting {
                self.awaiting = false;
                Effect::Recv { chan: inp }
            } else {
                self.awaiting = true;
                Effect::Send {
                    chan: out,
                    msg: self.done,
                }
            }
        } else if let Some(m) = delivery {
            self.done += 1;
            Effect::Send { chan: out, msg: m }
        } else if self.done == self.laps {
            Effect::Halt
        } else {
            Effect::Recv { chan: inp }
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        self.done.to_le_bytes().to_vec()
    }
}

/// One channel hop in ns: a one-message ping-pong on a two-rank ring
/// through the threaded runner (pool pinned like `fig2-threaded`).
fn chan_hop_ns() -> Result<f64, String> {
    let topo = Topology::ring(2);
    let mut samples = Vec::new();
    for _ in 0..3 {
        let procs = (0..2)
            .map(|rank| PingPong {
                rank,
                laps: PING_LAPS,
                done: 0,
                awaiting: false,
            })
            .collect();
        let t = Instant::now();
        let out = ssp_runtime::run_threaded_with(&topo, procs, workloads::threaded_config())
            .map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_secs_f64() * 1e9 / (2 * PING_LAPS) as f64);
        if out
            .snapshots
            .iter()
            .any(|s| s[..] != PING_LAPS.to_le_bytes())
        {
            return Err("channel ping-pong lost a lap".to_string());
        }
    }
    Ok(median(&samples))
}

/// A small message and a halo-face message (one face of the 2×2×1
/// decomposition), as the mesh wire encodes them.
fn payloads(params: &Params) -> [Vec<u8>; 2] {
    let pg = ProcGrid3::choose(params.n, RANKS);
    let ext = pg.block(0).extent();
    let face = face_links(&pg, 0)[0].face;
    let face_vals = (0..slab_len3(ext, 1, face))
        .map(|i| i as f64 * 0.5)
        .collect();
    [
        encode_mesh_msg(&MeshMsg::Halo(vec![1.5; SMALL_VALUES])),
        encode_mesh_msg(&MeshMsg::Halo(face_vals)),
    ]
}

/// `encode_data`+`write_frame` and `read_frame`+`decode_data` in ns/KiB.
fn wire_ns_per_kib(msg: &[u8]) -> Result<(f64, f64), String> {
    let kib = msg.len() as f64 / 1024.0;
    let mut buf = Vec::with_capacity(msg.len() + 64);
    let enc = batched_median_s(9, 0.005, || {
        buf.clear();
        let f = Frame::new(FrameType::DataDirect, encode_data(3, 42, black_box(msg)));
        write_frame(&mut buf, &f).expect("writing to a Vec cannot fail");
    });
    let mut ok = true;
    let dec = batched_median_s(9, 0.005, || {
        let f = read_frame(&mut black_box(&buf[..])).map_err(|e| e.into_run_error(0));
        ok &= matches!(f.as_ref().map(|f| decode_data(&f.payload)), Ok(Ok((3, 42, m))) if m.len() == msg.len());
    });
    if !ok {
        return Err("wire round trip altered a frame".to_string());
    }
    Ok((enc * 1e9 / kib, dec * 1e9 / kib))
}

/// One-way socket hop in µs: half the median round trip of a DATA_DIRECT
/// frame echoed over a `PeerListener::bind_unix` / `PeerAddr::connect`
/// connection.
fn sock_hop_us(dir: &Path, msg: &[u8]) -> Result<f64, String> {
    let (listener, addr) =
        PeerListener::bind_unix(dir.join("hop.sock")).map_err(|e| e.to_string())?;
    let rtts = std::thread::scope(|s| -> io::Result<Vec<f64>> {
        let echo = s.spawn(move || -> io::Result<()> {
            let mut peer = listener.accept()?;
            while let Ok(f) = read_frame(&mut peer) {
                write_frame(&mut peer, &f)?;
            }
            Ok(())
        });
        let mut conn = addr.connect()?;
        let frame = Frame::new(FrameType::DataDirect, encode_data(0, 0, msg));
        let mut rtts = Vec::with_capacity(HOPS);
        for _ in 0..HOPS {
            let t = Instant::now();
            write_frame(&mut conn, &frame)?;
            let back = read_frame(&mut conn)
                .map_err(|e| io::Error::other(e.into_run_error(0).to_string()))?;
            rtts.push(t.elapsed().as_secs_f64());
            black_box(back);
        }
        conn.close();
        echo.join().expect("echo thread panicked")?;
        Ok(rtts)
    })
    .map_err(|e| e.to_string())?;
    Ok(median(&rtts) * 1e6 / 2.0)
}

/// Push `msg` into `tx`'s ring and ring the doorbell on `sock`.
fn shm_send(tx: &mut ShmSender, sock: &mut PeerStream, msg: &[u8]) -> io::Result<()> {
    let off = tx
        .push(msg)?
        .ok_or_else(|| io::Error::other("shm ring full"))?;
    let bell = encode_shm_doorbell(0, 0, off, msg.len() as u32, fnv1a_64(msg));
    write_frame(sock, &Frame::new(FrameType::DataShm, bell))
}

/// Take one doorbell off `sock`, read its payload out of `rx`, and
/// publish the consumer cursor to the producer (in-process here; the
/// backend carries it on an SHM_ACK frame).
fn shm_recv(
    rx: &mut ShmReceiver,
    sock: &mut PeerStream,
    acked: &std::sync::atomic::AtomicU64,
) -> io::Result<Vec<u8>> {
    let bad = |e: String| io::Error::other(e);
    let f = read_frame(sock).map_err(|e| bad(e.into_run_error(0).to_string()))?;
    let (_, _, off, len, sum) = decode_shm_doorbell(&f.payload).map_err(|e| bad(e.to_string()))?;
    let (payload, ack) = rx.read(off, len, sum).map_err(|e| bad(e.to_string()))?;
    acked.store(ack, Ordering::Release);
    Ok(payload)
}

/// One-way shm hop in µs: half the median round trip of a payload pushed
/// through a ring (`ShmSender::push` + doorbell + `ShmReceiver::read`)
/// and echoed back through a second ring.
fn shm_hop_us(dir: &Path, msg: &[u8]) -> Result<f64, String> {
    let err = |e: io::Error| e.to_string();
    let (ab, ba) = (dir.join("shm-0-1.ring"), dir.join("shm-1-0.ring"));
    let mut tx_ab = ShmSender::create(&ab, SHM_CAPACITY).map_err(err)?;
    let mut tx_ba = ShmSender::create(&ba, SHM_CAPACITY).map_err(err)?;
    let mut rx_ab = ShmReceiver::open(&ab).map_err(|e| e.to_string())?;
    let mut rx_ba = ShmReceiver::open(&ba).map_err(|e| e.to_string())?;
    let (acked_ab, acked_ba) = (tx_ab.acked_handle(), tx_ba.acked_handle());
    let (a, b) = UnixStream::pair().map_err(err)?;
    let (a, mut b) = (PeerStream::Unix(a), PeerStream::Unix(b));
    let rtts = std::thread::scope(|s| -> io::Result<Vec<f64>> {
        // Owned here, so an early return closes it and the echo side's
        // read ends instead of blocking the scope's join.
        let mut a = a;
        let echo = s.spawn(move || -> io::Result<()> {
            for _ in 0..HOPS {
                let p = shm_recv(&mut rx_ab, &mut b, &acked_ab)?;
                shm_send(&mut tx_ba, &mut b, &p)?;
            }
            Ok(())
        });
        let mut rtts = Vec::with_capacity(HOPS);
        for _ in 0..HOPS {
            let t = Instant::now();
            shm_send(&mut tx_ab, &mut a, msg)?;
            let back = shm_recv(&mut rx_ba, &mut a, &acked_ba)?;
            rtts.push(t.elapsed().as_secs_f64());
            if back.len() != msg.len() {
                return Err(io::Error::other("shm echo changed the payload size"));
            }
        }
        echo.join().expect("echo thread panicked")?;
        Ok(rtts)
    })
    .map_err(err)?;
    Ok(median(&rtts) * 1e6 / 2.0)
}

/// `(median(a), median(b))` in seconds over `pairs` runs of each,
/// alternating which goes first.
fn paired_medians(
    pairs: usize,
    mut a: impl FnMut() -> Result<(), String>,
    mut b: impl FnMut() -> Result<(), String>,
) -> Result<(f64, f64), String> {
    let mut times = [Vec::new(), Vec::new()];
    for i in 0..pairs {
        for k in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
            let t = Instant::now();
            if k == 0 {
                a()?
            } else {
                b()?
            }
            times[k].push(t.elapsed().as_secs_f64());
        }
    }
    Ok((median(&times[0]), median(&times[1])))
}

/// Run every layer microbench, each inside its own span, and return the
/// per-layer metrics (the counters from the workload's own solves are
/// added by the caller). `p` sets the grid of the kernel, halo and
/// whole-solve comparisons; `worker_bin` is the distributed workers'
/// executable; sockets and ring files go under `scratch` and are removed.
pub fn run_suite(
    p: &Params,
    worker_bin: &Path,
    scratch: &Path,
    spans: &mut Spans,
) -> Result<Vec<Metric>, String> {
    let mut out: Vec<Metric> = Vec::new();
    let pg = ProcGrid3::choose(p.n, RANKS);

    let ((er, hr), (eg, hg)) = spans.span("layer.fdtd", |_| {
        let whole = meshgrid::Block3 {
            lo: (0, 0, 0),
            hi: p.n,
        };
        (
            kernel_ns_per_cell(p, pg.block(0)),
            kernel_ns_per_cell(p, whole),
        )
    });
    out.push(("fdtd.update_e.ns_per_cell.rank", er, "ns/cell"));
    out.push(("fdtd.update_h.ns_per_cell.rank", hr, "ns/cell"));
    out.push(("fdtd.update_e.ns_per_cell.grid", eg, "ns/cell"));
    out.push(("fdtd.update_h.ns_per_cell.grid", hg, "ns/cell"));
    out.push(("fdtd.update.bytes_per_cell", BYTES_PER_CELL_PASS, "B/cell"));
    out.push((
        "fdtd.update.flops_per_byte",
        FLOPS_PER_CELL_E as f64 / BYTES_PER_CELL_PASS,
        "flop/B",
    ));
    let (nx, ny, nz) = p.n;
    let ws = ARRAYS * ((nx + 2) * (ny + 2) * (nz + 2)) as f64 * 8.0 / (1024.0 * 1024.0);
    out.push(("fdtd.working_set_mib", ws, "MiB"));

    let (ex, ins) = spans.span("layer.meshgrid", |_| halo_ns_per_kib(p));
    out.push(("halo.extract.ns_per_kib", ex, "ns/KiB"));
    out.push(("halo.insert.ns_per_kib", ins, "ns/KiB"));

    let mesh_setup = spans.span("layer.mesh.setup", |_| {
        let params = Arc::new(p.clone());
        batched_median_s(9, 0.002, || {
            black_box(plan_a(&params));
            black_box(init_a(params.clone()));
        })
    });
    out.push(("mesh.setup_s", mesh_setup, "s"));

    let init = init_a(Arc::new(p.clone()));
    let (base, over) = (plan_a(p), plan_a_overlap(p));
    let threaded = |plan: &mesh_archetype::Plan<_>, cfg| {
        run_msg_threaded_slack(plan, pg, &init, None, cfg)
            .map(drop)
            .map_err(|e| e.to_string())
    };
    let cfg = workloads::threaded_config();
    let (base_s, over_s) = spans.span("layer.mesh.overlap", |_| {
        paired_medians(
            SOLVE_PAIRS,
            || threaded(&base, cfg),
            || threaded(&over, cfg),
        )
    })?;
    out.push(("mesh.overlap_vs_base", over_s / base_s, "ratio"));

    let hop = spans.span("layer.runtime.chan_hop", |_| chan_hop_ns())?;
    out.push(("chan.hop_ns", hop, "ns"));

    let (off_s, on_s) = spans.span("layer.flight.threaded", |_| {
        paired_medians(
            SOLVE_PAIRS,
            || threaded(&base, cfg),
            || threaded(&base, cfg.with_flight_default()),
        )
    })?;
    out.push(("flight.overhead.threaded", on_s / off_s - 1.0, "frac"));

    // The distributed backend's counters and process lifecycle, from the
    // `tiny` solves behind the flight comparison (recorder off).
    let mut counts = Vec::new();
    let (off_s, on_s) = spans.span("layer.dist.tiny", |_| {
        paired_medians(
            DIST_FLIGHT_PAIRS,
            || {
                counts.push(workloads::tiny_dist_solve(worker_bin.to_path_buf(), false)?);
                Ok(())
            },
            || workloads::tiny_dist_solve(worker_bin.to_path_buf(), true).map(drop),
        )
    })?;
    out.push(("flight.overhead.dist", on_s / off_s - 1.0, "frac"));
    out.push(("dist.tiny_solve_s", off_s, "s"));
    let count =
        |f: fn(&workloads::Counts) -> f64| median(&counts.iter().map(f).collect::<Vec<_>>());
    out.extend([
        (
            "dist.frames_logged",
            count(|c| c.frames_logged as f64),
            "count",
        ),
        ("dist.star_frames", count(|c| c.star_frames as f64), "count"),
        (
            "dist.direct_frames",
            count(|c| c.direct_frames as f64),
            "count",
        ),
        ("dist.shm_frames", count(|c| c.shm_frames as f64), "count"),
        (
            "dist.checkpoints_taken",
            count(|c| c.checkpoints as f64),
            "count",
        ),
        ("dist.heartbeat_rtt_us", count(|c| c.heartbeat_rtt_us), "us"),
    ]);

    let dir = scratch.join(format!("layers-{}", std::process::id()));
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let net = spans.span("layer.dist", |_| -> Result<Vec<Metric>, String> {
        let mut m = Vec::new();
        for (names, msg) in NET_METRICS.iter().zip(payloads(p)) {
            let (enc, dec) = wire_ns_per_kib(&msg)?;
            let sock = sock_hop_us(&dir, &msg)?;
            fs::remove_file(dir.join("hop.sock")).map_err(|e| e.to_string())?;
            let shm = shm_hop_us(&dir, &msg)?;
            m.extend([
                (names[0], enc, "ns/KiB"),
                (names[1], dec, "ns/KiB"),
                (names[2], sock, "us"),
                (names[3], shm, "us"),
            ]);
        }
        Ok(m)
    });
    let cleanup = fs::remove_dir_all(&dir);
    out.extend(net?);
    cleanup.map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(out)
}
