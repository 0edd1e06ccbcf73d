//! Simulator throughput tier: sweeps rank counts through the serial and
//! the sharded parallel discrete-event engines and reports processed
//! events per second plus the parallel speedup, emitting
//! `BENCH_SIM.json` — the simulator's measured perf trajectory.
//!
//! Every sweep point also asserts the two engines' reports are equal, so
//! the bench doubles as a release-mode differential check at scales the
//! test tiers never reach (1,024 ranks in full mode).
//!
//! Scale: `MSCCL_BENCH_QUICK=1` shrinks rank counts and iterations for
//! CI. Output: `MSCCL_BENCH_OUT` overrides the JSON path (default
//! `BENCH_SIM.json` in the working directory). Regression gate:
//! `--baseline <path>` (or `MSCCL_BENCH_BASELINE`) compares matching
//! entries against a previously emitted JSON and exits non-zero when any
//! entry loses more than 25% parallel events/sec.
//!
//! Speedup is reported, not gated: it is a property of the host
//! (`host_cpus` lands in the JSON next to it), and a single-core CI
//! runner legitimately measures ~1×.

use std::fmt::Write as _;
use std::time::Instant;

use msccl_bench::Scale;
use msccl_sim::{simulate, SimConfig, SimReport};
use msccl_topology::Machine;
use mscclang::{
    BufferKind, Collective, IrGpu, IrInstruction, IrLoc, IrProgram, IrThreadBlock, OpCode,
};

/// One measured point of the sweep.
struct Entry {
    collective: &'static str,
    ranks: usize,
    /// Simulator events processed per run (identical in both engines).
    events: u64,
    /// Modeled collective latency, microseconds (identical too).
    total_us: f64,
    serial_events_per_sec: f64,
    parallel_events_per_sec: f64,
    /// Worker threads the parallel engine ran with.
    threads: usize,
    /// `serial wall time / parallel wall time`, best-of-iters.
    speedup: f64,
}

/// Best-of-`iters` wall time for one configuration, returning the last report.
fn best_of(
    ir: &mscclang::IrProgram,
    cfg: &SimConfig,
    bytes: u64,
    iters: usize,
) -> (f64, SimReport) {
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let r = simulate(ir, cfg, bytes).expect("clean program simulates");
        best = best.min(t0.elapsed().as_secs_f64());
        report = Some(r);
    }
    (best, report.expect("at least one iteration"))
}

/// Builds the classic chunked-ring allreduce directly as MSCCL-IR: one
/// thread block per rank on one channel, `Send`, n−2 × `RecvReduceSend`,
/// `RecvReduceCopySend`, n−2 × `RecvCopySend`, `Recv`. The compiler
/// would produce the same shape, but its fusion/scheduling passes are
/// superlinear in rank count and would dominate the bench's setup many
/// thousand times over at 1,024 ranks — and the simulator, not the
/// compiler, is the system under test here.
fn ring_ir(ranks: usize) -> IrProgram {
    let chunk = |index: usize| {
        Some(IrLoc {
            buffer: BufferKind::Input,
            index,
        })
    };
    let gpus = (0..ranks)
        .map(|r| {
            let mut instructions = Vec::with_capacity(2 * ranks - 1);
            let mut push = |op: OpCode, index: usize| {
                instructions.push(IrInstruction {
                    step: instructions.len(),
                    op,
                    src: chunk(index),
                    dst: chunk(index),
                    count: 1,
                    deps: Vec::new(),
                    has_dep: false,
                });
            };
            push(OpCode::Send, r);
            for k in 1..ranks - 1 {
                push(OpCode::RecvReduceSend, (r + ranks - k) % ranks);
            }
            push(OpCode::RecvReduceCopySend, (r + 1) % ranks);
            for k in 1..ranks - 1 {
                push(OpCode::RecvCopySend, (r + 1 + k) % ranks);
            }
            push(OpCode::Recv, r);
            IrGpu {
                rank: r,
                input_chunks: ranks,
                output_chunks: 0,
                scratch_chunks: 0,
                threadblocks: vec![IrThreadBlock {
                    id: 0,
                    send_peer: Some((r + 1) % ranks),
                    recv_peer: Some((r + ranks - 1) % ranks),
                    channel: 0,
                    instructions,
                }],
            }
        })
        .collect();
    // The sim reads only `in_chunks` from the collective (chunk size =
    // buffer / in_chunks); `Collective::all_reduce(ranks, ranks, _)`
    // would materialize O(ranks^3) postcondition reduction sets, so use
    // a structurally minimal custom collective with the same chunking.
    let collective = Collective::custom(ranks, ranks, 1, vec![vec![None]; ranks]);
    let ir = IrProgram {
        name: format!("ring_allreduce_{ranks}"),
        collective,
        protocol: None,
        num_channels: 1,
        refinement: 1,
        gpus,
        epoch_cuts: Vec::new(),
    };
    ir.check_structure().expect("generated ring IR is valid");
    ir
}

fn measure(ranks: usize, threads: usize, iters: usize) -> Entry {
    let ir = ring_ir(ranks);
    let machine = Machine::ndv4(ranks.div_ceil(8).max(1));
    let cfg = SimConfig::new(machine);
    let bytes = 1u64 << 20;

    let (serial_s, serial) = best_of(&ir, &cfg, bytes, iters);
    let parallel_cfg = cfg.clone().with_parallel(threads);
    let (parallel_s, parallel) = best_of(&ir, &parallel_cfg, bytes, iters);
    assert_eq!(
        serial, parallel,
        "ranks={ranks}: parallel({threads}) diverged from serial"
    );

    Entry {
        collective: "allreduce_ring",
        ranks,
        events: serial.events,
        total_us: serial.total_us,
        serial_events_per_sec: serial.events as f64 / serial_s,
        parallel_events_per_sec: parallel.events as f64 / parallel_s,
        threads,
        speedup: serial_s / parallel_s,
    }
}

fn to_json(mode: &str, host_cpus: usize, entries: &[Entry]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"sim_throughput\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(s, "  \"unit\": \"simulator events per wall-clock second\",");
    let _ = writeln!(s, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"collective\": \"{}\", \"ranks\": {}, \"events\": {}, \
             \"total_us\": {:.1}, \"serial_events_per_sec\": {:.0}, \
             \"parallel_events_per_sec\": {:.0}, \"threads\": {}, \"speedup\": {:.3}}}{comma}",
            e.collective,
            e.ranks,
            e.events,
            e.total_us,
            e.serial_events_per_sec,
            e.parallel_events_per_sec,
            e.threads,
            e.speedup,
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Pulls `(collective, ranks) -> parallel_events_per_sec` out of a
/// previously emitted JSON with a line-oriented scan (one entry per
/// line; no JSON parser in the dependency tree).
fn parse_baseline(text: &str) -> Vec<(String, usize, f64)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let pat = format!("\"{key}\": ");
        let start = line.find(&pat)? + pat.len();
        let rest = &line[start..];
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        let end = rest.find([',', '"', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_string())
    };
    text.lines()
        .filter(|l| l.contains("\"collective\""))
        .filter_map(|l| {
            Some((
                field(l, "collective")?,
                field(l, "ranks")?.parse().ok()?,
                field(l, "parallel_events_per_sec")?.parse().ok()?,
            ))
        })
        .collect()
}

fn check_regression(entries: &[Entry], baseline: &str, tolerance: f64) -> Result<(), String> {
    let base = parse_baseline(baseline);
    let mut compared = 0usize;
    for e in entries {
        let Some((_, _, base_eps)) = base
            .iter()
            .find(|(c, r, _)| c == e.collective && *r == e.ranks)
        else {
            continue;
        };
        compared += 1;
        let floor = base_eps * (1.0 - tolerance);
        if e.parallel_events_per_sec < floor {
            return Err(format!(
                "{} ranks={}: {:.0} events/s is a >{:.0}% regression vs baseline {:.0} events/s",
                e.collective,
                e.ranks,
                e.parallel_events_per_sec,
                tolerance * 100.0,
                base_eps,
            ));
        }
    }
    if compared == 0 {
        return Err("baseline shares no entries with this run".into());
    }
    Ok(())
}

fn main() {
    let scale = Scale::from_env();
    let (rank_counts, iters): (Vec<usize>, usize) = match scale {
        Scale::Full => (vec![16, 128, 1024], 3),
        Scale::Quick => (vec![16, 128], 3),
    };
    let mode = match scale {
        Scale::Full => "full",
        Scale::Quick => "quick",
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    // Worker count: one per core up to 8 (the shard count at every swept
    // rank count is ≥ 2 nodes, so ≥ 2 workers always have work).
    let threads = host_cpus.clamp(2, 8);

    let mut entries = Vec::new();
    for &ranks in &rank_counts {
        let e = measure(ranks, threads, iters);
        println!(
            "{:<16} ranks={:>5} events={:>9} model={:>10.1}us  serial {:>10.0} ev/s  parallel({}) {:>10.0} ev/s  speedup {:.2}x",
            e.collective,
            e.ranks,
            e.events,
            e.total_us,
            e.serial_events_per_sec,
            e.threads,
            e.parallel_events_per_sec,
            e.speedup,
        );
        entries.push(e);
    }

    let json = to_json(mode, host_cpus, &entries);
    let out = std::env::var("MSCCL_BENCH_OUT").unwrap_or_else(|_| "BENCH_SIM.json".into());
    std::fs::write(&out, &json).expect("write BENCH_SIM.json");
    println!("wrote {out}");

    let baseline_path = std::env::args()
        .skip_while(|a| a != "--baseline")
        .nth(1)
        .or_else(|| std::env::var("MSCCL_BENCH_BASELINE").ok());
    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        match check_regression(&entries, &text, 0.25) {
            Ok(()) => println!("no regression vs {path}"),
            Err(msg) => {
                eprintln!("REGRESSION: {msg}");
                std::process::exit(1);
            }
        }
    }
}
