//! Runtime throughput tier: sweeps collective buffer sizes through the
//! *real* threaded executor (not the simulator) and reports achieved
//! GB/s plus allocation behaviour, emitting `BENCH_RUNTIME.json` — the
//! repo's measured perf trajectory.
//!
//! Scale: `MSCCL_BENCH_QUICK=1` shrinks ranks/sizes/iterations for CI.
//! Output: `MSCCL_BENCH_OUT` overrides the JSON path (default
//! `BENCH_RUNTIME.json` in the working directory).
//! Regression gate: `--baseline <path>` (or `MSCCL_BENCH_BASELINE`)
//! compares matching entries against a previously emitted JSON and exits
//! non-zero when any entry loses more than 20% GB/s.
//!
//! Metrics overhead gate: every point is measured both with the
//! always-on metric counters enabled (the default every other consumer
//! sees) and disabled. Both throughputs land in the JSON. The gate
//! itself uses a paired estimator — each iteration times the two modes
//! back-to-back (alternating order so drift cancels) and the point's
//! overhead is the interquartile geometric mean of the per-pair time
//! ratios, which is far more stable against scheduler noise than
//! comparing two independent best-of minima. In quick mode the run
//! fails when the geometric mean across gated points exceeds 4% — the
//! registry's contract that "always on" is affordable. (The budget is
//! relative; it was re-set from 3% when the scheduler work tripled
//! small-row throughput and the unchanged absolute cost tripled as a
//! percentage.) The flight recorder — the always-on black-box ring
//! buffers behind `msccl doctor` — is gated by the same estimator and
//! the same 4% budget.

use std::fmt::Write as _;
use std::time::Instant;

use msccl_bench::Scale;
use msccl_runtime::{reference, run, ExecArena, ExecStats, Run, RunOptions};
use mscclang::{compile, CompileOptions, EpochMode, Program};

/// One measured point of the sweep.
struct Entry {
    collective: &'static str,
    ranks: usize,
    bytes_per_rank: u64,
    gbps: f64,
    /// Throughput of the same sweep point with [`RunOptions::metrics`]
    /// off.
    gbps_metrics_off: f64,
    /// Interquartile geometric mean of per-pair `time_on / time_off`
    /// ratios — the overhead gate's estimator (1.02 = metrics cost 2% of
    /// wall time here).
    overhead_ratio: f64,
    /// Paired estimator for the always-on flight recorder
    /// ([`RunOptions::flight`], the default) against a run with it
    /// disabled: what the black-box ring buffers cost on the hot path.
    flight_overhead_ratio: f64,
    /// The same paired estimator for `--epochs auto` vs epochs off on a
    /// fault-free run: what the epoch subsystem costs when nothing
    /// fails. `Auto` consults the compiler's cost model, which declines
    /// to checkpoint when the snapshot would not amortize — so this
    /// ratio is the price of *having* the feature on, not of a forced
    /// snapshot schedule.
    epoch_overhead_ratio: f64,
    /// Paired estimator for the old 1:1 thread-per-TB model (a worker
    /// pool as wide as the thread-block count) against the default
    /// auto-sized pool: `time_oversubscribed / time_auto`, so values
    /// above 1 are the speedup the work-stealing scheduler buys by *not*
    /// spawning one OS thread per block.
    sched_speedup_ratio: f64,
    /// Tile-buffer allocations per executed instruction in the measured
    /// (post-warmup) run — zero when the pool recycles perfectly.
    allocs_per_step: f64,
    pool_allocated: u64,
    pool_reused: u64,
    /// Whether this row participates in the overhead gates. The 3%
    /// budget was calibrated on the historic low-rank rows; the 16- and
    /// 64-rank rows run microsecond-scale sync-dominated executions
    /// where a single context switch outweighs the counters, so they
    /// report their ratios but do not gate.
    gated: bool,
}

fn build(collective: &'static str, ranks: usize) -> Program {
    match collective {
        "allreduce_ring" => msccl_algos::ring_all_reduce(ranks, 1).expect("builds"),
        "allgather_recursive_doubling" => {
            msccl_algos::recursive_doubling_all_gather(ranks).expect("builds")
        }
        _ => unreachable!("unknown collective {collective}"),
    }
}

/// One paired A/B measurement over a warmed arena.
struct Paired {
    /// Best (minimum) wall time of the A configuration, seconds.
    best_a: f64,
    /// Best wall time of the B configuration, seconds.
    best_b: f64,
    /// Interquartile geometric mean of per-pair `time_a / time_b`.
    ratio: f64,
    /// [`ExecStats`] of the best A iteration.
    stats_a: ExecStats,
}

/// Times `a` and `b` back-to-back over the same warmed arena, so thermal
/// ramp and scheduler drift hit both modes alike. Each pair yields one
/// time ratio, alternating in-pair order so whichever mode runs second
/// gains no systematic edge.
///
/// The estimate is the interquartile geometric mean: it throws away the
/// tails (a descheduled worker can double a single run) while averaging
/// enough samples for the estimate to settle — a plain median of N
/// ratios wobbles several percent at these sync-dominated sizes.
/// Trimming runs per order class (a-first pairs vs b-first pairs) before
/// averaging the two classes: whichever mode runs second inherits the
/// first run's cleanup, and trimming a mixture of the two shifted
/// distributions would bias the estimate instead of cancelling the
/// shift.
fn paired(
    ir: &mscclang::IrProgram,
    inputs: &[Vec<f32>],
    chunk_elems: usize,
    arena: &mut ExecArena,
    a: &RunOptions,
    b: &RunOptions,
    iters: usize,
) -> Paired {
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    let mut ratios = Vec::with_capacity(iters);
    let mut stats_a = None;
    for i in 0..iters {
        let order = if i % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        let (mut t_a, mut t_b) = (f64::INFINITY, f64::INFINITY);
        for is_a in order {
            let opts = if is_a { a } else { b };
            let t0 = Instant::now();
            let report = run(Run::new(ir, inputs, chunk_elems, opts).with_arena(arena));
            let (out, s) = (report.outputs.expect("runs"), report.stats);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(&out);
            arena.recycle_outputs(out);
            if is_a {
                t_a = dt;
                if dt < best_a {
                    best_a = dt;
                    // Stats travel with the iteration whose time is reported.
                    stats_a = Some(s);
                }
            } else {
                t_b = dt;
                if dt < best_b {
                    best_b = dt;
                }
            }
        }
        ratios.push(t_a / t_b);
    }
    let class_log_mean = |parity: usize| -> f64 {
        let mut logs: Vec<f64> = ratios
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, r)| r.ln())
            .collect();
        logs.sort_by(f64::total_cmp);
        let mid = &logs[logs.len() / 4..(3 * logs.len()).div_ceil(4)];
        mid.iter().sum::<f64>() / mid.len() as f64
    };
    Paired {
        best_a,
        best_b,
        ratio: ((class_log_mean(0) + class_log_mean(1)) / 2.0).exp(),
        stats_a: stats_a.expect("at least one iteration"),
    }
}

fn measure(
    collective: &'static str,
    ranks: usize,
    bytes_per_rank: u64,
    iters: usize,
    gated: bool,
) -> Entry {
    let program = build(collective, ranks);
    let ir = compile(&program, &CompileOptions::default().with_verify(false)).expect("compiles");
    let in_chunks = ir.collective.in_chunks();
    let chunk_elems = ((bytes_per_rank as usize / 4) / in_chunks).max(1);
    let inputs = reference::random_inputs(&ir, chunk_elems, 42);
    let on = RunOptions::default();
    let off = RunOptions {
        metrics: false,
        ..RunOptions::default()
    };
    let flight_off = RunOptions {
        flight: false,
        ..RunOptions::default()
    };
    let epochs_auto = RunOptions {
        epochs: EpochMode::Auto,
        ..RunOptions::default()
    };
    // The old executor model: one OS thread per thread block. Pinning
    // the pool that wide reproduces its oversubscription, so the paired
    // ratio against the auto pool is the scheduler's speedup.
    let oversubscribed = RunOptions {
        worker_threads: ir.num_threadblocks(),
        ..RunOptions::default()
    };

    // One arena across warmup and measurement: warmup runs pay every
    // allocation (tiles, rank memory, result vectors), so measured
    // iterations report the steady state — allocs_per_step == 0 when
    // recycling is perfect. Two warmups, because the pool's high
    // watermark is scheduling-dependent and can grow once more on the
    // second pass.
    let mut arena = ExecArena::new(&ir, &on);
    for _ in 0..2 {
        let warm = run(Run::new(&ir, &inputs, chunk_elems, &on).with_arena(&mut arena))
            .outputs
            .expect("warmup");
        arena.recycle_outputs(warm);
    }

    let metrics = paired(&ir, &inputs, chunk_elems, &mut arena, &on, &off, iters);
    // Flight-recorder cost: the always-on default against flight off,
    // same estimator and budget split as the epoch pair.
    let flight = paired(
        &ir,
        &inputs,
        chunk_elems,
        &mut arena,
        &on,
        &flight_off,
        (iters / 2).max(4),
    );
    // Fault-free epoch cost: `--epochs auto` against the plain default,
    // same estimator. Half the pair budget — the gate aggregates across
    // points, and this pair rides on an already-warmed arena.
    let epochs = paired(
        &ir,
        &inputs,
        chunk_elems,
        &mut arena,
        &epochs_auto,
        &on,
        (iters / 2).max(4),
    );
    // Old-vs-new scheduler: thread-per-TB-wide pool against auto.
    let sched = paired(
        &ir,
        &inputs,
        chunk_elems,
        &mut arena,
        &oversubscribed,
        &on,
        (iters / 2).max(4),
    );
    let stats = metrics.stats_a;
    let moved = in_chunks as f64 * chunk_elems as f64 * 4.0;
    Entry {
        collective,
        ranks,
        bytes_per_rank: moved as u64,
        gbps: moved / metrics.best_a / 1e9,
        gbps_metrics_off: moved / metrics.best_b / 1e9,
        overhead_ratio: metrics.ratio,
        flight_overhead_ratio: flight.ratio,
        epoch_overhead_ratio: epochs.ratio,
        sched_speedup_ratio: sched.ratio,
        allocs_per_step: if stats.instructions == 0 {
            0.0
        } else {
            stats.pool.allocated as f64 / stats.instructions as f64
        },
        pool_allocated: stats.pool.allocated,
        pool_reused: stats.pool.reused,
        gated,
    }
}

fn to_json(mode: &str, entries: &[Entry]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"runtime_throughput\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"unit\": \"GB/s (bytes-per-rank / wall time)\",");
    let _ = writeln!(s, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"collective\": \"{}\", \"ranks\": {}, \"bytes_per_rank\": {}, \
             \"gbps\": {:.3}, \"gbps_metrics_off\": {:.3}, \"metrics_overhead_ratio\": {:.4}, \
             \"flight_overhead_ratio\": {:.4}, \
             \"epoch_overhead_ratio\": {:.4}, \"sched_speedup_ratio\": {:.4}, \
             \"allocs_per_step\": {:.4}, \
             \"pool_allocated\": {}, \"pool_reused\": {}}}{comma}",
            e.collective,
            e.ranks,
            e.bytes_per_rank,
            e.gbps,
            e.gbps_metrics_off,
            e.overhead_ratio,
            e.flight_overhead_ratio,
            e.epoch_overhead_ratio,
            e.sched_speedup_ratio,
            e.allocs_per_step,
            e.pool_allocated,
            e.pool_reused,
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Pulls `(collective, ranks, bytes_per_rank) -> gbps` out of a previously
/// emitted JSON file with a line-oriented scan (the format above is one
/// entry per line; no JSON parser in the dependency tree).
fn parse_baseline(text: &str) -> Vec<(String, usize, u64, f64)> {
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
                field(l, "bytes_per_rank")?.parse().ok()?,
                field(l, "gbps")?.parse().ok()?,
            ))
        })
        .collect()
}

fn check_regression(entries: &[Entry], baseline: &str, tolerance: f64) -> Result<(), String> {
    let base = parse_baseline(baseline);
    let mut compared = 0usize;
    for e in entries {
        let Some((_, _, _, base_gbps)) = base
            .iter()
            .find(|(c, r, b, _)| c == e.collective && *r == e.ranks && *b == e.bytes_per_rank)
        else {
            continue;
        };
        compared += 1;
        let floor = base_gbps * (1.0 - tolerance);
        if e.gbps < floor {
            return Err(format!(
                "{} ranks={} bytes={}: {:.3} GB/s is a >{:.0}% regression vs baseline {:.3} GB/s",
                e.collective,
                e.ranks,
                e.bytes_per_rank,
                e.gbps,
                tolerance * 100.0,
                base_gbps,
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
    // Rows: (ranks, bytes/rank, paired iterations, gates?). The base
    // rows keep their historic shape so baselines stay comparable; the
    // 16- and 64-rank rows exercise the scheduler where thread blocks
    // far outnumber cores. Those rows are excluded from the overhead
    // gates (`gates?` = false): their per-run times are small and
    // sync-dominated enough that the paired estimator reads scheduler
    // noise, not counter cost.
    let rows: Vec<(usize, u64, usize, bool)> = match scale {
        // Full-scale executions are long enough that a handful of pairs
        // gives a usable interquartile band; fewer and the reported
        // overhead ratio is scheduler noise.
        Scale::Full => vec![
            (8, 1 << 20, 9, true),
            (8, 8 << 20, 9, true),
            (8, 64 << 20, 9, true),
            (16, 8 << 20, 5, false),
            (64, 8 << 20, 5, false),
        ],
        // Quick runs are tiny and sync-dominated, so the overhead gate
        // needs more best-of samples than the full-scale sweep to beat
        // scheduler noise.
        Scale::Quick => vec![
            (4, 1 << 16, 120, true),
            (4, 1 << 20, 120, true),
            (16, 1 << 16, 24, false),
            (64, 1 << 16, 12, false),
        ],
    };
    let mode = match scale {
        Scale::Full => "full",
        Scale::Quick => "quick",
    };

    let run_sweep = || {
        let mut entries = Vec::new();
        for collective in ["allreduce_ring", "allgather_recursive_doubling"] {
            for &(ranks, bytes, iters, gated) in &rows {
                let e = measure(collective, ranks, bytes, iters, gated);
                println!(
                    "{:<30} ranks={} bytes/rank={:>9} {:>8.3} GB/s ({:>8.3} metrics off, overhead {:+.2}%, flight {:+.2}%, epochs auto {:+.2}%, sched speedup {:.2}x)  allocs/step={:.4} (pool: {} allocated, {} reused)",
                    e.collective, e.ranks, e.bytes_per_rank, e.gbps, e.gbps_metrics_off,
                    (e.overhead_ratio - 1.0) * 100.0,
                    (e.flight_overhead_ratio - 1.0) * 100.0,
                    (e.epoch_overhead_ratio - 1.0) * 100.0,
                    e.sched_speedup_ratio,
                    e.allocs_per_step, e.pool_allocated, e.pool_reused,
                );
                entries.push(e);
            }
        }
        entries
    };
    // Overhead gates: geometric mean of the per-point estimators (ratios
    // multiply, so the geomean is the right aggregate). Metrics pay for
    // "always on"; epochs pay for `--epochs auto` on a fault-free run.
    // Both share a 4% quick-mode budget. The budget is *relative*: the
    // scheduler + zero-elision work roughly tripled small-row
    // throughput, so the same absolute metrics cost now reads as a ~3×
    // larger percentage than when the 3% budget was set; 4% of today's
    // runs is still a smaller absolute cost than 3% was then.
    let overhead_of = |entries: &[Entry], ratio: fn(&Entry) -> f64| -> f64 {
        let logs: Vec<f64> = entries
            .iter()
            .filter(|e| e.gated)
            .map(|e| ratio(e).max(1e-12).ln())
            .collect();
        (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp() - 1.0
    };
    type Gate = (&'static str, fn(&Entry) -> f64);
    let gates: [Gate; 3] = [
        ("metrics", |e| e.overhead_ratio),
        ("flight", |e| e.flight_overhead_ratio),
        ("epochs-auto", |e| e.epoch_overhead_ratio),
    ];

    let mut entries = run_sweep();
    for (what, ratio) in gates {
        let mut overhead = overhead_of(&entries, ratio);
        println!(
            "{what} overhead: {:.2}% (geomean of interquartile paired on/off time ratios across {} gated points)",
            overhead * 100.0,
            entries.iter().filter(|e| e.gated).count()
        );
        if matches!(scale, Scale::Quick) && overhead > 0.04 {
            // One re-measure before failing: at quick-mode sizes a single
            // descheduled worker can shift the estimate past the budget.
            // A real regression fails both sweeps.
            println!(
                "{what} overhead {:.2}% exceeds the 4% budget; re-measuring once",
                overhead * 100.0
            );
            entries = run_sweep();
            overhead = overhead_of(&entries, ratio);
            println!("{what} overhead: {:.2}% (re-measured)", overhead * 100.0);
            if overhead > 0.04 {
                eprintln!(
                    "{} OVERHEAD: {:.2}% exceeds the 4% budget in both sweeps",
                    what.to_uppercase(),
                    overhead * 100.0
                );
                std::process::exit(1);
            }
        }
    }

    let json = to_json(mode, &entries);
    let out = std::env::var("MSCCL_BENCH_OUT").unwrap_or_else(|_| "BENCH_RUNTIME.json".into());
    std::fs::write(&out, &json).expect("write BENCH_RUNTIME.json");
    println!("wrote {out}");

    let baseline_path = std::env::args()
        .skip_while(|a| a != "--baseline")
        .nth(1)
        .or_else(|| std::env::var("MSCCL_BENCH_BASELINE").ok());
    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        match check_regression(&entries, &text, 0.20) {
            Ok(()) => println!("no regression vs {path}"),
            Err(msg) => {
                eprintln!("REGRESSION: {msg}");
                std::process::exit(1);
            }
        }
    }
}
