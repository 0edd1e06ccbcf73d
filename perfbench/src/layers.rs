//! Per-layer measurement from outside the program: each compiler pass
//! replayed through its public function, runtime counters read from
//! `execute_with_metrics`, and a memory-bandwidth calibration.

use std::time::Instant;

use msccl_metrics::names;
use msccl_runtime::{execute_with_metrics, reference, RunOptions};
use mscclang::dag::{ChunkDag, InstrDag};
use mscclang::schedule::{assign_channels, assign_threadblocks, find_fifo_cycle, FifoOrder};
use mscclang::{compile, CompileOptions, IrProgram, ReduceOp};

use crate::gen::Shape;
use crate::stats;
use crate::Metric;

/// Per-layer metrics, printed by every `--trace 1` run: `(name, unit)`.
/// A layer the workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("service.hit_latency_p50_us", "us"),
    ("service.miss_latency_p50_us", "us"),
    ("service.queue_us", "us"),
    ("service.exec_us", "us"),
    ("service.compile_ms_per_miss", "ms"),
    ("service.cache_hit_rate", "ratio"),
    ("service.cache_evictions", "count"),
    ("service.attempts_per_req", "count"),
    ("service.unattributed_us", "us"),
    ("algos.build_ms", "ms"),
    ("core.chunk_dag_ms", "ms"),
    ("core.instr_dag_ms", "ms"),
    ("core.fuse_ms", "ms"),
    ("core.channels_ms", "ms"),
    ("core.fifo_check_ms", "ms"),
    ("core.threadblocks_ms", "ms"),
    ("core.epoch_cuts_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("core.instrs_unfused", "count"),
    ("core.instrs_fused", "count"),
    ("runtime.exec_us", "us"),
    ("runtime.instructions", "count"),
    ("runtime.ns_per_instr", "ns"),
    ("runtime.inputs_us", "us"),
    ("runtime.verify_us", "us"),
    ("runtime.sem_wait_ms", "ms"),
    ("runtime.fifo_send_block_ms", "ms"),
    ("runtime.fifo_recv_block_ms", "ms"),
    ("runtime.sched_parks", "count"),
    ("runtime.sched_steals", "count"),
    ("runtime.pool_allocs_per_instr", "ratio"),
    ("runtime.reduce_gbps", "GB/s"),
    ("host.memcpy_gbps", "GB/s"),
    ("sim.simulate_ms", "ms"),
    ("sim.events", "count"),
    ("sim.flows", "count"),
    ("sim.max_heap", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.modeled_us_geomean", "us"),
    ("trace.op_mean_us", "us"),
    ("trace.stage_sum_us", "us"),
    ("trace.residual_us", "us"),
    ("trace.overhead_us", "us"),
    ("share.service", "ratio"),
    ("share.compiler", "ratio"),
    ("share.runtime", "ratio"),
    ("share.sim", "ratio"),
];

/// Orders `measured` as [`PER_LAYER`] and fills the metrics of idle layers
/// with 0.
pub fn complete(measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        assert!(
            PER_LAYER.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "undeclared per-layer metric {} [{}]",
            m.name,
            m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit))
        })
        .collect()
}

/// The stage split of the traced phase: each stage's mean next to the
/// end-to-end mean, the residual, the tracing overhead and each layer's
/// share of the end-to-end time. `stages` are `(layer, mean µs)`.
pub fn split(op_mean_us: f64, untraced_mean_us: f64, stages: &[(&str, f64)]) -> Vec<Metric> {
    // `fold` from +0.0: an empty `f64` sum is -0.0.
    let sum = stages.iter().fold(0.0, |acc, (_, us)| acc + us);
    let mut out = vec![
        Metric::new("trace.op_mean_us", op_mean_us, "us"),
        Metric::new("trace.stage_sum_us", sum, "us"),
        Metric::new("trace.residual_us", op_mean_us - sum, "us"),
        Metric::new("trace.overhead_us", op_mean_us - untraced_mean_us, "us"),
    ];
    for layer in ["service", "compiler", "runtime", "sim"] {
        let us = stages
            .iter()
            .filter(|(l, _)| *l == layer)
            .fold(0.0, |acc, (_, us)| acc + us);
        out.push(Metric::new(
            format!("share.{layer}"),
            stats::ratio(us, op_mean_us),
            "ratio",
        ));
    }
    out
}

/// One program replayed pass by pass.
struct Replay {
    /// build, chunk DAG, instruction DAG, fuse, channels, FIFO check,
    /// thread blocks, epoch cuts, verify, full compile — milliseconds.
    ms: [f64; 10],
    /// Whether the thread-block pass ran (it is skipped when the
    /// depth-ordered FIFO check finds a cycle the full compile resolves by
    /// unfusing).
    threadblocks: bool,
    unfused: usize,
    fused: usize,
}

const PASSES: [&str; 10] = [
    "algos.build_ms",
    "core.chunk_dag_ms",
    "core.instr_dag_ms",
    "core.fuse_ms",
    "core.channels_ms",
    "core.fifo_check_ms",
    "core.threadblocks_ms",
    "core.epoch_cuts_ms",
    "core.verify_ms",
    "core.compile_ms",
];

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64() * 1e3)
}

/// Replays the service's compile of `shape` (default options) one public
/// pass at a time.
fn replay(shape: &Shape) -> Result<Replay, String> {
    let opts = CompileOptions::default();
    let (program, build) = timed(|| msccl_algos::build_by_name(shape.algorithm, &shape.spec()));
    let program = program.map_err(|e| format!("build {}: {e}", shape.algorithm))?;
    let (chunk_dag, chunk_ms) = timed(|| ChunkDag::build(&program, opts.instances));
    let chunk_dag = chunk_dag.map_err(|e| format!("chunk dag {}: {e}", shape.algorithm))?;
    let (mut dag, instr_ms) = timed(|| InstrDag::build(&chunk_dag));
    let unfused = dag.live_count();
    let ((), fuse_ms) = timed(|| mscclang::passes::fuse(&mut dag));
    let fused = dag.live_count();
    let (ca, channels_ms) = timed(|| assign_channels(&dag, opts.max_tbs_per_rank));
    let ca = ca.map_err(|e| format!("channels {}: {e}", shape.algorithm))?;
    let (cycle, fifo_ms) = timed(|| find_fifo_cycle(&dag, &ca, FifoOrder::Depth, opts.slots));
    let (threadblocks, tb_ms) = if cycle.is_none() {
        let (r, ms) = timed(|| {
            assign_threadblocks(
                &dag,
                &ca,
                opts.max_tbs_per_rank,
                FifoOrder::Depth,
                opts.slots,
            )
        });
        r.map_err(|e| format!("thread blocks {}: {e}", shape.algorithm))?;
        (true, ms)
    } else {
        (false, 0.0)
    };
    let (ir, compile_ms) = timed(|| compile(&program, &opts));
    let ir = ir.map_err(|e| format!("compile {}: {e}", shape.algorithm))?;
    let (_, epoch_ms) = timed(|| mscclang::passes::epochs::epoch_cuts(&ir));
    let (verified, verify_ms) =
        timed(|| mscclang::verify::check(&ir, &mscclang::verify::VerifyOptions::default()));
    verified.map_err(|e| format!("verify {}: {e}", shape.algorithm))?;
    Ok(Replay {
        ms: [
            build,
            chunk_ms,
            instr_ms,
            fuse_ms,
            channels_ms,
            fifo_ms,
            tb_ms,
            epoch_ms,
            verify_ms,
            compile_ms,
        ],
        threadblocks,
        unfused,
        fused,
    })
}

/// Per-compile pass times over `programs`, each weighted by how many
/// times the run compiled it.
pub fn compiler(programs: &[(Shape, u64)]) -> Result<Vec<Metric>, String> {
    let mut sums = [0.0f64; 10];
    let mut weights = [0.0f64; 10];
    let (mut unfused, mut fused, mut total) = (0.0, 0.0, 0.0);
    for (shape, weight) in programs {
        let w = *weight as f64;
        let r = replay(shape)?;
        for (i, ms) in r.ms.iter().enumerate() {
            if i == 6 && !r.threadblocks {
                continue;
            }
            sums[i] += ms * w;
            weights[i] += w;
        }
        unfused += r.unfused as f64 * w;
        fused += r.fused as f64 * w;
        total += w;
    }
    let mut out: Vec<Metric> = PASSES
        .iter()
        .enumerate()
        .map(|(i, name)| Metric::new(*name, stats::ratio(sums[i], weights[i]), "ms"))
        .collect();
    out.push(Metric::new(
        "core.instrs_unfused",
        stats::ratio(unfused, total),
        "count",
    ));
    out.push(Metric::new(
        "core.instrs_fused",
        stats::ratio(fused, total),
        "count",
    ));
    Ok(out)
}

/// Runtime counters of single executions, summed over a sample.
#[derive(Debug, Default)]
pub struct RuntimeSample {
    pub runs: u64,
    pub exec_s: f64,
    pub inputs_s: f64,
    pub verify_s: f64,
    pub instructions: u64,
    pub sem_wait_ns: u64,
    pub fifo_send_ns: u64,
    pub fifo_recv_ns: u64,
    pub parks: u64,
    pub steals: u64,
    pub pool_allocs: u64,
}

impl RuntimeSample {
    /// Generates inputs, runs `ir` once through `execute_with_metrics`,
    /// checks the outputs against the reference semantics, and adds the
    /// counters. Returns the outputs.
    pub fn probe(
        &mut self,
        ir: &IrProgram,
        elems: usize,
        seed: u64,
        opts: &RunOptions,
    ) -> Result<Vec<Vec<f32>>, String> {
        let (inputs, inputs_ms) = timed(|| reference::random_inputs(ir, elems, seed));
        let (run, exec_ms) = timed(|| execute_with_metrics(ir, &inputs, elems, opts));
        let (outputs, m) = run.map_err(|e| e.to_string())?;
        let (checked, verify_ms) = timed(|| {
            reference::check_outputs(&ir.collective, &inputs, &outputs, elems, opts.reduce_op)
        });
        checked?;
        self.runs += 1;
        self.inputs_s += inputs_ms / 1e3;
        self.exec_s += exec_ms / 1e3;
        self.verify_s += verify_ms / 1e3;
        self.instructions += m.counter_total(names::INSTRUCTIONS);
        self.sem_wait_ns += m.counter_total(names::SEM_WAIT_NS);
        self.fifo_send_ns += m.counter_total(names::FIFO_SEND_BLOCK_NS);
        self.fifo_recv_ns += m.counter_total(names::FIFO_RECV_BLOCK_NS);
        self.parks += m.counter_total(names::SCHED_PARKS);
        self.steals += m.counter_total(names::SCHED_STEALS);
        self.pool_allocs += m.counter_total(names::POOL_ALLOCATED);
        Ok(outputs)
    }

    /// Per-run means. `runtime.exec_us` and `runtime.ns_per_instr` are left
    /// to the workload, which times executions on its own path; a probe
    /// runs without a warm arena and is slower than that path.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.runs as f64;
        let per = |v: f64| stats::ratio(v, n);
        vec![
            Metric::new(
                "runtime.instructions",
                per(self.instructions as f64),
                "count",
            ),
            Metric::new("runtime.inputs_us", per(self.inputs_s) * 1e6, "us"),
            Metric::new("runtime.verify_us", per(self.verify_s) * 1e6, "us"),
            Metric::new(
                "runtime.sem_wait_ms",
                per(self.sem_wait_ns as f64) / 1e6,
                "ms",
            ),
            Metric::new(
                "runtime.fifo_send_block_ms",
                per(self.fifo_send_ns as f64) / 1e6,
                "ms",
            ),
            Metric::new(
                "runtime.fifo_recv_block_ms",
                per(self.fifo_recv_ns as f64) / 1e6,
                "ms",
            ),
            Metric::new("runtime.sched_parks", per(self.parks as f64), "count"),
            Metric::new("runtime.sched_steals", per(self.steals as f64), "count"),
            Metric::new(
                "runtime.pool_allocs_per_instr",
                stats::ratio(self.pool_allocs as f64, self.instructions as f64),
                "ratio",
            ),
        ]
    }
}

/// Reduce-kernel and `memcpy` bandwidth over buffers that together exceed
/// the last-level cache: bytes of destination written per second, median
/// of five passes.
pub fn calibration(llc_bytes: Option<u64>) -> Vec<Metric> {
    let bytes = (llc_bytes.unwrap_or(32 << 20).max(8 << 20) * 3 / 4) as usize;
    let elems = bytes / std::mem::size_of::<f32>();
    let src: Vec<f32> = (0..elems).map(|i| (i % 64) as f32).collect();
    let mut dst = vec![1.0f32; elems];
    let mut reduce = Vec::new();
    let mut copy = Vec::new();
    for _ in 0..5 {
        let (_, ms) = timed(|| {
            msccl_runtime::kernels::reduce_into_slice(ReduceOp::Sum, &mut dst, &src);
        });
        reduce.push(ms);
        let (_, ms) = timed(|| dst.copy_from_slice(std::hint::black_box(&src)));
        copy.push(ms);
    }
    std::hint::black_box(&dst);
    let gbps = |ms: f64| stats::ratio(bytes as f64, ms / 1e3) / 1e9;
    vec![
        Metric::new("runtime.reduce_gbps", gbps(stats::median(&reduce)), "GB/s"),
        Metric::new("host.memcpy_gbps", gbps(stats::median(&copy)), "GB/s"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_fills_idle_layers_in_declared_order() {
        let out = complete(vec![Metric::new("sim.events", 7.0, "count")]);
        assert_eq!(out.len(), PER_LAYER.len());
        for (m, (name, unit)) in out.iter().zip(PER_LAYER) {
            assert_eq!((m.name.as_str(), m.unit), (name, unit));
        }
        let events = out.iter().find(|m| m.name == "sim.events").unwrap();
        assert_eq!(events.value, 7.0);
        assert!(out
            .iter()
            .filter(|m| m.name != "sim.events")
            .all(|m| m.value == 0.0));
    }

    #[test]
    fn split_reports_residual_overhead_and_shares() {
        let m = split(
            100.0,
            90.0,
            &[("runtime", 60.0), ("service", 10.0), ("service", 5.0)],
        );
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("trace.stage_sum_us"), 75.0);
        assert_eq!(get("trace.residual_us"), 25.0);
        assert_eq!(get("trace.overhead_us"), 10.0);
        assert_eq!(get("share.runtime"), 0.6);
        assert_eq!(get("share.service"), 0.15);
        assert_eq!(get("share.sim"), 0.0);
    }

    #[test]
    fn replay_matches_the_full_compile() {
        // Ring allreduce at 8 ranks.
        let shape = crate::gen::hot_keys()[3].shape;
        let r = replay(&shape).unwrap();
        let ir = compile(
            &msccl_algos::build_by_name(shape.algorithm, &shape.spec()).unwrap(),
            &CompileOptions::default(),
        )
        .unwrap();
        assert!(r.fused < r.unfused);
        assert_eq!(r.fused, ir.num_instructions());
        assert!(r.ms.iter().all(|&ms| ms >= 0.0));
    }
}
