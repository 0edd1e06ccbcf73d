//! The interpreter proper: one resumable *task* per IR thread block on a
//! work-stealing worker pool, a tiling outer loop, bounded FIFO
//! connections and semaphore dependencies (Figure 5).
//!
//! Each thread block's interpreter loop is compiled into a [`TbTask`]
//! state machine that runs until it would block — on a dependency
//! semaphore, a FIFO, an epoch gate, or a fault-injected sleep — and
//! then suspends with a [`WakeKey`] naming what it waits for. A fixed
//! pool of `min(num_cpus, num_tbs)` workers (override:
//! [`RunOptions::worker_threads`]) runs the tasks from per-worker deques
//! with stealing; the peer that makes a blocked condition true (a
//! semaphore set, a FIFO push/drain, a gate release) wakes the key and
//! the task resumes, possibly on a different worker. The compiled
//! per-block instruction order is untouched — only *who* runs a block's
//! next step, and when, changed — so results stay bit-exact with the
//! dedicated-thread executor this replaced, at any pool size.
//!
//! Execution can be traced: a [`Run`] with [`trace`](Run::trace) set
//! returns a wall-clock [`Trace`] built from lock-free per-worker event
//! buffers merged after the threads join. An untraced run skips every
//! event push. Independently of tracing, each worker keeps a small ring buffer
//! of its recent activity, and when the run fails the error carries every
//! thread block's last few entries — enough to see who stalled on what.
//!
//! Failure handling is *cooperative* (see [`crate::cancel`]): the first
//! worker to fail — step timeout, global deadline, panic, injected kill —
//! trips a shared [`CancelToken`] recording the originating failure, and
//! every other worker aborts its blocking waits within milliseconds. The
//! run therefore reports one precise origin instead of N cascading
//! timeouts, and a kill anywhere tears the whole execution down in well
//! under a second regardless of the configured timeouts.
//!
//! Deterministic faults ([`msccl_faults`]) are injected at two hook
//! points: block faults (stall/kill) as an instruction starts, delivery
//! faults (drop/delay/duplicate/corrupt) as a tile is handed to its FIFO.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::{Duration, Instant};

use msccl_faults::{corrupt_payload, BlockAction, DeliveryAction, FaultInjector, FaultPlanError};
use msccl_metrics::{names, Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use msccl_topology::Protocol;
use msccl_trace::{ClockDomain, EventKind, Trace, TraceEvent};

use mscclang::{IrProgram, OpCode, ReduceOp, Space};

use mscclang::EpochMode;

use crate::cancel::{CancelToken, FailureCause, FailureOrigin, Poke};
use crate::epoch::{EpochCheckpoint, EpochState, EpochStatus, WorkerEpoch};
use crate::fifo::Fifo;
use crate::flight::{
    Blackbox, BlackboxConn, BlackboxFailure, BlackboxSched, BlockedOn, EventRing, FlightRecorder,
    Moment, StallDiagnosis, TaskStall, WaitForGraph,
};
use crate::memory::{RankMemory, SpaceBuffers};
use crate::pool::{PoolStats, PooledTile, TilePool};
use crate::sched::{Scheduler, WakeKey};
use crate::semaphore::Semaphore;

/// Options controlling an execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Protocol whose slot size sets the default tile size and whose slot
    /// count bounds each connection's FIFO (§6.1).
    pub protocol: Protocol,
    /// Override for the tile size in elements; defaults to
    /// `slot_bytes / 4`.
    pub tile_elems: Option<usize>,
    /// The reduction operator.
    pub reduce_op: ReduceOp,
    /// How long any single blocking step may wait before the run is
    /// declared hung (a deadlock diagnostic for hand-written IR; compiled
    /// IR is deadlock-free by construction). Progress resets the clock:
    /// a run may legitimately take far longer than this end to end, as
    /// long as no *individual* semaphore wait, FIFO send or FIFO receive
    /// stalls past it. Bound total wall-clock time with [`deadline`].
    ///
    /// [`deadline`]: RunOptions::deadline
    pub timeout: Duration,
    /// Optional global wall-clock budget for the whole execution,
    /// measured from entry. Unlike [`timeout`], this fires even when
    /// every step makes (slow) progress. `None` means unbounded.
    ///
    /// [`timeout`]: RunOptions::timeout
    pub deadline: Option<Duration>,
    /// Whether to keep the always-on metric counters (bytes/messages per
    /// connection, wait and block time, per-instruction-kind latency
    /// histograms — see [`msccl_metrics::names`]). On by default: the hot
    /// path per counter is one relaxed atomic add into a per-worker
    /// shard, and the throughput bench gates the total overhead below a
    /// few percent. Disable only to measure that overhead.
    pub metrics: bool,
    /// Epoch checkpoint placement (`--epochs`). `Off` (the default) runs
    /// without barriers or snapshots; `Auto` lets the traffic-budget
    /// cost model pick a count (possibly zero — short runs are cheaper
    /// to retry than to checkpoint); `Count(n)` forces `n` boundaries,
    /// clamped to the consistent cut positions available. See
    /// [`crate::epoch`] for the machinery and [`Run::resume`] for
    /// resuming from a checkpoint.
    pub epochs: EpochMode,
    /// Size of the work-stealing worker pool (`--threads`). `0` (the
    /// default) picks `min(available_parallelism, num_tbs)`; any other
    /// value is clamped to `[1, num_tbs]`. Results are bit-exact at
    /// every pool size — the setting trades scheduling parallelism
    /// against oversubscription, nothing else.
    pub worker_threads: usize,
    /// Whether to keep the always-on flight recorder: per-worker
    /// fixed-capacity ring buffers of compact binary records (task
    /// dispatches, blocks, wakes, steals, parks, semaphore sets, FIFO
    /// depths, gate arrivals). On by default — the hot path is two
    /// relaxed atomic stores into a preallocated ring with no clock
    /// reads, and the throughput bench gates the overhead below the
    /// same few-percent budget as metrics. The rings feed the
    /// post-mortem black box; disable only to measure the overhead.
    pub flight: bool,
    /// Directory for post-mortem black-box dumps. When set, every failed
    /// run (hang, deadline, panic, injected kill) serializes a versioned
    /// [`msccl-blackbox-v1`](crate::BLACKBOX_VERSION) JSON artifact —
    /// flight rings, wait-for graph, stall diagnosis, scheduler and
    /// connection state — readable by `msccl doctor`. `None` (the
    /// default) writes nothing; the library never touches the
    /// filesystem unless asked.
    pub blackbox_dir: Option<std::path::PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            protocol: Protocol::Simple,
            tile_elems: None,
            reduce_op: ReduceOp::Sum,
            timeout: Duration::from_secs(20),
            deadline: None,
            metrics: true,
            epochs: EpochMode::Off,
            worker_threads: 0,
            flight: true,
            blackbox_dir: None,
        }
    }
}

/// Errors from the functional runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The provided inputs do not match the program's layout.
    InputShape {
        /// Description of the mismatch.
        message: String,
    },
    /// The [`RunOptions`] are self-contradictory or degenerate.
    InvalidOptions {
        /// Which option, and why.
        message: String,
    },
    /// A fault plan does not fit the program it was asked to disrupt.
    InvalidFaultPlan {
        /// The underlying [`FaultPlanError`], rendered.
        message: String,
    },
    /// A thread block blocked longer than the timeout (deadlock or hang).
    Hang {
        /// Rank of the stuck thread block.
        rank: usize,
        /// Thread block id.
        tb: usize,
        /// Step it was executing.
        step: usize,
        /// Every thread block's most recent activity (one line per ring
        /// entry, oldest first), plus any injected faults that struck
        /// and the classified stall diagnosis.
        context: Vec<String>,
        /// Structured wait-for-graph diagnosis of the stall (boxed: the
        /// graph snapshot is large relative to the happy-path variants).
        diagnosis: Box<StallDiagnosis>,
        /// Observed cancellation latency: time from the failing worker
        /// tripping the cancel token to the last worker joining. This is
        /// what "prompt teardown" means, independent of how loaded the
        /// host is before or after the run.
        drain: Duration,
    },
    /// The global wall-clock [`deadline`](RunOptions::deadline) passed.
    DeadlineExceeded {
        /// Rank of the thread block that observed the deadline first.
        rank: usize,
        /// Thread block id.
        tb: usize,
        /// Step it was executing.
        step: usize,
        /// Every thread block's most recent activity, plus any injected
        /// faults that struck.
        context: Vec<String>,
        /// Structured stall diagnosis (see [`RuntimeError::Hang`]).
        diagnosis: Box<StallDiagnosis>,
        /// Observed cancellation latency (see [`RuntimeError::Hang`]).
        drain: Duration,
    },
    /// A worker thread panicked.
    WorkerPanic {
        /// Rank of the panicking thread block.
        rank: usize,
        /// Thread block id.
        tb: usize,
        /// Step it was executing when it panicked.
        step: usize,
        /// The panic payload, stringified.
        payload: String,
        /// Every thread block's most recent activity.
        context: Vec<String>,
        /// Structured stall diagnosis (see [`RuntimeError::Hang`]).
        diagnosis: Box<StallDiagnosis>,
        /// Observed cancellation latency (see [`RuntimeError::Hang`]).
        drain: Duration,
    },
    /// An injected fault killed a thread block.
    InjectedFault {
        /// Rank of the killed thread block.
        rank: usize,
        /// Thread block id.
        tb: usize,
        /// Step at which the fault struck.
        step: usize,
        /// The fault, rendered in fault-plan syntax.
        fault: String,
        /// Every thread block's most recent activity, plus any injected
        /// faults that struck.
        context: Vec<String>,
        /// Structured stall diagnosis (see [`RuntimeError::Hang`]).
        diagnosis: Box<StallDiagnosis>,
        /// Observed cancellation latency (see [`RuntimeError::Hang`]).
        drain: Duration,
    },
    /// Outputs did not match the collective's reference semantics (raised
    /// by the recovery layer's verification, never by plain execution).
    VerificationFailed {
        /// First mismatch found.
        message: String,
    },
    /// The whole-recovery deadline budget ([`RunOptions::deadline`] under
    /// [`recover`](crate::recover)) ran out
    /// between attempts: the remaining budget was smaller than the next
    /// backoff, so the loop failed fast instead of sleeping past it.
    RecoveryBudgetExhausted {
        /// Attempts completed before the budget ran out.
        attempts: usize,
        /// The backoff that would have overrun the budget, in
        /// milliseconds.
        next_backoff_ms: u64,
        /// Budget remaining when the decision was taken, in milliseconds.
        remaining_ms: u64,
        /// The transient failure that would have been retried, rendered.
        last_error: String,
    },
}

fn write_context(f: &mut fmt::Formatter<'_>, context: &[String]) -> fmt::Result {
    if !context.is_empty() {
        write!(f, "; recent activity per thread block:")?;
        for line in context {
            write!(f, "\n  {line}")?;
        }
    }
    Ok(())
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InputShape { message } => write!(f, "bad input shape: {message}"),
            RuntimeError::InvalidOptions { message } => write!(f, "invalid run options: {message}"),
            RuntimeError::InvalidFaultPlan { message } => {
                write!(f, "invalid fault plan: {message}")
            }
            RuntimeError::Hang {
                rank,
                tb,
                step,
                context,
                ..
            } => {
                write!(f, "execution hung at rank {rank} tb {tb} step {step}")?;
                write_context(f, context)
            }
            RuntimeError::DeadlineExceeded {
                rank,
                tb,
                step,
                context,
                ..
            } => {
                write!(
                    f,
                    "global deadline exceeded at rank {rank} tb {tb} step {step}"
                )?;
                write_context(f, context)
            }
            RuntimeError::WorkerPanic {
                rank,
                tb,
                step,
                payload,
                context,
                ..
            } => {
                write!(
                    f,
                    "worker panicked at rank {rank} tb {tb} step {step}: {payload}"
                )?;
                write_context(f, context)
            }
            RuntimeError::InjectedFault {
                rank,
                tb,
                step,
                fault,
                context,
                ..
            } => {
                write!(
                    f,
                    "injected fault killed rank {rank} tb {tb} step {step}: {fault}"
                )?;
                write_context(f, context)
            }
            RuntimeError::VerificationFailed { message } => {
                write!(f, "output verification failed: {message}")
            }
            RuntimeError::RecoveryBudgetExhausted {
                attempts,
                next_backoff_ms,
                remaining_ms,
                last_error,
            } => {
                write!(
                    f,
                    "recovery deadline budget exhausted after {attempts} attempt(s): \
                     {remaining_ms}ms remaining < {next_backoff_ms}ms next backoff \
                     (last failure: {last_error})"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<FaultPlanError> for RuntimeError {
    fn from(e: FaultPlanError) -> Self {
        RuntimeError::InvalidFaultPlan {
            message: e.to_string(),
        }
    }
}

impl RuntimeError {
    /// Whether a retry of the same execution could plausibly succeed.
    /// Structural rejections (bad inputs, bad options, bad plans) are
    /// permanent; everything rooted in timing, scheduling or injected
    /// faults is transient under one-shot injection semantics.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        !matches!(
            self,
            RuntimeError::InputShape { .. }
                | RuntimeError::InvalidOptions { .. }
                | RuntimeError::InvalidFaultPlan { .. }
                | RuntimeError::RecoveryBudgetExhausted { .. }
        )
    }

    /// Whether this failure interrupted an otherwise-sound execution, so
    /// resuming from an epoch checkpoint is safe. Verification failures
    /// are excluded deliberately: a corrupting fault may have poisoned
    /// memory *before* the checkpoint was taken, so only a from-scratch
    /// retry clears it.
    #[must_use]
    pub fn is_resumable(&self) -> bool {
        matches!(
            self,
            RuntimeError::Hang { .. }
                | RuntimeError::WorkerPanic { .. }
                | RuntimeError::InjectedFault { .. }
        )
    }

    /// The observed cancellation latency — time from the failing worker
    /// tripping the cancel token to the last worker joining — for the
    /// failure variants that tear a run down. This, not wall clock around
    /// the whole call, is the right thing to assert "prompt abort" on:
    /// it excludes setup and scheduling noise on loaded hosts.
    #[must_use]
    pub fn drain(&self) -> Option<Duration> {
        match self {
            RuntimeError::Hang { drain, .. }
            | RuntimeError::DeadlineExceeded { drain, .. }
            | RuntimeError::WorkerPanic { drain, .. }
            | RuntimeError::InjectedFault { drain, .. } => Some(*drain),
            _ => None,
        }
    }

    /// The structured wait-for-graph diagnosis for the failure variants
    /// that tear a run down, or `None` for structural rejections.
    #[must_use]
    pub fn diagnosis(&self) -> Option<&StallDiagnosis> {
        match self {
            RuntimeError::Hang { diagnosis, .. }
            | RuntimeError::DeadlineExceeded { diagnosis, .. }
            | RuntimeError::WorkerPanic { diagnosis, .. }
            | RuntimeError::InjectedFault { diagnosis, .. } => Some(diagnosis),
            _ => None,
        }
    }

    /// Path of the black-box dump written for this failure, when
    /// [`RunOptions::blackbox_dir`] was set.
    #[must_use]
    pub fn blackbox_path(&self) -> Option<&std::path::Path> {
        self.diagnosis().and_then(|d| d.dump.as_deref())
    }
}

/// Observability counters for one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tile-pool behaviour *during this run* (allocation/reuse deltas;
    /// `free` is the pool's absolute level afterwards). With a warm
    /// [`ExecArena`] (see [`Run::arena`]), `pool.allocated` is zero.
    pub pool: PoolStats,
    /// Instruction instances completed across all thread blocks and
    /// tiles — the denominator for allocations-per-step.
    pub instructions: u64,
}

/// A tile pool for `ir` under `opts`: buffers sized to one maximal tile
/// (`tile_elems` × the largest instruction `count`).
fn tile_pool(ir: &IrProgram, opts: &RunOptions) -> Arc<TilePool> {
    let params = opts.protocol.params();
    let tile_elems = opts
        .tile_elems
        .unwrap_or_else(|| ((params.slot_bytes as usize) / std::mem::size_of::<f32>()).max(1));
    let max_count = ir
        .gpus
        .iter()
        .flat_map(|g| &g.threadblocks)
        .flat_map(|t| &t.instructions)
        .map(|i| i.count.max(1))
        .max()
        .unwrap_or(1);
    TilePool::new(tile_elems * max_count)
}

/// Warm, reusable execution state: the tile pool plus recycled rank
/// memory spaces and (optionally) result vectors. A [`Run`] with an
/// arena draws every buffer of the data path from here and stashes the space
/// buffers back after the run, so repeated executions of the same
/// program allocate nothing in steady state — not tiles, not rank
/// memory, and, when finished outputs are handed back with
/// [`recycle_outputs`](ExecArena::recycle_outputs), not result buffers
/// either. Beyond skipping `malloc`, reuse keeps the pages faulted in:
/// for large buffers that is worth more than the allocation itself.
pub struct ExecArena {
    pool: Arc<TilePool>,
    spares: Vec<SpaceBuffers>,
    outputs: Vec<Vec<f32>>,
    /// Recycled epoch-checkpoint staging buffers: drawn when a run's
    /// [`RunOptions::epochs`] schedule places boundaries, returned after
    /// the run. Like `spares`, reuse keeps the snapshot path free of
    /// steady-state allocation *and* of fresh page faults.
    snaps: Vec<SpaceBuffers>,
    /// Metric handles resolved once for the arena's program and reused
    /// by every metered run whose thread-block layout still matches.
    /// Counters accumulate across runs; a snapshotting run zeroes them
    /// first.
    metrics: Option<Arc<ArenaMetrics>>,
    /// Flight-recorder rings reused across runs when the worker count
    /// matches; reset (not reallocated) at the start of each run.
    flight: Option<Arc<FlightRecorder>>,
}

impl ExecArena {
    /// An arena whose tile pool is sized for `ir` under `opts`: buffers
    /// hold one maximal tile (`tile_elems` × the largest instruction
    /// `count`). Memory-space and output buffers are adopted
    /// from whatever program runs in it, so one arena can serve
    /// different programs of similar size.
    #[must_use]
    pub fn new(ir: &IrProgram, opts: &RunOptions) -> Self {
        Self {
            pool: tile_pool(ir, opts),
            spares: Vec::new(),
            outputs: Vec::new(),
            snaps: Vec::new(),
            metrics: opts.metrics.then(|| Arc::new(ArenaMetrics::new(ir))),
            flight: None,
        }
    }

    /// The arena's tile pool, e.g. for inspecting cumulative
    /// [`stats`](TilePool::stats).
    #[must_use]
    pub fn pool(&self) -> &Arc<TilePool> {
        &self.pool
    }

    /// Hands finished output buffers back for reuse as the next run's
    /// result vectors.
    pub fn recycle_outputs(&mut self, outputs: Vec<Vec<f32>>) {
        self.outputs.extend(outputs);
    }
}

type ConnKey = (usize, usize, usize); // (src rank, dst rank, channel)

/// One in this many instructions (per worker) gets a latency-histogram
/// observation. Counting every instruction is cheap; *timing* every
/// instruction is not — two clock reads dwarf the relaxed adds the rest
/// of the instrumentation costs. Sampling keeps the per-op latency
/// distribution honest while staying inside the <3% always-on budget.
/// The first instruction of every worker is always sampled, so even a
/// one-instruction run produces an observation per active opcode.
const LATENCY_SAMPLE_PERIOD: u64 = 8;

// The per-task diagnostic ring (`EventRing`, `Moment`) lives in
// `crate::flight` alongside the rest of the forensics layer.

/// Per-worker trace recorder: a plain `Vec` owned by the worker thread
/// (lock-free by construction), merged into one [`Trace`] after join.
struct Recorder {
    enabled: bool,
    epoch: Instant,
    rank: usize,
    tb: usize,
    events: Vec<TraceEvent>,
}

impl Recorder {
    fn emit(&mut self, kind: EventKind) {
        if self.enabled {
            self.events.push(TraceEvent {
                ts_us: self.epoch.elapsed().as_secs_f64() * 1e6,
                rank: self.rank,
                tb: self.tb,
                kind,
            });
        }
    }
}

/// Every opcode, in [`op_index`] order, for metric-handle construction.
const ALL_OPS: [OpCode; 9] = [
    OpCode::Nop,
    OpCode::Send,
    OpCode::Recv,
    OpCode::Copy,
    OpCode::Reduce,
    OpCode::RecvReduceCopy,
    OpCode::RecvCopySend,
    OpCode::RecvReduceSend,
    OpCode::RecvReduceCopySend,
];

/// Dense index of an opcode into [`WorkerMetrics::ops`].
fn op_index(op: OpCode) -> usize {
    match op {
        OpCode::Nop => 0,
        OpCode::Send => 1,
        OpCode::Recv => 2,
        OpCode::Copy => 3,
        OpCode::Reduce => 4,
        OpCode::RecvReduceCopy => 5,
        OpCode::RecvCopySend => 6,
        OpCode::RecvReduceSend => 7,
        OpCode::RecvReduceCopySend => 8,
    }
}

/// One worker's metric handles, resolved from the [`Registry`] at spawn
/// time so the hot path never touches the registry lock: each update is
/// an array index plus a relaxed atomic add into this worker's shard.
struct WorkerMetrics {
    /// This worker's shard in every sharded metric.
    shard: usize,
    sem_wait_ns: Arc<Counter>,
    fifo_send_block_ns: Arc<Counter>,
    fifo_recv_block_ns: Arc<Counter>,
    /// `(bytes_sent, sends, peak_occupancy)` for this thread block's send
    /// connection, when it has one.
    send_conn: Option<(Arc<Counter>, Arc<Counter>, Arc<Gauge>)>,
    /// `(bytes_received, recvs)` for this thread block's receive
    /// connection, when it has one.
    recv_conn: Option<(Arc<Counter>, Arc<Counter>)>,
    /// Per-opcode `(instruction counter, latency histogram)`, indexed by
    /// [`op_index`].
    ops: Vec<(Arc<Counter>, Arc<Histogram>)>,
}

impl WorkerMetrics {
    fn new(reg: &Registry, shard: usize, rank: usize, tb: &mscclang::IrThreadBlock) -> Self {
        let conn = |src: usize, dst: usize| -> [(String, String); 3] {
            [
                ("src".to_string(), src.to_string()),
                ("dst".to_string(), dst.to_string()),
                ("channel".to_string(), tb.channel.to_string()),
            ]
        };
        fn as_refs(pairs: &[(String, String); 3]) -> Vec<(&str, &str)> {
            pairs
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect()
        }
        let send_conn = tb.send_peer.map(|peer| {
            let labels = conn(rank, peer);
            let labels = as_refs(&labels);
            (
                reg.counter(names::BYTES_SENT, &labels),
                reg.counter(names::SENDS, &labels),
                reg.gauge(names::FIFO_PEAK_OCCUPANCY, &labels),
            )
        });
        let recv_conn = tb.recv_peer.map(|peer| {
            let labels = conn(peer, rank);
            let labels = as_refs(&labels);
            (
                reg.counter(names::BYTES_RECEIVED, &labels),
                reg.counter(names::RECVS, &labels),
            )
        });
        Self {
            shard,
            sem_wait_ns: reg.counter(names::SEM_WAIT_NS, &[]),
            fifo_send_block_ns: reg.counter(names::FIFO_SEND_BLOCK_NS, &[]),
            fifo_recv_block_ns: reg.counter(names::FIFO_RECV_BLOCK_NS, &[]),
            send_conn,
            recv_conn,
            ops: ALL_OPS
                .iter()
                .map(|op| {
                    (
                        reg.counter(names::INSTRUCTIONS, &[("op", op.mnemonic())]),
                        reg.histogram(names::INSTR_LATENCY_NS, &[("op", op.mnemonic())]),
                    )
                })
                .collect(),
        }
    }

    /// Zeroes this worker's slice of every metric it writes. Called by
    /// the worker itself at the start of a snapshotting run, so reused
    /// arena handles yield a per-run snapshot without the main thread
    /// walking ~50 metrics' worth of cache lines serially: shards are
    /// disjoint per worker, and the peak-occupancy gauge has the sending
    /// thread block as its only writer.
    fn reset_own_shard(&self) {
        self.sem_wait_ns.reset_shard(self.shard);
        self.fifo_send_block_ns.reset_shard(self.shard);
        self.fifo_recv_block_ns.reset_shard(self.shard);
        if let Some((bytes_sent, sends, peak)) = &self.send_conn {
            bytes_sent.reset_shard(self.shard);
            sends.reset_shard(self.shard);
            peak.reset();
        }
        if let Some((bytes_recv, recvs)) = &self.recv_conn {
            bytes_recv.reset_shard(self.shard);
            recvs.reset_shard(self.shard);
        }
        for (count, latency) in &self.ops {
            count.reset_shard(self.shard);
            latency.reset_shard(self.shard);
        }
    }
}

/// A run's metric infrastructure, resolved once and reused: the registry
/// plus one [`WorkerMetrics`] per thread block in spawn order. Handle
/// resolution goes through the registry mutex with owned label strings
/// and allocates every metric's shard array, so doing it per run costs
/// tens of microseconds — real money against the <3% always-on overhead
/// budget at small message sizes. An [`ExecArena`] caches one of these;
/// [`Registry::reset`] between runs keeps snapshots per-run.
struct ArenaMetrics {
    registry: Registry,
    workers: Vec<WorkerMetrics>,
    /// Tile-pool counters, written on shard 0 by the main thread after
    /// the workers join.
    pool_allocated: Arc<Counter>,
    pool_reused: Arc<Counter>,
    /// One [`TbIdentity`] per worker, to detect when a different program
    /// runs in the same arena and the cached handles would mislabel its
    /// traffic.
    layout: Vec<TbIdentity>,
}

/// `(rank, tb id, channel, send peer, recv peer)` — everything the metric
/// labels are derived from.
type TbIdentity = (usize, usize, usize, Option<usize>, Option<usize>);

impl ArenaMetrics {
    fn new(ir: &IrProgram) -> Self {
        let num_workers: usize = ir.gpus.iter().map(|g| g.threadblocks.len()).sum();
        let registry = Registry::new(num_workers.max(1));
        let mut workers = Vec::with_capacity(num_workers);
        let mut layout = Vec::with_capacity(num_workers);
        for gpu in &ir.gpus {
            for tb in &gpu.threadblocks {
                workers.push(WorkerMetrics::new(&registry, workers.len(), gpu.rank, tb));
                layout.push((gpu.rank, tb.id, tb.channel, tb.send_peer, tb.recv_peer));
            }
        }
        let pool_allocated = registry.counter(names::POOL_ALLOCATED, &[]);
        let pool_reused = registry.counter(names::POOL_REUSED, &[]);
        Self {
            registry,
            workers,
            pool_allocated,
            pool_reused,
            layout,
        }
    }

    /// Whether `ir`'s thread-block layout is the one these handles were
    /// resolved for.
    fn matches(&self, ir: &IrProgram) -> bool {
        let mut expected = self.layout.iter();
        for gpu in &ir.gpus {
            for tb in &gpu.threadblocks {
                if expected.next()
                    != Some(&(gpu.rank, tb.id, tb.channel, tb.send_peer, tb.recv_peer))
                {
                    return false;
                }
            }
        }
        expected.next().is_none()
    }
}

fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn validate_options(opts: &RunOptions) -> Result<(), RuntimeError> {
    if opts.timeout.is_zero() {
        return Err(RuntimeError::InvalidOptions {
            message: "timeout must be positive".into(),
        });
    }
    if opts.tile_elems == Some(0) {
        return Err(RuntimeError::InvalidOptions {
            message: "tile_elems must be positive when set".into(),
        });
    }
    if opts.deadline.is_some_and(|d| d.is_zero()) {
        return Err(RuntimeError::InvalidOptions {
            message: "deadline must be positive when set".into(),
        });
    }
    Ok(())
}

/// One execution request: a compiled program, its inputs and options,
/// and what the caller wants besides the outputs. Every field past
/// `opts` is optional and independent of the others — a traced run in an
/// arena with faults injected is as expressible as a plain one. Build it
/// with [`Run::new`] and the `with_*` methods (or struct-update syntax
/// for fields held as `Option`s), then hand it to [`run`], or to
/// [`recover`](crate::recover) for the escalation ladder.
pub struct Run<'a> {
    /// The program to execute.
    pub ir: &'a IrProgram,
    /// Rank `r`'s input buffer, `in_chunks * chunk_elems` elements.
    pub inputs: &'a [Vec<f32>],
    /// Elements per chunk.
    pub chunk_elems: usize,
    /// How to execute.
    pub opts: &'a RunOptions,
    /// Caller-owned warm buffers: every buffer of the data path — tiles,
    /// rank memory, result vectors, epoch staging — is drawn from here
    /// and the reusable ones go back afterwards. `None` allocates fresh.
    pub arena: Option<&'a mut ExecArena>,
    /// Deterministic faults to inject. Injection is one-shot per spec
    /// *across the injector's lifetime*: running again with the same
    /// injector models a retry after a transient fault. A disruptive
    /// fault surfaces as a structured error whose context names the
    /// faults that struck; a corrupting fault surfaces only through
    /// output verification.
    pub injector: Option<&'a FaultInjector>,
    /// An [`EpochCheckpoint`] from an earlier failed attempt
    /// ([`EpochStatus::checkpoint`]): rank memory is restored from the
    /// snapshot and every thread block starts at its checkpoint
    /// watermark, so only the work after the last consistent cut is
    /// redone. It must come from the same program under the same
    /// options.
    pub resume: Option<EpochCheckpoint>,
    /// Whether to record a wall-clock [`Trace`] of every instruction,
    /// semaphore wait, FIFO block and message. Each worker appends to
    /// its own buffer; the buffers are merged after the workers join.
    pub trace: bool,
    /// Whether to fold the always-on counters — bytes and messages per
    /// connection, semaphore wait and FIFO block time, per-opcode
    /// latency histograms, tile-pool behaviour — into a
    /// [`MetricsSnapshot`] at the end of the run. With [`RunOptions::metrics`] off there are no
    /// counters, and the report carries no snapshot.
    pub snapshot: bool,
}

impl<'a> Run<'a> {
    /// A plain run: no arena, faults, resume, trace or snapshot.
    #[must_use]
    pub fn new(
        ir: &'a IrProgram,
        inputs: &'a [Vec<f32>],
        chunk_elems: usize,
        opts: &'a RunOptions,
    ) -> Self {
        Self {
            ir,
            inputs,
            chunk_elems,
            opts,
            arena: None,
            injector: None,
            resume: None,
            trace: false,
            snapshot: false,
        }
    }

    /// Sets [`trace`](Run::trace).
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets [`snapshot`](Run::snapshot).
    #[must_use]
    pub fn with_snapshot(mut self, snapshot: bool) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// Draws the data path from `arena` (see [`arena`](Run::arena)).
    #[must_use]
    pub fn with_arena(mut self, arena: &'a mut ExecArena) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Injects faults from `injector` (see [`injector`](Run::injector)).
    #[must_use]
    pub fn with_faults(mut self, injector: &'a FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }
}

/// Everything one [`run`] produced.
#[derive(Debug)]
#[must_use]
pub struct RunReport {
    /// Each rank's output buffer (`out_chunks * chunk_elems` elements),
    /// or why the run failed.
    pub outputs: Result<Vec<Vec<f32>>, RuntimeError>,
    /// Tile-pool and instruction counters; on failure, the work done
    /// before the teardown.
    pub stats: ExecStats,
    /// The wall-clock trace, when [`Run::trace`] was set and the run
    /// succeeded.
    pub trace: Option<Trace>,
    /// The metrics snapshot, when [`Run::snapshot`] was set,
    /// [`RunOptions::metrics`] was on and the run got past input
    /// validation.
    pub metrics: Option<MetricsSnapshot>,
    /// The attempt's epoch picture: boundaries placed, checkpoints
    /// published, instruction instances resumed and executed. When the
    /// run failed transiently with a checkpoint in hand,
    /// [`EpochStatus::checkpoint`] is what [`Run::resume`] takes.
    pub epoch: EpochStatus,
}

/// Executes a compiled program over real `f32` buffers and returns only
/// the outputs — [`run`] with nothing but the outputs asked for.
///
/// `inputs[r]` must hold `in_chunks * chunk_elems` elements. Returns each
/// rank's output buffer (`out_chunks * chunk_elems` elements).
///
/// # Errors
///
/// Returns [`RuntimeError`] on shape mismatches, invalid options, hangs,
/// deadline overruns and worker panics.
pub fn execute(
    ir: &IrProgram,
    inputs: &[Vec<f32>],
    chunk_elems: usize,
    opts: &RunOptions,
) -> Result<Vec<Vec<f32>>, RuntimeError> {
    run(Run::new(ir, inputs, chunk_elems, opts)).outputs
}

/// Like [`execute`], additionally returning the run's [`MetricsSnapshot`]
/// — [`run`] with [`Run::snapshot`] set. The snapshot is empty when
/// [`RunOptions::metrics`] is off.
///
/// # Errors
///
/// As [`execute`].
pub fn execute_with_metrics(
    ir: &IrProgram,
    inputs: &[Vec<f32>],
    chunk_elems: usize,
    opts: &RunOptions,
) -> Result<(Vec<Vec<f32>>, MetricsSnapshot), RuntimeError> {
    let report = run(Run::new(ir, inputs, chunk_elems, opts).with_snapshot(true));
    report
        .outputs
        .map(|o| (o, report.metrics.unwrap_or_default()))
}

/// Executes one [`Run`] request: the one entry point behind every way of
/// running a program.
///
/// A failed run still reports its [`EpochStatus`] (and the counters
/// gathered before the teardown), so a caller — the recovery ladder —
/// can resume from the checkpoint it carries.
///
/// # Failures
///
/// [`RunReport::outputs`] fails with [`RuntimeError`] on shape
/// mismatches, invalid options, hangs, deadline overruns, worker panics
/// and injected kills, and with [`RuntimeError::InvalidOptions`] when
/// [`Run::resume`] does not fit the program under these options.
///
/// # Example
///
/// A traced run in a warm arena: the second run of the same program
/// allocates no tiles.
///
/// ```
/// use msccl_runtime::{reference, run, ExecArena, Run, RunOptions};
/// use mscclang::{compile, CompileOptions};
///
/// let ir = compile(&msccl_algos::ring_all_reduce(4, 1)?, &CompileOptions::default())?;
/// let inputs = reference::random_inputs(&ir, 64, 42);
/// let opts = RunOptions::default();
/// let mut arena = ExecArena::new(&ir, &opts);
/// for warm in [false, true] {
///     let report = run(Run::new(&ir, &inputs, 64, &opts).with_trace(true).with_arena(&mut arena));
///     let outputs = report.outputs.expect("clean run");
///     assert!(!report.trace.expect("trace requested").is_empty());
///     if warm {
///         assert_eq!(report.stats.pool.allocated, 0);
///     }
///     arena.recycle_outputs(outputs);
/// }
/// # Ok::<(), mscclang::Error>(())
/// ```
pub fn run(req: Run<'_>) -> RunReport {
    let mut report = RunReport {
        outputs: Ok(Vec::new()),
        stats: ExecStats::default(),
        trace: None,
        metrics: None,
        epoch: EpochStatus::default(),
    };
    report.outputs = execute_impl(req, &mut report);
    report
}

/// The interpreter behind [`run`]: fills `report`'s side products as it
/// goes and returns the outputs, so validation failures can exit early
/// with `?`.
fn execute_impl(req: Run<'_>, report: &mut RunReport) -> Result<Vec<Vec<f32>>, RuntimeError> {
    let Run {
        ir,
        inputs,
        chunk_elems,
        opts,
        mut arena,
        injector,
        resume,
        trace: tracing,
        snapshot: want_snapshot,
    } = req;
    validate_options(opts)?;
    let collective = &ir.collective;
    let num_ranks = ir.num_ranks();
    if inputs.len() != num_ranks {
        return Err(RuntimeError::InputShape {
            message: format!("{} input buffers for {} ranks", inputs.len(), num_ranks),
        });
    }
    if chunk_elems == 0 {
        return Err(RuntimeError::InputShape {
            message: "chunk_elems must be positive".into(),
        });
    }
    let in_elems = collective.in_chunks() * chunk_elems;
    for (r, buf) in inputs.iter().enumerate() {
        if buf.len() != in_elems {
            return Err(RuntimeError::InputShape {
                message: format!(
                    "rank {r} input has {} elements, expected {in_elems}",
                    buf.len()
                ),
            });
        }
    }

    let params = opts.protocol.params();
    let tile_elems = opts
        .tile_elems
        .unwrap_or_else(|| ((params.slot_bytes as usize) / std::mem::size_of::<f32>()).max(1));
    let num_tiles = chunk_elems.div_ceil(tile_elems);
    let op = opts.reduce_op;

    // ---- Tile pool: every payload in flight lives in a recycled buffer.
    // Counters are read as before/after deltas so a shared pool's history
    // from earlier runs does not leak into this run's stats.
    let pool = match &arena {
        Some(a) => Arc::clone(&a.pool),
        None => tile_pool(ir, opts),
    };
    let pool_base = pool.stats();
    let mut spares = arena
        .as_mut()
        .map(|a| std::mem::take(&mut a.spares))
        .unwrap_or_default();
    let mut spare_outs = arena
        .as_mut()
        .map(|a| std::mem::take(&mut a.outputs))
        .unwrap_or_default();

    // ---- Memory, loaded with the inputs. Recycled space buffers keep
    // their warmed-up pages; the input load below completes the
    // fresh-construction semantics `RankMemory::recycled` documents.
    // Chunks the instruction scan proves write-before-read skip even
    // the re-zero — their stale recycled contents are unobservable.
    let memories: Vec<Arc<RankMemory>> = (0..num_ranks)
        .map(|r| {
            let spare = spares.pop().unwrap_or_default();
            // Fresh (non-recycled) construction zeroes everything anyway, so
            // only pay for the write-before-read scan when buffers recycle.
            let skip = if spare.is_empty() {
                Default::default()
            } else {
                overwrite_only_chunks(ir, collective, r)
            };
            let mem = RankMemory::recycled_skipping(
                collective,
                r,
                ir.gpu(r).scratch_chunks,
                chunk_elems,
                spare,
                |space, c| skip[space_slot(space)].get(c).copied().unwrap_or(false),
            );
            for index in 0..collective.in_chunks() {
                let base = index * chunk_elems;
                mem.write(
                    collective,
                    mscclang::BufferKind::Input,
                    index,
                    0,
                    &inputs[r][base..base + chunk_elems],
                );
            }
            Arc::new(mem)
        })
        .collect();

    // ---- Epoch schedule. Resolve the mode first (Auto applies its
    // traffic budget and may decline to checkpoint), then turn the
    // program's verified cut chain into per-boundary completed-
    // instruction targets. Hand-built IR that never went through the
    // compiler gets its cuts computed on the fly.
    let epoch_mode = opts.epochs.resolve(ir, chunk_elems);
    let boundaries: Vec<Vec<Vec<u64>>> =
        if matches!(epoch_mode, EpochMode::Off | EpochMode::Count(0)) {
            Vec::new()
        } else {
            let computed;
            let cuts = if ir.epoch_cuts.is_empty() {
                computed = mscclang::passes::epoch_cuts(ir);
                &computed
            } else {
                &ir.epoch_cuts
            };
            mscclang::passes::schedule_epochs(ir, cuts, num_tiles, epoch_mode)
        };

    // ---- Resume validation: a checkpoint only makes sense against the
    // exact schedule it was captured under — same rank count, and its
    // boundary present with identical targets. Anything else means the
    // caller replayed it against different options, and the watermarks
    // would silently corrupt the run.
    if let Some(cp) = &resume {
        let fits = cp.memories.len() == num_ranks
            && boundaries
                .get(cp.boundary)
                .is_some_and(|b| *b == cp.targets);
        if !fits {
            return Err(RuntimeError::InvalidOptions {
                message: format!(
                    "resume checkpoint (boundary {}, {} ranks) does not match this \
                     run's epoch schedule ({} boundaries, {num_ranks} ranks)",
                    cp.boundary,
                    cp.memories.len(),
                    boundaries.len()
                ),
            });
        }
    }
    let resume_info = resume.as_ref().map(|cp| (cp.boundary, cp.instructions));
    let start_targets: Vec<Vec<u64>> = match &resume {
        Some(cp) => cp.targets.clone(),
        None => ir
            .gpus
            .iter()
            .map(|g| vec![0u64; g.threadblocks.len()])
            .collect(),
    };
    let start_total: u64 = start_targets.iter().flatten().sum();
    if let Some(cp) = &resume {
        // The snapshot was taken at a consistent cut: restoring every
        // rank's spaces over the freshly loaded inputs reproduces the
        // complete distributed state at that cut (FIFOs were drained,
        // so memory is all there was).
        for (mem, snap) in memories.iter().zip(cp.memories.iter()) {
            mem.restore_from(snap);
        }
    }
    let num_workers: usize = ir.gpus.iter().map(|g| g.threadblocks.len()).sum();
    let epoch_state: Option<Arc<EpochState>> = if boundaries.is_empty() {
        None
    } else {
        // Staging for the checkpoint slot: the consumed resume
        // checkpoint's own buffers are the natural recycling source;
        // otherwise the arena's stash from the previous run, grown with
        // empty buffers on first use.
        let mut staging: Vec<SpaceBuffers> = match resume {
            Some(cp) => cp.memories,
            None => arena
                .as_mut()
                .map(|a| std::mem::take(&mut a.snaps))
                .unwrap_or_default(),
        };
        staging.resize_with(num_ranks, SpaceBuffers::default);
        let state = EpochState::new(
            boundaries,
            num_workers,
            memories.clone(),
            staging,
            &start_targets,
        );
        if let Some((b, instructions)) = resume_info {
            // An attempt that fails again before publishing a new
            // boundary must still hand the same checkpoint back out.
            state.seed_resume(b, instructions);
        }
        Some(Arc::new(state))
    };

    // ---- Connections: one bounded FIFO per (src, dst, ch), carrying
    // pooled tiles by ownership (no copy in transit).
    let mut fifos: HashMap<ConnKey, Arc<Fifo<PooledTile>>> = HashMap::new();
    for gpu in &ir.gpus {
        for tb in &gpu.threadblocks {
            if let Some(peer) = tb.send_peer {
                fifos.insert(
                    (gpu.rank, peer, tb.channel),
                    Arc::new(Fifo::new(params.num_slots)),
                );
            }
        }
    }

    // ---- Semaphores, per (rank, tb).
    let semaphores: HashMap<(usize, usize), Arc<Semaphore>> = ir
        .gpus
        .iter()
        .flat_map(|g| {
            g.threadblocks
                .iter()
                .map(|t| ((g.rank, t.id), Arc::new(Semaphore::new())))
        })
        .collect();

    // On resume, every semaphore restarts at its block's watermark: the
    // monotonic encoding *is* the completed-instruction count, so the
    // checkpoint targets are exactly the values dependents will wait on.
    if resume_info.is_some() {
        for (r, g) in start_targets.iter().enumerate() {
            for (t, &start) in g.iter().enumerate() {
                semaphores[&(r, t)].set(start);
            }
        }
    }

    // Instruction counts per tb, for monotonic semaphore encoding.
    let tb_len: HashMap<(usize, usize), u64> = ir
        .gpus
        .iter()
        .flat_map(|g| {
            g.threadblocks
                .iter()
                .map(|t| ((g.rank, t.id), t.instructions.len() as u64))
        })
        .collect();

    // Shared wall-clock origin so all workers' timestamps are comparable;
    // the global deadline, when set, counts from here too.
    let epoch = Instant::now();
    let global_deadline = opts.deadline.map(|d| epoch + d);
    let cancel = CancelToken::new();

    // ---- Metrics: one shard per worker thread, so a hot-path update is
    // a relaxed atomic add with no sharing; merged on snapshot. An arena
    // that already carries handles for this program lends them;
    // otherwise they are resolved fresh and, when an arena is present,
    // cached for the next run. Arena counters are cumulative (the
    // Prometheus model): only a run that materializes a snapshot zeroes
    // the shards first — each worker its own, overlapping thread spawn —
    // so plain metered runs pay nothing but the hot-path adds. With no
    // arena and no snapshot requested, the counters would be dropped
    // unread, so they are not collected at all.
    let run_metrics: Option<Arc<ArenaMetrics>> = if !opts.metrics {
        None
    } else if let Some(cached) = arena
        .as_deref()
        .and_then(|a| a.metrics.clone())
        .filter(|m| m.matches(ir))
    {
        Some(cached)
    } else if want_snapshot || arena.is_some() {
        let m = Arc::new(ArenaMetrics::new(ir));
        if let Some(a) = arena.as_deref_mut() {
            a.metrics = Some(Arc::clone(&m));
        }
        Some(m)
    } else {
        None
    };
    if want_snapshot {
        if let Some(m) = &run_metrics {
            m.pool_allocated.reset_shard(0);
            m.pool_reused.reset_shard(0);
            m.registry.gauge(names::SCHED_RUNNABLE_PEAK, &[]).reset();
        }
    }

    // ---- Dense connection indices so FIFO wake keys are plain integers.
    // The assignment order is arbitrary but fixed for the run; both
    // endpoints of a connection resolve the same index.
    let conn_index: HashMap<(usize, usize, usize), usize> =
        fifos.keys().enumerate().map(|(i, k)| (*k, i)).collect();

    // ---- Flat task indices in spawn order: semaphore wake keys and
    // metrics shards are addressed by this index, so watermarks and
    // shard ownership are invariant under worker migration.
    let flat_index: HashMap<(usize, usize), usize> = ir
        .gpus
        .iter()
        .flat_map(|g| g.threadblocks.iter().map(|t| (g.rank, t.id)))
        .enumerate()
        .map(|(i, k)| (k, i))
        .collect();

    // ---- Worker pool size: `min(num_cpus, num_tbs)` threads by
    // default, pinned by `worker_threads`. Tasks outnumbering workers is
    // the normal case — oversubscription is handled by cooperative
    // yields, not by the OS scheduler thrashing between threads.
    let pool_threads = {
        let auto = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let want = if opts.worker_threads == 0 {
            auto
        } else {
            opts.worker_threads
        };
        want.clamp(1, flat_index.len().max(1))
    };

    // ---- Flight recorder: per-worker forensic rings, reused from the
    // arena when the shard count still matches, reset (not reallocated)
    // per run. Created before the tasks so each can record through it.
    let flight: Option<Arc<FlightRecorder>> = opts.flight.then(|| {
        let cached = arena
            .as_deref()
            .and_then(|a| a.flight.clone())
            .filter(|f| f.shards() == pool_threads);
        let f = cached.unwrap_or_else(|| Arc::new(FlightRecorder::new(pool_threads)));
        f.reset();
        if let Some(a) = arena.as_deref_mut() {
            a.flight = Some(Arc::clone(&f));
        }
        f
    });

    // ---- One resumable task per thread block, in spawn order. Each
    // task owns its interpreter state behind a `Mutex`; the scheduler's
    // ownership discipline guarantees at most one worker holds it at a
    // time, so the lock is uncontended by construction.
    let tasks: Vec<Mutex<TbTask>> = ir
        .gpus
        .iter()
        .flat_map(|gpu| gpu.threadblocks.iter().map(move |tb| (gpu, tb)))
        .map(|(gpu, tb)| {
            let flat = flat_index[&(gpu.rank, tb.id)];
            let worker_metrics: Option<&WorkerMetrics> =
                run_metrics.as_deref().map(|m| &m.workers[flat]);
            if want_snapshot {
                if let Some(m) = worker_metrics {
                    m.reset_own_shard();
                }
            }
            let send = tb.send_peer.map(|p| ConnRef {
                peer: p,
                channel: tb.channel,
                idx: conn_index[&(gpu.rank, p, tb.channel)],
                fifo: Arc::clone(&fifos[&(gpu.rank, p, tb.channel)]),
            });
            let recv = tb.recv_peer.map(|p| ConnRef {
                peer: p,
                channel: tb.channel,
                idx: conn_index[&(p, gpu.rank, tb.channel)],
                fifo: Arc::clone(&fifos[&(p, gpu.rank, tb.channel)]),
            });
            let dep_sems: Vec<Vec<(Arc<Semaphore>, u64, usize)>> = tb
                .instructions
                .iter()
                .map(|i| {
                    i.deps
                        .iter()
                        .map(|d| {
                            (
                                Arc::clone(&semaphores[&(gpu.rank, d.tb)]),
                                tb_len[&(gpu.rank, d.tb)],
                                flat_index[&(gpu.rank, d.tb)],
                            )
                        })
                        .collect()
                })
                .collect();
            let epoch_ctx: Option<WorkerEpoch> = epoch_state.as_ref().map(|state| WorkerEpoch {
                state: Arc::clone(state),
                targets: state.targets_for(gpu.rank, tb.id),
                // Gates at or before the resumed boundary are
                // never revisited — by anyone, so they stay
                // consistent.
                next: resume_info.map_or(0, |(b, _)| b + 1),
                worker: flat,
            });
            Mutex::new(TbTask::new(TbTaskInit {
                rank: gpu.rank,
                tb,
                flat,
                collective,
                mem: Arc::clone(&memories[gpu.rank]),
                sem: Arc::clone(&semaphores[&(gpu.rank, tb.id)]),
                pool: Arc::clone(&pool),
                send,
                recv,
                dep_sems,
                num_tiles,
                tile_elems,
                chunk_elems,
                op,
                timeout: opts.timeout,
                global_deadline,
                cancel: Arc::clone(&cancel),
                injector,
                metrics: worker_metrics,
                epoch_ctx,
                start: start_targets[gpu.rank][tb.id],
                tracing,
                clock_epoch: epoch,
                flight: flight.as_deref(),
            }))
        })
        .collect();

    let num_tasks = tasks.len();
    let sched = Scheduler::new(pool_threads, num_tasks, flight.clone());
    // Cancellation from anywhere wakes every parked worker immediately.
    cancel.attach(Arc::downgrade(&sched.parker) as Weak<dyn Poke>);
    std::thread::scope(|scope| {
        // Worker 0 runs inline on the calling thread — a one-worker pool
        // spawns no threads at all, which on small runs saves the full
        // spawn+join round trip. Workers 1.. get their own threads.
        let handles: Vec<_> = (1..pool_threads)
            .map(|w| {
                let sched = &sched;
                let tasks = &tasks;
                let cancel = &cancel;
                scope.spawn(move || worker_loop(w, sched, tasks, cancel))
            })
            .collect();
        // Tasks never unwind past run_task's catch_unwind; a panic out of
        // the loop itself (inline or joined) means the scheduler broke.
        let dead_scheduler = |cancel: &CancelToken| {
            if !cancel.is_cancelled() {
                cancel.cancel(FailureOrigin {
                    rank: 0,
                    tb: 0,
                    step: 0,
                    cause: FailureCause::Panic("worker died outside the interpreter".into()),
                });
            }
        };
        let inline = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_loop(0, &sched, &tasks, &cancel);
        }));
        if inline.is_err() {
            dead_scheduler(&cancel);
        }
        for h in handles {
            if h.join().is_err() {
                dead_scheduler(&cancel);
            }
        }
    });
    let sched_stats = sched.stats();
    let failed = cancel.origin().is_some();
    let mut buffers: Vec<Vec<TraceEvent>> = Vec::with_capacity(num_tasks);
    let mut stalls: Vec<TaskStall> = Vec::new();
    let mut instructions = 0u64;
    for task in tasks {
        let t = task.into_inner().unwrap_or_else(PoisonError::into_inner);
        // A task that died (cancelled, panicked, or stranded) matches the
        // old model where a stopped worker contributed no instructions.
        if t.done && !t.dead {
            instructions += t.completed;
        }
        if failed {
            // Snapshot what the task was (or froze) waiting on, in spawn
            // order, for the wait-for graph. Dead tasks stashed their
            // wait in `die()`; parked tasks still hold it in their `pc`.
            stalls.push(TaskStall {
                rank: t.rank,
                tb: t.tb_id,
                tile: t.tile,
                step: t.step,
                done: t.done,
                dead: t.dead,
                completed: t.completed,
                wait: t.frozen.clone().or_else(|| t.frozen_wait()),
                send_peer: t.send.as_ref().map(|c| (c.peer, c.channel)),
                recv_peer: t.recv.as_ref().map(|c| (c.peer, c.channel)),
                recent: t.ring.dump(),
            });
        }
        buffers.push(t.rec.events);
    }
    // Observed cancellation latency: the failing worker stamped the token
    // when it recorded the origin, and at this point every worker has
    // joined. This — not wall clock around the whole call — is what
    // "prompt teardown" means on a loaded host.
    let drain = cancel
        .cancelled_at()
        .map_or(Duration::ZERO, |at| at.elapsed());

    // ---- Epoch teardown, before the memories are stashed: the state
    // holds `Arc` clones of them, and only after dropping it can
    // `Arc::try_unwrap` recycle the buffers. On failure the latest
    // published checkpoint travels out in the status; on success the
    // staging buffers go back to the arena.
    let epoch_status = match epoch_state {
        Some(state) => {
            let state = Arc::try_unwrap(state)
                .ok()
                .expect("workers joined; no other EpochState refs remain");
            let (status, staging) = state.finish(start_total, cancel.origin().is_some());
            if !staging.is_empty() {
                if let Some(a) = arena.as_deref_mut() {
                    a.snaps = staging;
                }
            }
            status
        }
        None => EpochStatus {
            executed: instructions,
            ..EpochStatus::default()
        },
    };

    let pool_now = pool.stats();
    let stats = ExecStats {
        pool: PoolStats {
            allocated: pool_now.allocated.saturating_sub(pool_base.allocated),
            reused: pool_now.reused.saturating_sub(pool_base.reused),
            free: pool_now.free,
        },
        instructions,
    };
    // Scrape model: counters are always recorded, but folding them into
    // a snapshot (key clones, shard sums) happens only for callers that
    // return one — entry points that discard it shouldn't pay for it.
    report.metrics = run_metrics.as_deref().filter(|_| want_snapshot).map(|m| {
        // The pool is shared by all workers; its per-run deltas land in
        // shard 0 once the workers have joined. Epoch counters likewise —
        // resolved lazily so runs without epochs carry no epoch series at
        // all (the runtime-vs-simulator metric parity depends on that).
        m.pool_allocated.add(0, stats.pool.allocated);
        m.pool_reused.add(0, stats.pool.reused);
        if epoch_status.epochs_completed > 0 {
            m.registry
                .counter(names::EPOCHS_COMPLETED, &[])
                .add(0, epoch_status.epochs_completed);
        }
        if epoch_status.steps_resumed > 0 {
            m.registry
                .counter(names::STEPS_RESUMED, &[])
                .add(0, epoch_status.steps_resumed);
        }
        // Scheduler counters, likewise lazy: a run whose pool never
        // stole or parked carries no scheduler series, so the
        // runtime-vs-simulator metric parity is undisturbed.
        if sched_stats.steals > 0 {
            m.registry
                .counter(names::SCHED_STEALS, &[])
                .add(0, sched_stats.steals);
        }
        if sched_stats.parks > 0 {
            m.registry
                .counter(names::SCHED_PARKS, &[])
                .add(0, sched_stats.parks);
            // Park *time*, pre-bucketed by the scheduler on its idle
            // path: distinguishes "parked often" from "parked long".
            let park_hist = m.registry.histogram(names::SCHED_PARK_NS, &[]);
            for (bucket, count, sum) in sched.park_histogram() {
                park_hist.record_bucketed(0, bucket, count, sum);
            }
        }
        m.registry
            .gauge(names::SCHED_RUNNABLE_PEAK, &[])
            .set_max(sched_stats.peak_runnable);
        m.registry.snapshot()
    });

    // Hand the attempt's picture out before the paths below take over;
    // on failure the checkpoint inside is exactly what a resume needs.
    report.stats = stats;
    report.epoch = epoch_status;

    // After the scope the workers' Arc clones are gone, so the memories
    // unwrap cleanly and their buffers can go back to the arena.
    let stash = |arena: Option<&mut ExecArena>, memories: Vec<Arc<RankMemory>>| {
        if let Some(a) = arena {
            a.spares = memories
                .into_iter()
                .filter_map(|m| Arc::try_unwrap(m).ok())
                .map(RankMemory::into_buffers)
                .collect();
        }
    };

    if let Some(origin) = cancel.origin() {
        stash(arena.take(), memories);
        let FailureOrigin { rank, tb, step, .. } = origin;
        let fired: Vec<String> = injector.map_or_else(Vec::new, |inj| {
            inj.fired().into_iter().map(|f| f.to_string()).collect()
        });
        // One origin, one structured story: classify the wait-for graph
        // built from every task's frozen wait, rooted at the origin.
        let mut diagnosis = if stalls.is_empty() {
            StallDiagnosis::unavailable((rank, tb, step), fired)
        } else {
            let origin_idx = stalls
                .iter()
                .position(|s| s.rank == rank && s.tb == tb)
                .unwrap_or(0);
            let graph = WaitForGraph::build(stalls);
            let mut d = graph.classify(origin_idx, fired);
            // The error reports the origin's step as recorded at the
            // cancel, which can lag the task's own counter by the
            // in-flight instruction; keep the two consistent.
            d.origin = (rank, tb, step);
            d
        };
        // Post-mortem artifact, only when asked for: the library never
        // touches the filesystem on its own.
        if let Some(dir) = opts.blackbox_dir.as_deref() {
            let mut conns: Vec<Option<BlackboxConn>> = vec![None; conn_index.len()];
            for (&(src, dst, channel), &idx) in &conn_index {
                conns[idx] = Some(BlackboxConn {
                    src,
                    dst,
                    channel,
                    occupancy: fifos[&(src, dst, channel)].len(),
                    capacity: fifos[&(src, dst, channel)].capacity(),
                });
            }
            let blackbox = Blackbox {
                version: crate::flight::BLACKBOX_VERSION.to_string(),
                program: ir.name.clone(),
                failure: BlackboxFailure {
                    cause: origin.cause.label().to_string(),
                    detail: origin.cause.detail().to_string(),
                    rank,
                    tb,
                    step,
                    drain_us: drain.as_micros() as u64,
                },
                diagnosis: diagnosis.clone(),
                sched: BlackboxSched {
                    steals: sched_stats.steals,
                    parks: sched_stats.parks,
                    park_ns: sched_stats.park_ns,
                    waits: sched.captured_waits(),
                },
                conns: conns.into_iter().flatten().collect(),
                flight: flight
                    .as_deref()
                    .map_or_else(Vec::new, FlightRecorder::drain),
                metrics: vec![
                    ("instructions_completed".to_string(), instructions),
                    ("pool_tiles_allocated".to_string(), stats.pool.allocated),
                    ("pool_tiles_reused".to_string(), stats.pool.reused),
                ],
            };
            match blackbox.write_to_dir(dir) {
                Ok(path) => diagnosis.dump = Some(path),
                Err(e) => eprintln!("msccl: failed to write black-box dump: {e}"),
            }
        }
        let context = diagnosis.context_lines();
        let diagnosis = Box::new(diagnosis);
        return Err(match origin.cause {
            FailureCause::StepTimeout => RuntimeError::Hang {
                rank,
                tb,
                step,
                context,
                diagnosis,
                drain,
            },
            FailureCause::Deadline => RuntimeError::DeadlineExceeded {
                rank,
                tb,
                step,
                context,
                diagnosis,
                drain,
            },
            FailureCause::Panic(payload) => RuntimeError::WorkerPanic {
                rank,
                tb,
                step,
                payload,
                context,
                diagnosis,
                drain,
            },
            FailureCause::InjectedKill(fault) => RuntimeError::InjectedFault {
                rank,
                tb,
                step,
                fault,
                context,
                diagnosis,
                drain,
            },
        });
    }

    report.trace = tracing.then(|| {
        let mut buffers = buffers;
        buffers.push(vec![
            TraceEvent {
                ts_us: 0.0,
                rank: 0,
                tb: 0,
                kind: EventKind::KernelLaunch,
            },
            TraceEvent {
                ts_us: epoch.elapsed().as_secs_f64() * 1e6,
                rank: 0,
                tb: 0,
                kind: EventKind::PoolStats {
                    allocated: stats.pool.allocated,
                    reused: stats.pool.reused,
                },
            },
        ]);
        Trace::from_buffers(ClockDomain::Wall, buffers)
    });

    // ---- Extract outputs. When a rank's output chunks map identity-
    // style onto one whole space, that space's backing vector *is* the
    // result: steal it via a pointer swap (handing in a recycled vector
    // so the arena cycle stays allocation-free) instead of copying
    // `out_chunks × chunk_elems` elements. Ranks whose output layout is
    // scattered fall back to one `read_into` pass per chunk.
    let out_chunks = collective.out_chunks();
    let stealable = |r: usize| -> Option<Space> {
        if out_chunks == 0 {
            return None;
        }
        let (space, off0) = collective.space_of(r, mscclang::BufferKind::Output, 0);
        (off0 == 0
            && collective.space_size(space) == Some(out_chunks)
            && (1..out_chunks)
                .all(|i| collective.space_of(r, mscclang::BufferKind::Output, i) == (space, i)))
        .then_some(space)
    };
    let outputs = (0..num_ranks)
        .map(|r| {
            let spare = spare_outs.pop().unwrap_or_default();
            if let Some(space) = stealable(r) {
                return memories[r].swap_space_buffer(space, spare);
            }
            let elems = out_chunks * chunk_elems;
            let mut out = spare;
            if out.is_empty() {
                out = vec![0.0; elems];
            } else {
                out.resize(elems, 0.0);
            }
            for index in 0..out_chunks {
                let base = index * chunk_elems;
                memories[r].read_into(
                    collective,
                    mscclang::BufferKind::Output,
                    index,
                    0,
                    &mut out[base..base + chunk_elems],
                );
            }
            out
        })
        .collect();
    stash(arena.take(), memories);
    Ok(outputs)
}

/// Index of a space in the fixed-size per-space tables below.
fn space_slot(space: Space) -> usize {
    match space {
        Space::Data => 0,
        Space::Output => 1,
        Space::Scratch => 2,
    }
}

/// Per-space bitmap of `rank`'s chunks that the program provably fully
/// overwrites before ever reading — `[Data, Output, Scratch]`, indexed by
/// [`space_slot`].
///
/// A chunk qualifies when it is the destination of at least one
/// plain-overwrite instruction (`r`, `cpy`, `rcs` — each writes its full
/// destination chunks, since the tile loop spans `chunk_elems`) and
/// every read of it — source of any instruction, or destination of a
/// reduce-family instruction (read-modify-write) — is ordered *after*
/// one of those overwrites by the rank's own happens-before relation:
/// program order within a thread block plus the IR's cross-block dep
/// edges. Dep semaphore targets are per-tile (`tile * len + step + 1`),
/// and distinct tiles touch disjoint element ranges, so instruction-
/// level reachability is exactly the per-element guarantee. Orderings
/// that exist only through a cross-rank FIFO round trip are not modeled
/// — such chunks conservatively keep their re-zero.
///
/// Stale recycled data in a qualifying chunk is unobservable — output
/// extraction runs only after every instruction completed, failed runs
/// never extract, and epoch resume overwrites every space in full — so
/// [`RankMemory::recycled_skipping`] can keep it instead of re-zeroing.
fn overwrite_only_chunks(
    ir: &IrProgram,
    collective: &mscclang::Collective,
    rank: usize,
) -> [Vec<bool>; 3] {
    let gpu = ir.gpu(rank);
    let sizes = [
        collective.space_size(Space::Data).unwrap_or(0),
        collective.space_size(Space::Output).unwrap_or(0),
        gpu.scratch_chunks,
    ];
    // Flat node ids over the rank's instructions, in (tb, step) order.
    let mut offsets = Vec::with_capacity(gpu.threadblocks.len());
    let mut n = 0usize;
    for tb in &gpu.threadblocks {
        offsets.push(n);
        n += tb.instructions.len();
    }

    // Which nodes overwrite / read each chunk.
    let mut writes: [Vec<Vec<u32>>; 3] = sizes.map(|s| vec![Vec::new(); s]);
    let mut reads: [Vec<Vec<u32>>; 3] = sizes.map(|s| vec![Vec::new(); s]);
    for (t, tb) in gpu.threadblocks.iter().enumerate() {
        for (s, instr) in tb.instructions.iter().enumerate() {
            let node = (offsets[t] + s) as u32;
            let mark = |sets: &mut [Vec<Vec<u32>>; 3], loc: Option<mscclang::IrLoc>| {
                let Some(loc) = loc else { return };
                for i in 0..instr.count {
                    let (space, off) = collective.space_of(rank, loc.buffer, loc.index + i);
                    if let Some(list) = sets[space_slot(space)].get_mut(off) {
                        list.push(node);
                    }
                }
            };
            match instr.op {
                OpCode::Nop => {}
                OpCode::Recv | OpCode::RecvCopySend => mark(&mut writes, instr.dst),
                OpCode::Copy => {
                    mark(&mut reads, instr.src);
                    mark(&mut writes, instr.dst);
                }
                OpCode::Send | OpCode::RecvReduceSend => mark(&mut reads, instr.src),
                OpCode::Reduce => {
                    mark(&mut reads, instr.src);
                    mark(&mut reads, instr.dst);
                }
                OpCode::RecvReduceCopy | OpCode::RecvReduceCopySend => mark(&mut reads, instr.dst),
            }
        }
    }

    // Strict-ancestor bitsets via a topological sweep over program order
    // + dep edges. The graphs are tiny (a rank's instruction count), so
    // n²/64 words of bitset is nothing.
    let words = n.div_ceil(64).max(1);
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (t, tb) in gpu.threadblocks.iter().enumerate() {
        for (s, instr) in tb.instructions.iter().enumerate() {
            let node = offsets[t] + s;
            if s > 0 {
                preds[node].push((node - 1) as u32);
            }
            for d in &instr.deps {
                if gpu
                    .threadblocks
                    .get(d.tb)
                    .is_some_and(|db| d.step < db.instructions.len())
                {
                    preds[node].push((offsets[d.tb] + d.step) as u32);
                }
            }
        }
    }
    let mut indeg = vec![0u32; n];
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (v, ps) in preds.iter().enumerate() {
        indeg[v] = ps.len() as u32;
        for &p in ps {
            succs[p as usize].push(v as u32);
        }
    }
    let mut anc = vec![0u64; n * words];
    let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut processed = 0usize;
    let mut scratch = vec![0u64; words];
    while let Some(v) = queue.pop() {
        processed += 1;
        let v = v as usize;
        scratch.copy_from_slice(&anc[v * words..(v + 1) * words]);
        scratch[v / 64] |= 1 << (v % 64);
        for &u in &succs[v] {
            let u = u as usize;
            for (a, &b) in anc[u * words..(u + 1) * words].iter_mut().zip(&scratch) {
                *a |= b;
            }
            indeg[u] -= 1;
            if indeg[u] == 0 {
                queue.push(u as u32);
            }
        }
    }
    // A dep cycle (malformed hand-built IR — it could not execute anyway)
    // degrades to the sound special case: only never-read chunks skip.
    let acyclic = processed == n;
    let ordered_after_write = |r: u32, ws: &[u32]| -> bool {
        let base = r as usize * words;
        ws.iter()
            .any(|&w| anc[base + w as usize / 64] >> (w % 64) & 1 == 1)
    };

    let mut skip = sizes.map(|s| vec![false; s]);
    for slot in 0..3 {
        for off in 0..sizes[slot] {
            let (ws, rs) = (&writes[slot][off], &reads[slot][off]);
            skip[slot][off] = !ws.is_empty()
                && if acyclic {
                    rs.iter().all(|&r| ordered_after_write(r, ws))
                } else {
                    rs.is_empty()
                };
        }
    }
    skip
}

/// Whether a just-expired wait was bounded by the global deadline rather
/// than the per-step timeout.
fn deadline_hit(global_deadline: Option<Instant>) -> bool {
    global_deadline.is_some_and(|g| Instant::now() >= g)
}

/// A persistent straggler chronically slows the whole rank: every
/// instruction pays a deterministic extra delay proportional to the
/// planned slowdown factor. Unlike block faults this is not one-shot —
/// the rank stays slow across tiles, steps and resumed attempts.
const STRAGGLE_UNIT_NS: f64 = 20_000.0;

/// A connection endpoint as a task sees it: the peer, the channel, the
/// dense connection index wake keys are built from, and the FIFO itself.
struct ConnRef {
    peer: usize,
    channel: usize,
    idx: usize,
    fifo: Arc<Fifo<PooledTile>>,
}

/// What `TbTask::advance` hands back to its worker.
enum Yield {
    /// The task must wait for `key`. `timer` is set only when this is a
    /// *fresh* wait (a hang deadline or a sleep expiry to arm); re-blocks
    /// after a spurious wake pass `None` so the timer heap doesn't grow.
    Blocked {
        key: WakeKey,
        timer: Option<Instant>,
    },
    /// The task finished (successfully or by dying); never run it again.
    Done,
}

/// The resumption point of a suspended interpreter — everything between
/// two potential waits is one arm of the `advance` loop.
#[derive(Debug, Clone, Copy)]
enum Pc {
    /// Before anything: the epoch gate a resumed (or zero-watermark)
    /// block may owe at its start position.
    StartGate,
    /// Emit `TileBegin` and enter the instruction list.
    TileBegin,
    /// Per-instruction preamble: cancellation, deadline, block faults.
    PreInstr,
    /// Sleeping out an injected stall; then the straggle check.
    Stall { until: Instant },
    /// Sleeping out the rank's chronic straggle; then dependencies.
    Straggle { until: Instant },
    /// Waiting on cross-thread-block dependency `idx` of this step.
    Dep { idx: usize },
    /// Dependencies satisfied: stamp `InstrBegin` and dispatch.
    Body,
    /// A receive-class op needs an inbound tile.
    RecvTile,
    /// The op's memory work; never blocks.
    Compute,
    /// Delivery-fault resolution for an outbound tile, once per send.
    PreXmit,
    /// Sleeping out injected delivery delays; then the send.
    Delay { until: Instant },
    /// Pushing `copy` (0 = original, 1 = duplicate) into the send FIFO.
    Xmit { copy: usize },
    /// Instruction epilogue: counters, ring, semaphore set.
    PostInstr,
    /// The epoch gate(s) `completed` may have reached.
    GateCheck,
    /// End of the instruction list for this tile.
    PostTile,
    /// Terminal; `advance` must not be called again.
    Finished,
}

/// Everything a [`TbTask`] is built from, in spawn order.
struct TbTaskInit<'a> {
    rank: usize,
    tb: &'a mscclang::IrThreadBlock,
    flat: usize,
    collective: &'a mscclang::Collective,
    mem: Arc<RankMemory>,
    sem: Arc<Semaphore>,
    pool: Arc<TilePool>,
    send: Option<ConnRef>,
    recv: Option<ConnRef>,
    dep_sems: Vec<Vec<(Arc<Semaphore>, u64, usize)>>,
    num_tiles: usize,
    tile_elems: usize,
    chunk_elems: usize,
    op: ReduceOp,
    timeout: Duration,
    global_deadline: Option<Instant>,
    cancel: Arc<CancelToken>,
    injector: Option<&'a FaultInjector>,
    metrics: Option<&'a WorkerMetrics>,
    epoch_ctx: Option<WorkerEpoch>,
    start: u64,
    tracing: bool,
    clock_epoch: Instant,
    flight: Option<&'a FlightRecorder>,
}

/// One thread block's interpreter as a resumable state machine (the
/// tiling outer loop of Figure 5). `advance` runs until the block must
/// wait, then yields the [`WakeKey`] naming what it waits for instead of
/// blocking its OS thread — so a fixed worker pool can carry any number
/// of blocks. Every payload travels in a [`PooledTile`] taken from the
/// shared pool and recycled on receipt; the steady-state hot path
/// allocates nothing. The per-block sequence of trace events, ring
/// entries, semaphore values and FIFO operations is identical to the
/// retired thread-per-block executor at any pool size.
struct TbTask<'a> {
    // ---- Identity and wiring (fixed for the run).
    rank: usize,
    tb_id: usize,
    /// This task's index in spawn order: its semaphore wake key, its
    /// metrics shard, and its epoch progress slot.
    flat: usize,
    tb: &'a mscclang::IrThreadBlock,
    collective: &'a mscclang::Collective,
    mem: Arc<RankMemory>,
    sem: Arc<Semaphore>,
    pool: Arc<TilePool>,
    send: Option<ConnRef>,
    recv: Option<ConnRef>,
    /// Per instruction, per dep: the dep's semaphore, its block length
    /// (for the monotonic target encoding), and its task index (for the
    /// wake key).
    dep_sems: Vec<Vec<(Arc<Semaphore>, u64, usize)>>,
    num_tiles: usize,
    tile_elems: usize,
    chunk_elems: usize,
    op: ReduceOp,
    timeout: Duration,
    global_deadline: Option<Instant>,
    cancel: Arc<CancelToken>,
    injector: Option<&'a FaultInjector>,
    metrics: Option<&'a WorkerMetrics>,
    epoch_ctx: Option<WorkerEpoch>,
    flight: Option<&'a FlightRecorder>,
    straggle: Option<Duration>,
    // ---- Interpreter position.
    /// Monotonic completed-instruction count — the same encoding the
    /// semaphores and epoch watermarks use, seeded from the checkpoint
    /// watermark on resume.
    completed: u64,
    tile: usize,
    step: usize,
    send_seq: u64,
    recv_seq: u64,
    pc: Pc,
    // ---- Wait scratch (at most one wait in flight).
    /// The hang deadline of the wait in flight: min(step timeout, global
    /// deadline), fixed when the wait starts and kept across re-blocks.
    fail_at: Option<Instant>,
    /// Whether the wait's timer has been pushed on the scheduler heap.
    timer_armed: bool,
    /// When the in-flight dependency wait began (sem_wait_ns base).
    wait_start: Option<Instant>,
    /// When the in-flight FIFO wait began (fifo_*_block_ns base).
    blocked_at: Option<Instant>,
    /// Whether the in-flight FIFO wait already emitted its Block event.
    block_emitted: bool,
    /// The epoch boundary this task has arrived at but not yet passed.
    gate_arrived: Option<usize>,
    // ---- Instruction scratch.
    instr_start: Option<Instant>,
    /// Tiles drained from the receive FIFO but not yet consumed: one
    /// `try_recv_into` batches a whole queue under a single lock.
    inbox: VecDeque<PooledTile>,
    inbound: Option<PooledTile>,
    outbound: Option<PooledTile>,
    dup_pending: Option<PooledTile>,
    xmit_bytes: u64,
    // ---- Diagnostics and results.
    rec: Recorder,
    ring: EventRing,
    /// The wait the task was stuck on when it died, stashed by `die()`
    /// before the program counter is overwritten — the wait-for graph's
    /// evidence for dead tasks.
    frozen: Option<BlockedOn>,
    /// The task will never advance again.
    done: bool,
    /// The task stopped without finishing its program (cancelled, failed
    /// or panicked); it contributes no completed instructions.
    dead: bool,
}

impl<'a> TbTask<'a> {
    fn new(init: TbTaskInit<'a>) -> Self {
        let TbTaskInit {
            rank,
            tb,
            flat,
            collective,
            mem,
            sem,
            pool,
            send,
            recv,
            dep_sems,
            num_tiles,
            tile_elems,
            chunk_elems,
            op,
            timeout,
            global_deadline,
            cancel,
            injector,
            metrics,
            epoch_ctx,
            start,
            tracing,
            clock_epoch,
            flight,
        } = init;
        let my_len = tb.instructions.len() as u64;
        // `start` is 0 for a fresh run, or this block's checkpoint
        // watermark on resume — the same monotonic encoding the
        // semaphores use, so `completed` picks up where the checkpointed
        // run left off.
        let start_tile = start.checked_div(my_len).unwrap_or(0) as usize;
        let start_step = start.checked_rem(my_len).unwrap_or(0) as usize;
        // Resumed FIFO sequence numbers are re-derived from the watermark
        // by counting the send/recv instructions in the skipped prefix,
        // so one-shot delivery-fault specs keyed by sequence number keep
        // addressing the same logical messages across a resume.
        let count_prefix = |sends: bool, upto: usize| -> u64 {
            tb.instructions[..upto]
                .iter()
                .filter(|i| {
                    if sends {
                        i.op.has_send()
                    } else {
                        i.op.has_recv()
                    }
                })
                .count() as u64
        };
        let send_seq = start_tile as u64 * count_prefix(true, my_len as usize)
            + count_prefix(true, start_step);
        let recv_seq = start_tile as u64 * count_prefix(false, my_len as usize)
            + count_prefix(false, start_step);
        let straggle = injector
            .and_then(|i| i.rank_slowdown(rank))
            .filter(|f| *f > 1.0)
            .map(|f| Duration::from_nanos((STRAGGLE_UNIT_NS * (f - 1.0)) as u64));
        Self {
            rank,
            tb_id: tb.id,
            flat,
            tb,
            collective,
            mem,
            sem,
            pool,
            send,
            recv,
            dep_sems,
            num_tiles,
            tile_elems,
            chunk_elems,
            op,
            timeout,
            global_deadline,
            cancel,
            injector,
            metrics,
            epoch_ctx,
            flight,
            straggle,
            completed: start,
            tile: start_tile,
            step: start_step,
            send_seq,
            recv_seq,
            pc: Pc::StartGate,
            fail_at: None,
            timer_armed: false,
            wait_start: None,
            blocked_at: None,
            block_emitted: false,
            gate_arrived: None,
            instr_start: None,
            inbox: VecDeque::new(),
            inbound: None,
            outbound: None,
            dup_pending: None,
            xmit_bytes: 0,
            rec: Recorder {
                enabled: tracing,
                epoch: clock_epoch,
                rank,
                tb: tb.id,
                events: Vec::new(),
            },
            ring: EventRing::new(rank, tb.id),
            frozen: None,
            done: false,
            dead: false,
        }
    }

    /// Each blocking wait runs against min(step deadline, global
    /// deadline); when one expires, `deadline_hit` disambiguates the
    /// cause.
    fn wait_deadline(&self, now: Instant) -> Instant {
        let step = now + self.timeout;
        self.global_deadline.map_or(step, |g| step.min(g))
    }

    /// Opens a fresh wait at `now`: fixes its hang deadline and marks its
    /// timer unarmed so the first `Blocked` yield pushes it.
    fn open_wait(&mut self, now: Instant) {
        self.fail_at = Some(self.wait_deadline(now));
        self.timer_armed = false;
    }

    /// The timer to hand the scheduler for the wait in flight: its hang
    /// deadline on the first block, `None` on re-blocks.
    fn arm_fail(&mut self) -> Option<Instant> {
        if self.timer_armed {
            None
        } else {
            self.timer_armed = true;
            self.fail_at
        }
    }

    /// Like [`Self::arm_fail`], for sleeps (which have an expiry instead
    /// of a hang deadline).
    fn arm_at(&mut self, at: Instant) -> Option<Instant> {
        if self.timer_armed {
            None
        } else {
            self.timer_armed = true;
            Some(at)
        }
    }

    /// Stops without finishing: cancelled from elsewhere, own failure
    /// already recorded, or killed. Stashes the wait the task was stuck
    /// on before the program counter is overwritten, so the post-mortem
    /// wait-for graph keeps its edge.
    fn die(&mut self) -> Yield {
        self.frozen = self.frozen_wait();
        self.dead = true;
        self.done = true;
        self.pc = Pc::Finished;
        Yield::Done
    }

    /// The resource the current program counter is blocked on, typed for
    /// the wait-for graph, or `None` when the task is mid-computation.
    /// Mirrors the probes in [`blocked_ready`](Self::blocked_ready).
    fn frozen_wait(&self) -> Option<BlockedOn> {
        match self.pc {
            Pc::Dep { idx } => {
                let instr = &self.tb.instructions[self.step];
                let dep = instr.deps.get(idx)?;
                let (sem_d, dep_len, _) = self.dep_sems.get(self.step)?.get(idx)?;
                Some(BlockedOn::Sem {
                    dep_tb: dep.tb,
                    target: self.tile as u64 * dep_len + dep.step as u64 + 1,
                    current: sem_d.current(),
                })
            }
            Pc::RecvTile => self.recv.as_ref().map(|c| BlockedOn::Recv {
                src: c.peer,
                channel: c.channel,
            }),
            Pc::Xmit { .. } => self.send.as_ref().map(|c| BlockedOn::Send {
                dst: c.peer,
                channel: c.channel,
            }),
            Pc::Stall { .. } | Pc::Straggle { .. } | Pc::Delay { .. } => Some(BlockedOn::Sleep),
            Pc::StartGate | Pc::GateCheck => self
                .gate_arrived
                .map(|boundary| BlockedOn::Gate { boundary }),
            _ => None,
        }
    }

    /// Records this task's own wait-timeout failure and dies.
    fn fail_own(&mut self) -> Yield {
        let cause = if deadline_hit(self.global_deadline) {
            FailureCause::Deadline
        } else {
            FailureCause::StepTimeout
        };
        self.cancel.cancel(FailureOrigin {
            rank: self.rank,
            tb: self.tb_id,
            step: self.step,
            cause,
        });
        self.die()
    }

    /// Parks at every epoch gate `completed` has reached. Blocks whose
    /// next boundary target equals their current position (including
    /// every fresh block a first cut leaves at watermark 0) gate here
    /// before executing anything — the barrier needs all of them.
    /// Returns `None` when no gate is due (or all due gates passed).
    fn gate_step(&mut self, sched: &Scheduler, w: usize) -> Option<Yield> {
        loop {
            let completed = self.completed;
            let due = match self.epoch_ctx.as_mut() {
                Some(e) => e.boundary_due(completed),
                None => return None,
            };
            let Some(b) = due else {
                self.gate_arrived = None;
                return None;
            };
            if self.gate_arrived != Some(b) {
                // First visit: arrive at the barrier. A consistent cut
                // has every connection drained, so the inbox must be
                // empty — a batched tile crossing the cut would escape
                // the checkpoint.
                debug_assert!(self.inbox.is_empty(), "in-flight tile crosses an epoch cut");
                self.gate_arrived = Some(b);
                if let Some(fl) = self.flight {
                    fl.gate(w, self.rank, self.tb_id, b);
                }
                self.open_wait(Instant::now());
                let released = {
                    let e = self.epoch_ctx.as_ref().expect("gate implies epoch ctx");
                    e.state.arrive(b, &self.cancel)
                };
                if released {
                    // Last arriver: the checkpoint is published; free the
                    // whole barrier.
                    sched.wake(WakeKey::Gate(b), w);
                }
            }
            let released = {
                let e = self.epoch_ctx.as_ref().expect("gate implies epoch ctx");
                e.state.is_released(b)
            };
            if released {
                self.epoch_ctx
                    .as_mut()
                    .expect("gate implies epoch ctx")
                    .passed();
                self.gate_arrived = None;
                self.fail_at = None;
                continue;
            }
            if self.cancel.is_cancelled() {
                return Some(self.die());
            }
            if self.fail_at.is_some_and(|at| Instant::now() >= at) {
                return Some(self.fail_own());
            }
            return Some(Yield::Blocked {
                key: WakeKey::Gate(b),
                timer: self.arm_fail(),
            });
        }
    }

    /// Whether the condition this task suspended on now holds. Called by
    /// the scheduler under its wait-table race (register-then-recheck),
    /// and by timer fires indirectly: a woken task re-runs `advance`,
    /// which re-evaluates the same condition authoritatively. Cancellation
    /// and an expired hang deadline always count as ready — the task must
    /// run to observe them and die.
    fn blocked_ready(&self, now: Instant) -> bool {
        if self.cancel.is_cancelled() {
            return true;
        }
        if self.fail_at.is_some_and(|at| now >= at) {
            return true;
        }
        match self.pc {
            Pc::Stall { until } | Pc::Straggle { until } | Pc::Delay { until } => now >= until,
            Pc::Dep { idx } => {
                let instr = &self.tb.instructions[self.step];
                let dep = &instr.deps[idx];
                let (sem_d, dep_len, _) = &self.dep_sems[self.step][idx];
                sem_d.current() > self.tile as u64 * dep_len + dep.step as u64
            }
            Pc::RecvTile => self.recv.as_ref().is_some_and(|c| !c.fifo.is_empty()),
            Pc::Xmit { .. } => self
                .send
                .as_ref()
                .is_some_and(|c| c.fifo.len() < c.fifo.capacity()),
            Pc::StartGate | Pc::GateCheck => match (self.gate_arrived, &self.epoch_ctx) {
                (Some(b), Some(e)) => e.state.is_released(b),
                _ => true,
            },
            _ => true,
        }
    }

    /// Runs the interpreter until it finishes or must wait. The worker
    /// calls this with the task's lock held; on `Blocked` it registers
    /// the key with the scheduler and moves on to other tasks.
    fn advance(&mut self, sched: &Scheduler, w: usize) -> Yield {
        loop {
            match self.pc {
                Pc::StartGate => {
                    if let Some(y) = self.gate_step(sched, w) {
                        return y;
                    }
                    if self.tile >= self.num_tiles {
                        // A checkpoint taken at the very end of the
                        // program resumes to nothing.
                        return self.finish();
                    }
                    self.pc = Pc::TileBegin;
                }
                Pc::TileBegin => {
                    self.rec.emit(EventKind::TileBegin { tile: self.tile });
                    self.pc = if self.step < self.tb.instructions.len() {
                        Pc::PreInstr
                    } else {
                        Pc::PostTile
                    };
                }
                Pc::PostTile => {
                    self.rec.emit(EventKind::TileEnd { tile: self.tile });
                    self.tile += 1;
                    self.step = 0;
                    if self.tile >= self.num_tiles {
                        return self.finish();
                    }
                    self.pc = Pc::TileBegin;
                }
                Pc::PreInstr => {
                    // A failure elsewhere, or the global deadline, stops
                    // the task between instructions even when it never
                    // blocks.
                    if self.cancel.is_cancelled() {
                        return self.die();
                    }
                    if deadline_hit(self.global_deadline) {
                        self.cancel.cancel(FailureOrigin {
                            rank: self.rank,
                            tb: self.tb_id,
                            step: self.step,
                            cause: FailureCause::Deadline,
                        });
                        return self.die();
                    }
                    // Planned block faults strike as the instruction
                    // starts; `on_block` is one-shot, so it is consulted
                    // exactly once per (rank, tb, step) firing.
                    match self
                        .injector
                        .and_then(|i| i.on_block(self.rank, self.tb_id, self.step))
                    {
                        Some(BlockAction::Stall(d)) => {
                            self.timer_armed = false;
                            self.pc = Pc::Stall {
                                until: Instant::now() + d,
                            };
                        }
                        Some(BlockAction::Kill) => {
                            let (rank, tb_id, step) = (self.rank, self.tb_id, self.step);
                            self.cancel.cancel(FailureOrigin {
                                rank,
                                tb: tb_id,
                                step,
                                cause: FailureCause::InjectedKill(format!(
                                    "kill block r{rank} tb{tb_id} step{step}"
                                )),
                            });
                            return self.die();
                        }
                        None => self.pc = self.after_stall(),
                    }
                }
                Pc::Stall { until } => {
                    if self.cancel.is_cancelled() {
                        return self.die();
                    }
                    if Instant::now() < until {
                        return Yield::Blocked {
                            key: WakeKey::Sleep(self.flat),
                            timer: self.arm_at(until),
                        };
                    }
                    self.pc = self.after_stall();
                }
                Pc::Straggle { until } => {
                    if self.cancel.is_cancelled() {
                        return self.die();
                    }
                    if Instant::now() < until {
                        return Yield::Blocked {
                            key: WakeKey::Sleep(self.flat),
                            timer: self.arm_at(until),
                        };
                    }
                    self.pc = Pc::Dep { idx: 0 };
                }
                Pc::Dep { idx } => {
                    // Cross-thread-block dependencies gate the
                    // instruction, so they trace *before* InstrBegin: a
                    // begin event means they were already satisfied.
                    let tb = self.tb;
                    let instr = &tb.instructions[self.step];
                    let Some(dep) = instr.deps.get(idx) else {
                        self.pc = Pc::Body;
                        continue;
                    };
                    let (sem_d, dep_len, dep_flat) = {
                        let (s, l, f) = &self.dep_sems[self.step][idx];
                        (Arc::clone(s), *l, *f)
                    };
                    let target = self.tile as u64 * dep_len + dep.step as u64 + 1;
                    if self.wait_start.is_none() {
                        self.ring.push(
                            self.tile,
                            self.step,
                            instr.op,
                            Moment::WaitingDep {
                                dep_tb: dep.tb,
                                target,
                            },
                        );
                        self.rec.emit(EventKind::SemWaitEnter {
                            dep_tb: dep.tb,
                            target,
                        });
                        let now = Instant::now();
                        self.wait_start = Some(now);
                        self.open_wait(now);
                    }
                    if sem_d.current() >= target {
                        if let Some(m) = self.metrics {
                            let t0 = self.wait_start.expect("dep wait opened above");
                            m.sem_wait_ns.add(m.shard, t0.elapsed().as_nanos() as u64);
                        }
                        self.rec.emit(EventKind::SemWaitExit {
                            dep_tb: dep.tb,
                            target,
                        });
                        self.wait_start = None;
                        self.fail_at = None;
                        self.pc = Pc::Dep { idx: idx + 1 };
                        continue;
                    }
                    if self.cancel.is_cancelled() {
                        return self.die();
                    }
                    if Instant::now() >= self.fail_at.expect("dep wait opened above") {
                        return self.fail_own();
                    }
                    return Yield::Blocked {
                        key: WakeKey::Sem(dep_flat),
                        timer: self.arm_fail(),
                    };
                }
                Pc::Body => {
                    let tb = self.tb;
                    let instr = &tb.instructions[self.step];
                    self.ring
                        .push(self.tile, self.step, instr.op, Moment::Started);
                    self.rec.emit(EventKind::InstrBegin {
                        step: self.step,
                        tile: self.tile,
                        op: instr.op,
                    });
                    // Latency observations are sampled: the two clock
                    // reads they need cost more than every counter in
                    // this loop combined, and taking them on every
                    // instruction busts the always-on overhead budget at
                    // small sizes. One instruction in
                    // [`LATENCY_SAMPLE_PERIOD`] per block keeps the
                    // histogram's shape; the `instructions` counter
                    // stays exact.
                    self.instr_start = self
                        .metrics
                        .filter(|_| self.completed.is_multiple_of(LATENCY_SAMPLE_PERIOD))
                        .map(|_| Instant::now());
                    self.pc = if instr.op.has_recv() {
                        Pc::RecvTile
                    } else {
                        Pc::Compute
                    };
                }
                Pc::RecvTile => {
                    if self.inbox.is_empty() {
                        let conn = self
                            .recv
                            .as_ref()
                            .expect("recv op requires a receive connection");
                        // Batched pop: drain everything the peer has
                        // queued under one lock. The freed slots may
                        // unblock the sender — wake it.
                        if conn.fifo.try_recv_into(&mut self.inbox) > 0 {
                            let idx = conn.idx;
                            if let Some(fl) = self.flight {
                                // A batched drain leaves the FIFO empty.
                                fl.fifo_depth(w, self.rank, self.tb_id, idx, 0);
                            }
                            sched.wake(WakeKey::Send(idx), w);
                        }
                    }
                    if self.inbox.is_empty() {
                        let (src, channel, idx) = {
                            let c = self.recv.as_ref().expect("checked above");
                            (c.peer, c.channel, c.idx)
                        };
                        if !self.block_emitted {
                            self.block_emitted = true;
                            let tb = self.tb;
                            let op = tb.instructions[self.step].op;
                            self.ring.push(
                                self.tile,
                                self.step,
                                op,
                                Moment::BlockedRecv { src, channel },
                            );
                            self.rec.emit(EventKind::RecvBlock { src, channel });
                            let now = Instant::now();
                            self.blocked_at = Some(now);
                            self.open_wait(now);
                        }
                        if self.cancel.is_cancelled() {
                            return self.die();
                        }
                        if Instant::now() >= self.fail_at.expect("recv wait opened above") {
                            return self.fail_own();
                        }
                        return Yield::Blocked {
                            key: WakeKey::Recv(idx),
                            timer: self.arm_fail(),
                        };
                    }
                    let value = self.inbox.pop_front().expect("checked non-empty");
                    let (src, channel) = {
                        let c = self.recv.as_ref().expect("checked above");
                        (c.peer, c.channel)
                    };
                    if self.block_emitted {
                        self.rec.emit(EventKind::RecvResume { src, channel });
                        if let (Some(m), Some(t0)) = (self.metrics, self.blocked_at) {
                            m.fifo_recv_block_ns
                                .add(m.shard, t0.elapsed().as_nanos() as u64);
                        }
                        self.block_emitted = false;
                        self.blocked_at = None;
                        self.fail_at = None;
                    }
                    let bytes = (value.len() * std::mem::size_of::<f32>()) as u64;
                    self.rec.emit(EventKind::Recv {
                        src,
                        channel,
                        seq: self.recv_seq,
                        bytes,
                    });
                    if let Some(m) = self.metrics {
                        if let Some((bytes_recv, recvs)) = &m.recv_conn {
                            bytes_recv.add(m.shard, bytes);
                            recvs.inc(m.shard);
                        }
                    }
                    self.recv_seq += 1;
                    self.inbound = Some(value);
                    self.pc = Pc::Compute;
                }
                Pc::Compute => {
                    let tb = self.tb;
                    let instr = &tb.instructions[self.step];
                    let elem_off = self.tile * self.tile_elems;
                    let len = (self.chunk_elems - elem_off).min(self.tile_elems);
                    match instr.op {
                        OpCode::Nop => {}
                        OpCode::Send => {
                            let mut tile = self.pool.take(instr.count * len);
                            self.fill_src(instr, elem_off, len, &mut tile);
                            self.outbound = Some(tile);
                        }
                        OpCode::Recv => {
                            let tile = self.inbound.take().expect("recv op received a tile");
                            self.write_dst(instr, elem_off, len, &tile);
                        }
                        OpCode::Copy => {
                            // Local data movement never touches the pool:
                            // the chunks move memory-to-memory under the
                            // fixed lock order (see
                            // `memory::copy_between`).
                            let src = instr.src.expect("instruction requires src");
                            let dst = instr.dst.expect("instruction requires dst");
                            for i in 0..instr.count {
                                self.mem.copy_between(
                                    self.collective,
                                    (src.buffer, src.index + i),
                                    (dst.buffer, dst.index + i),
                                    elem_off,
                                    len,
                                );
                            }
                        }
                        OpCode::Reduce => {
                            let src = instr.src.expect("instruction requires src");
                            let dst = instr.dst.expect("instruction requires dst");
                            for i in 0..instr.count {
                                self.mem.reduce_between(
                                    self.collective,
                                    (src.buffer, src.index + i),
                                    (dst.buffer, dst.index + i),
                                    elem_off,
                                    len,
                                    self.op,
                                );
                            }
                        }
                        OpCode::RecvReduceCopy => {
                            let mut tile = self.inbound.take().expect("recv op received a tile");
                            self.reduce_merge_dst(instr, elem_off, len, &mut tile);
                        }
                        OpCode::RecvCopySend => {
                            // Zero-copy forward: the received tile is
                            // written to memory and handed onward as-is.
                            let tile = self.inbound.take().expect("recv op received a tile");
                            self.write_dst(instr, elem_off, len, &tile);
                            self.outbound = Some(tile);
                        }
                        OpCode::RecvReduceSend => {
                            let mut tile = self.inbound.take().expect("recv op received a tile");
                            self.combine_read_src(instr, elem_off, len, &mut tile);
                            self.outbound = Some(tile);
                        }
                        OpCode::RecvReduceCopySend => {
                            let mut tile = self.inbound.take().expect("recv op received a tile");
                            self.reduce_merge_dst(instr, elem_off, len, &mut tile);
                            self.outbound = Some(tile);
                        }
                    }
                    self.pc = if self.outbound.is_some() {
                        Pc::PreXmit
                    } else {
                        Pc::PostInstr
                    };
                }
                Pc::PreXmit => {
                    // Planned delivery faults apply here, where the tile
                    // leaves the sender: corruption rewrites the payload,
                    // a delay holds it back, a drop discards it (the
                    // sequence number still advances, as a real lost
                    // packet leaves the sender none the wiser), a
                    // duplicate enqueues it twice. `on_delivery` drains
                    // one-shot specs, so it is consulted exactly once per
                    // logical send.
                    let (dst, channel) = {
                        let c = self
                            .send
                            .as_ref()
                            .expect("send op requires a send connection");
                        (c.peer, c.channel)
                    };
                    let mut dropped = false;
                    let mut duplicated = false;
                    let mut delay = Duration::ZERO;
                    if let Some(inj) = self.injector {
                        let outbound = self.outbound.as_mut().expect("entered with outbound");
                        for action in inj.on_delivery(self.rank, dst, channel, self.send_seq) {
                            match action {
                                DeliveryAction::Corrupt { bit } => corrupt_payload(outbound, bit),
                                DeliveryAction::Delay(d) => delay += d,
                                DeliveryAction::Drop => dropped = true,
                                DeliveryAction::Duplicate => duplicated = true,
                            }
                        }
                    }
                    if dropped {
                        // The tile drops here and its buffer returns to
                        // the pool: a lost packet costs nothing.
                        self.send_seq += 1;
                        self.outbound = None;
                        self.pc = Pc::PostInstr;
                        continue;
                    }
                    // Copy-on-write duplication: the second tile is taken
                    // from the pool only when the fault actually fires,
                    // and only after corruption, so both deliveries carry
                    // the same (possibly corrupted) payload.
                    self.dup_pending = duplicated.then(|| {
                        self.outbound
                            .as_ref()
                            .expect("entered with outbound")
                            .duplicate()
                    });
                    self.xmit_bytes = (self.outbound.as_ref().expect("entered with outbound").len()
                        * std::mem::size_of::<f32>()) as u64;
                    if delay > Duration::ZERO {
                        self.timer_armed = false;
                        self.pc = Pc::Delay {
                            until: Instant::now() + delay,
                        };
                    } else {
                        self.pc = Pc::Xmit { copy: 0 };
                    }
                }
                Pc::Delay { until } => {
                    if self.cancel.is_cancelled() {
                        return self.die();
                    }
                    if Instant::now() < until {
                        return Yield::Blocked {
                            key: WakeKey::Sleep(self.flat),
                            timer: self.arm_at(until),
                        };
                    }
                    self.pc = Pc::Xmit { copy: 0 };
                }
                Pc::Xmit { copy } => {
                    let payload = if copy == 0 {
                        self.outbound.take()
                    } else {
                        self.dup_pending.take()
                    };
                    let payload = payload.expect("xmit entered with a payload staged");
                    let (dst, channel, idx, fifo) = {
                        let c = self
                            .send
                            .as_ref()
                            .expect("send op requires a send connection");
                        (c.peer, c.channel, c.idx, Arc::clone(&c.fifo))
                    };
                    let bytes = self.xmit_bytes;
                    let seq = self.send_seq;
                    let was_blocked = self.block_emitted;
                    let blocked_at = self.blocked_at;
                    // `SendResume` and `Send` are stamped from inside the
                    // callback — while the queue lock is held — so the
                    // receiver's `Recv` timestamp can never precede them.
                    let rec = &mut self.rec;
                    let metrics = self.metrics;
                    let flight = self.flight;
                    let (rank, tb_id) = (self.rank, self.tb_id);
                    let result = fifo.try_send(payload, |depth| {
                        if let Some(fl) = flight {
                            fl.fifo_depth(w, rank, tb_id, idx, depth);
                        }
                        if was_blocked {
                            rec.emit(EventKind::SendResume { dst, channel });
                        }
                        if copy == 0 {
                            rec.emit(EventKind::Send {
                                dst,
                                channel,
                                seq,
                                bytes,
                            });
                        }
                        if let Some(m) = metrics {
                            if was_blocked {
                                if let Some(t0) = blocked_at {
                                    m.fifo_send_block_ns
                                        .add(m.shard, t0.elapsed().as_nanos() as u64);
                                }
                            }
                            if let Some((bytes_sent, sends, peak)) = &m.send_conn {
                                peak.set_max(depth as u64);
                                if copy == 0 {
                                    bytes_sent.add(m.shard, bytes);
                                    sends.inc(m.shard);
                                }
                            }
                        }
                    });
                    match result {
                        Ok(()) => {
                            self.block_emitted = false;
                            self.blocked_at = None;
                            self.fail_at = None;
                            // The enqueued tile may unblock the receiver.
                            sched.wake(WakeKey::Recv(idx), w);
                            if copy == 0 && self.dup_pending.is_some() {
                                self.pc = Pc::Xmit { copy: 1 };
                            } else {
                                self.send_seq += 1;
                                self.pc = Pc::PostInstr;
                            }
                        }
                        Err(returned) => {
                            if copy == 0 {
                                self.outbound = Some(returned);
                            } else {
                                self.dup_pending = Some(returned);
                            }
                            if !self.block_emitted {
                                self.block_emitted = true;
                                let tb = self.tb;
                                let op = tb.instructions[self.step].op;
                                self.ring.push(
                                    self.tile,
                                    self.step,
                                    op,
                                    Moment::BlockedSend { dst, channel },
                                );
                                self.rec.emit(EventKind::SendBlock { dst, channel });
                                let now = Instant::now();
                                self.blocked_at = Some(now);
                                self.open_wait(now);
                            }
                            if self.cancel.is_cancelled() {
                                return self.die();
                            }
                            if Instant::now() >= self.fail_at.expect("send wait opened above") {
                                return self.fail_own();
                            }
                            return Yield::Blocked {
                                key: WakeKey::Send(idx),
                                timer: self.arm_fail(),
                            };
                        }
                    }
                }
                Pc::PostInstr => {
                    let tb = self.tb;
                    let instr = &tb.instructions[self.step];
                    if let Some(m) = self.metrics {
                        let (count, latency) = &m.ops[op_index(instr.op)];
                        count.inc(m.shard);
                        if let Some(t0) = self.instr_start.take() {
                            latency.record(m.shard, t0.elapsed().as_nanos() as u64);
                        }
                    }
                    self.completed += 1;
                    debug_assert_eq!(
                        self.completed,
                        self.tile as u64 * self.tb.instructions.len() as u64 + self.step as u64 + 1
                    );
                    self.ring
                        .push(self.tile, self.step, instr.op, Moment::Completed);
                    // Stamp completion *before* advancing the semaphore:
                    // a waiter the set releases stamps its own events
                    // after returning from the wait, so this InstrEnd can
                    // never postdate a dependent's InstrBegin.
                    if instr.has_dep {
                        self.rec.emit(EventKind::SemSet {
                            value: self.completed,
                        });
                    }
                    self.rec.emit(EventKind::InstrEnd {
                        step: self.step,
                        tile: self.tile,
                        op: instr.op,
                    });
                    if instr.has_dep {
                        self.sem.set(self.completed);
                        if let Some(fl) = self.flight {
                            fl.sem_set(w, self.rank, self.tb_id, self.flat, self.completed);
                        }
                        sched.wake(WakeKey::Sem(self.flat), w);
                    }
                    self.pc = Pc::GateCheck;
                }
                Pc::GateCheck => {
                    // The gate check comes *after* the semaphore advance:
                    // dependents of this instruction must be able to
                    // proceed to their own pre-cut work, or the barrier
                    // could never fill.
                    if let Some(y) = self.gate_step(sched, w) {
                        return y;
                    }
                    self.step += 1;
                    self.pc = if self.step < self.tb.instructions.len() {
                        Pc::PreInstr
                    } else {
                        Pc::PostTile
                    };
                }
                Pc::Finished => return Yield::Done,
            }
        }
    }

    /// Where control goes after the (possible) injected stall: the
    /// chronic straggle delay, or straight to the dependency waits.
    fn after_stall(&mut self) -> Pc {
        match self.straggle {
            Some(d) => {
                self.timer_armed = false;
                Pc::Straggle {
                    until: Instant::now() + d,
                }
            }
            None => Pc::Dep { idx: 0 },
        }
    }

    fn finish(&mut self) -> Yield {
        debug_assert!(self.inbox.is_empty(), "undelivered tile at program end");
        self.done = true;
        self.pc = Pc::Finished;
        Yield::Done
    }

    // ---- Tile-shaped memory helpers: each moves `count` chunk segments
    // directly between rank memory and a pooled tile — no intermediate
    // Vec on any path.

    fn fill_src(
        &self,
        instr: &mscclang::IrInstruction,
        elem_off: usize,
        len: usize,
        tile: &mut PooledTile,
    ) {
        let loc = instr.src.expect("instruction requires src");
        for i in 0..instr.count {
            self.mem.read_into(
                self.collective,
                loc.buffer,
                loc.index + i,
                elem_off,
                &mut tile[i * len..(i + 1) * len],
            );
        }
    }

    fn write_dst(
        &self,
        instr: &mscclang::IrInstruction,
        elem_off: usize,
        len: usize,
        values: &[f32],
    ) {
        let loc = instr.dst.expect("instruction requires dst");
        for i in 0..instr.count {
            self.mem.write(
                self.collective,
                loc.buffer,
                loc.index + i,
                elem_off,
                &values[i * len..(i + 1) * len],
            );
        }
    }

    /// dst-memory = op(dst-memory, tile), tile = dst-memory: the in-place
    /// form of the old read-combine-write round trip, preserving its
    /// operand order exactly.
    fn reduce_merge_dst(
        &self,
        instr: &mscclang::IrInstruction,
        elem_off: usize,
        len: usize,
        tile: &mut PooledTile,
    ) {
        let loc = instr.dst.expect("instruction requires dst");
        for i in 0..instr.count {
            self.mem.reduce_merge(
                self.collective,
                loc.buffer,
                loc.index + i,
                elem_off,
                &mut tile[i * len..(i + 1) * len],
                self.op,
            );
        }
    }

    /// tile = op(src-memory, tile): the receive-side merge of
    /// RecvReduceSend, local operand on the left as before.
    fn combine_read_src(
        &self,
        instr: &mscclang::IrInstruction,
        elem_off: usize,
        len: usize,
        tile: &mut PooledTile,
    ) {
        let loc = instr.src.expect("instruction requires src");
        for i in 0..instr.count {
            self.mem.combine_read(
                self.collective,
                loc.buffer,
                loc.index + i,
                elem_off,
                &mut tile[i * len..(i + 1) * len],
                self.op,
            );
        }
    }
}

/// Runs `tasks[t]` until it parks or finishes. Panics inside the
/// interpreter become a cancellation with a recorded origin rather than a
/// bare thread death the others wait out; every lock in the runtime is
/// poison-tolerant, so unwinding with locks held cannot wedge the
/// survivors.
fn run_task(t: usize, w: usize, sched: &Scheduler, tasks: &[Mutex<TbTask>], cancel: &CancelToken) {
    // Uncontended by the scheduler's ownership discipline: a task index
    // lives in exactly one place (a deque, the injector, the wait table,
    // or here), so no other worker holds this lock.
    let mut task = tasks[t].lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(fl) = task.flight {
        fl.run(w, task.rank, task.tb_id, t, task.completed);
    }
    loop {
        let step =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.advance(sched, w)));
        match step {
            Ok(Yield::Done) => {
                sched.task_done();
                return;
            }
            Ok(Yield::Blocked { key, timer }) => {
                if let Some(fl) = task.flight {
                    fl.block(
                        w,
                        task.rank,
                        task.tb_id,
                        key.flight_code(),
                        task.tile,
                        task.step,
                    );
                }
                let probe_task = &*task;
                if !sched.block(t, key, timer, || probe_task.blocked_ready(Instant::now())) {
                    // Parked: a waker, a timer, or the cancellation drain
                    // re-enqueues it. This worker moves on.
                    return;
                }
                // The condition turned true between registering and
                // probing, and this call won the reclaim race: keep
                // running the task.
            }
            Err(payload) => {
                cancel.cancel(FailureOrigin {
                    rank: task.rank,
                    tb: task.tb_id,
                    step: task.ring.last_step(),
                    cause: FailureCause::Panic(payload_string(payload.as_ref())),
                });
                // Panicked mid-advance: the pc is wherever the unwind left
                // it, which names no trustworthy wait — freeze nothing.
                task.frozen = None;
                task.dead = true;
                task.done = true;
                task.pc = Pc::Finished;
                sched.task_done();
                return;
            }
        }
    }
}

/// One pool worker: pops tasks (own deque LIFO, then the injector, then
/// stealing FIFO from peers) and runs each until it parks. When idle it
/// fires due timers and parks on the scheduler's [`Parker`] until
/// something is published. Exits when every task is done — or, after a
/// cancellation, when the queues are drained dry.
fn worker_loop(w: usize, sched: &Scheduler, tasks: &[Mutex<TbTask>], cancel: &CancelToken) {
    loop {
        let t = 'find: loop {
            if let Some(t) = sched.pop(w) {
                break 'find t;
            }
            if sched.is_finished() {
                return;
            }
            if cancel.is_cancelled() {
                // Snapshot the wait table before the drain empties it:
                // it is the post-mortem's record of who was parked on
                // what at the moment of failure. First capture wins.
                sched.capture_waits();
                // Wake everything so each task observes the token and
                // unwinds; once the queues are dry this worker is done —
                // a task stranded by a worker death outside the
                // interpreter no longer counts.
                sched.drain_waiting();
                match sched.pop(w) {
                    Some(t) => break 'find t,
                    None => return,
                }
            }
            // Park protocol: read the epoch, re-probe, then sleep bounded
            // by the next timer. Any publish after the epoch read bumps
            // it and the park returns immediately.
            let seen = sched.parker.epoch();
            if let Some(t) = sched.pop(w) {
                break 'find t;
            }
            if sched.is_finished() || cancel.is_cancelled() {
                continue;
            }
            let (woke, next_timer) = sched.fire_timers(Instant::now());
            if woke {
                continue;
            }
            sched.park(w, seen, next_timer);
        };
        run_task(t, w, sched, tasks, cancel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscclang::{compile, CompileOptions};

    fn run_and_check(program: &mscclang::Program, instances: usize, chunk_elems: usize) {
        let ir = compile(
            program,
            &CompileOptions::default().with_instances(instances),
        )
        .unwrap();
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 7);
        let outputs = execute(&ir, &inputs, chunk_elems, &RunOptions::default()).unwrap();
        crate::reference::check_outputs(
            &ir.collective,
            &inputs,
            &outputs,
            chunk_elems,
            ReduceOp::Sum,
        )
        .unwrap();
    }

    #[test]
    fn ring_allreduce_computes_correct_sums() {
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        run_and_check(&p, 1, 16);
    }

    #[test]
    fn multi_channel_multi_instance_ring() {
        let p = msccl_algos::ring_all_reduce(4, 2).unwrap();
        run_and_check(&p, 2, 8);
    }

    #[test]
    fn tiling_pipelines_large_chunks() {
        // Force multiple tiles with a tiny tile size.
        let p = msccl_algos::ring_all_reduce(3, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let chunk_elems = 10;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 3);
        let opts = RunOptions {
            tile_elems: Some(3),
            ..RunOptions::default()
        };
        let outputs = execute(&ir, &inputs, chunk_elems, &opts).unwrap();
        crate::reference::check_outputs(
            &ir.collective,
            &inputs,
            &outputs,
            chunk_elems,
            ReduceOp::Sum,
        )
        .unwrap();
    }

    #[test]
    fn rejects_bad_input_shape() {
        let p = msccl_algos::ring_all_reduce(2, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let err = execute(&ir, &[vec![0.0; 3]], 4, &RunOptions::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::InputShape { .. }));
    }

    #[test]
    fn rejects_degenerate_options_by_name() {
        let p = msccl_algos::ring_all_reduce(2, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let inputs = crate::reference::random_inputs(&ir, 4, 1);
        let cases: [(RunOptions, &str); 3] = [
            (
                RunOptions {
                    timeout: Duration::ZERO,
                    ..RunOptions::default()
                },
                "timeout",
            ),
            (
                RunOptions {
                    tile_elems: Some(0),
                    ..RunOptions::default()
                },
                "tile_elems",
            ),
            (
                RunOptions {
                    deadline: Some(Duration::ZERO),
                    ..RunOptions::default()
                },
                "deadline",
            ),
        ];
        for (opts, named) in cases {
            let err = execute(&ir, &inputs, 4, &opts).unwrap_err();
            let RuntimeError::InvalidOptions { message } = &err else {
                panic!("expected InvalidOptions for {named}, got {err:?}");
            };
            assert!(message.contains(named), "{message:?} names {named}");
            assert!(!err.is_transient());
        }
    }

    fn deadlocked_ir() -> mscclang::IrProgram {
        use mscclang::Collective;
        let collective = Collective::all_gather(2, 1, false);
        let gpu = |rank: usize, peer: usize| mscclang::ir::IrGpu {
            rank,
            input_chunks: 1,
            output_chunks: 2,
            scratch_chunks: 0,
            threadblocks: vec![mscclang::IrThreadBlock {
                id: 0,
                send_peer: Some(peer),
                recv_peer: Some(peer),
                channel: 0,
                instructions: vec![
                    mscclang::IrInstruction {
                        step: 0,
                        op: OpCode::Recv,
                        src: None,
                        dst: Some(mscclang::ir::IrLoc {
                            buffer: mscclang::BufferKind::Output,
                            index: 0,
                        }),
                        count: 1,
                        deps: vec![],
                        has_dep: false,
                    },
                    mscclang::IrInstruction {
                        step: 1,
                        op: OpCode::Send,
                        src: Some(mscclang::ir::IrLoc {
                            buffer: mscclang::BufferKind::Input,
                            index: 0,
                        }),
                        dst: None,
                        count: 1,
                        deps: vec![],
                        has_dep: false,
                    },
                ],
            }],
        };
        mscclang::IrProgram {
            name: "deadlock".into(),
            collective,
            protocol: None,
            num_channels: 1,
            refinement: 1,
            gpus: vec![gpu(0, 1), gpu(1, 0)],
            epoch_cuts: vec![],
        }
    }

    /// A hand-built IR where both ranks only receive: the runtime's
    /// watchdog must report the hang instead of blocking forever.
    #[test]
    fn hang_is_detected() {
        let ir = deadlocked_ir();
        let opts = RunOptions {
            timeout: Duration::from_millis(200),
            ..RunOptions::default()
        };
        let inputs = vec![vec![1.0], vec![2.0]];
        let err = execute(&ir, &inputs, 1, &opts).unwrap_err();
        assert!(matches!(err, RuntimeError::Hang { .. }), "got {err:?}");
        assert!(err.is_transient());
    }

    /// The hang error carries each thread block's last ring entries, and
    /// its display names the blocking receives.
    #[test]
    fn hang_dumps_recent_activity() {
        let ir = deadlocked_ir();
        let opts = RunOptions {
            timeout: Duration::from_millis(200),
            ..RunOptions::default()
        };
        let inputs = vec![vec![1.0], vec![2.0]];
        let err = execute(&ir, &inputs, 1, &opts).unwrap_err();
        let RuntimeError::Hang { step, context, .. } = &err else {
            panic!("expected hang, got {err:?}");
        };
        assert_eq!(*step, 0);
        // Both thread blocks contribute their stuck receive.
        assert!(context
            .iter()
            .any(|l| l.starts_with("rank 0 tb 0") && l.contains("blocked receiving from rank 1")));
        assert!(context
            .iter()
            .any(|l| l.starts_with("rank 1 tb 0") && l.contains("blocked receiving from rank 0")));
        let shown = err.to_string();
        assert!(shown.contains("recent activity per thread block:"));
        assert!(shown.contains("blocked receiving"));
    }

    /// The hang error carries a structured diagnosis: the two mutually
    /// blocked receives close a cycle in the wait-for graph.
    #[test]
    fn hang_diagnosis_classifies_deadlock_cycle() {
        let ir = deadlocked_ir();
        let opts = RunOptions {
            timeout: Duration::from_millis(200),
            ..RunOptions::default()
        };
        let inputs = vec![vec![1.0], vec![2.0]];
        let err = execute(&ir, &inputs, 1, &opts).unwrap_err();
        let d = err.diagnosis().expect("hang carries a diagnosis");
        assert_eq!(d.kind, crate::flight::StallKind::DeadlockCycle, "{d:?}");
        assert!(!d.chain.is_empty());
        assert_eq!(d.graph.tasks.len(), 2);
        let RuntimeError::Hang { context, .. } = &err else {
            panic!("expected hang, got {err:?}");
        };
        assert!(
            context
                .iter()
                .any(|l| l.contains("diagnosis: deadlock_cycle")),
            "{context:?}"
        );
        assert!(
            context.iter().any(|l| l.starts_with("root cause: ")),
            "{context:?}"
        );
    }

    /// With `blackbox_dir` set, a failed run writes a versioned dump
    /// that parses back and names the same failure.
    #[test]
    fn failed_run_writes_parseable_blackbox() {
        let dir = std::env::temp_dir().join(format!("msccl-bb-test-{}", std::process::id()));
        let ir = deadlocked_ir();
        let opts = RunOptions {
            timeout: Duration::from_millis(200),
            blackbox_dir: Some(dir.clone()),
            ..RunOptions::default()
        };
        let inputs = vec![vec![1.0], vec![2.0]];
        let err = execute(&ir, &inputs, 1, &opts).unwrap_err();
        let path = err
            .blackbox_path()
            .expect("dump path recorded on the error")
            .to_path_buf();
        let raw = std::fs::read_to_string(&path).unwrap();
        let bb = Blackbox::from_json(&raw).expect("dump parses");
        assert_eq!(bb.version, crate::flight::BLACKBOX_VERSION);
        assert_eq!(bb.failure.cause, "hang");
        assert_eq!(bb.program, "deadlock");
        assert_eq!(bb.diagnosis.kind, crate::flight::StallKind::DeadlockCycle);
        assert!(!bb.flight.is_empty(), "flight rings captured");
        assert!(!bb.conns.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An injected kill's diagnosis is a self-fault rooted at the
    /// injected rank/tb/step, with the fired fault attached.
    #[test]
    fn injected_kill_diagnosis_names_fault_site() {
        use msccl_faults::{FaultKind, FaultPlan, FaultSite, FaultSpec};
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let chunk_elems = 8;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 5);
        let plan = FaultPlan {
            seed: 0,
            specs: vec![FaultSpec {
                site: FaultSite::Block {
                    rank: 1,
                    tb: 0,
                    step: 0,
                },
                kind: FaultKind::KillBlock,
            }],
        };
        let injector = FaultInjector::new(&plan);
        let opts = RunOptions {
            timeout: Duration::from_secs(5),
            ..RunOptions::default()
        };
        let err = run(Run::new(&ir, &inputs, chunk_elems, &opts).with_faults(&injector))
            .outputs
            .unwrap_err();
        let d = err.diagnosis().expect("kill carries a diagnosis");
        assert_eq!(d.kind, crate::flight::StallKind::SelfFault, "{d:?}");
        assert_eq!(
            (d.root.0, d.root.1),
            (1, 0),
            "root names the killed block: {d:?}"
        );
        assert!(
            d.fired_faults
                .iter()
                .any(|f| f.contains("kill block r1 tb0 step0")),
            "{d:?}"
        );
    }

    /// Disabling the flight recorder still yields a full wait-for-graph
    /// diagnosis — only the binary rings go missing.
    #[test]
    fn flight_off_still_diagnoses() {
        let ir = deadlocked_ir();
        let opts = RunOptions {
            timeout: Duration::from_millis(200),
            flight: false,
            ..RunOptions::default()
        };
        let inputs = vec![vec![1.0], vec![2.0]];
        let err = execute(&ir, &inputs, 1, &opts).unwrap_err();
        assert_eq!(
            err.diagnosis().unwrap().kind,
            crate::flight::StallKind::DeadlockCycle
        );
    }

    /// A global deadline fires even when every step makes progress, and
    /// the error is distinguishable from a per-step hang.
    #[test]
    fn global_deadline_is_enforced() {
        let ir = deadlocked_ir();
        // Generous per-step timeout, tight global deadline: only the
        // deadline can fire first.
        let opts = RunOptions {
            timeout: Duration::from_secs(20),
            deadline: Some(Duration::from_millis(100)),
            ..RunOptions::default()
        };
        let inputs = vec![vec![1.0], vec![2.0]];
        let start = Instant::now();
        let err = execute(&ir, &inputs, 1, &opts).unwrap_err();
        assert!(
            matches!(err, RuntimeError::DeadlineExceeded { .. }),
            "got {err:?}"
        );
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    /// A worker panic is caught, attributed to its rank/tb/step, carries
    /// the payload text, and cancels the other workers promptly.
    #[test]
    fn worker_panic_is_attributed() {
        // An IR whose rank-1 receive writes to an out-of-range output
        // chunk makes the worker panic inside memory access.
        let mut ir = deadlocked_ir();
        ir.gpus[0].threadblocks[0].instructions.truncate(1);
        ir.gpus[1].threadblocks[0].instructions = vec![mscclang::IrInstruction {
            step: 0,
            op: OpCode::Send,
            src: Some(mscclang::ir::IrLoc {
                buffer: mscclang::BufferKind::Input,
                index: 99, // out of range: reading it panics
            }),
            dst: None,
            count: 1,
            deps: vec![],
            has_dep: false,
        }];
        let inputs = vec![vec![1.0], vec![2.0]];
        let start = Instant::now();
        let err = execute(&ir, &inputs, 1, &RunOptions::default()).unwrap_err();
        let RuntimeError::WorkerPanic {
            rank,
            tb,
            step,
            payload,
            ..
        } = &err
        else {
            panic!("expected WorkerPanic, got {err:?}");
        };
        assert_eq!((*rank, *tb, *step), (1, 0, 0));
        assert!(!payload.is_empty());
        // Cancellation, not the 20 s default timeout, freed rank 0.
        assert!(start.elapsed() < Duration::from_secs(2));
        let shown = err.to_string();
        assert!(shown.contains("worker panicked at rank 1 tb 0 step 0"));
        assert!(err.is_transient());
    }

    use mscclang::OpCode;

    #[test]
    fn max_reduction_operator() {
        let p = msccl_algos::allpairs_all_reduce(3).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let chunk_elems = 4;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 11);
        let opts = RunOptions {
            reduce_op: ReduceOp::Max,
            ..RunOptions::default()
        };
        let outputs = execute(&ir, &inputs, chunk_elems, &opts).unwrap();
        crate::reference::check_outputs(
            &ir.collective,
            &inputs,
            &outputs,
            chunk_elems,
            ReduceOp::Max,
        )
        .unwrap();
    }

    /// Every combination of a request's optional parts — trace, metrics
    /// snapshot, arena, fault injector with an empty plan — computes the
    /// bits and instruction count of a plain [`execute`]. A warmed arena
    /// recycles the whole data path (tiles, rank memory, output vectors),
    /// and a requested trace passes the consistency oracle against the IR.
    #[test]
    fn every_request_combination_matches_execute() {
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let chunk_elems = 32;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 23);
        let opts = RunOptions {
            tile_elems: Some(9),
            ..RunOptions::default()
        };
        let bits = |outputs: &[Vec<f32>]| -> Vec<Vec<u32>> {
            outputs
                .iter()
                .map(|o| o.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let fresh = bits(&execute(&ir, &inputs, chunk_elems, &opts).unwrap());
        let instructions = (ir.num_instructions() * chunk_elems.div_ceil(9)) as u64;
        let injector = FaultInjector::new(&msccl_faults::FaultPlan {
            seed: 0,
            specs: Vec::new(),
        });

        for cell in 0..16u8 {
            let (trace, snapshot, in_arena, faults) =
                (cell & 1 != 0, cell & 2 != 0, cell & 4 != 0, cell & 8 != 0);
            let mut arena = ExecArena::new(&ir, &opts);
            for warm in [false, true].into_iter().take(if in_arena { 2 } else { 1 }) {
                let mut req = Run::new(&ir, &inputs, chunk_elems, &opts)
                    .with_trace(trace)
                    .with_snapshot(snapshot);
                if in_arena {
                    req = req.with_arena(&mut arena);
                }
                if faults {
                    req = req.with_faults(&injector);
                }
                let report = run(req);
                let at = format!("trace={trace} snapshot={snapshot} arena={in_arena} faults={faults} warm={warm}");
                let outputs = report.outputs.unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(bits(&outputs), fresh, "{at}: diverged from execute");
                assert_eq!(report.stats.instructions, instructions, "{at}");
                assert_eq!(report.trace.is_some(), trace, "{at}");
                if let Some(t) = &report.trace {
                    t.check_consistency(Some(&ir)).unwrap();
                    assert_eq!(t.executed_instructions().len() as u64, instructions, "{at}");
                }
                assert_eq!(report.metrics.is_some(), snapshot, "{at}");
                if warm {
                    assert_eq!(
                        report.stats.pool.allocated, 0,
                        "{at}: warmed arena still allocated tiles: {:?}",
                        report.stats.pool
                    );
                    assert!(report.stats.pool.reused > 0, "{at}: pool was bypassed");
                }
                arena.recycle_outputs(outputs);
            }
        }
    }

    /// Epoch barriers are pure synchronization on the clean path: outputs
    /// with checkpointing on are bit-identical to epochs-off, and the
    /// status reports every scheduled boundary as published.
    #[test]
    fn epochs_on_clean_run_is_bit_exact() {
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let chunk_elems = 8;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 41);
        let opts_off = RunOptions {
            tile_elems: Some(2),
            ..RunOptions::default()
        };
        let plain = execute(&ir, &inputs, chunk_elems, &opts_off).unwrap();
        let opts_on = RunOptions {
            epochs: EpochMode::Count(2),
            ..opts_off
        };
        let RunReport {
            outputs,
            epoch: status,
            ..
        } = run(Run::new(&ir, &inputs, chunk_elems, &opts_on));
        let outputs = outputs.unwrap();
        for (a, b) in plain.iter().zip(&outputs) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(status.boundaries, 2);
        assert_eq!(status.epochs_completed, 2);
        assert_eq!(status.steps_resumed, 0);
        assert_eq!(status.executed, (ir.num_instructions() * 4) as u64);
        assert!(
            status.checkpoint.is_none(),
            "successful runs must not hand out a checkpoint"
        );
    }

    /// Epoch snapshot staging buffers recycle through the arena: the
    /// first epochs-on run grows them, later runs reuse them, and the
    /// data path stays bit-exact.
    #[test]
    fn arena_recycles_epoch_snapshot_buffers() {
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let chunk_elems = 8;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 43);
        let opts = RunOptions {
            tile_elems: Some(2),
            epochs: EpochMode::Count(2),
            ..RunOptions::default()
        };
        let fresh = execute(&ir, &inputs, chunk_elems, &opts).unwrap();
        let mut arena = ExecArena::new(&ir, &opts);
        let first = run(Run::new(&ir, &inputs, chunk_elems, &opts).with_arena(&mut arena))
            .outputs
            .unwrap();
        assert_eq!(fresh, first);
        assert_eq!(
            arena.snaps.len(),
            ir.num_ranks(),
            "snapshot staging buffers must return to the arena"
        );
        arena.recycle_outputs(first);
        let second = run(Run::new(&ir, &inputs, chunk_elems, &opts).with_arena(&mut arena))
            .outputs
            .unwrap();
        assert_eq!(fresh, second);
        assert_eq!(arena.snaps.len(), ir.num_ranks());
    }

    /// A resume checkpoint is only honored against the exact schedule it
    /// was captured under; anything else is a structural error, not a
    /// silent corruption.
    #[test]
    fn mismatched_resume_checkpoint_is_rejected() {
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let chunk_elems = 8;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 44);
        let bogus = crate::epoch::EpochCheckpoint {
            boundary: 7,
            targets: vec![vec![1]; 4],
            memories: (0..4)
                .map(|_| crate::memory::SpaceBuffers::default())
                .collect(),
            instructions: 4,
        };
        let opts = RunOptions {
            tile_elems: Some(2),
            epochs: EpochMode::Count(2),
            ..RunOptions::default()
        };
        let err = run(Run {
            resume: Some(bogus),
            ..Run::new(&ir, &inputs, chunk_elems, &opts)
        })
        .outputs
        .unwrap_err();
        assert!(
            matches!(&err, RuntimeError::InvalidOptions { message } if message.contains("resume checkpoint")),
            "got {err:?}"
        );
    }

    /// The metrics snapshot agrees with the trace recorded in the same
    /// run: same per-connection bytes/sends/receives, same instruction
    /// count, pool counters mirroring `ExecStats`.
    #[test]
    fn profiled_metrics_agree_with_trace() {
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let chunk_elems = 16;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 31);
        let opts = RunOptions::default();
        let report = run(Run::new(&ir, &inputs, chunk_elems, &opts)
            .with_trace(true)
            .with_snapshot(true));
        let (outputs, trace, snapshot) = (
            report.outputs.unwrap(),
            report.trace.unwrap(),
            report.metrics.unwrap(),
        );
        crate::reference::check_outputs(
            &ir.collective,
            &inputs,
            &outputs,
            chunk_elems,
            ReduceOp::Sum,
        )
        .unwrap();

        // The trace-derived snapshot carries the same logical counters:
        // bytes, sends, receives per connection, instructions per op.
        let derived = msccl_trace::snapshot_from_trace(&trace);
        for name in [
            msccl_metrics::names::BYTES_SENT,
            msccl_metrics::names::BYTES_RECEIVED,
            msccl_metrics::names::SENDS,
            msccl_metrics::names::RECVS,
            msccl_metrics::names::INSTRUCTIONS,
        ] {
            let live: Vec<_> = snapshot.with_name(name).collect();
            assert!(!live.is_empty(), "no live samples for {name}");
            for sample in live {
                let labels: Vec<(&str, &str)> = sample
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                assert_eq!(
                    derived.counter(name, &labels),
                    snapshot.counter(name, &labels),
                    "mismatch on {name} {labels:?}"
                );
            }
        }
        assert_eq!(
            snapshot.counter_total(msccl_metrics::names::INSTRUCTIONS),
            trace.executed_instructions().len() as u64,
        );

        // Metrics off: the run still works, and the snapshot is empty.
        let opts = RunOptions {
            metrics: false,
            ..RunOptions::default()
        };
        let (_, empty) = execute_with_metrics(&ir, &inputs, chunk_elems, &opts).unwrap();
        assert!(empty.samples.is_empty());
    }
}

#[cfg(test)]
mod zero_elision {
    use super::*;
    use mscclang::{compile, CompileOptions};

    /// Recursive-doubling allgather(4): every chunk a rank *receives* is
    /// provably overwritten before any read of it. The round-2 send of
    /// the round-1 chunk reads it, but only behind the dep edge on the
    /// round-1 recv — the happens-before sweep must see through that
    /// edge instead of conservatively re-zeroing the chunk. The rank's
    /// own chunk is never elided (the input load covers it instead).
    #[test]
    fn rd_allgather_elides_every_received_chunk() {
        let p = msccl_algos::recursive_doubling_all_gather(4).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        for r in 0..4 {
            let skip = overwrite_only_chunks(&ir, &ir.collective, r);
            let want: Vec<bool> = (0..4).map(|c| c != r).collect();
            assert_eq!(skip[0], want, "rank {r} data-space elision");
        }
    }

    /// Ring allreduce reduces in place — every data chunk is the target
    /// of read-modify-write reduce steps with no prior overwrite, so
    /// nothing may skip its re-zero (the input load covers the chunks
    /// instead; this guards against the analysis ever treating a reduce
    /// destination as a plain overwrite).
    #[test]
    fn ring_allreduce_elides_nothing() {
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        for r in 0..4 {
            let skip = overwrite_only_chunks(&ir, &ir.collective, r);
            assert!(
                skip[0].iter().all(|&s| !s),
                "rank {r}: reduce-target chunks must keep their re-zero, got {:?}",
                skip[0]
            );
        }
    }
}
