//! A multi-threaded functional interpreter for MSCCL-IR.
//!
//! This crate is the CPU analog of the paper's CUDA interpreter (Figure 5,
//! §6): each IR thread block becomes a resumable task scheduled onto a
//! work-stealing pool of `min(num_cpus, num_tbs)` worker threads (see
//! [`RunOptions::worker_threads`]), executing its
//! instruction list sequentially inside an outer *tiling* loop; chunks
//! larger than a FIFO slot are split into tiles and pipelined exactly as
//! the GPU interpreter does. Point-to-point connections are bounded
//! channels with the protocol's FIFO slot count — a send blocks when all
//! slots are full — and cross-thread-block dependencies use monotonic
//! semaphores, mirroring the `wait`/`set` pair in Figure 5.
//!
//! Data is real (`f32`), so executing a compiled program end-to-end
//! validates numerical correctness against the golden results in
//! [`mod@reference`].
//!
//! One entry point runs everything: [`run`] takes a [`Run`] request —
//! program, inputs, options, plus any of an arena, a fault injector, a
//! resume checkpoint, a trace and a metrics snapshot — and returns one
//! [`RunReport`]. [`recover`] runs the same request under the retry,
//! resume and fallback ladder; [`execute`] is `run` for outputs only.
//!
//! # Example
//!
//! ```
//! use msccl_runtime::{execute, reference, RunOptions};
//! use mscclang::{compile, CompileOptions};
//!
//! let program = msccl_algos::ring_all_reduce(4, 1)?;
//! let ir = compile(&program, &CompileOptions::default())?;
//! let inputs = reference::random_inputs(&ir, 64, 42);
//! let outputs = execute(&ir, &inputs, 64, &RunOptions::default()).unwrap();
//! reference::check_outputs(&ir.collective, &inputs, &outputs, 64, Default::default()).unwrap();
//! # Ok::<(), mscclang::Error>(())
//! ```

mod cancel;
mod epoch;
mod executor;
mod fifo;
mod flight;
pub mod kernels;
mod memory;
mod pool;
mod recovery;
pub mod reference;
mod sched;
mod semaphore;

pub use cancel::{FailureCause, FailureOrigin};
pub use epoch::{EpochCheckpoint, EpochStatus};
pub use executor::{
    execute, execute_with_metrics, run, ExecArena, ExecStats, Run, RunOptions, RunReport,
    RuntimeError,
};
pub use flight::{
    Blackbox, BlackboxConn, BlackboxFailure, BlackboxSched, BlockedOn, FlightRecord,
    StallDiagnosis, StallKind, TaskStall, WaitEdge, WaitForGraph, BLACKBOX_VERSION,
};
pub use memory::{RankMemory, SpaceBuffers};
pub use pool::{PoolStats, PooledTile, TilePool};
pub use recovery::{recover, RecoveryPolicy, RecoveryReport, RecoveryStep, ResumePolicy};
