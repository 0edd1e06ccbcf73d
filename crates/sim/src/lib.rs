//! Discrete-event performance simulator for MSCCL-IR over modeled GPU
//! clusters.
//!
//! The simulator stands in for the paper's hardware testbeds (§7): it
//! executes a compiled [`mscclang::IrProgram`] with the runtime semantics
//! of §6 — thread blocks interpreting instruction lists tile by tile,
//! FIFO-slot connections, protocol-dependent overheads — over the machine
//! models of [`msccl_topology`], using a fluid-flow network model:
//!
//! * every transfer becomes a *flow* across the contended resources of its
//!   path (NVLink ports, NICs) and receives an equal share of each
//!   resource's bandwidth, capped by a per-thread-block injection limit
//!   (§5.1: one thread block cannot saturate an NVLink);
//! * protocols set per-tile overheads, wire-byte inflation and FIFO slot
//!   sizes/counts (§6.1);
//! * chunks larger than a slot are split into tiles and pipelined through
//!   the instruction list exactly as the interpreter's outer loop does
//!   (§6.2, Figure 5);
//! * a cooperative kernel launch adds a fixed start-up cost, and
//!   multi-kernel baselines pay it per kernel (§7.2).
//!
//! Absolute times are model estimates; the simulator's purpose is to
//! reproduce the *shape* of the paper's evaluation — who wins, by what
//! factor, and where the crossovers fall.
//!
//! Execution is sharded per machine node and can run the shards on
//! worker threads ([`SimConfig::with_parallel`]) with results
//! bit-identical to the serial engine — see
//! `docs/simulator.md` for the round architecture and the determinism
//! contract.
//!
//! # Example
//!
//! ```
//! use msccl_sim::{simulate, SimConfig};
//! use msccl_topology::{Machine, Protocol};
//! use mscclang::{compile, CompileOptions};
//!
//! let program = msccl_algos::ring_all_reduce(8, 1)?;
//! let ir = compile(&program, &CompileOptions::default())?;
//! let cfg = SimConfig::new(Machine::ndv4(1)).with_protocol(Protocol::Ll128);
//! let report = simulate(&ir, &cfg, 1 << 20).expect("simulates");
//! assert!(report.total_us > 0.0);
//! # Ok::<(), mscclang::Error>(())
//! ```

mod actor;
mod config;
mod engine;
pub mod flow;
mod parallel;
mod sync;

pub use config::{SimConfig, SimError};
pub use engine::{simulate, simulate_sequence, Activity, SimReport, TimelineEntry};
pub use flow::{FlowNet, ResourceTable};
