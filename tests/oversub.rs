//! Oversubscription differential tier: scheduler-size invariance.
//!
//! The work-stealing executor must produce *bit-identical* results no
//! matter how many worker threads interpret the compiled thread blocks.
//! Every algorithm in `msccl-algos` runs under every protocol at pool
//! sizes {1, 2, num_tbs/2} — from fully serialized (one worker resumes
//! every TB task in turn) through heavily oversubscribed — and each run
//! is compared element-for-element against the program-replay oracle.
//!
//! `random_inputs` produces small integers, so `f32` sums are exact and
//! association-order independent: any bit difference means a task lost
//! state across a park/steal migration, two workers ran the same task,
//! or a wakeup was lost and a stale tile was consumed.
//!
//! Set `MSCCL_SCHED_THREADS=N` to pin the tier to a single pool size —
//! the CI `executor-oversub` matrix job uses this to split pool sizes
//! across jobs.

use msccl_runtime::{execute, reference, run, ExecArena, Run, RunOptions};
use msccl_topology::Protocol;
use mscclang::{compile, CompileOptions, Program, ReduceOp};

/// All fifteen shipped algorithms, sized as in the bit-exactness tier.
fn algorithms() -> Vec<(&'static str, Program)> {
    vec![
        (
            "ring_all_reduce",
            msccl_algos::ring_all_reduce(8, 2).unwrap(),
        ),
        (
            "allpairs_all_reduce",
            msccl_algos::allpairs_all_reduce(8).unwrap(),
        ),
        (
            "binary_tree_all_reduce",
            msccl_algos::binary_tree_all_reduce(8, 1).unwrap(),
        ),
        (
            "double_binary_tree_all_reduce",
            msccl_algos::double_binary_tree_all_reduce(8, 2).unwrap(),
        ),
        (
            "rabenseifner_all_reduce",
            msccl_algos::rabenseifner_all_reduce(8).unwrap(),
        ),
        (
            "recursive_doubling_all_gather",
            msccl_algos::recursive_doubling_all_gather(8).unwrap(),
        ),
        (
            "binomial_broadcast",
            msccl_algos::binomial_broadcast(8, 1, 0).unwrap(),
        ),
        (
            "binomial_reduce",
            msccl_algos::binomial_reduce(8, 1, 0).unwrap(),
        ),
        (
            "linear_gather",
            msccl_algos::linear_gather(8, 1, 0).unwrap(),
        ),
        (
            "linear_scatter",
            msccl_algos::linear_scatter(8, 1, 0).unwrap(),
        ),
        (
            "hierarchical_all_reduce",
            msccl_algos::hierarchical_all_reduce(2, 4).unwrap(),
        ),
        (
            "two_step_all_to_all",
            msccl_algos::two_step_all_to_all(2, 4).unwrap(),
        ),
        (
            "one_step_all_to_all",
            msccl_algos::one_step_all_to_all(2, 4).unwrap(),
        ),
        ("all_to_next", msccl_algos::all_to_next(2, 4).unwrap()),
        ("hcm_allgather", msccl_algos::hcm_allgather().unwrap()),
    ]
}

/// Pool sizes to sweep for a program with `num_tbs` total thread blocks,
/// honoring the `MSCCL_SCHED_THREADS` pin used by the CI matrix.
fn pool_sizes(num_tbs: usize) -> Vec<usize> {
    if let Ok(pin) = std::env::var("MSCCL_SCHED_THREADS") {
        let n: usize = pin
            .parse()
            .unwrap_or_else(|_| panic!("MSCCL_SCHED_THREADS={pin}: not a pool size"));
        return vec![n.max(1)];
    }
    let mut sizes = vec![1, 2, (num_tbs / 2).max(1)];
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

#[test]
fn every_algorithm_is_bit_exact_at_every_pool_size() {
    let chunk_elems = 96;
    for (name, program) in &algorithms() {
        let ir = compile(program, &CompileOptions::default()).expect("compiles");
        let inputs = reference::random_inputs(&ir, chunk_elems, 17);
        let golden =
            reference::replay_program(program, &inputs, chunk_elems * ir.refinement, ReduceOp::Sum);
        for pool in pool_sizes(ir.num_threadblocks()) {
            for protocol in [Protocol::Simple, Protocol::Ll, Protocol::Ll128] {
                let opts = RunOptions {
                    protocol,
                    tile_elems: Some(25), // 96 elems -> tiles of 25/25/25/21
                    worker_threads: pool,
                    ..RunOptions::default()
                };
                let outputs = execute(&ir, &inputs, chunk_elems, &opts)
                    .unwrap_or_else(|e| panic!("{name}/{protocol:?}/pool={pool}: {e}"));
                assert_eq!(
                    outputs.len(),
                    golden.len(),
                    "{name}/{protocol:?}/pool={pool}: ranks"
                );
                for (r, (got, want)) in outputs.iter().zip(&golden).enumerate() {
                    assert_eq!(
                        got.len(),
                        want.len(),
                        "{name}/{protocol:?}/pool={pool} rank {r}: output length"
                    );
                    for (i, (a, b)) in got.iter().zip(want).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "{name}/{protocol:?}/pool={pool} rank {r} element {i}: \
                             {a} != {b} (bitwise)"
                        );
                    }
                }
            }
        }
    }
}

/// Arena-recycled runs stay bit-exact with *changing* inputs.
///
/// Recycled construction elides the re-zero of chunks the instruction
/// scan proves are overwritten before every read, and output extraction
/// steals a rank's whole space buffer when the layout allows — both
/// optimizations keep stale data from the previous run in memory on
/// purpose. Three consecutive runs share one `ExecArena`, each with a
/// different input seed: if elision or the steal ever kept a byte that
/// is actually observable, round N's values would leak into round N+1's
/// outputs and the oracle comparison would catch the exact element.
#[test]
fn recycled_arena_runs_are_bit_exact_across_changing_inputs() {
    let chunk_elems = 96;
    for (name, program) in &algorithms() {
        let ir = compile(program, &CompileOptions::default()).expect("compiles");
        let opts = RunOptions {
            tile_elems: Some(25),
            worker_threads: 2,
            ..RunOptions::default()
        };
        let mut arena = ExecArena::new(&ir, &opts);
        for seed in [3u64, 41, 271] {
            let inputs = reference::random_inputs(&ir, chunk_elems, seed);
            let golden = reference::replay_program(
                program,
                &inputs,
                chunk_elems * ir.refinement,
                ReduceOp::Sum,
            );
            let outputs = run(Run::new(&ir, &inputs, chunk_elems, &opts).with_arena(&mut arena))
                .outputs
                .unwrap_or_else(|e| panic!("{name}/seed={seed}: {e}"));
            for (r, (got, want)) in outputs.iter().zip(&golden).enumerate() {
                assert_eq!(got.len(), want.len(), "{name}/seed={seed} rank {r}: length");
                for (i, (a, b)) in got.iter().zip(want).enumerate() {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "{name}/seed={seed} rank {r} element {i}: {a} != {b} (bitwise)"
                    );
                }
            }
            arena.recycle_outputs(outputs);
        }
    }
}

/// A 64-rank ring allreduce completes on the CI host with the default
/// (auto-sized) pool: 128 thread blocks collapse onto min(cores, 128)
/// workers instead of spawning one OS thread each, and the answer is
/// still bit-exact against the replay oracle.
#[test]
fn allreduce_64_ranks_completes_on_auto_pool() {
    let program = msccl_algos::ring_all_reduce(64, 2).unwrap();
    let ir = compile(&program, &CompileOptions::default()).expect("compiles");
    let chunk_elems = 8;
    let inputs = reference::random_inputs(&ir, chunk_elems, 99);
    let golden = reference::replay_program(
        &program,
        &inputs,
        chunk_elems * ir.refinement,
        ReduceOp::Sum,
    );
    let outputs = execute(&ir, &inputs, chunk_elems, &RunOptions::default())
        .unwrap_or_else(|e| panic!("64-rank allreduce: {e}"));
    assert_eq!(outputs.len(), golden.len(), "64-rank allreduce: ranks");
    for (r, (got, want)) in outputs.iter().zip(&golden).enumerate() {
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "64-rank allreduce rank {r} element {i}: {a} != {b} (bitwise)"
            );
        }
    }
}
