//! `sim_sweep`: the serial simulator over compiler-produced IR for catalog
//! algorithms on 2- and 4-node `ndv4` models, across a 1 KiB–1 GiB sweep.

use std::time::{Duration, Instant};

use msccl_sim::{simulate, SimConfig};
use msccl_topology::Machine;
use mscclang::{compile, CompileOptions, IrProgram};

use crate::gen::{sim_pass, sim_shapes, SimOp, SIM_SIZES};
use crate::layers;
use crate::stats;
use crate::{median_setup, Args, Metric, Outcome, Phase};

const SETUP_REPS: usize = 9;
/// Operations re-simulated after the loop to check that totals repeat.
const REPEAT_SAMPLE: usize = 8;

struct Program {
    name: &'static str,
    ir: IrProgram,
    cfg: SimConfig,
}

/// Modelled total, events, flows and peak heap of one simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sim {
    total_us: f64,
    events: u64,
    flows: usize,
    max_heap: usize,
}

fn compile_all() -> Result<Vec<Program>, String> {
    sim_shapes()
        .iter()
        .map(|s| {
            let program = msccl_algos::build_by_name(s.algorithm, &s.spec())
                .map_err(|e| format!("{}: {e}", s.algorithm))?;
            let ir = compile(&program, &CompileOptions::default())
                .map_err(|e| format!("{}: {e}", s.algorithm))?;
            Ok(Program {
                name: s.algorithm,
                cfg: SimConfig::new(Machine::ndv4(s.num_ranks() / 8)),
                ir,
            })
        })
        .collect()
}

fn sim(p: &Program, op: &SimOp) -> Result<Sim, String> {
    simulate(&p.ir, &p.cfg, op.bytes)
        .map(|r| Sim {
            total_us: r.total_us,
            events: r.events,
            flows: r.flows,
            max_heap: r.max_heap,
        })
        .map_err(|e| format!("{} at {} B: {e}", p.name, op.bytes))
}

/// Everything one measured phase simulated.
#[derive(Default)]
struct Sweep {
    phase: Phase,
    wall_s: Vec<f64>,
    sims: Vec<Sim>,
    /// Fastest wall time of each pass position, seconds (infinite if it
    /// never completed).
    best_s: Vec<f64>,
}

/// Runs whole passes until `dur` has passed, so every run measures the
/// same mix of programs and sizes. `first` holds the first result of each
/// pass position; later repeats must equal it.
fn measure(
    programs: &[Program],
    pass: &[SimOp],
    first: &mut [Option<Sim>],
    dur: Duration,
) -> Sweep {
    let mut s = Sweep {
        best_s: vec![f64::INFINITY; pass.len()],
        ..Sweep::default()
    };
    let t0 = Instant::now();
    let mut i = 0;
    while i % pass.len() != 0 || t0.elapsed() < dur {
        let pos = i % pass.len();
        i += 1;
        let op = &pass[pos];
        let p = &programs[op.program];
        s.phase.attempted += 1;
        let start = Instant::now();
        let result = sim(p, op);
        let dt = start.elapsed().as_secs_f64();
        match result {
            Ok(r) => {
                if first[pos].get_or_insert(r) != &r {
                    s.phase.wrong(format!(
                        "{} at {} B: totals changed on repeat",
                        p.name, op.bytes
                    ));
                    continue;
                }
                s.phase.ok(dt, op.bytes as f64, r.total_us / 1e6);
                s.phase.span_s += dt;
                s.wall_s.push(dt);
                s.best_s[pos] = s.best_s[pos].min(dt);
                s.sims.push(r);
            }
            Err(e) => s.phase.fail(e),
        }
    }
    s
}

/// The end-to-end phase of an untraced sweep. Host contention on a shared
/// machine only ever slows the simulator and comes in spells of seconds,
/// while each position repeats once per pass; so every position counts
/// once, at its fastest repeat. Failures and attempts are all kept.
fn fastest(s: Sweep, pass: &[SimOp], first: &[Option<Sim>]) -> Phase {
    let mut phase = Phase {
        attempted: s.phase.attempted,
        failures: s.phase.failures,
        wrong: s.phase.wrong,
        ..Phase::default()
    };
    for ((op, &dt), r) in pass.iter().zip(&s.best_s).zip(first) {
        if let (true, Some(r)) = (dt.is_finite(), r) {
            phase.ok(dt, op.bytes as f64, r.total_us / 1e6);
            phase.span_s += dt;
        }
    }
    phase
}

/// Re-simulates a seeded sample of completed positions and checks that
/// each total repeats exactly.
fn check_repeats(
    programs: &[Program],
    pass: &[SimOp],
    first: &[Option<Sim>],
    seed: u64,
    phase: &mut Phase,
) {
    let done: Vec<usize> = (0..pass.len()).filter(|&i| first[i].is_some()).collect();
    let mut rng = crate::gen::Rng::new(seed ^ 0x7e7e);
    for _ in 0..REPEAT_SAMPLE.min(done.len()) {
        let pos = done[rng.below(done.len())];
        let op = &pass[pos];
        match sim(&programs[op.program], op) {
            Ok(r) if Some(r) == first[pos] => {}
            Ok(_) => phase.wrong(format!(
                "{} at {} B: totals changed on repeat",
                programs[op.program].name, op.bytes
            )),
            Err(e) => phase.fail(e),
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (setup_s, programs) = median_setup(reps, compile_all);
    let programs = programs.unwrap_or_else(|e| {
        eprintln!("perfbench: sim_sweep cannot compile its programs: {e}");
        std::process::exit(1);
    });
    let pass = sim_pass(args.seed, programs.len());
    let mut first = vec![None; pass.len()];
    let mut notes = vec![format!(
        "{} programs x {SIM_SIZES} sizes = {} simulations per pass",
        programs.len(),
        pass.len()
    )];

    if !args.trace {
        let mut s = measure(
            &programs,
            &pass,
            &mut first,
            Duration::from_secs_f64(args.seconds),
        );
        check_repeats(&programs, &pass, &first, args.seed, &mut s.phase);
        notes.push(format!(
            "measured: {} simulations, {} passes",
            s.sims.len(),
            s.sims.len() / pass.len()
        ));
        return Outcome {
            phase: fastest(s, &pass, &first),
            setup_s,
            layers: Vec::new(),
            notes,
        };
    }

    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut untraced = measure(&programs, &pass, &mut first, half);
    let traced = measure(&programs, &pass, &mut first, half);
    check_repeats(&programs, &pass, &first, args.seed, &mut untraced.phase);
    let n = traced.sims.len() as f64;
    let sum = |f: fn(&Sim) -> f64| traced.sims.iter().map(f).sum::<f64>();
    let wall: f64 = traced.wall_s.iter().sum();
    let modeled: Vec<f64> = first.iter().flatten().map(|r| r.total_us).collect();
    let mut layers = layers::split(
        traced.phase.mean_ms() * 1e3,
        untraced.phase.mean_ms() * 1e3,
        &[("sim", stats::ratio(wall * 1e6, n))],
    );
    layers.extend([
        Metric::new("sim.simulate_ms", stats::ratio(wall * 1e3, n), "ms"),
        Metric::new(
            "sim.events",
            stats::ratio(sum(|r| r.events as f64), n),
            "count",
        ),
        Metric::new(
            "sim.flows",
            stats::ratio(sum(|r| r.flows as f64), n),
            "count",
        ),
        Metric::new(
            "sim.max_heap",
            stats::ratio(sum(|r| r.max_heap as f64), n),
            "count",
        ),
        Metric::new(
            "sim.events_per_s",
            stats::ratio(sum(|r| r.events as f64), wall),
            "1/s",
        ),
        Metric::new("sim.modeled_us_geomean", stats::geomean(&modeled), "us"),
    ]);
    let compiled: Vec<_> = sim_shapes().into_iter().map(|s| (s, 1)).collect();
    match layers::compiler(&compiled) {
        Ok(m) => layers.extend(m),
        Err(e) => untraced.phase.wrong(format!("compiler replay: {e}")),
    }
    notes.push(format!(
        "traced phase: {} simulations, {} distinct positions simulated",
        traced.sims.len(),
        modeled.len()
    ));
    let mut phase = untraced.phase;
    phase.absorb(traced.phase);
    Outcome {
        phase,
        setup_s: 0.0,
        layers,
        notes,
    }
}
