//! The repository benchmark: drives the `msccl serve`, `msccl run` and
//! simulate paths through the public entry points of the service, compiler,
//! runtime and simulator crates, checks every output, and prints one JSON
//! result line.
//!
//! ```text
//! msccl-perfbench --workload <serve_hot|serve_churn|sim_sweep>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced (half the time each) and reports the
//! per-layer metrics, timed from this program around calls into each
//! layer's public functions. See `README.md` for every metric's definition.

mod gen;
mod host;
mod layers;
mod serve;
mod simsweep;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use host::Host;

pub const WORKLOADS: [&str; 3] = ["serve_hot", "serve_churn", "sim_sweep"];

/// End-to-end metrics, printed by every `--trace 0` run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("algbw_gbps", "GB/s"),
    ("setup_s", "s"),
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got '{value}'")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every successful operation, milliseconds.
    pub lat_ms: Vec<f64>,
    /// Denominator of `req_per_s`, seconds.
    pub span_s: f64,
    /// Bytes per rank moved by successful operations.
    pub bytes: f64,
    /// Denominator of `algbw_gbps`, seconds.
    pub busy_s: f64,
    pub attempted: u64,
    /// Failed operations by reason.
    pub failures: BTreeMap<String, u64>,
    /// Operations whose output did not match the expected one (also
    /// counted in `failures`).
    pub wrong: u64,
}

impl Phase {
    /// Records one successful operation.
    pub fn ok(&mut self, lat_s: f64, bytes: f64, busy_s: f64) {
        self.lat_ms.push(lat_s * 1e3);
        self.bytes += bytes;
        self.busy_s += busy_s;
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        *self.failures.entry(reason.into()).or_default() += 1;
    }

    pub fn wrong(&mut self, reason: impl Into<String>) {
        self.wrong += 1;
        self.fail(reason);
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Folds `other`'s operations and failures in; `span_s` stays this
    /// phase's.
    pub fn absorb(&mut self, other: Phase) {
        self.lat_ms.extend(other.lat_ms);
        self.bytes += other.bytes;
        self.busy_s += other.busy_s;
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        for (k, v) in other.failures {
            *self.failures.entry(k).or_default() += v;
        }
    }

    pub fn mean_ms(&self) -> f64 {
        stats::mean(&self.lat_ms)
    }

    /// The end-to-end metrics of this phase, without `setup_s`.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let mut sorted = self.lat_ms.clone();
        sorted.sort_by(f64::total_cmp);
        vec![
            Metric::new(
                "req_per_s",
                stats::ratio(sorted.len() as f64, self.span_s),
                "1/s",
            ),
            Metric::new("latency_p50_ms", stats::percentile(&sorted, 50.0), "ms"),
            Metric::new("latency_p90_ms", stats::percentile(&sorted, 90.0), "ms"),
            Metric::new(
                "algbw_gbps",
                stats::ratio(self.bytes, self.busy_s) / 1e9,
                "GB/s",
            ),
        ]
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A workload's result: the measured phase (both phases folded together
/// in a traced run), set-up time, per-layer metrics and report notes.
pub struct Outcome {
    pub phase: Phase,
    pub setup_s: f64,
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
}

/// Median of `reps` timed calls of `f`, keeping the last call's value.
pub fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = std::time::Instant::now();
        let value = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    println!("{host}");
    println!(
        "workload {} | seed {} | {} s | trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let ticks_before = host::cpu_ticks();
    let outcome = match args.workload.as_str() {
        "serve_hot" => serve::run(&args, &host, serve::Mix::Hot),
        "serve_churn" => serve::run(&args, &host, serve::Mix::Churn),
        "sim_sweep" => simsweep::run(&args),
        _ => unreachable!("workload validated in parse_args"),
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, host::cpu_ticks()) {
        println!(
            "host cpu steal during the run: {:.2}%",
            100.0 * stats::ratio((s1 - s0) as f64, (t1 - t0) as f64)
        );
    }
    let phase = &outcome.phase;
    let failed = phase.failed();
    println!(
        "fail_share {} ({failed} of {} operations)",
        stats::ratio(failed as f64, phase.attempted as f64),
        phase.attempted
    );
    for (reason, n) in &phase.failures {
        println!("  failed x{n}: {reason}");
    }
    let metrics = if args.trace {
        layers::complete(outcome.layers)
    } else {
        let mut m = phase.end_to_end();
        m.push(Metric::new("setup_s", outcome.setup_s, "s"));
        m
    };
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = phase.wrong == 0 && failed == 0 && phase.attempted > 0;
    println!(
        "{}",
        result_line(correct, phase.attempted.max(1), failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric this program prints is declared in `BENCHMARK.json`
    /// with the same unit, and the other way round.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let declared: Vec<(&str, &str)> = END_TO_END
            .iter()
            .copied()
            .chain(layers::PER_LAYER.iter().copied())
            .collect();
        for (name, unit) in &declared {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            declared.len(),
            "BENCHMARK.json declares metrics this program does not print"
        );
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric::new("a", 1.5, "ms"), Metric::new("b", f64::NAN, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn phase_end_to_end_uses_its_denominators() {
        let mut phase = Phase {
            span_s: 2.0,
            ..Phase::default()
        };
        for lat_s in [0.004, 0.001, 0.003, 0.002] {
            phase.ok(lat_s, 0.75e9, 0.375);
        }
        let m = phase.end_to_end();
        assert_eq!(m[0].value, 2.0);
        assert_eq!(m[1].value, 2.0);
        assert_eq!(m[2].value, 4.0);
        assert_eq!(m[3].value, 2.0);
    }
}
