//! `serve_hot` and `serve_churn`: closed-loop HTTP/1.1 keep-alive clients
//! against an in-process `msccl_service::start` daemon on loopback.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use msccl_runtime::RunOptions;
use msccl_service::{output_checksum, start, CacheStats, ServiceConfig, ServiceHandle, TenantSpec};
use mscclang::{compile, CompileOptions, IrProgram};

use crate::gen::{Key, ServeOp, ServeStream};
use crate::host::Host;
use crate::layers::{self, RuntimeSample};
use crate::stats;
use crate::{median_setup, Args, Metric, Outcome, Phase};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 15 inference-size keys, all cached after warm-up.
    Hot,
    /// A Zipf-popular population several times the cache, no warm-up.
    Churn,
}

const TENANT: &str = "bench";
/// Every this-many operations (at a seeded offset) one is re-executed
/// in-process and its checksum compared with the daemon's.
const SAMPLE_EVERY: u64 = 61;
const MAX_SAMPLES: usize = 16;
const MAX_SAMPLES_TRACED: usize = 32;
/// Distinct missed programs replayed through the compiler passes.
const MAX_REPLAYS: usize = 12;

/// The daemon under test: one executor per CPU, quotas far above what
/// `nproc` closed-loop clients can offer, the default 64-entry cache.
fn daemon_config(host: &Host) -> ServiceConfig {
    ServiceConfig {
        http_workers: host.nproc + 2,
        exec_workers: host.nproc,
        queue_depth: 64,
        tenants: vec![TenantSpec {
            name: TENANT.into(),
            rate: 1e9,
            burst: 1e9,
            weight: 1,
        }],
        ..ServiceConfig::default()
    }
}

fn target(key: &Key, op: &ServeOp) -> String {
    let shape = match key.shape.ranks {
        Some(r) => format!("ranks={r}"),
        None => format!("nodes={}&gpus={}", key.shape.nodes, key.shape.gpus),
    };
    format!(
        "/collective?algorithm={}&{shape}&elems={}&protocol={}&seed={}&tenant={TENANT}",
        key.shape.algorithm, op.elems, key.protocol, op.seed
    )
}

/// A keep-alive HTTP/1.1 connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Sends `GET target` and returns the status code and body.
    fn get(&mut self, target: &str) -> std::io::Result<(u16, String)> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        write!(
            self.writer,
            "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n\r\n"
        )?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let code: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the head"));
            }
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok((code, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// The raw text of `"key": value` in a flat JSON object (quotes stripped).
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let rest = &body[body.find(&pat)? + pat.len()..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// What a verified 200 says about its request.
#[derive(Debug, Clone, Copy)]
struct OkReply {
    hit: bool,
    checksum: u64,
    attempts: f64,
    queue_us: f64,
    exec_us: f64,
}

fn parse_ok(body: &str) -> Option<OkReply> {
    if field(body, "status")? != "ok" {
        return None;
    }
    Some(OkReply {
        hit: field(body, "cache")? == "hit",
        checksum: u64::from_str_radix(field(body, "checksum")?, 16).ok()?,
        attempts: field(body, "attempts")?.parse().ok()?,
        queue_us: field(body, "queue_us")?.parse().ok()?,
        exec_us: field(body, "exec_us")?.parse().ok()?,
    })
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
struct Rec {
    index: u64,
    op: ServeOp,
    /// When the request was sent, seconds after the phase started.
    sent_s: f64,
    lat_us: f64,
    reply: OkReply,
}

/// Requests sent and answered by one closed-loop phase.
struct Driven {
    ok: Vec<Rec>,
    phase: Phase,
    cache_before: CacheStats,
    cache_after: CacheStats,
}

fn is_sample(seed: u64, index: u64) -> bool {
    index % SAMPLE_EVERY == seed % SAMPLE_EVERY
}

/// When a closed-loop phase ends.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After this long.
    After(Duration),
    /// After the stream's first this-many operations.
    Ops(u64),
}

/// Runs `clients` closed-loop clients over `stream` until `stop` and keeps
/// every answered request.
fn drive(
    handle: &ServiceHandle,
    stream: &ServeStream,
    in_chunks: &[usize],
    clients: usize,
    stop: Stop,
) -> Driven {
    let next = AtomicU64::new(0);
    let shared = Mutex::new((Vec::new(), Phase::default()));
    let cache_before = handle.core().stats().cache;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut ok = Vec::new();
                let mut phase = Phase::default();
                let mut client = Client::connect(handle.addr());
                loop {
                    if matches!(stop, Stop::After(dur) if t0.elapsed() >= dur) {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if matches!(stop, Stop::Ops(n) if index >= n) {
                        break;
                    }
                    let op = stream.op(index);
                    let key = &stream.keys()[op.key];
                    phase.attempted += 1;
                    let c = match client.as_mut() {
                        Ok(c) => c,
                        Err(e) => {
                            phase.fail(format!("connect: {e}"));
                            client = Client::connect(handle.addr());
                            continue;
                        }
                    };
                    let sent = Instant::now();
                    let answer = c.get(&target(key, &op));
                    let lat_us = sent.elapsed().as_secs_f64() * 1e6;
                    match answer {
                        Ok((200, body)) => match parse_ok(&body) {
                            Some(reply) => {
                                let bytes = (in_chunks[op.key] * op.elems * 4) as f64;
                                phase.ok(lat_us / 1e6, bytes, lat_us / 1e6);
                                ok.push(Rec {
                                    index,
                                    op,
                                    sent_s: (sent - t0).as_secs_f64(),
                                    lat_us,
                                    reply,
                                });
                            }
                            None => phase.fail(format!("200 without a verified reply: {body}")),
                        },
                        Ok((code, body)) => {
                            let why = field(&body, "reason")
                                .or_else(|| field(&body, "error"))
                                .unwrap_or("");
                            phase.fail(format!("http {code} {why}"));
                        }
                        Err(e) => {
                            phase.fail(format!("io: {e}"));
                            client = Client::connect(handle.addr());
                        }
                    }
                }
                let mut s = shared.lock().expect("client results lock");
                s.0.extend(ok);
                s.1.absorb(phase);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let cache_after = handle.core().stats().cache;
    let (mut ok, mut phase) = shared.into_inner().expect("client results lock");
    ok.sort_by_key(|r| r.index);
    phase.span_s = wall;
    Driven {
        ok,
        phase,
        cache_before,
        cache_after,
    }
}

/// The readiness probe of `serve_churn`: a collective outside the churn
/// population, so the daemon has compiled and executed once.
const PROBE: &str =
    "/collective?algorithm=ring-allreduce&ranks=4&elems=64&protocol=simple&seed=1&tenant=bench";

/// A running daemon that drains and stops when dropped, so a set-up
/// repetition that is not kept leaves no threads behind.
struct Daemon(Option<ServiceHandle>);

impl Daemon {
    fn handle(&self) -> &ServiceHandle {
        self.0.as_ref().expect("daemon runs until dropped")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.shutdown();
        }
    }
}

/// Starts a daemon and makes it ready: for `Hot`, one request per key so
/// every key is cached; for `Churn`, a health check and one probe
/// collective outside the population.
fn ready_daemon(host: &Host, stream: &ServeStream, mix: Mix, phase: &mut Phase) -> Daemon {
    let handle = start(daemon_config(host)).expect("daemon binds to loopback");
    let mut client = Client::connect(handle.addr()).expect("connect to the daemon");
    match mix {
        Mix::Hot => {
            for (k, key) in stream.keys().iter().enumerate() {
                let op = ServeOp {
                    key: k,
                    elems: 1 << key.size_class,
                    seed: 1,
                };
                match client.get(&target(key, &op)) {
                    Ok((200, body)) if parse_ok(&body).is_some() => {}
                    Ok((code, body)) => phase.fail(format!("warm-up http {code}: {body}")),
                    Err(e) => phase.fail(format!("warm-up io: {e}")),
                }
            }
        }
        Mix::Churn => {
            for target in ["/healthz", PROBE] {
                match client.get(target) {
                    Ok((200, _)) => {}
                    Ok((code, body)) => phase.fail(format!("{target} http {code}: {body}")),
                    Err(e) => phase.fail(format!("{target} io: {e}")),
                }
            }
        }
    }
    Daemon(Some(handle))
}

fn in_chunks_per_key(stream: &ServeStream) -> Vec<usize> {
    stream
        .keys()
        .iter()
        .map(|k| {
            msccl_algos::build_by_name(k.shape.algorithm, &k.shape.spec())
                .map_or(0, |p| p.collective().in_chunks())
        })
        .collect()
}

/// Re-executes the sampled requests in-process and compares checksums
/// bit for bit. A traced run goes through `execute_with_metrics` and also
/// returns the runtime counters and the daemon's summed `exec_us` over the
/// sample.
fn check_sample(
    stream: &ServeStream,
    ok: &[Rec],
    seed: u64,
    traced: bool,
    phase: &mut Phase,
) -> (RuntimeSample, f64) {
    let cap = if traced {
        MAX_SAMPLES_TRACED
    } else {
        MAX_SAMPLES
    };
    let mut irs: HashMap<usize, IrProgram> = HashMap::new();
    let mut sample = RuntimeSample::default();
    let mut daemon_exec_us = Vec::new();
    for rec in ok.iter().filter(|r| is_sample(seed, r.index)).take(cap) {
        let key = &stream.keys()[rec.op.key];
        let ir = match irs.get(&rec.op.key) {
            Some(ir) => ir,
            None => {
                let built = msccl_algos::build_by_name(key.shape.algorithm, &key.shape.spec())
                    .map_err(|e| e.to_string())
                    .and_then(|p| {
                        compile(&p, &CompileOptions::default()).map_err(|e| e.to_string())
                    });
                match built {
                    Ok(ir) => irs.entry(rec.op.key).or_insert(ir),
                    Err(e) => {
                        phase.wrong(format!("sample compile {}: {e}", key.shape.algorithm));
                        continue;
                    }
                }
            }
        };
        let opts = RunOptions {
            protocol: key.protocol,
            ..RunOptions::default()
        };
        let outputs = if traced {
            sample.probe(ir, rec.op.elems, rec.op.seed, &opts)
        } else {
            let inputs = msccl_runtime::reference::random_inputs(ir, rec.op.elems, rec.op.seed);
            msccl_runtime::execute(ir, &inputs, rec.op.elems, &opts).map_err(|e| e.to_string())
        };
        match outputs {
            Ok(out) if output_checksum(&out) == rec.reply.checksum => {
                daemon_exec_us.push(rec.reply.exec_us);
            }
            Ok(_) => phase.wrong(format!(
                "checksum differs from in-process run: {}",
                target(key, &rec.op)
            )),
            Err(e) => phase.wrong(format!("in-process run failed: {e}")),
        }
    }
    (sample, daemon_exec_us.iter().sum())
}

pub fn run(args: &Args, host: &Host, mix: Mix) -> Outcome {
    let stream = match mix {
        Mix::Hot => ServeStream::hot(args.seed),
        Mix::Churn => ServeStream::churn(args.seed),
    };
    let in_chunks = in_chunks_per_key(&stream);
    let clients = host.nproc;
    let mut setup_phase = Phase::default();
    let mut notes = vec![format!(
        "{} keys, {clients} closed-loop keep-alive clients, daemon cache capacity {}",
        stream.keys().len(),
        daemon_config(host).cache_capacity
    )];

    if !args.trace {
        let reps = match mix {
            Mix::Hot => 5,
            Mix::Churn => 15,
        };
        let (setup_s, daemon) =
            median_setup(reps, || ready_daemon(host, &stream, mix, &mut setup_phase));
        let dur = Duration::from_secs_f64(args.seconds);
        let mut phase = match mix {
            Mix::Hot => {
                let mut d = drive(
                    daemon.handle(),
                    &stream,
                    &in_chunks,
                    clients,
                    Stop::After(dur),
                );
                drop(daemon);
                check_sample(&stream, &d.ok, args.seed, false, &mut d.phase);
                notes.push(cache_note(&d));
                fastest_block(d, &stream, &in_chunks, &mut notes)
            }
            Mix::Churn => {
                let rounds = Rounds {
                    host,
                    stream: &stream,
                    in_chunks: &in_chunks,
                    clients,
                    seed: args.seed,
                };
                rounds.replay(daemon, dur, &mut setup_phase, &mut notes)
            }
        };
        phase.absorb(setup_phase);
        return Outcome {
            phase,
            setup_s,
            layers: Vec::new(),
            notes,
        };
    }

    // Traced run: the untraced half and the traced half each get a fresh,
    // equally prepared daemon, so the cache starts in the same state.
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let daemon = ready_daemon(host, &stream, mix, &mut setup_phase);
    let mut untraced = drive(
        daemon.handle(),
        &stream,
        &in_chunks,
        clients,
        Stop::After(half),
    );
    drop(daemon);
    check_sample(&stream, &untraced.ok, args.seed, false, &mut untraced.phase);

    let daemon = ready_daemon(host, &stream, mix, &mut setup_phase);
    let warm_cache = daemon.handle().core().stats().cache;
    let mut traced = drive(
        daemon.handle(),
        &stream,
        &in_chunks,
        clients,
        Stop::After(half),
    );
    drop(daemon);
    let (sample, sample_daemon_exec_us) =
        check_sample(&stream, &traced.ok, args.seed, true, &mut traced.phase);
    notes.push(cache_note(&traced));

    let mut layers = service_layer(&traced, untraced.phase.mean_ms() * 1e3);
    let d = &traced;
    let misses = d.cache_after.misses - d.cache_before.misses;

    // Runtime: the daemon's execute time of the sampled requests over the
    // instructions their in-process probes counted.
    let runs = sample.runs as f64;
    let probe_exec_us = stats::ratio(sample.exec_s * 1e6, runs);
    layers.extend(sample.metrics());
    layers.push(Metric::new(
        "runtime.exec_us",
        stats::ratio(sample_daemon_exec_us, runs),
        "us",
    ));
    layers.push(Metric::new(
        "runtime.ns_per_instr",
        stats::ratio(sample_daemon_exec_us * 1e3, sample.instructions as f64),
        "ns",
    ));
    notes.push(format!(
        "sampled {} requests: daemon exec_us mean {:.1}, in-process probe {probe_exec_us:.1}",
        sample.runs,
        stats::ratio(sample_daemon_exec_us, runs)
    ));

    // Compiler: replay the programs this run compiled (warm-up and traced
    // phase), weighted by their miss count.
    let mut missed: HashMap<usize, u64> = HashMap::new();
    if mix == Mix::Hot {
        for k in 0..stream.keys().len() {
            *missed.entry(k).or_default() += 1;
        }
    }
    for r in d.ok.iter().filter(|r| !r.reply.hit) {
        *missed.entry(r.op.key).or_default() += 1;
    }
    let mut missed: Vec<(usize, u64)> = missed.into_iter().collect();
    missed.sort_by_key(|&(k, n)| (std::cmp::Reverse(n), k));
    let programs: Vec<_> = missed
        .iter()
        .take(MAX_REPLAYS)
        .map(|&(k, n)| (stream.keys()[k].shape, n))
        .collect();
    match layers::compiler(&programs) {
        Ok(m) => layers.extend(m),
        Err(e) => traced.phase.wrong(format!("compiler replay: {e}")),
    }
    notes.push(format!(
        "traced phase: {misses} misses, {} programs resident after warm-up, {} replayed",
        warm_cache.entries,
        programs.len()
    ));
    layers.extend(layers::calibration(host.llc_bytes));

    let mut phase = untraced.phase;
    phase.absorb(traced.phase);
    phase.absorb(setup_phase);
    Outcome {
        phase,
        setup_s: 0.0,
        layers,
        notes,
    }
}

/// `serve_hot` end to end. Host contention on a shared machine only ever
/// slows the program and comes in spells of seconds, and every block of
/// the stream holds the same mix of keys; so the phase reports the
/// complete block with the shortest span. Attempts and failures of the
/// whole phase are kept.
/// Without a complete block the whole phase is reported.
fn fastest_block(
    d: Driven,
    stream: &ServeStream,
    in_chunks: &[usize],
    notes: &mut Vec<String>,
) -> Phase {
    let len = stream.block_len();
    // The span of a block runs from its first request sent to its last
    // answer.
    let span = |block: &[Rec]| {
        let start = block.iter().map(|r| r.sent_s).fold(f64::INFINITY, f64::min);
        let end = block
            .iter()
            .map(|r| r.sent_s + r.lat_us / 1e6)
            .fold(0.0, f64::max);
        end - start
    };
    let Some((block, blocks)) = stats::fastest_block(&d.ok, len, |r| r.index as usize, span) else {
        return d.phase;
    };
    let span = span(block);
    notes.push(format!(
        "fastest of {blocks} complete blocks: {len} requests in {span:.4} s"
    ));
    let mut phase = Phase {
        span_s: span,
        ..d.phase
    };
    phase.lat_ms.clear();
    phase.bytes = 0.0;
    phase.busy_s = 0.0;
    for r in block {
        let bytes = (in_chunks[r.op.key] * r.op.elems * 4) as f64;
        phase.ok(r.lat_us / 1e6, bytes, r.lat_us / 1e6);
    }
    phase
}

/// `serve_churn` end to end: identical rounds. A round sends the stream's
/// first block (the same keys in the same order, sizes and data seeds every
/// time) to a fresh daemon prepared as in set-up, so every round starts
/// from a cold cache and the same requests miss; rounds start until `dur`
/// has passed and always run whole. A run of one length of time instead
/// would end part way into a block, at a point set by how fast the host
/// ran, and mix cold-start and warm requests in a varying proportion.
struct Rounds<'a> {
    host: &'a Host,
    stream: &'a ServeStream,
    in_chunks: &'a [usize],
    clients: usize,
    seed: u64,
}

impl Rounds<'_> {
    /// Runs the rounds, the first on `first`. Every request of every round
    /// is verified and counts in the returned phase.
    fn replay(
        &self,
        first: Daemon,
        dur: Duration,
        setup_phase: &mut Phase,
        notes: &mut Vec<String>,
    ) -> Phase {
        let n = self.stream.block_len();
        let mut checksums: Vec<Option<u64>> = vec![None; n];
        let mut phase = Phase::default();
        let mut span_s = 0.0;
        let mut daemon = Some(first);
        let t0 = Instant::now();
        let mut round = 0;
        while t0.elapsed() < dur {
            let d = daemon
                .take()
                .unwrap_or_else(|| ready_daemon(self.host, self.stream, Mix::Churn, setup_phase));
            let mut r = drive(
                d.handle(),
                self.stream,
                self.in_chunks,
                self.clients,
                Stop::Ops(n as u64),
            );
            drop(d);
            if round == 0 {
                check_sample(self.stream, &r.ok, self.seed, false, &mut r.phase);
            }
            for rec in &r.ok {
                let i = rec.index as usize;
                if *checksums[i].get_or_insert(rec.reply.checksum) != rec.reply.checksum {
                    let key = &self.stream.keys()[rec.op.key];
                    r.phase.wrong(format!(
                        "checksum differs between rounds: {}",
                        target(key, &rec.op)
                    ));
                }
            }
            notes.push(format!(
                "round {round}: {:.3} s; {}",
                r.phase.span_s,
                cache_note(&r)
            ));
            span_s += r.phase.span_s;
            phase.absorb(r.phase);
            round += 1;
        }
        phase.span_s = span_s;
        phase
    }
}

fn cache_note(d: &Driven) -> String {
    let hits = d.cache_after.hits - d.cache_before.hits;
    let misses = d.cache_after.misses - d.cache_before.misses;
    format!(
        "measured: {} answered, cache hits {hits}, misses {misses} (hit rate {:.3}), evictions {}",
        d.phase.lat_ms.len(),
        stats::ratio(hits as f64, (hits + misses) as f64),
        d.cache_after.evictions - d.cache_before.evictions
    )
}

/// The `service.*` metrics of a traced phase and its stage split: queue
/// (service), exec (runtime) and compile per request (compiler).
fn service_layer(d: &Driven, untraced_mean_us: f64) -> Vec<Metric> {
    let pick = |hit: bool| {
        let mut v: Vec<f64> =
            d.ok.iter()
                .filter(|r| r.reply.hit == hit)
                .map(|r| r.lat_us)
                .collect();
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, 50.0)
    };
    let hits = d.cache_after.hits - d.cache_before.hits;
    let misses = d.cache_after.misses - d.cache_before.misses;
    let compile_ns = (d.cache_after.compile_ns - d.cache_before.compile_ns) as f64;
    let n = d.ok.len() as f64;
    let mean = |f: fn(&Rec) -> f64| stats::ratio(d.ok.iter().map(f).sum(), n);
    let lat = mean(|r| r.lat_us);
    let queue = mean(|r| r.reply.queue_us);
    let exec = mean(|r| r.reply.exec_us);
    let compile_us = stats::ratio(compile_ns / 1e3, n);
    let mut out = layers::split(
        lat,
        untraced_mean_us,
        &[
            ("service", queue),
            ("runtime", exec),
            ("compiler", compile_us),
        ],
    );
    out.extend([
        Metric::new("service.hit_latency_p50_us", pick(true), "us"),
        Metric::new("service.miss_latency_p50_us", pick(false), "us"),
        Metric::new("service.queue_us", queue, "us"),
        Metric::new("service.exec_us", exec, "us"),
        Metric::new(
            "service.compile_ms_per_miss",
            stats::ratio(compile_ns / 1e6, misses as f64),
            "ms",
        ),
        Metric::new(
            "service.cache_hit_rate",
            stats::ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        Metric::new(
            "service.cache_evictions",
            (d.cache_after.evictions - d.cache_before.evictions) as f64,
            "count",
        ),
        Metric::new(
            "service.attempts_per_req",
            mean(|r| r.reply.attempts),
            "count",
        ),
        Metric::new(
            "service.unattributed_us",
            lat - queue - exec - compile_us,
            "us",
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_fields_parse() {
        let body = "{\"status\": \"ok\", \"tenant\": \"bench\", \"cache\": \"miss\", \
                    \"checksum\": \"00000000000000ff\", \"attempts\": 1, \"used_fallback\": false, \
                    \"queue_us\": 12, \"exec_us\": 340}";
        let r = parse_ok(body).unwrap();
        assert!(!r.hit);
        assert_eq!(r.checksum, 255);
        assert_eq!(r.attempts, 1.0);
        assert_eq!(r.queue_us, 12.0);
        assert_eq!(r.exec_us, 340.0);
        assert!(parse_ok("{\"status\": \"shed\", \"reason\": \"queue_full\"}").is_none());
        assert_eq!(
            field("{\"reason\": \"queue_full\"}", "reason"),
            Some("queue_full")
        );
    }

    #[test]
    fn targets_carry_the_whole_key() {
        let stream = ServeStream::churn(1);
        for i in 0..50 {
            let op = stream.op(i);
            let key = &stream.keys()[op.key];
            let t = target(key, &op);
            assert!(t.contains(&format!("algorithm={}", key.shape.algorithm)));
            assert!(t.contains(&format!("elems={}", op.elems)));
            assert!(t.contains(&format!("protocol={}", key.protocol)));
        }
    }
}
