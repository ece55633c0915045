//! `serve-mix`: the warm-cache job-server workload.
//!
//! `Server::start` with the shipping `repro serve` defaults, driven
//! in-process by one generator thread on a seeded open-loop Poisson
//! schedule (300 jobs/s from 3 tenants: about 88% `Simulate` over the 11
//! zoo networks x {training, evaluation}, 10% `Compile`, 2% `Resilient` on
//! `alexnet-func`). One collector thread records each completion by
//! polling `JobHandle::try_result`. A job's latency runs from its
//! *intended* send time, so a stalled generator cannot hide queueing. TCP
//! is not used: a connection runs one job at a time, so it cannot offer an
//! open-loop load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use scaledeep::{CacheStats, Session};
use scaledeep_compiler::pipeline::Provenance;
use scaledeep_compiler::CompileOptions;
use scaledeep_dnn::zoo;
use scaledeep_serve::protocol::{self, Request};
use scaledeep_serve::{JobKind, JobReply, JobRequest, JobResult, Server, ServerConfig};
use scaledeep_sim::fault::FaultPlan;
use scaledeep_sim::perf::RunKind;

use crate::probe::{self, mix, unit};
use crate::rec::{percentile, Rec};
use crate::{Ops, Workload};

/// Offered load, jobs per second.
const RATE: f64 = 300.0;
const TENANTS: usize = 3;
const FUNC_NET: &str = "alexnet-func";
/// Distinct fault-plan seeds the `Resilient` jobs draw from.
const PLAN_SEEDS: usize = 4;
/// How long after a submission the collector keeps polling without
/// sleeping (yielding the CPU between passes): long enough to cover a
/// `Simulate` or `Compile` job, so their completions are seen within
/// microseconds.
const SPIN: Duration = Duration::from_millis(2);
/// Collector poll interval once every pending job is older than `SPIN`
/// (in practice `Resilient` jobs of about 14 ms, which the sleep's
/// timer slack misjudges by under 1%).
const POLL: Duration = Duration::from_micros(50);

pub struct ServeMix;

/// Schedules drawn so far in this process; each `run` draws a fresh one,
/// also on a fresh set-up.
static PASSES: AtomicU64 = AtomicU64::new(0);

pub struct State {
    server: Option<Server>,
    seed: u64,
    /// Every job the last `run` completed: its request and result.
    lines: Vec<(JobRequest, JobResult)>,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// One planned job: when it is due (seconds from the pass start) and what
/// it asks.
struct Planned {
    at: f64,
    request: JobRequest,
}

/// A Poisson arrival process at `RATE` conditioned on its count: exactly
/// `RATE * seconds` jobs at sorted uniform times. The mix is conditioned
/// the same way: exactly 2% `Resilient` and 10% `Compile` jobs, placed by
/// a seeded shuffle. So the offered load and its work are the same in
/// every run, and only the arrival pattern and job order follow the seed.
fn schedule(seed: u64, seconds: f64) -> Vec<Planned> {
    let n = (RATE * seconds).round().max(1.0) as u64;
    let mut times: Vec<f64> = (0..n).map(|k| unit(seed, k * 8) * seconds).collect();
    times.sort_by(f64::total_cmp);
    // 0 = Resilient, 1 = Compile, 2 = Simulate.
    let resilient = (0.02 * n as f64).round() as u64;
    let compile = (0.10 * n as f64).round() as u64;
    let mut class: Vec<u8> = (0..n)
        .map(|k| match k {
            k if k < resilient => 0,
            k if k < resilient + compile => 1,
            _ => 2,
        })
        .collect();
    for i in (1..class.len()).rev() {
        class.swap(i, (mix(seed, i as u64 * 8 + 2) % (i as u64 + 1)) as usize);
    }
    times
        .into_iter()
        .zip(0u64..)
        .map(|(at, k)| {
            let pick = |salt, n: usize| (mix(seed, k * 8 + salt) % n as u64) as usize;
            let net = zoo::BENCHMARK_NAMES[pick(1, zoo::BENCHMARK_NAMES.len())].to_string();
            let kind = if class[k as usize] == 0 {
                JobKind::Resilient {
                    network: FUNC_NET.into(),
                    plan_seed: mix(seed, pick(3, PLAN_SEEDS) as u64),
                    kill_tile: None,
                }
            } else if class[k as usize] == 1 {
                JobKind::Compile { network: net }
            } else {
                let kind = if pick(4, 2) == 0 {
                    RunKind::Training
                } else {
                    RunKind::Evaluation
                };
                JobKind::Simulate { network: net, kind }
            };
            let tenant = format!("tenant-{}", pick(5, TENANTS));
            Planned {
                at,
                request: JobRequest::new(tenant, kind),
            }
        })
        .collect()
}

/// What a job must reply, computed by direct session calls.
struct Reference {
    session: Session,
    memo: HashMap<String, JobReply>,
}

impl Reference {
    fn expect(&mut self, kind: &JobKind) -> Result<JobReply, String> {
        let key = format!("{kind:?}");
        if let Some(r) = self.memo.get(&key) {
            return Ok(r.clone());
        }
        let net = zoo::by_name(kind.network()).ok_or("unknown network")?;
        let err = |e: scaledeep::Error| e.to_string();
        let reply = match kind {
            JobKind::Compile { .. } => {
                let a = self.session.compile(&net).map_err(err)?;
                let key = Provenance::new(self.session.node(), &net, &CompileOptions::default())
                    .cache_key();
                JobReply::Compiled {
                    provenance: key,
                    conv_cols: a.mapping().conv_cols_used(),
                    degraded: a.is_degraded(),
                }
            }
            JobKind::Simulate { kind, .. } => {
                let r = match kind {
                    RunKind::Training => self.session.train(&net),
                    RunKind::Evaluation => self.session.evaluate(&net),
                }
                .map_err(err)?;
                JobReply::Simulated {
                    images_per_sec: r.images_per_sec,
                    stages: r.stages.len(),
                }
            }
            JobKind::Resilient { plan_seed, .. } => {
                let r = self
                    .session
                    .run_resilient(&net, &FaultPlan::seeded(*plan_seed))
                    .map_err(err)?;
                JobReply::Resilient {
                    cycles: r.stats.cycles,
                    retried: r.retried,
                    dead_tiles: r.dead_tiles.len(),
                }
            }
        };
        self.memo.insert(key, reply.clone());
        Ok(reply)
    }
}

/// Seconds the server's workers have spent compiling and running jobs
/// since it started (the sums of its `serve.lat.compile_ns` and
/// `serve.lat.run_ns` histograms).
fn busy_s(server: &Server) -> f64 {
    let m = server.metrics();
    let sum = |name| m.histogram_value(name).map_or(0.0, |h| h.sum);
    (sum("serve.lat.compile_ns") + sum("serve.lat.run_ns")) / 1e9
}

fn same(a: &JobReply, b: &JobReply) -> bool {
    match (a, b) {
        (
            JobReply::Simulated {
                images_per_sec: x,
                stages: s,
            },
            JobReply::Simulated {
                images_per_sec: y,
                stages: t,
            },
        ) => x.to_bits() == y.to_bits() && s == t,
        _ => a == b,
    }
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve-mix";
    const SHORT_S: f64 = 1.0;
    type State = State;

    fn setup(seed: u64, rec: &Rec) -> Result<State, String> {
        let server = rec.span("serve.start", 0, 0, |_| {
            Server::start(Session::single_precision(), ServerConfig::default())
        });
        // Warm-up: every network compiled, both run kinds simulated once,
        // one functional iteration.
        let mut warm = Vec::new();
        for net in zoo::BENCHMARK_NAMES.iter().copied().chain([FUNC_NET]) {
            warm.push(JobKind::Compile {
                network: net.into(),
            });
        }
        for net in zoo::BENCHMARK_NAMES {
            for kind in [RunKind::Training, RunKind::Evaluation] {
                warm.push(JobKind::Simulate {
                    network: net.into(),
                    kind,
                });
            }
        }
        warm.push(JobKind::Resilient {
            network: FUNC_NET.into(),
            plan_seed: seed,
            kill_tile: None,
        });
        let st = State {
            server: Some(server),
            seed,
            lines: Vec::new(),
        };
        let server = st.server.as_ref().expect("server is running");
        for (i, kind) in warm.into_iter().enumerate() {
            let handle = server.submit(JobRequest::new("warm-up", kind));
            handle
                .wait()
                .map_err(|e| format!("serve: warm-up job {i} failed: {e:?}"))?;
        }
        Ok(st)
    }

    fn run(st: &mut State, seconds: f64, rec: &Rec) -> Ops {
        let pass = PASSES.fetch_add(1, Ordering::Relaxed) + 1;
        let planned = schedule(mix(st.seed, pass), seconds);
        let plan = &planned;
        let server = st.server.as_ref().expect("server is running");
        let (tx, rx) = mpsc::channel();
        let start = Instant::now() + Duration::from_millis(5);
        let before = busy_s(server);
        let (late_ms, (done, gaps_us)) = std::thread::scope(|s| {
            let generator = s.spawn(move || {
                let mut late_ms = Vec::with_capacity(plan.len());
                for (k, job) in plan.iter().enumerate() {
                    let due = start + Duration::from_secs_f64(job.at);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let root = rec.alloc();
                    let handle = rec.span("serve.submit", root, k as u64, |_| {
                        server.submit(job.request.clone())
                    });
                    late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                    tx.send((k, root, due, handle))
                        .expect("the collector outlives the generator");
                }
                drop(tx);
                late_ms
            });
            let collector = s.spawn(move || {
                // Each pending job with the instant it was last polled.
                let mut pending = Vec::new();
                let mut done = Vec::with_capacity(plan.len());
                let mut gaps_us = Vec::with_capacity(plan.len());
                let mut newest = Instant::now();
                let mut open = true;
                while open || !pending.is_empty() {
                    // Nothing to poll: block until the next submission.
                    if pending.is_empty() {
                        match rx.recv() {
                            Ok(job) => pending.push((job, Instant::now())),
                            Err(_) => open = false,
                        }
                    }
                    loop {
                        match rx.try_recv() {
                            Ok(job) => pending.push((job, Instant::now())),
                            Err(mpsc::TryRecvError::Empty) => break,
                            Err(mpsc::TryRecvError::Disconnected) => {
                                open = false;
                                break;
                            }
                        }
                    }
                    // Jobs arrive in schedule order, so the last one pushed
                    // is the newest; `max` keeps it when none arrived.
                    if let Some(((_, _, due, _), _)) = pending.last() {
                        newest = newest.max(*due);
                    }
                    let mut progressed = false;
                    let mut i = 0;
                    while i < pending.len() {
                        let polled = Instant::now();
                        if let Some(result) = pending[i].0 .3.try_result() {
                            let now = Instant::now();
                            let ((k, root, due, _), last) = pending.swap_remove(i);
                            // The completion happened after the previous
                            // poll: this gap bounds how late it was seen.
                            gaps_us
                                .push(polled.saturating_duration_since(last).as_secs_f64() * 1e6);
                            rec.record(
                                rec.alloc(),
                                "serve.try_result",
                                root,
                                k as u64,
                                polled,
                                now,
                            );
                            rec.record(root, "serve.job", 0, k as u64, due, now);
                            done.push((
                                k,
                                now.saturating_duration_since(due).as_secs_f64() * 1e3,
                                result,
                            ));
                            progressed = true;
                        } else {
                            pending[i].1 = polled;
                            i += 1;
                        }
                    }
                    if !progressed && !pending.is_empty() {
                        if newest.elapsed() < SPIN {
                            std::thread::yield_now();
                        } else {
                            std::thread::sleep(POLL);
                        }
                    }
                }
                (done, gaps_us)
            });
            let late = generator.join().expect("generator thread panicked");
            (late, collector.join().expect("collector thread panicked"))
        });
        // The workers' own time on this pass's jobs: completed jobs over
        // it are the server's throughput, not the offered load.
        let mut ops = Ops {
            busy_s: busy_s(server) - before,
            ..Ops::default()
        };
        // Outside the timed region: every reply against a direct session
        // call on the same request.
        let mut reference = Reference {
            session: Session::single_precision(),
            memo: HashMap::new(),
        };
        let mut sim_ms = Vec::new();
        let mut done = done;
        done.sort_by_key(|(k, _, _)| *k);
        st.lines.clear();
        for (k, ms, result) in done {
            let request = &plan[k].request;
            let outcome = match (&result, reference.expect(&request.kind)) {
                (Ok(got), Ok(want)) if same(got, &want) => Ok(()),
                (Ok(got), Ok(want)) => Err(format!(
                    "serve: job {k} replied {got:?}, direct call gives {want:?}"
                )),
                (Err(e), _) => Err(format!("serve: job {k} failed: {e:?}")),
                (_, Err(e)) => Err(format!("serve: direct reference for job {k} failed: {e}")),
            };
            if outcome.is_ok() {
                ops.timed(ms, 1.0);
                if matches!(request.kind, JobKind::Simulate { .. }) {
                    sim_ms.push(ms);
                }
            }
            ops.tally(outcome);
            st.lines.push((request.clone(), result));
        }
        let missing = plan.len() as u64 - ops.attempted;
        for _ in 0..missing {
            ops.tally(Err("serve: a submitted job never completed".into()));
        }
        let notes = [
            ("sim_p99_ms", percentile(&sim_ms, 99.0).unwrap_or(0.0)),
            ("gen_late_p99_ms", percentile(&late_ms, 99.0).unwrap_or(0.0)),
            (
                "gen_late_max_ms",
                late_ms.iter().copied().fold(0.0, f64::max),
            ),
            ("poll_gap_p50_us", percentile(&gaps_us, 50.0).unwrap_or(0.0)),
            ("poll_gap_p99_us", percentile(&gaps_us, 99.0).unwrap_or(0.0)),
        ];
        for (name, v) in notes {
            ops.notes.insert(name, v);
        }
        rec.set("serve.sim_p99_ms", notes[0].1);
        rec.set("serve.gen_late_max_ms", notes[2].1);
        rec.set("serve.p99_ms", percentile(&ops.lat_ms, 99.0).unwrap_or(0.0));
        ops
    }

    fn probe(st: &mut State, rec: &Rec, ops: &mut Ops) {
        // The protocol layer on the workload's own lines: each request and
        // result encoded and parsed back.
        for (k, (request, result)) in st.lines.iter().enumerate() {
            let outcome = rec.span("serve.protocol", 0, k as u64, |_| {
                let req_ok = matches!(
                    protocol::parse_request(&protocol::request_to_json(request)),
                    Ok(Request::Job(ref back)) if back == request
                );
                let res_ok = matches!(
                    protocol::result_from_json(&protocol::result_to_json(result)),
                    Ok(ref back) if back == result
                );
                req_ok && res_ok
            });
            ops.tally(if outcome {
                Ok(())
            } else {
                Err(format!("serve: job {k} does not round-trip the protocol"))
            });
        }
        let server = st.server.as_ref().expect("server is running");
        let m = server.metrics();
        let hist = |name: &str, p: f64| m.histogram_value(name).map_or(0.0, |h| h.percentile(p));
        rec.set(
            "serve.queue_wait_p99_us",
            hist("serve.lat.queue_ns", 99.0) / 1e3,
        );
        rec.set("serve.run_p50_us", hist("serve.lat.run_ns", 50.0) / 1e3);
        rec.set("serve.run_p99_us", hist("serve.lat.run_ns", 99.0) / 1e3);
        rec.set(
            "serve.compile_p50_us",
            hist("serve.lat.compile_ns", 50.0) / 1e3,
        );
        rec.set(
            "serve.queue_depth_p99",
            hist("serve.queue.depth.hist", 99.0),
        );
        let (leads, waits) = server.singleflight_stats();
        rec.set("serve.singleflight.leads", leads as f64);
        rec.set("serve.singleflight.waits", waits as f64);
        // Concurrent identical compiles collapse onto one singleflight
        // leader, and only the leader looks the session cache up; which
        // job leads is a race. A shared result counts as a hit here, so
        // the ledger follows from the seed alone.
        let cache = server.session().cache_stats();
        probe::cache_stats(
            rec,
            CacheStats {
                hits: cache.hits + waits,
                ..cache
            },
        );
        let session = Session::single_precision();
        for (i, name) in zoo::BENCHMARK_NAMES
            .iter()
            .copied()
            .chain([FUNC_NET])
            .enumerate()
        {
            if let Some(net) = zoo::by_name(name) {
                probe::layers(rec, ops, session.node(), &net, 1000 + i as u64);
            }
        }
    }

    fn headline(ops: &Ops) -> f64 {
        crate::rec::median(&ops.lat_ms).unwrap_or(0.0)
    }
}
