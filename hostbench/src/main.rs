//! Host-clock benchmark of the ScaleDeep reproduction.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <dse-grid|func-train|serve-mix|disk-restart> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the workload
//! untraced for `--seconds`, in slices that each start on a fresh set-up,
//! and reports the end-to-end metrics as medians over the slices; `--trace 1` reports the per-layer metrics of a traced run
//! instead. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Every timing is host
//! time; simulated statistics are only checked, never timed. See
//! `hostbench/README.md` for why each workload exists and which per-layer
//! metric should move which end-to-end metric.

mod disk_restart;
mod dse_grid;
mod func_train;
mod host;
mod probe;
mod rec;
mod serve_mix;

use std::collections::BTreeMap;
use std::time::Instant;

use rec::{median, percentile, quantile, spread, Rec};
use scaledeep_trace::json::Json;

/// Where results, span files and the artifact stores go, relative to the
/// repository root the benchmark runs from.
pub const OUT_DIR: &str = ".hostbench_out";

/// Set-ups per untraced run, spread in bursts over its slices; `setup_s`
/// is their median.
const SETUP_REPS: usize = 24;

/// The tally of one measured pass: operations attempted and failed, each
/// operation's latency, and the work the timed region completed.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure messages (bounded).
    pub errors: Vec<String>,
    /// Host latency of each operation, in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Work units each operation completed (points, instructions, jobs,
    /// networks), in the order of `lat_ms`.
    pub work: Vec<f64>,
    /// Host seconds the timed region covered.
    pub busy_s: f64,
    /// Figures recorded with the results besides the metrics (the serve
    /// generator's lateness).
    pub notes: BTreeMap<&'static str, f64>,
}

impl Ops {
    /// Counts one attempted operation or check; `Err` counts it failed.
    pub fn tally(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 16 {
                self.errors.push(e);
            }
        }
    }

    /// Records one timed operation.
    pub fn timed(&mut self, ms: f64, work: f64) {
        self.lat_ms.push(ms);
        self.work.push(work);
    }

    /// The slices of an untraced run as one tally: their counts, errors
    /// and operations together, and each note's median over the slices
    /// (its maximum for a note named as one).
    fn combine(slices: Vec<Ops>) -> Ops {
        let mut all = Ops::default();
        let mut notes: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for mut slice in slices {
            for (k, v) in std::mem::take(&mut slice.notes) {
                notes.entry(k).or_default().push(v);
            }
            all.lat_ms.append(&mut slice.lat_ms);
            all.work.append(&mut slice.work);
            all.busy_s += slice.busy_s;
            all.merge(slice);
        }
        for (k, v) in notes {
            let combined = if k.contains("_max") {
                v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            } else {
                median(&v).unwrap_or(0.0)
            };
            all.notes.insert(k, combined);
        }
        all
    }

    fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(16);
        for (k, v) in other.notes {
            self.notes.entry(k).or_insert(v);
        }
    }

    pub fn work_per_s(&self) -> f64 {
        self.work.iter().sum::<f64>() / self.busy_s
    }
}

/// One benchmark workload. `setup` builds its inputs from the seed and
/// warms it up, `run` measures it for `seconds` and checks its outputs,
/// and `probe` (traced runs only) calls each layer's public functions on
/// the workload's own inputs.
pub trait Workload {
    const NAME: &'static str;
    /// Seconds a short pass runs when this workload only fills in the
    /// layers another workload's traced run does not reach.
    const SHORT_S: f64;
    /// Slices an untraced run is measured in. Each starts on a fresh
    /// set-up, and the run metrics are medians over the slices, so a
    /// stretch of seconds in which other processes slow the host moves
    /// them only if it covers half the run. A slice should hold enough
    /// operations for its own p90.
    const SLICES: usize = 10;
    type State;
    fn setup(seed: u64, rec: &Rec) -> Result<Self::State, String>;
    fn run(st: &mut Self::State, seconds: f64, rec: &Rec) -> Ops;
    fn probe(st: &mut Self::State, rec: &Rec, ops: &mut Ops);
    /// The host cost the tracing overhead is expressed on (lower is
    /// better): seconds per work unit unless overridden.
    fn headline(ops: &Ops) -> f64 {
        1.0 / ops.work_per_s()
    }
    /// The latencies `p50_ms` and `p90_ms` are taken over: every
    /// operation's unless overridden.
    fn latencies(ops: &Ops) -> Vec<f64> {
        ops.lat_ms.clone()
    }
}

pub const WORKLOADS: [&str; 4] = [
    dse_grid::DseGrid::NAME,
    func_train::FuncTrain::NAME,
    serve_mix::ServeMix::NAME,
    disk_restart::DiskRestart::NAME,
];

/// Per-layer metrics read as the median duration of one span name.
const SPAN_METRICS: [(&str, &str); 23] = [
    ("dnn.build_us", "dnn.build"),
    ("compiler.analyze_us", "compiler.analyze"),
    ("compiler.allocate_columns_us", "compiler.allocate_columns"),
    ("compiler.partition_state_us", "compiler.partition_state"),
    ("compiler.assign_compute_us", "compiler.assign_compute"),
    ("compiler.compile_us", "compiler.compile"),
    ("compiler.provenance_us", "compiler.provenance"),
    ("artifact.save_us", "artifact.save"),
    ("artifact.load_us", "artifact.load"),
    ("json.parse_us", "json.parse"),
    ("perf.run_us", "perf.run"),
    ("perf.traced_us", "perf.traced"),
    ("attribution.build_us", "attribution.build"),
    ("dse.to_json_us", "dse.to_json"),
    ("dse.from_json_us", "dse.from_json"),
    ("par.node_seq_us", "par.node_seq"),
    ("par.node_sharded_us", "par.node_sharded"),
    ("func.iter_us.interpreter", "func.iter.interpreter"),
    ("func.iter_us.compiled", "func.iter.compiled"),
    ("func.setup_us", "func.setup"),
    ("tensor.executor_new_us", "tensor.executor_new"),
    ("tensor.iter_us", "tensor.iter"),
    ("serve.protocol_roundtrip_us", "serve.protocol"),
];

/// Per-layer metrics a workload records as values (counts and derived
/// figures).
const VALUE_METRICS: [&str; 26] = [
    "artifact.bytes",
    "json.parse_ns_per_byte",
    "session.cache.hits",
    "session.cache.misses",
    "session.cache.disk_hits",
    "session.cache.corrupt",
    "session.compile_ns",
    "perf.trace_events",
    "dse.point_us",
    "dse.unique_compiles",
    "dse.infeasible",
    "func.insts",
    "func.cycles",
    "func.stalls",
    "serve.queue_wait_p99_us",
    "serve.run_p50_us",
    "serve.run_p99_us",
    "serve.compile_p50_us",
    "serve.singleflight.leads",
    "serve.singleflight.waits",
    "serve.queue_depth_p99",
    "serve.p99_ms",
    "serve.sim_p99_ms",
    "serve.gen_late_max_ms",
    "trace.overhead_pct",
    "trace.spans",
];

/// Layers whose self time the traced run reports, as `<layer>.self_pct`.
const LAYERS: [&str; 13] = [
    "bench",
    "dnn",
    "compiler",
    "artifact",
    "json",
    "session",
    "perf",
    "attribution",
    "dse",
    "par",
    "func",
    "tensor",
    "serve",
];

fn unit_of(name: &str) -> &'static str {
    if name.ends_with(".self_pct") || name == "trace.overhead_pct" {
        "%"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_ns") {
        "ns"
    } else if name.ends_with("_ns_per_byte") {
        "ns/B"
    } else if name.ends_with("_us") || name.contains("_us.") {
        "us"
    } else if name == "artifact.bytes" {
        "B"
    } else {
        "count"
    }
}

/// A per-layer metric as one pass recorded it, if it did.
fn layer_metric(rec: &Rec, name: &str) -> Option<f64> {
    if let Some(layer) = name.strip_suffix(".self_pct") {
        return rec.self_pct().get(layer).copied();
    }
    if let Some(v) = rec.values().get(name) {
        return Some(*v);
    }
    let (_, span) = SPAN_METRICS.iter().find(|(m, _)| *m == name)?;
    rec.median_us(span)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|p| args.get(p + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name} <value>"))
    };
    let workload = flag("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = flag("--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer")?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A reported metric: its value plus the sample it summarizes.
struct Metric {
    value: f64,
    unit: &'static str,
    samples: Vec<f64>,
    source: String,
}

fn metric(value: f64, unit: &'static str, samples: Vec<f64>) -> Metric {
    Metric {
        value,
        unit,
        samples,
        source: String::new(),
    }
}

/// Everything one invocation reports.
struct Outcome {
    ops: Ops,
    metrics: BTreeMap<String, Metric>,
    /// Span documents of a traced run, one per pass.
    passes: Vec<(String, Rec)>,
}

/// The untraced run: `W::SLICES` measured slices sharing `seconds`, each
/// on the last of a burst of fresh set-ups. The set-ups are spread over
/// the run for the same reason the slices are: a median over a single
/// burst of a few tens of milliseconds follows whatever else the host ran
/// in that instant (one host read 12 ms in one second and 20 ms in the
/// next, while ten-second medians stayed within 5%).
fn untraced<W: Workload>(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let off = Rec::new(false);
    let burst = SETUP_REPS.div_ceil(W::SLICES);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut slices = Vec::with_capacity(W::SLICES);
    let mut measured = 0.0;
    while slices.is_empty() || (measured < seconds && slices.len() < W::SLICES) {
        let mut state = None;
        for _ in 0..burst {
            drop(state.take());
            let t = Instant::now();
            state = Some(W::setup(seed, &off)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        let mut st = state.expect("a set-up ran");
        host::release_free_memory();
        // What is left of the run, shared by the slices still to come; an
        // operation longer than its share makes the run end early instead
        // of long.
        let share = (seconds - measured) / (W::SLICES - slices.len()) as f64;
        let t = Instant::now();
        slices.push(W::run(&mut st, share, &off));
        measured += t.elapsed().as_secs_f64();
    }
    let rss = host::peak_rss_mb();
    let rates: Vec<f64> = slices.iter().map(Ops::work_per_s).collect();
    let lats: Vec<Vec<f64>> = slices.iter().map(W::latencies).collect();
    let p50s: Vec<f64> = lats.iter().filter_map(|l| median(l)).collect();
    let p90s: Vec<f64> = lats.iter().filter_map(|l| percentile(l, 90.0)).collect();
    let mut ops = Ops::combine(slices);
    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, m: Metric| {
        metrics.insert(name.to_string(), m);
    };
    put(
        "setup_s",
        metric(median(&setups).unwrap_or(0.0), "s", setups.clone()),
    );
    put("peak_rss_mb", metric(rss, "MB", vec![rss]));
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    put("work_per_s", metric(med(&rates), "1/s", rates.clone()));
    put("p50_ms", metric(med(&p50s), "ms", p50s.clone()));
    put("p90_ms", metric(med(&p90s), "ms", p90s.clone()));
    // Recorded, not gated: on func-train and dse-grid the p99 measures
    // interference from other processes on the host more than the program.
    let p99 = percentile(&ops.lat_ms, 99.0).unwrap_or(0.0);
    ops.notes.insert("p99_ms", p99);
    Ok(Outcome {
        ops,
        metrics,
        passes: Vec::new(),
    })
}

/// One traced pass of a workload: set-up, a measured loop and the layer
/// probe, all recorded into `rec`.
fn traced_pass<W: Workload>(seed: u64, seconds: f64, rec: &Rec) -> Result<Ops, String> {
    let mut st = W::setup(seed, rec)?;
    let mut ops = W::run(&mut st, seconds, rec);
    W::probe(&mut st, rec, &mut ops);
    Ok(ops)
}

/// Dispatches a generic step over the workload named `name`.
macro_rules! with_workload {
    ($name:expr, $w:ident => $body:expr) => {
        match $name {
            "dse-grid" => {
                type $w = dse_grid::DseGrid;
                $body
            }
            "func-train" => {
                type $w = func_train::FuncTrain;
                $body
            }
            "serve-mix" => {
                type $w = serve_mix::ServeMix;
                $body
            }
            "disk-restart" => {
                type $w = disk_restart::DiskRestart;
                $body
            }
            other => unreachable!("workload `{other}` was validated"),
        }
    };
}

/// The traced run: the named workload untraced and then traced for half
/// the time each (their difference is the tracing overhead), its layer
/// probe, and a short traced pass of every other workload so that each
/// per-layer metric is measured. A metric comes from the named workload's
/// own pass whenever that pass records it.
fn traced<W: Workload>(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let primary = Rec::new(true);
    let mut st = W::setup(seed, &primary)?;
    let plain = W::run(&mut st, seconds / 2.0, &Rec::new(false));
    let mut ops = W::run(&mut st, seconds / 2.0, &primary);
    W::probe(&mut st, &primary, &mut ops);
    drop(st);
    let overhead = 100.0 * (W::headline(&ops) / W::headline(&plain) - 1.0);
    primary.set("trace.overhead_pct", overhead);
    ops.merge(plain);
    let mut passes = vec![(W::NAME.to_string(), primary)];
    for other in WORKLOADS.into_iter().filter(|n| *n != W::NAME) {
        let rec = Rec::new(true);
        let pass = with_workload!(other, X => traced_pass::<X>(seed, X::SHORT_S, &rec))?;
        ops.merge(pass);
        passes.push((other.to_string(), rec));
    }
    for (_, rec) in &passes {
        rec.set("trace.spans", rec.spans().len() as f64);
    }
    let mut metrics = BTreeMap::new();
    let names = SPAN_METRICS
        .iter()
        .map(|(m, _)| (*m).to_string())
        .chain(VALUE_METRICS.iter().map(|m| (*m).to_string()))
        .chain(LAYERS.iter().map(|l| format!("{l}.self_pct")));
    for name in names {
        let found = passes
            .iter()
            .find_map(|(pass, rec)| layer_metric(rec, &name).map(|v| (pass.clone(), v)));
        match found {
            Some((pass, value)) => {
                let mut m = metric(value, unit_of(&name), vec![value]);
                m.source = pass;
                metrics.insert(name, m);
            }
            None => ops.tally(Err(format!("per-layer metric `{name}` was not recorded"))),
        }
    }
    Ok(Outcome {
        ops,
        metrics,
        passes,
    })
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn write_outputs(args: &Args, host: Json, out: &Outcome) -> Result<String, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let metrics = out
        .metrics
        .iter()
        .map(|(name, m)| {
            let q = |p| quantile(&m.samples, p).map_or(Json::Null, num);
            let mut fields = vec![
                ("value".to_string(), num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.into())),
                ("samples".to_string(), num(m.samples.len() as f64)),
                ("p25".to_string(), q(0.25)),
                ("median".to_string(), q(0.5)),
                ("p75".to_string(), q(0.75)),
                (
                    "spread".to_string(),
                    spread(&m.samples).map_or(Json::Null, num),
                ),
            ];
            if !m.source.is_empty() {
                fields.push(("pass".to_string(), Json::Str(m.source.clone())));
            }
            (name.clone(), Json::Obj(fields))
        })
        .collect();
    let doc = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), num(args.seed as f64)),
        ("seconds".into(), num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("host".into(), host),
        ("attempted".into(), num(out.ops.attempted as f64)),
        ("failed".into(), num(out.ops.failed as f64)),
        (
            "fail_ratio".into(),
            num(out.ops.failed as f64 / out.ops.attempted.max(1) as f64),
        ),
        ("operations".into(), num(out.ops.lat_ms.len() as f64)),
        (
            "errors".into(),
            Json::Arr(
                out.ops
                    .errors
                    .iter()
                    .map(|e| Json::Str(e.clone()))
                    .collect(),
            ),
        ),
        (
            "notes".into(),
            Json::Obj(
                out.ops
                    .notes
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), num(*v)))
                    .collect(),
            ),
        ),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    let result = format!("{stem}.json");
    std::fs::write(&result, doc.render_pretty()).map_err(|e| format!("writing {result}: {e}"))?;
    if !out.passes.is_empty() {
        let mut events = Vec::new();
        for (pid, (pass, rec)) in out.passes.iter().enumerate() {
            rec.chrome_events(pass, pid, &mut events);
        }
        let spans = format!("{stem}-spans.json");
        let doc = Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]);
        std::fs::write(&spans, doc.render()).map_err(|e| format!("writing {spans}: {e}"))?;
    }
    Ok(result)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = with_workload!(args.workload.as_str(), W => {
        if args.trace {
            traced::<W>(args.seed, args.seconds)
        } else {
            untraced::<W>(args.seed, args.seconds)
        }
    });
    let out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hostbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let host = host::stamp();
    println!("hostbench: host {}", host.render());
    match write_outputs(&args, host, &out) {
        Ok(path) => println!(
            "hostbench: {} seed {}: details in {path}",
            args.workload, args.seed
        ),
        Err(e) => eprintln!("hostbench: {e}"),
    }
    for e in &out.ops.errors {
        eprintln!("hostbench: check failed: {e}");
    }
    let correct = out.ops.failed == 0 && out.ops.attempted > 0;
    let metrics = out
        .metrics
        .iter()
        .map(|(name, m)| {
            let v = Json::Obj(vec![
                ("value".into(), num(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (name.clone(), v)
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), num(out.ops.attempted as f64)),
        ("failed".into(), num(out.ops.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    if !correct {
        std::process::exit(1);
    }
}
