//! `dse-grid`: the compile-miss and perf-engine workload.
//!
//! Seeded design-space sweeps over four graph shapes (single-chip
//! alexnet, inception-concat googlenet, multi-chip vgg-e, residual
//! resnet34). Each sweep runs on a fresh hub session with the default
//! worker count, as one `repro dse` process does, so nearly every point
//! is a cold compile plus a traced perf run plus attribution. The timed
//! region is `dse::run` plus `DseReport::to_json`; `from_json` validation
//! runs outside it.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use scaledeep::dse::{self, DseConfig, Expansion};
use scaledeep::{DseReport, Session};
use scaledeep_arch::{DesignPoint, Knob, KnobValue, ParamSpace, Precision};
use scaledeep_dnn::{zoo, Network};
use scaledeep_sim::perf::RunKind;

use crate::probe::{self, fnv, mix, FNV_OFFSET};
use crate::rec::{median, Rec};
use crate::{host, Ops, Workload};

const NETS: [&str; 4] = ["alexnet", "googlenet", "vgg-e", "resnet34"];
/// Candidates drawn per sweep: 640, the size this workload was first
/// measured at. A sweep's fixed cost (a fresh hub session, the worker
/// pool, `to_json`) is under 1% of it there, against up to a third of an
/// 8-point sweep, so the timed region measures the per-point path: cold
/// compile, traced perf run and attribution. `hostbench/README.md` has
/// the measurements.
const CANDIDATES: u64 = 640;

/// Result-file notes: the median sweep of each network, in `NETS` order.
const SWEEP_NOTES: [&str; 4] = [
    "sweep_ms.alexnet",
    "sweep_ms.googlenet",
    "sweep_ms.vgg-e",
    "sweep_ms.resnet34",
];

pub struct DseGrid;

pub struct State {
    nets: Vec<Network>,
    space: ParamSpace,
    /// `(network index, sample seed)` per configuration: one per network.
    configs: Vec<(usize, u64)>,
    /// The process's thread count before any sweep.
    threads: Option<f64>,
}

/// FNV-1a hash of each configuration's first report text, by `(network
/// index, sample seed)`. It outlives a `State`, because an untraced run
/// sets up afresh for every slice and the validating reader (0.8 s a
/// report) need only see each report once.
static FIRST: Mutex<BTreeMap<(usize, u64), u64>> = Mutex::new(BTreeMap::new());

fn first(config: (usize, u64)) -> Option<u64> {
    FIRST
        .lock()
        .expect("no check panicked")
        .get(&config)
        .copied()
}

/// The process's thread count before its first sweep.
static THREADS: OnceLock<Option<f64>> = OnceLock::new();

fn space() -> ParamSpace {
    let nums = |v: &[f64]| v.iter().map(|&x| KnobValue::Num(x)).collect();
    ParamSpace::new(DesignPoint::figure14_sp())
        .axis(Knob::Clusters, nums(&[1.0, 2.0, 3.0, 4.0]))
        .axis(
            Knob::FrequencyMhz,
            nums(&[300.0, 375.0, 450.0, 525.0, 600.0, 675.0, 750.0]),
        )
        .axis(Knob::ConvCols, nums(&[8.0, 10.0, 12.0, 14.0, 16.0]))
        .axis(Knob::ConvLanes, nums(&[1.0, 2.0, 4.0, 8.0]))
        .axis(
            Knob::Precision,
            vec![
                KnobValue::Prec(Precision::Single),
                KnobValue::Prec(Precision::Half),
            ],
        )
}

fn config(seed: u64, workers: usize) -> DseConfig {
    DseConfig {
        suite: "hostbench".into(),
        kind: RunKind::Training,
        expansion: Expansion::Sample {
            n: CANDIDATES,
            seed,
        },
        workers,
        shards: 0,
    }
}

impl State {
    /// One sweep of configuration `c`: its report, its text and the
    /// host milliseconds of `dse::run` plus `to_json`.
    fn sweep(&self, c: usize, rec: &Rec, req: u64) -> (DseReport, String, f64) {
        let (net, seed) = self.configs[c];
        let cfg = config(seed, 0);
        // `dse::run` returns when its scoped workers' closures end, which
        // can be before their threads have exited. A sweep started then
        // gets fresh allocator arenas, and over many sweeps the peak RSS
        // grows by a different amount in every run. One `repro dse`
        // process sweeps once, so wait (outside the timed region, at most
        // 50 ms) until the previous sweep's threads are gone.
        let deadline = Instant::now() + Duration::from_millis(50);
        while host::threads() > self.threads && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(100));
        }
        rec.span("bench.sweep", 0, req, |root| {
            let t = Instant::now();
            let hub = Session::single_precision();
            let report = rec.span("dse.run", root, req, |_| {
                dse::run(&hub, &self.nets[net], &self.space, &cfg)
            });
            let text = rec.span("dse.to_json", root, req, |_| report.to_json());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            (report, text, ms)
        })
    }

    /// Checks a sweep: every candidate resolves, and the report repeats
    /// the configuration's first one (by FNV-1a hash). A configuration's
    /// first report must also round-trip through the validating reader,
    /// which runs here, outside the timed region.
    fn check(&self, c: usize, report: &DseReport, text: &str, rec: &Rec) -> Result<(), String> {
        let resolved = report.points.len() + report.infeasible.len();
        if resolved as u64 != CANDIDATES {
            return Err(format!(
                "dse: {resolved} of {CANDIDATES} candidates resolved"
            ));
        }
        let hash = fnv(FNV_OFFSET, text.bytes());
        match first(self.configs[c]) {
            Some(first) if first != hash => {
                Err(format!("dse: config {c} report changed between sweeps"))
            }
            Some(_) => Ok(()),
            None => {
                FIRST
                    .lock()
                    .expect("no check panicked")
                    .insert(self.configs[c], hash);
                round_trip(c, text, rec)
            }
        }
    }
}

/// A report text survives the validating reader and renders back to the
/// same bytes.
fn round_trip(c: usize, text: &str, rec: &Rec) -> Result<(), String> {
    match rec.span("dse.from_json", 0, c as u64, |_| DseReport::from_json(text)) {
        Ok(back) if back.to_json() == text => Ok(()),
        Ok(_) => Err(format!("dse: config {c} does not round-trip")),
        Err(e) => Err(format!("dse: config {c} rejected by from_json: {e}")),
    }
}

impl Workload for DseGrid {
    const NAME: &'static str = "dse-grid";
    const SHORT_S: f64 = 0.2;
    /// A cycle takes about 0.45 s: four 5 s slices of about ten cycles.
    const SLICES: usize = 4;
    type State = State;

    fn setup(seed: u64, rec: &Rec) -> Result<State, String> {
        let mut nets = Vec::new();
        for (i, name) in NETS.iter().enumerate() {
            let net = rec.span("dnn.build", 0, i as u64, |_| zoo::by_name(name));
            nets.push(net.ok_or_else(|| format!("unknown network {name}"))?);
        }
        let configs: Vec<(usize, u64)> =
            (0..NETS.len()).map(|c| (c, mix(seed, c as u64))).collect();
        let st = State {
            nets,
            space: space(),
            configs,
            threads: *THREADS.get_or_init(host::threads),
        };
        // Warm-up: one sweep. Its report is checked with the measured
        // ones, so the validating reader stays out of the set-up time.
        st.sweep(0, rec, 0);
        Ok(st)
    }

    fn run(st: &mut State, seconds: f64, rec: &Rec) -> Ops {
        let mut ops = Ops::default();
        let start = Instant::now();
        let mut per_net = vec![Vec::new(); st.configs.len()];
        let mut i = 0;
        // One operation is a cycle: one sweep of each network. The four
        // sweeps differ in cost by up to 4x, so quantiles over single
        // sweeps would sit on the boundary between two networks.
        while i == 0 || start.elapsed().as_secs_f64() < seconds {
            let mut cycle_ms = 0.0;
            for (c, times) in per_net.iter_mut().enumerate() {
                i += 1;
                let (report, text, ms) = st.sweep(c, rec, i as u64);
                cycle_ms += ms;
                times.push(ms);
                let outcome = st.check(c, &report, &text, rec);
                ops.tally(outcome);
            }
            ops.timed(cycle_ms, (CANDIDATES * NETS.len() as u64) as f64);
            ops.busy_s += cycle_ms / 1e3;
        }
        rec.set("dse.point_us", 1e6 / ops.work_per_s());
        for (c, note) in SWEEP_NOTES.iter().enumerate() {
            if let Some(ms) = median(&per_net[c]) {
                ops.notes.insert(note, ms);
            }
        }
        ops
    }

    fn probe(st: &mut State, rec: &Rec, ops: &mut Ops) {
        // One sweep per network, its report through the validating reader.
        for c in 0..NETS.len() {
            let (_, text, _) = st.sweep(c, rec, 2000 + c as u64);
            let outcome = round_trip(c, &text, rec).and_then(|()| match first(st.configs[c]) {
                Some(hash) if hash != fnv(FNV_OFFSET, text.bytes()) => {
                    Err(format!("dse: config {c} report changed between sweeps"))
                }
                _ => Ok(()),
            });
            ops.tally(outcome);
        }
        // Each network's first feasible candidate through every layer.
        for (c, &(net, seed)) in st.configs.iter().enumerate().take(NETS.len()) {
            let candidates = st.space.sample(CANDIDATES as usize, seed);
            if let Some(point) = candidates.iter().find_map(|cand| cand.point.as_ref().ok()) {
                probe::layers(
                    rec,
                    ops,
                    &point.node_config(),
                    &st.nets[net],
                    1000 + c as u64,
                );
            }
        }
        // Configuration 0 once more on one worker: the cache ledger of a
        // sweep without worker races, and the same bytes at any worker
        // count.
        let (net, seed) = st.configs[0];
        let hub = Session::single_precision();
        let report = dse::run(&hub, &st.nets[net], &st.space, &config(seed, 1));
        probe::cache_stats(rec, hub.cache_stats());
        rec.set("dse.unique_compiles", report.unique_compiles as f64);
        rec.set("dse.infeasible", report.infeasible.len() as f64);
        ops.tally(
            if first(st.configs[0]) == Some(fnv(FNV_OFFSET, report.to_json().bytes())) {
                Ok(())
            } else {
                Err("dse: one-worker sweep differs from the pooled sweep".into())
            },
        );
    }
}
