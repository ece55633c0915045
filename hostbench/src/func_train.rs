//! `func-train`: the functional-simulator workload.
//!
//! Repeated `FuncSim::run_iteration` on `alexnet-func` at the tier a
//! default `Session` selects (the tier serve and `--bench-json` run).
//! The network compiles once, during set-up; the loop does no perf-engine
//! work and no JSON. Every iteration's statistics must equal the committed
//! `BENCH_alexnet-func.json` block, and the simulator's outputs must agree
//! with the reference tensor executor (checked outside the timed region).

use std::sync::Arc;
use std::time::Instant;

use scaledeep::{CompiledArtifact, Session};
use scaledeep_dnn::{zoo, FeatureShape, Layer, Network};
use scaledeep_sim::func::{ExecBackend, FuncSim, RunStats};
use scaledeep_tensor::{Executor, Tensor};
use scaledeep_trace::json;

use crate::probe::{self, mix, rand_vec};
use crate::rec::Rec;
use crate::{Ops, Workload};

const NET: &str = "alexnet-func";
/// The committed functional baseline the statistics are checked against.
const BASELINE: &str = "BENCH_alexnet-func.json";
/// Largest simulator/reference difference accepted, relative to the
/// reference tensor's largest magnitude (f32 reassociation noise).
const REL_TOL: f32 = 1e-3;

pub struct FuncTrain;

pub struct State {
    net: Network,
    session: Session,
    artifact: Arc<CompiledArtifact>,
    fsim: FuncSim,
    image: Vec<f32>,
    golden: Vec<f32>,
    param_seed: u64,
    /// `(instructions, cycles, stalls)` from the committed baseline.
    expect: (u64, u64, u64),
    /// The warm-up iteration's statistics; every later one must match.
    first: RunStats,
}

fn baseline() -> Result<(u64, u64, u64), String> {
    let text = std::fs::read_to_string(BASELINE).map_err(|e| format!("reading {BASELINE}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parsing {BASELINE}: {e}"))?;
    let field = |k: &str| {
        doc.get("functional")
            .and_then(|f| f.get(k))
            .and_then(json::Json::as_num)
            .map(|v| v as u64)
            .ok_or_else(|| format!("{BASELINE} has no functional.{k}"))
    };
    Ok((field("instructions")?, field("cycles")?, field("stalls")?))
}

/// Length of the loss head's golden vector: the classifier's outputs.
fn golden_len(net: &Network) -> Result<usize, String> {
    net.layers()
        .find(|n| matches!(n.layer(), Layer::Loss))
        .map(|n| net.node(n.inputs()[0]).output_shape().elems())
        .ok_or_else(|| format!("{} has no loss head", net.name()))
}

fn sim(
    rec: &Rec,
    net: &Network,
    artifact: &CompiledArtifact,
    reference: &Executor,
    tier: ExecBackend,
) -> Result<FuncSim, String> {
    rec.span("func.setup", 0, 0, |_| {
        let mut fsim = FuncSim::from_artifact(net, artifact).map_err(|e| e.to_string())?;
        fsim.set_backend(tier);
        fsim.import_params(reference).map_err(|e| e.to_string())?;
        Ok(fsim)
    })
}

impl State {
    /// A reference executor with the workload's parameters.
    fn executor(&self, rec: &Rec) -> Result<Executor, String> {
        rec.span("tensor.executor_new", 0, 0, |_| {
            Executor::new(&self.net, self.param_seed)
        })
        .map_err(|e| e.to_string())
    }

    fn check(&self, stats: &RunStats) -> Result<(), String> {
        let got = (stats.instructions, stats.cycles, stats.stalls);
        if got != self.expect {
            return Err(format!(
                "func: (insts, cycles, stalls) {got:?} != baseline {:?}",
                self.expect
            ));
        }
        if *stats != self.first {
            return Err("func: iteration statistics changed between iterations".into());
        }
        Ok(())
    }

    /// One iteration on the reference executor and on a fresh simulator
    /// of the session's tier: outputs, errors and weight gradients agree.
    fn agree(&self, rec: &Rec) -> Result<(), String> {
        let mut reference = self.executor(rec)?;
        let mut fsim = sim(
            rec,
            &self.net,
            &self.artifact,
            &reference,
            self.session.exec_backend(),
        )?;
        let n_out = golden_len(&self.net)?;
        let x = Tensor::from_vec(self.net.input().output_shape(), self.image.clone())
            .map_err(|e| e.to_string())?;
        let g = Tensor::from_vec(FeatureShape::vector(n_out), self.golden.clone())
            .map_err(|e| e.to_string())?;
        rec.span("tensor.iter", 0, 0, |_| -> Result<(), String> {
            reference.forward(&x).map_err(|e| e.to_string())?;
            reference.backward(&g).map_err(|e| e.to_string())?;
            Ok(())
        })?;
        fsim.run_iteration(&self.image, &self.golden)
            .map_err(|e| e.to_string())?;
        // Largest difference relative to the reference's largest
        // magnitude; a NaN or a length mismatch counts as infinite.
        let diff = |a: Option<Vec<f32>>, b: Option<&[f32]>| -> f32 {
            let (Some(a), Some(b)) = (a, b) else {
                return 0.0;
            };
            if a.len() != b.len() {
                return f32::INFINITY;
            }
            let scale = b.iter().fold(1.0f32, |m, v| m.max(v.abs()));
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(
                    0.0,
                    |m, d| if d.is_nan() { f32::INFINITY } else { m.max(d) },
                )
                / scale
        };
        for node in self.net.layers() {
            let id = node.id();
            let worst = diff(
                fsim.layer_output(id),
                reference.output(id).map(Tensor::as_slice),
            )
            .max(diff(
                fsim.layer_error(id),
                reference.error(id).map(Tensor::as_slice),
            ))
            .max(diff(
                fsim.layer_wgrad(id),
                reference.grads(id).map(|(w, _)| w),
            ));
            if worst > REL_TOL {
                return Err(format!(
                    "func: layer {} differs from the reference by {worst}",
                    node.name()
                ));
            }
        }
        Ok(())
    }
}

impl Workload for FuncTrain {
    const NAME: &'static str = "func-train";
    const SHORT_S: f64 = 0.05;
    type State = State;

    fn setup(seed: u64, rec: &Rec) -> Result<State, String> {
        let net = rec
            .span("dnn.build", 0, 0, |_| zoo::by_name(NET))
            .ok_or("unknown network")?;
        let session = Session::single_precision();
        let artifact = rec
            .span("session.compile", 0, 0, |_| session.compile(&net))
            .map_err(|e| e.to_string())?;
        let param_seed = mix(seed, 1);
        let reference = Executor::new(&net, param_seed).map_err(|e| e.to_string())?;
        let mut fsim = sim(rec, &net, &artifact, &reference, session.exec_backend())?;
        let image = rand_vec(net.input().output_shape().elems(), mix(seed, 2));
        let golden = rand_vec(golden_len(&net)?, mix(seed, 3));
        let first = fsim
            .run_iteration(&image, &golden)
            .map_err(|e| e.to_string())?;
        let st = State {
            expect: baseline()?,
            net,
            session,
            artifact,
            fsim,
            image,
            golden,
            param_seed,
            first,
        };
        st.check(&st.first)?;
        Ok(st)
    }

    fn run(st: &mut State, seconds: f64, rec: &Rec) -> Ops {
        let mut ops = Ops::default();
        let start = Instant::now();
        let mut i = 0u64;
        // One operation is one iteration. A slice of an untraced run holds
        // about 150 of them, enough for its own p90.
        while i == 0 || start.elapsed().as_secs_f64() < seconds {
            i += 1;
            let t = Instant::now();
            let stats = rec.span("func.run_iteration", 0, i, |_| {
                st.fsim.run_iteration(&st.image, &st.golden)
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let outcome = match stats {
                Ok(stats) => {
                    ops.timed(ms, stats.instructions as f64);
                    ops.busy_s += ms / 1e3;
                    st.check(&stats)
                }
                Err(e) => Err(format!("func: iteration failed: {e}")),
            };
            ops.tally(outcome);
        }
        let agreed = st.agree(rec);
        ops.tally(agreed);
        ops
    }

    fn probe(st: &mut State, rec: &Rec, ops: &mut Ops) {
        for tier in [ExecBackend::Interpreter, ExecBackend::Compiled] {
            let span = match tier {
                ExecBackend::Interpreter => "func.iter.interpreter",
                ExecBackend::Compiled => "func.iter.compiled",
            };
            let fsim = st
                .executor(rec)
                .and_then(|r| sim(rec, &st.net, &st.artifact, &r, tier));
            let outcome = fsim.and_then(|mut fsim| {
                for i in 0..3 {
                    let stats = rec
                        .span(span, 0, i, |_| fsim.run_iteration(&st.image, &st.golden))
                        .map_err(|e| e.to_string())?;
                    st.check(&stats)?;
                }
                Ok(())
            });
            ops.tally(outcome);
        }
        rec.set("func.insts", st.first.instructions as f64);
        rec.set("func.cycles", st.first.cycles as f64);
        rec.set("func.stalls", st.first.stalls as f64);
        probe::cache_stats(rec, st.session.cache_stats());
        probe::layers(rec, ops, st.session.node(), &st.net, 1000);
    }
}
