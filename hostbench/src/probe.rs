//! The common layer probe: one network through each compile phase, the
//! whole compile, the perf engine (plain and traced), attribution and the
//! two node engines, every call in its own span. Traced runs call it on
//! each workload's own networks and design points.

use scaledeep::attribution::Attribution;
use scaledeep::{CacheStats, Session, TraceConfig};
use scaledeep_arch::NodeConfig;
use scaledeep_compiler::pipeline::{self, Provenance};
use scaledeep_compiler::CompileOptions;
use scaledeep_dnn::{zoo, Network};
use scaledeep_sim::fault::FaultPlan;
use scaledeep_sim::perf::RunKind;

use crate::rec::Rec;
use crate::Ops;

/// Probes `net` on `node` under request id `req`, checking that the phase
/// functions agree with the whole compile, the traced perf run with the
/// plain one, and the sharded node engine with the sequential one.
pub fn layers(rec: &Rec, ops: &mut Ops, node: &NodeConfig, net: &Network, req: u64) {
    let outcome = rec.span("bench.probe", 0, req, |root| -> Result<(), String> {
        let rebuilt = rec.span("dnn.build", root, req, |_| zoo::by_name(net.name()));
        if rebuilt.as_ref().map(Network::len) != Some(net.len()) {
            return Err(format!("{}: zoo rebuild differs", net.name()));
        }
        let opts = CompileOptions::default();
        let key = rec.span("compiler.provenance", root, req, |_| {
            Provenance::new(node, net, &opts).cache_key()
        });
        let phased = (|| {
            let analyzed = rec.span("compiler.analyze", root, req, |_| {
                pipeline::analyze(node, net)
            })?;
            let cols = rec.span("compiler.allocate_columns", root, req, |_| {
                pipeline::allocate_columns(&analyzed, &opts.failed)
            })?;
            let part = rec.span("compiler.partition_state", root, req, |_| {
                pipeline::partition_state(&analyzed, &cols)
            });
            rec.span("compiler.assign_compute", root, req, |_| {
                pipeline::assign_compute(&analyzed, &cols, &part)
            })
        })();
        let whole = rec.span("compiler.compile", root, req, |_| {
            pipeline::compile(node, net, &opts)
        });
        let (mapping, artifact) = match (phased, whole) {
            (Ok(m), Ok(a)) => (m, a),
            (Err(_), Err(_)) => return Ok(()),
            _ => {
                return Err(format!(
                    "{}: phases and compile disagree on feasibility",
                    net.name()
                ))
            }
        };
        if mapping.conv_cols_used() != artifact.mapping().conv_cols_used()
            || artifact.provenance().cache_key() != key
        {
            return Err(format!(
                "{}: phase mapping or provenance differs from compile",
                net.name()
            ));
        }
        let session = Session::with_node(*node);
        rec.span("session.compile", root, req, |_| session.compile(net))
            .map_err(|e| e.to_string())?;
        let kind = RunKind::Training;
        let plain = rec.span("perf.run", root, req, |_| {
            session.run_mapped(&artifact, kind)
        });
        let traced = rec
            .span("perf.traced", root, req, |_| {
                session.run_traced(net, kind, &TraceConfig::default())
            })
            .map_err(|e| e.to_string())?;
        if traced.perf.images_per_sec.to_bits() != plain.images_per_sec.to_bits() {
            return Err(format!(
                "{}: traced perf run differs from plain",
                net.name()
            ));
        }
        add(rec, "perf.trace_events", traced.trace.events.len() as f64);
        rec.span("attribution.build", root, req, |_| {
            Attribution::build(&traced, &artifact, net, node)
        })
        .map_err(|e| e.to_string())?;
        let none = FaultPlan::none();
        let seq = rec.span("par.node_seq", root, req, |_| {
            session.node_outcome_sequential(&artifact, kind, &none)
        });
        let sharded = rec.span("par.node_sharded", root, req, |_| {
            session.node_outcome(&artifact, kind, &none)
        });
        if seq != sharded {
            return Err(format!(
                "{}: sharded node engine differs from sequential",
                net.name()
            ));
        }
        Ok(())
    });
    ops.tally(outcome);
}

/// Adds `v` to the value `name`.
pub fn add(rec: &Rec, name: &str, v: f64) {
    let cur = rec.values().get(name).copied().unwrap_or(0.0);
    rec.set(name, cur + v);
}

/// Records a compile-cache ledger as the `session.*` values.
pub fn cache_stats(rec: &Rec, s: CacheStats) {
    rec.set("session.cache.hits", s.hits as f64);
    rec.set("session.cache.misses", s.misses as f64);
    rec.set("session.cache.disk_hits", s.disk_hits as f64);
    rec.set("session.cache.corrupt", s.corrupt as f64);
    rec.set("session.compile_ns", s.compile_nanos as f64);
}

/// The FNV-1a offset basis, the state [`fnv`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from the state `h`.
pub fn fnv(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A deterministic 64-bit mix (splitmix64) for deriving sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded uniform value in `[0, 1)`.
pub fn unit(seed: u64, salt: u64) -> f64 {
    (mix(seed, salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// Seeded uniform values in `[-1, 1)`.
pub fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    (0..n as u64)
        .map(|i| (unit(seed, i) * 2.0 - 1.0) as f32)
        .collect()
}
