//! `disk-restart`: the artifact-store workload.
//!
//! Set-up writes the 11 zoo networks plus `alexnet-func` through
//! `Session::with_artifact_dir` (the write path). Each timed round builds
//! a fresh session on that directory and compiles and trains every
//! network from disk, in a seed-permuted order (the read path). It is the
//! workload that measures `compiler::artifact_io` and `trace::json`, which
//! no other workload reaches.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use scaledeep::{CacheStats, Session};
use scaledeep_compiler::artifact_io;
use scaledeep_dnn::{zoo, Network};
use scaledeep_trace::json;

use crate::probe::{self, mix};
use crate::rec::{median, Rec};
use crate::{Ops, Workload, OUT_DIR};

pub struct DiskRestart;

pub struct State {
    dir: PathBuf,
    nets: Vec<Network>,
    seed: u64,
    rounds: u64,
    /// `(provenance key, training images/s bits)` per network from an
    /// in-memory compile, the values every disk round must reproduce.
    expect: Vec<(u64, u64)>,
    /// The cache ledger of the set-up's writing session.
    written: CacheStats,
}

impl Drop for State {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Each set-up gets its own store directory.
static STORES: AtomicU64 = AtomicU64::new(0);

fn session_on(dir: &Path) -> Session {
    Session::single_precision().with_artifact_dir(dir)
}

impl State {
    /// One restart: a fresh session on the store compiles and trains
    /// every network. Returns the host milliseconds of the whole round and
    /// of each network's restore (its compile plus its training run), in
    /// network order.
    fn round(&self, order: &[usize], rec: &Rec, req: u64) -> Result<(f64, Vec<f64>), String> {
        rec.span("bench.round", 0, req, |root| {
            let t = Instant::now();
            let session = rec.span("session.new", root, req, |_| session_on(&self.dir));
            let mut got = vec![(0, 0); self.nets.len()];
            let mut net_ms = vec![0.0; self.nets.len()];
            for &i in order {
                let net = &self.nets[i];
                let t = Instant::now();
                let artifact = rec
                    .span("session.compile", root, req, |_| session.compile(net))
                    .map_err(|e| e.to_string())?;
                let perf = rec
                    .span("session.train", root, req, |_| session.train(net))
                    .map_err(|e| e.to_string())?;
                net_ms[i] = t.elapsed().as_secs_f64() * 1e3;
                got[i] = (
                    artifact.provenance().cache_key(),
                    perf.images_per_sec.to_bits(),
                );
            }
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let s = session.cache_stats();
            let n = self.nets.len() as u64;
            if s.disk_hits != n || s.misses != 0 || s.corrupt != 0 {
                return Err(format!(
                    "disk: round {req}: disk_hits {} misses {} corrupt {} (want {n}, 0, 0)",
                    s.disk_hits, s.misses, s.corrupt
                ));
            }
            if got != self.expect {
                return Err(format!(
                    "disk: round {req}: keys or images/s differ from an in-memory compile"
                ));
            }
            // The ledger of the write path plus one read path.
            let w = self.written;
            probe::cache_stats(
                rec,
                CacheStats {
                    hits: w.hits + s.hits,
                    disk_hits: w.disk_hits + s.disk_hits,
                    misses: w.misses + s.misses,
                    corrupt: w.corrupt + s.corrupt,
                    compile_nanos: w.compile_nanos + s.compile_nanos,
                },
            );
            Ok((ms, net_ms))
        })
    }
}

impl Workload for DiskRestart {
    const NAME: &'static str = "disk-restart";
    const SHORT_S: f64 = 0.0;
    /// A round takes about 3.5 s. Slices shorter than that hold one
    /// round each, and a 25 s run ends after about seven of them.
    const SLICES: usize = 8;
    type State = State;

    fn setup(seed: u64, rec: &Rec) -> Result<State, String> {
        let k = STORES.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(format!("{OUT_DIR}/store-{}-{k}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut nets = Vec::new();
        for (i, name) in zoo::BENCHMARK_NAMES
            .iter()
            .copied()
            .chain(["alexnet-func"])
            .enumerate()
        {
            let net = rec.span("dnn.build", 0, i as u64, |_| zoo::by_name(name));
            nets.push(net.ok_or_else(|| format!("unknown network {name}"))?);
        }
        let mut st = State {
            dir,
            nets,
            seed,
            rounds: 0,
            expect: Vec::new(),
            written: CacheStats::default(),
        };
        let writer = session_on(&st.dir);
        for (i, net) in st.nets.iter().enumerate() {
            rec.span("session.compile", 0, i as u64, |_| writer.compile(net))
                .map_err(|e| format!("disk: writing {}: {e}", net.name()))?;
        }
        st.written = writer.cache_stats();
        Ok(st)
    }

    fn run(st: &mut State, seconds: f64, rec: &Rec) -> Ops {
        let mut ops = Ops::default();
        if st.expect.is_empty() {
            let memory = Session::single_precision();
            for net in &st.nets {
                let key = memory.compile(net).map(|a| a.provenance().cache_key());
                let ips = memory.train(net).map(|r| r.images_per_sec.to_bits());
                match (key, ips) {
                    (Ok(key), Ok(ips)) => st.expect.push((key, ips)),
                    (Err(e), _) | (_, Err(e)) => {
                        ops.tally(Err(format!(
                            "disk: in-memory reference for {}: {e}",
                            net.name()
                        )));
                        return ops;
                    }
                }
            }
        }
        let start = Instant::now();
        let mut rounds_ms = Vec::new();
        let mut first = true;
        while first || start.elapsed().as_secs_f64() < seconds {
            first = false;
            st.rounds += 1;
            let mut order: Vec<usize> = (0..st.nets.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(
                    i,
                    (mix(st.seed, st.rounds * 64 + i as u64) % (i as u64 + 1)) as usize,
                );
            }
            // One operation is one network's restore, recorded in network
            // order; the round's own time (which adds the fresh session)
            // is the work rate's clock.
            let outcome = st.round(&order, rec, st.rounds).map(|(ms, net_ms)| {
                for ms in net_ms {
                    ops.timed(ms, 1.0);
                }
                ops.busy_s += ms / 1e3;
                rounds_ms.push(ms);
            });
            ops.tally(outcome);
        }
        ops.notes
            .insert("restart_ms", median(&rounds_ms).unwrap_or(0.0));
        ops
    }

    fn probe(st: &mut State, rec: &Rec, ops: &mut Ops) {
        // The store's files through the JSON parser and the artifact
        // reader and writer, each call in its own span.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&st.dir)
            .map(|d| d.flatten().map(|e| e.path()).collect())
            .unwrap_or_default();
        files.sort();
        let (mut bytes, mut parse_ns) = (0u64, 0u64);
        for (i, path) in files.iter().enumerate() {
            let req = 1000 + i as u64;
            let outcome = (|| -> Result<(), String> {
                let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                let t = Instant::now();
                rec.span("json.parse", 0, req, |_| json::parse(&text))?;
                parse_ns += t.elapsed().as_nanos() as u64;
                bytes += text.len() as u64;
                let artifact = rec
                    .span("artifact.load", 0, req, |_| artifact_io::load(path))
                    .map_err(|e| e.to_string())?;
                let copy = st.dir.join(format!("probe-{i}.json"));
                rec.span("artifact.save", 0, req, |_| {
                    artifact_io::save(&artifact, &copy)
                })
                .map_err(|e| e.to_string())?;
                let resaved = std::fs::read_to_string(&copy).map_err(|e| e.to_string());
                std::fs::remove_file(&copy).ok();
                if resaved? != text {
                    return Err(format!(
                        "disk: {} does not re-save byte for byte",
                        path.display()
                    ));
                }
                Ok(())
            })();
            ops.tally(outcome);
        }
        rec.set("artifact.bytes", bytes as f64);
        rec.set(
            "json.parse_ns_per_byte",
            parse_ns as f64 / bytes.max(1) as f64,
        );
        let session = Session::single_precision();
        for (i, net) in st.nets.iter().enumerate() {
            probe::layers(rec, ops, session.node(), net, 2000 + i as u64);
        }
    }

    /// Each network's median restore in the slice. Restores differ by
    /// three orders of magnitude between networks, so a quantile over all
    /// restores of several rounds lands near the largest sample of one
    /// network. The median per network counts every network once.
    fn latencies(ops: &Ops) -> Vec<f64> {
        let n = zoo::BENCHMARK_NAMES.len() + 1;
        (0..n)
            .filter_map(|i| {
                let own: Vec<f64> = ops.lat_ms.iter().skip(i).step_by(n).copied().collect();
                median(&own)
            })
            .collect()
    }
}
