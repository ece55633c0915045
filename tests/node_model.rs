//! Cross-check of the whole-node model against the performance
//! simulator. `Session::node_outcome` replicates the same stage costs,
//! image stream and sync latency that `perf::run_pipeline` simulates for
//! one replica, so on the empty fault plan the two must agree: the node
//! runs exactly `PerfResult::pipelines` replicas, every replica drains
//! the image stream the traced run completed, and the node window
//! (replicas are identical, so it is one replica's window) is the traced
//! run's `perf.window_cycles`.

use scaledeep::{Session, TraceConfig};
use scaledeep_dnn::zoo;
use scaledeep_sim::fault::FaultPlan;
use scaledeep_sim::perf::RunKind;

#[test]
fn node_outcome_matches_the_perf_result_on_every_zoo_network() {
    let session = Session::single_precision();
    let none = FaultPlan::none();
    for name in zoo::BENCHMARK_NAMES {
        let net = zoo::by_name(name).expect("zoo network");
        let artifact = session.compile(&net).expect("zoo network compiles");
        for kind in [RunKind::Training, RunKind::Evaluation] {
            let traced = session
                .run_traced(&net, kind, &TraceConfig::default())
                .expect("traced run");
            let metrics = &traced.trace.metrics;
            let images = metrics
                .counter_value("perf.images.completed")
                .expect("completed-image counter");
            let window = metrics
                .gauge_value("perf.window_cycles")
                .expect("window gauge");
            let node = session.node_outcome(&artifact, kind, &none);
            assert_eq!(node.replicas, traced.perf.pipelines, "{name} {kind:?}");
            assert_eq!(
                node.images_done,
                node.replicas as u64 * images,
                "{name} {kind:?}"
            );
            assert_eq!(node.window, window as u64, "{name} {kind:?}");
        }
    }
}
