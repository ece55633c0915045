//! Oracle properties of the `par` node engine: random whole-node models
//! (stage costs, replica counts, image streams and sync latencies, with
//! and without link faults) through [`run_node`] must reproduce
//! [`run_node_sequential`]'s [`NodeOutcome`] exactly, and a same-seed
//! rerun must reproduce itself bit for bit.
//!
//! [`NodeOutcome`]: scaledeep_sim::par::NodeOutcome

use proptest::prelude::*;
use scaledeep_dnn::LayerId;
use scaledeep_sim::fault::LinkFaults;
use scaledeep_sim::par::{run_node, run_node_sequential, NodeModel};
use scaledeep_sim::perf::StageCost;

/// Deterministic operand source (xorshift), same idiom as
/// `tier_equivalence.rs`: proptest drives only the seed, so a failing
/// case shrinks over structure while values stay reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// One random whole-node model. Partial tail minibatches, single-replica
/// and sync-free (evaluation) shapes all fall out of the ranges.
fn build_node_model(seed: u64) -> NodeModel {
    let mut rng = Rng(seed.rotate_left(7) | 1);
    let stages = (0..rng.range(1, 5))
        .map(|s| StageCost {
            id: LayerId::from_index(s as usize),
            name: format!("s{s}"),
            service_cycles: rng.range(1, 60),
            useful_lane_cycles: 0.0,
            useful_sfu_cycles: 0.0,
            traffic: [0.0; 7],
            links: [0.0; 7],
        })
        .collect();
    NodeModel {
        stages,
        replicas: rng.range(1, 12) as usize,
        images: rng.range(2, 40) as usize,
        minibatch: rng.range(1, 9) as usize,
        sync: rng.below(400),
        barrier: !rng.chance(4),
        seed,
        link: if rng.chance(2) {
            Some(LinkFaults {
                prob: 0.3,
                base_backoff: 8,
                max_retries: 4,
            })
        } else {
            None
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random whole-node models: the node engine reproduces the
    /// sequential oracle's outcome exactly, and reproduces itself run
    /// over run.
    #[test]
    fn node_engine_matches_the_sequential_oracle(seed in any::<u64>()) {
        let model = build_node_model(seed);
        let got = run_node(&model);
        prop_assert_eq!(&got, &run_node_sequential(&model), "NodeOutcome diverged");
        prop_assert_eq!(got, run_node(&model), "same-seed node runs differ");
    }
}
