//! Cross-algorithm communication-accounting invariants: for every method,
//! the metered traffic must satisfy the structural identities its protocol
//! implies (floor bounds from participation, link discipline, cumulative
//! monotonicity). These catch "forgot to meter an exchange" bugs when
//! algorithms change.

use hierminimax::core::algorithms::{
    AflConfig, Algorithm, Drfa, DrfaConfig, FedAvg, FedAvgConfig, FedProx, FedProxConfig, HierFavg,
    HierFavgConfig, HierMinimax, HierMinimaxConfig, QFedAvg, QfflConfig, RunOpts, StochasticAfl,
};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::simnet::{Link, Parallelism};

fn opts() -> RunOpts {
    RunOpts {
        eval_every: 1,
        parallelism: Parallelism::Sequential,
        ..Default::default()
    }
}

fn two_layer_algorithms() -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(FedAvg::new(FedAvgConfig {
            rounds: 6,
            tau1: 2,
            m_clients: 4,
            eta_w: 0.1,
            batch_size: 2,
            opts: opts(),
        })),
        Box::new(FedProx::new(FedProxConfig {
            rounds: 6,
            tau1: 2,
            m_clients: 4,
            mu: 0.1,
            eta_w: 0.1,
            batch_size: 2,
            opts: opts(),
        })),
        Box::new(StochasticAfl::new(AflConfig {
            rounds: 6,
            m_clients: 4,
            eta_w: 0.1,
            eta_q: 0.01,
            batch_size: 2,
            loss_batch: 4,
            opts: opts(),
        })),
        Box::new(Drfa::new(DrfaConfig {
            rounds: 6,
            tau1: 2,
            m_clients: 4,
            eta_w: 0.1,
            eta_q: 0.01,
            batch_size: 2,
            loss_batch: 4,
            opts: opts(),
        })),
        Box::new(QFedAvg::new(QfflConfig {
            rounds: 6,
            tau1: 2,
            m_clients: 4,
            q: 1.0,
            eta_w: 0.1,
            batch_size: 2,
            loss_batch: 4,
            opts: opts(),
        })),
    ]
}

fn three_layer_algorithms() -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(HierFavg::new(HierFavgConfig {
            rounds: 6,
            tau1: 2,
            tau2: 3,
            m_edges: 2,
            eta_w: 0.1,
            batch_size: 2,
            quantizer: Default::default(),
            opts: opts(),
        })),
        Box::new(HierMinimax::new(HierMinimaxConfig {
            rounds: 6,
            tau1: 2,
            tau2: 3,
            m_edges: 2,
            eta_w: 0.1,
            eta_p: 0.01,
            batch_size: 2,
            loss_batch: 4,
            weight_update_model: Default::default(),
            quantizer: Default::default(),
            opts: opts(),
        })),
    ]
}

#[test]
fn two_layer_methods_use_only_the_client_cloud_link() {
    let sc = tiny_problem(3, 2, 101);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    for alg in two_layer_algorithms() {
        let r = alg.run(&fp, 3);
        let s = r.comm;
        assert_eq!(s.rounds(Link::ClientEdge), 0, "{}", alg.name());
        assert_eq!(s.rounds(Link::EdgeCloud), 0, "{}", alg.name());
        assert_eq!(s.uplink_floats(Link::ClientEdge), 0, "{}", alg.name());
        assert_eq!(s.uplink_floats(Link::EdgeCloud), 0, "{}", alg.name());
        assert_eq!(s.cloud_rounds(), 6, "{}", alg.name());
    }
}

#[test]
fn three_layer_methods_never_touch_the_client_cloud_link() {
    let sc = tiny_problem(3, 2, 102);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    for alg in three_layer_algorithms() {
        let r = alg.run(&fp, 3);
        let s = r.comm;
        assert_eq!(s.rounds(Link::ClientCloud), 0, "{}", alg.name());
        assert_eq!(s.uplink_floats(Link::ClientCloud), 0, "{}", alg.name());
        assert_eq!(s.downlink_floats(Link::ClientCloud), 0, "{}", alg.name());
        assert_eq!(s.cloud_rounds(), 6, "{}", alg.name());
    }
}

#[test]
fn model_traffic_floor_bounds_hold() {
    // Every method must at minimum broadcast d floats to each participant
    // per round and get d floats back per model sync.
    let sc = tiny_problem(3, 2, 103);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let d = fp.num_params() as u64;
    for alg in two_layer_algorithms() {
        let r = alg.run(&fp, 3);
        let s = r.comm;
        // m = 4 participants, 6 rounds: ≥ 4·6·d down and up (AFL's union
        // broadcast can exceed).
        assert!(
            s.downlink_floats(Link::ClientCloud) >= 4 * 6 * d,
            "{}: downlink {}",
            alg.name(),
            s.downlink_floats(Link::ClientCloud)
        );
        // Uplink: with-replacement samplers (AFL, DRFA) upload once per
        // *distinct* client, so the guaranteed floor is one model per
        // round.
        assert!(
            s.uplink_floats(Link::ClientCloud) >= 6 * d,
            "{}: uplink {}",
            alg.name(),
            s.uplink_floats(Link::ClientCloud)
        );
    }
}

#[test]
fn cumulative_counters_are_monotone_across_history() {
    let sc = tiny_problem(3, 2, 104);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let mut algs = two_layer_algorithms();
    algs.extend(three_layer_algorithms());
    for alg in algs {
        let r = alg.run(&fp, 5);
        for w in r.history.rounds.windows(2) {
            // `since` panics if any counter decreased.
            let delta = w[1].comm.since(&w[0].comm);
            assert!(
                delta.cloud_rounds() >= 1,
                "{}: a round passed without cloud communication",
                alg.name()
            );
        }
    }
}
