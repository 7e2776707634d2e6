//! Straggler-aware over-selection — a deployment-grade variant of
//! HierMinimax's Phase 1 used by production FL systems (cf. Bonawitz et
//! al., "Towards Federated Learning at Scale", the paper's reference [3],
//! which over-provisions participants and proceeds with the earliest
//! reporters).
//!
//! The cloud samples `m_over ≥ m_E` edges by the current weights, but the
//! round closes as soon as the fastest `m_E` finish; the stragglers'
//! updates are discarded. Under heterogeneous edge speeds this bounds the
//! synchronous round's wall-clock by the `m_E`-th *fastest* sampled edge
//! rather than the slowest, at the cost of a mild participation bias
//! toward fast edges (quantified in the tests and the example).
//!
//! Per-edge speeds are part of the config (seconds per time slot); the
//! run's simulated wall-clock is accumulated internally and reported in
//! [`OverselectResult::simulated_seconds`], alongside the usual
//! [`RunResult`].

use super::driver::{self, Blocks, Dual, Fold, RoundSpec, Sampler};
use super::{Algorithm, RunError, RunOpts, RunResult, WeightUpdateModel};
use crate::problem::FederatedProblem;
use hm_simnet::Quantizer;

/// Configuration of an over-selecting HierMinimax run.
#[derive(Debug, Clone)]
pub struct OverselectConfig {
    /// Training rounds `K`.
    pub rounds: usize,
    /// Local SGD steps per client-edge aggregation (`τ1`).
    pub tau1: usize,
    /// Client-edge aggregations per round (`τ2`).
    pub tau2: usize,
    /// Edges whose updates the cloud actually uses per round (`m_E`).
    pub m_edges: usize,
    /// Edges sampled per round (`≥ m_edges`); the slowest
    /// `m_over − m_edges` are discarded.
    pub m_over: usize,
    /// Seconds of simulated wall-clock per time slot, per edge (length
    /// `N_E`): the straggler profile.
    pub seconds_per_slot: Vec<f64>,
    /// Model learning rate.
    pub eta_w: f32,
    /// Weight learning rate.
    pub eta_p: f32,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Mini-batch size for loss estimation.
    pub loss_batch: usize,
    /// Shared runner options.
    pub opts: RunOpts,
}

/// An over-selection run's result: the usual [`RunResult`] plus the
/// simulated wall-clock the straggler profile induced.
#[derive(Debug, Clone)]
pub struct OverselectResult {
    /// The standard run output.
    pub run: RunResult,
    /// Total simulated seconds (sum over rounds of the `m_E`-th fastest
    /// sampled edge's completion time).
    pub simulated_seconds: f64,
    /// How many sampled-edge slots were discarded as stragglers.
    pub discarded: usize,
}

/// Over-selecting HierMinimax.
#[derive(Debug, Clone)]
pub struct OverselectMinimax {
    cfg: OverselectConfig,
}

impl OverselectMinimax {
    /// Build a runner.
    ///
    /// # Panics
    /// Panics on degenerate configs or `m_over < m_edges`.
    pub fn new(cfg: OverselectConfig) -> Self {
        assert!(cfg.rounds > 0 && cfg.tau1 > 0 && cfg.tau2 > 0);
        assert!(cfg.m_edges > 0 && cfg.m_over >= cfg.m_edges);
        assert!(cfg
            .seconds_per_slot
            .iter()
            .all(|&s| s > 0.0 && s.is_finite()));
        Self { cfg }
    }

    /// Run, returning both the standard result and the timing account.
    ///
    /// # Panics
    /// Panics if the run hits a typed abort condition (see
    /// [`Algorithm::try_run`]).
    pub fn run_timed(&self, problem: &FederatedProblem, seed: u64) -> OverselectResult {
        self.drive(problem, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    fn drive(&self, problem: &FederatedProblem, seed: u64) -> Result<OverselectResult, RunError> {
        let cfg = &self.cfg;
        assert!(
            cfg.opts.churn.is_none(),
            "OverselectMinimax does not support membership churn; use HierMinimax"
        );
        let n_edges = problem.num_edges();
        assert_eq!(cfg.seconds_per_slot.len(), n_edges, "one speed per edge");
        assert!(
            cfg.m_over <= n_edges,
            "m_over {} exceeds {} edges",
            cfg.m_over,
            n_edges
        );
        let spec = RoundSpec {
            name: "Overselect",
            rounds: cfg.rounds,
            tau1: cfg.tau1,
            eta_w: cfg.eta_w,
            batch_size: cfg.batch_size,
            quantizer: Quantizer::Exact,
            opts: &cfg.opts,
            sampler: Sampler::Fastest {
                m: cfg.m_edges,
                m_over: cfg.m_over,
                seconds_per_slot: &cfg.seconds_per_slot,
            },
            blocks: Blocks::Edges {
                tau2: cfg.tau2,
                rates: None,
            },
            fold: Fold::Multiplicity,
            // Phase 2 is HierMinimax's: scalar losses are cheap, so it does
            // not over-select.
            dual: Some(Dual {
                eta_p: cfg.eta_p,
                loss_batch: cfg.loss_batch,
                model: WeightUpdateModel::RandomCheckpoint,
            }),
        };
        let (run, clock) = driver::run(problem, seed, spec)?;
        Ok(OverselectResult {
            run,
            simulated_seconds: clock.seconds,
            discarded: clock.discarded,
        })
    }
}

impl Algorithm for OverselectMinimax {
    fn name(&self) -> &'static str {
        "HierMinimax+overselect"
    }

    fn try_run(&self, problem: &FederatedProblem, seed: u64) -> Result<RunResult, RunError> {
        self.drive(problem, seed).map(|r| r.run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::rng::{Purpose, StreamKey, StreamRng};
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::sampling::sample_edges_weighted;
    use hm_simnet::Parallelism;
    use hm_telemetry::{MemorySink, Telemetry, TelemetryEvent};
    use std::sync::Arc;

    fn cfg(m_over: usize, speeds: Vec<f64>, rounds: usize) -> OverselectConfig {
        OverselectConfig {
            rounds,
            tau1: 2,
            tau2: 2,
            m_edges: 2,
            m_over,
            seconds_per_slot: speeds,
            eta_w: 0.1,
            eta_p: 0.005,
            batch_size: 2,
            loss_batch: 8,
            opts: RunOpts {
                eval_every: 0,
                parallelism: Parallelism::Rayon,
                ..Default::default()
            },
        }
    }

    #[test]
    fn overselection_cuts_simulated_time() {
        let sc = tiny_problem(4, 2, 61);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        // Edge 3 is a 10x straggler. Freeze p (eta_p = 0) so the timing
        // comparison isolates the over-selection mechanism — with live
        // minimax weights, upweighting a lagging straggler is expected and
        // fights the timing gain.
        let speeds = vec![1.0, 1.0, 1.0, 10.0];
        let mut plain_cfg = cfg(2, speeds.clone(), 40);
        plain_cfg.eta_p = 0.0;
        let mut over_cfg = cfg(4, speeds, 40);
        over_cfg.eta_p = 0.0;
        let plain = OverselectMinimax::new(plain_cfg).run_timed(&fp, 5);
        let over = OverselectMinimax::new(over_cfg).run_timed(&fp, 5);
        assert!(
            over.simulated_seconds * 2.0 < plain.simulated_seconds,
            "over-selection did not cut time: {:.1} vs {:.1}",
            over.simulated_seconds,
            plain.simulated_seconds
        );
        assert_eq!(plain.discarded, 0);
        assert_eq!(over.discarded, 40 * 2);
    }

    #[test]
    fn kept_edges_are_the_fastest_sampled() {
        let sc = tiny_problem(4, 2, 62);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let speeds = vec![1.0, 2.0, 3.0, 4.0];
        let sink = Arc::new(MemorySink::new());
        let mut c = cfg(4, speeds.clone(), 10);
        c.opts.telemetry = Telemetry::with_sink(sink.clone());
        OverselectMinimax::new(c).run_timed(&fp, 7);
        // Replay every round's draw: 4 edges ∝ the round's starting p from
        // its sampling stream, stable-sorted by speed, the first 2 kept.
        let mut p = vec![0.25_f32; 4];
        let mut rounds = 0;
        for e in sink.events() {
            match e {
                TelemetryEvent::Phase1Sampled { round, edges, .. } => {
                    let mut rng = StreamRng::for_key(StreamKey::new(
                        7,
                        Purpose::EdgeSampling,
                        round as u64,
                        0,
                    ));
                    let p64: Vec<f64> = p.iter().map(|&x| f64::from(x)).collect();
                    let mut kept = sample_edges_weighted(&p64, 4, &mut rng);
                    kept.sort_by(|&a, &b| speeds[a].total_cmp(&speeds[b]));
                    kept.truncate(2);
                    assert_eq!(edges, kept, "round {round}");
                    rounds += 1;
                }
                TelemetryEvent::DualUpdate { p: next, .. } => p = next,
                _ => {}
            }
        }
        assert_eq!(rounds, 10);
    }

    #[test]
    fn still_learns_and_p_remains_simplex() {
        let sc = tiny_problem(3, 2, 63);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let r = OverselectMinimax::new(cfg(3, vec![1.0, 5.0, 1.0], 250)).run_timed(&fp, 3);
        let e = crate::metrics::evaluate(&fp, &r.run.final_w, Parallelism::Rayon);
        assert!(e.average > 0.9, "reached only {:.3}", e.average);
        let sum: f32 = r.run.final_p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "m_over")]
    fn underprovisioned_overselection_rejected() {
        let mut c = cfg(1, vec![1.0; 4], 1);
        c.m_edges = 2;
        let _ = OverselectMinimax::new(c);
    }
}
