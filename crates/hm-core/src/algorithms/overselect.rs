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

use super::hier_common::{multiplicities, robust_reduce_into, run_edge_blocks, EdgeBlockParams};
use super::hierminimax::{delivery_fault_kind, record_edge_fault};
use super::{finish_round, Algorithm, IterateAverage, RunOpts, RunResult};
use crate::checkpoint::{CheckpointCtx, ResumedRun};
use crate::history::History;
use crate::localsgd::estimate_loss;
use crate::problem::FederatedProblem;
use hm_checkpoint::format::{ByteReader, ByteWriter};
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_optim::sgd::projected_ascent_step;
use hm_simnet::sampling::{sample_checkpoint, sample_edges_uniform, sample_edges_weighted};
use hm_simnet::trace::Event;
use hm_simnet::{CommMeter, FaultInjector, FaultKind, FaultStats, Link, MsgChannel};
use hm_telemetry::{Phase, TelemetryEvent};

/// Snapshot extras section holding `(simulated_seconds, discarded)`.
const OVERSELECT_SECTION: &str = "overselect";

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
    /// Per-block client dropout probability (folded into the fault plan's
    /// `client_crash`; `0.0` = the paper's failure-free protocol).
    pub dropout: f32,
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
    pub fn run_timed(&self, problem: &FederatedProblem, seed: u64) -> OverselectResult {
        let cfg = &self.cfg;
        assert!(
            cfg.opts.churn.is_none(),
            "OverselectMinimax does not support membership churn; use HierMinimax"
        );
        let n_edges = problem.num_edges();
        let n0 = problem.clients_per_edge();
        assert_eq!(cfg.seconds_per_slot.len(), n_edges, "one speed per edge");
        assert!(
            cfg.m_over <= n_edges,
            "m_over {} exceeds {} edges",
            cfg.m_over,
            n_edges
        );
        let d = problem.num_params();
        let meter = CommMeter::new();
        let trace = cfg.opts.make_trace();
        let mut history = History::default();
        let mut avg_w = IterateAverage::new(d);
        let mut avg_p = IterateAverage::new(n_edges);
        let mut simulated_seconds = 0.0_f64;
        let mut discarded = 0usize;
        let slots_per_round = cfg.tau1 * cfg.tau2;
        let fault = FaultInjector::new(seed, cfg.opts.fault.clone().with_dropout(cfg.dropout));
        let mut faults_prev = FaultStats::default();
        let mut adv_prev = hm_simnet::QuarantineStats::default();
        let tel = &cfg.opts.telemetry;

        let mut w = problem
            .model
            .init_params(&mut StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::Init,
                0,
                0,
            )));
        let mut p = problem.initial_p();

        // Resume path. Over-selection has no run-level telemetry stream
        // (only fault events), so checkpoint events are suppressed; the
        // simulated clock and discard counter ride the snapshot's extras.
        let resumed = ResumedRun::from_opts(&cfg.opts, "Overselect", seed, cfg.rounds);
        let start_round = match &resumed {
            Some(rr) => {
                w.clone_from(&rr.w);
                p.clone_from(&rr.p);
                avg_w = rr.avg_w.clone();
                avg_p = rr.avg_p.clone();
                history = rr.history.clone();
                meter.restore(&rr.comm);
                fault.restore(&rr.faults);
                faults_prev = rr.faults;
                let extra = rr
                    .snap
                    .extra(OVERSELECT_SECTION)
                    .expect("overselect snapshot carries its clock section");
                let mut r = ByteReader::new(extra);
                simulated_seconds = r.get_f64().expect("clock");
                discarded = r.get_u64().expect("discard count") as usize;
                rr.start_round
            }
            None => 0,
        };
        let ckpt = CheckpointCtx::new(&cfg.opts, "Overselect", seed, cfg.rounds, false);

        let prof = &cfg.opts.profile;
        for k in start_round..cfg.rounds {
            let round_span = prof.start();
            let sampling_span = prof.start();
            // Over-sample by p, then keep the m_E fastest sampled slots.
            let mut e_rng =
                StreamRng::for_key(StreamKey::new(seed, Purpose::EdgeSampling, k as u64, 0));
            let p64: Vec<f64> = p.iter().map(|&x| f64::from(x).max(0.0)).collect();
            let mut sampled = sample_edges_weighted(&p64, cfg.m_over, &mut e_rng);
            sampled.sort_by(|&a, &b| {
                cfg.seconds_per_slot[a]
                    .partial_cmp(&cfg.seconds_per_slot[b])
                    .expect("finite speeds")
            });
            discarded += sampled.len() - cfg.m_edges;
            sampled.truncate(cfg.m_edges);
            // Round time: the slowest *kept* edge (the m_E-th fastest).
            let round_secs = sampled
                .iter()
                .map(|&e| cfg.seconds_per_slot[e] * slots_per_round as f64)
                .fold(0.0_f64, f64::max);
            simulated_seconds += round_secs;
            trace.record(|| Event::Phase1EdgesSampled {
                round: k,
                edges: sampled.clone(),
            });

            let mut c_rng =
                StreamRng::for_key(StreamKey::new(seed, Purpose::Checkpoint, k as u64, 0));
            let (c1, c2) = sample_checkpoint(cfg.tau1, cfg.tau2, &mut c_rng);
            let (distinct, counts) = multiplicities(&sampled);
            prof.record(tel, Phase::Phase1Sampling, Some(k), None, sampling_span);

            // Fault pipeline on the kept (fastest) edges: outage filter,
            // then downlink deliveries with metered retries.
            let mut active: Vec<usize> = Vec::with_capacity(distinct.len());
            let mut active_counts: Vec<usize> = Vec::with_capacity(distinct.len());
            for (&e, &c) in distinct.iter().zip(&counts) {
                if fault.edge_out(k as u64, 0, e) {
                    record_edge_fault(&trace, tel, k, 0, e, FaultKind::EdgeOutage, 0);
                } else {
                    active.push(e);
                    active_counts.push(c);
                }
            }
            meter.record_broadcast(Link::EdgeCloud, d as u64 + 2, active.len() as u64);
            let mut participants: Vec<usize> = Vec::with_capacity(active.len());
            let mut part_counts: Vec<usize> = Vec::with_capacity(active.len());
            let mut retries = 0u64;
            let retry_span = prof.start();
            for (&e, &c) in active.iter().zip(&active_counts) {
                let dv = fault.deliver(k as u64, 0, MsgChannel::Phase1Down, e);
                retries += u64::from(dv.attempts - 1);
                if let Some(kind) = delivery_fault_kind(dv.delivered, dv.attempts) {
                    record_edge_fault(&trace, tel, k, 0, e, kind, dv.attempts as usize);
                }
                if dv.delivered {
                    participants.push(e);
                    part_counts.push(c);
                }
            }
            // Retried downlinks, metered once for the whole loop (every
            // retry carries the same payload, so the totals are exact).
            if retries > 0 {
                meter.record_broadcast(Link::EdgeCloud, d as u64 + 2, retries);
                prof.record(tel, Phase::FaultRetry, Some(k), None, retry_span);
            }

            let outputs = run_edge_blocks(EdgeBlockParams {
                problem,
                w_start: &w,
                edges: &participants,
                tau1: cfg.tau1,
                tau2: cfg.tau2,
                eta_w: cfg.eta_w,
                batch_size: cfg.batch_size,
                checkpoint: Some((c1, c2)),
                quantizer: Default::default(),
                fault: &fault,
                level: 0,
                record_rounds: true,
                round: k,
                seed,
                meter: &meter,
                par: cfg.opts.parallelism,
                trace: &trace,
                telemetry: &cfg.opts.telemetry,
                profile: prof,
                aggregator: cfg.opts.aggregator,
                quarantined: &[],
                track_norms: false,
                roster: None,
            });
            let mut reported: Vec<usize> = Vec::with_capacity(participants.len());
            let mut retries = 0u64;
            let retry_span = prof.start();
            for (i, &e) in participants.iter().enumerate() {
                let dv = fault.deliver(k as u64, 0, MsgChannel::Phase1Up, e);
                retries += u64::from(dv.attempts - 1);
                if let Some(kind) = delivery_fault_kind(dv.delivered, dv.attempts) {
                    record_edge_fault(&trace, tel, k, 0, e, kind, dv.attempts as usize);
                }
                if dv.delivered {
                    reported.push(i);
                }
            }
            if retries > 0 {
                meter.record_gather(Link::EdgeCloud, 2 * d as u64, retries);
                prof.record(tel, Phase::FaultRetry, Some(k), None, retry_span);
            }
            meter.record_gather(Link::EdgeCloud, 2 * d as u64, participants.len() as u64);
            meter.record_round(Link::EdgeCloud);

            // Survivor-renormalized aggregation (fault-free the denominator
            // is exactly m_edges); a fully failed round keeps w^(k).
            let agg_span = prof.start();
            let mut w_checkpoint = vec![0.0_f32; d];
            if reported.is_empty() {
                w_checkpoint.copy_from_slice(&w);
            } else {
                let m_reported: usize = reported.iter().map(|&i| part_counts[i]).sum();
                let weights: Vec<f64> = reported
                    .iter()
                    .map(|&i| part_counts[i] as f64 / m_reported as f64)
                    .collect();
                let models: Vec<&[f32]> = reported
                    .iter()
                    .map(|&i| outputs[i].w_final.as_slice())
                    .collect();
                let base_w = if cfg.opts.aggregator.needs_base() {
                    w.clone()
                } else {
                    Vec::new()
                };
                let mut agg_scratch: Vec<f32> = Vec::new();
                robust_reduce_into(
                    &cfg.opts.aggregator,
                    &models,
                    Some(&weights),
                    &base_w,
                    &mut agg_scratch,
                    &mut w,
                );
                let cps: Vec<&[f32]> = reported
                    .iter()
                    .map(|&i| {
                        outputs[i]
                            .checkpoint
                            .as_deref()
                            .expect("checkpoints captured")
                    })
                    .collect();
                robust_reduce_into(
                    &cfg.opts.aggregator,
                    &cps,
                    Some(&weights),
                    &base_w,
                    &mut agg_scratch,
                    &mut w_checkpoint,
                );
            }
            prof.record(tel, Phase::Aggregation, Some(k), None, agg_span);
            trace.record(|| Event::GlobalAggregation { round: k });

            // Phase 2 unchanged (scalar losses are cheap; no over-selection).
            let dual_span = prof.start();
            let mut u_rng = StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::LossEstSampling,
                k as u64,
                u64::MAX,
            ));
            let u_set = sample_edges_uniform(n_edges, cfg.m_edges, &mut u_rng);
            // Outage + downlink-delivery filter for the estimate request;
            // the scalar uplink rides the reliable control channel.
            let live: Vec<usize> = u_set
                .iter()
                .copied()
                .filter(|&e| {
                    if fault.edge_out(k as u64, 0, e) {
                        record_edge_fault(&trace, tel, k, 0, e, FaultKind::EdgeOutage, 0);
                        false
                    } else {
                        true
                    }
                })
                .collect();
            meter.record_broadcast(Link::EdgeCloud, d as u64, live.len() as u64);
            let mut est: Vec<usize> = Vec::with_capacity(live.len());
            let mut retries = 0u64;
            let retry_span = prof.start();
            for &e in &live {
                let dv = fault.deliver(k as u64, 0, MsgChannel::Phase2Down, e);
                retries += u64::from(dv.attempts - 1);
                if let Some(kind) = delivery_fault_kind(dv.delivered, dv.attempts) {
                    record_edge_fault(&trace, tel, k, 0, e, kind, dv.attempts as usize);
                }
                if dv.delivered {
                    est.push(e);
                }
            }
            if retries > 0 {
                meter.record_broadcast(Link::EdgeCloud, d as u64, retries);
                prof.record(tel, Phase::FaultRetry, Some(k), None, retry_span);
            }
            meter.record_broadcast(Link::ClientEdge, d as u64, (est.len() * n0) as u64);
            let topo = problem.topology();
            let losses: Vec<f64> = cfg.opts.parallelism.map_ref(&est, |&e| {
                let mut total = 0.0_f64;
                for c in 0..n0 {
                    let client = topo.client_id(e, c);
                    let mut rng = StreamRng::for_key(StreamKey::new(
                        seed,
                        Purpose::LossEstSampling,
                        k as u64,
                        client as u64,
                    ));
                    total += estimate_loss(
                        &*problem.model,
                        problem.client_data(e, c),
                        &w_checkpoint,
                        cfg.loss_batch,
                        &mut rng,
                    );
                }
                total / n0 as f64
            });
            meter.record_gather(Link::ClientEdge, 1, (est.len() * n0) as u64);
            meter.record_round(Link::ClientEdge);
            meter.record_gather(Link::EdgeCloud, 1, est.len() as u64);

            let mut v = vec![0.0_f32; n_edges];
            let scale = n_edges as f64 / cfg.m_edges as f64;
            for (&e, &l) in est.iter().zip(&losses) {
                v[e] = (scale * l) as f32;
            }
            projected_ascent_step(
                &mut p,
                &v,
                cfg.eta_p * slots_per_round as f32,
                &problem.p_domain,
            );
            prof.record(tel, Phase::DualUpdate, Some(k), None, dual_span);
            trace.record(|| Event::WeightUpdate {
                round: k,
                p: p.clone(),
            });
            if fault.is_active() {
                let fnow = fault.stats();
                let fd = fnow.since(&faults_prev);
                // Retry backoff extends the synchronous round directly;
                // straggler slowdown slots are priced at the round's
                // critical-path (slowest kept edge) rate.
                simulated_seconds +=
                    fd.backoff_s + fd.straggler_slots * round_secs / slots_per_round as f64;
                tel.record(|| TelemetryEvent::FaultSummary {
                    round: k,
                    crashes: fd.crashes,
                    outages: fd.outages,
                    retries: fd.retries,
                    gave_up: fd.gave_up,
                    deadline_missed: fd.deadline_missed,
                    backoff_s: fd.backoff_s,
                    straggler_slots: fd.straggler_slots,
                });
                faults_prev = fnow;
            }
            let adv_now = fault.adversary_stats();
            if fault.has_adversary() {
                let ad = adv_now.since(&adv_prev);
                trace.record(|| Event::AdversaryRound {
                    round: k,
                    corrupted: ad.corrupted_updates,
                    attack: cfg.opts.fault.attack.as_str(),
                });
                tel.record_unsequenced(|| TelemetryEvent::Adversary {
                    round: k,
                    corrupted: ad.corrupted_updates,
                    attack: cfg.opts.fault.attack.as_str().to_string(),
                });
            }
            adv_prev = adv_now;

            finish_round(
                problem,
                &cfg.opts,
                &mut history,
                &mut avg_w,
                &mut avg_p,
                k,
                cfg.rounds,
                slots_per_round,
                meter.snapshot(),
                &w,
                p.clone(),
            );
            let mut section = ByteWriter::new();
            section.put_f64(simulated_seconds);
            section.put_u64(discarded as u64);
            ckpt.after_round(
                k,
                &w,
                &p,
                &avg_w,
                &avg_p,
                &history,
                meter.snapshot(),
                fault.stats(),
                vec![(OVERSELECT_SECTION.to_string(), section.into_bytes())],
            );
            prof.record(tel, Phase::Round, Some(k), None, round_span);
        }
        prof.emit_summary(tel);

        OverselectResult {
            run: RunResult {
                final_w: w,
                avg_w: avg_w.mean(),
                final_p: p.clone(),
                avg_p: avg_p.mean(),
                history,
                comm: meter.snapshot(),
                trace,
                faults: fault.stats(),
                quarantine: fault.adversary_stats(),
                churn: hm_simnet::ChurnStats::default(),
            },
            simulated_seconds,
            discarded,
        }
    }
}

impl Algorithm for OverselectMinimax {
    fn name(&self) -> &'static str {
        "HierMinimax+overselect"
    }

    fn run(&self, problem: &FederatedProblem, seed: u64) -> RunResult {
        self.run_timed(problem, seed).run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::Parallelism;

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
            dropout: 0.0,
            opts: RunOpts {
                eval_every: 0,
                parallelism: Parallelism::Rayon,
                trace: true,
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
        let r = OverselectMinimax::new(cfg(4, speeds.clone(), 10)).run_timed(&fp, 7);
        for e in r.run.trace.events() {
            if let Event::Phase1EdgesSampled { edges, .. } = e {
                assert_eq!(edges.len(), 2);
                // Each kept edge must be at least as fast as the slowest
                // possible pair member: with all 4 sampled, the kept pair
                // is always the two fastest distinct draws, so edge 3
                // (the slowest) can appear only if drawn ≥ 3 times.
                let max_speed = edges.iter().map(|&i| speeds[i]).fold(0.0, f64::max);
                assert!(max_speed <= 4.0);
            }
        }
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
