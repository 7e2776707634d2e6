//! HierFAVG (Liu et al., ICC 2020) — the three-layer *minimization*
//! baseline: the same client-edge-cloud update structure as HierMinimax's
//! Phase 1 (`τ2` client-edge aggregations of `τ1` local steps), but solving
//! problem (1) — no edge weights, no Phase 2. Participating edges are
//! sampled uniformly, and the cloud aggregation weights each edge by its
//! training-data volume (the `q_n ∝ data` convention of eq. 1); client
//! shards within an edge are equal-sized in every scenario here, so the
//! client-edge aggregation remains a plain average.

use super::churnctl::ChurnCtl;
use super::hier_common::{robust_reduce_into, run_edge_blocks, EdgeBlockParams, QuarantineCtl};
use super::hierminimax::{delivery_fault_kind, record_edge_fault};
use super::{finish_round, Algorithm, IterateAverage, RunError, RunOpts, RunResult};
use crate::checkpoint::{emit_preamble, CheckpointCtx, ResumedRun};
use crate::history::History;
use crate::problem::FederatedProblem;
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_simnet::sampling::sample_edges_uniform;
use hm_simnet::trace::Event;
use hm_simnet::{CommMeter, FaultInjector, FaultKind, FaultStats, Link, MsgChannel, Quantizer};
use hm_telemetry::{Phase, TelemetryEvent};

/// Configuration of a HierFAVG run.
#[derive(Debug, Clone)]
pub struct HierFavgConfig {
    /// Training rounds `K`.
    pub rounds: usize,
    /// Local SGD steps per client-edge aggregation (`τ1`).
    pub tau1: usize,
    /// Client-edge aggregations per round (`τ2`).
    pub tau2: usize,
    /// Participating edges per round (uniformly sampled).
    pub m_edges: usize,
    /// Model learning rate.
    pub eta_w: f32,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Uplink codec for model uploads (`Quantizer::Exact` = the original
    /// HierFAVG; a stochastic codec gives Hier-Local-QSGD).
    pub quantizer: Quantizer,
    /// Per-block client dropout probability (crash/straggler simulation;
    /// `0.0` = the paper's failure-free protocol).
    pub dropout: f32,
    /// Shared runner options.
    pub opts: RunOpts,
}

impl Default for HierFavgConfig {
    fn default() -> Self {
        Self {
            rounds: 50,
            tau1: 2,
            tau2: 2,
            m_edges: 2,
            eta_w: 0.05,
            batch_size: 4,
            quantizer: Quantizer::Exact,
            dropout: 0.0,
            opts: RunOpts::default(),
        }
    }
}

/// The HierFAVG baseline.
#[derive(Debug, Clone)]
pub struct HierFavg {
    cfg: HierFavgConfig,
}

impl HierFavg {
    /// Build a runner from a config.
    pub fn new(cfg: HierFavgConfig) -> Self {
        assert!(cfg.rounds > 0 && cfg.tau1 > 0 && cfg.tau2 > 0);
        assert!(cfg.m_edges > 0 && cfg.batch_size > 0);
        Self { cfg }
    }
}

impl Algorithm for HierFavg {
    fn name(&self) -> &'static str {
        "HierFAVG"
    }

    fn run(&self, problem: &FederatedProblem, seed: u64) -> RunResult {
        self.try_run(problem, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_run(&self, problem: &FederatedProblem, seed: u64) -> Result<RunResult, RunError> {
        let cfg = &self.cfg;
        let n_edges = problem.num_edges();
        assert!(
            cfg.m_edges <= n_edges,
            "m_edges {} exceeds {} edges",
            cfg.m_edges,
            n_edges
        );
        let d = problem.num_params();
        let meter = CommMeter::new();
        let trace = cfg.opts.make_trace();
        let mut history = History::default();
        let mut avg_w = IterateAverage::new(d);
        let mut avg_p = IterateAverage::new(n_edges);
        let uniform_p = problem.initial_p();

        let mut w = problem
            .model
            .init_params(&mut StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::Init,
                0,
                0,
            )));
        let fault = FaultInjector::new(seed, cfg.opts.fault.clone().with_dropout(cfg.dropout));
        let mut faults_prev = FaultStats::default();
        let mut adv_prev = hm_simnet::QuarantineStats::default();
        let mut quarantine = QuarantineCtl::new(
            cfg.opts.quarantine_z,
            cfg.opts.quarantine_window,
            problem.topology().total_clients(),
        );
        // Membership churn (inert at the default all-zero plan; the
        // minimization baseline has no fairness weights to re-project).
        let mut churn = ChurnCtl::new(problem, &cfg.opts.churn, seed);
        let churn_active = churn.active();
        let mut stale_rounds: u64 = 0;

        let resumed = ResumedRun::from_opts(&cfg.opts, "HierFAVG", seed, cfg.rounds);
        let start_round = match &resumed {
            Some(rr) => {
                w.clone_from(&rr.w);
                avg_w = rr.avg_w.clone();
                avg_p = rr.avg_p.clone();
                history = rr.history.clone();
                meter.restore(&rr.comm);
                fault.restore(&rr.faults);
                faults_prev = rr.faults;
                if let Some(bytes) = rr.snap.extra(crate::checkpoint::QUARANTINE_SECTION) {
                    let (until, adv) = crate::checkpoint::decode_quarantine(bytes)
                        .unwrap_or_else(|e| panic!("cannot resume: {e}"));
                    quarantine.restore(until);
                    fault.restore_adversary(&adv);
                    adv_prev = adv;
                }
                if churn_active {
                    let bytes = rr
                        .snap
                        .extra(crate::checkpoint::CHURN_SECTION)
                        .unwrap_or_else(|| {
                            panic!("cannot resume a churn run: snapshot has no churn section")
                        });
                    stale_rounds = churn.restore(problem, bytes);
                }
                rr.start_round
            }
            None => 0,
        };
        let mut comm_prev = meter.snapshot();

        let tel = &cfg.opts.telemetry;
        let run_timer = tel.timer();
        emit_preamble(
            tel,
            resumed.as_ref(),
            "HierFAVG",
            cfg.rounds,
            n_edges,
            d,
            seed,
        );
        cfg.opts.emit_aggregator_summary();
        let ckpt = CheckpointCtx::new(&cfg.opts, "HierFAVG", seed, cfg.rounds, true);

        let prof = &cfg.opts.profile;
        for k in start_round..cfg.rounds {
            tel.record(|| TelemetryEvent::RoundStart { round: k });
            let round_timer = tel.timer();
            let phase1_timer = tel.timer();
            let round_span = prof.start();
            // Membership churn resolves at the round boundary, before any
            // sampling draw (no fairness weights here — `&mut []`).
            churn.begin_round(problem, k, &mut [], &mut quarantine, &trace, tel);
            let sampling_span = prof.start();
            let mut e_rng =
                StreamRng::for_key(StreamKey::new(seed, Purpose::EdgeSampling, k as u64, 0));
            // Under churn the uniform draw covers surviving edges only
            // (a dead edge can never report), with m clamped to their
            // count.
            let sampled = if churn_active {
                let up = churn.up_edges();
                let m = cfg.m_edges.min(up.len());
                sample_edges_uniform(up.len(), m, &mut e_rng)
                    .into_iter()
                    .map(|i| up[i])
                    .collect()
            } else {
                sample_edges_uniform(n_edges, cfg.m_edges, &mut e_rng)
            };
            trace.record(|| Event::Phase1EdgesSampled {
                round: k,
                edges: sampled.clone(),
            });
            tel.record(|| TelemetryEvent::Phase1Sampled {
                round: k,
                edges: sampled.clone(),
                checkpoint: None,
            });
            prof.record(tel, Phase::Phase1Sampling, Some(k), None, sampling_span);

            // Outage filter + downlink deliveries mirror HierMinimax's
            // Phase 1: an out edge never hears the broadcast, a lost
            // downlink (after metered retries) sidelines its edge.
            let mut active: Vec<usize> = Vec::with_capacity(sampled.len());
            for &e in &sampled {
                if fault.edge_out(k as u64, 0, e) {
                    record_edge_fault(&trace, tel, k, 0, e, FaultKind::EdgeOutage, 0);
                } else {
                    active.push(e);
                }
            }
            meter.record_broadcast(Link::EdgeCloud, d as u64, active.len() as u64);
            trace.record(|| Event::CloudBroadcast {
                round: k,
                recipients: active.clone(),
            });
            let mut participants: Vec<usize> = Vec::with_capacity(active.len());
            let mut retries = 0u64;
            let retry_span = prof.start();
            for &e in &active {
                let dv = fault.deliver(k as u64, 0, MsgChannel::Phase1Down, e);
                retries += u64::from(dv.attempts - 1);
                if let Some(kind) = delivery_fault_kind(dv.delivered, dv.attempts) {
                    record_edge_fault(&trace, tel, k, 0, e, kind, dv.attempts as usize);
                }
                if dv.delivered {
                    participants.push(e);
                }
            }
            // Retried downlinks, metered once for the whole loop (every
            // retry carries the same payload, so the totals are exact).
            if retries > 0 {
                meter.record_broadcast(Link::EdgeCloud, d as u64, retries);
                prof.record(tel, Phase::FaultRetry, Some(k), None, retry_span);
            }

            quarantine.begin_round();
            let outputs = run_edge_blocks(EdgeBlockParams {
                problem,
                w_start: &w,
                edges: &participants,
                tau1: cfg.tau1,
                tau2: cfg.tau2,
                eta_w: cfg.eta_w,
                batch_size: cfg.batch_size,
                checkpoint: None,
                quantizer: cfg.quantizer,
                fault: &fault,
                level: 0,
                record_rounds: true,
                round: k,
                seed,
                meter: &meter,
                par: cfg.opts.parallelism,
                trace: &trace,
                telemetry: tel,
                profile: prof,
                aggregator: cfg.opts.aggregator,
                quarantined: quarantine.exclusions(),
                track_norms: quarantine.active(),
                roster: churn.roster(),
            });
            quarantine.observe(problem, churn.roster(), &outputs);

            let mut outputs = outputs;
            if cfg.quantizer != Quantizer::Exact {
                // Edge→cloud codec: deltas against the round's broadcast
                // model, which the cloud already holds.
                for o in outputs.iter_mut() {
                    let mut qrng = StreamRng::for_key(StreamKey::new(
                        seed,
                        Purpose::Quantize,
                        k as u64,
                        1_000_000 + o.edge as u64,
                    ));
                    super::hier_common::quantize_delta(
                        &cfg.quantizer,
                        &w,
                        &mut o.w_final,
                        &mut qrng,
                    );
                }
            }
            // Uplink deliveries: every attempt transmits (first attempts
            // in the base gather, retries here); only delivered reports
            // join the aggregation.
            let wire_up = cfg.quantizer.wire_floats(d);
            let mut reported: Vec<usize> = Vec::with_capacity(outputs.len());
            let mut retries = 0u64;
            let retry_span = prof.start();
            for (i, o) in outputs.iter().enumerate() {
                let dv = fault.deliver(k as u64, 0, MsgChannel::Phase1Up, o.edge);
                retries += u64::from(dv.attempts - 1);
                if let Some(kind) = delivery_fault_kind(dv.delivered, dv.attempts) {
                    record_edge_fault(&trace, tel, k, 0, o.edge, kind, dv.attempts as usize);
                }
                if dv.delivered {
                    reported.push(i);
                }
            }
            if retries > 0 {
                meter.record_gather(Link::EdgeCloud, wire_up, retries);
                prof.record(tel, Phase::FaultRetry, Some(k), None, retry_span);
            }
            meter.record_gather(Link::EdgeCloud, wire_up, outputs.len() as u64);
            meter.record_round(Link::EdgeCloud);

            // Stale-round accounting (see HierMinimax): `max_stale_rounds`
            // caps the tolerated all-failed streak.
            if reported.is_empty() {
                stale_rounds += 1;
                if cfg.opts.max_stale_rounds > 0 && stale_rounds > cfg.opts.max_stale_rounds as u64
                {
                    return Err(RunError::StaleRoundsExceeded {
                        round: k,
                        consecutive: stale_rounds as usize,
                        limit: cfg.opts.max_stale_rounds,
                    });
                }
            } else {
                stale_rounds = 0;
            }

            // Cloud aggregation weighted by edge data volume (q ∝ data),
            // renormalized over the reports that arrived; a fully-failed
            // round keeps w^(k) bit-identically. Under churn, an edge's
            // volume is its *current* members' shards (arrivals counted,
            // leavers not), so re-homed data keeps its aggregation pull.
            let agg_span = prof.start();
            let sizes: Vec<f64> = reported
                .iter()
                .map(|&i| {
                    let e = outputs[i].edge;
                    if churn_active {
                        churn
                            .members_of(e)
                            .iter()
                            .map(|&gid| churn.data(problem, gid).len())
                            .sum::<usize>() as f64
                    } else {
                        problem.scenario.edges[e]
                            .client_train
                            .iter()
                            .map(|d| d.len())
                            .sum::<usize>() as f64
                    }
                })
                .collect();
            let total: f64 = sizes.iter().sum();
            if !reported.is_empty() && total > 0.0 {
                let weights: Vec<f64> = sizes.iter().map(|s| s / total).collect();
                let finals: Vec<&[f32]> = reported
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
                    &finals,
                    Some(&weights),
                    &base_w,
                    &mut agg_scratch,
                    &mut w,
                );
            }
            prof.record(tel, Phase::Aggregation, Some(k), None, agg_span);
            trace.record(|| Event::GlobalAggregation { round: k });
            trace.record(|| Event::GlobalModel {
                round: k,
                w: w.clone(),
            });
            tel.record(|| TelemetryEvent::Phase1Done {
                round: k,
                elapsed_s: phase1_timer.elapsed_s(),
            });
            let fstats = fault.stats();
            if fault.is_active() {
                let fd = fstats.since(&faults_prev);
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
            }
            faults_prev = fstats;
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
            quarantine.end_round(k, &fault, tel);
            adv_prev = adv_now;
            let comm_now = meter.snapshot();
            trace.record(|| Event::RoundComm {
                round: k,
                delta: comm_now.since(&comm_prev),
            });
            let slots_done = (k + 1) * cfg.tau1 * cfg.tau2;
            tel.record(|| TelemetryEvent::RoundEnd {
                round: k,
                slots: slots_done,
                comm_delta: comm_now.since(&comm_prev),
                comm_total: comm_now,
                sim_s: tel.sim_seconds(&comm_now, slots_done, cfg.m_edges.max(1))
                    + tel.fault_seconds(fstats.straggler_slots, fstats.backoff_s),
                elapsed_s: round_timer.elapsed_s(),
            });
            comm_prev = comm_now;
            prof.record(tel, Phase::Round, Some(k), None, round_span);

            finish_round(
                problem,
                &cfg.opts,
                &mut history,
                &mut avg_w,
                &mut avg_p,
                k,
                cfg.rounds,
                cfg.tau1 * cfg.tau2,
                comm_now,
                &w,
                uniform_p.clone(),
            );
            ckpt.after_round(
                k,
                &w,
                &uniform_p,
                &avg_w,
                &avg_p,
                &history,
                comm_now,
                fstats,
                {
                    let mut extra = Vec::new();
                    if quarantine.active() || fault.has_adversary() {
                        extra.push((
                            crate::checkpoint::QUARANTINE_SECTION.to_string(),
                            // Read the counters fresh: `end_round` has added
                            // this round's quarantine sentences since `adv_now`
                            // was captured for the telemetry delta.
                            crate::checkpoint::encode_quarantine(
                                quarantine.state(),
                                &fault.adversary_stats(),
                            ),
                        ));
                    }
                    if churn_active {
                        extra.push((
                            crate::checkpoint::CHURN_SECTION.to_string(),
                            churn.checkpoint_bytes(stale_rounds),
                        ));
                    }
                    extra
                },
            );
        }

        let comm_final = meter.snapshot();
        let faults_final = fault.stats();
        let total_slots = cfg.rounds * cfg.tau1 * cfg.tau2;
        prof.emit_summary(tel);
        tel.record(|| TelemetryEvent::RunEnd {
            rounds: cfg.rounds,
            slots: total_slots,
            comm_total: comm_final,
            sim_s: tel.sim_seconds(&comm_final, total_slots, cfg.m_edges.max(1))
                + tel.fault_seconds(faults_final.straggler_slots, faults_final.backoff_s),
            elapsed_s: run_timer.elapsed_s(),
        });
        tel.flush();

        Ok(RunResult {
            final_w: w,
            avg_w: avg_w.mean(),
            final_p: uniform_p.clone(),
            avg_p: avg_p.mean(),
            history,
            comm: comm_final,
            trace,
            faults: faults_final,
            quarantine: fault.adversary_stats(),
            churn: churn.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::Parallelism;

    fn quick_cfg(rounds: usize) -> HierFavgConfig {
        HierFavgConfig {
            rounds,
            tau1: 2,
            tau2: 2,
            m_edges: 2,
            eta_w: 0.1,
            batch_size: 2,
            quantizer: hm_simnet::Quantizer::Exact,
            dropout: 0.0,
            opts: RunOpts {
                eval_every: 1,
                parallelism: Parallelism::Sequential,
                trace: false,
                ..Default::default()
            },
        }
    }

    #[test]
    fn one_cloud_round_per_training_round() {
        let sc = tiny_problem(3, 2, 1);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let r = HierFavg::new(quick_cfg(5)).run(&fp, 42);
        assert_eq!(r.comm.cloud_rounds(), 5);
        // τ2 client-edge rounds per training round.
        assert_eq!(r.comm.rounds(hm_simnet::Link::ClientEdge), 10);
    }

    #[test]
    fn p_stays_uniform() {
        let sc = tiny_problem(4, 2, 2);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let r = HierFavg::new(quick_cfg(3)).run(&fp, 1);
        assert_eq!(r.final_p, vec![0.25; 4]);
        for rec in &r.history.rounds {
            assert_eq!(rec.p, vec![0.25; 4]);
        }
    }

    #[test]
    fn training_reduces_objective() {
        let sc = tiny_problem(3, 2, 3);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let w0 = vec![0.0; fp.num_params()];
        let p0 = fp.initial_p();
        let before = fp.objective(&w0, &p0);
        let mut cfg = quick_cfg(30);
        cfg.m_edges = 3;
        let r = HierFavg::new(cfg).run(&fp, 5);
        assert!(fp.objective(&r.final_w, &p0) < before * 0.8);
    }

    #[test]
    fn deterministic_across_parallelism() {
        let sc = tiny_problem(3, 2, 4);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let mut cfg = quick_cfg(3);
        let a = HierFavg::new(cfg.clone()).run(&fp, 7);
        cfg.opts.parallelism = Parallelism::Rayon;
        let b = HierFavg::new(cfg).run(&fp, 7);
        assert_eq!(a.final_w, b.final_w);
    }
}
