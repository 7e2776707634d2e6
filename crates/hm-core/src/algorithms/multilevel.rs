//! Multi-level HierMinimax — the paper's claimed generalisation beyond
//! three layers ("we use [client-edge-cloud] as a representative example…
//! our work can be easily generalized", §3).
//!
//! The network is a tree: clients → edge servers → one or more levels of
//! intermediate aggregators ("regions") → cloud. Each intermediate level
//! `l` performs `τ_l` aggregations of the level below per aggregation of
//! the level above; the minimax weights `p` live on the level directly
//! under the cloud (the level whose mixture the cloud can actually
//! reweight), exactly as the paper's `p` lives on edge areas in the
//! three-layer case.
//!
//! Grouping is structural: level `l`'s groups are contiguous runs of the
//! level below. With `upper: []` this degenerates to HierMinimax itself
//! (weights on edge areas) — asserted in the tests.
//!
//! Communication metering note: links between intermediate levels are
//! metered on `ClientEdge` (local/cheap class) and only the top level's
//! exchange with the cloud on `EdgeCloud` (WAN class), consistent with the
//! cost model where everything below the cloud is site-local.

use super::hier_common::{multiplicities, robust_reduce_into, run_edge_blocks, EdgeBlockParams};
use super::hierminimax::{delivery_fault_kind, record_edge_fault};
use super::{finish_round, Algorithm, IterateAverage, RunOpts, RunResult};
use crate::checkpoint::{emit_preamble, CheckpointCtx, ResumedRun};
use crate::history::History;
use crate::localsgd::estimate_loss;
use crate::problem::FederatedProblem;
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_optim::sgd::projected_ascent_step;
use hm_simnet::sampling::{sample_edges_uniform, sample_edges_weighted};
use hm_simnet::trace::Event;
use hm_simnet::trace::Trace;
use hm_simnet::{CommMeter, FaultInjector, FaultKind, FaultStats, Link, MsgChannel, Quantizer};
use hm_telemetry::{Phase, TelemetryEvent};

/// One intermediate aggregation level above the edge servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpperLevel {
    /// How many groups of the level below form one group of this level
    /// (contiguous grouping).
    pub group_size: usize,
    /// Aggregations of the level below per aggregation of this level.
    pub tau: usize,
}

/// Configuration of a multi-level HierMinimax run.
#[derive(Debug, Clone)]
pub struct MultiLevelConfig {
    /// Training rounds `K`.
    pub rounds: usize,
    /// Local SGD steps per client-edge aggregation (`τ1`).
    pub tau1: usize,
    /// Client-edge aggregations per edge-level sync (`τ2`).
    pub tau2: usize,
    /// Intermediate levels above the edges, bottom-up (empty = the plain
    /// three-layer HierMinimax).
    pub upper: Vec<UpperLevel>,
    /// Top-level groups sampled per round (`m` of the weighted sampling).
    pub m_groups: usize,
    /// Model learning rate.
    pub eta_w: f32,
    /// Weight learning rate (the update applies `η_p · Π τ`).
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

impl Default for MultiLevelConfig {
    fn default() -> Self {
        Self {
            rounds: 50,
            tau1: 2,
            tau2: 2,
            upper: vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            m_groups: 2,
            eta_w: 0.05,
            eta_p: 0.01,
            batch_size: 4,
            loss_batch: 16,
            dropout: 0.0,
            opts: RunOpts::default(),
        }
    }
}

impl MultiLevelConfig {
    /// Time slots consumed per training round: `τ1 τ2 Π_l τ_l`.
    pub fn slots_per_round(&self) -> usize {
        self.tau1 * self.tau2 * self.upper.iter().map(|u| u.tau).product::<usize>()
    }

    /// Edges per top-level group: `Π_l group_size_l`.
    pub fn edges_per_group(&self) -> usize {
        self.upper.iter().map(|u| u.group_size).product()
    }
}

/// Multi-level HierMinimax.
#[derive(Debug, Clone)]
pub struct MultiLevelMinimax {
    cfg: MultiLevelConfig,
}

impl MultiLevelMinimax {
    /// Build a runner from a config.
    ///
    /// # Panics
    /// Panics on degenerate configs (zero rounds/taus/groups).
    pub fn new(cfg: MultiLevelConfig) -> Self {
        assert!(cfg.rounds > 0 && cfg.tau1 > 0 && cfg.tau2 > 0);
        assert!(cfg.m_groups > 0 && cfg.batch_size > 0 && cfg.loss_batch > 0);
        assert!(cfg.upper.iter().all(|u| u.group_size > 0 && u.tau > 0));
        Self { cfg }
    }

    /// Number of top-level (weighted) groups for a problem.
    ///
    /// # Panics
    /// Panics unless the problem's edge count is divisible by the grouping.
    pub fn num_groups(&self, problem: &FederatedProblem) -> usize {
        let per = self.cfg.edges_per_group();
        let n = problem.num_edges();
        assert!(
            n.is_multiple_of(per),
            "{n} edges do not divide into groups of {per}"
        );
        n / per
    }

    /// Recursive subtree update: runs the level `li` (index into
    /// `cfg.upper`, from the top) aggregation loop over the given edge
    /// set, returning `(model, checkpoint)`.
    #[allow(clippy::too_many_arguments)]
    fn subtree_update(
        &self,
        problem: &FederatedProblem,
        w_start: &[f32],
        edges: &[usize],
        li: usize,
        cp_index: &[usize], // one entry per upper level + the (c1, c2) base
        round_tag: usize,   // unique per (round, position) for RNG keying
        seed: u64,
        meter: &CommMeter,
        trace: &Trace,
        fault: &FaultInjector,
    ) -> (Vec<f32>, Option<Vec<f32>>) {
        let cfg = &self.cfg;
        if li == cfg.upper.len() {
            // Base case: one edge-level block over these edges. Client
            // faults key on the tree depth as their level, so a deeper
            // hierarchy draws survival bits independent of the three-layer
            // case even when block indices coincide (with `upper: []` the
            // depth is 0 and the legacy streams are preserved).
            let (c1, c2) = (cp_index[cp_index.len() - 2], cp_index[cp_index.len() - 1]);
            let outputs = run_edge_blocks(EdgeBlockParams {
                problem,
                w_start,
                edges,
                tau1: cfg.tau1,
                tau2: cfg.tau2,
                eta_w: cfg.eta_w,
                batch_size: cfg.batch_size,
                checkpoint: Some((c1, c2)),
                quantizer: Quantizer::Exact,
                fault,
                level: cfg.upper.len(),
                record_rounds: true,
                round: round_tag,
                seed,
                meter,
                par: cfg.opts.parallelism,
                trace,
                telemetry: &cfg.opts.telemetry,
                profile: &cfg.opts.profile,
                aggregator: cfg.opts.aggregator,
                quarantined: &[],
                track_norms: false,
                roster: None,
            });
            let agg = &cfg.opts.aggregator;
            let mut agg_scratch: Vec<f32> = Vec::new();
            let finals: Vec<&[f32]> = outputs.iter().map(|o| o.w_final.as_slice()).collect();
            let mut w = vec![0.0_f32; w_start.len()];
            robust_reduce_into(agg, &finals, None, w_start, &mut agg_scratch, &mut w);
            let cps: Vec<&[f32]> = outputs
                .iter()
                .map(|o| {
                    o.checkpoint
                        .as_deref()
                        .expect("base level captures checkpoints")
                })
                .collect();
            let mut cp = vec![0.0_f32; w_start.len()];
            robust_reduce_into(agg, &cps, None, w_start, &mut agg_scratch, &mut cp);
            // The edge→aggregator upload is metered by the parent level's
            // gather (every recursion level records one gather over its
            // children), so nothing extra is recorded here.
            return (w, Some(cp));
        }

        let level = cfg.upper[li];
        // Split this subtree's edges into the child groups of the next
        // level down (contiguous, equal-sized by construction).
        let child_edges: usize = cfg.upper[li + 1..]
            .iter()
            .map(|u| u.group_size)
            .product::<usize>()
            .max(1);
        let children: Vec<&[usize]> = edges.chunks(child_edges).collect();
        let mut w = w_start.to_vec();
        let mut checkpoint: Option<Vec<f32>> = None;
        for t in 0..level.tau {
            // Broadcast down to children (intermediate link).
            meter.record_broadcast(Link::ClientEdge, w.len() as u64, children.len() as u64);
            let mut child_results = Vec::with_capacity(children.len());
            for (ci, child) in children.iter().enumerate() {
                let tag = (round_tag * level.tau + t) * children.len() + ci;
                child_results.push(self.subtree_update(
                    problem,
                    &w,
                    child,
                    li + 1,
                    cp_index,
                    tag,
                    seed,
                    meter,
                    trace,
                    fault,
                ));
            }
            // Gather child models (+ checkpoints when this is the
            // checkpointed sub-block) and aggregate.
            meter.record_gather(Link::ClientEdge, 2 * w.len() as u64, children.len() as u64);
            meter.record_round(Link::ClientEdge);
            let agg = &cfg.opts.aggregator;
            let mut agg_scratch: Vec<f32> = Vec::new();
            let base = if agg.needs_base() {
                w.clone()
            } else {
                Vec::new()
            };
            let models: Vec<&[f32]> = child_results.iter().map(|(m, _)| m.as_slice()).collect();
            robust_reduce_into(agg, &models, None, &base, &mut agg_scratch, &mut w);
            if t == cp_index[li] {
                let cps: Vec<&[f32]> = child_results
                    .iter()
                    .map(|(_, cp)| cp.as_deref().expect("children carry checkpoints"))
                    .collect();
                let mut cp = vec![0.0_f32; w.len()];
                robust_reduce_into(agg, &cps, None, &base, &mut agg_scratch, &mut cp);
                checkpoint = Some(cp);
            }
        }
        (w, checkpoint)
    }
}

impl Algorithm for MultiLevelMinimax {
    fn name(&self) -> &'static str {
        "MultiLevelMinimax"
    }

    fn run(&self, problem: &FederatedProblem, seed: u64) -> RunResult {
        let cfg = &self.cfg;
        assert!(
            cfg.opts.churn.is_none(),
            "MultiLevelMinimax does not support membership churn; use HierMinimax"
        );
        let num_groups = self.num_groups(problem);
        assert!(
            cfg.m_groups <= num_groups,
            "m_groups {} exceeds {} groups",
            cfg.m_groups,
            num_groups
        );
        let per_group = cfg.edges_per_group();
        let d = problem.num_params();
        let n0 = problem.clients_per_edge();
        let meter = CommMeter::new();
        let trace = cfg.opts.make_trace();
        let mut history = History::default();
        let mut avg_w = IterateAverage::new(d);
        let mut avg_p = IterateAverage::new(num_groups);

        let mut w = problem
            .model
            .init_params(&mut StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::Init,
                0,
                0,
            )));
        let mut p = vec![1.0 / num_groups as f32; num_groups];
        let group_edges: Vec<Vec<usize>> = (0..num_groups)
            .map(|g| (g * per_group..(g + 1) * per_group).collect())
            .collect();
        let total_tau = cfg.slots_per_round();
        // Cloud-link faults (outages, message loss) act on the top-level
        // groups at level 0; client faults key on the tree depth inside
        // `subtree_update`. Intermediate links are site-local and modeled
        // as reliable.
        let fault = FaultInjector::new(seed, cfg.opts.fault.clone().with_dropout(cfg.dropout));
        let mut faults_prev = FaultStats::default();
        let mut adv_prev = hm_simnet::QuarantineStats::default();

        let resumed = ResumedRun::from_opts(&cfg.opts, "MultiLevelMinimax", seed, cfg.rounds);
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
                if let Some(bytes) = rr.snap.extra(crate::checkpoint::QUARANTINE_SECTION) {
                    let (_, adv) = crate::checkpoint::decode_quarantine(bytes)
                        .unwrap_or_else(|e| panic!("cannot resume: {e}"));
                    fault.restore_adversary(&adv);
                    adv_prev = adv;
                }
                rr.start_round
            }
            None => 0,
        };
        let mut comm_prev = meter.snapshot();

        let tel = &cfg.opts.telemetry;
        let run_timer = tel.timer();
        // The weighted top-level groups play the edge-area role here, so
        // they are what `n_edges` (and the `p` vectors below) count.
        emit_preamble(
            tel,
            resumed.as_ref(),
            "MultiLevelMinimax",
            cfg.rounds,
            num_groups,
            d,
            seed,
        );
        cfg.opts.emit_aggregator_summary();
        let ckpt = CheckpointCtx::new(&cfg.opts, "MultiLevelMinimax", seed, cfg.rounds, true);

        let prof = &cfg.opts.profile;
        // ClientEdge traffic spreads over every disjoint bottom-level
        // network: one per edge area across all sampled groups.
        let edge_areas = (cfg.m_groups * per_group).max(1);
        for k in start_round..cfg.rounds {
            tel.record(|| TelemetryEvent::RoundStart { round: k });
            let round_timer = tel.timer();
            let phase1_timer = tel.timer();
            let round_span = prof.start();
            let sampling_span = prof.start();
            // --- Phase 1: weighted top-level sampling + recursive update.
            let mut e_rng =
                StreamRng::for_key(StreamKey::new(seed, Purpose::EdgeSampling, k as u64, 0));
            let p64: Vec<f64> = p.iter().map(|&x| f64::from(x).max(0.0)).collect();
            let sampled = sample_edges_weighted(&p64, cfg.m_groups, &mut e_rng);
            trace.record(|| Event::Phase1EdgesSampled {
                round: k,
                edges: sampled.clone(),
            });
            let (distinct, counts) = multiplicities(&sampled);

            // Checkpoint index: one coordinate per upper level plus (c2, c1).
            let mut c_rng =
                StreamRng::for_key(StreamKey::new(seed, Purpose::Checkpoint, k as u64, 0));
            let mut cp_index: Vec<usize> = cfg.upper.iter().map(|u| c_rng.below(u.tau)).collect();
            let c1 = c_rng.below(cfg.tau1);
            let c2 = c_rng.below(cfg.tau2);
            cp_index.push(c1);
            cp_index.push(c2);
            trace.record(|| Event::CheckpointSampled { round: k, c1, c2 });
            // The reported (c1, c2) is the base-level coordinate of the
            // checkpoint; the upper-level coordinates stay internal.
            tel.record(|| TelemetryEvent::Phase1Sampled {
                round: k,
                edges: sampled.clone(),
                checkpoint: Some((c1, c2)),
            });
            prof.record(tel, Phase::Phase1Sampling, Some(k), None, sampling_span);

            // Cloud-link fault pipeline on the sampled top-level groups:
            // outage filter, then downlink deliveries with metered retries.
            let payload_down = d as u64 + cp_index.len() as u64;
            let mut active: Vec<usize> = Vec::with_capacity(distinct.len());
            let mut active_counts: Vec<usize> = Vec::with_capacity(distinct.len());
            for (&g, &c) in distinct.iter().zip(&counts) {
                if fault.edge_out(k as u64, 0, g) {
                    record_edge_fault(&trace, tel, k, 0, g, FaultKind::EdgeOutage, 0);
                } else {
                    active.push(g);
                    active_counts.push(c);
                }
            }
            meter.record_broadcast(Link::EdgeCloud, payload_down, active.len() as u64);
            trace.record(|| Event::CloudBroadcast {
                round: k,
                recipients: active.clone(),
            });
            let mut participants: Vec<usize> = Vec::with_capacity(active.len());
            let mut part_counts: Vec<usize> = Vec::with_capacity(active.len());
            let mut retries = 0u64;
            let retry_span = prof.start();
            for (&g, &c) in active.iter().zip(&active_counts) {
                let dv = fault.deliver(k as u64, 0, MsgChannel::Phase1Down, g);
                retries += u64::from(dv.attempts - 1);
                if let Some(kind) = delivery_fault_kind(dv.delivered, dv.attempts) {
                    record_edge_fault(&trace, tel, k, 0, g, kind, dv.attempts as usize);
                }
                if dv.delivered {
                    participants.push(g);
                    part_counts.push(c);
                }
            }
            // Retried downlinks, metered once for the whole loop (every
            // retry carries the same payload, so the totals are exact).
            if retries > 0 {
                meter.record_broadcast(Link::EdgeCloud, payload_down, retries);
                prof.record(tel, Phase::FaultRetry, Some(k), None, retry_span);
            }
            let results: Vec<(Vec<f32>, Option<Vec<f32>>)> = participants
                .iter()
                .map(|&g| {
                    self.subtree_update(
                        problem,
                        &w,
                        &group_edges[g],
                        0,
                        &cp_index,
                        k * num_groups + g,
                        seed,
                        &meter,
                        &trace,
                        &fault,
                    )
                })
                .collect();
            // Uplink deliveries: every attempt transmits (first attempts
            // in the base gather, retries here).
            let mut reported: Vec<usize> = Vec::with_capacity(participants.len());
            let mut retries = 0u64;
            let retry_span = prof.start();
            for (i, &g) in participants.iter().enumerate() {
                let dv = fault.deliver(k as u64, 0, MsgChannel::Phase1Up, g);
                retries += u64::from(dv.attempts - 1);
                if let Some(kind) = delivery_fault_kind(dv.delivered, dv.attempts) {
                    record_edge_fault(&trace, tel, k, 0, g, kind, dv.attempts as usize);
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

            // Aggregation over the surviving reports, weights renormalized
            // (fault-free the denominator is exactly m_groups); a fully
            // failed round keeps w^(k) bit-identically.
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
                let models: Vec<&[f32]> =
                    reported.iter().map(|&i| results[i].0.as_slice()).collect();
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
                    .map(|&i| results[i].1.as_deref().expect("groups carry checkpoints"))
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
            trace.record(|| Event::GlobalModel {
                round: k,
                w: w.clone(),
            });
            tel.record(|| TelemetryEvent::Phase1Done {
                round: k,
                elapsed_s: phase1_timer.elapsed_s(),
            });

            // --- Phase 2: uniform group sampling, loss estimation, ascent.
            let phase2_timer = tel.timer();
            let dual_span = prof.start();
            let mut u_rng = StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::LossEstSampling,
                k as u64,
                u64::MAX,
            ));
            let u_set = sample_edges_uniform(num_groups, cfg.m_groups, &mut u_rng);
            trace.record(|| Event::Phase2EdgesSampled {
                round: k,
                edges: u_set.clone(),
            });
            // Outage + downlink-delivery filter for the Phase-2 estimate
            // request; the scalar uplink rides the reliable control channel.
            let live: Vec<usize> = u_set
                .iter()
                .copied()
                .filter(|&g| {
                    if fault.edge_out(k as u64, 0, g) {
                        record_edge_fault(&trace, tel, k, 0, g, FaultKind::EdgeOutage, 0);
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
            for &g in &live {
                let dv = fault.deliver(k as u64, 0, MsgChannel::Phase2Down, g);
                retries += u64::from(dv.attempts - 1);
                if let Some(kind) = delivery_fault_kind(dv.delivered, dv.attempts) {
                    record_edge_fault(&trace, tel, k, 0, g, kind, dv.attempts as usize);
                }
                if dv.delivered {
                    est.push(g);
                }
            }
            if retries > 0 {
                meter.record_broadcast(Link::EdgeCloud, d as u64, retries);
                prof.record(tel, Phase::FaultRetry, Some(k), None, retry_span);
            }
            meter.record_broadcast(
                Link::ClientEdge,
                d as u64,
                (est.len() * per_group * n0) as u64,
            );
            let topo = problem.topology();
            let group_losses: Vec<f64> = cfg.opts.parallelism.map_ref(&est, |&g| {
                let mut total = 0.0_f64;
                for &e in &group_edges[g] {
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
                }
                total / (per_group * n0) as f64
            });
            meter.record_gather(Link::ClientEdge, 1, (est.len() * per_group * n0) as u64);
            meter.record_round(Link::ClientEdge);
            meter.record_gather(Link::EdgeCloud, 1, est.len() as u64);

            // Failed groups contribute v_g = 0: their weight coordinate is
            // simply not pushed this round; the projection keeps p ∈ P.
            let mut v = vec![0.0_f32; num_groups];
            let scale = num_groups as f64 / cfg.m_groups as f64;
            for (&g, &l) in est.iter().zip(&group_losses) {
                v[g] = (scale * l) as f32;
            }
            projected_ascent_step(&mut p, &v, cfg.eta_p * total_tau as f32, &problem.p_domain);
            prof.record(tel, Phase::DualUpdate, Some(k), None, dual_span);
            trace.record(|| Event::WeightUpdate {
                round: k,
                p: p.clone(),
            });
            tel.record(|| TelemetryEvent::DualUpdate {
                round: k,
                edges: est.clone(),
                losses: group_losses.clone(),
                p: p.clone(),
                elapsed_s: phase2_timer.elapsed_s(),
            });
            if fault.is_active() {
                let fnow = fault.stats();
                let fd = fnow.since(&faults_prev);
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
            let comm_now = meter.snapshot();
            trace.record(|| Event::RoundComm {
                round: k,
                delta: comm_now.since(&comm_prev),
            });
            let slots_done = (k + 1) * total_tau;
            let fcum = fault.stats();
            tel.record(|| TelemetryEvent::RoundEnd {
                round: k,
                slots: slots_done,
                comm_delta: comm_now.since(&comm_prev),
                comm_total: comm_now,
                sim_s: tel.sim_seconds(&comm_now, slots_done, edge_areas)
                    + tel.fault_seconds(fcum.straggler_slots, fcum.backoff_s),
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
                total_tau,
                comm_now,
                &w,
                p.clone(),
            );
            ckpt.after_round(
                k,
                &w,
                &p,
                &avg_w,
                &avg_p,
                &history,
                comm_now,
                fcum,
                if fault.has_adversary() {
                    vec![(
                        crate::checkpoint::QUARANTINE_SECTION.to_string(),
                        crate::checkpoint::encode_quarantine(&[], &adv_now),
                    )]
                } else {
                    vec![]
                },
            );
        }

        let comm_final = meter.snapshot();
        let faults_final = fault.stats();
        let total_slots = cfg.rounds * total_tau;
        cfg.opts.profile.emit_summary(tel);
        tel.record(|| TelemetryEvent::RunEnd {
            rounds: cfg.rounds,
            slots: total_slots,
            comm_total: comm_final,
            sim_s: tel.sim_seconds(
                &comm_final,
                total_slots,
                (cfg.m_groups * cfg.edges_per_group()).max(1),
            ) + tel.fault_seconds(faults_final.straggler_slots, faults_final.backoff_s),
            elapsed_s: run_timer.elapsed_s(),
        });
        tel.flush();

        RunResult {
            final_w: w,
            avg_w: avg_w.mean(),
            final_p: p.clone(),
            avg_p: avg_p.mean(),
            history,
            comm: comm_final,
            trace,
            faults: faults_final,
            quarantine: fault.adversary_stats(),
            churn: hm_simnet::ChurnStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::Parallelism;

    fn quick_cfg(upper: Vec<UpperLevel>, m: usize) -> MultiLevelConfig {
        MultiLevelConfig {
            rounds: 4,
            tau1: 2,
            tau2: 2,
            upper,
            m_groups: m,
            eta_w: 0.1,
            eta_p: 0.01,
            batch_size: 2,
            loss_batch: 4,
            dropout: 0.0,
            opts: RunOpts {
                eval_every: 1,
                parallelism: Parallelism::Sequential,
                trace: true,
                ..Default::default()
            },
        }
    }

    #[test]
    fn four_layer_runs_and_accounts_slots() {
        // 4 edges grouped 2-per-region → 2 regions; τ_region = 2.
        let sc = tiny_problem(4, 2, 51);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let cfg = quick_cfg(
            vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            2,
        );
        let alg = MultiLevelMinimax::new(cfg.clone());
        assert_eq!(alg.num_groups(&fp), 2);
        let r = alg.run(&fp, 3);
        // slots per round = τ1 τ2 τ_region = 8.
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 4 * 8);
        // One cloud round per training round.
        assert_eq!(r.comm.cloud_rounds(), 4);
        // p over regions (2 of them), still a distribution.
        assert_eq!(r.final_p.len(), 2);
        let sum: f32 = r.final_p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn five_layer_runs() {
        // 8 edges → regions of 2 → super-regions of 2 regions = 2 groups.
        let sc = tiny_problem(8, 2, 52);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let cfg = quick_cfg(
            vec![
                UpperLevel {
                    group_size: 2,
                    tau: 2,
                }, // super-region level
                UpperLevel {
                    group_size: 2,
                    tau: 3,
                }, // region level
            ],
            2,
        );
        let alg = MultiLevelMinimax::new(cfg);
        assert_eq!(alg.num_groups(&fp), 2);
        let r = alg.run(&fp, 5);
        // slots/round = 2·2·3·2 = 24.
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 4 * 24);
        assert_eq!(r.comm.cloud_rounds(), 4);
    }

    #[test]
    fn no_upper_levels_matches_hierminimax_structure() {
        // With upper = [], groups are single edges and the protocol is the
        // plain 3-layer HierMinimax: same slot accounting and cloud rounds.
        let sc = tiny_problem(3, 2, 53);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let cfg = quick_cfg(vec![], 2);
        let alg = MultiLevelMinimax::new(cfg);
        assert_eq!(alg.num_groups(&fp), 3);
        let r = alg.run(&fp, 7);
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 4 * 4);
        assert_eq!(r.comm.cloud_rounds(), 4);
        assert_eq!(r.final_p.len(), 3);
    }

    #[test]
    fn training_reduces_objective() {
        let sc = tiny_problem(4, 2, 54);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let w0 = vec![0.0; fp.num_params()];
        let uniform = vec![0.5_f32, 0.5];
        let mut cfg = quick_cfg(
            vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            2,
        );
        cfg.rounds = 25;
        let r = MultiLevelMinimax::new(cfg).run(&fp, 9);
        // Compare the group-mixture objective before/after.
        let group_loss = |w: &[f32]| -> f64 {
            let l = fp.edge_losses(w);
            0.5 * (l[0] + l[1]) / 2.0 + 0.5 * (l[2] + l[3]) / 2.0
        };
        let before = {
            let _ = &uniform;
            group_loss(&w0)
        };
        assert!(group_loss(&r.final_w) < before * 0.8);
    }

    #[test]
    fn deterministic_across_parallelism() {
        let sc = tiny_problem(4, 2, 55);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let mut cfg = quick_cfg(
            vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            2,
        );
        cfg.opts.trace = false;
        let a = MultiLevelMinimax::new(cfg.clone()).run(&fp, 11);
        cfg.opts.parallelism = Parallelism::Rayon;
        let b = MultiLevelMinimax::new(cfg).run(&fp, 11);
        assert_eq!(a.final_w, b.final_w);
        assert_eq!(a.final_p, b.final_p);
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn indivisible_grouping_panics() {
        let sc = tiny_problem(3, 2, 56);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let cfg = quick_cfg(
            vec![UpperLevel {
                group_size: 2,
                tau: 2,
            }],
            1,
        );
        let _ = MultiLevelMinimax::new(cfg).run(&fp, 0);
    }
}
