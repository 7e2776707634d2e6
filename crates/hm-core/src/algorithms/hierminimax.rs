//! HierMinimax — Algorithm 1 of the paper.
//!
//! Per training round `k`:
//!
//! **Phase 1 (model update).** The cloud samples `m_E` edges i.i.d. by the
//! current weights `p^(k)` and a checkpoint index `(c1, c2)` uniform on
//! `[τ1] × [τ2]`, and broadcasts `w^(k)` and `(c1, c2)`. Each sampled edge
//! runs `ModelUpdate`: `τ2` client-edge aggregation blocks of `τ1` local
//! projected-SGD steps (eq. 4), capturing the checkpoint model after `c1`
//! steps of block `c2`. Edges upload `w_e^{(k,τ2)}` and the checkpoint; the
//! cloud averages both (eqs. 5–6).
//!
//! **Phase 2 (weight update).** The cloud samples a *uniform* edge set
//! `U^(k)` of size `m_E`, broadcasts the checkpoint model, and collects
//! mini-batch loss estimates `f_e`. It forms the importance-weighted
//! estimate `v_e = (N_E/m_E)·f_e` for sampled edges (zero otherwise) —
//! unbiased for `∇_p F(w^{(k,c2,c1)}, ·)` — and updates
//! `p^{(k+1)} = Π_P(p^(k) + η_p τ1 τ2 v)` (eq. 7).

use super::churnctl::ChurnCtl;
use super::hier_common::{
    multiplicities, robust_reduce_into, run_edge_blocks, EdgeBlockParams, QuarantineCtl,
};
use super::{finish_round, Algorithm, IterateAverage, RunError, RunOpts, RunResult};
use crate::checkpoint::{emit_preamble, CheckpointCtx, ResumedRun};
use crate::history::History;
use crate::localsgd::estimate_loss;
use crate::problem::FederatedProblem;
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_optim::sgd::projected_ascent_step;
use hm_simnet::sampling::{sample_checkpoint, sample_edges_uniform, sample_edges_weighted};
use hm_simnet::trace::{Event, Trace};
use hm_simnet::{CommMeter, FaultInjector, FaultKind, FaultStats, Link, MsgChannel, Quantizer};
use hm_telemetry::{Phase, Telemetry, TelemetryEvent};

/// Record one edge-level fault occurrence in both the protocol trace and
/// the telemetry stream (shared by all hierarchical run loops).
pub(crate) fn record_edge_fault(
    trace: &Trace,
    tel: &Telemetry,
    round: usize,
    level: usize,
    edge: usize,
    kind: FaultKind,
    attempts: usize,
) {
    trace.record(|| Event::EdgeFault {
        round,
        level,
        edge,
        kind,
        attempts,
    });
    tel.record(|| TelemetryEvent::Fault {
        round,
        kind: kind.as_str().into(),
        level,
        edge,
        attempts,
    });
}

/// Split a delivered-message outcome into its fault record (if any).
pub(crate) fn delivery_fault_kind(delivered: bool, attempts: u32) -> Option<FaultKind> {
    if !delivered {
        Some(FaultKind::MsgGaveUp)
    } else if attempts > 1 {
        Some(FaultKind::MsgRetried)
    } else {
        None
    }
}

/// Which model Phase 2 estimates losses on — the paper's randomly-indexed
/// checkpoint, or two biased ablation variants used by the
/// `ablation_checkpoint` bench to show why the checkpoint matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightUpdateModel {
    /// The paper's mechanism: the aggregated model at the uniformly random
    /// checkpoint index `(c1, c2)` — an unbiased sample of the round's
    /// iterate trajectory.
    #[default]
    RandomCheckpoint,
    /// Ablation: the round's *final* aggregated model `w^(k+1)` (biased
    /// toward the end of the trajectory).
    FinalModel,
    /// Ablation: the round's *starting* model `w^(k)` (one full round
    /// stale).
    RoundStart,
}

/// Configuration of a HierMinimax run.
#[derive(Debug, Clone)]
pub struct HierMinimaxConfig {
    /// Training rounds `K`.
    pub rounds: usize,
    /// Local SGD steps per client-edge aggregation (`τ1`).
    pub tau1: usize,
    /// Client-edge aggregations per round (`τ2`).
    pub tau2: usize,
    /// Participating edges per phase (`m_E`).
    pub m_edges: usize,
    /// Model learning rate `η_w`.
    pub eta_w: f32,
    /// Weight learning rate `η_p` (the update applies `η_p τ1 τ2`).
    pub eta_p: f32,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Mini-batch size for Phase-2 loss estimation (a larger batch lowers
    /// the variance σ_p² of the weight-gradient estimate).
    pub loss_batch: usize,
    /// Which model Phase 2 evaluates (ablation hook; the paper's mechanism
    /// is the default).
    pub weight_update_model: WeightUpdateModel,
    /// Uplink codec for model uploads (the Hier-Local-QSGD extension;
    /// `Quantizer::Exact` reproduces the paper's algorithm).
    pub quantizer: Quantizer,
    /// Per-block client dropout probability (crash/straggler simulation;
    /// `0.0` = the paper's failure-free protocol).
    pub dropout: f32,
    /// Heterogeneous operating rates (the "flexible communication
    /// frequencies" the paper highlights, cf. Castiglia et al. \[5\]):
    /// when set, edge `e` performs `tau2_per_edge[e]` client-edge
    /// aggregations per round instead of the uniform `tau2`. Slot
    /// accounting uses the maximum (the synchronous round ends when the
    /// slowest edge finishes).
    pub tau2_per_edge: Option<Vec<usize>>,
    /// Shared runner options.
    pub opts: RunOpts,
}

impl Default for HierMinimaxConfig {
    fn default() -> Self {
        Self {
            rounds: 50,
            tau1: 2,
            tau2: 2,
            m_edges: 2,
            eta_w: 0.05,
            eta_p: 0.05,
            batch_size: 4,
            loss_batch: 16,
            weight_update_model: WeightUpdateModel::default(),
            quantizer: Quantizer::Exact,
            dropout: 0.0,
            tau2_per_edge: None,
            opts: RunOpts::default(),
        }
    }
}

/// The HierMinimax algorithm (Algorithm 1).
#[derive(Debug, Clone)]
pub struct HierMinimax {
    cfg: HierMinimaxConfig,
}

impl HierMinimax {
    /// Build a runner from a config.
    pub fn new(cfg: HierMinimaxConfig) -> Self {
        assert!(cfg.rounds > 0 && cfg.tau1 > 0 && cfg.tau2 > 0);
        assert!(cfg.m_edges > 0, "need at least one participating edge");
        assert!(cfg.batch_size > 0);
        Self { cfg }
    }

    /// The configuration of this runner.
    pub fn config(&self) -> &HierMinimaxConfig {
        &self.cfg
    }
}

impl Algorithm for HierMinimax {
    fn name(&self) -> &'static str {
        "HierMinimax"
    }

    fn run(&self, problem: &FederatedProblem, seed: u64) -> RunResult {
        self.try_run(problem, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_run(&self, problem: &FederatedProblem, seed: u64) -> Result<RunResult, RunError> {
        let cfg = &self.cfg;
        let n_edges = problem.num_edges();
        let n0 = problem.clients_per_edge();
        assert!(
            cfg.m_edges <= n_edges,
            "m_edges {} exceeds {} edges",
            cfg.m_edges,
            n_edges
        );
        if let Some(rates) = &cfg.tau2_per_edge {
            assert_eq!(rates.len(), n_edges, "one tau2 per edge");
            assert!(rates.iter().all(|&t| t > 0), "tau2 rates must be positive");
        }
        let max_tau2 = cfg
            .tau2_per_edge
            .as_ref()
            .map_or(cfg.tau2, |r| r.iter().copied().max().expect("non-empty"));
        let d = problem.num_params();
        let meter = CommMeter::new();
        let trace = cfg.opts.make_trace();
        let mut history = History::default();
        let mut avg_w = IterateAverage::new(d);
        let mut avg_p = IterateAverage::new(n_edges);

        let mut w = problem
            .model
            .init_params(&mut StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::Init,
                0,
                0,
            )));
        let mut p = problem.initial_p();
        // Fault oracle: the run's plan with the legacy `dropout` knob
        // folded into `client_crash`. An all-zero plan makes no RNG draws,
        // so this path is bit-identical to the fault-free seed runs.
        let fault = FaultInjector::new(seed, cfg.opts.fault.clone().with_dropout(cfg.dropout));
        let mut faults_prev = FaultStats::default();
        let mut adv_prev = hm_simnet::QuarantineStats::default();
        // Update-norm quarantine pass (inert at the default z = 0).
        let mut quarantine = QuarantineCtl::new(
            cfg.opts.quarantine_z,
            cfg.opts.quarantine_window,
            problem.topology().total_clients(),
        );
        // Membership churn (inert at the default all-zero plan, in which
        // case every churn branch below is skipped and the loop is
        // bit-identical to the pre-churn build).
        let mut churn = ChurnCtl::new(problem, &cfg.opts.churn, seed);
        let churn_active = churn.active();
        // Consecutive all-failed (stale) rounds; `max_stale_rounds > 0`
        // turns the streak into a typed abort.
        let mut stale_rounds: u64 = 0;

        // Resuming restores every piece of round-boundary state; all
        // randomness is keyed by (seed, round), so re-entering the loop at
        // `start_round` replays the uninterrupted run bit for bit.
        let resumed = ResumedRun::from_opts(&cfg.opts, "HierMinimax", seed, cfg.rounds);
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
            "HierMinimax",
            cfg.rounds,
            n_edges,
            d,
            seed,
        );
        cfg.opts.emit_aggregator_summary();
        let ckpt = CheckpointCtx::new(&cfg.opts, "HierMinimax", seed, cfg.rounds, true);

        let prof = &cfg.opts.profile;
        for k in start_round..cfg.rounds {
            tel.record(|| TelemetryEvent::RoundStart { round: k });
            let round_timer = tel.timer();
            let phase1_timer = tel.timer();
            let round_span = prof.start();
            // Membership churn is resolved at the round boundary, before
            // any Phase-1 draw: leaves, edge failures (with orphan
            // re-homing), joins — and, when an edge died, the fairness
            // weights re-projected onto the surviving simplex so the
            // Phase-1 sampler below never picks a dead edge.
            churn.begin_round(problem, k, &mut p, &mut quarantine, &trace, tel);
            let sampling_span = prof.start();
            // ---- Phase 1: model parameter update --------------------------
            let mut e_rng =
                StreamRng::for_key(StreamKey::new(seed, Purpose::EdgeSampling, k as u64, 0));
            let p64: Vec<f64> = p.iter().map(|&x| f64::from(x).max(0.0)).collect();
            let sampled = sample_edges_weighted(&p64, cfg.m_edges, &mut e_rng);
            trace.record(|| Event::Phase1EdgesSampled {
                round: k,
                edges: sampled.clone(),
            });

            let mut c_rng =
                StreamRng::for_key(StreamKey::new(seed, Purpose::Checkpoint, k as u64, 0));
            let (c1, c2) = sample_checkpoint(cfg.tau1, cfg.tau2, &mut c_rng);
            trace.record(|| Event::CheckpointSampled { round: k, c1, c2 });
            // Under heterogeneous rates each edge resamples its own block
            // index; the shared (c1, c2) reported here is the base draw.
            tel.record(|| TelemetryEvent::Phase1Sampled {
                round: k,
                edges: sampled.clone(),
                checkpoint: Some((c1, c2)),
            });
            prof.record(tel, Phase::Phase1Sampling, Some(k), None, sampling_span);

            // Cloud → sampled edges: the global model and the (scalar)
            // checkpoint index. Duplicated samples transmit once. A
            // sampled edge that is out this round never receives or
            // reports anything; the cloud proceeds with the others.
            let (distinct, counts) = multiplicities(&sampled);
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
            trace.record(|| Event::CloudBroadcast {
                round: k,
                recipients: active.clone(),
            });

            // Phase-1 downlink deliveries: each retry retransmits the full
            // payload (metered); an edge whose downlink never arrives sits
            // the round out.
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

            // Round-start model, kept for the RoundStart ablation variant.
            let w_start = if cfg.weight_update_model == WeightUpdateModel::RoundStart {
                w.clone()
            } else {
                Vec::new()
            };

            quarantine.begin_round();
            let outputs = match &cfg.tau2_per_edge {
                None => run_edge_blocks(EdgeBlockParams {
                    problem,
                    w_start: &w,
                    edges: &participants,
                    tau1: cfg.tau1,
                    tau2: cfg.tau2,
                    eta_w: cfg.eta_w,
                    batch_size: cfg.batch_size,
                    checkpoint: Some((c1, c2)),
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
                }),
                Some(rates) => {
                    // Heterogeneous rates: each edge runs its own block
                    // count and samples its own uniform checkpoint block
                    // (clamping a shared index would bias slow edges toward
                    // late blocks and never reach fast edges' extra blocks).
                    // Local (client-edge) rounds are metered per edge here,
                    // since each edge genuinely runs its own aggregations.
                    let mut outs = Vec::with_capacity(participants.len());
                    for &e in &participants {
                        let tau2_e = rates[e];
                        let c2_e = StreamRng::for_key(StreamKey::new(
                            seed,
                            Purpose::Checkpoint,
                            k as u64,
                            1 + e as u64,
                        ))
                        .below(tau2_e);
                        let mut o = run_edge_blocks(EdgeBlockParams {
                            problem,
                            w_start: &w,
                            edges: std::slice::from_ref(&e),
                            tau1: cfg.tau1,
                            tau2: tau2_e,
                            eta_w: cfg.eta_w,
                            batch_size: cfg.batch_size,
                            checkpoint: Some((c1, c2_e)),
                            quantizer: cfg.quantizer,
                            fault: &fault,
                            level: 0,
                            record_rounds: false,
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
                        outs.push(o.pop().expect("one edge per call"));
                    }
                    // Concurrent edges share synchronisation windows: the
                    // round's local sync count is the slowest participating
                    // edge's block count, not the per-edge sum (zero when
                    // every sampled edge failed before computing).
                    let max_sampled = participants.iter().map(|&e| rates[e]).max().unwrap_or(0);
                    for _ in 0..max_sampled {
                        meter.record_round(Link::ClientEdge);
                    }
                    outs
                }
            };

            debug_assert!(
                outputs.iter().zip(&participants).all(|(o, &e)| o.edge == e),
                "edge outputs out of order"
            );
            quarantine.observe(problem, churn.roster(), &outputs);

            // Edges → cloud: final model + checkpoint model (quantized
            // when the codec is active), one round.
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
                    if let Some(cp) = o.checkpoint.as_mut() {
                        super::hier_common::quantize_delta(&cfg.quantizer, &w, cp, &mut qrng);
                    }
                }
            }
            // Phase-1 uplink deliveries: every attempt transmits the full
            // payload (metered below: first attempts in the base gather,
            // retries here); only delivered reports reach the aggregation.
            let wire_up = 2 * cfg.quantizer.wire_floats(d);
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

            // Cloud aggregation over the surviving reports (eqs. 5–6):
            // duplicates in the with-replacement sample weight their edge,
            // and the weights renormalize over the reports that actually
            // arrived (fault-free, the denominator is exactly m_E).
            // Stale-round accounting: a round where no sampled edge
            // reported leaves the model untouched. `max_stale_rounds`
            // caps the tolerated consecutive streak; one more aborts with
            // a typed error instead of silently treading water forever.
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

            let agg_span = prof.start();
            let mut w_checkpoint = vec![0.0_f32; d];
            if reported.is_empty() {
                // Every sampled edge failed: the round is stale. The cloud
                // keeps w^(k) bit-identically and Phase 2 evaluates it.
                w_checkpoint.copy_from_slice(&w);
            } else {
                let m_reported: usize = reported.iter().map(|&i| part_counts[i]).sum();
                let weights: Vec<f64> = reported
                    .iter()
                    .map(|&i| part_counts[i] as f64 / m_reported as f64)
                    .collect();
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
                let cps: Vec<&[f32]> = reported
                    .iter()
                    .map(|&i| {
                        outputs[i]
                            .checkpoint
                            .as_deref()
                            .expect("phase 1 captures checkpoints")
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
            trace.record(|| Event::GlobalModel {
                round: k,
                w: w.clone(),
            });
            tel.record(|| TelemetryEvent::Phase1Done {
                round: k,
                elapsed_s: phase1_timer.elapsed_s(),
            });
            // Ablation hook: optionally estimate Phase-2 losses on a biased
            // model instead of the unbiased random checkpoint.
            let w_phase2: &[f32] = match cfg.weight_update_model {
                WeightUpdateModel::RandomCheckpoint => &w_checkpoint,
                WeightUpdateModel::FinalModel => &w,
                WeightUpdateModel::RoundStart => &w_start,
            };

            // ---- Phase 2: edge weight update ------------------------------
            let phase2_timer = tel.timer();
            let dual_span = prof.start();
            let mut u_rng = StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::LossEstSampling,
                k as u64,
                u64::MAX,
            ));
            // Under churn, U^(k) is uniform over the *surviving* edges
            // (m clamped to their count) — a permanently failed edge can
            // never report a loss, so keeping it in the pool would bias
            // the estimate toward zero on every survivor.
            let (p2_pool, p2_m, u_set) = if churn_active {
                let up = churn.up_edges();
                let m = cfg.m_edges.min(up.len());
                let idx = sample_edges_uniform(up.len(), m, &mut u_rng);
                (up.len(), m, idx.into_iter().map(|i| up[i]).collect())
            } else {
                (
                    n_edges,
                    cfg.m_edges,
                    sample_edges_uniform(n_edges, cfg.m_edges, &mut u_rng),
                )
            };
            trace.record(|| Event::Phase2EdgesSampled {
                round: k,
                edges: u_set.clone(),
            });

            // Cloud → U^(k): checkpoint model; edges relay to clients. An
            // edge that is out, or whose downlink is lost after retries,
            // contributes v_e = 0 (graceful degradation: the estimate
            // shrinks toward zero instead of aborting the update).
            let mut live: Vec<usize> = Vec::with_capacity(u_set.len());
            for &e in &u_set {
                if fault.edge_out(k as u64, 0, e) {
                    record_edge_fault(&trace, tel, k, 0, e, FaultKind::EdgeOutage, 0);
                } else {
                    live.push(e);
                }
            }
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
            // Under churn the estimating population is each edge's
            // current member list (re-homed arrivals included, leavers
            // gone), so both the meter and the estimate see the same set.
            let est_clients: u64 = if churn_active {
                est.iter().map(|&e| churn.members_of(e).len() as u64).sum()
            } else {
                (est.len() * n0) as u64
            };
            meter.record_broadcast(Link::ClientEdge, d as u64, est_clients);

            let topo = problem.topology();
            let model = &problem.model;
            let churn_ref = &churn;
            let edge_losses: Vec<f64> = cfg.opts.parallelism.map_ref(&est, |&e| {
                // f_e = (1/N_0) Σ_n f_n(checkpoint; ξ_n).
                let mut total = 0.0_f64;
                if churn_active {
                    let members = churn_ref.members_of(e);
                    for &client in members {
                        let mut rng = StreamRng::for_key(StreamKey::new(
                            seed,
                            Purpose::LossEstSampling,
                            k as u64,
                            client as u64,
                        ));
                        total += estimate_loss(
                            &**model,
                            churn_ref.data(problem, client),
                            w_phase2,
                            cfg.loss_batch,
                            &mut rng,
                        );
                    }
                    if members.is_empty() {
                        0.0
                    } else {
                        total / members.len() as f64
                    }
                } else {
                    for c in 0..n0 {
                        let client = topo.client_id(e, c);
                        let mut rng = StreamRng::for_key(StreamKey::new(
                            seed,
                            Purpose::LossEstSampling,
                            k as u64,
                            client as u64,
                        ));
                        total += estimate_loss(
                            &**model,
                            problem.client_data(e, c),
                            w_phase2,
                            cfg.loss_batch,
                            &mut rng,
                        );
                    }
                    total / n0 as f64
                }
            });

            // Clients → edges: scalar losses; edges → cloud: scalar f_e.
            // Scalars ride the reliable control channel (loss injection
            // models the bulky model transfers), so every estimating edge
            // reports.
            meter.record_gather(Link::ClientEdge, 1, est_clients);
            meter.record_round(Link::ClientEdge);
            // Phase 2 piggybacks on the round's cloud exchange window: its
            // floats/messages are metered above, but it does not count as a
            // separate communication round (the paper's Table-1 complexity
            // is O(1) edge-cloud rounds per training round covering both
            // phases).
            meter.record_gather(Link::EdgeCloud, 1, est.len() as u64);

            // Unbiased gradient estimate v and projected ascent (eq. 7).
            let mut v = vec![0.0_f32; n_edges];
            let scale = p2_pool as f64 / p2_m as f64;
            for (&e, &fe) in est.iter().zip(&edge_losses) {
                v[e] = (scale * fe) as f32;
            }
            // Theorem 1's update applies η_p × (slots per round); under
            // heterogeneous rates the round spans τ1 · max τ2_e slots.
            let lr = cfg.eta_p * (cfg.tau1 * max_tau2) as f32;
            projected_ascent_step(&mut p, &v, lr, &problem.p_domain);
            // The domain projection may hand mass back to a dead edge;
            // re-project so p^{(k+1)} lives on the surviving simplex
            // (a no-op while every edge is up).
            churn.reproject_weights(&mut p);
            prof.record(tel, Phase::DualUpdate, Some(k), None, dual_span);
            trace.record(|| Event::WeightUpdate {
                round: k,
                p: p.clone(),
            });
            tel.record(|| TelemetryEvent::DualUpdate {
                round: k,
                edges: est.clone(),
                losses: edge_losses.clone(),
                p: p.clone(),
                elapsed_s: phase2_timer.elapsed_s(),
            });
            // Per-round fault deltas, only when a fault class is live — a
            // zero-rate plan leaves the stream byte-identical to fault-off.
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
            // Adversary delta + quarantine sweep, only when the plan has a
            // live adversary — zero-rate plans emit nothing (bit-compat).
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
            let slots_done = (k + 1) * cfg.tau1 * max_tau2;
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
                cfg.tau1 * max_tau2,
                comm_now,
                &w,
                p.clone(),
            );
            ckpt.after_round(k, &w, &p, &avg_w, &avg_p, &history, comm_now, fstats, {
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
            });
        }

        let comm_final = meter.snapshot();
        let faults_final = fault.stats();
        let total_slots = cfg.rounds * cfg.tau1 * max_tau2;
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
            final_p: p.clone(),
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

    fn quick_cfg(rounds: usize) -> HierMinimaxConfig {
        HierMinimaxConfig {
            rounds,
            tau1: 2,
            tau2: 2,
            m_edges: 2,
            eta_w: 0.1,
            eta_p: 0.1,
            batch_size: 2,
            loss_batch: 4,
            weight_update_model: WeightUpdateModel::default(),
            quantizer: Quantizer::Exact,
            dropout: 0.0,
            tau2_per_edge: None,
            opts: RunOpts {
                eval_every: 1,
                parallelism: Parallelism::Sequential,
                trace: true,
                ..Default::default()
            },
        }
    }

    #[test]
    fn runs_and_records_history() {
        let sc = tiny_problem(3, 2, 1);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let r = HierMinimax::new(quick_cfg(4)).run(&fp, 42);
        assert_eq!(r.history.rounds.len(), 4);
        assert_eq!(r.final_p.len(), 3);
        // p stays on the simplex.
        let sum: f32 = r.final_p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(r.final_p.iter().all(|&x| x >= -1e-6));
        // One cloud round per training round (Phases 1+2 share the
        // round's exchange window).
        assert_eq!(r.comm.cloud_rounds(), 4);
        // slots = rounds · τ1 τ2.
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 16);
    }

    #[test]
    fn deterministic_across_parallelism() {
        let sc = tiny_problem(3, 2, 2);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let mut cfg = quick_cfg(3);
        cfg.opts.trace = false;
        cfg.opts.parallelism = Parallelism::Sequential;
        let a = HierMinimax::new(cfg.clone()).run(&fp, 7);
        cfg.opts.parallelism = Parallelism::Rayon;
        let b = HierMinimax::new(cfg).run(&fp, 7);
        assert_eq!(a.final_w, b.final_w);
        assert_eq!(a.final_p, b.final_p);
    }

    #[test]
    fn seeds_change_the_run() {
        let sc = tiny_problem(3, 2, 2);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let a = HierMinimax::new(quick_cfg(3)).run(&fp, 1);
        let b = HierMinimax::new(quick_cfg(3)).run(&fp, 2);
        assert_ne!(a.final_w, b.final_w);
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
        let r = HierMinimax::new(cfg).run(&fp, 5);
        let after = fp.objective(&r.final_w, &p0);
        assert!(after < before * 0.8, "objective {before} -> {after}");
    }

    #[test]
    fn trace_contains_protocol_events() {
        use hm_simnet::trace::Event;
        let sc = tiny_problem(3, 2, 4);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let r = HierMinimax::new(quick_cfg(2)).run(&fp, 9);
        let events = r.trace.events();
        let phase1 = events
            .iter()
            .filter(|e| matches!(e, Event::Phase1EdgesSampled { .. }))
            .count();
        let phase2 = events
            .iter()
            .filter(|e| matches!(e, Event::Phase2EdgesSampled { .. }))
            .count();
        let cps = events
            .iter()
            .filter(|e| matches!(e, Event::CheckpointSampled { .. }))
            .count();
        let wu = events
            .iter()
            .filter(|e| matches!(e, Event::WeightUpdate { .. }))
            .count();
        assert_eq!(phase1, 2);
        assert_eq!(phase2, 2);
        assert_eq!(cps, 2);
        assert_eq!(wu, 2);
        // Checkpoint indices are within [τ1]×[τ2].
        for e in &events {
            if let Event::CheckpointSampled { c1, c2, .. } = e {
                assert!(*c1 < 2 && *c2 < 2);
            }
        }
    }

    #[test]
    fn weights_shift_toward_lossier_edges() {
        // With one class per edge and per-edge losses, after training the
        // weight of the worst edge should not be the smallest one.
        let sc = tiny_problem(4, 2, 6);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let mut cfg = quick_cfg(40);
        cfg.m_edges = 2;
        cfg.opts.eval_every = 0;
        let r = HierMinimax::new(cfg).run(&fp, 3);
        // p must have moved off the uniform start.
        let uniform = 1.0 / 4.0_f32;
        assert!(
            r.final_p.iter().any(|&x| (x - uniform).abs() > 1e-3),
            "p never moved: {:?}",
            r.final_p
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn too_many_edges_panics() {
        let sc = tiny_problem(2, 2, 1);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let mut cfg = quick_cfg(1);
        cfg.m_edges = 5;
        let _ = HierMinimax::new(cfg).run(&fp, 0);
    }
}
