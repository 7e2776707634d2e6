//! The round driver: Algorithm 1's round, run once for all eight
//! algorithms.
//!
//! The cloud samples *units* and weighs them with `p`. A unit is an edge
//! (HierMinimax, HierFAVG), a MultiLevel group of edges, or a
//! single client that talks to the cloud directly (the two-layer
//! baselines FedAvg, FedProx, q-FedAvg, Stochastic-AFL and DRFA, run with
//! `τ2 = 1` and no edge hop). Every algorithm runs the same lifecycle per
//! cloud round `k`, in this order:
//!
//! 1. **Churn** — membership transitions at the round boundary.
//! 2. **Phase-1 draw** — the sampled units and, for the minimax methods,
//!    the checkpoint index.
//! 3. **Cloud-link faults** — outage filter, broadcast, downlink retries.
//! 4. **Block phase** — `τ2` client-edge blocks on every participating
//!    edge, MultiLevel's recursive tree of them, or `τ1` local steps on
//!    every participating client.
//! 5. **Uplink** — upload retries; the reports that arrive are folded.
//! 6. **Stale-round check** — the `max_stale_rounds` abort.
//! 7. **Aggregation** — eqs. 5–6, or the baseline's own fold.
//! 8. **Phase 2** — the projected ascent step on `p` (eq. 7), when the
//!    algorithm has one.
//! 9. **Accounting** — fault, adversary and quarantine deltas, `round_end`.
//! 10. **Evaluation**, then the **checkpoint**.
//!
//! Four closed policies carry every difference between the algorithms:
//! the Phase-1 [`Sampler`], the [`Blocks`] phase, the cloud's [`Fold`]
//! and an optional [`Dual`] step. [`Method`]'s run checks its
//! `(Method, Hyper, RunOpts)`, maps it to a [`RoundSpec`] and calls
//! [`run`].

use super::churnctl::ChurnCtl;
use super::hier_common::{
    multiplicities, quantize_delta, robust_reduce_into, run_edge_blocks, EdgeBlockOutput,
    QuarantineCtl,
};
use super::multilevel::{subtree_update, UpperLevel};
use super::{qffl, IterateAverage, Method, Opt, RunError, RunOpts, RunResult, WeightUpdateModel};
use crate::checkpoint::{CheckpointCtx, Extras, Resume};
use crate::history::{History, RoundRecord};
use crate::localsgd::estimate_loss;
use crate::metrics::{evaluate, EvalReport};
use crate::problem::FederatedProblem;
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_data::Dataset;
use hm_optim::sgd::projected_ascent_step;
use hm_optim::ProjectionOp;
use hm_simnet::sampling::{sample_checkpoint, sample_edges_uniform, sample_edges_weighted};
use hm_simnet::{
    CommMeter, FaultInjector, FaultKind, FaultStats, Link, MsgChannel, Quantizer, QuarantineStats,
};
use hm_telemetry::{model_digest, Phase, Profiler, Telemetry, TelemetryEvent};

/// How the cloud picks the round's Phase-1 participants.
pub(crate) enum Sampler {
    /// `m` draws ∝ `p` with replacement (HierMinimax, MultiLevel over
    /// groups, Stochastic-AFL and DRFA over clients).
    Weighted(usize),
    /// `m` distinct units, uniform over those still up (HierFAVG, FedAvg,
    /// FedProx, q-FedAvg).
    Uniform(usize),
}

impl Sampler {
    /// Reports the cloud uses per round; Phase 2 samples as many.
    fn m(&self) -> usize {
        match *self {
            Sampler::Weighted(m) | Sampler::Uniform(m) => m,
        }
    }
}

/// What a participant runs between the broadcast and its upload.
pub(crate) enum Blocks<'a> {
    /// `τ2` client-edge blocks per edge.
    Edges { tau2: usize },
    /// MultiLevel's tree: each sampled group runs [`subtree_update`] over
    /// the `upper` levels (top first) down to `τ2` edge blocks.
    Tree {
        tau2: usize,
        upper: &'a [UpperLevel],
    },
    /// The two-layer baselines: each unit is one client that runs `τ1`
    /// local steps with proximal coefficient `mu` and uploads to the
    /// cloud directly — one block, no edge hop, every exchange on the
    /// client-cloud link.
    Clients { mu: f32 },
}

impl Blocks<'_> {
    /// Client-edge blocks per edge-level aggregation.
    pub(super) fn tau2(&self) -> usize {
        match *self {
            Blocks::Edges { tau2, .. } | Blocks::Tree { tau2, .. } => tau2,
            Blocks::Clients { .. } => 1,
        }
    }

    /// The intermediate levels above the edges, top first.
    pub(super) fn upper(&self) -> &[UpperLevel] {
        match *self {
            Blocks::Edges { .. } | Blocks::Clients { .. } => &[],
            Blocks::Tree { upper, .. } => upper,
        }
    }

    /// Whether the units are single clients.
    pub(super) fn clients(&self) -> bool {
        matches!(self, Blocks::Clients { .. })
    }

    /// Proximal coefficient of every local step (FedProx; `0` for plain
    /// SGD).
    pub(super) fn mu(&self) -> f32 {
        match *self {
            Blocks::Clients { mu } => mu,
            Blocks::Edges { .. } | Blocks::Tree { .. } => 0.0,
        }
    }

    /// Edges under one sampled unit: 1, or `Π group_size` for a group.
    fn edges_per_unit(&self) -> usize {
        self.upper().iter().map(|u| u.group_size).product()
    }

    /// Client-edge blocks on a round's longest path: `τ2` times `Π τ_l`
    /// up the tree.
    fn blocks_per_round(&self) -> usize {
        self.tau2() * self.upper().iter().map(|u| u.tau).product::<usize>()
    }

    /// The checkpoint index: one coordinate per upper level, then
    /// `(c1, c2)`, drawn in that order from the round's checkpoint stream.
    /// A client unit has no block to index: its checkpoint is `[c1]`.
    fn draw_checkpoint(&self, seed: u64, k: usize, tau1: usize) -> Vec<usize> {
        let mut rng = StreamRng::for_key(StreamKey::new(seed, Purpose::Checkpoint, k as u64, 0));
        let mut cp: Vec<usize> = self.upper().iter().map(|u| rng.below(u.tau)).collect();
        let (c1, c2) = sample_checkpoint(tau1, self.tau2(), &mut rng);
        if self.clients() {
            cp.push(c1);
        } else {
            cp.extend([c1, c2]);
        }
        cp
    }
}

/// How the cloud folds the reports that arrived into `w`. The weighted
/// folds renormalize over the arrivals; under the default
/// [`hm_tensor::Aggregator::Mean`] they are the plain weighted averages,
/// and a robust rule replaces them (unweighted, by construction).
#[derive(Clone, Copy)]
pub(crate) enum Fold {
    /// Weighted by multiplicity in the draw (the minimax methods;
    /// fault-free, the denominator is exactly `m`).
    Multiplicity,
    /// Weighted by the unit's training-data volume, its current members'
    /// shards (HierFAVG over edges, FedAvg's `|D_n|` over clients).
    Volume,
    /// The plain average (FedProx).
    Plain,
    /// The q-FFL server step over the reporters' models and their losses
    /// at the broadcast model on a `loss_batch` mini-batch (q-FedAvg).
    /// Not an average, so it takes no aggregation rule.
    Qffl { q: f64, loss_batch: usize },
}

/// Phase 2: the projected ascent step on the unit weights `p` (eq. 7);
/// over clients this is the two-layer minimax baselines' `q`.
#[derive(Clone, Copy)]
pub(crate) struct Dual {
    pub eta_p: f32,
    /// Mini-batch size of each client's loss estimate.
    pub loss_batch: usize,
    /// Which model the losses are estimated on.
    pub model: WeightUpdateModel,
}

/// One run: the shared hyper-parameters and the four policies.
pub(crate) struct RoundSpec<'a> {
    /// The method: its name is the snapshot identity and the `run_start`
    /// name, and its table says which options it honours.
    pub method: Method,
    pub rounds: usize,
    pub tau1: usize,
    pub eta_w: f32,
    pub batch_size: usize,
    /// Upload codec, applied client → edge inside the blocks and edge →
    /// cloud here. The two-layer baselines have none (`Exact`).
    pub quantizer: Quantizer,
    pub opts: &'a RunOpts,
    pub sampler: Sampler,
    pub blocks: Blocks<'a>,
    pub fold: Fold,
    pub dual: Option<Dual>,
}

/// One run in progress: the problem, the spec, the cloud's view of the
/// network (fault oracle, meter, telemetry, profiler), the run's
/// membership view and quarantine pass, its checkpoint context, and the
/// shapes derived from the spec. The lifecycle steps are its methods, and
/// the block phase ([`run_edge_blocks`], [`subtree_update`]) reads it;
/// [`run`] holds the state that carries across rounds.
pub(super) struct Driver<'a> {
    pub(super) problem: &'a FederatedProblem,
    pub(super) seed: u64,
    pub(super) spec: RoundSpec<'a>,
    /// Fault oracle deciding per-block client crashes and straggler fates
    /// (keyed streams, so deterministic and independent of execution
    /// order) and the cloud-link faults.
    pub(super) fault: FaultInjector,
    pub(super) meter: CommMeter,
    pub(super) tel: &'a Telemetry,
    pub(super) prof: &'a Profiler,
    /// The run's membership view; an all-zero plan never changes it.
    pub(super) churn: ChurnCtl,
    /// Update-norm quarantine, inert at z = 0 and where the method does
    /// not honour it.
    pub(super) quarantine: QuarantineCtl,
    ckpt: CheckpointCtx<'a>,
    /// Model dimension.
    pub(super) d: usize,
    /// Edges under one sampled unit: 1, or a top-level group's edges.
    per_unit: usize,
    /// Units the cloud samples and `p` weighs: edges, top-level groups or
    /// clients.
    n_units: usize,
    /// Time slots per round.
    slots: usize,
    /// The link between a unit and the cloud: edge-cloud, or client-cloud
    /// for client units.
    link: Link,
}

/// `v[i]` for each index `i` in `idx`.
fn pick(v: &[usize], idx: &[usize]) -> Vec<usize> {
    idx.iter().map(|&i| v[i]).collect()
}

/// Run `spec` on `problem`: the round lifecycle of the module docs, from
/// a fresh start or from `spec.opts.checkpoint.resume`. Returns the run's
/// result, or the typed abort.
pub(crate) fn run(
    problem: &FederatedProblem,
    seed: u64,
    spec: RoundSpec<'_>,
) -> Result<RunResult, RunError> {
    let mut dv = Driver::new(problem, seed, spec);
    let opts = dv.spec.opts;
    let (rounds, dual) = (dv.spec.rounds, dv.spec.dual);
    let (d, slots, tel, prof) = (dv.d, dv.slots, dv.tel, dv.prof);
    // Client-edge traffic spreads over every edge area the sampled units
    // span; simulated time divides it among them.
    let edge_areas = (dv.spec.sampler.m() * dv.per_unit).max(1);
    let cap = opts.max_stale_rounds as u64;

    let mut w = problem
        .model
        .init_params(&mut StreamRng::for_key(StreamKey::new(
            seed,
            Purpose::Init,
            0,
            0,
        )));
    let mut p = vec![1.0 / dv.n_units as f32; dv.n_units];
    // Without a dual step, the history and the snapshot carry the uniform
    // edge weights.
    let uniform_p = problem.initial_p();
    let mut avg_w = IterateAverage::new(d);
    let mut avg_p = IterateAverage::new(dv.n_areas());
    let mut history = History::default();
    let mut faults_prev = FaultStats::default();
    let mut adv_prev = QuarantineStats::default();
    // Consecutive rounds in which no report arrived.
    let mut stale: u64 = 0;

    // Resuming restores every piece of round-boundary state; all
    // randomness is keyed by (seed, round), so re-entering the loop at
    // `start` replays the uninterrupted run bit for bit.
    let resumed = dv.resume();
    let mut comm_prev = dv.meter.snapshot();
    let run_timer = tel.timer();
    dv.ckpt.preamble(resumed.as_ref(), dv.n_areas());
    opts.emit_aggregator_summary();
    let start = match resumed {
        Some(r) => {
            w = r.w;
            if dual.is_some() {
                p = r.p;
            }
            (avg_w, avg_p, history) = (r.avg_w, r.avg_p, r.history);
            (faults_prev, adv_prev, stale) = (r.faults, r.adversary, r.stale_rounds);
            r.next_round
        }
        None => 0,
    };

    for k in start..rounds {
        tel.record(|| TelemetryEvent::RoundStart { round: k });
        let round_timer = tel.timer();
        let phase1_timer = tel.timer();
        let round_span = prof.start();
        // Churn resolves before any draw: leaves, edge failures (orphans
        // re-homed), joins, and `p` re-projected onto the surviving
        // simplex. HierFAVG has no weights to re-project. The quarantine
        // table grows to cover every client that can report.
        let fair: &mut [f32] = if dual.is_some() { &mut p } else { &mut [] };
        dv.churn.begin_round(problem, k, fair, tel);
        dv.quarantine.ensure_clients(dv.churn.id_bound());

        // ---- Phase 1: model update ---------------------------------------
        let (sampled, cp) = dv.draw(k, &p);
        let (participants, counts) = dv.broadcast(k, &sampled, cp.as_deref());
        // Round-start model, kept for the `RoundStart` ablation.
        let w_start = match dual {
            Some(Dual {
                model: WeightUpdateModel::RoundStart,
                ..
            }) => w.clone(),
            _ => Vec::new(),
        };
        dv.quarantine.begin_round();
        let mut outputs = dv.block_phase(k, &w, &participants, cp.as_deref());
        dv.quarantine.observe(&dv.churn, &outputs);
        let reported = dv.upload(k, &w, &mut outputs, cp.is_some());
        // A round in which no report arrived leaves the model untouched;
        // `max_stale_rounds` caps the tolerated streak.
        if reported.is_empty() {
            stale += 1;
            if cap > 0 && stale > cap {
                return Err(RunError::StaleRoundsExceeded {
                    round: k,
                    consecutive: stale as usize,
                    limit: opts.max_stale_rounds,
                });
            }
        } else {
            stale = 0;
        }
        let w_checkpoint = dv.aggregate(k, &mut w, &outputs, &reported, &counts, cp.is_some());
        tel.record(|| {
            let elapsed_s = phase1_timer.elapsed_s();
            let (w_digest, nonfinite) = model_digest(&w);
            TelemetryEvent::Phase1Done {
                round: k,
                w_digest,
                nonfinite,
                elapsed_s,
            }
        });

        // ---- Phase 2: unit weight update ---------------------------------
        if let Some(dual) = dual {
            let w_eval: &[f32] = match dual.model {
                WeightUpdateModel::RandomCheckpoint => &w_checkpoint,
                WeightUpdateModel::FinalModel => &w,
                WeightUpdateModel::RoundStart => &w_start,
            };
            dv.phase2(k, dual, w_eval, &participants, &mut p);
        }

        // ---- Accounting --------------------------------------------------
        // Per-round deltas only when a fault class or the adversary is
        // live, so zero-rate plans emit nothing.
        let fstats = dv.fault.stats();
        if dv.fault.is_active() {
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
        let adv_now = dv.fault.adversary_stats();
        if dv.fault.has_adversary() {
            let ad = adv_now.since(&adv_prev);
            tel.record(|| TelemetryEvent::Adversary {
                round: k,
                corrupted: ad.corrupted_updates,
                attack: opts.fault.attack.as_str().to_string(),
            });
        }
        dv.quarantine.end_round(k, &dv.fault, tel);
        adv_prev = adv_now;
        let comm_now = dv.meter.snapshot();
        let slots_done = (k + 1) * slots;
        tel.record(|| TelemetryEvent::RoundEnd {
            round: k,
            slots: slots_done,
            comm_delta: comm_now.since(&comm_prev),
            comm_total: comm_now,
            sim_s: tel.sim_seconds(&comm_now, slots_done, edge_areas)
                + tel.fault_seconds(fstats.straggler_slots, fstats.backoff_s),
            elapsed_s: round_timer.elapsed_s(),
        });
        comm_prev = comm_now;
        prof.record(tel, Phase::Round, Some(k), None, round_span);

        // ---- Evaluation and checkpoint -----------------------------------
        // The snapshot keeps the unit weights `p`; the history and the
        // averages see them per edge area.
        let (p_snap, p_areas) = match dual {
            Some(_) => (&p, dv.areas(&p)),
            None => (&uniform_p, uniform_p.clone()),
        };
        avg_w.add(&w);
        avg_p.add(&p_areas);
        let eval = opts.should_eval(k, rounds).then(|| dv.evaluate(k, &w));
        history.push(RoundRecord {
            round: k,
            slots_done,
            comm: comm_now,
            p: p_areas,
            eval,
        });
        let extras = || Extras {
            // Read the counters fresh: `end_round` has added this round's
            // quarantine sentences since `adv_now`.
            quarantine: (dv.quarantine.active() || dv.fault.has_adversary())
                .then(|| (dv.quarantine.state(), dv.fault.adversary_stats())),
            churn: dv.churn.active().then(|| dv.churn.checkpoint_bytes(stale)),
            stale_rounds: (cap > 0 && !dv.churn.active()).then_some(stale),
        };
        let ckpt = &dv.ckpt;
        ckpt.after_round(
            k, &w, p_snap, &avg_w, &avg_p, &history, comm_now, fstats, extras,
        );
    }

    let comm_final = dv.meter.snapshot();
    let faults_final = dv.fault.stats();
    let total_slots = rounds * slots;
    prof.emit_summary(tel);
    tel.record(|| TelemetryEvent::RunEnd {
        rounds,
        slots: total_slots,
        comm_total: comm_final,
        sim_s: tel.sim_seconds(&comm_final, total_slots, edge_areas)
            + tel.fault_seconds(faults_final.straggler_slots, faults_final.backoff_s),
        elapsed_s: run_timer.elapsed_s(),
    });
    tel.flush();

    let result = RunResult {
        final_w: w,
        avg_w: avg_w.mean(),
        final_p: dv.areas(&p),
        avg_p: avg_p.mean(),
        history,
        comm: comm_final,
        quarantine: dv.fault.adversary_stats(),
        faults: faults_final,
        churn: dv.churn.stats(),
    };
    Ok(result)
}

impl<'a> Driver<'a> {
    /// The driver of `spec` on `problem`, with a fresh fault oracle,
    /// meter, membership view and quarantine pass.
    pub(super) fn new(problem: &'a FederatedProblem, seed: u64, spec: RoundSpec<'a>) -> Self {
        let opts = spec.opts;
        let clients = spec.blocks.clients();
        let per_unit = spec.blocks.edges_per_unit();
        let n_clients = problem.topology().total_clients();
        let z = if spec.method.honours(Opt::Quarantine) {
            opts.quarantine_z
        } else {
            0.0
        };
        Driver {
            problem,
            seed,
            // An all-zero plan makes no RNG draws.
            fault: FaultInjector::new(seed, opts.fault.clone()),
            meter: CommMeter::new(),
            tel: &opts.telemetry,
            prof: &opts.profile,
            churn: if clients {
                ChurnCtl::clients(problem)
            } else {
                ChurnCtl::new(problem, &opts.churn, seed)
            },
            quarantine: QuarantineCtl::new(z, opts.quarantine_window, n_clients),
            ckpt: CheckpointCtx::new(opts, problem, spec.method.name(), seed, spec.rounds),
            d: problem.num_params(),
            per_unit,
            n_units: if clients {
                n_clients
            } else {
                problem.num_edges() / per_unit
            },
            slots: spec.tau1 * spec.blocks.blocks_per_round(),
            link: if clients {
                Link::ClientCloud
            } else {
                Link::EdgeCloud
            },
            spec,
        }
    }

    /// Restore the resume snapshot, if the run has one: decode it against
    /// the run ([`CheckpointCtx::resume`]), restore the meter, the fault
    /// and adversary counters and both controllers from it, and return
    /// the rest of its state for [`run`] to assign. `None` for a fresh
    /// run.
    ///
    /// # Panics
    /// Panics with `cannot resume: …` when the snapshot does not fit the
    /// run: the one failure site of a resume.
    pub(super) fn resume(&mut self) -> Option<Resume> {
        let opts: &RunOpts = self.spec.opts;
        let snap = opts.checkpoint.resume.as_deref()?;
        // Without a dual step the snapshot holds the uniform edge weights.
        let p = if self.spec.dual.is_some() {
            self.n_units
        } else {
            self.problem.num_edges()
        };
        // Before round 0 the horizon table has one entry per client, or
        // none without a quarantine pass.
        let (areas, quarantined) = (self.n_areas(), self.quarantine.state().len());
        let mut r = self
            .ckpt
            .resume(snap, p, areas, quarantined, self.churn.active())
            .unwrap_or_else(|e| panic!("cannot resume: {e}"));
        self.meter.restore(&r.comm);
        self.fault.restore(&r.faults);
        self.fault.restore_adversary(&r.adversary);
        self.quarantine.restore(std::mem::take(&mut r.until));
        if let Some(churn) = r.churn.take() {
            self.churn.restore(self.problem, churn);
        }
        Some(r)
    }

    /// The edges under unit `g`: the edge itself, or a top-level group's
    /// `per_unit` contiguous edges.
    fn edges_of(&self, g: usize) -> std::ops::Range<usize> {
        g * self.per_unit..(g + 1) * self.per_unit
    }

    /// Areas the run reports weights and accuracy for: the edge areas of
    /// client units, the units themselves otherwise.
    fn n_areas(&self) -> usize {
        if self.spec.blocks.clients() {
            self.problem.num_edges()
        } else {
            self.n_units
        }
    }

    /// The unit weights `p` per area: a client unit's weight is summed
    /// into its edge area's, in client order.
    fn areas(&self, p: &[f32]) -> Vec<f32> {
        if !self.spec.blocks.clients() {
            return p.to_vec();
        }
        let topo = self.problem.topology();
        let mut areas = vec![0.0_f32; topo.num_edges()];
        for (c, &q) in p.iter().enumerate() {
            areas[topo.edge_of(c)] += q;
        }
        areas
    }

    /// Client `client`'s loss `f_n(w; ξ_n)` on a `batch` mini-batch drawn
    /// from its round-`k` loss-estimation stream.
    fn client_loss(&self, k: usize, client: usize, data: &Dataset, w: &[f32], batch: usize) -> f64 {
        let mut rng = StreamRng::for_key(StreamKey::new(
            self.seed,
            Purpose::LossEstSampling,
            k as u64,
            client as u64,
        ));
        estimate_loss(&*self.problem.model, data, w, batch, &mut rng)
    }

    /// Evaluate `w` on every edge's test data after round `k`, recording
    /// the `eval` event.
    fn evaluate(&self, k: usize, w: &[f32]) -> EvalReport {
        let eval_timer = self.prof.start();
        let e = evaluate(self.problem, w, self.spec.opts.parallelism);
        self.prof
            .record(self.tel, Phase::Eval, Some(k), None, eval_timer);
        self.tel.record(|| TelemetryEvent::Eval {
            round: k,
            average: e.average,
            worst: e.worst,
            variance_pp: e.variance_pp,
            per_edge_accuracy: e.per_edge_accuracy.clone(),
        });
        e
    }

    /// `m` distinct units, uniform over those still up (`m` clamped to
    /// their count): a unit is up when all its edges are, since a dead
    /// edge can never report. Returns the pool size, the clamped `m` and
    /// the draw.
    fn sample_up(&self, m: usize, rng: &mut StreamRng) -> (usize, usize, Vec<usize>) {
        let up: Vec<usize> = (0..self.n_units)
            .filter(|&g| self.edges_of(g).all(|e| self.churn.is_up(e)))
            .collect();
        let m = m.min(up.len());
        let idx = sample_edges_uniform(up.len(), m, rng);
        (up.len(), m, pick(&up, &idx))
    }

    /// Record one edge-level fault in the telemetry stream.
    fn record_fault(&self, round: usize, edge: usize, kind: FaultKind, attempts: usize) {
        self.tel.record(|| TelemetryEvent::Fault {
            round,
            kind: kind.as_str().into(),
            level: 0,
            edge,
            attempts,
        });
    }

    /// Indices of the `units` that are up in round `k`. An out unit never
    /// hears from the cloud and is recorded as an outage.
    fn up(&self, k: usize, units: &[usize]) -> Vec<usize> {
        (0..units.len())
            .filter(|&i| {
                let out = self.fault.edge_out(k as u64, 0, units[i]);
                if out {
                    self.record_fault(k, units[i], FaultKind::EdgeOutage, 0);
                }
                !out
            })
            .collect()
    }

    /// The indices `i` of the `(i, unit)` pairs whose message on `channel`
    /// arrives within the retry budget; a unit in `held` already holds it
    /// and is kept without a transmission. Every attempt transmits
    /// `floats`; first attempts are the caller's to meter, retries are
    /// metered here (broadcasts downlink, gathers uplink).
    fn delivered(
        &self,
        k: usize,
        channel: MsgChannel,
        units: impl Iterator<Item = (usize, usize)>,
        held: &[usize],
        floats: u64,
    ) -> Vec<usize> {
        let mut kept = Vec::with_capacity(units.size_hint().1.unwrap_or(0));
        let mut retries = 0u64;
        let retry_span = self.prof.start();
        for (i, e) in units {
            if held.contains(&e) {
                kept.push(i);
                continue;
            }
            let dv = self.fault.deliver(k as u64, 0, channel, e);
            retries += u64::from(dv.attempts - 1);
            if !dv.delivered {
                self.record_fault(k, e, FaultKind::MsgGaveUp, dv.attempts as usize);
            } else if dv.attempts > 1 {
                self.record_fault(k, e, FaultKind::MsgRetried, dv.attempts as usize);
            }
            if dv.delivered {
                kept.push(i);
            }
        }
        if retries > 0 {
            if channel == MsgChannel::Phase1Up {
                self.meter.record_gather(self.link, floats, retries);
            } else {
                self.meter.record_broadcast(self.link, floats, retries);
            }
            self.prof
                .record(self.tel, Phase::FaultRetry, Some(k), None, retry_span);
        }
        kept
    }

    /// The Phase-1 draw: the sampled units and, for the minimax methods,
    /// the checkpoint index.
    fn draw(&self, k: usize, p: &[f32]) -> (Vec<usize>, Option<Vec<usize>>) {
        let sampling_span = self.prof.start();
        let mut rng = StreamRng::for_key(StreamKey::new(
            self.seed,
            Purpose::EdgeSampling,
            k as u64,
            0,
        ));
        let sampled = match self.spec.sampler {
            Sampler::Weighted(m) => {
                let p64: Vec<f64> = p.iter().map(|&x| f64::from(x).max(0.0)).collect();
                sample_edges_weighted(&p64, m, &mut rng)
            }
            Sampler::Uniform(m) => self.sample_up(m, &mut rng).2,
        };
        // Only its base coordinates `(c1, c2)` are reported. A client
        // unit captures a checkpoint only when Phase 2 evaluates it.
        let cp = self
            .spec
            .dual
            .filter(|dual| {
                !self.spec.blocks.clients() || dual.model == WeightUpdateModel::RandomCheckpoint
            })
            .map(|_| {
                self.spec
                    .blocks
                    .draw_checkpoint(self.seed, k, self.spec.tau1)
            });
        let c1c2 = cp.as_deref().map(base_checkpoint);
        self.tel.record(|| TelemetryEvent::Phase1Sampled {
            round: k,
            edges: sampled.clone(),
            checkpoint: c1c2,
        });
        self.prof.record(
            self.tel,
            Phase::Phase1Sampling,
            Some(k),
            None,
            sampling_span,
        );
        (sampled, cp)
    }

    /// Cloud → sampled units: the model and the checkpoint index, once per
    /// distinct unit. An out unit never receives or reports; a unit whose
    /// downlink is lost after retries sits the round out. Returns the
    /// participants and their multiplicities in the draw.
    fn broadcast(
        &self,
        k: usize,
        sampled: &[usize],
        cp: Option<&[usize]>,
    ) -> (Vec<usize>, Vec<usize>) {
        let (mut distinct, mut counts) = multiplicities(sampled);
        if self.spec.blocks.clients() && self.quarantine.active() {
            // A benched client unit is sent nothing: like a client that
            // was never sampled, it draws no fault stream. Its skipped
            // upload is counted.
            let free: Vec<usize> = (0..distinct.len())
                .filter(|&i| !self.quarantine.benches(distinct[i], k))
                .collect();
            self.fault
                .add_excluded((distinct.len() - free.len()) as u64);
            (distinct, counts) = (pick(&distinct, &free), pick(&counts, &free));
        }
        let payload = self.d as u64 + cp.map_or(0, |c| c.len() as u64);
        let up = self.up(k, &distinct);
        let (active, active_counts) = (pick(&distinct, &up), pick(&counts, &up));
        self.meter
            .record_broadcast(self.link, payload, active.len() as u64);
        let pairs = active.iter().copied().enumerate();
        let got = self.delivered(k, MsgChannel::Phase1Down, pairs, &[], payload);
        (pick(&active, &got), pick(&active_counts, &got))
    }

    /// The block phase on every participant, from the broadcast model `w`;
    /// one output per participant, in order.
    fn block_phase(
        &self,
        k: usize,
        w: &[f32],
        participants: &[usize],
        cp: Option<&[usize]>,
    ) -> Vec<EdgeBlockOutput> {
        let outputs: Vec<EdgeBlockOutput> = match self.spec.blocks {
            Blocks::Edges { .. } | Blocks::Clients { .. } => {
                run_edge_blocks(self, w, participants, 0, k, cp.map(base_checkpoint))
            }
            Blocks::Tree { .. } => {
                let cp = cp.expect("the tree runs with a checkpoint");
                participants
                    .iter()
                    .map(|&g| {
                        let edges: Vec<usize> = self.edges_of(g).collect();
                        let (w_final, checkpoint) =
                            subtree_update(self, w, &edges, 0, cp, k * self.n_units + g);
                        EdgeBlockOutput {
                            edge: g,
                            w_final,
                            checkpoint,
                            client_norms: Vec::new(),
                            uploads: true,
                        }
                    })
                    .collect()
            }
        };
        debug_assert!(
            outputs.iter().zip(participants).all(|(o, &e)| o.edge == e),
            "edge outputs out of order"
        );
        outputs
    }

    /// Units → cloud: the final model, and the checkpoint model when
    /// `with_cp`, encoded by the upload codec as deltas against the
    /// broadcast model `w` the cloud already holds. Every attempt
    /// transmits the full payload. A unit with nothing to upload (a
    /// client unit whose client crashed or missed the deadline) sends
    /// nothing and draws no uplink stream. Returns the indices of the
    /// outputs that arrived.
    fn upload(
        &self,
        k: usize,
        w: &[f32],
        outputs: &mut [EdgeBlockOutput],
        with_cp: bool,
    ) -> Vec<usize> {
        let q = self.spec.quantizer;
        if q != Quantizer::Exact {
            for o in outputs.iter_mut() {
                let mut qrng = StreamRng::for_key(StreamKey::new(
                    self.seed,
                    Purpose::Quantize,
                    k as u64,
                    1_000_000 + o.edge as u64,
                ));
                quantize_delta(&q, w, &mut o.w_final, &mut qrng);
                if let Some(cp) = o.checkpoint.as_mut() {
                    quantize_delta(&q, w, cp, &mut qrng);
                }
            }
        }
        // q-FedAvg's clients send their loss at `w` along with the model.
        let loss = u64::from(matches!(self.spec.fold, Fold::Qffl { .. }));
        let wire = (1 + u64::from(with_cp)) * q.wire_floats(self.d) + loss;
        let sent = || {
            outputs
                .iter()
                .enumerate()
                .filter(|(_, o)| o.uploads)
                .map(|(i, o)| (i, o.edge))
        };
        let reported = self.delivered(k, MsgChannel::Phase1Up, sent(), &[], wire);
        self.meter
            .record_gather(self.link, wire, sent().count() as u64);
        self.meter.record_round(self.link);
        reported
    }

    /// Cloud aggregation (eqs. 5–6) of the reported final models into `w`
    /// under the spec's [`Fold`]; returns the aggregated checkpoint model
    /// when `with_cp` (empty otherwise).
    ///
    /// A round with nothing to fold (no report arrived, or only units with
    /// no members and so no data volume) keeps `w^(k)` bit for bit, and
    /// its checkpoint model is `w^(k)`.
    fn aggregate(
        &self,
        k: usize,
        w: &mut [f32],
        outputs: &[EdgeBlockOutput],
        reported: &[usize],
        counts: &[usize],
        with_cp: bool,
    ) -> Vec<f32> {
        let churn = &self.churn;
        let agg_span = self.prof.start();
        // Each report's pull on a weighted fold, normalized below: its
        // multiplicity in the draw, or its unit's current members' shards,
        // so re-homed data keeps its pull under churn.
        let mut weights: Option<Vec<f64>> = match self.spec.fold {
            Fold::Multiplicity => Some(reported.iter().map(|&i| counts[i] as f64).collect()),
            Fold::Volume => Some(
                reported
                    .iter()
                    .map(|&i| {
                        churn
                            .members_of(outputs[i].edge)
                            .iter()
                            .map(|&gid| churn.data(self.problem, gid).len())
                            .sum::<usize>() as f64
                    })
                    .collect(),
            ),
            Fold::Plain | Fold::Qffl { .. } => None,
        };
        let total: Option<f64> = weights.as_ref().map(|pull| pull.iter().sum());
        if let (Some(weights), Some(total)) = (weights.as_mut(), total) {
            weights.iter_mut().for_each(|x| *x /= total);
        }
        let finals: Vec<&[f32]> = reported
            .iter()
            .map(|&i| outputs[i].w_final.as_slice())
            .collect();
        let mut w_checkpoint = Vec::new();
        if reported.is_empty() || total.is_some_and(|t| t <= 0.0) {
            if with_cp {
                w_checkpoint = w.to_vec();
            }
        } else if let Fold::Qffl { q, loss_batch } = self.spec.fold {
            // Each reporter's loss F_k at the broadcast model; the floor
            // keeps F_k^(q−1) finite for q < 1.
            let w_now: &[f32] = w;
            let losses: Vec<f64> = self.spec.opts.parallelism.map_ref(reported, |&i| {
                let client = outputs[i].edge;
                let data = churn.data(self.problem, client);
                self.client_loss(k, client, data, w_now, loss_batch)
                    .max(1e-10)
            });
            qffl::server_step(self.problem, w, &finals, &losses, q, self.spec.eta_w);
        } else {
            let agg = &self.spec.opts.aggregator;
            let base_w = if agg.needs_base() {
                w.to_vec()
            } else {
                Vec::new()
            };
            let mut agg_scratch: Vec<f32> = Vec::new();
            robust_reduce_into(
                agg,
                &finals,
                weights.as_deref(),
                &base_w,
                &mut agg_scratch,
                w,
            );
            if with_cp {
                let cps: Vec<&[f32]> = reported
                    .iter()
                    .map(|&i| {
                        outputs[i]
                            .checkpoint
                            .as_deref()
                            .expect("checkpoints captured")
                    })
                    .collect();
                w_checkpoint = vec![0.0_f32; self.d];
                robust_reduce_into(
                    agg,
                    &cps,
                    weights.as_deref(),
                    &base_w,
                    &mut agg_scratch,
                    &mut w_checkpoint,
                );
            }
        }
        self.prof
            .record(self.tel, Phase::Aggregation, Some(k), None, agg_span);
        w_checkpoint
    }

    /// Phase 2 (eq. 7): sample a uniform unit set `U^(k)`, estimate each
    /// live unit's loss on `w_eval`, and take the projected ascent step
    /// on `p` with the unbiased estimate `v_g = (pool/m)·f_g`.
    fn phase2(&self, k: usize, dual: Dual, w_eval: &[f32], participants: &[usize], p: &mut [f32]) {
        let (problem, d, churn) = (self.problem, self.d, &self.churn);
        let phase2_timer = self.tel.timer();
        let dual_span = self.prof.start();
        let mut u_rng = StreamRng::for_key(StreamKey::new(
            self.seed,
            Purpose::LossEstSampling,
            k as u64,
            u64::MAX,
        ));
        let (pool, m, u_set) = self.sample_up(self.spec.sampler.m(), &mut u_rng);
        // Cloud → U^(k): the evaluation model. A unit that is out, or
        // whose downlink is lost after retries, contributes v = 0: the
        // estimate shrinks toward zero instead of aborting the update.
        // Under `RoundStart`, a client unit that took part in Phase 1
        // already holds the evaluation model and is not sent it again.
        let holders = match (&self.spec.blocks, dual.model) {
            (Blocks::Clients { .. }, WeightUpdateModel::RoundStart) => participants,
            _ => &[],
        };
        let live = pick(&u_set, &self.up(k, &u_set));
        let fresh = live.iter().filter(|g| !holders.contains(g)).count();
        self.meter
            .record_broadcast(self.link, d as u64, fresh as u64);
        let pairs = live.iter().copied().enumerate();
        let got = self.delivered(k, MsgChannel::Phase2Down, pairs, holders, d as u64);
        let est = pick(&live, &got);
        if !self.spec.blocks.clients() {
            // Each estimating edge relays the model to its current members
            // and their losses back, so the meter and the estimate see the
            // same population.
            let est_clients: u64 = est
                .iter()
                .flat_map(|&g| self.edges_of(g))
                .map(|e| churn.members_of(e).len() as u64)
                .sum();
            self.meter
                .record_broadcast(Link::ClientEdge, d as u64, est_clients);
            self.meter.record_gather(Link::ClientEdge, 1, est_clients);
            self.meter.record_round(Link::ClientEdge);
        }
        // f_g = the mean of f_n(w_eval; ξ_n) over the unit's clients, in
        // edge order; 0 for a unit with none.
        let losses: Vec<f64> = self.spec.opts.parallelism.map_ref(&est, |&g| {
            let (mut total, mut n) = (0.0_f64, 0_usize);
            for e in self.edges_of(g) {
                for &client in churn.members_of(e) {
                    let data = churn.data(problem, client);
                    total += self.client_loss(k, client, data, w_eval, dual.loss_batch);
                    n += 1;
                }
            }
            if n == 0 {
                0.0
            } else {
                total / n as f64
            }
        });
        // Scalar losses ride the reliable control channel, so every
        // estimating unit reports. Phase 2 shares the round's cloud
        // exchange window: metered, but not a separate cloud round.
        self.meter.record_gather(self.link, 1, est.len() as u64);

        let mut v = vec![0.0_f32; self.n_units];
        let scale = pool as f64 / m as f64;
        for (&g, &f) in est.iter().zip(&losses) {
            v[g] = (scale * f) as f32;
        }
        // Theorem 1's step applies η_p × (slots per round). The two-layer
        // baselines' `q` lives on the simplex over clients.
        let domain = if self.spec.blocks.clients() {
            &ProjectionOp::Simplex
        } else {
            &problem.p_domain
        };
        projected_ascent_step(p, &v, dual.eta_p * self.slots as f32, domain);
        // The projection may hand mass back to a dead edge.
        churn.reproject_weights(p);
        self.prof
            .record(self.tel, Phase::DualUpdate, Some(k), None, dual_span);
        self.tel.record(|| TelemetryEvent::DualUpdate {
            round: k,
            edges: est.clone(),
            losses: losses.clone(),
            p: self.areas(p),
            elapsed_s: phase2_timer.elapsed_s(),
        });
    }
}

/// The base coordinates `(c1, c2)` of a checkpoint index; a client
/// unit's `[c1]` is `(c1, 0)`, its one block.
fn base_checkpoint(cp: &[usize]) -> (usize, usize) {
    match *cp {
        [.., c1, c2] => (c1, c2),
        [c1] => (c1, 0),
        [] => unreachable!("a checkpoint index has at least one coordinate"),
    }
}
