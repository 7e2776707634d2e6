//! The hierarchical round driver: Algorithm 1's round, run once for
//! HierMinimax, HierFAVG, MultiLevel and Overselect.
//!
//! Every hierarchical algorithm runs the same lifecycle per cloud round
//! `k`, in this order:
//!
//! 1. **Churn** — membership transitions at the round boundary.
//! 2. **Phase-1 draw** — the sampled edges (or top-level groups) and, for
//!    the minimax methods, the checkpoint index.
//! 3. **Cloud-link faults** — outage filter, broadcast, downlink retries.
//! 4. **Block phase** — `τ2` client-edge blocks on every participating
//!    edge, or MultiLevel's recursive tree of them.
//! 5. **Uplink** — upload retries; the reports that arrive are averaged.
//! 6. **Stale-round check** — the `max_stale_rounds` abort.
//! 7. **Aggregation** — eqs. 5–6.
//! 8. **Phase 2** — the projected ascent step on `p` (eq. 7), when the
//!    algorithm has one.
//! 9. **Accounting** — fault, adversary and quarantine deltas, `round_end`.
//! 10. **Evaluation**, then the **checkpoint**.
//!
//! Three closed policies carry every difference between the algorithms:
//! the Phase-1 [`Sampler`], the [`Blocks`] phase and an optional [`Dual`]
//! step. Each algorithm's run method translates its config into a
//! [`RoundSpec`] and calls [`run`].

use super::churnctl::ChurnCtl;
use super::hier_common::{
    multiplicities, quantize_delta, robust_reduce_into, run_edge_blocks, EdgeBlockOutput,
    EdgeBlockParams, QuarantineCtl,
};
use super::multilevel::{subtree_update, UpperLevel};
use super::{finish_round, IterateAverage, RunError, RunOpts, RunResult, WeightUpdateModel};
use crate::checkpoint::{
    decode_quarantine, emit_preamble, encode_quarantine, CheckpointCtx, ResumedRun, CHURN_SECTION,
    QUARANTINE_SECTION,
};
use crate::history::History;
use crate::localsgd::estimate_loss;
use crate::problem::FederatedProblem;
use hm_checkpoint::format::{ByteReader, ByteWriter};
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_data::Dataset;
use hm_optim::sgd::projected_ascent_step;
use hm_simnet::sampling::{sample_checkpoint, sample_edges_uniform, sample_edges_weighted};
use hm_simnet::{
    CommMeter, FaultInjector, FaultKind, FaultStats, Link, MsgChannel, Quantizer, QuarantineStats,
};
use hm_telemetry::{model_digest, Phase, Profiler, Telemetry, TelemetryEvent};

/// Snapshot extras section holding the stale-round streak of a run with
/// a `max_stale_rounds` cap and no churn (the churn section carries it
/// otherwise). Uncapped runs do not write it.
const STALE_SECTION: &str = "stale_rounds";

/// Snapshot extras section holding [`StragglerClock`].
const OVERSELECT_SECTION: &str = "overselect";

/// How the cloud picks the round's Phase-1 participants and weighs their
/// reports.
pub(crate) enum Sampler<'a> {
    /// `m` draws ∝ `p` with replacement; the cloud average weights each
    /// report by its multiplicity (HierMinimax, and MultiLevel over
    /// groups).
    Weighted(usize),
    /// `m` distinct edges, uniform over those still up; the cloud average
    /// weights each report by its edge's training-data volume (HierFAVG).
    Uniform(usize),
    /// `m_over` draws ∝ `p`, of which the `m` on the fastest edges are
    /// kept and weighted as in [`Sampler::Weighted`] (Overselect). The
    /// run keeps a [`StragglerClock`].
    Fastest {
        m: usize,
        m_over: usize,
        seconds_per_slot: &'a [f64],
    },
}

impl Sampler<'_> {
    /// Reports the cloud uses per round; Phase 2 samples as many.
    fn m(&self) -> usize {
        match *self {
            Sampler::Weighted(m) | Sampler::Uniform(m) | Sampler::Fastest { m, .. } => m,
        }
    }
}

/// What a participant runs between the broadcast and its upload.
pub(crate) enum Blocks<'a> {
    /// `τ2` client-edge blocks per edge; with `rates`, edge `e` runs
    /// `rates[e]` blocks and draws its own checkpoint block.
    Edges {
        tau2: usize,
        rates: Option<&'a [usize]>,
    },
    /// MultiLevel's tree: each sampled group runs [`subtree_update`] over
    /// the `upper` levels (top first) down to `τ2` edge blocks.
    Tree {
        tau2: usize,
        upper: &'a [UpperLevel],
    },
}

impl Blocks<'_> {
    /// Client-edge blocks per edge-level aggregation.
    fn tau2(&self) -> usize {
        match *self {
            Blocks::Edges { tau2, .. } | Blocks::Tree { tau2, .. } => tau2,
        }
    }

    /// The intermediate levels above the edges, top first.
    fn upper(&self) -> &[UpperLevel] {
        match *self {
            Blocks::Edges { .. } => &[],
            Blocks::Tree { upper, .. } => upper,
        }
    }

    /// Edges under one sampled unit: 1, or `Π group_size` for a group.
    fn edges_per_unit(&self) -> usize {
        self.upper().iter().map(|u| u.group_size).product()
    }

    /// Client-edge blocks on a round's longest path: `τ2` (the largest
    /// rate under heterogeneous rates), times `Π τ_l` up the tree.
    fn blocks_per_round(&self) -> usize {
        let edge_blocks = match *self {
            Blocks::Edges {
                rates: Some(rates), ..
            } => rates.iter().copied().max().expect("one rate per edge"),
            _ => self.tau2(),
        };
        edge_blocks * self.upper().iter().map(|u| u.tau).product::<usize>()
    }

    /// The checkpoint index: one coordinate per upper level, then
    /// `(c1, c2)`, drawn in that order from the round's checkpoint stream.
    fn draw_checkpoint(&self, seed: u64, k: usize, tau1: usize) -> Vec<usize> {
        let mut rng = StreamRng::for_key(StreamKey::new(seed, Purpose::Checkpoint, k as u64, 0));
        let mut cp: Vec<usize> = self.upper().iter().map(|u| rng.below(u.tau)).collect();
        let (c1, c2) = sample_checkpoint(tau1, self.tau2(), &mut rng);
        cp.extend([c1, c2]);
        cp
    }
}

/// Phase 2: the weight update on `p` (eq. 7), or on the flat minimax
/// baselines' client weights `q` (`flat::Update::Minimax`).
#[derive(Clone, Copy)]
pub(crate) struct Dual {
    pub eta_p: f32,
    /// Mini-batch size of each client's loss estimate.
    pub loss_batch: usize,
    /// Which model the losses are estimated on.
    pub model: WeightUpdateModel,
}

/// One hierarchical run: the shared hyper-parameters and the three
/// policies.
pub(crate) struct RoundSpec<'a> {
    /// Snapshot identity and `run_start` name.
    pub name: &'static str,
    pub rounds: usize,
    pub tau1: usize,
    pub eta_w: f32,
    pub batch_size: usize,
    /// Upload codec, applied client → edge inside the blocks and edge →
    /// cloud here.
    pub quantizer: Quantizer,
    pub opts: &'a RunOpts,
    pub sampler: Sampler<'a>,
    pub blocks: Blocks<'a>,
    pub dual: Option<Dual>,
}

/// Over-selection's account: simulated seconds on the kept edges'
/// critical path, and the discarded draws. Zero for the other samplers.
#[derive(Default)]
pub(crate) struct StragglerClock {
    pub seconds: f64,
    pub discarded: usize,
}

/// One run in progress: the problem, the spec, the cloud's view of the
/// network (fault oracle, meter, telemetry, profiler) and the
/// shapes derived from the spec. The lifecycle steps are its methods;
/// [`run`] holds the state that carries across rounds.
struct Driver<'a> {
    problem: &'a FederatedProblem,
    seed: u64,
    spec: RoundSpec<'a>,
    fault: FaultInjector,
    meter: CommMeter,
    tel: &'a Telemetry,
    prof: &'a Profiler,
    /// Model dimension.
    d: usize,
    /// Edges under one sampled unit: 1, or a top-level group's edges.
    per_unit: usize,
    /// Units the cloud samples and `p` weighs: edges or top-level groups.
    n_units: usize,
    /// Time slots per round.
    slots: usize,
}

/// `v[i]` for each index `i` in `idx`.
fn pick(v: &[usize], idx: &[usize]) -> Vec<usize> {
    idx.iter().map(|&i| v[i]).collect()
}

/// Run `spec` on `problem`: the round lifecycle of the module docs, from
/// a fresh start or from `spec.opts.checkpoint.resume`. Returns the run's
/// result and its [`StragglerClock`], or the typed abort.
pub(crate) fn run(
    problem: &FederatedProblem,
    seed: u64,
    spec: RoundSpec<'_>,
) -> Result<(RunResult, StragglerClock), RunError> {
    let opts = spec.opts;
    if let Some(dual) = spec.dual {
        assert!(dual.loss_batch > 0, "loss_batch must be positive");
    }
    let per_unit = spec.blocks.edges_per_unit();
    let dv = Driver {
        problem,
        seed,
        // An all-zero plan makes no RNG draws.
        fault: FaultInjector::new(seed, opts.fault.clone()),
        meter: CommMeter::new(),
        tel: &opts.telemetry,
        prof: &opts.profile,
        d: problem.num_params(),
        per_unit,
        n_units: problem.num_edges() / per_unit,
        slots: spec.tau1 * spec.blocks.blocks_per_round(),
        spec,
    };
    let (d, n_units, slots, tel, prof) = (dv.d, dv.n_units, dv.slots, dv.tel, dv.prof);
    let spec = &dv.spec;
    // Client-edge traffic spreads over every edge area the sampled units
    // span; simulated time divides it among them.
    let edge_areas = (spec.sampler.m() * per_unit).max(1);
    let cap = opts.max_stale_rounds as u64;

    let mut w = problem
        .model
        .init_params(&mut StreamRng::for_key(StreamKey::new(
            seed,
            Purpose::Init,
            0,
            0,
        )));
    let mut p = vec![1.0 / n_units as f32; n_units];
    let mut avg_w = IterateAverage::new(d);
    let mut avg_p = IterateAverage::new(n_units);
    let mut history = History::default();
    let mut faults_prev = FaultStats::default();
    let mut adv_prev = QuarantineStats::default();
    // Update-norm quarantine (inert at z = 0). The tree reports no
    // per-client norms, so MultiLevel runs without it.
    let z = match spec.blocks {
        Blocks::Edges { .. } => opts.quarantine_z,
        Blocks::Tree { .. } => 0.0,
    };
    let mut quarantine = QuarantineCtl::new(
        z,
        opts.quarantine_window,
        problem.topology().total_clients(),
    );
    // The run's membership view; an all-zero plan never changes it.
    let mut churn = ChurnCtl::new(problem, &opts.churn, seed);
    // Consecutive rounds in which no report arrived.
    let mut stale: u64 = 0;
    let mut clock = StragglerClock::default();

    // Resuming restores every piece of round-boundary state; all
    // randomness is keyed by (seed, round), so re-entering the loop at
    // `start` replays the uninterrupted run bit for bit.
    let resumed = ResumedRun::from_opts(opts, spec.name, seed, spec.rounds);
    let start = match &resumed {
        Some(rr) => {
            w.clone_from(&rr.w);
            p.clone_from(&rr.p);
            avg_w = rr.avg_w.clone();
            avg_p = rr.avg_p.clone();
            history = rr.history.clone();
            dv.meter.restore(&rr.comm);
            dv.fault.restore(&rr.faults);
            faults_prev = rr.faults;
            if let Some(bytes) = rr.snap.extra(QUARANTINE_SECTION) {
                let (until, adv) =
                    decode_quarantine(bytes).unwrap_or_else(|e| panic!("cannot resume: {e}"));
                quarantine.restore(until);
                dv.fault.restore_adversary(&adv);
                adv_prev = adv;
            }
            if churn.active() {
                let bytes = rr.snap.extra(CHURN_SECTION).unwrap_or_else(|| {
                    panic!("cannot resume a churn run: snapshot has no churn section")
                });
                stale = churn.restore(problem, bytes);
            } else if let Some(bytes) = rr.snap.extra(STALE_SECTION) {
                stale = ByteReader::new(bytes)
                    .get_u64()
                    .expect("stale-round streak");
            }
            if let Sampler::Fastest { .. } = spec.sampler {
                let bytes = rr
                    .snap
                    .extra(OVERSELECT_SECTION)
                    .expect("overselect snapshot carries its clock section");
                let mut r = ByteReader::new(bytes);
                clock.seconds = r.get_f64().expect("clock");
                clock.discarded = r.get_u64().expect("discard count") as usize;
            }
            rr.start_round
        }
        None => 0,
    };
    let mut comm_prev = dv.meter.snapshot();

    let run_timer = tel.timer();
    emit_preamble(
        tel,
        resumed.as_ref(),
        spec.name,
        spec.rounds,
        n_units,
        d,
        seed,
    );
    opts.emit_aggregator_summary();
    let ckpt = CheckpointCtx::new(opts, spec.name, seed, spec.rounds);

    for k in start..spec.rounds {
        tel.record(|| TelemetryEvent::RoundStart { round: k });
        let round_timer = tel.timer();
        let phase1_timer = tel.timer();
        let round_span = prof.start();
        // Churn resolves before any draw: leaves, edge failures (orphans
        // re-homed), joins, and `p` re-projected onto the surviving
        // simplex. HierFAVG has no weights to re-project.
        let fair: &mut [f32] = if spec.dual.is_some() { &mut p } else { &mut [] };
        churn.begin_round(problem, k, fair, &mut quarantine, tel);

        // ---- Phase 1: model update ---------------------------------------
        let (sampled, cp, round_secs) = dv.draw(k, &p, &churn, &mut clock);
        let (participants, counts) = dv.broadcast(k, &sampled, cp.as_deref());
        // Round-start model, kept for the `RoundStart` ablation.
        let w_start = match spec.dual {
            Some(Dual {
                model: WeightUpdateModel::RoundStart,
                ..
            }) => w.clone(),
            _ => Vec::new(),
        };
        quarantine.begin_round();
        let mut outputs = dv.block_phase(k, &w, &participants, cp.as_deref(), &quarantine, &churn);
        quarantine.observe(&churn, &outputs);
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
        let w_checkpoint = dv.aggregate(
            k,
            &mut w,
            &outputs,
            &reported,
            &counts,
            &churn,
            cp.is_some(),
        );
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

        // ---- Phase 2: edge weight update ---------------------------------
        if let Some(dual) = spec.dual {
            let w_eval: &[f32] = match dual.model {
                WeightUpdateModel::RandomCheckpoint => &w_checkpoint,
                WeightUpdateModel::FinalModel => &w,
                WeightUpdateModel::RoundStart => &w_start,
            };
            dv.phase2(k, dual, w_eval, &churn, &mut p);
        }

        // ---- Accounting --------------------------------------------------
        // Per-round deltas only when a fault class or the adversary is
        // live, so zero-rate plans emit nothing.
        let fstats = dv.fault.stats();
        if dv.fault.is_active() {
            let fd = fstats.since(&faults_prev);
            if let Sampler::Fastest { .. } = spec.sampler {
                // Retry backoff extends the round directly; straggler
                // slots are priced at the critical path's rate.
                clock.seconds += fd.backoff_s + fd.straggler_slots * round_secs / slots as f64;
            }
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
        quarantine.end_round(k, &dv.fault, tel);
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
        finish_round(
            problem,
            opts,
            &mut history,
            &mut avg_w,
            &mut avg_p,
            k,
            spec.rounds,
            slots,
            comm_now,
            &w,
            p.clone(),
        );
        ckpt.after_round(k, &w, &p, &avg_w, &avg_p, &history, comm_now, fstats, {
            let mut extra = Vec::new();
            if quarantine.active() || dv.fault.has_adversary() {
                // Read the counters fresh: `end_round` has added this
                // round's quarantine sentences since `adv_now`.
                extra.push((
                    QUARANTINE_SECTION.to_string(),
                    encode_quarantine(quarantine.state(), &dv.fault.adversary_stats()),
                ));
            }
            if churn.active() {
                extra.push((CHURN_SECTION.to_string(), churn.checkpoint_bytes(stale)));
            } else if cap > 0 {
                let mut section = ByteWriter::new();
                section.put_u64(stale);
                extra.push((STALE_SECTION.to_string(), section.into_bytes()));
            }
            if let Sampler::Fastest { .. } = spec.sampler {
                let mut section = ByteWriter::new();
                section.put_f64(clock.seconds);
                section.put_u64(clock.discarded as u64);
                extra.push((OVERSELECT_SECTION.to_string(), section.into_bytes()));
            }
            extra
        });
    }

    let comm_final = dv.meter.snapshot();
    let faults_final = dv.fault.stats();
    let total_slots = spec.rounds * slots;
    prof.emit_summary(tel);
    tel.record(|| TelemetryEvent::RunEnd {
        rounds: spec.rounds,
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
        final_p: p,
        avg_p: avg_p.mean(),
        history,
        comm: comm_final,
        quarantine: dv.fault.adversary_stats(),
        faults: faults_final,
        churn: churn.stats(),
    };
    Ok((result, clock))
}

impl Driver<'_> {
    /// The edges under unit `g`: the edge itself, or a top-level group's
    /// `per_unit` contiguous edges.
    fn edges_of(&self, g: usize) -> std::ops::Range<usize> {
        g * self.per_unit..(g + 1) * self.per_unit
    }

    /// `m` distinct units, uniform over those still up (`m` clamped to
    /// their count): a unit is up when all its edges are, since a dead
    /// edge can never report. Returns the pool size, the clamped `m` and
    /// the draw.
    fn sample_up(
        &self,
        churn: &ChurnCtl,
        m: usize,
        rng: &mut StreamRng,
    ) -> (usize, usize, Vec<usize>) {
        let up: Vec<usize> = (0..self.n_units)
            .filter(|&g| self.edges_of(g).all(|e| churn.is_up(e)))
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

    /// Indices of the `units` whose message on `channel` arrives within
    /// the retry budget. Every attempt transmits `floats`; first attempts
    /// are the caller's to meter, retries are metered here (broadcasts
    /// downlink, gathers uplink).
    fn delivered(&self, k: usize, channel: MsgChannel, units: &[usize], floats: u64) -> Vec<usize> {
        let mut kept = Vec::with_capacity(units.len());
        let mut retries = 0u64;
        let retry_span = self.prof.start();
        for (i, &e) in units.iter().enumerate() {
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
                self.meter.record_gather(Link::EdgeCloud, floats, retries);
            } else {
                self.meter
                    .record_broadcast(Link::EdgeCloud, floats, retries);
            }
            self.prof
                .record(self.tel, Phase::FaultRetry, Some(k), None, retry_span);
        }
        kept
    }

    /// The Phase-1 draw: the sampled units and, for the minimax methods,
    /// the checkpoint index. Returns them with the kept edges' critical
    /// path in seconds (over-selection only; 0 otherwise).
    fn draw(
        &self,
        k: usize,
        p: &[f32],
        churn: &ChurnCtl,
        clock: &mut StragglerClock,
    ) -> (Vec<usize>, Option<Vec<usize>>, f64) {
        let sampling_span = self.prof.start();
        let mut rng = StreamRng::for_key(StreamKey::new(
            self.seed,
            Purpose::EdgeSampling,
            k as u64,
            0,
        ));
        let mut by_p = |m: usize| {
            let p64: Vec<f64> = p.iter().map(|&x| f64::from(x).max(0.0)).collect();
            sample_edges_weighted(&p64, m, &mut rng)
        };
        let mut round_secs = 0.0_f64;
        let sampled = match self.spec.sampler {
            Sampler::Weighted(m) => by_p(m),
            Sampler::Uniform(m) => self.sample_up(churn, m, &mut rng).2,
            Sampler::Fastest {
                m,
                m_over,
                seconds_per_slot,
            } => {
                let mut sampled = by_p(m_over);
                sampled.sort_by(|&a, &b| {
                    seconds_per_slot[a]
                        .partial_cmp(&seconds_per_slot[b])
                        .expect("finite speeds")
                });
                clock.discarded += sampled.len() - m;
                sampled.truncate(m);
                // The round lasts as long as the slowest kept edge.
                round_secs = sampled
                    .iter()
                    .map(|&e| seconds_per_slot[e] * self.slots as f64)
                    .fold(0.0_f64, f64::max);
                clock.seconds += round_secs;
                sampled
            }
        };
        // Only its base coordinates `(c1, c2)` are reported; under
        // heterogeneous rates each edge redraws its own block.
        let cp = self.spec.dual.map(|_| {
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
        (sampled, cp, round_secs)
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
        let (distinct, counts) = multiplicities(sampled);
        let payload = self.d as u64 + cp.map_or(0, |c| c.len() as u64);
        let up = self.up(k, &distinct);
        let (active, active_counts) = (pick(&distinct, &up), pick(&counts, &up));
        self.meter
            .record_broadcast(Link::EdgeCloud, payload, active.len() as u64);
        let got = self.delivered(k, MsgChannel::Phase1Down, &active, payload);
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
        quarantine: &QuarantineCtl,
        churn: &ChurnCtl,
    ) -> Vec<EdgeBlockOutput> {
        let c1c2 = cp.map(base_checkpoint);
        let leaf = EdgeBlockParams {
            problem: self.problem,
            w_start: w,
            edges: participants,
            tau1: self.spec.tau1,
            tau2: self.spec.blocks.tau2(),
            eta_w: self.spec.eta_w,
            batch_size: self.spec.batch_size,
            checkpoint: c1c2,
            quantizer: self.spec.quantizer,
            fault: &self.fault,
            level: 0,
            record_rounds: true,
            round: k,
            seed: self.seed,
            meter: &self.meter,
            par: self.spec.opts.parallelism,
            telemetry: self.tel,
            profile: self.prof,
            aggregator: self.spec.opts.aggregator,
            quarantined: quarantine.exclusions(),
            track_norms: quarantine.active(),
            churn,
        };
        let outputs: Vec<EdgeBlockOutput> = match self.spec.blocks {
            Blocks::Edges { rates: None, .. } => run_edge_blocks(leaf),
            Blocks::Edges {
                rates: Some(rates), ..
            } => {
                // Each edge runs its own block count and draws its own
                // uniform checkpoint block (clamping a shared index would
                // bias slow edges toward late blocks). Concurrent edges
                // share sync windows, so the round's client-edge rounds
                // are the slowest participant's block count.
                let outs = participants
                    .iter()
                    .map(|&e| {
                        let tau2 = rates[e];
                        let c2 = StreamRng::for_key(StreamKey::new(
                            self.seed,
                            Purpose::Checkpoint,
                            k as u64,
                            1 + e as u64,
                        ))
                        .below(tau2);
                        run_edge_blocks(EdgeBlockParams {
                            edges: std::slice::from_ref(&e),
                            tau2,
                            checkpoint: c1c2.map(|(c1, _)| (c1, c2)),
                            record_rounds: false,
                            ..leaf
                        })
                        .pop()
                        .expect("one edge per call")
                    })
                    .collect();
                let slowest = participants.iter().map(|&e| rates[e]).max().unwrap_or(0);
                self.meter.record_rounds(Link::ClientEdge, slowest as u64);
                outs
            }
            Blocks::Tree { upper, .. } => {
                let cp = cp.expect("the tree runs with a checkpoint");
                participants
                    .iter()
                    .map(|&g| {
                        let edges: Vec<usize> = self.edges_of(g).collect();
                        let (w_final, checkpoint) =
                            subtree_update(&leaf, upper, w, &edges, 0, cp, k * self.n_units + g);
                        EdgeBlockOutput {
                            edge: g,
                            w_final,
                            checkpoint,
                            client_norms: Vec::new(),
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
    /// transmits the full payload. Returns the indices of the outputs
    /// that arrived.
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
        let wire = (1 + u64::from(with_cp)) * q.wire_floats(self.d);
        let units: Vec<usize> = outputs.iter().map(|o| o.edge).collect();
        let reported = self.delivered(k, MsgChannel::Phase1Up, &units, wire);
        self.meter
            .record_gather(Link::EdgeCloud, wire, outputs.len() as u64);
        self.meter.record_round(Link::EdgeCloud);
        reported
    }

    /// Cloud aggregation (eqs. 5–6) of the reported final models into `w`;
    /// returns the aggregated checkpoint model when `with_cp` (empty
    /// otherwise).
    ///
    /// The weights renormalize over the reports that arrived: by
    /// multiplicity in a with-replacement draw (fault-free, the
    /// denominator is exactly `m`), by training-data volume in the uniform
    /// draw. A stale round keeps `w^(k)` bit for bit, and its checkpoint
    /// model is `w^(k)`.
    #[allow(clippy::too_many_arguments)]
    fn aggregate(
        &self,
        k: usize,
        w: &mut [f32],
        outputs: &[EdgeBlockOutput],
        reported: &[usize],
        counts: &[usize],
        churn: &ChurnCtl,
        with_cp: bool,
    ) -> Vec<f32> {
        let agg_span = self.prof.start();
        let weights: Option<Vec<f64>> = match self.spec.sampler {
            Sampler::Uniform(_) => {
                // An edge's volume is its current members' shards, so
                // re-homed data keeps its pull under churn.
                let sizes: Vec<f64> = reported
                    .iter()
                    .map(|&i| {
                        churn
                            .members_of(outputs[i].edge)
                            .iter()
                            .map(|&gid| churn.data(self.problem, gid).len())
                            .sum::<usize>() as f64
                    })
                    .collect();
                let total: f64 = sizes.iter().sum();
                (!reported.is_empty() && total > 0.0)
                    .then(|| sizes.iter().map(|s| s / total).collect())
            }
            _ => {
                let m_reported: usize = reported.iter().map(|&i| counts[i]).sum();
                (!reported.is_empty()).then(|| {
                    reported
                        .iter()
                        .map(|&i| counts[i] as f64 / m_reported as f64)
                        .collect()
                })
            }
        };
        let mut w_checkpoint = Vec::new();
        match &weights {
            None if with_cp => w_checkpoint = w.to_vec(),
            None => {}
            Some(weights) => {
                let agg = &self.spec.opts.aggregator;
                let base_w = if agg.needs_base() {
                    w.to_vec()
                } else {
                    Vec::new()
                };
                let mut agg_scratch: Vec<f32> = Vec::new();
                let finals: Vec<&[f32]> = reported
                    .iter()
                    .map(|&i| outputs[i].w_final.as_slice())
                    .collect();
                robust_reduce_into(agg, &finals, Some(weights), &base_w, &mut agg_scratch, w);
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
                        Some(weights),
                        &base_w,
                        &mut agg_scratch,
                        &mut w_checkpoint,
                    );
                }
            }
        }
        self.prof
            .record(self.tel, Phase::Aggregation, Some(k), None, agg_span);
        w_checkpoint
    }

    /// Phase 2 (eq. 7): sample a uniform unit set `U^(k)`, estimate each
    /// live unit's loss on `w_eval`, and take the projected ascent step
    /// on `p` with the unbiased estimate `v_g = (pool/m)·f_g`.
    fn phase2(&self, k: usize, dual: Dual, w_eval: &[f32], churn: &ChurnCtl, p: &mut [f32]) {
        let (problem, d) = (self.problem, self.d);
        let phase2_timer = self.tel.timer();
        let dual_span = self.prof.start();
        let mut u_rng = StreamRng::for_key(StreamKey::new(
            self.seed,
            Purpose::LossEstSampling,
            k as u64,
            u64::MAX,
        ));
        let (pool, m, u_set) = self.sample_up(churn, self.spec.sampler.m(), &mut u_rng);
        // Cloud → U^(k): the evaluation model, relayed to the clients. A
        // unit that is out, or whose downlink is lost after retries,
        // contributes v = 0: the estimate shrinks toward zero instead of
        // aborting the update.
        let live = pick(&u_set, &self.up(k, &u_set));
        self.meter
            .record_broadcast(Link::EdgeCloud, d as u64, live.len() as u64);
        let est = pick(
            &live,
            &self.delivered(k, MsgChannel::Phase2Down, &live, d as u64),
        );
        // The estimating population is each unit's current members, so
        // the meter and the estimate see the same set.
        let est_clients: u64 = est
            .iter()
            .flat_map(|&g| self.edges_of(g))
            .map(|e| churn.members_of(e).len() as u64)
            .sum();
        self.meter
            .record_broadcast(Link::ClientEdge, d as u64, est_clients);
        let loss = |client: usize, data: &Dataset| {
            let mut rng = StreamRng::for_key(StreamKey::new(
                self.seed,
                Purpose::LossEstSampling,
                k as u64,
                client as u64,
            ));
            estimate_loss(&*problem.model, data, w_eval, dual.loss_batch, &mut rng)
        };
        // f_g = the mean of f_n(w_eval; ξ_n) over the unit's clients, in
        // edge order; 0 for a unit with none.
        let losses: Vec<f64> = self.spec.opts.parallelism.map_ref(&est, |&g| {
            let (mut total, mut n) = (0.0_f64, 0_usize);
            for e in self.edges_of(g) {
                for &client in churn.members_of(e) {
                    total += loss(client, churn.data(problem, client));
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
        self.meter.record_gather(Link::ClientEdge, 1, est_clients);
        self.meter.record_round(Link::ClientEdge);
        self.meter
            .record_gather(Link::EdgeCloud, 1, est.len() as u64);

        let mut v = vec![0.0_f32; self.n_units];
        let scale = pool as f64 / m as f64;
        for (&g, &f) in est.iter().zip(&losses) {
            v[g] = (scale * f) as f32;
        }
        // Theorem 1's step applies η_p × (slots per round).
        projected_ascent_step(p, &v, dual.eta_p * self.slots as f32, &problem.p_domain);
        // The projection may hand mass back to a dead edge.
        churn.reproject_weights(p);
        self.prof
            .record(self.tel, Phase::DualUpdate, Some(k), None, dual_span);
        self.tel.record(|| TelemetryEvent::DualUpdate {
            round: k,
            edges: est.clone(),
            losses: losses.clone(),
            p: p.to_vec(),
            elapsed_s: phase2_timer.elapsed_s(),
        });
    }
}

/// The base coordinates `(c1, c2)` of a checkpoint index.
fn base_checkpoint(cp: &[usize]) -> (usize, usize) {
    (cp[cp.len() - 2], cp[cp.len() - 1])
}
