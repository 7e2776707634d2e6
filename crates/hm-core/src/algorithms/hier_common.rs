//! The block phase of the round driver: the `ModelUpdate` procedure —
//! `τ2` client-edge aggregation blocks of `τ1` local SGD steps each —
//! with optional checkpoint capture, plus the cloud-side reductions and
//! the quarantine controller the driver uses.
//!
//! The block phase reads the run's settings, fault oracle, meter,
//! telemetry and controllers from the [`Driver`]; a call supplies only
//! what varies: the start model, the edges, the fault level, the round
//! tag and the checkpoint index. Every participating edge's clients are
//! its current members in the driver's one membership view,
//! [`ChurnCtl`]: with churn off, that is the original clients `edge·n₀ +
//! idx`, in order. The two-layer baselines run the same procedure on
//! units of one client with `τ2 = 1` and no edge hop: a one-member
//! aggregation returns its input, so the unit's output is the client's
//! upload, and a unit whose client dropped has nothing to send
//! ([`EdgeBlockOutput::uploads`]).
//!
//! A round's block phase runs in three steps (DESIGN.md §7):
//!
//! 1. A sequential prepass draws every crash, straggler, quarantine and
//!    corruption decision of the round (`compute_schedule`) and meters the
//!    round's client-edge traffic in closed form (`meter_round`). Keyed
//!    fault streams make these decisions independent of execution order.
//! 2. One task **per edge** runs that edge's `τ2` blocks back to back
//!    ([`Parallelism::map_chains`]), so a round costs a single fork/join.
//!    Inside a chain the edge's clients train one after another, in slot
//!    order, on the chain's thread, reusing its thread-local scratch
//!    ([`hm_nn::with_scratch`]); the edge aggregates after every block.
//! 3. After the join, the blocks' `block_agg` telemetry events are
//!    replayed in protocol order (`replay_events`).
//!
//! Results are bit-identical across executors (`tests/determinism.rs`)
//! and to the naive reference round in `hm-testkit`
//! (`tests/oracle_diff.rs`): every reduction runs in slot order
//! (DESIGN.md §7), the per-client RNG streams are keyed by `(seed,
//! purpose, block, client)` rather than execution order, and the prepass
//! feeds the straggler-slot accumulator per block in `t2` order.
//!
//! [`Parallelism::map_chains`]: hm_simnet::Parallelism::map_chains

use super::churnctl::ChurnCtl;
use super::driver::Driver;
use crate::localsgd::local_sgd_into;
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_simnet::{FaultInjector, Link, Quantizer, StragglerFate};
use hm_telemetry::{Phase, Telemetry, TelemetryEvent};
use hm_tensor::{vecops, Aggregator};

/// Flattened client-slot layout of one round: for each participating edge
/// `ei`, the global ids of its current members, contiguous in `gids` at
/// `offsets[ei]..offsets[ei+1]`. With churn off every edge serves its
/// original clients, so `offsets[ei] = ei·n₀` and `gids[slot] =
/// client_id(edge, slot % n₀)`.
struct SlotMap {
    gids: Vec<usize>,
    offsets: Vec<usize>,
}

impl SlotMap {
    fn build(churn: &ChurnCtl, edges: &[usize]) -> Self {
        let mut gids = Vec::new();
        let mut offsets = Vec::with_capacity(edges.len() + 1);
        offsets.push(0);
        for &e in edges {
            gids.extend_from_slice(churn.members_of(e));
            offsets.push(gids.len());
        }
        Self { gids, offsets }
    }

    /// Total client slots across the participating edges.
    fn n_slots(&self) -> usize {
        self.gids.len()
    }

    /// Slot range of participating edge `ei`.
    fn range(&self, ei: usize) -> std::ops::Range<usize> {
        self.offsets[ei]..self.offsets[ei + 1]
    }
}

/// Result of one edge server's `ModelUpdate` procedure.
#[derive(Debug, Clone)]
pub(crate) struct EdgeBlockOutput {
    /// The edge id this output belongs to.
    pub edge: usize,
    /// `w_e^{(k, τ2)}` — the edge model after all aggregation blocks.
    pub w_final: Vec<f32>,
    /// `w_e^{(k, c2, c1)}` — the aggregated checkpoint model, when a
    /// checkpoint index was supplied.
    pub checkpoint: Option<Vec<f32>>,
    /// Per local client slot `c`: `(Σ blocks ‖upload − block-start‖₂,
    /// blocks participated)`, measured on the decoded upload (after
    /// quantization and any Byzantine corruption) — the observable the
    /// quarantine pass z-scores. Empty unless the driver's quarantine
    /// pass is active.
    pub client_norms: Vec<(f64, u32)>,
    /// Whether the unit has a model to send the cloud. An edge always
    /// has: with every client dropped it forwards its block-start model.
    /// A unit without an edge hop has one only when its client survived.
    pub uploads: bool,
}

/// Per-round fault and survivor schedule, computed before any client work.
///
/// The fault oracle draws from keyed streams, so its decisions depend only
/// on `(block, level, client)` — hoisting them out of the parallel region
/// changes nothing about the outcome but lets whole edges run without
/// synchronising, and lets communication be metered in closed form.
/// Oracle queries and the straggler-slot accumulator are driven in
/// `(t2, slot)` order, so fault statistics do not depend on the executor.
struct RoundSchedule {
    /// `alive[t2 * n_slots + slot]` — does that slot's upload survive
    /// block `t2`? (Slots as in [`SlotMap`].)
    alive: Vec<bool>,
    /// `corrupt[t2 * n_slots + slot]` — is that surviving upload
    /// Byzantine-corrupted? (Same indexing; always `false` for dead
    /// slots, and drawn from the dedicated `Purpose::Adversary` stream
    /// so a zero corruption rate makes no draws at all.)
    corrupt: Vec<bool>,
    /// Surviving uploads per block (`[t2]`).
    block_survivors: Vec<u64>,
}

/// The schedule of the blocks keyed by `round` at fault `level`: client
/// faults of a deeper hierarchy key on its depth, so equal block indices
/// at different levels draw independent bits.
fn compute_schedule(dv: &Driver<'_>, slots: &SlotMap, level: usize, round: usize) -> RoundSchedule {
    let (tau2, fault) = (dv.spec.blocks.tau2(), &dv.fault);
    let n_slots = slots.n_slots();
    let mut alive = vec![false; tau2 * n_slots];
    let mut corrupt = vec![false; tau2 * n_slots];
    let mut block_survivors = vec![0u64; tau2];
    for t2 in 0..tau2 {
        let block_tag = (round * tau2 + t2) as u64;
        // Which clients survive this block: a quarantined client sits the
        // round out (no fault-stream draws at all); otherwise a client is
        // cut by a crash or by straggling past the deadline; an
        // in-deadline straggler contributes but stretches the block's
        // shared sync window. Surviving uploads then draw their
        // Byzantine-corruption bit from the dedicated adversary stream.
        let mut max_slow = 1.0_f64;
        for slot in 0..n_slots {
            let client = slots.gids[slot];
            let a = if dv.quarantine.benches(client, round) {
                fault.add_excluded(1);
                false
            } else if !fault.client_alive(block_tag, level, client) {
                false
            } else {
                match fault.straggler(block_tag, level, client) {
                    StragglerFate::Missed => false,
                    StragglerFate::Slow(s) => {
                        max_slow = max_slow.max(s);
                        true
                    }
                    StragglerFate::OnTime => true,
                }
            };
            alive[t2 * n_slots + slot] = a;
            corrupt[t2 * n_slots + slot] = a && fault.client_corrupt(block_tag, level, client);
            block_survivors[t2] += u64::from(a);
        }
        if max_slow > 1.0 {
            // The synchronous block waits for its slowest in-deadline
            // straggler: τ1 nominal slots stretch by the slowdown factor.
            fault.add_straggler_slots((max_slow - 1.0) * dv.spec.tau1 as f64);
        }
    }
    RoundSchedule {
        alive,
        corrupt,
        block_survivors,
    }
}

/// Meter the whole round's client-edge traffic in closed form: one
/// broadcast to every client per block, one upload per surviving client
/// per block (doubled in the checkpoint block `c2`, whose model is
/// piggybacked on the gather), and `τ2` synchronisation rounds — the
/// per-block totals of the protocol in a handful of atomic updates.
fn meter_round(
    dv: &Driver<'_>,
    slots: &SlotMap,
    schedule: &RoundSchedule,
    cp_block: Option<usize>,
) {
    let (meter, tau2) = (&dv.meter, dv.spec.blocks.tau2() as u64);
    let d = dv.d as u64;
    meter.record_broadcast(Link::ClientEdge, d, tau2 * slots.n_slots() as u64);
    let unit = dv.spec.quantizer.wire_floats(dv.d);
    let mut plain_survivors = 0u64;
    for (t2, &s) in schedule.block_survivors.iter().enumerate() {
        if cp_block == Some(t2) {
            meter.record_gather(Link::ClientEdge, 2 * unit, s);
        } else {
            plain_survivors += s;
        }
    }
    meter.record_gather(Link::ClientEdge, unit, plain_survivors);
    meter.record_rounds(Link::ClientEdge, tau2);
}

/// Replay the round's `block_agg` events after the parallel join, in
/// protocol order: per block, one per edge with at least one survivor,
/// listing the clients it aggregated in slot order.
fn replay_events(
    dv: &Driver<'_>,
    edges: &[usize],
    round: usize,
    slots: &SlotMap,
    schedule: &RoundSchedule,
) {
    let n_slots = slots.n_slots();
    for t2 in 0..dv.spec.blocks.tau2() {
        let alive = &schedule.alive[t2 * n_slots..(t2 + 1) * n_slots];
        for (ei, &edge) in edges.iter().enumerate() {
            if !alive[slots.range(ei)].contains(&true) {
                continue;
            }
            dv.tel.record(|| TelemetryEvent::BlockAggregated {
                round,
                edge,
                t2,
                clients: slots
                    .range(ei)
                    .filter(|&slot| alive[slot])
                    .map(|slot| slots.gids[slot])
                    .collect(),
            });
        }
    }
}

/// Run `τ2` client-edge aggregation blocks on each of `edges` from
/// `w_start`: the fault schedule and the metering up front, then one
/// chain per edge running all `τ2` blocks back to back, then the event
/// replay. `level` and `round` key the blocks' fault and RNG streams
/// (`round` is the cloud round, or MultiLevel's position tag), and
/// `checkpoint` is the index `(c1, c2)` to capture, if any. One output
/// per edge, in order.
///
/// Blocks of one edge are sequential, as the protocol requires; edges do
/// not synchronise until the end of the round (see module docs). A
/// crashed client neither computes nor uploads for that block, and a
/// benched one sits out every block without drawing a fault stream; a
/// straggler past the deadline computes, but its late upload is discarded
/// and not metered. The edge folds the survivors, and an edge whose
/// clients all dropped keeps its block-start model. With an edge hop,
/// communication is metered on the `ClientEdge` link: one broadcast + one
/// gather + one round per block, with the checkpoint model piggybacked on
/// the gather of block `c2` (doubling that block's uplink payload, as in
/// the paper where clients "send along" the checkpoint).
pub(super) fn run_edge_blocks(
    dv: &Driver<'_>,
    w_start: &[f32],
    edges: &[usize],
    level: usize,
    round: usize,
    checkpoint: Option<(usize, usize)>,
) -> Vec<EdgeBlockOutput> {
    let spec = &dv.spec;
    let (tau1, tau2, mu) = (spec.tau1, spec.blocks.tau2(), spec.blocks.mu());
    let (q, aggregator) = (spec.quantizer, spec.opts.aggregator);
    // Without an edge hop (the two-layer baselines' one-client units)
    // there is no client-edge traffic to meter, no `block_agg` event to
    // emit and no edge to forward the block-start model of a unit whose
    // client dropped.
    let edge_hop = !spec.blocks.clients();
    // Norm tracking for the quarantine pass costs one `dist2_sq` per
    // surviving upload but never perturbs the trained bits.
    let track_norms = dv.quarantine.active();
    let slots = SlotMap::build(&dv.churn, edges);
    let schedule = compute_schedule(dv, &slots, level, round);
    if edge_hop {
        meter_round(dv, &slots, &schedule, checkpoint.map(|(_, c2)| c2));
    }

    let chains: Vec<(EdgeBlockOutput, f64)> = {
        let schedule = &schedule;
        let slots = &slots;
        spec.opts.parallelism.map_chains(edges.len(), |ei| {
            hm_nn::with_scratch(|scratch| {
                // Wall-clock only, never consulted by the computation;
                // recorded after the join, in edge order, so profiled span
                // streams have the same shape on both executors.
                let chain_timer = dv.prof.start();
                let n0_e = slots.range(ei).len();
                let mut model = w_start.to_vec();
                let mut cp_model: Option<Vec<f32>> = None;
                // Per-client upload buffers, reused across blocks. An
                // empty model slot means "dropped this block" (models are
                // never zero-length), which is what the aggregation's
                // presence test reads.
                let mut client_w: Vec<Vec<f32>> = vec![Vec::new(); n0_e];
                let mut client_cp: Vec<Option<Vec<f32>>> = vec![None; n0_e];
                // Robust-aggregation workspace, reused across blocks. The
                // base snapshot is only cloned for rules that need the
                // block-start model (NormClip), so the Mean path stays
                // allocation-free beyond the buffers above.
                let needs_base = aggregator.needs_base();
                let mut agg_scratch: Vec<f32> = Vec::new();
                let mut base_buf: Vec<f32> = Vec::new();
                let mut norms: Vec<(f64, u32)> = if track_norms {
                    vec![(0.0, 0); n0_e]
                } else {
                    Vec::new()
                };
                let mut aggregated = false;
                for t2 in 0..tau2 {
                    let is_cp_block = checkpoint.map(|(_, c2)| c2 == t2).unwrap_or(false);
                    let cp_after = checkpoint.and_then(|(c1, c2)| (c2 == t2).then_some(c1));
                    let block_tag = (round * tau2 + t2) as u64;
                    let base = t2 * slots.n_slots() + slots.offsets[ei];
                    for c in 0..n0_e {
                        client_cp[c] = None;
                        if !schedule.alive[base + c] {
                            client_w[c].clear();
                            continue;
                        }
                        let client = slots.gids[slots.offsets[ei] + c];
                        let mut rng = StreamRng::for_key(StreamKey::new(
                            dv.seed,
                            Purpose::Batch,
                            block_tag,
                            client as u64,
                        ));
                        let mut cp_out = local_sgd_into(
                            &*dv.problem.model,
                            dv.churn.data(dv.problem, client),
                            &model,
                            &mut client_w[c],
                            tau1,
                            spec.eta_w,
                            spec.batch_size,
                            mu,
                            &dv.problem.w_domain,
                            &mut rng,
                            cp_after,
                            scratch,
                        );
                        // A Byzantine client corrupts its honest update
                        // before the (honest, edge-side-decoded) uplink
                        // codec sees it. The checkpoint rides the same
                        // gather, so it is forged too.
                        if schedule.corrupt[base + c] {
                            dv.fault.corrupt_update(
                                block_tag,
                                level,
                                client,
                                &model,
                                &mut client_w[c],
                            );
                            if let Some(cp) = cp_out.as_mut() {
                                dv.fault
                                    .corrupt_update(block_tag, level, client, &model, cp);
                            }
                        }
                        // Uplink codec: quantize the *update delta* against
                        // the block-start model the edge already holds (as
                        // in Hier-Local-QSGD — deltas are small, so coarse
                        // grids stay accurate), then reconstruct the model
                        // the edge decodes. Downlink broadcasts stay full
                        // precision.
                        if q != Quantizer::Exact {
                            let mut qrng = StreamRng::for_key(StreamKey::new(
                                dv.seed,
                                Purpose::Quantize,
                                block_tag,
                                client as u64,
                            ));
                            quantize_delta(&q, &model, &mut client_w[c], &mut qrng);
                            if let Some(cp) = cp_out.as_mut() {
                                quantize_delta(&q, &model, cp, &mut qrng);
                            }
                        }
                        if track_norms {
                            let entry = &mut norms[c];
                            entry.0 += vecops::dist2_sq(&client_w[c], &model).sqrt();
                            entry.1 += 1;
                        }
                        client_cp[c] = cp_out;
                    }
                    // Edge-side aggregation over survivors, in slot order
                    // (the bit-exact fold order of DESIGN.md §7) — Mean is
                    // the historical `average_present_into` fold; the
                    // robust rules share its presence test and fold order.
                    // With no survivors the edge keeps its block-start
                    // model (and captures no checkpoint).
                    if needs_base {
                        base_buf.clone_from(&model);
                    }
                    let survivors = aggregator.aggregate_present_into(
                        &client_w,
                        |w| (!w.is_empty()).then_some(w.as_slice()),
                        needs_base.then_some(base_buf.as_slice()),
                        &mut agg_scratch,
                        &mut model,
                    );
                    if survivors == 0 {
                        continue;
                    }
                    aggregated = true;
                    if is_cp_block {
                        let mut cp = vec![0.0_f32; model.len()];
                        let got = aggregator.aggregate_present_into(
                            &client_cp,
                            Option::as_deref,
                            needs_base.then_some(base_buf.as_slice()),
                            &mut agg_scratch,
                            &mut cp,
                        );
                        assert_eq!(got, survivors, "checkpoint block must return checkpoints");
                        cp_model = Some(cp);
                    }
                }
                // Checkpoint fallback: if every client of an edge dropped
                // during the checkpoint block, fall back to the edge's
                // final model so Phase 2 still has an estimate to evaluate
                // (slightly biased, but only in a failure corner the
                // paper's protocol does not define).
                if cp_model.is_none() && checkpoint.is_some() {
                    cp_model = Some(model.clone());
                }
                let output = EdgeBlockOutput {
                    edge: edges[ei],
                    w_final: model,
                    checkpoint: cp_model,
                    client_norms: norms,
                    uploads: edge_hop || aggregated,
                };
                (output, chain_timer.elapsed_s())
            })
        })
    };

    if edge_hop {
        replay_events(dv, edges, round, &slots, &schedule);
    }
    chains
        .into_iter()
        .map(|(output, chain_s)| {
            let edge = Some(output.edge);
            dv.prof
                .record_secs(dv.tel, Phase::LocalSgdChain, Some(round), edge, chain_s);
            output
        })
        .collect()
}

/// Quantize `v` as a delta against `base` (which the receiver already
/// holds), then reconstruct: `v ← base + Q(v − base)`. This is the
/// Hier-Local-QSGD upload codec — update deltas shrink with the learning
/// rate, so even coarse grids quantize them accurately.
pub(crate) fn quantize_delta(
    q: &Quantizer,
    base: &[f32],
    v: &mut [f32],
    rng: &mut hm_data::StreamRng,
) {
    debug_assert_eq!(base.len(), v.len());
    for (x, &b) in v.iter_mut().zip(base) {
        *x -= b;
    }
    q.apply(v, rng);
    for (x, &b) in v.iter_mut().zip(base) {
        *x += b;
    }
}

/// Cloud-side reduction of edge (or checkpoint) models under the
/// configured aggregator. `Aggregator::Mean` takes the frozen reference
/// paths — [`vecops::weighted_average_into`] when sampling weights are
/// supplied, [`vecops::average_into`] otherwise — so robust-off runs stay
/// bit-identical to historical behaviour. The robust rules are unweighted
/// by construction (a weighted trimmed mean would let an adversary buy
/// influence through the sampler), so they ignore `weights`; `base` is the
/// pre-aggregation global model NormClip measures deviations against.
pub(crate) fn robust_reduce_into(
    agg: &Aggregator,
    inputs: &[&[f32]],
    weights: Option<&[f64]>,
    base: &[f32],
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) {
    match (agg, weights) {
        (Aggregator::Mean, Some(ws)) => vecops::weighted_average_into(inputs, ws, out),
        (Aggregator::Mean, None) => vecops::average_into(inputs, out),
        _ => {
            let got = agg.aggregate_present_into(
                inputs,
                |v| Some(*v),
                agg.needs_base().then_some(base),
                scratch,
                out,
            );
            debug_assert_eq!(got, inputs.len());
        }
    }
}

/// Per-round quarantine controller: z-scores each reporting client's mean
/// per-block update norm against the cohort and benches outliers for a
/// fixed window of rounds. Driven by the round driver between rounds —
/// entirely outside the parallel region, so it cannot perturb execution
/// order — and keyed off *observed* uploads only, which makes it a pure
/// function of the round's outputs (checkpoint/resume serializes just the
/// horizon table).
pub(crate) struct QuarantineCtl {
    /// Trigger threshold in standard deviations (`0` = disabled).
    z: f64,
    /// Rounds a flagged client sits out.
    window: u64,
    /// Per-global-client exclusion horizon: quarantined while
    /// `round < until[client]`.
    until: Vec<u64>,
    /// This round's summed update norms / block counts per global client.
    sums: Vec<f64>,
    blocks: Vec<u32>,
}

impl QuarantineCtl {
    pub(crate) fn new(z: f64, window: usize, n_clients: usize) -> Self {
        let n = if z > 0.0 { n_clients } else { 0 };
        Self {
            z,
            window: window as u64,
            until: vec![0; n],
            sums: vec![0.0; n],
            blocks: vec![0; n],
        }
    }

    pub(crate) fn active(&self) -> bool {
        self.z > 0.0
    }

    /// Whether `client` sits out `round`. A disabled controller's empty
    /// horizon table never benches anybody.
    pub(crate) fn benches(&self, client: usize, round: usize) -> bool {
        self.until
            .get(client)
            .is_some_and(|&until| (round as u64) < until)
    }

    pub(crate) fn begin_round(&mut self) {
        self.sums.fill(0.0);
        self.blocks.fill(0);
    }

    /// Grow the per-client tables to cover `n` global ids (no-op when
    /// disabled or already large enough). The driver calls this after
    /// every round's churn, with the bound on the ids minted so far, so
    /// the horizon table covers every client that can ever report.
    pub(crate) fn ensure_clients(&mut self, n: usize) {
        if self.active() && n > self.until.len() {
            self.until.resize(n, 0);
            self.sums.resize(n, 0.0);
            self.blocks.resize(n, 0);
        }
    }

    /// Fold one `run_edge_blocks` output batch into this round's
    /// observations: per-edge norm slot `c` is the edge's `c`-th member in
    /// `churn`, the view the block phase enumerated.
    pub(crate) fn observe(&mut self, churn: &ChurnCtl, outputs: &[EdgeBlockOutput]) {
        if !self.active() {
            return;
        }
        for o in outputs {
            for (c, &(norm, blocks)) in o.client_norms.iter().enumerate() {
                if blocks > 0 {
                    let id = churn.members_of(o.edge)[c];
                    self.ensure_clients(id + 1);
                    self.sums[id] += norm;
                    self.blocks[id] += blocks;
                }
            }
        }
    }

    /// Close the round: z-score the reporters, bench fresh outliers until
    /// `round + 1 + window`, and emit one unsequenced `Quarantine`
    /// telemetry event per newly benched client (global-id order).
    /// Returns how many clients were newly quarantined.
    pub(crate) fn end_round(
        &mut self,
        round: usize,
        fault: &FaultInjector,
        telemetry: &Telemetry,
    ) -> usize {
        if !self.active() {
            return 0;
        }
        let reporters: Vec<(usize, f64)> = (0..self.until.len())
            .filter(|&id| self.blocks[id] > 0)
            .map(|id| (id, self.sums[id] / f64::from(self.blocks[id])))
            .collect();
        // A z-score over fewer than three points is meaningless, and a
        // degenerate (all-equal) cohort has no outliers.
        if reporters.len() < 3 {
            return 0;
        }
        let n = reporters.len() as f64;
        let mean = reporters.iter().map(|&(_, x)| x).sum::<f64>() / n;
        let var = reporters
            .iter()
            .map(|&(_, x)| (x - mean) * (x - mean))
            .sum::<f64>()
            / n;
        let std = var.sqrt();
        if std <= 1e-12 {
            return 0;
        }
        let mut newly = 0u64;
        for &(id, x) in &reporters {
            if (x - mean) / std > self.z {
                let until = (round + 1) as u64 + self.window;
                self.until[id] = until;
                newly += 1;
                telemetry.record(|| TelemetryEvent::Quarantine {
                    round,
                    client: id,
                    until: until as usize,
                });
            }
        }
        if newly > 0 {
            fault.add_quarantined(newly);
        }
        newly as usize
    }

    /// Raw horizon table for the checkpoint extras section.
    pub(crate) fn state(&self) -> &[u64] {
        &self.until
    }

    /// Restore a checkpointed horizon table, which the resume decode has
    /// checked: one entry per client of an active controller or more (when
    /// membership churn minted joiner ids before the snapshot was
    /// written), and empty for a disabled one.
    pub(crate) fn restore(&mut self, until: Vec<u64>) {
        self.sums.resize(until.len(), 0.0);
        self.blocks.resize(until.len(), 0);
        self.until = until;
    }
}

/// Count multiplicities of a with-replacement sample, returning
/// `(distinct_ids, multiplicities)` with distinct ids in first-seen order.
pub(crate) fn multiplicities(sampled: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut distinct = Vec::new();
    let mut counts = Vec::new();
    for &e in sampled {
        match distinct.iter().position(|&x| x == e) {
            Some(i) => counts[i] += 1,
            None => {
                distinct.push(e);
                counts.push(1);
            }
        }
    }
    (distinct, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Hyper, Method, RunOpts};
    use crate::problem::FederatedProblem;
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::{FaultPlan, Parallelism, NO_CHURN};
    use hm_telemetry::MemorySink;
    use std::sync::Arc;

    /// A telemetry handle recording into a fresh in-memory sink.
    fn recorder() -> (Telemetry, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        (Telemetry::with_sink(sink.clone()), sink)
    }

    /// Block settings: `τ1`, `τ2`, `η_w`, a batch of 2 and `quantizer`.
    fn blocks(tau1: usize, tau2: usize, eta_w: f32, quantizer: Quantizer) -> Hyper {
        Hyper {
            tau1,
            tau2,
            eta_w,
            batch_size: 2,
            quantizer,
            ..Hyper::default()
        }
    }

    /// Sequential options recording into `telemetry`.
    fn sequential(telemetry: Telemetry) -> RunOpts {
        RunOpts {
            parallelism: Parallelism::Sequential,
            telemetry,
            ..Default::default()
        }
    }

    /// HierMinimax's round driver for `h` and `opts` on `fp`.
    fn driver<'a>(
        fp: &'a FederatedProblem,
        h: &'a Hyper,
        opts: &'a RunOpts,
        seed: u64,
    ) -> Driver<'a> {
        Driver::new(fp, seed, Method::HierMinimax.spec(h, opts))
    }

    #[test]
    fn multiplicities_counts() {
        let (d, c) = multiplicities(&[3, 1, 3, 3, 0]);
        assert_eq!(d, vec![3, 1, 0]);
        assert_eq!(c, vec![3, 1, 1]);
        assert_eq!(c.iter().sum::<usize>(), 5);
    }

    #[test]
    fn edge_blocks_run_and_meter() {
        let sc = tiny_problem(3, 2, 1);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let (tel, sink) = recorder();
        let (h, opts) = (blocks(2, 3, 0.1, Quantizer::Exact), sequential(tel));
        let dv = driver(&fp, &h, &opts, 42);
        let w0 = vec![0.0; fp.num_params()];
        let out = run_edge_blocks(&dv, &w0, &[0, 2], 0, 0, Some((1, 1)));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].edge, 0);
        assert_eq!(out[1].edge, 2);
        // Models moved away from zero, and checkpoints were captured.
        for o in &out {
            assert!(hm_tensor::vecops::norm2(&o.w_final) > 0.0);
            assert!(o.checkpoint.is_some());
        }
        let s = dv.meter.snapshot();
        // 3 blocks → 3 client-edge rounds, zero cloud rounds here.
        assert_eq!(s.rounds(Link::ClientEdge), 3);
        assert_eq!(s.cloud_rounds(), 0);
        // Downlink: 3 blocks × 2 edges × 2 clients × d floats.
        let d = fp.num_params() as u64;
        assert_eq!(s.downlink_floats(Link::ClientEdge), 3 * 2 * 2 * d);
        // Uplink: (2 plain blocks × d + 1 checkpoint block × 2d) × 4 clients.
        assert_eq!(s.uplink_floats(Link::ClientEdge), (2 * d + 2 * d) * 4);
        // τ2 aggregations per edge, each over both of its clients.
        let events = sink.events();
        let aggs: Vec<(usize, usize, &[usize])> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::BlockAggregated {
                    edge, t2, clients, ..
                } => Some((*t2, *edge, clients.as_slice())),
                _ => None,
            })
            .collect();
        let topo = fp.topology();
        let want: Vec<(usize, usize, Vec<usize>)> = (0..3)
            .flat_map(|t2| [0, 2].map(|e| (t2, e, topo.clients_of(e).collect())))
            .collect();
        assert_eq!(aggs.len(), want.len());
        for ((t2, e, got), (wt2, we, want)) in aggs.iter().zip(&want) {
            assert_eq!((t2, e, *got), (wt2, we, want.as_slice()));
        }
    }

    #[test]
    fn checkpoint_at_block_start_equals_block_model() {
        // With c1 = 0, the checkpoint is the block-start model; for c2 = 0
        // that is the broadcast global model itself.
        let sc = tiny_problem(2, 2, 3);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let h = blocks(3, 2, 0.05, Quantizer::Exact);
        let opts = sequential(Telemetry::disabled());
        let w0 = vec![0.25; fp.num_params()];
        let out = run_edge_blocks(&driver(&fp, &h, &opts, 7), &w0, &[1], 0, 0, Some((0, 0)));
        assert_eq!(out[0].checkpoint.as_deref(), Some(w0.as_slice()));
    }

    /// Run one round on the given executor, returning the outputs plus
    /// the meter totals and telemetry events. The quarantine pass is on
    /// (so the norms are tracked) and benches nobody.
    fn run_one(
        fp: &FederatedProblem,
        fault: FaultPlan,
        parallelism: Parallelism,
        quantizer: Quantizer,
        aggregator: Aggregator,
    ) -> (
        Vec<EdgeBlockOutput>,
        hm_simnet::CommStats,
        Vec<TelemetryEvent>,
    ) {
        let (telemetry, sink) = recorder();
        let h = blocks(2, 3, 0.1, quantizer);
        let opts = RunOpts {
            parallelism,
            telemetry,
            fault,
            aggregator,
            quarantine_z: 1.0,
            ..Default::default()
        };
        let dv = driver(fp, &h, &opts, 11);
        let w0 = vec![0.0; fp.num_params()];
        let out = run_edge_blocks(&dv, &w0, &[0, 1, 2], 0, 3, Some((1, 1)));
        (out, dv.meter.snapshot(), sink.events())
    }

    #[test]
    fn parallel_and_sequential_agree() {
        // Identical models, checkpoints, norm observables, meter totals
        // and telemetry event *order* on both executors, under faults,
        // quantization, Byzantine uploads and every robust aggregator.
        let sc = tiny_problem(3, 3, 9);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let chaotic = FaultPlan::preset("chaos").unwrap();
        let byzantine = FaultPlan::preset("byzantine").unwrap();
        for (fault, quantizer, aggregator) in [
            (FaultPlan::default(), Quantizer::Exact, Aggregator::Mean),
            (chaotic.clone(), Quantizer::Exact, Aggregator::Mean),
            (
                chaotic.clone(),
                Quantizer::Stochastic { bits: 4 },
                Aggregator::Mean,
            ),
            (
                byzantine.clone(),
                Quantizer::Exact,
                Aggregator::TrimmedMean { beta: 0.25 },
            ),
            (
                byzantine.clone(),
                Quantizer::Stochastic { bits: 4 },
                Aggregator::CoordinateMedian,
            ),
            (
                FaultPlan {
                    attack: hm_simnet::AttackModel::Collude,
                    ..byzantine
                },
                Quantizer::Exact,
                Aggregator::NormClip { tau: 0.5 },
            ),
        ] {
            let tag = format!("{fault:?} {quantizer:?} {aggregator:?}");
            let (a, am, ae) = run_one(
                &fp,
                fault.clone(),
                Parallelism::Sequential,
                quantizer,
                aggregator,
            );
            let (b, bm, be) = run_one(&fp, fault, Parallelism::Rayon, quantizer, aggregator);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.edge, y.edge, "{tag}");
                assert_eq!(x.w_final, y.w_final, "{tag}");
                assert_eq!(x.checkpoint, y.checkpoint, "{tag}");
                assert_eq!(x.client_norms, y.client_norms, "{tag}: norms diverged");
            }
            assert_eq!(am, bm, "{tag}: meter totals diverged");
            assert_eq!(ae, be, "{tag}: event order diverged");
        }
    }

    #[test]
    fn quarantined_clients_sit_out_and_are_counted() {
        let sc = tiny_problem(2, 2, 4);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let topo = fp.topology();
        let n_clients = topo.total_clients();
        // Bench client 0 of edge 0 beyond this round; everyone else free.
        let mut until = vec![0u64; n_clients];
        let benched = topo.client_id(0, 0);
        until[benched] = 10;
        let (tel, sink) = recorder();
        let h = blocks(1, 2, 0.1, Quantizer::Exact);
        let opts = RunOpts {
            quarantine_z: 1.0,
            ..sequential(tel)
        };
        let mut dv = driver(&fp, &h, &opts, 5);
        dv.quarantine.restore(until);
        let out = run_edge_blocks(&dv, &vec![0.0; fp.num_params()], &[0, 1], 0, 3, None);
        // The benched client was never aggregated and was counted once per
        // block.
        let events = sink.events();
        assert_eq!(events.len(), 2 * 2, "both edges aggregate both blocks");
        assert!(events.iter().all(|e| matches!(
            e,
            TelemetryEvent::BlockAggregated { clients, .. } if !clients.contains(&benched)
        )));
        assert_eq!(dv.fault.adversary_stats().excluded_uploads, 2);
        assert_eq!(out[0].client_norms[0], (0.0, 0));
        assert!(out[0].client_norms[1].1 > 0);
    }

    #[test]
    fn quarantine_ctl_benches_the_outlier() {
        let sc = tiny_problem(3, 2, 2);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let n = fp.topology().total_clients();
        assert_eq!(n, 6);
        let mut ctl = QuarantineCtl::new(1.5, 4, n);
        assert!(ctl.active());
        ctl.begin_round();
        // Clients report ~1.0 except global client 3, a screaming outlier.
        let mk = |edge: usize, norms: Vec<(f64, u32)>| EdgeBlockOutput {
            edge,
            w_final: vec![0.0],
            checkpoint: None,
            client_norms: norms,
            uploads: true,
        };
        let outputs = vec![
            mk(0, vec![(1.0, 1), (1.1, 1)]),
            mk(1, vec![(0.9, 1), (50.0, 1)]),
            mk(2, vec![(1.0, 1), (1.05, 1)]),
        ];
        ctl.observe(&ChurnCtl::new(&fp, &NO_CHURN, 0), &outputs);
        let fi = FaultInjector::none(1);
        let newly = ctl.end_round(7, &fi, &Telemetry::disabled());
        assert_eq!(newly, 1);
        let outlier = fp.topology().client_id(1, 1);
        assert_eq!(ctl.state()[outlier], 7 + 1 + 4);
        assert!(ctl.benches(outlier, 9));
        assert!(!ctl.benches(outlier, 12));
        assert_eq!(fi.adversary_stats().quarantined_clients, 1);
        // Round-trip through the checkpoint state.
        let saved = ctl.state().to_vec();
        let mut ctl2 = QuarantineCtl::new(1.5, 4, n);
        ctl2.restore(saved);
        assert_eq!(ctl2.state(), ctl.state());
        // Disabled controller: no exclusions, no draws, no state.
        let off = QuarantineCtl::new(0.0, 4, n);
        assert!(!off.active());
        assert!(off.state().is_empty());
    }

    #[test]
    fn robust_reduce_mean_matches_reference() {
        let a = vec![1.0_f32, 2.0, 3.0];
        let b = vec![3.0_f32, 0.0, 1.0];
        let base = vec![0.0_f32; 3];
        let mut scratch = Vec::new();
        let mut got = vec![0.0_f32; 3];
        let mut want = vec![0.0_f32; 3];
        robust_reduce_into(
            &Aggregator::Mean,
            &[&a, &b],
            None,
            &base,
            &mut scratch,
            &mut got,
        );
        vecops::average_into(&[&a, &b], &mut want);
        assert_eq!(got, want);
        let weights = [0.25_f64, 0.75];
        robust_reduce_into(
            &Aggregator::Mean,
            &[&a, &b],
            Some(&weights),
            &base,
            &mut scratch,
            &mut got,
        );
        vecops::weighted_average_into(&[&a, &b], &weights, &mut want);
        assert_eq!(got, want);
        // A robust rule routes through the aggregator kernels.
        robust_reduce_into(
            &Aggregator::CoordinateMedian,
            &[&a, &b],
            Some(&weights),
            &base,
            &mut scratch,
            &mut got,
        );
        assert_eq!(got, vec![2.0, 1.0, 2.0]);
    }
}
