//! Deterministic fault injection.
//!
//! The paper's system model (§1) assumes flaky mobile clients and a slow,
//! unreliable WAN to the cloud, but the base protocol is failure-free.
//! This module injects four fault classes into the hierarchical run loops
//! — client crashes, edge-server outage windows, edge↔cloud message loss
//! with bounded retry + exponential backoff, and compute stragglers cut by
//! a per-block deadline — all driven by keyed [`StreamRng`] streams, the
//! same discipline as `Purpose::Dropout`:
//!
//! - every fault decision is a **pure function** of
//!   `(seed, plan, purpose, round/block, level, entity)`, so runs are
//!   bit-reproducible under rayon, across executors, and across reruns;
//! - the conformance automaton (hm-testkit) replays the same streams from
//!   the [`FaultPlan`] alone and validates survivor sets, retry
//!   communication deltas, and stale-round invariants;
//! - a plan whose rates are all zero makes **no draws at all**, so a
//!   fault-enabled run with zero rates is bit-identical to a fault-free
//!   run.
//!
//! The [`FaultInjector`] wraps the pure decision functions with atomic
//! occurrence counters and simulated-time accumulators (backoff waits,
//! straggler-stretched sync windows); the run loops surface those through
//! telemetry as `fault` / `fault_summary` events rather than panicking.

use hm_data::rng::{Purpose, StreamKey, StreamRng};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Mix a hierarchy level into a stream-entity id. Level 0 leaves the id
/// unchanged, so three-layer client crashes draw the `Purpose::Dropout`
/// stream at the plain client id (the pinned regression corpus depends on
/// this).
#[inline]
fn entity(level: usize, id: usize) -> u64 {
    ((level as u64) << 32) | id as u64
}

/// Which edge↔cloud message a delivery attempt belongs to. Each channel
/// gets its own loss stream so e.g. a round's Phase-1 and Phase-2
/// downlinks to the same edge fail independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgChannel {
    /// Cloud → edge: round-start model (+ checkpoint index).
    Phase1Down,
    /// Edge → cloud: final model (+ checkpoint model).
    Phase1Up,
    /// Cloud → edge: Phase-2 checkpoint model for loss estimation.
    Phase2Down,
}

impl MsgChannel {
    fn tag(self) -> u64 {
        match self {
            MsgChannel::Phase1Down => 0,
            MsgChannel::Phase1Up => 1,
            MsgChannel::Phase2Down => 2,
        }
    }
}

/// The fault classes, as reported in telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A sampled edge server is down for the whole round.
    EdgeOutage,
    /// An edge↔cloud message needed retransmissions (but got through).
    MsgRetried,
    /// An edge↔cloud message was lost and retries were exhausted.
    MsgGaveUp,
}

impl FaultKind {
    /// Stable string tag used in telemetry events.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::EdgeOutage => "edge_outage",
            FaultKind::MsgRetried => "msg_retried",
            FaultKind::MsgGaveUp => "msg_gave_up",
        }
    }
}

/// How a Byzantine client corrupts the update it uploads. Every model is a
/// deterministic transform of `(honest update, block-start model)` plus, for
/// the stochastic variants, draws from `Purpose::AdversaryPayload` streams —
/// so corrupted runs replay bit-identically across executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackModel {
    /// Upload `base − κ·(w − base)`: the honest delta reversed and scaled
    /// by `attack_scale` (κ = 1 is a pure sign flip).
    SignFlip,
    /// Upload `base + κ·(w − base)`: the honest delta inflated by κ.
    Scale,
    /// Add `κ·N(0, 1)` keyed noise per coordinate to the honest update.
    Noise,
    /// Upload the block-start model unchanged (a constant/zero update).
    Zero,
    /// Colluding block: every corrupted client in a block uploads
    /// `base + κ·dir` for one shared keyed direction `dir`, so the
    /// corruptions reinforce instead of cancelling.
    Collude,
}

/// Names accepted by [`AttackModel::parse`], in help order.
pub const ATTACK_MODELS: [&str; 5] = ["sign-flip", "scale", "noise", "zero", "collude"];

impl AttackModel {
    /// Stable string tag used in telemetry events and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            AttackModel::SignFlip => "sign-flip",
            AttackModel::Scale => "scale",
            AttackModel::Noise => "noise",
            AttackModel::Zero => "zero",
            AttackModel::Collude => "collude",
        }
    }

    /// Parse a CLI name (see [`ATTACK_MODELS`]).
    pub fn parse(name: &str) -> Option<AttackModel> {
        match name {
            "sign-flip" => Some(AttackModel::SignFlip),
            "scale" => Some(AttackModel::Scale),
            "noise" => Some(AttackModel::Noise),
            "zero" => Some(AttackModel::Zero),
            "collude" => Some(AttackModel::Collude),
            _ => None,
        }
    }
}

/// Outcome of one client's straggler draw for one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StragglerFate {
    /// Not a straggler this block.
    OnTime,
    /// Slowed by the given factor but inside the deadline: the client
    /// contributes, and the block's sync window stretches to wait for it.
    Slow(f64),
    /// Slowed past the deadline: the edge aggregates without the laggard.
    Missed,
}

/// Outcome of delivering one edge↔cloud message under loss + retry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Total transmissions (1 = first try succeeded; each retry adds one).
    pub attempts: u32,
    /// Whether any attempt got through before retries ran out.
    pub delivered: bool,
    /// Exponential-backoff wait accumulated before retries
    /// (`backoff_base_s · (2^retries − 1)`).
    pub backoff_s: f64,
}

/// Declarative fault configuration for a run. All decisions derived from a
/// plan are keyed off the run's master seed, so a `(plan, seed)` pair fully
/// determines every injected fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-block probability that a client crashes (neither computes nor
    /// uploads for that block).
    pub client_crash: f32,
    /// Per-round probability that a sampled edge server is out for the
    /// whole round (never receives or reports anything, both phases).
    pub edge_outage: f32,
    /// Per-attempt loss probability of an edge↔cloud message.
    pub msg_loss: f32,
    /// Retransmissions allowed after the first attempt before the sender
    /// gives up on a lost message.
    pub max_retries: u32,
    /// Wait before the first retry (seconds of simulated time); doubles on
    /// every further retry.
    pub backoff_base_s: f64,
    /// Per-block probability that a client is a compute straggler.
    pub straggler_rate: f32,
    /// Maximum slowdown factor: a straggler's factor is drawn uniformly
    /// from `(1, straggler_slowdown]`.
    pub straggler_slowdown: f64,
    /// Per-block deadline as a multiple of the nominal block time: a
    /// straggler slower than this is cut from the block's aggregation.
    pub deadline_factor: f64,
    /// Per-block probability that a surviving client uploads a corrupted
    /// (Byzantine) update instead of its honest one.
    pub corrupt_rate: f32,
    /// Which corruption a Byzantine client applies (see [`AttackModel`]).
    pub attack: AttackModel,
    /// Attack magnitude κ: delta multiplier for `sign-flip`/`scale`/
    /// `collude`, per-coordinate noise stddev for `noise`; unused by
    /// `zero`.
    pub attack_scale: f64,
    /// Multiplicative jitter on retry-backoff waits, as a fraction in
    /// `[0, 1]`: each wait is scaled by `1 + jitter·(u − ½)` with `u`
    /// drawn from a per-message `Purpose::BackoffJitter` stream, so retry
    /// latencies desynchronise across edges. Zero makes no draws and
    /// keeps the exact doubling schedule.
    pub backoff_jitter: f64,
}

/// The failure-free plan.
pub const NO_FAULTS: FaultPlan = FaultPlan {
    client_crash: 0.0,
    edge_outage: 0.0,
    msg_loss: 0.0,
    max_retries: 2,
    backoff_base_s: 0.05,
    straggler_rate: 0.0,
    straggler_slowdown: 1.0,
    deadline_factor: 2.0,
    corrupt_rate: 0.0,
    attack: AttackModel::SignFlip,
    attack_scale: 1.0,
    backoff_jitter: 0.0,
};

impl Default for FaultPlan {
    fn default() -> Self {
        NO_FAULTS
    }
}

/// Names accepted by [`FaultPlan::preset`], in help order.
pub const FAULT_PRESETS: [&str; 7] = [
    "none",
    "flaky-clients",
    "edge-outages",
    "lossy-wan",
    "stragglers",
    "byzantine",
    "chaos",
];

impl FaultPlan {
    /// Whether every crash/outage/loss/straggler rate is zero (none of
    /// those streams are ever drawn). Deliberately ignores the adversary
    /// knobs: adversarial activity is gated by [`FaultPlan::has_adversary`]
    /// and reported through `QuarantineStats`, so the legacy
    /// `fault_summary` gating stays bit-identical.
    pub fn is_none(&self) -> bool {
        self.client_crash == 0.0
            && self.edge_outage == 0.0
            && self.msg_loss == 0.0
            && self.straggler_rate == 0.0
    }

    /// Whether the plan injects Byzantine clients (corruption streams are
    /// drawn for surviving clients).
    pub fn has_adversary(&self) -> bool {
        self.corrupt_rate > 0.0
    }

    /// Check parameter ranges, returning a description of the first
    /// violation. Non-finite values are rejected everywhere: NaN fails
    /// the explicit `is_finite` guard rather than sliding through a
    /// range comparison.
    pub fn validate(&self) -> Result<(), String> {
        let prob = |name: &str, v: f32| -> Result<(), String> {
            if v.is_finite() && (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} must be finite in [0, 1], got {v}"))
            }
        };
        prob("client_crash", self.client_crash)?;
        prob("edge_outage", self.edge_outage)?;
        prob("msg_loss", self.msg_loss)?;
        prob("straggler_rate", self.straggler_rate)?;
        prob("corrupt_rate", self.corrupt_rate)?;
        if !(self.attack_scale >= 0.0 && self.attack_scale.is_finite()) {
            return Err(format!(
                "attack_scale must be finite and ≥ 0, got {}",
                self.attack_scale
            ));
        }
        if !(self.backoff_jitter.is_finite() && (0.0..=1.0).contains(&self.backoff_jitter)) {
            return Err(format!(
                "backoff_jitter must be finite in [0, 1], got {}",
                self.backoff_jitter
            ));
        }
        if !(self.backoff_base_s >= 0.0 && self.backoff_base_s.is_finite()) {
            return Err(format!(
                "backoff_base_s must be finite and ≥ 0, got {}",
                self.backoff_base_s
            ));
        }
        if !(self.straggler_slowdown >= 1.0 && self.straggler_slowdown.is_finite()) {
            return Err(format!(
                "straggler_slowdown must be finite and ≥ 1, got {}",
                self.straggler_slowdown
            ));
        }
        if !(self.deadline_factor >= 1.0 && self.deadline_factor.is_finite()) {
            return Err(format!(
                "deadline_factor must be finite and ≥ 1, got {}",
                self.deadline_factor
            ));
        }
        Ok(())
    }

    /// A named preset (the `--fault-plan` vocabulary), or `None` for an
    /// unknown name. See [`FAULT_PRESETS`].
    pub fn preset(name: &str) -> Option<FaultPlan> {
        match name {
            "none" => Some(NO_FAULTS),
            "flaky-clients" => Some(FaultPlan {
                client_crash: 0.2,
                ..NO_FAULTS
            }),
            "edge-outages" => Some(FaultPlan {
                edge_outage: 0.15,
                ..NO_FAULTS
            }),
            "lossy-wan" => Some(FaultPlan {
                msg_loss: 0.15,
                max_retries: 3,
                backoff_base_s: 0.1,
                ..NO_FAULTS
            }),
            "stragglers" => Some(FaultPlan {
                straggler_rate: 0.25,
                straggler_slowdown: 4.0,
                deadline_factor: 2.5,
                ..NO_FAULTS
            }),
            "byzantine" => Some(FaultPlan {
                corrupt_rate: 0.2,
                attack: AttackModel::SignFlip,
                attack_scale: 8.0,
                ..NO_FAULTS
            }),
            "chaos" => Some(FaultPlan {
                client_crash: 0.1,
                edge_outage: 0.1,
                msg_loss: 0.1,
                max_retries: 2,
                backoff_base_s: 0.1,
                straggler_rate: 0.15,
                straggler_slowdown: 3.0,
                deadline_factor: 2.0,
                ..NO_FAULTS
            }),
            _ => None,
        }
    }

    // --- Pure decision functions -------------------------------------
    //
    // Everything below is a pure function of (plan, seed, indices): the
    // injector and the conformance replayer both call these, which is
    // what makes the degraded-round protocol checkable.

    /// Whether a client crashed for the block keyed by `block_tag`
    /// (`round·τ2 + t2`), drawn from the `Purpose::Dropout` stream; at
    /// `level == 0` the stream entity is the plain client id.
    pub fn client_crashed(&self, seed: u64, block_tag: u64, level: usize, client: usize) -> bool {
        if self.client_crash == 0.0 {
            return false;
        }
        let mut rng = StreamRng::for_key(StreamKey::new(
            seed,
            Purpose::Dropout,
            block_tag,
            entity(level, client),
        ));
        rng.uniform() < f64::from(self.client_crash)
    }

    /// Whether an edge server is out for the given round.
    pub fn edge_out(&self, seed: u64, round: u64, level: usize, edge: usize) -> bool {
        if self.edge_outage == 0.0 {
            return false;
        }
        let mut rng = StreamRng::for_key(StreamKey::new(
            seed,
            Purpose::EdgeOutage,
            round,
            entity(level, edge),
        ));
        rng.uniform() < f64::from(self.edge_outage)
    }

    /// A client's straggler fate for the block keyed by `block_tag`.
    pub fn straggler(
        &self,
        seed: u64,
        block_tag: u64,
        level: usize,
        client: usize,
    ) -> StragglerFate {
        if self.straggler_rate == 0.0 {
            return StragglerFate::OnTime;
        }
        let mut rng = StreamRng::for_key(StreamKey::new(
            seed,
            Purpose::Straggler,
            block_tag,
            entity(level, client),
        ));
        if rng.uniform() >= f64::from(self.straggler_rate) {
            return StragglerFate::OnTime;
        }
        let slowdown = 1.0 + rng.uniform() * (self.straggler_slowdown - 1.0);
        if slowdown > self.deadline_factor {
            StragglerFate::Missed
        } else {
            StragglerFate::Slow(slowdown)
        }
    }

    /// Whether a surviving client is Byzantine for the block keyed by
    /// `block_tag`. Drawn from its own `Purpose::Adversary` stream, so
    /// corruption coins never shift crash/straggler draws (and a zero
    /// rate makes no draws at all).
    pub fn client_corrupt(&self, seed: u64, block_tag: u64, level: usize, client: usize) -> bool {
        if self.corrupt_rate == 0.0 {
            return false;
        }
        let mut rng = StreamRng::for_key(StreamKey::new(
            seed,
            Purpose::Adversary,
            block_tag,
            entity(level, client),
        ));
        rng.uniform() < f64::from(self.corrupt_rate)
    }

    /// Apply the plan's attack to an update in place. `base` is the
    /// block-start model the honest update was computed from; `w` holds
    /// the honest update on entry and the corrupted upload on exit. Pure:
    /// stochastic attacks draw fresh `Purpose::AdversaryPayload` streams
    /// keyed by `(block_tag, level, client-or-block)`, so applying the
    /// same corruption twice (e.g. to a client's model and its
    /// checkpoint) yields the same transform and runs replay
    /// bit-identically from any executor.
    pub fn corrupt_update(
        &self,
        seed: u64,
        block_tag: u64,
        level: usize,
        client: usize,
        base: &[f32],
        w: &mut [f32],
    ) {
        debug_assert_eq!(base.len(), w.len());
        let k = self.attack_scale as f32;
        match self.attack {
            AttackModel::SignFlip => {
                for (wj, &bj) in w.iter_mut().zip(base) {
                    *wj = bj - k * (*wj - bj);
                }
            }
            AttackModel::Scale => {
                for (wj, &bj) in w.iter_mut().zip(base) {
                    *wj = bj + k * (*wj - bj);
                }
            }
            AttackModel::Noise => {
                let mut rng = StreamRng::for_key(StreamKey::new(
                    seed,
                    Purpose::AdversaryPayload,
                    block_tag,
                    entity(level, client),
                ));
                for wj in w.iter_mut() {
                    *wj += (self.attack_scale * rng.normal()) as f32;
                }
            }
            AttackModel::Zero => w.copy_from_slice(base),
            AttackModel::Collude => {
                // One shared direction per (block, level): every colluder
                // re-derives the same stream, so corruptions reinforce.
                let mut rng = StreamRng::for_key(StreamKey::new(
                    seed,
                    Purpose::AdversaryPayload,
                    block_tag,
                    entity(level, u32::MAX as usize),
                ));
                for (wj, &bj) in w.iter_mut().zip(base) {
                    *wj = bj + (self.attack_scale * rng.normal()) as f32;
                }
            }
        }
    }

    /// Replay the delivery of one edge↔cloud message: sequential loss
    /// draws from the message's own stream, up to `1 + max_retries`
    /// attempts, doubling backoff between attempts.
    pub fn delivery(
        &self,
        seed: u64,
        round: u64,
        level: usize,
        channel: MsgChannel,
        edge: usize,
    ) -> Delivery {
        if self.msg_loss == 0.0 {
            return Delivery {
                attempts: 1,
                delivered: true,
                backoff_s: 0.0,
            };
        }
        let link = ((level as u64) << 34) | (channel.tag() << 32) | edge as u64;
        let mut rng = StreamRng::for_key(StreamKey::new(seed, Purpose::MsgLoss, round, link));
        // Jitter draws come from their own per-message stream so enabling
        // jitter never shifts the loss coins (and zero jitter draws
        // nothing, keeping the exact doubling schedule bit-identical).
        let mut jrng = (self.backoff_jitter > 0.0)
            .then(|| StreamRng::for_key(StreamKey::new(seed, Purpose::BackoffJitter, round, link)));
        let loss = f64::from(self.msg_loss);
        let mut backoff_s = 0.0;
        let mut wait = self.backoff_base_s;
        for attempt in 1..=(1 + self.max_retries) {
            if rng.uniform() >= loss {
                return Delivery {
                    attempts: attempt,
                    delivered: true,
                    backoff_s,
                };
            }
            if attempt <= self.max_retries {
                let step = match jrng.as_mut() {
                    Some(j) => wait * (1.0 + self.backoff_jitter * (j.uniform() - 0.5)),
                    None => wait,
                };
                backoff_s += step;
                wait *= 2.0;
            }
        }
        Delivery {
            attempts: 1 + self.max_retries,
            delivered: false,
            backoff_s,
        }
    }
}

/// Snapshot of a run's fault bookkeeping (all counters cumulative).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultStats {
    /// Client-crash events (per block, per client).
    pub crashes: u64,
    /// Edge-outage observations (per phase that consulted the edge; an
    /// edge out in both phases of a round counts twice).
    pub outages: u64,
    /// Message retransmissions (attempts beyond the first).
    pub retries: u64,
    /// Messages whose retries were exhausted.
    pub gave_up: u64,
    /// Clients cut from a block by the straggler deadline.
    pub deadline_missed: u64,
    /// Simulated seconds spent in retry backoff waits.
    pub backoff_s: f64,
    /// Extra local-SGD time slots spent waiting for in-deadline
    /// stragglers (fractional; multiply by the latency model's
    /// `client_step_s` for seconds).
    pub straggler_slots: f64,
}

impl FaultStats {
    /// Counter-wise difference `self − earlier` (per-round deltas).
    pub fn since(&self, earlier: &FaultStats) -> FaultStats {
        FaultStats {
            crashes: self.crashes - earlier.crashes,
            outages: self.outages - earlier.outages,
            retries: self.retries - earlier.retries,
            gave_up: self.gave_up - earlier.gave_up,
            deadline_missed: self.deadline_missed - earlier.deadline_missed,
            backoff_s: self.backoff_s - earlier.backoff_s,
            straggler_slots: self.straggler_slots - earlier.straggler_slots,
        }
    }

    /// Total fault occurrences of any class.
    pub fn total(&self) -> u64 {
        self.crashes + self.outages + self.retries + self.gave_up + self.deadline_missed
    }
}

/// Snapshot of a run's adversary/quarantine bookkeeping (cumulative).
/// Kept separate from [`FaultStats`] so the legacy snapshot layout,
/// `fault_summary` schema, and pinned corpus stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuarantineStats {
    /// Uploads replaced by an attack (per block, per corrupted client).
    pub corrupted_updates: u64,
    /// Quarantine sentences handed out by the z-score pass (a client
    /// re-quarantined after its window expires counts again).
    pub quarantined_clients: u64,
    /// Uploads suppressed because the client sat in quarantine
    /// (per block, per excluded client).
    pub excluded_uploads: u64,
}

impl QuarantineStats {
    /// Counter-wise difference `self − earlier` (per-round deltas).
    pub fn since(&self, earlier: &QuarantineStats) -> QuarantineStats {
        QuarantineStats {
            corrupted_updates: self.corrupted_updates - earlier.corrupted_updates,
            quarantined_clients: self.quarantined_clients - earlier.quarantined_clients,
            excluded_uploads: self.excluded_uploads - earlier.excluded_uploads,
        }
    }

    /// Total adversary-layer occurrences of any class.
    pub fn total(&self) -> u64 {
        self.corrupted_updates + self.quarantined_clients + self.excluded_uploads
    }
}

/// Run-scoped fault oracle: the pure [`FaultPlan`] decisions plus
/// thread-safe occurrence counting and simulated-time accumulation.
///
/// Counting uses relaxed atomics (the same argument as `CommMeter`: no
/// cross-counter invariant is read mid-run); the float accumulators sit
/// behind a mutex and are only touched in sequential protocol sections.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    plan: FaultPlan,
    crashes: AtomicU64,
    outages: AtomicU64,
    retries: AtomicU64,
    gave_up: AtomicU64,
    deadline_missed: AtomicU64,
    corrupted: AtomicU64,
    quarantined: AtomicU64,
    excluded: AtomicU64,
    seconds: Mutex<(f64, f64)>, // (backoff_s, straggler_slots)
}

impl FaultInjector {
    /// Bind a plan to a run's master seed.
    ///
    /// # Panics
    /// Panics on an invalid plan (see [`FaultPlan::validate`]).
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        Self {
            seed,
            plan,
            crashes: AtomicU64::new(0),
            outages: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            gave_up: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            excluded: AtomicU64::new(0),
            seconds: Mutex::new((0.0, 0.0)),
        }
    }

    /// An injector that never faults (for fault-free callers).
    pub fn none(seed: u64) -> Self {
        Self::new(seed, NO_FAULTS)
    }

    /// The bound plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any fault class has a nonzero rate.
    pub fn is_active(&self) -> bool {
        !self.plan.is_none()
    }

    /// Whether the plan injects Byzantine clients.
    pub fn has_adversary(&self) -> bool {
        self.plan.has_adversary()
    }

    /// Whether a surviving client is Byzantine this block; counts
    /// corrupted uploads.
    pub fn client_corrupt(&self, block_tag: u64, level: usize, client: usize) -> bool {
        let corrupt = self
            .plan
            .client_corrupt(self.seed, block_tag, level, client);
        if corrupt {
            self.corrupted.fetch_add(1, Ordering::Relaxed);
        }
        corrupt
    }

    /// Apply the plan's attack to an update in place (pure; callable from
    /// parallel tasks). See [`FaultPlan::corrupt_update`].
    pub fn corrupt_update(
        &self,
        block_tag: u64,
        level: usize,
        client: usize,
        base: &[f32],
        w: &mut [f32],
    ) {
        self.plan
            .corrupt_update(self.seed, block_tag, level, client, base, w);
    }

    /// Count quarantine sentences handed out by the z-score pass.
    pub fn add_quarantined(&self, n: u64) {
        if n > 0 {
            self.quarantined.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count uploads suppressed because a client sat in quarantine.
    pub fn add_excluded(&self, n: u64) {
        if n > 0 {
            self.excluded.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Whether a client survives the block (not crashed); counts crashes.
    pub fn client_alive(&self, block_tag: u64, level: usize, client: usize) -> bool {
        let crashed = self
            .plan
            .client_crashed(self.seed, block_tag, level, client);
        if crashed {
            self.crashes.fetch_add(1, Ordering::Relaxed);
        }
        !crashed
    }

    /// Whether an edge is out this round; counts the observation.
    pub fn edge_out(&self, round: u64, level: usize, edge: usize) -> bool {
        let out = self.plan.edge_out(self.seed, round, level, edge);
        if out {
            self.outages.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// A client's straggler fate for a block; counts deadline misses.
    pub fn straggler(&self, block_tag: u64, level: usize, client: usize) -> StragglerFate {
        let fate = self.plan.straggler(self.seed, block_tag, level, client);
        if fate == StragglerFate::Missed {
            self.deadline_missed.fetch_add(1, Ordering::Relaxed);
        }
        fate
    }

    /// Deliver one edge↔cloud message; counts retries/give-ups and
    /// accumulates backoff time.
    pub fn deliver(&self, round: u64, level: usize, channel: MsgChannel, edge: usize) -> Delivery {
        let d = self.plan.delivery(self.seed, round, level, channel, edge);
        if d.attempts > 1 {
            self.retries
                .fetch_add(u64::from(d.attempts - 1), Ordering::Relaxed);
        }
        if !d.delivered {
            self.gave_up.fetch_add(1, Ordering::Relaxed);
        }
        if d.backoff_s > 0.0 {
            self.seconds.lock().0 += d.backoff_s;
        }
        d
    }

    /// Charge extra time slots spent waiting for in-deadline stragglers.
    pub fn add_straggler_slots(&self, slots: f64) {
        if slots > 0.0 {
            self.seconds.lock().1 += slots;
        }
    }

    /// Overwrite every counter with the values of a [`FaultStats`]
    /// snapshot. Used when resuming a checkpointed run: the injector's
    /// decision streams are pure functions of `(seed, round, entity)` and
    /// need no restoration, but the cumulative bookkeeping must be
    /// fast-forwarded so per-round deltas and the final stats match an
    /// uninterrupted run bit-for-bit.
    pub fn restore(&self, stats: &FaultStats) {
        self.crashes.store(stats.crashes, Ordering::Relaxed);
        self.outages.store(stats.outages, Ordering::Relaxed);
        self.retries.store(stats.retries, Ordering::Relaxed);
        self.gave_up.store(stats.gave_up, Ordering::Relaxed);
        self.deadline_missed
            .store(stats.deadline_missed, Ordering::Relaxed);
        *self.seconds.lock() = (stats.backoff_s, stats.straggler_slots);
    }

    /// Overwrite the adversary counters from a [`QuarantineStats`]
    /// snapshot (resume path; same contract as [`FaultInjector::restore`]).
    pub fn restore_adversary(&self, stats: &QuarantineStats) {
        self.corrupted
            .store(stats.corrupted_updates, Ordering::Relaxed);
        self.quarantined
            .store(stats.quarantined_clients, Ordering::Relaxed);
        self.excluded
            .store(stats.excluded_uploads, Ordering::Relaxed);
    }

    /// Snapshot the adversary/quarantine counters.
    pub fn adversary_stats(&self) -> QuarantineStats {
        QuarantineStats {
            corrupted_updates: self.corrupted.load(Ordering::Relaxed),
            quarantined_clients: self.quarantined.load(Ordering::Relaxed),
            excluded_uploads: self.excluded.load(Ordering::Relaxed),
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> FaultStats {
        let (backoff_s, straggler_slots) = *self.seconds.lock();
        FaultStats {
            crashes: self.crashes.load(Ordering::Relaxed),
            outages: self.outages.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            gave_up: self.gave_up.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
            backoff_s,
            straggler_slots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_plan_is_none_and_decides_nothing() {
        assert!(NO_FAULTS.is_none());
        assert!(!NO_FAULTS.client_crashed(1, 2, 0, 3));
        assert!(!NO_FAULTS.edge_out(1, 2, 0, 3));
        assert_eq!(NO_FAULTS.straggler(1, 2, 0, 3), StragglerFate::OnTime);
        let d = NO_FAULTS.delivery(1, 2, 0, MsgChannel::Phase1Down, 3);
        assert_eq!(
            d,
            Delivery {
                attempts: 1,
                delivered: true,
                backoff_s: 0.0
            }
        );
    }

    #[test]
    fn presets_resolve_and_validate() {
        for name in FAULT_PRESETS {
            let p = FaultPlan::preset(name).expect(name);
            p.validate().expect(name);
        }
        assert!(FaultPlan::preset("nope").is_none());
        assert!(FaultPlan::preset("none").unwrap().is_none());
        assert!(!FaultPlan::preset("chaos").unwrap().is_none());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut p = NO_FAULTS;
        p.client_crash = 1.5;
        assert!(p.validate().is_err());
        let mut p = NO_FAULTS;
        p.straggler_slowdown = 0.5;
        assert!(p.validate().is_err());
        let mut p = NO_FAULTS;
        p.deadline_factor = 0.0;
        assert!(p.validate().is_err());
        let mut p = NO_FAULTS;
        p.backoff_base_s = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn client_crash_matches_legacy_dropout_stream_at_level_zero() {
        // The legacy hier_common draw was:
        //   uniform() >= dropout  ⇔  alive
        // from (seed, Dropout, block_tag, client). The plan must replicate
        // it bit-for-bit at level 0 so the pinned corpus stays valid.
        let plan = FaultPlan {
            client_crash: 0.45,
            ..NO_FAULTS
        };
        for (seed, tag, client) in [(42u64, 0u64, 0usize), (7, 13, 5), (9, 999, 31)] {
            let mut legacy =
                StreamRng::for_key(StreamKey::new(seed, Purpose::Dropout, tag, client as u64));
            let legacy_alive = legacy.uniform() >= 0.45;
            assert_eq!(!plan.client_crashed(seed, tag, 0, client), legacy_alive);
        }
    }

    #[test]
    fn decisions_are_deterministic_and_key_sensitive() {
        let plan = FaultPlan::preset("chaos").unwrap();
        assert_eq!(
            plan.client_crashed(3, 5, 1, 7),
            plan.client_crashed(3, 5, 1, 7)
        );
        assert_eq!(
            plan.delivery(3, 5, 0, MsgChannel::Phase1Up, 7),
            plan.delivery(3, 5, 0, MsgChannel::Phase1Up, 7)
        );
        // Channels decorrelate: collect outcomes over many rounds and
        // check the two channels' loss patterns are not identical.
        let a: Vec<u32> = (0..64)
            .map(|r| plan.delivery(3, r, 0, MsgChannel::Phase1Down, 7).attempts)
            .collect();
        let b: Vec<u32> = (0..64)
            .map(|r| plan.delivery(3, r, 0, MsgChannel::Phase2Down, 7).attempts)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn levels_decorrelate_survival_bits() {
        // Satellite regression: two levels with equal block indices must
        // draw independent survival bits.
        let plan = FaultPlan {
            client_crash: 0.5,
            ..NO_FAULTS
        };
        let seed = 11;
        let l0: Vec<bool> = (0..256)
            .map(|c| plan.client_crashed(seed, 3, 0, c))
            .collect();
        let l1: Vec<bool> = (0..256)
            .map(|c| plan.client_crashed(seed, 3, 1, c))
            .collect();
        assert_ne!(l0, l1, "levels share a survival stream");
        // And both levels actually flip coins (≈ half crash).
        for v in [&l0, &l1] {
            let crashed = v.iter().filter(|&&b| b).count();
            assert!((64..192).contains(&crashed), "crashed {crashed}");
        }
    }

    #[test]
    fn delivery_respects_retry_bound_and_backoff_doubles() {
        let plan = FaultPlan {
            msg_loss: 1.0,
            max_retries: 3,
            backoff_base_s: 0.5,
            ..NO_FAULTS
        };
        let d = plan.delivery(1, 0, 0, MsgChannel::Phase1Down, 0);
        assert!(!d.delivered);
        assert_eq!(d.attempts, 4);
        // 0.5 + 1.0 + 2.0 (no wait after the final, abandoned attempt).
        assert!((d.backoff_s - 3.5).abs() < 1e-12);
    }

    #[test]
    fn delivery_statistics_track_loss_rate() {
        let plan = FaultPlan {
            msg_loss: 0.3,
            max_retries: 5,
            backoff_base_s: 0.0,
            ..NO_FAULTS
        };
        let n = 10_000;
        let first_try = (0..n)
            .filter(|&r| plan.delivery(21, r, 0, MsgChannel::Phase1Up, 0).attempts == 1)
            .count();
        let frac = first_try as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.02, "first-try rate {frac}");
    }

    #[test]
    fn straggler_fates_partition_by_deadline() {
        let plan = FaultPlan {
            straggler_rate: 1.0,
            straggler_slowdown: 4.0,
            deadline_factor: 2.5,
            ..NO_FAULTS
        };
        let mut slow = 0;
        let mut missed = 0;
        for c in 0..4_000 {
            match plan.straggler(5, 0, 0, c) {
                StragglerFate::OnTime => panic!("rate 1.0 cannot be on time"),
                StragglerFate::Slow(s) => {
                    assert!(s > 1.0 && s <= 2.5);
                    slow += 1;
                }
                StragglerFate::Missed => missed += 1,
            }
        }
        // Slowdown uniform on (1, 4]: P(≤ 2.5) = 0.5.
        let frac = slow as f64 / (slow + missed) as f64;
        assert!((frac - 0.5).abs() < 0.03, "in-deadline fraction {frac}");
    }

    #[test]
    fn injector_counts_and_accumulates() {
        let plan = FaultPlan {
            client_crash: 1.0,
            edge_outage: 1.0,
            msg_loss: 1.0,
            max_retries: 2,
            backoff_base_s: 0.25,
            ..NO_FAULTS
        };
        let fi = FaultInjector::new(9, plan);
        assert!(fi.is_active());
        assert!(!fi.client_alive(0, 0, 0));
        assert!(fi.edge_out(0, 0, 1));
        let d = fi.deliver(0, 0, MsgChannel::Phase1Down, 1);
        assert!(!d.delivered);
        fi.add_straggler_slots(1.5);
        let s = fi.stats();
        assert_eq!(s.crashes, 1);
        assert_eq!(s.outages, 1);
        assert_eq!(s.retries, 2);
        assert_eq!(s.gave_up, 1);
        assert!((s.backoff_s - 0.75).abs() < 1e-12);
        assert!((s.straggler_slots - 1.5).abs() < 1e-12);
        assert_eq!(s.total(), 5);
        // Deltas telescope.
        let d2 = fi.stats().since(&s);
        assert_eq!(d2, FaultStats::default());
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn injector_rejects_invalid_plan() {
        let mut p = NO_FAULTS;
        p.msg_loss = -0.1;
        let _ = FaultInjector::new(0, p);
    }

    #[test]
    fn validate_rejects_non_finite_rates_everywhere() {
        // Satellite bugfix: every knob must reject NaN and ±∞ explicitly,
        // not rely on a range check that NaN can slip past.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for field in 0..5 {
                let mut p = NO_FAULTS;
                match field {
                    0 => p.client_crash = bad,
                    1 => p.edge_outage = bad,
                    2 => p.msg_loss = bad,
                    3 => p.straggler_rate = bad,
                    _ => p.corrupt_rate = bad,
                }
                assert!(p.validate().is_err(), "field {field} accepted {bad}");
            }
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for field in 0..5 {
                let mut p = NO_FAULTS;
                match field {
                    0 => p.backoff_base_s = bad,
                    1 => p.straggler_slowdown = bad,
                    2 => p.deadline_factor = bad,
                    3 => p.attack_scale = bad,
                    _ => p.backoff_jitter = bad,
                }
                assert!(p.validate().is_err(), "f64 field {field} accepted {bad}");
            }
        }
        assert!(NO_FAULTS.validate().is_ok());
    }

    #[test]
    fn zero_corrupt_rate_never_corrupts() {
        assert!(!NO_FAULTS.has_adversary());
        for c in 0..64 {
            assert!(!NO_FAULTS.client_corrupt(7, 3, 0, c));
        }
    }

    #[test]
    fn corrupt_decisions_are_deterministic_and_track_rate() {
        let plan = FaultPlan::preset("byzantine").unwrap();
        assert!(plan.has_adversary());
        assert!(plan.is_none(), "byzantine preset must not inject crashes");
        let bits: Vec<bool> = (0..4_000)
            .map(|c| plan.client_corrupt(11, 5, 0, c))
            .collect();
        let again: Vec<bool> = (0..4_000)
            .map(|c| plan.client_corrupt(11, 5, 0, c))
            .collect();
        assert_eq!(bits, again);
        let frac = bits.iter().filter(|&&b| b).count() as f64 / 4_000.0;
        assert!((frac - 0.2).abs() < 0.02, "corrupt fraction {frac}");
        // Corruption coins live on their own purpose stream: they must
        // not mirror the Dropout stream at equal indices.
        let crash_plan = FaultPlan {
            client_crash: 0.2,
            ..NO_FAULTS
        };
        let crash_bits: Vec<bool> = (0..4_000)
            .map(|c| crash_plan.client_crashed(11, 5, 0, c))
            .collect();
        assert_ne!(bits, crash_bits);
    }

    #[test]
    fn attack_models_transform_as_specified() {
        let base = [1.0_f32, -2.0, 0.5];
        let honest = [1.5_f32, -2.5, 0.5];
        let mk = |attack, k| FaultPlan {
            corrupt_rate: 1.0,
            attack,
            attack_scale: k,
            ..NO_FAULTS
        };

        let mut w = honest;
        mk(AttackModel::SignFlip, 2.0).corrupt_update(1, 2, 0, 3, &base, &mut w);
        assert_eq!(w, [0.0, -1.0, 0.5]); // base − 2·(honest − base)

        let mut w = honest;
        mk(AttackModel::Scale, 3.0).corrupt_update(1, 2, 0, 3, &base, &mut w);
        assert_eq!(w, [2.5, -3.5, 0.5]); // base + 3·(honest − base)

        let mut w = honest;
        mk(AttackModel::Zero, 1.0).corrupt_update(1, 2, 0, 3, &base, &mut w);
        assert_eq!(w, base);

        // Noise is keyed per client and repeatable.
        let noise = mk(AttackModel::Noise, 0.1);
        let mut a = honest;
        let mut b = honest;
        noise.corrupt_update(1, 2, 0, 3, &base, &mut a);
        noise.corrupt_update(1, 2, 0, 3, &base, &mut b);
        assert_eq!(a, b);
        assert_ne!(a, honest);
        let mut other = honest;
        noise.corrupt_update(1, 2, 0, 4, &base, &mut other);
        assert_ne!(a, other, "noise must decorrelate across clients");

        // Colluders in the same block share one direction.
        let collude = mk(AttackModel::Collude, 1.0);
        let mut c3 = honest;
        let mut c4 = [9.0_f32, 9.0, 9.0]; // honest update is irrelevant
        collude.corrupt_update(1, 2, 0, 3, &base, &mut c3);
        collude.corrupt_update(1, 2, 0, 4, &base, &mut c4);
        assert_eq!(c3, c4, "colluders must upload the same vector");
        let mut c5 = honest;
        collude.corrupt_update(1, 3, 0, 3, &base, &mut c5);
        assert_ne!(c3, c5, "collusion direction must change per block");
    }

    #[test]
    fn backoff_jitter_desynchronizes_but_preserves_outcomes() {
        let lossy = FaultPlan {
            msg_loss: 1.0,
            max_retries: 3,
            backoff_base_s: 0.5,
            ..NO_FAULTS
        };
        let jittered = FaultPlan {
            backoff_jitter: 0.5,
            ..lossy
        };
        let plain = lossy.delivery(1, 0, 0, MsgChannel::Phase1Down, 0);
        let jit = jittered.delivery(1, 0, 0, MsgChannel::Phase1Down, 0);
        // Same attempts and outcome: jitter only perturbs wait times.
        assert_eq!(plain.attempts, jit.attempts);
        assert_eq!(plain.delivered, jit.delivered);
        assert!((plain.backoff_s - 3.5).abs() < 1e-12, "default stays exact");
        assert!(jit.backoff_s != plain.backoff_s);
        // Each wait is scaled by at most 1 ± jitter/2.
        assert!(jit.backoff_s > 3.5 * 0.75 && jit.backoff_s < 3.5 * 1.25);
        // Deterministic, and desynchronized across edges.
        assert_eq!(jit, jittered.delivery(1, 0, 0, MsgChannel::Phase1Down, 0));
        let other = jittered.delivery(1, 0, 0, MsgChannel::Phase1Down, 1);
        assert_eq!(other.attempts, jit.attempts);
        assert_ne!(other.backoff_s, jit.backoff_s, "edges must desync");
        // Jitter draws never touch the loss stream: delivery patterns
        // match coin-for-coin with jitter on and off.
        let chatty = FaultPlan {
            msg_loss: 0.4,
            max_retries: 4,
            ..NO_FAULTS
        };
        let chatty_jit = FaultPlan {
            backoff_jitter: 1.0,
            ..chatty
        };
        for r in 0..256 {
            let a = chatty.delivery(9, r, 0, MsgChannel::Phase1Up, 2);
            let b = chatty_jit.delivery(9, r, 0, MsgChannel::Phase1Up, 2);
            assert_eq!((a.attempts, a.delivered), (b.attempts, b.delivered));
        }
    }

    #[test]
    fn injector_tracks_adversary_counters_and_restores() {
        let fi = FaultInjector::new(3, FaultPlan::preset("byzantine").unwrap());
        assert!(fi.has_adversary());
        assert!(
            !fi.is_active(),
            "adversary alone must not gate fault_summary"
        );
        let mut hits = 0;
        for c in 0..64 {
            if fi.client_corrupt(0, 0, c) {
                hits += 1;
            }
        }
        fi.add_quarantined(2);
        fi.add_excluded(5);
        let s = fi.adversary_stats();
        assert_eq!(s.corrupted_updates, hits);
        assert_eq!(s.quarantined_clients, 2);
        assert_eq!(s.excluded_uploads, 5);
        assert_eq!(s.total(), hits + 7);
        assert_eq!(s.since(&s), QuarantineStats::default());
        let fresh = FaultInjector::new(3, FaultPlan::preset("byzantine").unwrap());
        fresh.restore_adversary(&s);
        assert_eq!(fresh.adversary_stats(), s);
    }
}
