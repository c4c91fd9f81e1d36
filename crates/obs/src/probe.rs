//! The monomorphized probe trait and the per-round record it receives.
//!
//! Trial loops are generic over `Pr: Probe` and guard every
//! instrumentation block with `if Pr::ENABLED { .. }`. Because
//! `ENABLED` is an associated *const*, the guard is resolved at
//! monomorphization time: with [`NoProbe`] the whole block — including
//! the pre-`step` snapshot reads — is dead code and compiles away.
//!
//! **Observe-only contract.** A probe sees the process *after* a round
//! committed; it must not mutate process state and has no access to the
//! trial RNG. Every field of [`RoundRecord`] is derived from read-only
//! view deltas, so enabling a probe can never perturb the RNG stream or
//! the trajectory it observes.

/// One executed round, observed immediately after `step()` returned.
///
/// All quantities are *post-round*; per-round deltas are computed by
/// the engine from snapshots taken just before the step (only when the
/// probe is enabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord<'a> {
    /// 1-based index of the round that just executed.
    pub round: usize,
    /// Frontier size after the round (the active set for COBRA, the
    /// walker or live-particle count for the walk families; falls back
    /// to the reached count for processes without a distinct frontier).
    pub frontier: usize,
    /// Vertices covered for the first time during this round.
    pub new_covered: usize,
    /// Total vertices reached after the round.
    pub reached: usize,
    /// Transmissions performed during this round.
    pub transmissions: u64,
    /// Cumulative transmissions after the round.
    pub total_transmissions: u64,
    /// Picks that coalesced this round: transmissions that landed on a
    /// destination another pick already claimed
    /// (`transmissions − |frontier after|`, saturating).
    pub coalesced: u64,
    /// Inbound cross-shard exchange traffic per shard (vertex ids
    /// received at the barrier). Empty for unsharded execution.
    pub shard_traffic: &'a [u64],
}

/// Final totals of one trial, mirroring `cobra_mc::TrialOutcome`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialTotals {
    /// Rounds until the stop condition, `None` if the cap censored the
    /// trial.
    pub rounds: Option<usize>,
    /// Rounds actually executed (equals the cap when censored).
    pub executed: usize,
    /// Vertices reached when the trial ended.
    pub reached: usize,
    /// Total transmissions performed.
    pub transmissions: u64,
}

/// Observation hook the trial loops monomorphize over.
///
/// Implementations receive every round record and the trial totals.
/// The `ENABLED` const gates all instrumentation: when `false` the
/// engine skips snapshotting and record construction entirely.
pub trait Probe {
    /// Whether instrumentation blocks should be compiled/executed.
    const ENABLED: bool;

    /// Called after each executed round with the observed record.
    fn on_round(&mut self, _record: &RoundRecord<'_>) {}

    /// Called once when the trial ends.
    fn on_trial_end(&mut self, _totals: &TrialTotals) {}
}

/// The default probe: observes nothing, costs nothing.
///
/// With `ENABLED = false` every `if Pr::ENABLED` block in the trial
/// loop is statically dead, so the probed loop compiles to exactly the
/// unprobed one — bit-identity and zero-allocation guarantees hold by
/// construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;
}
