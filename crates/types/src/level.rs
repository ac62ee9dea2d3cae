//! The extensible isolation-level lattice and per-transaction level
//! policies.
//!
//! The paper checks SI and (via commit-timestamp arbitration, §VI-A)
//! SER, but real deployments run *mixed* workloads where each session —
//! or each transaction — picks its own level, the setting of "On the
//! Complexity of Checking Mixed Isolation Levels for SQL Transactions"
//! (Bouajjani, Enea & Román-Calvo). This module turns the former closed
//! two-variant `Mode` into an open lattice:
//!
//! * [`IsolationLevel`] — a `#[non_exhaustive]` enum ordered by
//!   [`PartialOrd`]: `a <= b` holds exactly when every history valid at
//!   `b` is valid at `a` under the timestamp semantics below. That
//!   order is genuinely *partial*:
//!
//!   ```text
//!       Si      Ser          SI and SER are both maximal — SER's
//!       |       /            commit-order arbitration ignores start
//!       Ra     /             timestamps entirely, so a SER-valid
//!        \    /              history can still fracture a
//!         \  /               start-anchored snapshot (start-side
//!          Rc                clock skew is EXT at SI/RA, invisible
//!   ```                      at SER), and vice versa (write skew).
//!
//!   [`weakest`]/[`strongest`] are the lattice meet/join, not
//!   `min`/`max`: `weakest(Si, Ser)` is `ReadCommitted` (the strongest
//!   level both guarantee), and `strongest(Si, Ser)` is `None` — no
//!   built-in level dominates both;
//! * [`LevelChecks`] — the per-level *predicate set*: which timestamp
//!   checks (read anchor, EXT predicate, NOCONFLICT, SESSION embedding)
//!   a level activates. Checkers dispatch on this instead of matching
//!   on the enum, so adding a level is a data change, not a code sweep;
//! * [`LevelPolicy`] — how a checking session assigns levels to the
//!   transactions it is fed: one uniform level, a per-session map, or
//!   the per-transaction declaration carried on
//!   [`Transaction::level`](crate::Transaction::level).
//!
//! ## The four built-in levels as timestamp predicate sets
//!
//! | level | read anchor | EXT predicate | NOCONFLICT | SESSION embeds via |
//! |-------|-------------|---------------|------------|--------------------|
//! | `ReadCommitted` | commit event | some committed version ≤ anchor | — | commit order |
//! | `ReadAtomic` | start event | exact frontier at anchor | — | snapshot order |
//! | `Si` | start event | exact frontier at anchor | ✓ | snapshot order |
//! | `Ser` | commit event | exact frontier at anchor | — | commit order |
//!
//! `ReadAtomic` is the timestamp-based reading of Read Atomic (Biswas &
//! Enea's axiomatic RA; RAMP transactions): every transaction observes
//! one consistent start-anchored snapshot — no fractured reads — but
//! concurrent writers are permitted, so lost updates and write skew
//! pass. `ReadCommitted` only requires observations to be *some*
//! committed (never aborted, never intermediate) version that existed
//! by the reader's commit; staleness is permitted, so read skew passes
//! too. INT (read-your-writes within a transaction) and collection
//! integrity (unique ids/timestamps, Eq. 1) are level-independent and
//! always checked.
//!
//! [`weakest`]: IsolationLevel::weakest
//! [`strongest`]: IsolationLevel::strongest

use crate::ids::SessionId;
use std::cmp::Ordering;

/// An isolation level a transaction can be declared — and checked — at.
///
/// Ordered as a lattice via [`PartialOrd`]: `a <= b` means every
/// history valid at `b` is valid at `a` (`b` is *stronger*); `SI` and
/// `SER` are incomparable (see the module docs' Hasse diagram), so
/// comparisons return `None` there and [`IsolationLevel::weakest`] /
/// [`IsolationLevel::strongest`] compute the real meet/join. The enum
/// is `#[non_exhaustive]`: future levels (prefix consistency, parallel
/// SI, …) can be added without breaking downstream matches, which must
/// carry a wildcard arm — dispatch on [`IsolationLevel::checks`]
/// instead where possible.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[non_exhaustive]
pub enum IsolationLevel {
    /// Read committed: reads observe *some* committed version, never an
    /// aborted or intermediate write (Adya's G1 prevention, PL-2).
    ReadCommitted,
    /// Read atomic: every transaction reads one consistent
    /// start-anchored snapshot (no fractured reads), but concurrent
    /// writers are permitted (no first-committer-wins).
    ReadAtomic,
    /// Snapshot isolation: read atomic plus NOCONFLICT
    /// (first-committer-wins on overlapping writers). The paper's AION
    /// / CHRONOS level.
    #[default]
    Si,
    /// Serializability under commit-timestamp arbitration: every
    /// transaction executes atomically at its commit event (paper
    /// §VI-A, AION-SER / CHRONOS-SER).
    Ser,
}

impl IsolationLevel {
    /// Every built-in level, in ascending (topological) lattice order.
    pub const ALL: &'static [IsolationLevel] = &[
        IsolationLevel::ReadCommitted,
        IsolationLevel::ReadAtomic,
        IsolationLevel::Si,
        IsolationLevel::Ser,
    ];

    /// The lower-case labels of [`IsolationLevel::ALL`], in the same
    /// order — the spellings [`IsolationLevel::parse`] accepts and CLI
    /// error messages list.
    pub const LABELS: &'static [&'static str] = &["rc", "ra", "si", "ser"];

    /// True when `self` strictly dominates `weaker` in the lattice:
    /// every history valid at `self` is valid at `weaker`. The covering
    /// relations are `RC < RA < SI` and `RC < SER` — SER dominates
    /// neither RA nor SI (the anchors differ; see the module docs).
    fn strictly_above(self, weaker: IsolationLevel) -> bool {
        use IsolationLevel::*;
        matches!((weaker, self), (ReadCommitted, ReadAtomic | Si | Ser) | (ReadAtomic, Si))
    }

    /// Lower-case label used in checker names, CLI flags and experiment
    /// tables: `"rc"`, `"ra"`, `"si"`, `"ser"`.
    pub fn label(self) -> &'static str {
        match self {
            IsolationLevel::ReadCommitted => "rc",
            IsolationLevel::ReadAtomic => "ra",
            IsolationLevel::Si => "si",
            IsolationLevel::Ser => "ser",
        }
    }

    /// Parse a [`label`](Self::label) (also accepts the long spellings
    /// `read-committed`, `read-atomic`, `snapshot-isolation`,
    /// `serializable`/`serializability`).
    pub fn parse(s: &str) -> Option<IsolationLevel> {
        match s {
            "rc" | "read-committed" => Some(IsolationLevel::ReadCommitted),
            "ra" | "read-atomic" => Some(IsolationLevel::ReadAtomic),
            "si" | "snapshot-isolation" => Some(IsolationLevel::Si),
            "ser" | "serializable" | "serializability" => Some(IsolationLevel::Ser),
            _ => None,
        }
    }

    /// The lattice *meet*: the strongest built-in level weaker than or
    /// equal to both — what a session shared by an `a`-client and a
    /// `b`-client is actually guaranteed. For comparable pairs this is
    /// the minimum; for the incomparable pairs (`Si`/`Ser`, `Ra`/`Ser`)
    /// it is `ReadCommitted`, their only common lower bound. `None`
    /// only if no built-in sits below both (impossible today —
    /// `ReadCommitted` is the bottom — but honest for extensions).
    pub fn weakest(a: IsolationLevel, b: IsolationLevel) -> Option<IsolationLevel> {
        let mut best: Option<IsolationLevel> = None;
        for &l in IsolationLevel::ALL {
            if l <= a && l <= b && best.is_none_or(|c| c <= l) {
                best = Some(l);
            }
        }
        best
    }

    /// The lattice *join*: the weakest built-in level stronger than or
    /// equal to both — the single level that would subsume checking at
    /// `a` *and* `b`. `None` for the incomparable pairs (`Si`/`Ser`,
    /// `Ra`/`Ser`): no built-in level dominates both, so a caller must
    /// genuinely check both.
    pub fn strongest(a: IsolationLevel, b: IsolationLevel) -> Option<IsolationLevel> {
        let mut best: Option<IsolationLevel> = None;
        for &l in IsolationLevel::ALL {
            if a <= l && b <= l && best.is_none_or(|c| l <= c) {
                best = Some(l);
            }
        }
        best
    }

    /// The timestamp predicate set this level activates — what the
    /// checkers actually dispatch on.
    pub fn checks(self) -> LevelChecks {
        match self {
            IsolationLevel::ReadCommitted => LevelChecks {
                anchor: ReadAnchor::Commit,
                ext: ExtPredicate::Committed,
                noconflict: false,
                session: SessionPredicate::CommitOrder,
            },
            IsolationLevel::ReadAtomic => LevelChecks {
                anchor: ReadAnchor::Start,
                ext: ExtPredicate::Frontier,
                noconflict: false,
                session: SessionPredicate::SnapshotOrder,
            },
            IsolationLevel::Si => LevelChecks {
                anchor: ReadAnchor::Start,
                ext: ExtPredicate::Frontier,
                noconflict: true,
                session: SessionPredicate::SnapshotOrder,
            },
            IsolationLevel::Ser => LevelChecks {
                anchor: ReadAnchor::Commit,
                ext: ExtPredicate::Frontier,
                noconflict: false,
                session: SessionPredicate::CommitOrder,
            },
        }
    }
}

impl PartialOrd for IsolationLevel {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        if self == other {
            Some(Ordering::Equal)
        } else if self.strictly_above(*other) {
            Some(Ordering::Greater)
        } else if other.strictly_above(*self) {
            Some(Ordering::Less)
        } else {
            None // Si/Ser and Ra/Ser: genuinely incomparable
        }
    }
}

impl std::fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for IsolationLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        IsolationLevel::parse(s)
            .ok_or_else(|| format!("unknown isolation level '{s}' (valid: rc|ra|si|ser)"))
    }
}

/// Where a level anchors its external reads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReadAnchor {
    /// Reads observe the state as of the transaction's start event
    /// (snapshot semantics: SI, RA).
    Start,
    /// Reads observe the state as of the transaction's commit event
    /// (commit-order semantics: SER, RC).
    Commit,
}

/// What an external read must observe to satisfy a level's EXT axiom.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExtPredicate {
    /// Exactly the latest version before the anchor (the paper's
    /// frontier read).
    Frontier,
    /// Any committed version at or below the anchor (or the initial
    /// value) — staleness is permitted, phantom/intermediate values are
    /// not. Monotone under asynchrony: late arrivals can only *justify*
    /// a tentatively-wrong read, never invalidate a right one.
    Committed,
}

/// How a level requires session order to embed into the history.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SessionPredicate {
    /// A transaction's snapshot must not predate its session
    /// predecessor's commit (`start_ts ≥ last_cts`; SI, RA).
    SnapshotOrder,
    /// Session order must embed into commit order
    /// (`commit_ts > last_cts`; start timestamps ignored; SER, RC).
    CommitOrder,
}

/// The timestamp predicate set of one [`IsolationLevel`] — see the
/// module docs for the per-level table. `#[non_exhaustive]`: obtained
/// via [`IsolationLevel::checks`], never constructed downstream, so new
/// predicates stay non-breaking.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub struct LevelChecks {
    /// Where external reads anchor.
    pub anchor: ReadAnchor,
    /// What external reads must observe.
    pub ext: ExtPredicate,
    /// Whether overlapping writers of one key violate the level
    /// (first-committer-wins).
    pub noconflict: bool,
    /// How session order must embed into the history.
    pub session: SessionPredicate,
}

/// How a checking session assigns isolation levels to the transactions
/// it is fed.
///
/// Carried on `aion_online::AionConfig`; every fed transaction is
/// checked against *its* resolved level, so one session can check a
/// mixed RC/RA/SI/SER stream. `#[non_exhaustive]`: construct via the
/// associated functions so future policies stay non-breaking.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum LevelPolicy {
    /// Every transaction is checked at one level (declared
    /// [`Transaction::level`](crate::Transaction::level)s are ignored).
    Uniform(IsolationLevel),
    /// Each session has a fixed level (e.g. per-tenant defaults);
    /// sessions absent from the map use `default`. Declared
    /// per-transaction levels are ignored — the policy is the session's.
    PerSession {
        /// `(session, level)` pairs, looked up per arrival.
        map: crate::FxHashMap<SessionId, IsolationLevel>,
        /// Level of sessions not in the map.
        default: IsolationLevel,
    },
    /// Each transaction is checked at its declared
    /// [`Transaction::level`](crate::Transaction::level); transactions
    /// declaring none use `default`.
    PerTxn {
        /// Level of transactions with no declaration.
        default: IsolationLevel,
    },
}

impl Default for LevelPolicy {
    fn default() -> Self {
        LevelPolicy::Uniform(IsolationLevel::Si)
    }
}

impl LevelPolicy {
    /// A uniform policy (the pre-lattice `Mode` behaviour).
    pub fn uniform(level: IsolationLevel) -> LevelPolicy {
        LevelPolicy::Uniform(level)
    }

    /// A per-session policy from `(session, level)` pairs.
    pub fn per_session(
        pairs: impl IntoIterator<Item = (SessionId, IsolationLevel)>,
        default: IsolationLevel,
    ) -> LevelPolicy {
        LevelPolicy::PerSession { map: pairs.into_iter().collect(), default }
    }

    /// A per-transaction policy honouring each transaction's declared
    /// level.
    pub fn per_txn(default: IsolationLevel) -> LevelPolicy {
        LevelPolicy::PerTxn { default }
    }

    /// `Some(level)` when every transaction resolves to one level —
    /// the fast path checkers use for naming and predicate hoisting.
    pub fn uniform_level(&self) -> Option<IsolationLevel> {
        match self {
            LevelPolicy::Uniform(l) => Some(*l),
            LevelPolicy::PerSession { map, default } => {
                let mut levels = map.values().copied().chain([*default]);
                let first = levels.next().expect("chain is non-empty");
                levels.all(|l| l == first).then_some(first)
            }
            LevelPolicy::PerTxn { .. } => None,
        }
    }

    /// Resolve the level a transaction is checked at under this policy.
    pub fn level_for(&self, txn: &crate::Transaction) -> IsolationLevel {
        match self {
            LevelPolicy::Uniform(l) => *l,
            LevelPolicy::PerSession { map, default } => {
                map.get(&txn.sid).copied().unwrap_or(*default)
            }
            LevelPolicy::PerTxn { default } => txn.level.unwrap_or(*default),
        }
    }

    /// Conservative: could any transaction under this policy activate a
    /// predicate? `probe` sees every level the policy can produce; for
    /// [`LevelPolicy::PerTxn`] that is every level (transactions declare
    /// freely). Checkers use this to skip whole index structures (e.g.
    /// the NOCONFLICT overlap index) when no level can ever need them.
    pub fn may_activate(&self, probe: impl Fn(LevelChecks) -> bool) -> bool {
        match self {
            LevelPolicy::Uniform(l) => probe(l.checks()),
            LevelPolicy::PerSession { map, default } => {
                map.values().chain([default]).any(|l| probe(l.checks()))
            }
            LevelPolicy::PerTxn { .. } => IsolationLevel::ALL.iter().any(|l| probe(l.checks())),
        }
    }

    /// Stable lower-case label: the uniform level's label, or `"mixed"`.
    pub fn label(&self) -> &'static str {
        match self.uniform_level() {
            Some(l) => l.label(),
            None => "mixed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Timestamp, Transaction, TxnBuilder, TxnId};

    #[test]
    fn partial_order_and_lattice_ops() {
        use IsolationLevel::*;
        // The comparable chains.
        assert!(ReadCommitted < ReadAtomic && ReadAtomic < Si);
        assert!(ReadCommitted < Ser);
        // SI and SER are incomparable — SER ignores start anchors, so it
        // does not subsume SI (dirty writes, start-side clock skew), and
        // SI does not subsume SER (write skew). Same for RA vs SER.
        assert_eq!(Si.partial_cmp(&Ser), None);
        assert_eq!(ReadAtomic.partial_cmp(&Ser), None);
        // Meet/join: minimum on chains, RC as the common floor of the
        // incomparable pairs, and no join above them.
        assert_eq!(IsolationLevel::weakest(ReadAtomic, Si), Some(ReadAtomic));
        assert_eq!(IsolationLevel::weakest(Si, Ser), Some(ReadCommitted));
        assert_eq!(IsolationLevel::weakest(Si, Si), Some(Si));
        assert_eq!(IsolationLevel::strongest(ReadCommitted, ReadAtomic), Some(ReadAtomic));
        assert_eq!(IsolationLevel::strongest(ReadAtomic, Ser), None);
        assert_eq!(IsolationLevel::strongest(Si, Ser), None);
        assert_eq!(IsolationLevel::default(), Si);
        // Meet and join are commutative and idempotent across the board.
        for &a in IsolationLevel::ALL {
            for &b in IsolationLevel::ALL {
                assert_eq!(IsolationLevel::weakest(a, b), IsolationLevel::weakest(b, a));
                assert_eq!(IsolationLevel::strongest(a, b), IsolationLevel::strongest(b, a));
            }
            assert_eq!(IsolationLevel::weakest(a, a), Some(a));
            assert_eq!(IsolationLevel::strongest(a, a), Some(a));
        }
    }

    #[test]
    fn labels_parse_and_roundtrip() {
        for (&l, &s) in IsolationLevel::ALL.iter().zip(IsolationLevel::LABELS) {
            assert_eq!(l.label(), s);
            assert_eq!(IsolationLevel::parse(s), Some(l));
            assert_eq!(s.parse::<IsolationLevel>().ok(), Some(l));
            assert_eq!(l.to_string(), s);
        }
        assert_eq!(IsolationLevel::parse("serializable"), Some(IsolationLevel::Ser));
        assert_eq!(IsolationLevel::parse("repeatable-read"), None);
        let err = "xx".parse::<IsolationLevel>().unwrap_err();
        assert!(err.contains("rc|ra|si|ser"), "{err}");
    }

    #[test]
    fn predicate_sets_match_the_doc_table() {
        use IsolationLevel::*;
        assert_eq!(Si.checks().anchor, ReadAnchor::Start);
        assert!(Si.checks().noconflict);
        assert_eq!(Ser.checks().anchor, ReadAnchor::Commit);
        assert!(!Ser.checks().noconflict);
        assert_eq!(ReadAtomic.checks().ext, ExtPredicate::Frontier);
        assert!(!ReadAtomic.checks().noconflict);
        assert_eq!(ReadCommitted.checks().ext, ExtPredicate::Committed);
        assert_eq!(ReadCommitted.checks().session, SessionPredicate::CommitOrder);
        // Monotonicity sanity: only SI activates NOCONFLICT; the two
        // commit-anchored levels share the session predicate.
        let nc: Vec<bool> = IsolationLevel::ALL.iter().map(|l| l.checks().noconflict).collect();
        assert_eq!(nc, vec![false, false, true, false]);
    }

    fn txn(sid: u32, level: Option<IsolationLevel>) -> Transaction {
        let mut b = TxnBuilder::new(1).session(sid, 0).interval(1, 2);
        if let Some(l) = level {
            b = b.level(l);
        }
        b.build()
    }

    #[test]
    fn policies_resolve_levels() {
        use IsolationLevel::*;
        let uni = LevelPolicy::uniform(Ser);
        assert_eq!(uni.level_for(&txn(0, Some(ReadCommitted))), Ser, "uniform ignores decls");
        assert_eq!(uni.uniform_level(), Some(Ser));
        assert_eq!(uni.label(), "ser");

        let per_sess = LevelPolicy::per_session([(crate::SessionId(1), ReadCommitted)], Si);
        assert_eq!(per_sess.level_for(&txn(1, Some(Ser))), ReadCommitted, "session wins");
        assert_eq!(per_sess.level_for(&txn(2, None)), Si);
        assert_eq!(per_sess.uniform_level(), None);
        assert_eq!(per_sess.label(), "mixed");
        let degenerate = LevelPolicy::per_session([(crate::SessionId(1), Si)], Si);
        assert_eq!(degenerate.uniform_level(), Some(Si), "all-same maps are uniform");

        let per_txn = LevelPolicy::per_txn(Si);
        assert_eq!(per_txn.level_for(&txn(0, Some(ReadAtomic))), ReadAtomic);
        assert_eq!(per_txn.level_for(&txn(0, None)), Si);
        assert_eq!(per_txn.uniform_level(), None);
    }

    #[test]
    fn may_activate_is_conservative() {
        let nc = |c: LevelChecks| c.noconflict;
        assert!(LevelPolicy::uniform(IsolationLevel::Si).may_activate(nc));
        assert!(!LevelPolicy::uniform(IsolationLevel::Ser).may_activate(nc));
        assert!(LevelPolicy::per_txn(IsolationLevel::Ser).may_activate(nc), "any decl possible");
        assert!(!LevelPolicy::per_session(
            [(crate::SessionId(0), IsolationLevel::ReadCommitted)],
            IsolationLevel::Ser
        )
        .may_activate(nc));
    }

    #[test]
    fn builder_sets_level() {
        let t = txn(0, Some(IsolationLevel::ReadAtomic));
        assert_eq!(t.level, Some(IsolationLevel::ReadAtomic));
        assert_eq!(t.start_ts, Timestamp(1));
        assert_eq!(t.tid, TxnId(1));
        assert_eq!(txn(0, None).level, None);
    }
}
