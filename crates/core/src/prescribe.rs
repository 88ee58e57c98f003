//! Replayable path prescriptions: plain-data descriptions of pending paths.
//!
//! The paper's §III-B engine is offline DSE: every path restarts from
//! scratch, so a pending branch flip is fully named by plain data — the
//! concrete input of the *parent* path plus the ordinal of the branch to
//! flip (SAGE's generational search item: Godefroid, Levin, Molnar,
//! "Automated Whitebox Fuzz Testing", NDSS 2008). A [`Prescription`] is
//! exactly that pair, carries no engine-local [`Term`] handles, and is
//! therefore `Send + 'static`: it is the frontier item of both engines.
//!
//! The sequential [`crate::Session`] keeps each parent's trail while its
//! children are pending and finds the flip in it with [`Flip::locate`],
//! solving on its long-lived incremental backend. Any other engine can
//! *replay* a prescription from scratch:
//!
//! 1. re-execute the parent input, recording the symbolic trail up to the
//!    prescribed branch (execution is deterministic, so the trail is
//!    reproduced exactly);
//! 2. assert the trail prefix plus the negated branch condition in a fresh
//!    solver context and check feasibility;
//! 3. on SAT, run the model's input to materialize the new path and emit
//!    prescriptions for the new path's unexplored suffix branches.
//!
//! Because each replay happens in a fresh engine context, the whole step is
//! a pure function of the prescription — the foundation of the
//! deterministic work-stealing exploration in [`crate::ParallelSession`].
//!
//! [`Term`]: binsym_smt::Term

use std::cmp::Ordering;

use binsym_smt::{Model, Term};

use crate::error::Error;
use crate::machine::{StepResult, TrailEntry};
use crate::memory::AddressPolicyKind;

/// Canonical identity of a path in the exploration tree.
///
/// The root path (the all-zero input) has the empty id; a path discovered
/// by flipping branch ordinal `k` of path `p` has id `p.child(k)`. The
/// [`Ord`] impl reproduces the *sequential depth-first discovery order* of
/// [`crate::Session`] with the default [`crate::Dfs`] strategy: parents
/// order before their children, and among siblings the deeper flip orders
/// first (the sequential engine pushes a path's flip candidates shallow to
/// deep and pops the deepest first). Sorting any set of outcomes by their
/// `PathId` therefore yields the exact order a sequential exploration would
/// have produced them in — independent of how many workers found them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PathId(Vec<u32>);

impl PathId {
    /// The id of the root path (initial all-zero input).
    pub fn root() -> Self {
        PathId(Vec::new())
    }

    /// The id of the path obtained by flipping branch ordinal `ord` of the
    /// path identified by `self`.
    pub fn child(&self, ord: usize) -> Self {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(ord as u32);
        PathId(v)
    }

    /// The flip ordinals from the root, outermost first.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }

    /// Rebuilds an id from its ordinal list (the [`crate::persist`] codec's
    /// decode path — the wire carries exactly `as_slice`).
    pub(crate) fn from_ordinals(ordinals: Vec<u32>) -> PathId {
        PathId(ordinals)
    }

    /// Tree depth (number of flips from the root path).
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// The id of the path this one was flipped from (`None` for the root).
    pub fn parent(&self) -> Option<PathId> {
        let (_, ancestors) = self.0.split_last()?;
        Some(PathId(ancestors.to_vec()))
    }
}

impl Ord for PathId {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            // Deeper flips first: DESCENDING ordinal at the first divergence.
            match b.cmp(a) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        // A parent (prefix) orders before its descendants.
        self.0.len().cmp(&other.0.len())
    }
}

impl PartialOrd for PathId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The branch flip a [`Prescription`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flip {
    /// Ordinal of the branch to flip, counted among the *branch* entries of
    /// the parent path's trail.
    pub ord: usize,
    /// Direction the parent path took at that branch; the replay asserts
    /// the opposite.
    pub taken: bool,
    /// Program counter of the branch site. Carried so scheduling policies
    /// (e.g. [`crate::CoverageGuided`]) can rank pending flips against a
    /// coverage map *without* replaying them; replay also cross-checks it
    /// against the reproduced trail as a divergence guard.
    pub pc: u32,
}

impl Flip {
    /// Locates this flip in a replayed parent trail: returns the trail
    /// index of the prescribed branch and its condition term, after
    /// cross-checking ordinal, direction, and branch site against the
    /// reproduced trail. These are **the** divergence guards of
    /// prescription replay — cold ([`crate::ParallelSession`]) and
    /// warm-start replay share this single implementation so the two
    /// paths can never drift apart.
    ///
    /// # Errors
    /// [`Error::ReplayDivergence`] when the trail has fewer branches than
    /// prescribed, or the branch at the ordinal differs in direction or
    /// site.
    pub fn locate(&self, trail: &[TrailEntry]) -> Result<(usize, Term), Error> {
        let mut ord = 0usize;
        for (i, entry) in trail.iter().enumerate() {
            if let TrailEntry::Branch { cond, taken, pc } = *entry {
                if ord == self.ord {
                    if taken != self.taken {
                        return Err(Error::ReplayDivergence {
                            what: "parent replay took the prescribed branch in the other direction",
                        });
                    }
                    if pc != self.pc {
                        return Err(Error::ReplayDivergence {
                            what: "parent replay reached the prescribed branch at a different site",
                        });
                    }
                    return Ok((i, cond));
                }
                ord += 1;
            }
        }
        Err(Error::ReplayDivergence {
            what: "parent replay recorded fewer branches than prescribed",
        })
    }
}

/// Extracts the `in{i}` witness bytes of a feasibility model — the
/// concrete input that drives execution down the materialized path.
/// Shared by cold and warm replay so the witness encoding has a single
/// definition.
pub fn witness_bytes(model: &Model, input_len: u32) -> Vec<u8> {
    (0..input_len)
        .map(|i| model.value(&format!("in{i}")).unwrap_or(0) as u8)
        .collect()
}

/// A pending path as plain data: `Send + 'static`, replayable on any
/// engine.
///
/// See the [module docs](self) for the replay algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prescription {
    /// Canonical identity of the path this prescription materializes.
    pub id: PathId,
    /// Concrete input driving the replay: the path's own input for the
    /// root prescription (`flip == None`), the *parent* path's input
    /// otherwise.
    pub input: Vec<u8>,
    /// The branch flip to apply; `None` for the root prescription, whose
    /// input is executed directly without a feasibility query.
    pub flip: Option<Flip>,
    /// The address-concretization policy the prescribing exploration ran
    /// under. Recorded so replay is exact: a replaying engine cross-checks
    /// this against its own executor's [`crate::PathExecutor::policy`] and
    /// refuses ([`Error::ReplayDivergence`]) to replay under a different
    /// one — the trail, and with it every branch ordinal, depends on how
    /// symbolic addresses were resolved.
    pub policy: AddressPolicyKind,
}

impl Prescription {
    /// The root prescription: execute `input` directly (no solver query)
    /// under the given address policy.
    pub fn root(input: Vec<u8>, policy: AddressPolicyKind) -> Self {
        Prescription {
            id: PathId::root(),
            input,
            flip: None,
            policy,
        }
    }

    /// The prescriptions of the unexplored suffix of the path this
    /// prescription materialized, given that path's `input` and `trail`:
    /// one flip per branch past the one this prescription flipped (the
    /// branches before it are its parent's, already queued), shallow to
    /// deep. The one place either engine spawns children.
    pub fn children(&self, input: &[u8], trail: &[TrailEntry]) -> Vec<Prescription> {
        let first = self.flip.map_or(0, |f| f.ord + 1);
        trail
            .iter()
            .filter_map(|entry| match *entry {
                TrailEntry::Branch { taken, pc, .. } => Some((taken, pc)),
                TrailEntry::Concretize { .. } => None,
            })
            .enumerate()
            .skip(first)
            .map(|(ord, (taken, pc))| Prescription {
                id: self.id.child(ord),
                input: input.to_vec(),
                flip: Some(Flip { ord, taken, pc }),
                policy: self.policy,
            })
            .collect()
    }
}

/// Plain-data record of one materialized path — the `Send` counterpart of
/// [`crate::PathOutcome`], with the engine-local trail terms replaced by
/// scalar facts. [`crate::ParallelSession`] returns these, sorted by
/// [`PathId`], as its deterministic merged event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRecord {
    /// Canonical identity of the path.
    pub id: PathId,
    /// The concrete input that drove execution down this path.
    pub input: Vec<u8>,
    /// How the path terminated.
    pub exit: StepResult,
    /// Instructions executed on the path.
    pub steps: u64,
    /// Length of the path trail (branches + concretizations).
    pub trail_len: usize,
    /// The direction taken at each symbolic branch, in trail order — the
    /// model-independent fingerprint of the path (two explorations agree on
    /// a path iff they agree on its decisions, even when their solvers
    /// return different witness inputs).
    pub decisions: Vec<bool>,
}

impl PathRecord {
    /// True when the path terminated abnormally (nonzero exit or `ebreak`).
    pub fn is_error(&self) -> bool {
        !matches!(self.exit, StepResult::Exited(0) | StepResult::Continue)
    }

    /// Number of symbolic branches on the path.
    pub fn branches(&self) -> u64 {
        self.decisions.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(ords: &[usize]) -> PathId {
        let mut id = PathId::root();
        for &o in ords {
            id = id.child(o);
        }
        id
    }

    #[test]
    fn ordering_matches_sequential_dfs_discovery() {
        // The worked example from the session tests: three branches on the
        // root path, flips always feasible. Sequential DFS discovers:
        // [], [2], [1], [1,2], [0], [0,2], [0,1], [0,1,2].
        let discovery = [
            id(&[]),
            id(&[2]),
            id(&[1]),
            id(&[1, 2]),
            id(&[0]),
            id(&[0, 2]),
            id(&[0, 1]),
            id(&[0, 1, 2]),
        ];
        let mut sorted = discovery.to_vec();
        sorted.reverse(); // scramble
        sorted.sort();
        assert_eq!(sorted.as_slice(), discovery.as_slice());
    }

    #[test]
    fn parent_orders_before_children_and_deep_flips_first() {
        assert!(id(&[]) < id(&[5]));
        assert!(id(&[3]) < id(&[3, 7]));
        assert!(id(&[7]) < id(&[3]), "deeper sibling flip first");
        assert!(id(&[3, 9]) < id(&[2, 1]), "first divergence decides");
        assert_eq!(id(&[4, 2]).cmp(&id(&[4, 2])), Ordering::Equal);
    }

    #[test]
    fn parent_inverts_child() {
        assert_eq!(id(&[]).parent(), None);
        assert_eq!(id(&[4]).parent(), Some(id(&[])));
        assert_eq!(id(&[4, 2]).parent(), Some(id(&[4])));
    }

    #[test]
    fn children_flip_only_the_new_suffix() {
        let mut tm = binsym_smt::TermManager::new();
        let cond = tm.var("c", 1);
        let branch = |pc, taken| TrailEntry::Branch { cond, taken, pc };
        let trail = [branch(0x10, true), branch(0x14, false), branch(0x18, true)];
        let root = Prescription::root(vec![0], AddressPolicyKind::default());
        let from_root = root.children(&[7], &trail);
        let ords: Vec<_> = from_root.iter().map(|c| c.flip.unwrap().ord).collect();
        assert_eq!(ords, [0, 1, 2], "the root path spawns every branch");
        assert_eq!(from_root[1].id, id(&[1]));
        assert_eq!(from_root[1].input, [7]);
        assert_eq!(
            from_root[1].flip,
            Some(Flip {
                ord: 1,
                taken: false,
                pc: 0x14
            })
        );
        // A child flipped at ordinal 1 inherits ordinals 0..=1 from its
        // parent and spawns only the deeper branch.
        let deeper = from_root[1].children(&[9], &trail);
        assert_eq!(deeper.len(), 1);
        assert_eq!(deeper[0].id, id(&[1, 2]));
    }

    #[test]
    fn prescription_is_send_and_static() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<Prescription>();
        assert_send::<PathId>();
        assert_send::<PathRecord>();
    }

    #[test]
    fn record_error_classification() {
        let rec = |exit| PathRecord {
            id: PathId::root(),
            input: vec![0],
            exit,
            steps: 1,
            trail_len: 0,
            decisions: Vec::new(),
        };
        assert!(!rec(StepResult::Exited(0)).is_error());
        assert!(rec(StepResult::Exited(3)).is_error());
        assert!(rec(StepResult::Break).is_error());
    }
}
