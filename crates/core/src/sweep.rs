//! Incremental Eqn. 2 error scoring across locked-input combinations.
//!
//! Every co-design search (and the bench error-cell grids) scores thousands
//! to millions of *adjacent* locking configurations: the locked FUs and the
//! candidate list stay fixed while one FU's combination of locked minterms
//! changes per step. The legacy path rebuilt a [`LockingSpec`], re-solved
//! every per-cycle assignment problem cold, and re-walked the binding to sum
//! errors — all to score one changed column per cycle.
//!
//! [`ErrorSweep`] scores each distinct subproblem state once:
//!
//! * a `(cycle, class)` subproblem that can never be nonzero — its class
//!   has no locked FU, or none of its ops ever sees a candidate — is dropped
//!   at construction (it always contributes 0);
//! * every remaining subproblem computes the Eqn. 3 column of every
//!   combination once and interns the distinct columns to small ids (id 0 =
//!   the all-zero "unlocked" column), so loading a combination into a slot
//!   is one integer compare per subproblem;
//! * a subproblem's exact optimum depends only on its tuple of column ids,
//!   one per locked slot of its class, so one memo per sweep maps
//!   (subproblem, id tuple) to that optimum. Scoring asks the memo first;
//!   only a miss loads the lagging columns into the subproblem's
//!   warm-started [`HungarianState`] and solves (or bounds) there.
//!
//! The scored value is *exactly* the legacy one: for any complete
//! configuration, `Σ` per-cycle max-weight totals over the Eqn. 3 matrices
//! equals `expected_application_errors(bind_obfuscation_aware(spec), ..)`
//! — each matrix entry `(i, j)` is precisely op `i`'s error contribution
//! when bound to FU `j`, so the optimal totals and the realized errors are
//! the same sum (Thm. 2 separability). [`ErrorSweep::upper_bound`] adds the
//! branch-and-bound half: a bound on the score *without* solving — exact
//! for subproblems the memo knows, the weak-duality bound of the warm
//! potentials for the rest — which the searches use to prune hopeless
//! combinations.
//!
//! [`LockingSpec`]: crate::LockingSpec

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use lockbind_hls::{Allocation, Dfg, FuClass, FuId, Minterm, OccurrenceProfile, Schedule};
use lockbind_matching::{HungarianState, WeightMatrix};
use lockbind_obs as obs;

use crate::CoreError;

/// Hasher for the sweep's own keys (memo keys, interned weight columns):
/// an Fx-style word fold with a SplitMix64 finalizer, so bucket indices
/// spread well at a fraction of SipHash's cost. No key is chosen by a
/// caller — memo keys are packed id tuples, and a column table holds at
/// most one entry per combination — so SipHash's collision resistance buys
/// nothing here.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// What a subproblem knows about the optimum of its wanted columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Score {
    /// The exact optimum.
    Exact(i64),
    /// A wanted column changed; the memo has not been asked yet.
    Dirty,
    /// The memo was asked and does not know this id tuple (or the
    /// subproblem is not memoized).
    Missed,
}

/// One sweep's table of exact subproblem optima, keyed by [`Sub::key`].
/// Keys and optima are 32-bit, so an entry takes 8 bytes: the table is
/// the only part of a sweep that grows while it runs, and on the headline
/// grid it reaches ~11k entries.
struct Memo {
    table: IntMap<u32, u32>,
    /// Live subproblems (the key's innermost radix).
    num_subs: u64,
    /// Dirty subproblems scored from the table.
    hits: u64,
    /// Lookups that found nothing.
    misses: u64,
}

impl Memo {
    /// The exact optimum of `sub`'s wanted columns, when known: its cached
    /// score, or — on the first lookup since it went dirty — the table's.
    fn recall(&mut self, sub: &mut Sub, index: usize) -> Option<i64> {
        match sub.score {
            Score::Exact(total) => return Some(total),
            Score::Missed => return None,
            Score::Dirty => sub.score = Score::Missed,
        }
        let key = sub.key(index, self.num_subs)?;
        match self.table.get(&key) {
            Some(&total) => {
                let total = i64::from(total);
                self.hits += 1;
                sub.score = Score::Exact(total);
                Some(total)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records `total` as the exact optimum of `sub`'s wanted columns.
    fn store(&mut self, sub: &mut Sub, index: usize, total: i64) {
        if let Some(key) = sub.key(index, self.num_subs) {
            let total = u32::try_from(total).expect("memoized optima fit 32 bits");
            self.table.insert(key, total);
        }
        sub.score = Score::Exact(total);
    }
}

/// One `(cycle, class)` assignment subproblem that some combination can
/// make nonzero.
struct Sub {
    state: HungarianState,
    /// Ops of the subproblem = weights per column.
    rows: usize,
    /// The distinct Eqn. 3 columns, `rows` weights each, in id order; id 0
    /// is the all-zero column.
    columns: Vec<i64>,
    /// Column id of every combination.
    col_of: Vec<u32>,
    /// Column id each locked slot of the class wants now.
    want: Vec<u32>,
    /// Column id each locked slot's FU column holds in `state`.
    loaded: Vec<u32>,
    /// Number of distinct columns: the radix of one memo-key digit.
    ids: u64,
    /// Whether the memo holds this subproblem: every key and every optimum
    /// fits 32 bits. Otherwise it is always scored on the warm state.
    memoized: bool,
    score: Score,
}

impl Sub {
    /// The exact memo key of the wanted id tuple: a mixed-radix number with
    /// one digit (radix `ids`) per slot, times the subproblem count, plus
    /// the subproblem index. `None` when the subproblem is not memoized.
    fn key(&self, index: usize, num_subs: u64) -> Option<u32> {
        if !self.memoized {
            return None;
        }
        let tuple = self
            .want
            .iter()
            .rev()
            .fold(0u64, |acc, &id| acc * self.ids + u64::from(id));
        Some(u32::try_from(tuple * num_subs + index as u64).expect("memoized keys fit 32 bits"))
    }

    /// Loads the wanted columns that lag behind into the warm state.
    fn load(&mut self, fu_cols: &[usize]) {
        for (k, &col) in fu_cols.iter().enumerate() {
            let id = self.want[k];
            if self.loaded[k] != id {
                let at = id as usize * self.rows;
                self.state
                    .set_column(col, &self.columns[at..at + self.rows]);
                self.loaded[k] = id;
            }
        }
    }
}

/// The locked slots of one FU class and the live subproblems they feed.
struct Group {
    /// FU column index of each slot of the class, in slot order.
    fu_cols: Vec<usize>,
    /// Index range of the class's subproblems in [`ErrorSweep::subs`].
    subs: Range<usize>,
}

/// One locked-FU slot of the sweep.
struct Slot {
    /// Index into [`ErrorSweep::groups`].
    group: usize,
    /// Position among the group's slots.
    local: usize,
    /// Index into the combination list currently loaded, `None` = unlocked
    /// (all-zero column, matching the heuristic's "later FUs unlocked").
    current: Option<usize>,
}

/// Incremental scorer for locked-input combination sweeps: assign each
/// locked-FU *slot* a combination out of a fixed list, then read the exact
/// Eqn. 2 error score or a certified upper bound on it.
///
/// Construct once per `(kernel, locked FUs, candidates, combination list)`
/// context, then drive with [`set_slot`](Self::set_slot) /
/// [`clear_slot`](Self::clear_slot). Scores are byte-exact equal to binding
/// with [`bind_obfuscation_aware`](crate::bind_obfuscation_aware) and
/// evaluating
/// [`expected_application_errors`](crate::expected_application_errors) on
/// the same configuration — proven by the `lockbind-check` mutation suite,
/// the `lockbind-core` differential proptests and the `lockbind-matching`
/// differential suite.
///
/// A sweep's behaviour depends only on its inputs and calls: its memo is
/// private to it and grows with the distinct subproblem states it scores.
/// On drop it adds its work to the `sweep.memo_hits`, `sweep.memo_misses`
/// and `sweep.subs_live` obs counters.
pub struct ErrorSweep {
    /// Live subproblems, contiguous per group.
    subs: Vec<Sub>,
    groups: Vec<Group>,
    slots: Vec<Slot>,
    num_combos: usize,
    memo: Memo,
}

impl ErrorSweep {
    /// Builds the sweep context: checks every non-empty `(cycle, class)`
    /// subproblem for feasibility, drops the ones no combination can make
    /// nonzero, and interns the Eqn. 3 columns of every combination for the
    /// rest (each starts all-zero = fully unlocked). `combos` lists
    /// candidate-index combinations exactly as produced by
    /// [`combinations`](crate::combinations).
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownFu`] / [`CoreError::DuplicateFu`] for invalid
    ///   `locked_fus` (same checks as the co-design searches),
    /// * [`CoreError::Matching`] when some cycle has more concurrent ops of
    ///   a class than allocated FUs — the same infeasibility
    ///   [`bind_obfuscation_aware`](crate::bind_obfuscation_aware) reports.
    ///
    /// # Panics
    /// Panics when a combination names a candidate index out of range.
    pub fn new(
        dfg: &Dfg,
        schedule: &Schedule,
        alloc: &Allocation,
        profile: &OccurrenceProfile,
        locked_fus: &[FuId],
        candidates: &[Minterm],
        combos: &[Vec<usize>],
    ) -> Result<Self, CoreError> {
        for (i, fu) in locked_fus.iter().enumerate() {
            if fu.index >= alloc.count(fu.class) {
                return Err(CoreError::UnknownFu { fu: fu.to_string() });
            }
            if locked_fus[..i].contains(fu) {
                return Err(CoreError::DuplicateFu { fu: fu.to_string() });
            }
        }
        for combo in combos {
            for &i in combo {
                assert!(i < candidates.len(), "combo index {i} out of range");
            }
        }

        let mut subs = Vec::new();
        let mut groups = Vec::new();
        let mut slots: Vec<Option<Slot>> = locked_fus.iter().map(|_| None).collect();
        let mut interned: IntMap<Vec<i64>, u32> = IntMap::default();
        let mut column = Vec::new();
        for class in FuClass::ALL {
            let fu_cols: Vec<usize> = locked_fus
                .iter()
                .filter(|fu| fu.class == class)
                .map(|fu| fu.index)
                .collect();
            let start = subs.len();
            for t in 0..schedule.num_cycles() {
                let ops = schedule.class_ops_in_cycle(dfg, class, t);
                if ops.is_empty() {
                    continue;
                }
                let state =
                    HungarianState::new(&WeightMatrix::zero(ops.len(), alloc.count(class)), true)?;
                if fu_cols.is_empty() {
                    continue; // nothing of this class is locked: always 0
                }
                // `counts[r][k]` = K[candidates[k], op r].
                let counts: Vec<Vec<u64>> = ops
                    .iter()
                    .map(|&op| candidates.iter().map(|&c| profile.count(op, c)).collect())
                    .collect();
                if counts.iter().flatten().all(|&c| c == 0) {
                    continue; // no op ever sees a candidate: always 0
                }
                let rows = ops.len();
                let mut columns = vec![0i64; rows];
                interned.clear();
                interned.insert(vec![0; rows], 0);
                let col_of: Vec<u32> = combos
                    .iter()
                    .map(|combo| {
                        column.clear();
                        column.extend(counts.iter().map(|row| {
                            let w: u64 = combo.iter().map(|&i| row[i]).sum();
                            i64::try_from(w).unwrap_or(i64::MAX / 8)
                        }));
                        if let Some(&id) = interned.get(column.as_slice()) {
                            return id;
                        }
                        let id = u32::try_from(interned.len()).expect("fewer than 2^32 columns");
                        interned.insert(column.clone(), id);
                        columns.extend_from_slice(&column);
                        id
                    })
                    .collect();
                if interned.len() == 1 {
                    continue; // every combination leaves the columns all-zero
                }
                subs.push(Sub {
                    state,
                    rows,
                    columns,
                    col_of,
                    want: vec![0; fu_cols.len()],
                    loaded: vec![0; fu_cols.len()],
                    ids: interned.len() as u64,
                    memoized: false,
                    // The all-zero matrix's optimum is 0 — no solve needed
                    // until a column moves.
                    score: Score::Exact(0),
                });
            }
            if fu_cols.is_empty() {
                continue;
            }
            let group = groups.len();
            let mut local = 0;
            for (slot, fu) in slots.iter_mut().zip(locked_fus) {
                if fu.class == class {
                    *slot = Some(Slot {
                        group,
                        local,
                        current: None,
                    });
                    local += 1;
                }
            }
            groups.push(Group {
                fu_cols,
                subs: start..subs.len(),
            });
        }
        // A key is below `num_subs * ids^slots`; an optimum is at most the
        // sum of each row's largest weight (a row earns one column's weight).
        let num_subs = subs.len() as u64;
        for sub in &mut subs {
            let keys = u32::try_from(sub.want.len())
                .ok()
                .and_then(|k| sub.ids.checked_pow(k))
                .and_then(|tuples| tuples.checked_mul(num_subs));
            let max_total: i128 = (0..sub.rows)
                .map(|r| {
                    let weights = sub.columns.iter().skip(r).step_by(sub.rows);
                    i128::from(weights.copied().max().unwrap_or(0))
                })
                .sum();
            sub.memoized =
                keys.is_some_and(|keys| keys <= 1 << 32) && max_total <= i128::from(u32::MAX);
        }
        Ok(ErrorSweep {
            subs,
            groups,
            slots: slots
                .into_iter()
                .map(|s| s.expect("every locked FU has a class group"))
                .collect(),
            num_combos: combos.len(),
            memo: Memo {
                table: IntMap::default(),
                num_subs,
                hits: 0,
                misses: 0,
            },
        })
    }

    /// Number of locked-FU slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Points `slot` at combination `current` (`None` = unlocked), marking
    /// dirty every subproblem of its class whose column id moves.
    fn load_slot(&mut self, slot: usize, current: Option<usize>) {
        let s = &mut self.slots[slot];
        if s.current == current {
            return;
        }
        s.current = current;
        let local = s.local;
        for sub in &mut self.subs[self.groups[s.group].subs.clone()] {
            let id = current.map_or(0, |combo| sub.col_of[combo]);
            if sub.want[local] != id {
                sub.want[local] = id;
                sub.score = Score::Dirty;
            }
        }
    }

    /// Loads combination `combo` into slot `slot`: one column-id compare
    /// per subproblem of that FU's class. A no-op when the slot already
    /// holds `combo`, and for every subproblem where the new combination
    /// yields the same column.
    ///
    /// # Panics
    /// Panics on out-of-range `slot` or `combo`.
    pub fn set_slot(&mut self, slot: usize, combo: usize) {
        assert!(combo < self.num_combos, "combo {combo} out of range");
        self.load_slot(slot, Some(combo));
    }

    /// Unlocks slot `slot` (all-zero column, id 0), the heuristic's "not
    /// yet fixed" state. A no-op when already unlocked.
    ///
    /// # Panics
    /// Panics on out-of-range `slot`.
    pub fn clear_slot(&mut self, slot: usize) {
        self.load_slot(slot, None);
    }

    /// The exact Eqn. 2 error score of the current configuration: the sum
    /// of per-subproblem max-weight totals. A dirty subproblem is read from
    /// the memo when it has been solved in this state before; otherwise its
    /// lagging columns are loaded and it is re-solved (warm), and the
    /// optimum is memoized.
    ///
    /// # Errors
    /// [`CoreError::Matching`] — unreachable for the all-allowed matrices
    /// this sweep builds, but kept honest rather than unwrapped.
    pub fn solve_errors(&mut self) -> Result<u64, CoreError> {
        let mut errors = 0u64;
        for group in &self.groups {
            for i in group.subs.clone() {
                let sub = &mut self.subs[i];
                let total = match self.memo.recall(sub, i) {
                    Some(t) => t,
                    None => {
                        sub.load(&group.fu_cols);
                        let t = sub.state.solve_total()?;
                        self.memo.store(sub, i, t);
                        t
                    }
                };
                debug_assert!(total >= 0, "Eqn. 3 weights are non-negative");
                errors += total.max(0) as u64;
            }
        }
        Ok(errors)
    }

    /// A certified upper bound on [`solve_errors`](Self::solve_errors) for
    /// the current configuration, *without* solving: subproblems whose
    /// state is known (solved, or found in the memo) contribute their exact
    /// optimum, the rest the weak-duality bound of their repaired warm
    /// potentials. Never below the true score — the property (proptested
    /// in `lockbind-check` and `lockbind-core`) that makes pruning on it
    /// sound.
    pub fn upper_bound(&mut self) -> u64 {
        let mut sum = 0u128;
        for group in &self.groups {
            for i in group.subs.clone() {
                let sub = &mut self.subs[i];
                let bound = match self.memo.recall(sub, i) {
                    Some(t) => t,
                    None => {
                        sub.load(&group.fu_cols);
                        sub.state.objective_bound()
                    }
                };
                sum += bound.max(0) as u128;
            }
        }
        u64::try_from(sum).unwrap_or(u64::MAX)
    }
}

impl Drop for ErrorSweep {
    fn drop(&mut self) {
        obs::counter!("sweep.memo_hits").add(self.memo.hits);
        obs::counter!("sweep.memo_misses").add(self.memo.misses);
        obs::counter!("sweep.subs_live").add(self.subs.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bind_obfuscation_aware, combinations, expected_application_errors, LockingSpec};
    use lockbind_hls::schedule_list;
    use lockbind_mediabench::Kernel;

    fn setup(kernel: Kernel) -> (Dfg, Schedule, Allocation, OccurrenceProfile, Vec<Minterm>) {
        let b = kernel.benchmark(100, 17);
        let alloc = Allocation::new(3, 3);
        let sched = schedule_list(&b.dfg, &alloc).expect("schedulable");
        let profile = OccurrenceProfile::from_trace(&b.dfg, &b.trace).expect("profiled");
        let adder_ops = b.dfg.ops_of_class(FuClass::Adder);
        let candidates = profile.top_candidates_among(&adder_ops, 6);
        (b.dfg, sched, alloc, profile, candidates)
    }

    /// The legacy score of one configuration: full obf-aware bind + Eqn. 2.
    #[allow(clippy::too_many_arguments)]
    fn legacy_score(
        dfg: &Dfg,
        sched: &Schedule,
        alloc: &Allocation,
        profile: &OccurrenceProfile,
        fus: &[FuId],
        combos: &[Vec<usize>],
        candidates: &[Minterm],
        assign: &[Option<usize>],
    ) -> u64 {
        let entries: Vec<(FuId, Vec<Minterm>)> = fus
            .iter()
            .zip(assign)
            .filter_map(|(&fu, ci)| {
                ci.map(|ci| (fu, combos[ci].iter().map(|&i| candidates[i]).collect()))
            })
            .collect();
        let spec = LockingSpec::new(alloc, entries).expect("valid");
        let bind = bind_obfuscation_aware(dfg, sched, alloc, profile, &spec).expect("feasible");
        expected_application_errors(&bind, profile, &spec)
    }

    #[test]
    fn sweep_score_equals_legacy_bind_score() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Fir);
        let fus = [FuId::new(FuClass::Adder, 0), FuId::new(FuClass::Adder, 2)];
        let combos = combinations(candidates.len(), 2);
        let mut sweep = ErrorSweep::new(&dfg, &sched, &alloc, &profile, &fus, &candidates, &combos)
            .expect("builds");
        // Walk a deterministic pseudo-random sequence of slot assignments,
        // including partially-locked states, checking exactness everywhere.
        let mut assign: Vec<Option<usize>> = vec![None; fus.len()];
        for step in 0usize..40 {
            let slot = step % fus.len();
            if step % 7 == 3 {
                sweep.clear_slot(slot);
                assign[slot] = None;
            } else {
                let ci = (step * 5 + 3) % combos.len();
                sweep.set_slot(slot, ci);
                assign[slot] = Some(ci);
            }
            let fast = sweep.solve_errors().expect("feasible");
            let slow = legacy_score(
                &dfg,
                &sched,
                &alloc,
                &profile,
                &fus,
                &combos,
                &candidates,
                &assign,
            );
            assert_eq!(fast, slow, "step {step}: assign {assign:?}");
            assert!(sweep.upper_bound() >= fast, "bound must dominate score");
            // After a solve the bound is exact.
            assert_eq!(sweep.upper_bound(), fast);
        }
        assert!(sweep.memo.hits > 0, "the walk revisits configurations");
    }

    #[test]
    fn subproblems_that_can_never_be_nonzero_are_dropped() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Fir);
        let combos = combinations(candidates.len(), 1);
        let fus = [FuId::new(FuClass::Adder, 0)];
        let sweep = ErrorSweep::new(&dfg, &sched, &alloc, &profile, &fus, &candidates, &combos)
            .expect("builds");
        let nonempty: usize = (0..sched.num_cycles())
            .map(|t| {
                FuClass::ALL
                    .iter()
                    .filter(|&&class| !sched.class_ops_in_cycle(&dfg, class, t).is_empty())
                    .count()
            })
            .sum();
        assert!(!sweep.subs.is_empty());
        assert!(
            sweep.subs.len() < nonempty,
            "{} of {nonempty}",
            sweep.subs.len()
        );
        // One live class; every live subproblem has a nonzero column and
        // id 0 is the all-zero one.
        assert_eq!(sweep.groups.len(), 1);
        for sub in &sweep.subs {
            assert!(sub.ids > 1);
            assert!(sub.columns[..sub.rows].iter().all(|&w| w == 0));
            assert_eq!(sub.columns.len() as u64, sub.ids * sub.rows as u64);
        }

        // A candidate no op ever sees leaves nothing live: every score is 0.
        let ops = dfg.ops_of_class(FuClass::Adder);
        let unseen = (0u64..)
            .map(|raw| Minterm::pack(raw & 0xff, raw >> 8, 8))
            .find(|&m| ops.iter().all(|&op| profile.count(op, m) == 0))
            .expect("some minterm never occurs");
        let mut sweep =
            ErrorSweep::new(&dfg, &sched, &alloc, &profile, &fus, &[unseen], &[vec![0]])
                .expect("builds");
        assert!(sweep.subs.is_empty());
        sweep.set_slot(0, 0);
        assert_eq!(sweep.upper_bound(), 0);
        assert_eq!(sweep.solve_errors(), Ok(0));
    }

    #[test]
    fn revisited_states_are_scored_from_the_memo() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Fir);
        let fus = [FuId::new(FuClass::Adder, 1)];
        let combos = combinations(candidates.len(), 2);
        let mut sweep = ErrorSweep::new(&dfg, &sched, &alloc, &profile, &fus, &candidates, &combos)
            .expect("builds");
        let warm_solves =
            |sweep: &ErrorSweep| -> u64 { sweep.subs.iter().map(|s| s.state.stats().solves).sum() };
        let mut first = Vec::new();
        for ci in 0..combos.len() {
            sweep.set_slot(0, ci);
            first.push(sweep.solve_errors().expect("feasible"));
        }
        let (hits, misses, solves) = (sweep.memo.hits, sweep.memo.misses, warm_solves(&sweep));
        for ci in (0..combos.len()).rev() {
            sweep.set_slot(0, ci);
            // Every state was solved before, so the bound is exact without
            // solving.
            assert_eq!(sweep.upper_bound(), first[ci], "combo {ci}");
            assert_eq!(sweep.solve_errors(), Ok(first[ci]), "combo {ci}");
        }
        assert!(sweep.memo.hits > hits);
        assert_eq!(sweep.memo.misses, misses, "every state recurs");
        assert_eq!(warm_solves(&sweep), solves, "no warm solve on a revisit");
    }

    #[test]
    fn upper_bound_dominates_before_solving() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Motion2);
        let fus = [FuId::new(FuClass::Adder, 1)];
        let combos = combinations(candidates.len(), 1);
        let mut sweep = ErrorSweep::new(&dfg, &sched, &alloc, &profile, &fus, &candidates, &combos)
            .expect("builds");
        for ci in 0..combos.len() {
            sweep.set_slot(0, ci);
            let bound = sweep.upper_bound();
            let exact = sweep.solve_errors().expect("feasible");
            assert!(bound >= exact, "combo {ci}: bound {bound} < exact {exact}");
        }
    }

    #[test]
    fn rejects_invalid_locked_fus() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Fir);
        let combos = combinations(candidates.len(), 1);
        let bad = [FuId::new(FuClass::Adder, 9)];
        assert!(matches!(
            ErrorSweep::new(&dfg, &sched, &alloc, &profile, &bad, &candidates, &combos),
            Err(CoreError::UnknownFu { .. })
        ));
        let dup = [FuId::new(FuClass::Adder, 0), FuId::new(FuClass::Adder, 0)];
        assert!(matches!(
            ErrorSweep::new(&dfg, &sched, &alloc, &profile, &dup, &candidates, &combos),
            Err(CoreError::DuplicateFu { .. })
        ));
    }

    #[test]
    fn infeasible_allocation_surfaces_matching_error() {
        let (dfg, _, _, profile, candidates) = setup(Kernel::Fir);
        let tight = Allocation::new(1, 1);
        // Schedule against a generous allocation, then sweep with a tight
        // one: cycles with 2+ concurrent adds cannot be bound.
        let wide = Allocation::new(3, 3);
        let sched = schedule_list(&dfg, &wide).expect("schedulable");
        let combos = combinations(candidates.len(), 1);
        let fus = [FuId::new(FuClass::Adder, 0)];
        assert!(matches!(
            ErrorSweep::new(&dfg, &sched, &tight, &profile, &fus, &candidates, &combos),
            Err(CoreError::Matching(_))
        ));
    }
}
