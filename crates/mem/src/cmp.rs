//! A CMP's group of private caches and its snoop-side lookups.
//!
//! Each CMP holds one private L2 per core plus an L1 tag filter per core
//! (the L1 only affects hit latency; coherence is kept at the L2, with L1s
//! maintained inclusive by invalidation). This module implements the two
//! lookups the protocol needs:
//!
//! * a **local lookup** when a core misses its own caches — can another
//!   cache *in the same CMP* supply (`SL, SG, E, D, T`)?
//! * a **snoop** when a ring request arrives — does any L2 hold the line in
//!   a *supplier state* (`SG, E, D, T`)? All L2s are probed in parallel.
//!
//! A CMP's arrays are built on its first fill; until then it owns no heap
//! memory and answers every query as empty. On a million-node ring almost
//! every CMP stays that way, so per-node cache state is proportional to
//! what the node has touched. The geometry is stored once per machine, in
//! [`MachineCaches`].

use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_engine::FxHashMap;

use crate::addr::LineAddr;
use crate::cache::{CacheGeometry, SetAssocCache};
use crate::l2::{Eviction, L2Cache};
use crate::state::CoherState;

/// Where a core's access was satisfied within its own CMP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalLookup {
    /// Hit in the requesting core's own L1 (fast path).
    OwnL1(CoherState),
    /// Hit in the requesting core's own L2.
    OwnL2(CoherState),
    /// Another L2 in the same CMP can supply; carries its local core index
    /// and state.
    Peer {
        /// Index of the supplying core within this CMP.
        peer: usize,
        /// The supplier's state.
        state: CoherState,
    },
    /// No cache in this CMP can supply the line.
    Miss,
}

/// Result of a ring snoop probing all L2s of a CMP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopResult {
    /// The supplier, if one of the L2s holds the line in `SG`, `E`, `D`, `T`:
    /// `(local core index, state)`.
    pub supplier: Option<(usize, CoherState)>,
    /// Whether *any* L2 holds a valid copy (used to prove exclusivity for
    /// `E` fills when every node is snooped).
    pub any_copy: bool,
}

/// What a CMP-wide invalidation dropped (allocation-free summary of
/// [`CmpCaches::invalidate_all`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidateOutcome {
    /// Number of valid copies invalidated across the CMP's L2s.
    pub copies: u32,
    /// Whether one of them was in a supplier state (`SG`, `E`, `D`, `T`).
    pub had_supplier: bool,
    /// How many dropped copies were in `E`, `D` or `T` — the states under
    /// which memory's own copy must not be used for fills. Kept as a count
    /// (not a flag) so callers maintaining machine-wide residency totals
    /// stay exact even when fault-injection mutations violate the
    /// one-owner invariant.
    pub strong_copies: u32,
}

/// The cache shape every CMP of a machine shares: cores per CMP and the
/// L1/L2 geometry of each core. Stored once per machine (in
/// [`MachineCaches`]) and handed to the fill that builds a CMP's arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmpGeometry {
    /// Cores per CMP, each with a private L1 tag filter and L2.
    pub cores: usize,
    /// Per-core L1 tag-filter geometry.
    pub l1: CacheGeometry,
    /// Per-core L2 geometry.
    pub l2: CacheGeometry,
}

impl CmpGeometry {
    /// A CMP shape with `cores` cores and the given cache geometries.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize, l1: CacheGeometry, l2: CacheGeometry) -> Self {
        assert!(cores > 0, "a CMP needs at least one core");
        Self { cores, l1, l2 }
    }
}

/// A line's presence summary within one CMP, kept in sync with the L2
/// arrays by every mutating method.
///
/// The Figure 2(b) storage invariants bound what a snoop can find: at most
/// one copy per CMP is in a locally-supplying state (`SL, SG, E, D, T` —
/// any pair of those is same-CMP incompatible, see
/// [`CoherState::compatible_with`]), so one `(core, state)` slot plus a
/// copy count answers every snoop-side question without scanning tag
/// arrays.
#[derive(Debug, Clone, Copy)]
struct Residency {
    /// Valid copies across the CMP's L2s (entry removed when it hits 0).
    copies: u8,
    /// The unique copy in a locally-supplying state, if any.
    local: Option<(u8, CoherState)>,
}

/// One core's private caches.
#[derive(Debug, Clone)]
struct CoreCaches {
    l1: SetAssocCache<()>,
    l2: L2Cache,
}

/// The state of a CMP that has filled at least one line.
#[derive(Debug, Clone)]
struct Arrays {
    cores: Vec<CoreCaches>,
    /// The index holds at most one entry per resident line, bounded by
    /// the CMP's total L2 capacity, and grows on demand.
    index: FxHashMap<LineAddr, Residency>,
}

impl Arrays {
    fn new(geometry: &CmpGeometry) -> Self {
        Self {
            cores: (0..geometry.cores)
                .map(|_| CoreCaches {
                    l1: SetAssocCache::new(geometry.l1),
                    l2: L2Cache::new(geometry.l2),
                })
                .collect(),
            index: FxHashMap::default(),
        }
    }

    /// Records that `core`'s copy of `line` (which was in `state`) left
    /// its L2 — by eviction or invalidation.
    fn index_drop(&mut self, core: usize, line: LineAddr, state: CoherState) {
        let entry = self
            .index
            .get_mut(&line)
            .expect("residency index missed a resident line");
        entry.copies -= 1;
        if state.supplies_locally() {
            debug_assert_eq!(entry.local.map(|(c, _)| c as usize), Some(core));
            entry.local = None;
        }
        if entry.copies == 0 {
            self.index.remove(&line);
        }
    }

    /// Records that `core` now holds `line` in `state` (fill or state
    /// change); `old` is the state the core held it in before (`I` if it
    /// did not).
    fn index_update(&mut self, core: usize, line: LineAddr, old: CoherState, state: CoherState) {
        let entry = self.index.entry(line).or_insert(Residency {
            copies: 0,
            local: None,
        });
        if !old.is_valid() {
            entry.copies += 1;
        }
        if old.supplies_locally() {
            debug_assert_eq!(entry.local.map(|(c, _)| c as usize), Some(core));
            entry.local = None;
        }
        if state.supplies_locally() {
            // A correct protocol never has two locally-supplying copies in
            // one CMP; last-writer-wins here so [`validate_line`] (not the
            // index) stays the detector for injected protocol bugs.
            entry.local = Some((core as u8, state));
        }
    }

    /// Drops `line` from every core, handing each dropped state to `dropped`.
    fn invalidate_with(&mut self, line: LineAddr, mut dropped: impl FnMut(CoherState)) {
        if self.index.remove(&line).is_none() {
            // No L2 holds the line, so (inclusive hierarchy) no L1 does
            // either: nothing to do.
            return;
        }
        for core in &mut self.cores {
            core.l1.remove(line);
            if let Some(state) = core.l2.invalidate(line) {
                dropped(state);
            }
        }
    }

    fn save_into(&self, w: &mut SnapWriter) {
        w.put_usize(self.cores.len());
        for core in &self.cores {
            core.l1.save_into_with(w, |_, _| {});
        }
        for core in &self.cores {
            core.l2.save_into(w);
        }
        let mut lines: Vec<LineAddr> = self.index.keys().copied().collect();
        lines.sort_unstable();
        w.put_usize(lines.len());
        for line in lines {
            let entry = &self.index[&line];
            w.put_u64(line.0);
            w.put_u8(entry.copies);
            match entry.local {
                None => w.put_bool(false),
                Some((core, state)) => {
                    w.put_bool(true);
                    w.put_u8(core);
                    state.save_into(w);
                }
            }
        }
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.get_usize()? != self.cores.len() {
            return Err(SnapError::Corrupt("CMP core count does not match config"));
        }
        for core in &mut self.cores {
            core.l1.restore_from_with(r, |_| Ok(()))?;
        }
        for core in &mut self.cores {
            core.l2.restore_from(r)?;
        }
        let n = r.get_usize()?;
        for _ in 0..n {
            let line = LineAddr(r.get_u64()?);
            let copies = r.get_u8()?;
            if copies == 0 {
                return Err(SnapError::Corrupt("residency entry with zero copies"));
            }
            let local = if r.get_bool()? {
                let core = r.get_u8()?;
                let mut state = CoherState::I;
                state.restore_from(r)?;
                Some((core, state))
            } else {
                None
            };
            self.index.insert(line, Residency { copies, local });
        }
        Ok(())
    }
}

/// The caches of one CMP: per-core L1 tag filters and L2s, plus a
/// residency index that turns snoop probes into single hash lookups.
///
/// In hardware a snoop probes every L2 tag array in parallel; modeling
/// that as a literal scan made `snoop`/`supplier_of` the simulator's
/// hottest functions. The index is a pure lookup accelerator — it never
/// changes any answer (debug builds cross-check it against a full scan on
/// every snoop).
///
/// The arrays and index are built by the CMP's first
/// [`MachineCaches::fill`].
/// Until then the CMP is one null pointer that answers every query as
/// empty. Skipping the LRU ticks of those early misses changes no victim:
/// replacement compares stamps within one array, and every stamp of a
/// late-built array is shifted by the same amount.
#[derive(Debug, Clone, Default)]
pub struct CmpCaches {
    arrays: Option<Box<Arrays>>,
}

impl CmpCaches {
    #[cfg(test)]
    fn is_built(&self) -> bool {
        self.arrays.is_some()
    }

    fn cores(&self) -> &[CoreCaches] {
        self.arrays.as_deref().map_or(&[], |a| &a.cores)
    }

    /// The coherence state of `line` in `core`'s L2 (`I` if absent).
    /// A probe: LRU is not touched.
    pub fn l2_state(&self, core: usize, line: LineAddr) -> CoherState {
        self.arrays
            .as_deref()
            .map_or(CoherState::I, |a| a.cores[core].l2.state_of(line))
    }

    /// Every valid copy of `line` in this CMP's L2s as `(core, state)`,
    /// in core order.
    pub fn copies_of(&self, line: LineAddr) -> impl Iterator<Item = (usize, CoherState)> + '_ {
        self.cores()
            .iter()
            .enumerate()
            .map(move |(core, c)| (core, c.l2.state_of(line)))
            .filter(|(_, state)| state.is_valid())
    }

    /// Every resident L2 line as `(core, line, state)`; core order, lines
    /// in unspecified order within a core.
    pub fn l2_lines(&self) -> impl Iterator<Item = (usize, LineAddr, CoherState)> + '_ {
        self.cores()
            .iter()
            .enumerate()
            .flat_map(|(core, c)| c.l2.iter().map(move |(line, state)| (core, line, state)))
    }

    /// A core's access as seen by its own CMP: own L1, own L2, then peer
    /// L2s over the intra-CMP bus.
    ///
    /// The L1 tag filter is refreshed on L1 hits and filled on L2 hits
    /// (inclusive hierarchy: the L1 never holds a line its L2 does not).
    pub fn local_lookup(&mut self, core: usize, line: LineAddr) -> LocalLookup {
        let Some(a) = self.arrays.as_deref_mut() else {
            return LocalLookup::Miss;
        };
        let own = &mut a.cores[core];
        let own_state = own.l2.access(line);
        if own_state.is_valid() {
            if own.l1.get(line).is_some() {
                return LocalLookup::OwnL1(own_state);
            }
            own.l1.insert(line, ());
            return LocalLookup::OwnL2(own_state);
        }
        // The line is not in the core's own hierarchy; drop any stale L1 tag.
        own.l1.remove(line);
        if let Some(entry) = a.index.get(&line) {
            if let Some((peer, state)) = entry.local {
                let peer = peer as usize;
                if peer != core {
                    debug_assert_eq!(a.cores[peer].l2.state_of(line), state);
                    return LocalLookup::Peer { peer, state };
                }
            }
        }
        LocalLookup::Miss
    }

    /// Probes every L2 for a ring snoop (parallel tag lookup in hardware;
    /// here a single residency-index lookup).
    pub fn snoop(&self, line: LineAddr) -> SnoopResult {
        let result = match self.arrays.as_deref().and_then(|a| a.index.get(&line)) {
            None => SnoopResult {
                supplier: None,
                any_copy: false,
            },
            Some(entry) => SnoopResult {
                supplier: entry
                    .local
                    .filter(|&(_, s)| s.is_supplier())
                    .map(|(c, s)| (c as usize, s)),
                any_copy: entry.copies > 0,
            },
        };
        debug_assert_eq!(result, self.snoop_scan(line), "residency index drifted");
        result
    }

    /// The scan the hardware's parallel tag probe corresponds to; used to
    /// cross-check the residency index in debug builds (release builds
    /// compile the check and this scan away).
    fn snoop_scan(&self, line: LineAddr) -> SnoopResult {
        let mut supplier = None;
        let mut any_copy = false;
        for (core, state) in self.copies_of(line) {
            any_copy = true;
            if state.is_supplier() {
                debug_assert!(supplier.is_none(), "two suppliers in one CMP for {line}");
                supplier = Some((core, state));
            }
        }
        SnoopResult { supplier, any_copy }
    }

    /// Finds the supplier among this CMP's L2s without marking presence
    /// (convenience over [`snoop`](Self::snoop)).
    pub fn supplier_of(&self, line: LineAddr) -> Option<(usize, CoherState)> {
        self.snoop(line).supplier
    }

    /// Every line with at least one valid copy somewhere in this CMP,
    /// sorted so iteration order is deterministic (the residency index is
    /// a hash map). Used by node churn to purge or demote a whole CMP.
    pub fn resident_lines(&self) -> Vec<LineAddr> {
        let mut lines: Vec<LineAddr> = self
            .arrays
            .iter()
            .flat_map(|a| a.index.iter())
            .filter(|(_, entry)| entry.copies > 0)
            .map(|(&line, _)| line)
            .collect();
        lines.sort_unstable();
        lines
    }

    /// Invalidates `line` everywhere in this CMP (a write snoop hit).
    /// Returns the states the copies were in (empty if none were resident).
    pub fn invalidate_all(&mut self, line: LineAddr) -> Vec<CoherState> {
        let mut dropped = Vec::new();
        if let Some(a) = self.arrays.as_deref_mut() {
            a.invalidate_with(line, |state| dropped.push(state));
        }
        dropped
    }

    /// Like [`invalidate_all`](Self::invalidate_all) but returns only the
    /// counts the protocol acts on, so the per-write-snoop hot path does
    /// not allocate a `Vec` of dropped states.
    pub fn invalidate_all_counted(&mut self, line: LineAddr) -> InvalidateOutcome {
        let mut out = InvalidateOutcome {
            copies: 0,
            had_supplier: false,
            strong_copies: 0,
        };
        if let Some(a) = self.arrays.as_deref_mut() {
            a.invalidate_with(line, |state| {
                out.copies += 1;
                out.had_supplier |= state.is_supplier();
                if matches!(state, CoherState::E | CoherState::D | CoherState::T) {
                    out.strong_copies += 1;
                }
            });
        }
        out
    }

    /// [`MachineCaches::fill`] on this CMP; the first fill builds the
    /// arrays with `geometry`.
    fn fill(
        &mut self,
        geometry: &CmpGeometry,
        core: usize,
        line: LineAddr,
        state: CoherState,
    ) -> Option<Eviction> {
        let a = self
            .arrays
            .get_or_insert_with(|| Box::new(Arrays::new(geometry)));
        let own = &mut a.cores[core];
        let old = own.l2.state_of(line);
        let victim = own.l2.fill(line, state);
        if let Some(ev) = victim {
            own.l1.remove(ev.line);
        }
        own.l1.insert(line, ());
        if let Some(ev) = victim {
            a.index_drop(core, ev.line, ev.state);
        }
        a.index_update(core, line, old, state);
        victim
    }

    /// Changes the state of a resident line in `core`'s L2.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident there (see [`L2Cache::set_state`]).
    pub fn set_state(&mut self, core: usize, line: LineAddr, state: CoherState) {
        let a = self
            .arrays
            .as_deref_mut()
            .unwrap_or_else(|| panic!("set_state on non-resident {line}"));
        let l2 = &mut a.cores[core].l2;
        let old = l2.state_of(line);
        l2.set_state(line, state);
        a.index_update(core, line, old, state);
    }

    /// Whether any valid copy of `line` exists in this CMP.
    pub fn has_copy(&self, line: LineAddr) -> bool {
        let indexed = self
            .arrays
            .as_deref()
            .is_some_and(|a| a.index.contains_key(&line));
        debug_assert_eq!(
            indexed,
            self.copies_of(line).next().is_some(),
            "residency index drifted for {line}"
        );
        indexed
    }

    /// Estimated heap footprint of this CMP's cache structures in bytes:
    /// L1 tag filters, L2 arrays, and the residency index. An unbuilt CMP
    /// costs only its inline size.
    pub fn footprint_bytes(&self) -> u64 {
        let built = self.arrays.as_deref().map_or(0, |a| {
            let caches: u64 = a
                .cores
                .iter()
                .map(|c| c.l1.footprint_bytes() + c.l2.footprint_bytes())
                .sum();
            let index = a.index.capacity() * (size_of::<(LineAddr, Residency)>() + 16);
            size_of::<Arrays>() as u64 + caches + index as u64
        });
        size_of::<Self>() as u64 + built
    }

    /// Debug check: the per-CMP storage invariants from Figure 2(b) —
    /// at most one supplier-state copy and at most one local master.
    pub fn validate_line(&self, line: LineAddr) -> Result<(), String> {
        let states: Vec<CoherState> = self.copies_of(line).map(|(_, s)| s).collect();
        for (i, &a) in states.iter().enumerate() {
            for &b in &states[i + 1..] {
                if !a.compatible_with(b, true) {
                    return Err(format!("{line}: states {a} and {b} coexist in one CMP"));
                }
            }
        }
        Ok(())
    }
}

/// Every CMP's caches plus the one [`CmpGeometry`] they share.
///
/// Dereferences to the per-node [`CmpCaches`] slice for queries; fills go
/// through [`fill`](Self::fill), which supplies the geometry a CMP's first
/// fill builds its arrays with.
#[derive(Debug, Clone)]
pub struct MachineCaches {
    geometry: CmpGeometry,
    cmps: Vec<CmpCaches>,
}

impl MachineCaches {
    /// `nodes` CMPs of the given shape, none built yet.
    pub fn new(nodes: usize, geometry: CmpGeometry) -> Self {
        Self {
            geometry,
            cmps: (0..nodes).map(|_| CmpCaches::default()).collect(),
        }
    }

    /// Fills `line` into the L2 (and L1) of core `core` of CMP `node` in
    /// `state`, returning the L2 victim if one was evicted. The victim's L1
    /// tag is dropped to keep the hierarchy inclusive. A CMP's first fill
    /// builds its arrays.
    pub fn fill(
        &mut self,
        node: usize,
        core: usize,
        line: LineAddr,
        state: CoherState,
    ) -> Option<Eviction> {
        self.cmps[node].fill(&self.geometry, core, line, state)
    }

    /// Estimated heap footprint of every CMP (see
    /// [`CmpCaches::footprint_bytes`]).
    pub fn footprint_bytes(&self) -> u64 {
        self.cmps.iter().map(CmpCaches::footprint_bytes).sum()
    }

    /// The snapshot encoding of a CMP with empty arrays of this shape.
    fn empty_encoding(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        Arrays::new(&self.geometry).save_into(&mut w);
        w.into_bytes()
    }
}

impl std::ops::Deref for MachineCaches {
    type Target = [CmpCaches];

    fn deref(&self) -> &[CmpCaches] {
        &self.cmps
    }
}

impl std::ops::DerefMut for MachineCaches {
    fn deref_mut(&mut self) -> &mut [CmpCaches] {
        &mut self.cmps
    }
}

/// The node count, then every CMP in node order: its L1 tag filters, its
/// L2s and its residency index. An unbuilt CMP writes what an empty built
/// one would, so the format does not depend on when arrays were built,
/// and that encoding restores as unbuilt.
///
/// The index *could* be rebuilt from the L2 arrays, but it is serialized
/// verbatim instead: under fault-injection mutations the one-supplier
/// invariant may be violated, making the index's last-writer-wins `local`
/// slot order-dependent — a rebuild could answer snoops differently than
/// the live index did, breaking bit-identical resume. Keys are written in
/// sorted order so snapshots are deterministic.
impl Snapshot for MachineCaches {
    fn save_into(&self, w: &mut SnapWriter) {
        let empty = self.empty_encoding();
        w.put_usize(self.cmps.len());
        for c in &self.cmps {
            match c.arrays.as_deref() {
                Some(a) => a.save_into(w),
                None => w.put_raw(&empty),
            }
        }
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.get_usize()? != self.cmps.len() {
            return Err(SnapError::Corrupt("CMP count does not match config"));
        }
        let empty = self.empty_encoding();
        for c in &mut self.cmps {
            c.arrays = if r.strip_prefix(&empty) {
                None
            } else {
                let mut arrays = Arrays::new(&self.geometry);
                arrays.restore_from(r)?;
                Some(Box::new(arrays))
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsnoop_engine::snap::{restore_bytes, snapshot_bytes};
    use CoherState::*;

    /// Four cores, each with a 4-entry 2-way L1 and a 16-entry 4-way L2.
    const G: CmpGeometry = CmpGeometry {
        cores: 4,
        l1: CacheGeometry { sets: 2, ways: 2 },
        l2: CacheGeometry { sets: 4, ways: 4 },
    };

    fn cmp() -> CmpCaches {
        CmpCaches::default()
    }

    fn l1(c: &mut CmpCaches, core: usize) -> &mut SetAssocCache<()> {
        &mut c.arrays.as_mut().expect("built").cores[core].l1
    }

    /// A one-node machine's snapshot of `c`.
    fn save(c: &CmpCaches) -> Vec<u8> {
        let m = MachineCaches {
            geometry: G,
            cmps: vec![c.clone()],
        };
        let mut w = SnapWriter::new();
        m.save_into(&mut w);
        w.into_bytes()
    }

    /// Restores `c` from a one-node machine's snapshot, as a machine of
    /// the given `geometry`.
    fn restore(c: &mut CmpCaches, geometry: CmpGeometry, bytes: &[u8]) -> Result<(), SnapError> {
        let mut m = MachineCaches {
            geometry,
            cmps: vec![std::mem::take(c)],
        };
        let mut r = SnapReader::new(bytes);
        let out = m.restore_from(&mut r).and_then(|()| r.expect_eof());
        *c = m.cmps.pop().expect("one node");
        out
    }

    #[test]
    fn miss_everywhere() {
        let mut c = cmp();
        assert_eq!(c.local_lookup(0, LineAddr(1)), LocalLookup::Miss);
        assert_eq!(
            c.snoop(LineAddr(1)),
            SnoopResult {
                supplier: None,
                any_copy: false
            }
        );
    }

    #[test]
    fn own_l2_then_own_l1() {
        let mut c = cmp();
        c.fill(&G, 1, LineAddr(5), E);
        // fill() pre-loads the L1 tag, so the first lookup already hits L1.
        assert_eq!(c.local_lookup(1, LineAddr(5)), LocalLookup::OwnL1(E));
        // After an L1-tag eviction the next access reports an L2 hit.
        l1(&mut c, 1).remove(LineAddr(5));
        assert_eq!(c.local_lookup(1, LineAddr(5)), LocalLookup::OwnL2(E));
        assert_eq!(c.local_lookup(1, LineAddr(5)), LocalLookup::OwnL1(E));
    }

    #[test]
    fn peer_supplies_local_master() {
        let mut c = cmp();
        c.fill(&G, 2, LineAddr(7), Sl);
        assert_eq!(
            c.local_lookup(0, LineAddr(7)),
            LocalLookup::Peer { peer: 2, state: Sl }
        );
    }

    #[test]
    fn plain_shared_peer_cannot_supply() {
        let mut c = cmp();
        c.fill(&G, 2, LineAddr(7), S);
        assert_eq!(c.local_lookup(0, LineAddr(7)), LocalLookup::Miss);
    }

    #[test]
    fn snoop_finds_supplier_and_presence() {
        let mut c = cmp();
        c.fill(&G, 0, LineAddr(9), S);
        c.fill(&G, 3, LineAddr(9), T);
        let r = c.snoop(LineAddr(9));
        assert_eq!(r.supplier, Some((3, T)));
        assert!(r.any_copy);
    }

    #[test]
    fn snoop_sees_copies_without_supplier() {
        let mut c = cmp();
        c.fill(&G, 0, LineAddr(9), S);
        c.fill(&G, 1, LineAddr(9), Sl);
        let r = c.snoop(LineAddr(9));
        assert_eq!(r.supplier, None);
        assert!(r.any_copy, "SL is a copy but not a ring supplier");
    }

    #[test]
    fn invalidate_all_clears_cmp() {
        let mut c = cmp();
        c.fill(&G, 0, LineAddr(9), S);
        c.fill(&G, 1, LineAddr(9), Sl);
        let dropped = c.invalidate_all(LineAddr(9));
        assert_eq!(dropped.len(), 2);
        assert!(!c.has_copy(LineAddr(9)));
        assert_eq!(c.local_lookup(0, LineAddr(9)), LocalLookup::Miss);
    }

    #[test]
    fn fill_eviction_drops_l1_tag() {
        let mut c = cmp();
        // L2 set 0 (4 sets in a 16-entry, 4-way array) holds 4 ways.
        for i in 0..4 {
            c.fill(&G, 0, LineAddr(i * 4), S);
        }
        let ev = c
            .fill(&G, 0, LineAddr(16), S)
            .expect("one way must be evicted");
        // The victim's L1 tag must be gone (inclusive hierarchy).
        assert!(l1(&mut c, 0).peek(ev.line).is_none());
    }

    #[test]
    fn snapshot_round_trip_preserves_lookups_and_future_behavior() {
        let mut c = cmp();
        c.fill(&G, 0, LineAddr(9), S);
        c.fill(&G, 3, LineAddr(9), T);
        c.fill(&G, 2, LineAddr(7), Sl);
        c.fill(&G, 1, LineAddr(5), D);
        c.invalidate_all(LineAddr(5));

        let bytes = save(&c);
        let mut fresh = cmp();
        // Overlay: restoring replaces whatever the fresh CMP held.
        fresh.fill(&G, 0, LineAddr(100), E);
        restore(&mut fresh, G, &bytes).unwrap();

        assert_eq!(fresh.snoop(LineAddr(9)), c.snoop(LineAddr(9)));
        assert_eq!(fresh.snoop(LineAddr(5)), c.snoop(LineAddr(5)));
        assert!(!fresh.has_copy(LineAddr(100)));
        assert_eq!(
            fresh.local_lookup(0, LineAddr(7)),
            LocalLookup::Peer { peer: 2, state: Sl }
        );
        // The residency index survives intact: mutating both copies
        // identically keeps them in lock-step (debug builds cross-check the
        // index against a full tag scan on every snoop).
        assert_eq!(
            c.invalidate_all_counted(LineAddr(9)),
            fresh.invalidate_all_counted(LineAddr(9))
        );
        assert_eq!(fresh.snoop(LineAddr(9)), c.snoop(LineAddr(9)));
    }

    #[test]
    fn snapshot_restore_rejects_core_count_mismatch() {
        let mut c = cmp();
        c.fill(&G, 0, LineAddr(1), E);
        let two_cores = CmpGeometry { cores: 2, ..G };
        for bytes in [save(&c), save(&cmp())] {
            let err = restore(&mut cmp(), two_cores, &bytes).unwrap_err();
            assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
        }
    }

    #[test]
    fn validate_line_catches_two_suppliers() {
        let mut c = cmp();
        c.fill(&G, 0, LineAddr(3), E);
        c.fill(&G, 1, LineAddr(3), D); // protocol bug injected on purpose
        assert!(c.validate_line(LineAddr(3)).is_err());
    }

    #[test]
    fn validate_line_accepts_legal_mix() {
        let mut c = cmp();
        c.fill(&G, 0, LineAddr(3), Sg);
        c.fill(&G, 1, LineAddr(3), S);
        assert!(c.validate_line(LineAddr(3)).is_ok());
    }

    #[test]
    fn untouched_cmp_answers_every_query_as_empty() {
        let mut c = cmp();
        let line = LineAddr(3);
        assert!(!c.is_built());
        assert_eq!(c.local_lookup(2, line), LocalLookup::Miss);
        assert_eq!(
            c.snoop(line),
            SnoopResult {
                supplier: None,
                any_copy: false
            }
        );
        assert_eq!(c.supplier_of(line), None);
        assert!(!c.has_copy(line));
        assert_eq!(c.l2_state(1, line), I);
        assert_eq!(c.copies_of(line).count(), 0);
        assert_eq!(c.l2_lines().count(), 0);
        assert!(c.resident_lines().is_empty());
        assert!(c.invalidate_all(line).is_empty());
        assert_eq!(
            c.invalidate_all_counted(line),
            InvalidateOutcome {
                copies: 0,
                had_supplier: false,
                strong_copies: 0
            }
        );
        assert!(c.validate_line(line).is_ok());
        assert!(!c.is_built(), "queries must not build the arrays");
    }

    #[test]
    fn untouched_cmp_costs_only_its_inline_size() {
        assert_eq!(cmp().footprint_bytes(), size_of::<CmpCaches>() as u64);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn set_state_on_untouched_cmp_panics() {
        cmp().set_state(0, LineAddr(1), S);
    }

    #[test]
    fn first_fill_builds_the_arrays() {
        let mut c = cmp();
        assert!(c.fill(&G, 2, LineAddr(6), E).is_none());
        assert!(c.is_built());
        assert!(c.footprint_bytes() > size_of::<CmpCaches>() as u64);
        assert_eq!(c.l2_state(2, LineAddr(6)), E);
        assert_eq!(c.copies_of(LineAddr(6)).collect::<Vec<_>>(), [(2, E)]);
        assert_eq!(c.l2_lines().collect::<Vec<_>>(), [(2, LineAddr(6), E)]);
        assert_eq!(c.local_lookup(2, LineAddr(6)), LocalLookup::OwnL1(E));
    }

    #[test]
    fn untouched_snapshot_matches_an_eagerly_built_empty_cmp() {
        // The format of a one-node machine whose arrays were all built up
        // front and never touched: node count, then the CMP's core count,
        // every L1, every L2 and an empty index.
        let mut w = SnapWriter::new();
        w.put_usize(1);
        w.put_usize(G.cores);
        for _ in 0..G.cores {
            SetAssocCache::<()>::new(G.l1).save_into_with(&mut w, |_, _| {});
        }
        for _ in 0..G.cores {
            L2Cache::new(G.l2).save_into(&mut w);
        }
        w.put_usize(0);
        let eager = w.into_bytes();
        assert_eq!(save(&cmp()), eager);

        // Restoring it over a built CMP leaves an unbuilt one.
        let mut c = cmp();
        c.fill(&G, 0, LineAddr(1), D);
        restore(&mut c, G, &eager).unwrap();
        assert!(!c.is_built());
        assert_eq!(c.footprint_bytes(), size_of::<CmpCaches>() as u64);
    }

    /// Fills four conflicting lines into core 0's L2 set 0 (touching one
    /// of them again) and returns the victims of four more.
    fn evictions_after(c: &mut CmpCaches) -> Vec<Option<Eviction>> {
        (5..9).map(|i| c.fill(&G, 0, LineAddr(i * 4), S)).collect()
    }

    fn warm(c: &mut CmpCaches) {
        for i in 0..4 {
            c.fill(&G, 0, LineAddr(i * 4), S);
        }
        c.local_lookup(0, LineAddr(4));
    }

    #[test]
    fn restored_cmp_evicts_like_one_never_snapshotted() {
        let mut live = cmp();
        warm(&mut live);
        let mut restored = cmp();
        restore(&mut restored, G, &save(&live)).unwrap();
        assert_eq!(save(&restored), save(&live));
        let expected = evictions_after(&mut live);
        assert!(expected.iter().all(Option::is_some));
        assert_eq!(evictions_after(&mut restored), expected);
    }

    #[test]
    fn late_built_arrays_pick_the_same_victims() {
        // `early` is built long before the warm-up and ticks its LRU
        // clocks on many misses; `late` skips all of that while unbuilt.
        let mut early = cmp();
        early.fill(&G, 1, LineAddr(2), S);
        early.invalidate_all(LineAddr(2));
        for i in 0..50 {
            early.local_lookup(0, LineAddr(1000 + i));
        }
        let mut late = cmp();
        for i in 0..50 {
            late.local_lookup(0, LineAddr(1000 + i));
        }
        assert!(!late.is_built());
        warm(&mut early);
        warm(&mut late);
        assert_eq!(evictions_after(&mut late), evictions_after(&mut early));
    }

    #[test]
    fn machine_snapshot_keeps_untouched_nodes_unbuilt() {
        let mut m = MachineCaches::new(3, G);
        m.fill(1, 2, LineAddr(9), T);
        let bytes = snapshot_bytes(&m);
        let mut fresh = MachineCaches::new(3, G);
        fresh.fill(0, 0, LineAddr(5), E);
        restore_bytes(&mut fresh, &bytes).unwrap();
        let built: Vec<bool> = fresh.iter().map(CmpCaches::is_built).collect();
        assert_eq!(built, [false, true, false]);
        assert_eq!(fresh[1].supplier_of(LineAddr(9)), Some((2, T)));
        assert_eq!(fresh.footprint_bytes(), m.footprint_bytes());

        let err = restore_bytes(&mut MachineCaches::new(2, G), &bytes).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }
}
