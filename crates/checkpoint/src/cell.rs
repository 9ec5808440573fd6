//! The shared cell wrapping one SE instance.
//!
//! Worker threads and the checkpoint coordinator share SE instances through
//! a [`StateCell`]. Since PR 4 the cell is **lock-striped**: a partitioned
//! SE instance holds a fixed set of stripes, each a mutex around a disjoint
//! shard of the [`StateStore`] plus the vector timestamp of input applied
//! *to that stripe*. Concurrent accessing tasks hitting different keys of
//! one instance no longer contend; the asynchronous checkpoint protocol
//! locks all stripes only for snapshot initiation and consolidation.
//!
//! ## Stripe identity and watermark semantics
//!
//! Items are routed to stripes by the same stable key hash the partitioner
//! uses (`Key::stable_hash() % stripes`), so a given key always lands on
//! the same stripe — across processing, checkpoint re-splits, and restore.
//! Per-(edge, src) dedupe watermarks live in the stripe owning the item's
//! key. Items of one lane arrive in timestamp order, so each stripe
//! observes an increasing subsequence and `is_duplicate` stays exact. The
//! cell-level vector used for checkpoint metadata and buffer trimming is
//! the **per-lane maximum** across stripes (`lane_max`). That is exact,
//! not optimistic: each lane into an instance has one FIFO consumer that
//! applies an item whole under its stripe's lock, so when every stripe is
//! locked (the checkpoint cut) the lane's newest applied timestamp covers
//! all of its older items, whichever stripes they went to. A minimum would
//! be pinned at 0 by any stripe that never saw the lane, and with the
//! partitioner and the stripes hashing the same key most stripes of a
//! partition never do.

use parking_lot::Mutex;
use sdg_common::error::SdgResult;
use sdg_common::ids::EdgeId;
use sdg_common::time::{ScalarTs, VectorTs};
use sdg_state::entry::StateEntry;
use sdg_state::partition::PartitionDim;
use sdg_state::store::{StateStore, StateType};

/// The lock-protected contents of one stripe.
#[derive(Debug)]
pub struct CellInner {
    /// The stripe's shard of the SE data structure.
    pub store: StateStore,
    /// Last applied timestamp per input lane, for keys owned by this stripe.
    pub vector: VectorTs,
}

/// One SE instance shared between processing and checkpointing.
#[derive(Debug)]
pub struct StateCell {
    stripes: Vec<Mutex<CellInner>>,
    /// Dirty-chunk space for incremental checkpoints (`None` = full only).
    delta_chunks: Option<usize>,
    /// Partition axis used when re-splitting a merged store into stripes.
    dim: PartitionDim,
}

impl StateCell {
    /// Creates an unstriped cell holding an empty store of type `ty`.
    pub fn new(ty: StateType) -> Self {
        Self::from_store(StateStore::new(ty), VectorTs::new())
    }

    /// Creates an unstriped cell from an existing store and vector.
    pub fn from_store(store: StateStore, vector: VectorTs) -> Self {
        StateCell {
            stripes: vec![Mutex::new(CellInner { store, vector })],
            delta_chunks: None,
            dim: PartitionDim::Row,
        }
    }

    /// Creates a striped cell of `stripes` empty shards.
    ///
    /// When `delta_chunks` is `Some(n)` each shard tracks dirty chunks in an
    /// `n`-chunk space so checkpoints can serialise deltas (tables only;
    /// other structures silently fall back to full serialisation).
    ///
    /// # Panics
    ///
    /// Panics if `stripes` is zero.
    pub fn new_striped(
        ty: StateType,
        stripes: usize,
        dim: PartitionDim,
        delta_chunks: Option<usize>,
    ) -> Self {
        assert!(stripes > 0, "stripe count must be positive");
        let stripes = (0..stripes)
            .map(|_| {
                let mut store = StateStore::new(ty);
                if let Some(chunks) = delta_chunks {
                    store.enable_chunk_tracking(chunks);
                }
                Mutex::new(CellInner {
                    store,
                    vector: VectorTs::new(),
                })
            })
            .collect();
        StateCell {
            stripes,
            delta_chunks,
            dim,
        }
    }

    /// Creates a striped cell by hash-splitting `store` into `stripes`
    /// shards, assigning `vector` to every stripe.
    ///
    /// Assigning the merged vector to all stripes is only exact when the
    /// caller knows no finer-grained watermarks exist (fresh deployments
    /// and scale-out, where new items always carry higher timestamps). For
    /// restore, prefer [`StateCell::from_parts`] with the per-stripe
    /// vectors recorded in the backup.
    pub fn from_store_striped(
        store: StateStore,
        vector: VectorTs,
        stripes: usize,
        dim: PartitionDim,
        delta_chunks: Option<usize>,
    ) -> SdgResult<Self> {
        assert!(stripes > 0, "stripe count must be positive");
        if stripes == 1 {
            let mut cell = StateCell::from_store(store, vector);
            cell.delta_chunks = delta_chunks;
            cell.dim = dim;
            if let Some(chunks) = delta_chunks {
                cell.stripes[0].lock().store.enable_chunk_tracking(chunks);
            }
            return Ok(cell);
        }
        let parts = store.split_by_hash(stripes, dim)?;
        Ok(Self::from_parts(
            parts.into_iter().map(|p| (p, vector.clone())).collect(),
            dim,
            delta_chunks,
        ))
    }

    /// Creates a striped cell from exact per-stripe (store, vector) pairs,
    /// as recorded by a checkpoint (used on restore).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn from_parts(
        parts: Vec<(StateStore, VectorTs)>,
        dim: PartitionDim,
        delta_chunks: Option<usize>,
    ) -> Self {
        assert!(!parts.is_empty(), "cell needs at least one stripe");
        let stripes = parts
            .into_iter()
            .map(|(mut store, vector)| {
                if let Some(chunks) = delta_chunks {
                    store.enable_chunk_tracking(chunks);
                }
                Mutex::new(CellInner { store, vector })
            })
            .collect();
        StateCell {
            stripes,
            delta_chunks,
            dim,
        }
    }

    /// Number of stripes in this cell.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The dirty-chunk space configured for incremental checkpoints.
    pub fn delta_chunks(&self) -> Option<usize> {
        self.delta_chunks
    }

    /// Maps a route hash to its stripe index.
    fn stripe_of(&self, route: Option<u64>) -> usize {
        match route {
            Some(h) if self.stripes.len() > 1 => (h % self.stripes.len() as u64) as usize,
            _ => 0,
        }
    }

    /// Runs `f` with the cell locked.
    ///
    /// Only valid on unstriped cells (the historical single-mutex API);
    /// striped cells must use [`StateCell::apply_routed`],
    /// [`StateCell::with_all`] or [`StateCell::with_merged`].
    pub fn with<R>(&self, f: impl FnOnce(&mut CellInner) -> R) -> R {
        debug_assert!(
            self.stripes.len() == 1,
            "StateCell::with on a striped cell; use with_all/with_merged"
        );
        f(&mut self.stripes[0].lock())
    }

    /// Runs `f` with the stripe owning `route` locked.
    pub fn with_routed<R>(&self, route: Option<u64>, f: impl FnOnce(&mut CellInner) -> R) -> R {
        f(&mut self.stripes[self.stripe_of(route)].lock())
    }

    /// Runs `f` with **all** stripes locked, in index order.
    ///
    /// This is the checkpoint cut: while `f` runs no item can mutate any
    /// stripe, so the per-stripe (snapshot, vector) pairs form one
    /// consistent cell-level state.
    pub fn with_all<R>(&self, f: impl FnOnce(&mut [&mut CellInner]) -> R) -> R {
        let mut guards: Vec<_> = self.stripes.iter().map(|m| m.lock()).collect();
        let mut inners: Vec<&mut CellInner> = guards.iter_mut().map(|g| &mut **g).collect();
        f(&mut inners)
    }

    /// Applies one input item: returns `None` without calling `f` if the
    /// item is a duplicate (already covered by the owning stripe's vector),
    /// otherwise runs `f` on the stripe's shard and advances its watermark.
    pub fn apply<R>(
        &self,
        edge: EdgeId,
        ts: ScalarTs,
        f: impl FnOnce(&mut StateStore) -> R,
    ) -> Option<R> {
        self.apply_routed(edge, ts, None, f)
    }

    /// [`StateCell::apply`] with an explicit route hash selecting the
    /// stripe. `route` must be the stable hash of the item's partition key
    /// (the same hash the dispatcher used), so the item lands on the stripe
    /// owning its key.
    pub fn apply_routed<R>(
        &self,
        edge: EdgeId,
        ts: ScalarTs,
        route: Option<u64>,
        f: impl FnOnce(&mut StateStore) -> R,
    ) -> Option<R> {
        let mut inner = self.stripes[self.stripe_of(route)].lock();
        if inner.vector.is_duplicate(edge, ts) {
            return None;
        }
        let r = f(&mut inner.store);
        inner.vector.observe(edge, ts);
        Some(r)
    }

    /// Returns the cell-level vector timestamp: the per-lane maximum
    /// across stripes (see `lane_max`), taken under every stripe lock.
    pub fn vector(&self) -> VectorTs {
        self.with_all(|inners| lane_max(inners.iter().map(|i| &i.vector)))
    }

    /// Returns every stripe's vector (checkpoint metadata).
    pub fn stripe_vectors(&self) -> Vec<VectorTs> {
        self.stripes
            .iter()
            .map(|s| s.lock().vector.clone())
            .collect()
    }

    /// Returns the approximate state size in bytes (sum over stripes).
    pub fn approx_bytes(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().store.approx_bytes())
            .sum()
    }

    /// Returns the approximate bytes held by dirty overlays (0 when no
    /// checkpoint is in flight).
    pub fn dirty_bytes(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().store.dirty_bytes())
            .sum()
    }

    /// Number of chunks currently marked dirty across all stripes (0 when
    /// incremental tracking is off).
    pub fn pending_dirty_chunks(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().store.dirty_chunk_count())
            .sum()
    }

    /// Marks every tracked chunk dirty in every stripe (forces the next
    /// incremental checkpoint to serialise everything).
    pub fn mark_all_dirty(&self) {
        for s in &self.stripes {
            s.lock().store.mark_all_dirty();
        }
    }

    /// Exports the merged visible state and the merge-max vector across
    /// stripes, locking all stripes for a consistent cut.
    ///
    /// The merge-max vector is the right watermark for scale-out: the
    /// receiving instances must reject anything *any* stripe already
    /// applied, and redistributed keys carry fresh (higher) timestamps.
    pub fn export_merged(&self) -> (Vec<StateEntry>, VectorTs) {
        self.with_all(|inners| {
            let mut entries = Vec::new();
            let mut vector = VectorTs::new();
            for inner in inners.iter_mut() {
                entries.extend(inner.store.export_entries());
                vector.merge_max(&inner.vector);
            }
            (entries, vector)
        })
    }

    /// Runs `f` on a merged view of the whole cell, then re-splits the
    /// result back into the stripes.
    ///
    /// Used for bulk access (state preloading, `with_state`). On striped
    /// cells the re-split produces fresh shards, so chunk tracking is
    /// re-enabled all-dirty — the next incremental checkpoint conservatively
    /// serialises everything. Stripe vectors are unchanged (bulk access is
    /// not dataflow input).
    pub fn with_merged<R>(&self, f: impl FnOnce(&mut StateStore) -> R) -> SdgResult<R> {
        if self.stripes.len() == 1 {
            return Ok(f(&mut self.stripes[0].lock().store));
        }
        self.with_all(|inners| {
            let ty = inners[0].store.state_type();
            let mut merged = StateStore::new(ty);
            for inner in inners.iter_mut() {
                merged.import_entries(&inner.store.export_entries())?;
            }
            let r = f(&mut merged);
            let parts = merged.split_by_hash(inners.len(), self.dim)?;
            for (inner, mut part) in inners.iter_mut().zip(parts) {
                if let Some(chunks) = self.delta_chunks {
                    part.enable_chunk_tracking(chunks);
                }
                inner.store = part;
            }
            Ok(r)
        })
    }

    /// Additively merges `entries` (another replica's exported partial
    /// aggregate) into this cell and folds `vector` into every stripe's
    /// watermark by pointwise max.
    ///
    /// This is the scale-in path for `@Partial` SEs: the victim replica's
    /// contribution is summed into a survivor so the group-wide aggregate
    /// (the element-wise sum over replicas) is preserved. Merge-max is the
    /// right watermark because the group is drained first — anything either
    /// side already applied must be rejected on replay, and fresh items
    /// carry higher timestamps. The merged shards are marked all-dirty so
    /// the next incremental checkpoint serialises the new contents.
    pub fn merge_additive(&self, entries: &[StateEntry], vector: &VectorTs) -> SdgResult<()> {
        self.with_all(|inners| {
            if inners.len() == 1 {
                inners[0].store.merge_additive(entries)?;
                inners[0].store.mark_all_dirty();
                inners[0].vector.merge_max(vector);
                return Ok(());
            }
            // Striped cells: merge on the combined view, then re-split so
            // every key keeps landing on the stripe its hash selects.
            let ty = inners[0].store.state_type();
            let mut merged = StateStore::new(ty);
            for inner in inners.iter_mut() {
                merged.import_entries(&inner.store.export_entries())?;
            }
            merged.merge_additive(entries)?;
            let parts = merged.split_by_hash(inners.len(), self.dim)?;
            for (inner, mut part) in inners.iter_mut().zip(parts) {
                if let Some(chunks) = self.delta_chunks {
                    part.enable_chunk_tracking(chunks);
                }
                inner.store = part;
                inner.vector.merge_max(vector);
            }
            Ok(())
        })
    }

    /// Replaces the cell's entire contents with `store`, re-split across
    /// the stripes, assigning `vector` to every stripe (used on scale-out,
    /// where redistributed items always carry fresh timestamps).
    pub fn replace(&self, store: StateStore, vector: VectorTs) -> SdgResult<()> {
        self.with_all(|inners| {
            let parts = if inners.len() == 1 {
                vec![store]
            } else {
                store.split_by_hash(inners.len(), self.dim)?
            };
            for (inner, mut part) in inners.iter_mut().zip(parts) {
                if let Some(chunks) = self.delta_chunks {
                    part.enable_chunk_tracking(chunks);
                }
                inner.store = part;
                inner.vector = vector.clone();
            }
            Ok(())
        })
    }
}

/// The cell-level vector of a cut over `stripe_vectors`: each lane's
/// newest applied timestamp on any stripe.
///
/// Exact for trimming and replay, provided the vectors were read under
/// every stripe lock at once: a lane's items reach the instance in
/// timestamp order through one FIFO consumer, so every older item of the
/// lane was applied (on whichever stripe owns its key) before the newest.
pub(crate) fn lane_max<'a>(stripe_vectors: impl IntoIterator<Item = &'a VectorTs>) -> VectorTs {
    let mut out = VectorTs::new();
    for v in stripe_vectors {
        out.merge_max(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::value::{Key, Value};

    #[test]
    fn apply_rejects_duplicates() {
        let cell = StateCell::new(StateType::Table);
        let edge = EdgeId(0);
        let applied = cell.apply(edge, 1, |s| {
            s.as_table().unwrap().put(Key::Int(1), Value::Int(1));
        });
        assert!(applied.is_some());
        // Replaying the same timestamp is a no-op.
        let replayed = cell.apply(edge, 1, |s| {
            s.as_table().unwrap().put(Key::Int(1), Value::Int(999));
        });
        assert!(replayed.is_none());
        cell.with(|inner| {
            assert_eq!(
                inner.store.as_table().unwrap().get(&Key::Int(1)),
                Some(Value::Int(1))
            );
        });
    }

    #[test]
    fn apply_tracks_per_edge_watermarks() {
        let cell = StateCell::new(StateType::Table);
        assert!(cell.apply(EdgeId(0), 5, |_| ()).is_some());
        // A different edge has its own watermark.
        assert!(cell.apply(EdgeId(1), 3, |_| ()).is_some());
        assert!(cell.apply(EdgeId(0), 3, |_| ()).is_none());
        assert_eq!(cell.vector().get(EdgeId(0)), 5);
        assert_eq!(cell.vector().get(EdgeId(1)), 3);
    }

    #[test]
    fn with_gives_exclusive_access() {
        let cell = StateCell::new(StateType::Vector);
        cell.with(|inner| inner.store.as_vector().unwrap().set(9, 1.0));
        assert_eq!(cell.approx_bytes(), 80);
    }

    #[test]
    fn routed_items_land_on_their_keys_stripe() {
        let cell = StateCell::new_striped(StateType::Table, 4, PartitionDim::Row, None);
        for i in 0..40i64 {
            let key = Key::Int(i);
            let route = key.stable_hash();
            cell.apply_routed(EdgeId(0), (i + 1) as u64, Some(route), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i));
            });
        }
        // Every key is visible via the stripe its hash selects, and only
        // that stripe.
        for i in 0..40i64 {
            let key = Key::Int(i);
            let found = cell.with_routed(Some(key.stable_hash()), |inner| {
                inner.store.as_table().unwrap().get(&key)
            });
            assert_eq!(found, Some(Value::Int(i)));
        }
        let total: usize = cell.with_all(|inners| {
            inners
                .iter_mut()
                .map(|i| i.store.as_table().unwrap().len())
                .sum()
        });
        assert_eq!(total, 40);
    }

    /// A lane's items in order: `(ts, key, value)`, written through the
    /// key's stripe.
    fn apply_lane(cell: &StateCell, items: &[(u64, i64, i64)]) {
        for &(ts, k, v) in items {
            let key = Key::Int(k);
            cell.apply_routed(EdgeId(7), ts, Some(key.stable_hash()), |s| {
                let t = s.as_table().unwrap();
                let old = t.get(&key).map_or(0, |x| x.as_int().unwrap());
                t.put(key.clone(), Value::Int(old + v));
            });
        }
    }

    #[test]
    fn trimming_at_the_lane_max_replays_exactly_once() {
        // The first half of one lane's stream only reaches stripes 0..4 of
        // 8; a pointwise-min vector would stay 0 and trim nothing.
        let stripe = |k: i64| Key::Int(k).stable_hash() % 8;
        let stream: Vec<(u64, i64, i64)> = (0i64..)
            .filter(|k| stripe(*k) < 4)
            .take(12)
            .chain(1000..1020)
            .enumerate()
            .map(|(i, k)| (i as u64 + 1, k, k + 1))
            .collect();
        let live = StateCell::new_striped(StateType::Table, 8, PartitionDim::Row, None);
        let (before, after) = stream.split_at(12);
        apply_lane(&live, before);
        // The checkpoint cut: per-stripe vectors and state under every
        // lock, and the cell vector the upstream buffer is trimmed at.
        let (stripe_vectors, merged) = live.with_all(|inners| {
            let vs: Vec<VectorTs> = inners.iter().map(|i| i.vector.clone()).collect();
            let mut store = StateStore::new(StateType::Table);
            for i in inners.iter_mut() {
                store.import_entries(&i.store.export_entries()).unwrap();
            }
            (vs, store)
        });
        assert!(stripe_vectors.iter().any(|v| v.get(EdgeId(7)) == 0));
        let wm = live.vector().get(EdgeId(7));
        assert_eq!(wm, 12, "the trim point is the newest applied item");
        assert_eq!(lane_max(&stripe_vectors).get(EdgeId(7)), wm);
        apply_lane(&live, after);

        // Fail: restore the cut into a fresh cell and replay what the
        // trimmed buffer still holds (everything after the watermark).
        let parts = merged.split_by_hash(8, PartitionDim::Row).unwrap();
        let restored = StateCell::from_parts(
            parts.into_iter().zip(stripe_vectors).collect(),
            PartitionDim::Row,
            None,
        );
        let buffered: Vec<_> = stream.iter().copied().filter(|i| i.0 > wm).collect();
        assert_eq!(buffered, after, "nothing at or below the watermark is kept");
        // Replay again to check the re-delivery is filtered, not reapplied.
        apply_lane(&restored, &buffered);
        apply_lane(&restored, &buffered);
        assert_eq!(restored.vector(), live.vector());
        assert_eq!(restored.export_merged().0.len(), stream.len());
        for (_, k, v) in &stream {
            let key = Key::Int(*k);
            let got = restored.with_routed(Some(key.stable_hash()), |i| {
                i.store.as_table().unwrap().get(&key)
            });
            assert_eq!(got, Some(Value::Int(*v)), "key {k} applied exactly once");
        }
    }

    #[test]
    fn with_merged_roundtrips_striped_contents() {
        let cell = StateCell::new_striped(StateType::Table, 4, PartitionDim::Row, Some(8));
        for i in 0..30i64 {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), (i + 1) as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i * 2));
            });
        }
        let len = cell
            .with_merged(|store| {
                let t = store.as_table().unwrap();
                t.put(Key::Int(999), Value::Int(999));
                t.len()
            })
            .unwrap();
        assert_eq!(len, 31);
        // The bulk write is visible through the routed path afterwards.
        let key = Key::Int(999);
        let found = cell.with_routed(Some(key.stable_hash()), |inner| {
            inner.store.as_table().unwrap().get(&key)
        });
        assert_eq!(found, Some(Value::Int(999)));
        // Tracking was re-enabled all-dirty by the re-split.
        assert_eq!(cell.pending_dirty_chunks(), 4 * 8);
    }

    #[test]
    fn merge_additive_folds_partial_replica_in() {
        // Survivor and victim hold independent partial counts; after the
        // merge the survivor holds the element-wise sum, and its watermark
        // covers both replicas' applied input.
        let survivor = StateCell::new(StateType::Table);
        survivor.apply(EdgeId(1), 3, |s| {
            s.as_table().unwrap().put(Key::Int(1), Value::Int(5));
            s.as_table().unwrap().put(Key::Int(2), Value::Int(1));
        });
        let victim = StateCell::new(StateType::Table);
        victim.apply(EdgeId(1), 7, |s| {
            s.as_table().unwrap().put(Key::Int(1), Value::Int(2));
            s.as_table().unwrap().put(Key::Int(9), Value::Int(4));
        });
        let (entries, vector) = victim.export_merged();
        survivor.merge_additive(&entries, &vector).unwrap();
        survivor.with(|inner| {
            let t = inner.store.as_table().unwrap();
            assert_eq!(t.get(&Key::Int(1)), Some(Value::Int(7)));
            assert_eq!(t.get(&Key::Int(2)), Some(Value::Int(1)));
            assert_eq!(t.get(&Key::Int(9)), Some(Value::Int(4)));
        });
        assert_eq!(survivor.vector().get(EdgeId(1)), 7);
    }

    #[test]
    fn merge_additive_respects_stripe_routing() {
        let cell = StateCell::new_striped(StateType::Table, 4, PartitionDim::Row, Some(8));
        for i in 0..20i64 {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), (i + 1) as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(1));
            });
        }
        let mut incoming = StateStore::new(StateType::Table);
        for i in 0..20i64 {
            incoming
                .as_table()
                .unwrap()
                .put(Key::Int(i), Value::Int(10));
        }
        cell.merge_additive(&incoming.export_entries(), &VectorTs::new())
            .unwrap();
        for i in 0..20i64 {
            let key = Key::Int(i);
            let found = cell.with_routed(Some(key.stable_hash()), |inner| {
                inner.store.as_table().unwrap().get(&key)
            });
            assert_eq!(found, Some(Value::Int(11)));
        }
        // The re-split re-enabled tracking all-dirty.
        assert_eq!(cell.pending_dirty_chunks(), 4 * 8);
    }

    #[test]
    fn export_merged_and_replace_roundtrip() {
        let cell = StateCell::new_striped(StateType::Table, 3, PartitionDim::Row, None);
        for i in 0..20i64 {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(2), (i + 1) as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i));
            });
        }
        let (entries, vector) = cell.export_merged();
        assert_eq!(entries.len(), 20);
        assert_eq!(vector.get(EdgeId(2)), 20);
        let mut rebuilt = StateStore::new(StateType::Table);
        rebuilt.import_entries(&entries).unwrap();
        let other = StateCell::new_striped(StateType::Table, 5, PartitionDim::Row, None);
        other.replace(rebuilt, vector.clone()).unwrap();
        assert_eq!(other.vector().get(EdgeId(2)), 20);
        for i in 0..20i64 {
            let key = Key::Int(i);
            let found = other.with_routed(Some(key.stable_hash()), |inner| {
                inner.store.as_table().unwrap().get(&key)
            });
            assert_eq!(found, Some(Value::Int(i)));
        }
    }
}
