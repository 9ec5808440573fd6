//! The checkpoint protocol (§5, "State checkpointing").
//!
//! Asynchronous mode follows the paper's five steps:
//!
//! 1. under a short lock (all stripes at once, forming one consistent
//!    cut): flag each stripe's shard dirty (O(1) snapshot), copy the
//!    stripe vectors, take the dirty-chunk set, and capture the instance's
//!    output buffers;
//! 2. processing resumes immediately against the dirty overlays;
//! 3. off the processing path, a serialisation thread pool encodes the
//!    snapshots into hash-partitioned chunks (Fig. 4 step B1–B2) — in
//!    incremental mode, only the chunks that went dirty since the last
//!    completed checkpoint;
//! 4. chunks stream to the `m` backup stores by `chunk_id % m` (step B3),
//!    keeping a chunk's location stable across generations;
//! 5. under a short lock: consolidate the dirty overlays into the bases.
//!
//! Synchronous mode holds the locks for the entire procedure — the
//! "stop-the-world" behaviour of Naiad and SEEP that Fig. 12 compares
//! against. Synchronous checkpoints are always full.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{EdgeId, InstanceId};
use sdg_common::obs::CheckpointInstruments;
use sdg_common::time::VectorTs;
use sdg_state::entry::{partition_entries, StateEntry};
use sdg_state::store::StateSnapshot;

use crate::backup::{encode_entries, BackupSet, BackupStore, ChunkKey, DeltaMeta};
use crate::buffer::BufferedItem;
use crate::cell::{lane_max, StateCell};
use crate::config::CheckpointConfig;

/// Per-checkpoint policy knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointOptions {
    /// Force a full (base) generation even when incremental mode would
    /// produce a delta — used by the runtime's compaction policy when the
    /// accumulated delta chain grows past the configured threshold.
    pub force_full: bool,
}

/// Takes one checkpoint of `cell`, writing chunks to `stores`.
///
/// `capture_outputs` is invoked inside the initiation lock and must return
/// the instance's output buffers (they become part of the checkpoint so a
/// restored node can re-send downstream).
///
/// Returns the [`BackupSet`] describing where everything landed.
///
/// # Errors
///
/// Fails if a checkpoint is already in progress on the cell, if `stores`
/// is empty, or if a chunk write fails.
pub fn take_checkpoint(
    cell: &StateCell,
    instance: InstanceId,
    seq: u64,
    capture_outputs: impl FnOnce() -> Vec<(EdgeId, Vec<BufferedItem>)>,
    stores: &[Arc<BackupStore>],
    cfg: &CheckpointConfig,
) -> SdgResult<BackupSet> {
    take_checkpoint_observed(cell, instance, seq, capture_outputs, stores, cfg, None)
}

/// [`take_checkpoint`] with an optional observability probe.
///
/// When `obs` is given, the protocol's phase timings land in its
/// histograms — `snapshot_ns` (lock-held initiation), `persist_ns`
/// (off-path serialise + backup), `consolidate_ns` (lock-held overlay
/// fold), or `sync_ns` (the whole stop-the-world span in synchronous
/// mode) — and `taken`/`failed`/`bytes` are counted.
pub fn take_checkpoint_observed(
    cell: &StateCell,
    instance: InstanceId,
    seq: u64,
    capture_outputs: impl FnOnce() -> Vec<(EdgeId, Vec<BufferedItem>)>,
    stores: &[Arc<BackupStore>],
    cfg: &CheckpointConfig,
    obs: Option<&CheckpointInstruments>,
) -> SdgResult<BackupSet> {
    take_checkpoint_with(
        cell,
        instance,
        seq,
        capture_outputs,
        stores,
        cfg,
        obs,
        CheckpointOptions::default(),
    )
}

/// [`take_checkpoint_observed`] with explicit [`CheckpointOptions`].
#[allow(clippy::too_many_arguments)]
pub fn take_checkpoint_with(
    cell: &StateCell,
    instance: InstanceId,
    seq: u64,
    capture_outputs: impl FnOnce() -> Vec<(EdgeId, Vec<BufferedItem>)>,
    stores: &[Arc<BackupStore>],
    cfg: &CheckpointConfig,
    obs: Option<&CheckpointInstruments>,
    opts: CheckpointOptions,
) -> SdgResult<BackupSet> {
    let result =
        take_checkpoint_inner(cell, instance, seq, capture_outputs, stores, cfg, obs, opts);
    if let Some(obs) = obs {
        match &result {
            Ok(set) => {
                obs.taken.inc();
                obs.bytes.add(set.state_bytes as u64);
                if set.delta.as_ref().is_some_and(|d| !d.base) {
                    obs.deltas.inc();
                }
            }
            Err(_) => obs.failed.inc(),
        }
    }
    result
}

/// The consistent cut taken in step 1.
struct InitCut {
    /// Per-stripe (snapshot, vector) pairs, in stripe order.
    snapshots: Vec<(StateSnapshot, VectorTs)>,
    out_buffers: Vec<(EdgeId, Vec<BufferedItem>)>,
    /// Dirty chunk ids unioned across stripes; `Some` only when every
    /// stripe tracks the configured delta chunk space.
    dirty: Option<BTreeSet<u32>>,
}

#[allow(clippy::too_many_arguments)]
fn take_checkpoint_inner(
    cell: &StateCell,
    instance: InstanceId,
    seq: u64,
    capture_outputs: impl FnOnce() -> Vec<(EdgeId, Vec<BufferedItem>)>,
    stores: &[Arc<BackupStore>],
    cfg: &CheckpointConfig,
    obs: Option<&CheckpointInstruments>,
    opts: CheckpointOptions,
) -> SdgResult<BackupSet> {
    cfg.validate()?;
    if stores.is_empty() {
        return Err(SdgError::Recovery("no backup stores configured".into()));
    }
    let fanout = cfg.backup_fanout.min(stores.len());

    if cfg.synchronous {
        let t0 = Instant::now();
        let result = take_sync(
            cell,
            instance,
            seq,
            capture_outputs,
            stores,
            fanout,
            cfg,
            obs,
        );
        if let Some(obs) = obs {
            obs.sync_ns.record_duration(t0.elapsed());
        }
        return result;
    }

    // Step 1: O(1) snapshots under the all-stripes lock; processing
    // resumes on the dirty overlays as soon as the locks drop.
    let t0 = Instant::now();
    let mut cut = cell.with_all(|inners| -> SdgResult<InitCut> {
        let tracking = cfg.incremental
            && inners
                .iter()
                .all(|i| i.store.tracked_chunks() == Some(cfg.delta_chunks));
        let mut dirty = if tracking {
            Some(BTreeSet::new())
        } else {
            None
        };
        let mut snapshots = Vec::with_capacity(inners.len());
        for k in 0..inners.len() {
            // The dirty bits are taken *before* the snapshot so overlay
            // writes landing after the lock drops re-mark their chunks for
            // the next generation.
            if let Some(set) = dirty.as_mut() {
                set.extend(inners[k].store.take_dirty_chunks().unwrap_or_default());
            }
            match inners[k].store.begin_checkpoint() {
                Ok(snap) => {
                    let vector = inners[k].vector.clone();
                    snapshots.push((snap, vector));
                }
                Err(e) => {
                    // Roll back: fold the stripes already begun and put the
                    // consumed dirty bits back (conservatively, all of
                    // them) so the next checkpoint misses nothing.
                    for begun in inners.iter_mut().take(k) {
                        let _ = begun.store.consolidate();
                    }
                    for inner in inners.iter_mut() {
                        inner.store.mark_all_dirty();
                    }
                    return Err(e);
                }
            }
        }
        Ok(InitCut {
            snapshots,
            out_buffers: capture_outputs(),
            dirty,
        })
    })?;
    if let Some(obs) = obs {
        obs.snapshot_ns.record_duration(t0.elapsed());
    }
    let state_type = cut.snapshots[0].0.state_type();
    let stripe_vectors: Vec<VectorTs> = cut.snapshots.iter().map(|(_, v)| v.clone()).collect();
    let vector = lane_max(&stripe_vectors);

    // Steps 2–4 run off the processing path. Captured output buffers are
    // sealed here too: the dispatch path only parked refcounted records
    // (deferred encoding), so the wire encode joins the state serialise on
    // the persist-phase pool and `BackupSet` stays byte-identical to the
    // eager baseline on disk.
    let t1 = Instant::now();
    let (payloads, delta) = serialise_generation(&cut, cfg, opts.force_full);
    let sealed = seal_out_buffers(&mut cut.out_buffers, cfg.serialise_threads);
    let result = write_chunks(
        &payloads,
        instance,
        seq,
        stores,
        fanout,
        cfg.serialise_threads,
    );
    if let Some(obs) = obs {
        obs.persist_ns.record_duration(t1.elapsed());
        obs.encode_deferred.add(sealed);
    }

    // Step 5: consolidate even if a write failed, so the cell stays usable.
    let t2 = Instant::now();
    cell.with_all(|inners| {
        for inner in inners.iter_mut() {
            inner.store.consolidate()?;
        }
        Ok::<_, SdgError>(())
    })?;
    if let Some(obs) = obs {
        obs.consolidate_ns.record_duration(t2.elapsed());
    }
    let (chunk_locations, state_bytes) = match result {
        Ok(ok) => ok,
        Err(e) => {
            // The dirty bits were consumed but the generation never made
            // it to the stores: re-mark everything so the next checkpoint
            // covers the loss.
            cell.mark_all_dirty();
            return Err(e);
        }
    };

    Ok(BackupSet {
        instance,
        seq,
        state_type,
        vector,
        stripe_vectors,
        chunk_locations,
        out_buffers: cut.out_buffers,
        state_bytes,
        delta,
    })
}

/// Encodes the cut into `(chunk_id, entries)` payloads plus the generation
/// header. Legacy (non-incremental) checkpoints keep the historical
/// `partition_entries` layout byte-for-byte.
fn serialise_generation(
    cut: &InitCut,
    cfg: &CheckpointConfig,
    force_full: bool,
) -> (Vec<(u32, Vec<StateEntry>)>, Option<DeltaMeta>) {
    match &cut.dirty {
        Some(dirty) => {
            let space = cfg.delta_chunks;
            // A generation that rewrites every chunk is a base: it can
            // start a restore chain, so label it as one (this also covers
            // the first checkpoint, which starts all-dirty).
            let base = force_full || dirty.len() >= space;
            let mut wanted = vec![false; space];
            if base {
                wanted.iter_mut().for_each(|w| *w = true);
            } else {
                for &id in dirty {
                    wanted[id as usize] = true;
                }
            }
            let mut merged: Vec<Vec<StateEntry>> = (0..space).map(|_| Vec::new()).collect();
            for (snap, _) in &cut.snapshots {
                for (id, mut entries) in snap.to_entries_for(space, &wanted).into_iter().enumerate()
                {
                    merged[id].append(&mut entries);
                }
            }
            // Every wanted chunk is written even when empty: an empty
            // chunk overwrites a stale copy whose keys were all deleted.
            let payloads = (0..space as u32)
                .filter(|&id| wanted[id as usize])
                .map(|id| (id, std::mem::take(&mut merged[id as usize])))
                .collect();
            (
                payloads,
                Some(DeltaMeta {
                    base,
                    chunk_space: space,
                }),
            )
        }
        None => {
            let mut entries = Vec::new();
            for (snap, _) in &cut.snapshots {
                entries.extend(snap.to_entries());
            }
            let chunks = partition_entries(entries, cfg.chunks);
            (
                chunks
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| (i as u32, c))
                    .collect(),
                None,
            )
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn take_sync(
    cell: &StateCell,
    instance: InstanceId,
    seq: u64,
    capture_outputs: impl FnOnce() -> Vec<(EdgeId, Vec<BufferedItem>)>,
    stores: &[Arc<BackupStore>],
    fanout: usize,
    cfg: &CheckpointConfig,
    obs: Option<&CheckpointInstruments>,
) -> SdgResult<BackupSet> {
    // The entire export + serialise + write happens under the cell locks:
    // every processing thread blocks for the duration. Sync checkpoints
    // are always full (the Fig. 12 baseline), and live output-buffer
    // captures are sealed inside the stop-the-world span.
    cell.with_all(|inners| {
        let stripe_vectors: Vec<VectorTs> = inners.iter().map(|i| i.vector.clone()).collect();
        let vector = lane_max(&stripe_vectors);
        let mut out_buffers = capture_outputs();
        let sealed = seal_out_buffers(&mut out_buffers, cfg.serialise_threads);
        if let Some(obs) = obs {
            obs.encode_deferred.add(sealed);
        }
        let state_type = inners[0].store.state_type();
        let mut entries = Vec::new();
        for inner in inners.iter_mut() {
            entries.extend(inner.store.export_entries());
        }
        let chunks = partition_entries(entries, cfg.chunks);
        let payloads: Vec<(u32, Vec<StateEntry>)> = chunks
            .into_iter()
            .enumerate()
            .map(|(i, c)| (i as u32, c))
            .collect();
        let (chunk_locations, state_bytes) = write_chunks(
            &payloads,
            instance,
            seq,
            stores,
            fanout,
            cfg.serialise_threads,
        )?;
        Ok(BackupSet {
            instance,
            seq,
            state_type,
            vector,
            stripe_vectors,
            chunk_locations,
            out_buffers,
            state_bytes,
            delta: None,
        })
    })
}

/// Serialises and writes `(chunk_id, entries)` payloads in parallel
/// (Fig. 4 steps B1–B3). A chunk's store is `chunk_id % fanout`, which is
/// stable across generations so delta chains can be garbage-collected per
/// store without relocation.
fn write_chunks(
    payloads: &[(u32, Vec<StateEntry>)],
    instance: InstanceId,
    seq: u64,
    stores: &[Arc<BackupStore>],
    fanout: usize,
    threads: usize,
) -> SdgResult<(Vec<(usize, ChunkKey)>, usize)> {
    let next = AtomicUsize::new(0);
    let results: Vec<parking_lot::Mutex<Option<SdgResult<usize>>>> = (0..payloads.len())
        .map(|_| parking_lot::Mutex::new(None))
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..threads.max(1).min(payloads.len().max(1)) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= payloads.len() {
                    break;
                }
                let (chunk_id, entries) = &payloads[idx];
                let bytes = encode_entries(entries);
                let len = bytes.len();
                let key = ChunkKey {
                    instance,
                    seq,
                    chunk: *chunk_id,
                };
                let store = &stores[*chunk_id as usize % fanout];
                let r = store.write_chunk(key, bytes).map(|()| len);
                *results[idx].lock() = Some(r);
            });
        }
    });

    let mut locations = Vec::with_capacity(payloads.len());
    let mut total = 0usize;
    for (idx, slot) in results.into_iter().enumerate() {
        let r = slot
            .into_inner()
            .unwrap_or_else(|| Err(SdgError::Recovery("chunk write skipped".into())))?;
        total += r;
        let chunk_id = payloads[idx].0;
        locations.push((
            chunk_id as usize % fanout,
            ChunkKey {
                instance,
                seq,
                chunk: chunk_id,
            },
        ));
    }
    Ok((locations, total))
}

/// Seals every captured output-buffer item into its `Encoded` wire form,
/// splitting the edges across `threads` workers. Items logged by the eager
/// baseline are already encoded and pass through untouched, so a persisted
/// `BackupSet` holds identical bytes in both modes. Returns the number of
/// encodes performed (live items sealed).
fn seal_out_buffers(out_buffers: &mut [(EdgeId, Vec<BufferedItem>)], threads: usize) -> u64 {
    if out_buffers.is_empty() {
        return 0;
    }
    let sealed = AtomicU64::new(0);
    let per_worker = out_buffers
        .len()
        .div_ceil(threads.max(1).min(out_buffers.len()));
    std::thread::scope(|scope| {
        for part in out_buffers.chunks_mut(per_worker) {
            let sealed = &sealed;
            scope.spawn(move || {
                let mut n = 0u64;
                for (_, items) in part.iter_mut() {
                    for item in items.iter_mut() {
                        if item.seal() {
                            n += 1;
                        }
                    }
                }
                sealed.fetch_add(n, Ordering::Relaxed);
            });
        }
    });
    sealed.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::ids::TaskId;
    use sdg_common::value::{Key, Value};
    use sdg_state::partition::PartitionDim;
    use sdg_state::store::StateType;

    fn instance() -> InstanceId {
        InstanceId::new(TaskId(0), 0)
    }

    fn populated_cell(n: i64) -> StateCell {
        let cell = StateCell::new(StateType::Table);
        for i in 0..n {
            cell.apply(EdgeId(0), (i + 1) as u64, |s| {
                s.as_table().unwrap().put(Key::Int(i), Value::Int(i * 2));
            });
        }
        cell
    }

    fn stores(m: usize) -> Vec<Arc<BackupStore>> {
        (0..m).map(|_| Arc::new(BackupStore::in_memory())).collect()
    }

    #[test]
    fn checkpoint_records_chunks_and_vector() {
        let cell = populated_cell(100);
        let stores = stores(2);
        let cfg = CheckpointConfig::default();
        let set = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        assert_eq!(set.seq, 1);
        assert_eq!(set.chunk_locations.len(), cfg.chunks);
        assert_eq!(set.vector.get(EdgeId(0)), 100);
        assert!(set.state_bytes > 0);
        assert!(set.delta.is_none());
        assert!(set.is_base());
        assert_eq!(set.stripe_vectors.len(), 1);
        // Chunks alternate between the two stores.
        assert!(set.chunk_locations.iter().any(|(s, _)| *s == 0));
        assert!(set.chunk_locations.iter().any(|(s, _)| *s == 1));
        // The cell is consolidated and writable again.
        cell.with(|inner| assert!(!inner.store.is_checkpointing()));
        let set2 = take_checkpoint(&cell, instance(), 2, Vec::new, &stores, &cfg).unwrap();
        assert_eq!(set2.seq, 2);
    }

    #[test]
    fn sync_mode_produces_equivalent_backup() {
        let cell = populated_cell(50);
        let stores = stores(2);
        let mut cfg = CheckpointConfig::default();
        let async_set = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        cfg.synchronous = true;
        let sync_set = take_checkpoint(&cell, instance(), 2, Vec::new, &stores, &cfg).unwrap();
        assert_eq!(async_set.state_bytes, sync_set.state_bytes);
        assert_eq!(async_set.vector, sync_set.vector);
    }

    #[test]
    fn output_buffers_are_captured() {
        let cell = populated_cell(1);
        let stores = stores(1);
        let cfg = CheckpointConfig::default();
        let outs = vec![(EdgeId(7), vec![BufferedItem::encoded(3, vec![1, 2])])];
        let set = take_checkpoint(&cell, instance(), 1, move || outs, &stores, &cfg).unwrap();
        assert_eq!(set.out_buffers.len(), 1);
        assert_eq!(set.out_buffers[0].0, EdgeId(7));
        assert_eq!(set.out_buffers[0].1[0].ts, 3);
    }

    fn live_capture() -> (Vec<(EdgeId, Vec<BufferedItem>)>, Vec<u8>) {
        let payload = std::sync::Arc::new(sdg_common::record! {
            "k" => Value::Int(7),
            "v" => Value::Str("deferred".into()),
        });
        let live = BufferedItem::live(3, 99, 2, payload);
        let wire = live.to_bytes();
        (vec![(EdgeId(7), vec![live])], wire)
    }

    #[test]
    fn live_captures_are_sealed_at_persist_time() {
        let cell = populated_cell(10);
        let stores = stores(2);
        let cfg = CheckpointConfig::default();
        let obs = CheckpointInstruments::default();
        let (outs, wire) = live_capture();
        let set = take_checkpoint_observed(
            &cell,
            instance(),
            1,
            move || outs,
            &stores,
            &cfg,
            Some(&obs),
        )
        .unwrap();
        assert_eq!(
            set.out_buffers[0].1[0],
            BufferedItem::encoded(3, wire),
            "persisted out_buffers must hold the eager wire bytes"
        );
        assert_eq!(obs.encode_deferred.get(), 1);
    }

    #[test]
    fn sync_mode_seals_live_captures_too() {
        let cell = populated_cell(10);
        let stores = stores(2);
        let cfg = CheckpointConfig {
            synchronous: true,
            ..Default::default()
        };
        let obs = CheckpointInstruments::default();
        let (outs, wire) = live_capture();
        let set = take_checkpoint_observed(
            &cell,
            instance(),
            1,
            move || outs,
            &stores,
            &cfg,
            Some(&obs),
        )
        .unwrap();
        assert_eq!(set.out_buffers[0].1[0], BufferedItem::encoded(3, wire));
        assert_eq!(obs.encode_deferred.get(), 1);
    }

    #[test]
    fn empty_store_checkpoints_cleanly() {
        let cell = StateCell::new(StateType::Matrix);
        let stores = stores(1);
        let set = take_checkpoint(
            &cell,
            instance(),
            1,
            Vec::new,
            &stores,
            &CheckpointConfig::default(),
        )
        .unwrap();
        assert_eq!(
            set.state_bytes as u64,
            set.chunk_locations
                .iter()
                .map(|(s, k)| stores[*s].read_chunk(*k).unwrap().len() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn observed_checkpoint_records_phase_timings() {
        let cell = populated_cell(200);
        let stores = stores(2);
        let obs = CheckpointInstruments::default();

        // Async mode fills the three async-phase histograms.
        take_checkpoint_observed(
            &cell,
            instance(),
            1,
            Vec::new,
            &stores,
            &CheckpointConfig::default(),
            Some(&obs),
        )
        .unwrap();
        assert_eq!(obs.taken.get(), 1);
        assert!(obs.bytes.get() > 0);
        assert_eq!(obs.snapshot_ns.count(), 1);
        assert_eq!(obs.persist_ns.count(), 1);
        assert_eq!(obs.consolidate_ns.count(), 1);
        assert_eq!(obs.sync_ns.count(), 0);

        // Synchronous mode records the stop-the-world span instead.
        let sync_cfg = CheckpointConfig {
            synchronous: true,
            ..Default::default()
        };
        take_checkpoint_observed(
            &cell,
            instance(),
            2,
            Vec::new,
            &stores,
            &sync_cfg,
            Some(&obs),
        )
        .unwrap();
        assert_eq!(obs.taken.get(), 2);
        assert_eq!(obs.sync_ns.count(), 1);
        assert_eq!(obs.snapshot_ns.count(), 1);

        // Failures are counted, not recorded as taken.
        let r = take_checkpoint_observed(
            &cell,
            instance(),
            3,
            Vec::new,
            &[],
            &CheckpointConfig::default(),
            Some(&obs),
        );
        assert!(r.is_err());
        assert_eq!(obs.failed.get(), 1);
        assert_eq!(obs.taken.get(), 2);
    }

    #[test]
    fn no_stores_is_an_error() {
        let cell = populated_cell(1);
        let r = take_checkpoint(
            &cell,
            instance(),
            1,
            Vec::new,
            &[],
            &CheckpointConfig::default(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn fanout_larger_than_stores_is_clamped() {
        let cell = populated_cell(20);
        let stores = stores(1);
        let cfg = CheckpointConfig {
            backup_fanout: 4,
            chunks: 4,
            ..Default::default()
        };
        let set = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        assert!(set.chunk_locations.iter().all(|(s, _)| *s == 0));
    }

    fn striped_cell(keys: i64, stripes: usize, delta_chunks: usize) -> StateCell {
        let cell = StateCell::new_striped(
            StateType::Table,
            stripes,
            PartitionDim::Row,
            Some(delta_chunks),
        );
        for i in 0..keys {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), (i + 1) as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i * 2));
            });
        }
        cell
    }

    #[test]
    fn first_incremental_checkpoint_is_a_base() {
        let cell = striped_cell(200, 4, 16);
        let stores = stores(2);
        let cfg = CheckpointConfig {
            incremental: true,
            delta_chunks: 16,
            ..Default::default()
        };
        let set = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        let meta = set.delta.as_ref().unwrap();
        assert!(meta.base);
        assert!(set.is_base());
        assert_eq!(meta.chunk_space, 16);
        assert_eq!(set.chunk_locations.len(), 16);
        assert_eq!(set.stripe_vectors.len(), 4);
        // The cell-level vector is the per-lane max across stripes: the
        // newest item (200), matching the cell's own view.
        assert_eq!(set.vector, cell.vector());
        assert_eq!(set.vector.get(EdgeId(0)), 200);
    }

    #[test]
    fn second_checkpoint_is_a_small_delta() {
        let cell = striped_cell(500, 4, 64);
        let stores = stores(2);
        let cfg = CheckpointConfig {
            incremental: true,
            delta_chunks: 64,
            ..Default::default()
        };
        let base = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        assert!(base.delta.as_ref().unwrap().base);

        // Touch a handful of keys; the delta must cover only their chunks.
        let touched: Vec<i64> = vec![3, 7];
        for &i in &touched {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), 500 + i as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(-i));
            });
        }
        let delta = take_checkpoint(&cell, instance(), 2, Vec::new, &stores, &cfg).unwrap();
        let meta = delta.delta.as_ref().unwrap();
        assert!(!meta.base);
        let mut expected: Vec<u32> = touched
            .iter()
            .map(|&i| (Key::Int(i).stable_hash() % 64) as u32)
            .collect();
        expected.sort_unstable();
        expected.dedup();
        let mut written: Vec<u32> = delta.chunk_locations.iter().map(|(_, k)| k.chunk).collect();
        written.sort_unstable();
        assert_eq!(written, expected);
        assert!(delta.state_bytes < base.state_bytes / 4);
    }

    #[test]
    fn force_full_produces_a_base_generation() {
        let cell = striped_cell(100, 2, 8);
        let stores = stores(2);
        let cfg = CheckpointConfig {
            incremental: true,
            delta_chunks: 8,
            ..Default::default()
        };
        take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        let set = take_checkpoint_with(
            &cell,
            instance(),
            2,
            Vec::new,
            &stores,
            &cfg,
            None,
            CheckpointOptions { force_full: true },
        )
        .unwrap();
        assert!(set.delta.as_ref().unwrap().base);
        assert_eq!(set.chunk_locations.len(), 8);
    }

    #[test]
    fn clean_checkpoint_writes_no_chunks() {
        let cell = striped_cell(100, 2, 8);
        let stores = stores(1);
        let cfg = CheckpointConfig {
            incremental: true,
            delta_chunks: 8,
            ..Default::default()
        };
        take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        // Nothing changed: the delta generation is empty.
        let set = take_checkpoint(&cell, instance(), 2, Vec::new, &stores, &cfg).unwrap();
        assert!(!set.delta.as_ref().unwrap().base);
        assert!(set.chunk_locations.is_empty());
        assert_eq!(set.state_bytes, 0);
    }

    #[test]
    fn untracked_structures_fall_back_to_full() {
        // Matrices don't support dirty tracking: incremental mode must
        // silently produce legacy full checkpoints.
        let cell = StateCell::new(StateType::Matrix);
        cell.apply(EdgeId(0), 1, |s| s.as_matrix().unwrap().set(1, 2, 3.0));
        let stores = stores(1);
        let cfg = CheckpointConfig {
            incremental: true,
            ..Default::default()
        };
        let set = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        assert!(set.delta.is_none());
        assert_eq!(set.chunk_locations.len(), cfg.chunks);
    }
}
