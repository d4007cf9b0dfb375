//! Cached positional rotations of stored keys.
//!
//! The KV cache stores *unrotated* keys (see [`crate::cache`]); attention
//! applies RoPE at read time. Naively that means re-rotating every live key of
//! every head on every decode step — `O(live × heads)` trig per token for
//! values that only change when a key's row or effective position changes.
//!
//! [`RotatedKeyCache`] memoizes those rotations per block. Each entry is keyed
//! on the block's `(id, generation)` pair from
//! [`crate::cache::LayerKvCache::block_meta`]:
//!
//! - **Plain appends** keep a block's generation, so [`RotatedKeyCache::sync`]
//!   only rotates the newly appended rows (a top-up).
//! - **Compaction rewrites, CoW forks and quantize-on-seal** refresh the
//!   generation, so the affected block is rebuilt from scratch while the
//!   untouched identity prefix keeps its cached rotations.
//! - **Block-id reuse** by the pool cannot alias: generations are globally
//!   unique, so a recycled id never matches a stale entry.
//!
//! For a compaction that rebuild is only the *fallback*. When the rotation
//! depends on a key's row and original position alone — never on its slot — a
//! compaction changes no rotated row, it only moves it:
//! [`RotatedKeyCache::retain_slots`] runs the compaction and moves the cached
//! rotated rows `dst ← src` with their keys, so the next
//! [`RotatedKeyCache::sync`] finds nothing to do. Slot-keyed rotations
//! (RoPE at remapped positions) compact through
//! [`LayerKvCache::retain_slots`] and `u8` layers reseal (which changes the
//! dequantised keys); both rebuild by generation as before.
//!
//! The caller supplies the rotation itself as a closure (the model layer owns
//! RoPE and the position-mode ablations); this crate only owns the
//! invalidation discipline.

use crate::block::BlockId;
use crate::cache::{KvDtype, LayerKvCache};
use crate::CoreError;

/// Memoized rotation state of one cache block: every row of every head,
/// rotated, in one flat head-major buffer.
#[derive(Debug, Clone)]
struct RotBlock {
    id: BlockId,
    generation: u64,
    /// Rows of the block already rotated (a prefix of the block's rows).
    rows: usize,
    /// `[head][row][dim]`: `num_heads * block_size * head_dim` values,
    /// allocated once when the block first appears.
    data: Vec<f32>,
}

/// Per-layer cache of rotated key rows, invalidated by block generation and
/// carried through compactions by [`RotatedKeyCache::retain_slots`].
///
/// One instance serves one `(layer, query-invariant rotation)` pair: the
/// rotation closure passed to [`RotatedKeyCache::sync`] must depend only on
/// the slot (not on the decode step), which holds for RoPE at the key's
/// effective position in both of the paper's position modes.
#[derive(Debug, Clone)]
pub struct RotatedKeyCache {
    num_heads: usize,
    head_dim: usize,
    block_size: usize,
    blocks: Vec<RotBlock>,
}

impl RotatedKeyCache {
    /// Creates an empty cache for a layer of `num_heads` heads of width
    /// `head_dim` over blocks of `block_size` slots.
    pub fn new(num_heads: usize, head_dim: usize, block_size: usize) -> Self {
        RotatedKeyCache {
            num_heads,
            head_dim,
            block_size,
            blocks: Vec::new(),
        }
    }

    /// Brings the cached rotations up to date with `cache`.
    ///
    /// `rotate(row, slot)` must rotate the unrotated key row (already copied
    /// into `row`) of logical slot `slot` in place. After `sync` returns,
    /// [`RotatedKeyCache::row`] serves every live slot of every head.
    ///
    /// Cost: proportional to the rows whose `(id, generation)` changed plus
    /// freshly appended rows — zero steady-state work (and zero allocations
    /// away from block boundaries) during decode without eviction. This is
    /// also the batch-rotate primitive of chunk-batched prefill: after a bulk
    /// append of a whole chunk's key rows
    /// ([`LayerKvCache::append_batch_from_slices`]), one `sync` call tops up
    /// every appended row (and rebuilds any block a quantize-on-seal
    /// generation bump invalidated) in a single pass.
    ///
    /// # Panics
    ///
    /// Panics if `cache`'s head count, head width or block size differ from
    /// this cache's.
    pub fn sync(&mut self, cache: &LayerKvCache, mut rotate: impl FnMut(&mut [f32], usize)) {
        assert_eq!(cache.num_heads(), self.num_heads, "head count mismatch");
        assert_eq!(cache.head_dim(), self.head_dim, "head width mismatch");
        assert_eq!(cache.block_size(), self.block_size, "block size mismatch");
        let num_blocks = cache.num_blocks();
        self.blocks.truncate(num_blocks);
        for idx in 0..num_blocks {
            let meta = cache.block_meta(idx);
            if self.blocks.len() == idx {
                self.blocks.push(RotBlock {
                    id: meta.id,
                    generation: meta.generation,
                    rows: 0,
                    data: vec![0.0; self.num_heads * self.block_size * self.head_dim],
                });
            }
            let entry = &mut self.blocks[idx];
            if entry.id != meta.id || entry.generation != meta.generation {
                entry.id = meta.id;
                entry.generation = meta.generation;
                entry.rows = 0;
            }
            debug_assert!(
                entry.rows <= meta.rows,
                "a block never loses rows without a generation change"
            );
            if entry.rows >= meta.rows {
                continue;
            }
            // Slot-major, so a rotation that hoists per-position work (one
            // `(sin, cos)` set per slot) reuses it across the slot's heads.
            for row in entry.rows..meta.rows {
                let slot = idx * self.block_size + row;
                for head in 0..self.num_heads {
                    let start = (head * self.block_size + row) * self.head_dim;
                    let dst = &mut entry.data[start..start + self.head_dim];
                    cache.keys(head).copy_row_into(slot, dst);
                    rotate(dst, slot);
                }
            }
            entry.rows = meta.rows;
        }
    }

    /// `true` when every block of `cache` is cached here at its current
    /// `(id, generation)` with all of its rows rotated — i.e. a
    /// [`RotatedKeyCache::sync`] against `cache` would do nothing.
    fn is_synced(&self, cache: &LayerKvCache) -> bool {
        self.blocks.len() == cache.num_blocks()
            && self.blocks.iter().enumerate().all(|(idx, entry)| {
                let meta = cache.block_meta(idx);
                (entry.id, entry.generation, entry.rows) == (meta.id, meta.generation, meta.rows)
            })
    }

    /// Compacts `cache` to `retained` ([`LayerKvCache::retain_slots`]) and
    /// lets the cached rotated rows follow their keys: each kept row moves
    /// `dst ← src` in the same single forward pass the compaction uses, and
    /// every kept block — including blocks the compaction CoW-forked —
    /// adopts its new `(id, generation, rows)`, so the next
    /// [`RotatedKeyCache::sync`] rotates nothing. No trig, no allocation.
    ///
    /// Only valid for rotations that depend on a key's row and original
    /// position, never on its slot (RoPE under `PositionMode::Original`):
    /// those are exactly the rotations a compaction leaves unchanged.
    /// Slot-keyed rotations must compact through
    /// [`LayerKvCache::retain_slots`] and let `sync` rebuild by generation.
    ///
    /// The rows only move when they are known to be current: the layer is
    /// `f32` (a `u8` compaction reseals, which changes the dequantised keys)
    /// and this cache was in sync with `cache` on entry. Otherwise — a `u8`
    /// layer, a cache never synced (a fresh prefix attach, or the model
    /// crate's test-only reference forward) — the entries are left to the
    /// generation-keyed rebuild.
    ///
    /// # Errors
    ///
    /// Whatever [`LayerKvCache::retain_slots`] returns; the cached rotations
    /// are then untouched and rebuild by generation.
    pub fn retain_slots(
        &mut self,
        cache: &mut LayerKvCache,
        retained: &[usize],
    ) -> Result<(), CoreError> {
        let follow = cache.dtype() == KvDtype::F32 && self.is_synced(cache);
        cache.retain_slots(retained)?;
        if !follow {
            return Ok(());
        }
        let (bs, hd) = (self.block_size, self.head_dim);
        for (dst, &src) in retained.iter().enumerate() {
            if dst == src {
                continue;
            }
            let (sb, sr) = (src / bs, src % bs);
            let (db, dr) = (dst / bs, dst % bs);
            let (front, back) = self.blocks.split_at_mut(sb);
            for h in 0..self.num_heads {
                let from = (h * bs + sr) * hd;
                let to = (h * bs + dr) * hd;
                if sb == db {
                    back[0].data.copy_within(from..from + hd, to);
                } else {
                    front[db].data[to..to + hd].copy_from_slice(&back[0].data[from..from + hd]);
                }
            }
        }
        self.blocks.truncate(cache.num_blocks());
        for (idx, entry) in self.blocks.iter_mut().enumerate() {
            let meta = cache.block_meta(idx);
            entry.id = meta.id;
            entry.generation = meta.generation;
            entry.rows = meta.rows;
        }
        Ok(())
    }

    /// The cached rotated key of `head` at logical slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot or head was not covered by the last
    /// [`RotatedKeyCache::sync`].
    #[inline]
    pub fn row(&self, head: usize, slot: usize) -> &[f32] {
        let block = &self.blocks[slot / self.block_size];
        let row = slot % self.block_size;
        assert!(row < block.rows, "slot not covered by the last sync");
        let start = (head * self.block_size + row) * self.head_dim;
        &block.data[start..start + self.head_dim]
    }

    /// Slots covered by the last [`RotatedKeyCache::sync`].
    pub fn covered_slots(&self) -> usize {
        match self.blocks.last() {
            None => 0,
            Some(last) => (self.blocks.len() - 1) * self.block_size + last.rows,
        }
    }

    /// Drops every cached rotation (e.g. when the owning session rebinds to a
    /// different sequence).
    pub fn clear(&mut self) {
        self.blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::SharedBlockPool;
    use crate::cache::KvDtype;

    /// A deterministic stand-in for RoPE: scales the row by a slot-dependent
    /// factor, so stale cache entries are easy to detect.
    fn fake_rotate(row: &mut [f32], slot: usize) {
        for x in row.iter_mut() {
            *x = *x * 2.0 + slot as f32;
        }
    }

    fn expected_row(layer: &LayerKvCache, head: usize, slot: usize) -> Vec<f32> {
        let mut row = layer.keys(head).row(slot).into_owned();
        fake_rotate(&mut row, slot);
        row
    }

    fn assert_in_sync(rot: &RotatedKeyCache, layer: &LayerKvCache) {
        assert_eq!(rot.covered_slots(), layer.len());
        for head in 0..layer.num_heads() {
            for slot in 0..layer.len() {
                assert_eq!(
                    rot.row(head, slot),
                    expected_row(layer, head, slot).as_slice(),
                    "head {head} slot {slot}"
                );
            }
        }
    }

    fn append_tokens(layer: &mut LayerKvCache, n: usize) {
        let start = layer.len();
        for i in start..start + n {
            let k: Vec<Vec<f32>> = (0..2).map(|h| vec![i as f32 + h as f32 * 0.5; 3]).collect();
            let v = k.clone();
            layer.append(i, &k, &v).unwrap();
        }
    }

    fn rot_for(layer: &LayerKvCache) -> RotatedKeyCache {
        RotatedKeyCache::new(layer.num_heads(), layer.head_dim(), layer.block_size())
    }

    #[test]
    fn sync_covers_appends_incrementally() {
        let pool = SharedBlockPool::unbounded(4);
        let mut layer = LayerKvCache::with_pool(2, 3, pool);
        let mut rot = rot_for(&layer);
        rot.sync(&layer, fake_rotate);
        assert_eq!(rot.covered_slots(), 0);
        append_tokens(&mut layer, 6);
        rot.sync(&layer, fake_rotate);
        assert_in_sync(&rot, &layer);
        // A second sync with a counting rotate proves appends only top up.
        append_tokens(&mut layer, 1);
        let mut rotations = 0;
        rot.sync(&layer, |row, slot| {
            rotations += 1;
            fake_rotate(row, slot);
        });
        assert_eq!(rotations, 2, "one new row x two heads");
        assert_in_sync(&rot, &layer);
    }

    #[test]
    fn compaction_rebuilds_written_blocks_and_keeps_the_identity_prefix() {
        let pool = SharedBlockPool::unbounded(4);
        let mut layer = LayerKvCache::with_pool(2, 3, pool);
        append_tokens(&mut layer, 11);
        let mut rot = rot_for(&layer);
        rot.sync(&layer, fake_rotate);
        // Keep block 0 byte-identical, compact the rest.
        layer.retain_slots(&[0, 1, 2, 3, 5, 8, 10]).unwrap();
        let mut rotations = 0;
        rot.sync(&layer, |row, slot| {
            rotations += 1;
            fake_rotate(row, slot);
        });
        // Only the rewritten second block (3 rows x 2 heads) re-rotates.
        assert_eq!(rotations, 6, "identity prefix must stay cached");
        assert_in_sync(&rot, &layer);
    }

    /// A position-keyed stand-in for RoPE under original positions: depends on
    /// the key row and its original position, never on its slot.
    fn rotate_at_position(row: &mut [f32], position: usize) {
        for x in row.iter_mut() {
            *x = *x * 2.0 + position as f32 * 0.25;
        }
    }

    /// Asserts that `rot` covers `layer` and every cached row is bit-equal to
    /// a from-scratch [`rotate_at_position`] of the stored key at
    /// `key_of(slot)`.
    fn assert_rows_current(
        rot: &RotatedKeyCache,
        layer: &LayerKvCache,
        key_of: impl Fn(usize) -> usize,
        context: &str,
    ) {
        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(rot.covered_slots(), layer.len(), "{context}");
        for head in 0..layer.num_heads() {
            for slot in 0..layer.len() {
                let mut want = layer.keys(head).row(slot).into_owned();
                rotate_at_position(&mut want, key_of(slot));
                assert_eq!(
                    bits(rot.row(head, slot)),
                    bits(&want),
                    "{context} head {head} slot {slot}"
                );
            }
        }
    }

    #[test]
    fn eviction_moves_position_keyed_rows_without_rotating() {
        let pool = SharedBlockPool::unbounded(4);
        let mut layer = LayerKvCache::with_pool(2, 3, pool);
        append_tokens(&mut layer, 11);
        let mut rot = rot_for(&layer);
        let positions = layer.positions().to_vec();
        rot.sync(&layer, |row, slot| rotate_at_position(row, positions[slot]));
        // Evict one mid-cache slot: every later row shifts down one slot,
        // across two block boundaries, and the rotated rows shift with them.
        rot.retain_slots(&mut layer, &[0, 1, 3, 4, 5, 6, 7, 8, 9, 10])
            .unwrap();
        let positions = layer.positions().to_vec();
        let mut rotations = 0;
        rot.sync(&layer, |row, slot| {
            rotations += 1;
            rotate_at_position(row, positions[slot]);
        });
        assert_eq!(rotations, 0, "moved rows must not re-rotate");
        assert_rows_current(&rot, &layer, |slot| positions[slot], "after eviction");
    }

    /// Seeded interleavings of append / single-slot eviction / bulk eviction /
    /// fork + CoW append (and, on `u8` layers, the seals appends trigger),
    /// with syncs skipped at random so hand-offs also meet a stale cache:
    /// after every sync each cached row is bit-equal to a from-scratch
    /// rotation of the stored key, in both dtypes and both rotation keyings —
    /// and an `f32` position-keyed eviction from a synced cache never rotates.
    #[test]
    fn rotated_rows_track_their_keys_through_any_interleaving() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for dtype in [KvDtype::F32, KvDtype::U8] {
            for position_keyed in [true, false] {
                for seed in 0..24u64 {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let pool = SharedBlockPool::unbounded(4);
                    let mut layer = LayerKvCache::with_pool_dtype(2, 3, pool, dtype);
                    let mut rot = rot_for(&layer);
                    // Donors of forks stay alive so their blocks stay shared.
                    let mut donors: Vec<LayerKvCache> = Vec::new();
                    let mut next_position = 0;
                    let mut synced = true;
                    for _ in 0..40 {
                        let op = rng.gen_range(0..4);
                        let mut evicted = false;
                        if op == 0 || layer.is_empty() {
                            for _ in 0..rng.gen_range(1..6) {
                                let k: Vec<Vec<f32>> = (0..2)
                                    .map(|_| (0..3).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
                                    .collect();
                                // Positions advance in strides so they never
                                // coincide with slot indices.
                                layer.append(next_position, &k, &k).unwrap();
                                next_position += 3;
                            }
                        } else if op == 3 {
                            let fork = layer.fork().unwrap();
                            donors.push(std::mem::replace(&mut layer, fork));
                            if donors.len() > 2 {
                                donors.remove(0);
                            }
                        } else {
                            let live = layer.len();
                            let kept: Vec<usize> = if op == 1 {
                                let victim = rng.gen_range(0..live);
                                (0..live).filter(|&s| s != victim).collect()
                            } else {
                                (0..live).filter(|_| rng.gen_bool(0.6)).collect()
                            };
                            if position_keyed {
                                rot.retain_slots(&mut layer, &kept).unwrap();
                            } else {
                                layer.retain_slots(&kept).unwrap();
                            }
                            evicted = true;
                        }
                        if !evicted && rng.gen_bool(0.25) {
                            synced = false;
                            continue;
                        }
                        let positions = layer.positions().to_vec();
                        let key_of = |slot: usize| {
                            if position_keyed {
                                positions[slot]
                            } else {
                                slot
                            }
                        };
                        let mut rotations = 0;
                        rot.sync(&layer, |row, slot| {
                            rotations += 1;
                            rotate_at_position(row, key_of(slot));
                        });
                        if evicted && synced && position_keyed && dtype == KvDtype::F32 {
                            assert_eq!(rotations, 0, "seed {seed}: eviction re-rotated");
                        }
                        synced = true;
                        assert_rows_current(
                            &rot,
                            &layer,
                            key_of,
                            &format!("{dtype:?} position_keyed={position_keyed} seed {seed}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cow_fork_rebuilds_only_the_forked_block() {
        let pool = SharedBlockPool::unbounded(4);
        let mut layer = LayerKvCache::with_pool(2, 3, pool);
        append_tokens(&mut layer, 6);
        let mut fork = layer.fork().unwrap();
        let mut rot = rot_for(&fork);
        rot.sync(&fork, fake_rotate);
        // Appending into the shared tail CoW-forks it: the rotated copy of
        // that block is stale even though its row contents match, because the
        // physical block changed identity.
        append_tokens(&mut fork, 1);
        let mut rotations = 0;
        rot.sync(&fork, |row, slot| {
            rotations += 1;
            fake_rotate(row, slot);
        });
        assert_eq!(rotations, 6, "forked tail (3 rows) x 2 heads rebuilds");
        assert_in_sync(&rot, &fork);
        // The donor's own rotated cache stays fully valid.
        let mut donor_rot = rot_for(&layer);
        donor_rot.sync(&layer, fake_rotate);
        let mut donor_rotations = 0;
        donor_rot.sync(&layer, |row, slot| {
            donor_rotations += 1;
            fake_rotate(row, slot);
        });
        assert_eq!(donor_rotations, 0);
    }

    #[test]
    fn requantize_on_seal_invalidates_the_sealed_block() {
        let pool = SharedBlockPool::unbounded(4);
        let mut layer = LayerKvCache::with_pool_dtype(2, 3, pool, KvDtype::U8);
        append_tokens(&mut layer, 3);
        let mut rot = rot_for(&layer);
        rot.sync(&layer, fake_rotate);
        assert_in_sync(&rot, &layer);
        // The fourth append fills and seals the block: every row's dequantized
        // value changes, so the whole block must re-rotate.
        append_tokens(&mut layer, 1);
        let mut rotations = 0;
        rot.sync(&layer, |row, slot| {
            rotations += 1;
            fake_rotate(row, slot);
        });
        assert_eq!(rotations, 8, "all 4 rows x 2 heads rebuild after seal");
        assert_in_sync(&rot, &layer);
    }

    #[test]
    fn clear_and_shrinking_tables_drop_stale_blocks() {
        let pool = SharedBlockPool::unbounded(2);
        let mut layer = LayerKvCache::with_pool(2, 3, pool);
        append_tokens(&mut layer, 6);
        let mut rot = rot_for(&layer);
        rot.sync(&layer, fake_rotate);
        assert_eq!(rot.covered_slots(), 6);
        layer.retain_slots(&[0, 1]).unwrap();
        rot.sync(&layer, fake_rotate);
        assert_in_sync(&rot, &layer);
        rot.clear();
        assert_eq!(rot.covered_slots(), 0);
    }
}
