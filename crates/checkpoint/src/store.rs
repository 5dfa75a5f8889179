//! Checkpoint stores.
//!
//! Diskless checkpointing keeps checkpoints *in memory*. Two views matter:
//!
//! * [`MaterializedStore`] — per VM, the fully materialized image of the
//!   latest applied checkpoint (increments are folded in as they arrive).
//!   This is what parity is XORed over and what recovery reads.
//! * [`DoubleBufferedStore`] — per VM, the *previous* and *current* epoch
//!   images. The paper (Section II-B2): "We still need the current and
//!   previous checkpoint during checkpointing" — if a failure strikes
//!   mid-round, the previous epoch must still be recoverable.

use std::collections::BTreeMap;
use std::fmt;

use crate::integrity;
use crate::payload::Checkpoint;
use dvdc_vcluster::ids::VmId;

/// Errors from applying checkpoints to a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An incremental checkpoint arrived for a VM with no base image.
    MissingBase {
        /// The VM concerned.
        vm: VmId,
    },
    /// An incremental checkpoint's base epoch does not match the stored
    /// image's epoch (a gap or reordering).
    BaseEpochMismatch {
        /// The VM concerned.
        vm: VmId,
        /// Epoch the increment applies on top of.
        expected: u64,
        /// Epoch of the image actually stored.
        stored: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::MissingBase { vm } => {
                write!(f, "no base image stored for {vm}")
            }
            StoreError::BaseEpochMismatch {
                vm,
                expected,
                stored,
            } => write!(
                f,
                "{vm}: increment applies to epoch {expected} but store holds epoch {stored}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// One materialized entry: the image as of `epoch`, plus the checksum
/// recorded when the image was written — the integrity witness recovery
/// and scrub verify before trusting the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    epoch: u64,
    image: Vec<u8>,
    checksum: u64,
}

impl Entry {
    fn new(epoch: u64, image: Vec<u8>) -> Self {
        let checksum = integrity::checksum(&image);
        Entry {
            epoch,
            image,
            checksum,
        }
    }
}

/// Per-VM materialized images of the latest applied checkpoint.
#[derive(Debug, Clone, Default)]
pub struct MaterializedStore {
    entries: BTreeMap<VmId, Entry>,
}

impl MaterializedStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a checkpoint: full images replace, increments fold into the
    /// stored base.
    pub fn apply(&mut self, ckpt: &Checkpoint) -> Result<(), StoreError> {
        use crate::payload::CheckpointPayload as P;
        match &ckpt.payload {
            P::Full { image, .. } => {
                self.entries
                    .insert(ckpt.vm, Entry::new(ckpt.epoch, image.to_vec()));
                Ok(())
            }
            P::Incremental { base_epoch, .. } => {
                let entry = self
                    .entries
                    .get_mut(&ckpt.vm)
                    .ok_or(StoreError::MissingBase { vm: ckpt.vm })?;
                if entry.epoch != *base_epoch {
                    return Err(StoreError::BaseEpochMismatch {
                        vm: ckpt.vm,
                        expected: *base_epoch,
                        stored: entry.epoch,
                    });
                }
                entry.image = ckpt.payload.apply_to(&entry.image);
                entry.epoch = ckpt.epoch;
                entry.checksum = integrity::checksum(&entry.image);
                Ok(())
            }
        }
    }

    /// The materialized image for `vm`, if any.
    pub fn image(&self, vm: VmId) -> Option<&[u8]> {
        self.entries.get(&vm).map(|e| e.image.as_slice())
    }

    /// The epoch of the stored image for `vm`.
    pub fn epoch(&self, vm: VmId) -> Option<u64> {
        self.entries.get(&vm).map(|e| e.epoch)
    }

    /// Inserts a materialized image directly (recovery writes
    /// reconstructed images back this way).
    pub fn insert_image(&mut self, vm: VmId, epoch: u64, image: Vec<u8>) {
        self.entries.insert(vm, Entry::new(epoch, image));
    }

    /// Verifies the stored image for `vm` against the checksum recorded
    /// when it was written: `Some(true)` = intact, `Some(false)` =
    /// corrupted in place, `None` = no image stored.
    pub fn verify(&self, vm: VmId) -> Option<bool> {
        self.entries
            .get(&vm)
            .map(|e| integrity::verify(&e.image, e.checksum))
    }

    /// Silently flips one byte of the stored image *without* refreshing
    /// the checksum — the corruption fault's write path. Returns false if
    /// no image is stored or the offset is out of range.
    fn corrupt_byte(&mut self, vm: VmId, offset: usize) -> bool {
        match self.entries.get_mut(&vm) {
            Some(e) if !e.image.is_empty() => {
                let off = offset % e.image.len();
                e.image[off] ^= 0xA5;
                true
            }
            _ => false,
        }
    }

    /// VMs with stored images, in order.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        self.entries.keys().copied()
    }

    /// Drops the entry for `vm` (e.g. its holder node died).
    pub fn remove(&mut self, vm: VmId) {
        self.entries.remove(&vm);
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of VMs with stored images.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes held — the memory cost of diskless checkpointing.
    pub fn total_bytes(&self) -> usize {
        self.entries.values().map(|e| e.image.len()).sum()
    }
}

/// Keeps the previous and current epoch images per VM, promoting on each
/// successful round.
#[derive(Debug, Clone, Default)]
pub struct DoubleBufferedStore {
    current: MaterializedStore,
    previous: MaterializedStore,
}

impl DoubleBufferedStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a checkpoint to the *current* buffer.
    pub fn apply(&mut self, ckpt: &Checkpoint) -> Result<(), StoreError> {
        self.current.apply(ckpt)
    }

    /// Commits the round: current becomes previous. Call once the whole
    /// coordinated checkpoint (including parity) has completed — only then
    /// is the new epoch usable ("latency is the amount of time it takes
    /// before the checkpoint is usable").
    pub fn commit_round(&mut self) {
        self.previous = self.current.clone();
    }

    /// Aborts the round: the current buffer rolls back to the committed
    /// one, discarding every capture applied since the last
    /// [`DoubleBufferedStore::commit_round`]. The local-store half of the
    /// two-phase commit — without it, a later wholesale commit would
    /// promote captures of an abandoned round into the rollback target.
    pub fn discard_round(&mut self) {
        self.current = self.previous.clone();
    }

    /// The committed (previous-round) image for `vm` — the rollback
    /// target if the current round is interrupted.
    pub fn committed_image(&self, vm: VmId) -> Option<&[u8]> {
        self.previous.image(vm)
    }

    /// The in-progress (current-round) image for `vm`.
    pub fn current_image(&self, vm: VmId) -> Option<&[u8]> {
        self.current.image(vm)
    }

    /// Read access to the current buffer.
    pub fn current(&self) -> &MaterializedStore {
        &self.current
    }

    /// Mutable access to the current buffer (recovery writes).
    pub fn current_mut(&mut self) -> &mut MaterializedStore {
        &mut self.current
    }

    /// Read access to the committed buffer.
    pub fn committed(&self) -> &MaterializedStore {
        &self.previous
    }

    /// Mutable access to the committed buffer (used when checkpoint
    /// custody moves between nodes, e.g. live migration).
    pub fn committed_mut(&mut self) -> &mut MaterializedStore {
        &mut self.previous
    }

    /// Verifies the committed image for `vm` against its recorded
    /// checksum: `Some(false)` means the bytes rotted in place.
    pub fn verify_committed(&self, vm: VmId) -> Option<bool> {
        self.previous.verify(vm)
    }

    /// Verifies the current (in-progress) image for `vm`.
    pub fn verify_current(&self, vm: VmId) -> Option<bool> {
        self.current.verify(vm)
    }

    /// Silently flips one byte of the *committed* image for `vm` without
    /// refreshing its checksum — the corruption fault's write path.
    pub fn corrupt_committed_byte(&mut self, vm: VmId, offset: usize) -> bool {
        self.previous.corrupt_byte(vm, offset)
    }

    /// Total bytes across both buffers — the "2×" memory cost of keeping
    /// current + previous that the paper accepts for safety.
    pub fn total_bytes(&self) -> usize {
        self.current.total_bytes() + self.previous.total_bytes()
    }
}

/// Double-buffered parity generations keyed by an arbitrary block key.
///
/// The parity-side twin of [`DoubleBufferedStore`]: a parity holder keeps
/// the *committed* generation (what recovery reads) and a *current*
/// generation being built this round. The commit is two-phase — the new
/// generation only replaces the old one at [`ParityStore::promote`], and
/// an interrupted round discards the working generation wholesale via
/// [`ParityStore::rollback`], so a torn round can never leak half-updated
/// parity into recovery.
///
/// Generic over the key so the checkpoint layer stays independent of the
/// protocol layer's group identifiers.
#[derive(Debug, Clone)]
pub struct ParityStore<K: Ord + Copy> {
    committed: BTreeMap<K, Vec<u8>>,
    current: BTreeMap<K, Vec<u8>>,
    /// Checksums recorded when each committed block was written; stored
    /// apart from the blocks so a corruption fault can flip block bytes
    /// without the witness following along.
    committed_sums: BTreeMap<K, u64>,
    /// Checksums for the working generation's blocks.
    current_sums: BTreeMap<K, u64>,
    /// Epoch the *current* generation's delta base corresponds to: the
    /// epoch of the last promote, cleared by rollback/invalidation. When
    /// this matches the protocol's committed epoch, incremental delta
    /// folding is sound; otherwise a full re-encode is required.
    current_epoch: Option<u64>,
}

impl<K: Ord + Copy> Default for ParityStore<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy> ParityStore<K> {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParityStore {
            committed: BTreeMap::new(),
            current: BTreeMap::new(),
            committed_sums: BTreeMap::new(),
            current_sums: BTreeMap::new(),
            current_epoch: None,
        }
    }

    /// The committed block for `key` — what recovery reads.
    pub fn committed(&self, key: K) -> Option<&[u8]> {
        self.committed.get(&key).map(|b| b.as_slice())
    }

    /// The working block for `key` (this round's generation).
    pub fn current(&self, key: K) -> Option<&[u8]> {
        self.current.get(&key).map(|b| b.as_slice())
    }

    /// Mutable access to the working block for `key`, if present.
    pub fn current_mut(&mut self, key: K) -> Option<&mut Vec<u8>> {
        self.current.get_mut(&key)
    }

    /// Writes `block` into the working generation.
    pub fn stage(&mut self, key: K, block: Vec<u8>) {
        self.current_sums.insert(key, integrity::checksum(&block));
        self.current.insert(key, block);
    }

    /// Writes `block` into both generations at once — recovery rebuilds a
    /// lost holder's parity to the committed state, which is by definition
    /// also the correct working base for the next round.
    pub fn seed(&mut self, key: K, block: Vec<u8>) {
        let sum = integrity::checksum(&block);
        self.committed_sums.insert(key, sum);
        self.current_sums.insert(key, sum);
        self.committed.insert(key, block.clone());
        self.current.insert(key, block);
    }

    /// Drops `key` from both generations (its holder left the group).
    pub fn evict(&mut self, key: K) {
        self.committed.remove(&key);
        self.current.remove(&key);
        self.committed_sums.remove(&key);
        self.current_sums.remove(&key);
    }

    /// Promotes the working generation to committed — the second phase of
    /// the two-phase commit, called only after every holder has acked its
    /// staged blocks. Records `epoch` as the new delta base.
    pub fn promote(&mut self, epoch: u64) {
        self.committed = self.current.clone();
        self.committed_sums = self.current_sums.clone();
        self.current_epoch = Some(epoch);
    }

    /// Discards the working generation, restoring it from committed, and
    /// clears the delta base (the next round must full re-encode). The
    /// abort path of the two-phase commit.
    pub fn rollback(&mut self) {
        self.current = self.committed.clone();
        self.current_sums = self.committed_sums.clone();
        self.current_epoch = None;
    }

    /// Refreshes the working-generation checksum for `key` after an
    /// in-place mutation through [`ParityStore::current_mut`] (the
    /// incremental delta-fold path updates parity bytes in place).
    pub fn rehash_current(&mut self, key: K) {
        if let Some(block) = self.current.get(&key) {
            self.current_sums.insert(key, integrity::checksum(block));
        }
    }

    /// Verifies the committed block for `key`: `Some(true)` = intact,
    /// `Some(false)` = corrupted in place, `None` = absent.
    pub fn verify_committed(&self, key: K) -> Option<bool> {
        let block = self.committed.get(&key)?;
        let sum = self.committed_sums.get(&key)?;
        Some(integrity::verify(block, *sum))
    }

    /// Verifies the working-generation block for `key`.
    pub fn verify_current(&self, key: K) -> Option<bool> {
        let block = self.current.get(&key)?;
        let sum = self.current_sums.get(&key)?;
        Some(integrity::verify(block, *sum))
    }

    /// Silently flips one byte of the *committed* block for `key` without
    /// refreshing its checksum — the corruption fault's write path into
    /// parity. Returns false when the block is absent or empty.
    pub fn corrupt_committed(&mut self, key: K, offset: usize) -> bool {
        match self.committed.get_mut(&key) {
            Some(block) if !block.is_empty() => {
                let off = offset % block.len();
                block[off] ^= 0xA5;
                true
            }
            _ => false,
        }
    }

    /// The epoch whose images the working generation is based on, if the
    /// incremental delta path is currently sound.
    pub fn delta_base(&self) -> Option<u64> {
        self.current_epoch
    }

    /// True when the working generation is byte-identical to the
    /// committed one — no partially staged round in progress.
    pub fn current_matches_committed(&self) -> bool {
        self.current == self.committed
    }

    /// Number of blocks in the working generation.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// True if the working generation is empty.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Bytes across both generations — the double-buffering memory cost a
    /// parity holder pays for interruptibility.
    pub fn total_bytes(&self) -> usize {
        self.committed.values().map(Vec::len).sum::<usize>()
            + self.current.values().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{Checkpointer, Mode};
    use dvdc_vcluster::memory::MemoryImage;

    #[test]
    fn full_then_incremental_materializes() {
        let mut mem = MemoryImage::patterned(8, 16, 3);
        let mut ck = Checkpointer::new(Mode::Incremental);
        let mut store = MaterializedStore::new();

        store.apply(&ck.capture(VmId(0), 0, &mut mem)).unwrap();
        assert_eq!(store.image(VmId(0)).unwrap(), mem.as_bytes());
        assert_eq!(store.epoch(VmId(0)), Some(0));

        mem.write_page(2, &[0xEEu8; 16]);
        store.apply(&ck.capture(VmId(0), 1, &mut mem)).unwrap();
        assert_eq!(store.image(VmId(0)).unwrap(), mem.as_bytes());
        assert_eq!(store.epoch(VmId(0)), Some(1));
    }

    #[test]
    fn increment_without_base_rejected() {
        use crate::payload::{Checkpoint, CheckpointPayload};
        let mut store = MaterializedStore::new();
        let ckpt = Checkpoint {
            vm: VmId(5),
            epoch: 1,
            payload: CheckpointPayload::Incremental {
                base_epoch: 0,
                page_size: 16,
                image_len: 32,
                pages: vec![],
            },
        };
        assert_eq!(
            store.apply(&ckpt),
            Err(StoreError::MissingBase { vm: VmId(5) })
        );
    }

    #[test]
    fn epoch_gap_rejected() {
        let mut mem = MemoryImage::patterned(4, 16, 1);
        let mut ck = Checkpointer::new(Mode::Incremental);
        let mut store = MaterializedStore::new();
        store.apply(&ck.capture(VmId(0), 0, &mut mem)).unwrap();
        // Capture epoch 1 but don't apply it; epoch 2 then has base 1 ≠ 0.
        mem.write_page(0, &[1u8; 16]);
        let _dropped = ck.capture(VmId(0), 1, &mut mem);
        mem.write_page(1, &[2u8; 16]);
        let c2 = ck.capture(VmId(0), 2, &mut mem);
        assert_eq!(
            store.apply(&c2),
            Err(StoreError::BaseEpochMismatch {
                vm: VmId(0),
                expected: 1,
                stored: 0
            })
        );
    }

    #[test]
    fn bookkeeping_methods() {
        let mut store = MaterializedStore::new();
        assert!(store.is_empty());
        store.insert_image(VmId(1), 4, vec![1, 2, 3]);
        store.insert_image(VmId(2), 4, vec![4, 5]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.total_bytes(), 5);
        store.remove(VmId(1));
        assert_eq!(store.len(), 1);
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn double_buffer_promotes_on_commit() {
        let mut mem = MemoryImage::patterned(4, 16, 7);
        let mut ck = Checkpointer::new(Mode::Incremental);
        let mut store = DoubleBufferedStore::new();

        store.apply(&ck.capture(VmId(0), 0, &mut mem)).unwrap();
        assert!(
            store.committed_image(VmId(0)).is_none(),
            "not committed yet"
        );
        store.commit_round();
        let epoch0 = store.committed_image(VmId(0)).unwrap().to_vec();

        mem.write_page(3, &[9u8; 16]);
        store.apply(&ck.capture(VmId(0), 1, &mut mem)).unwrap();
        // Before commit, the rollback target is still epoch 0.
        assert_eq!(store.committed_image(VmId(0)).unwrap(), &epoch0[..]);
        assert_ne!(store.current_image(VmId(0)).unwrap(), &epoch0[..]);
        store.commit_round();
        assert_eq!(store.committed_image(VmId(0)).unwrap(), mem.as_bytes());
    }

    #[test]
    fn double_buffer_discard_rolls_current_back() {
        let mut mem = MemoryImage::patterned(4, 16, 7);
        let mut ck = Checkpointer::new(Mode::Full);
        let mut store = DoubleBufferedStore::new();
        store.apply(&ck.capture(VmId(0), 0, &mut mem)).unwrap();
        store.commit_round();
        let epoch0 = store.committed_image(VmId(0)).unwrap().to_vec();

        // An aborted round's capture must not survive the abort: a later
        // commit would otherwise promote it into the rollback target.
        mem.write_page(1, &[7u8; 16]);
        store.apply(&ck.capture(VmId(0), 1, &mut mem)).unwrap();
        store.discard_round();
        assert_eq!(store.current_image(VmId(0)).unwrap(), &epoch0[..]);
        store.commit_round();
        assert_eq!(store.committed_image(VmId(0)).unwrap(), &epoch0[..]);
    }

    #[test]
    fn double_buffer_memory_cost_is_double() {
        let mut mem = MemoryImage::patterned(4, 16, 7);
        let mut ck = Checkpointer::new(Mode::Full);
        let mut store = DoubleBufferedStore::new();
        store.apply(&ck.capture(VmId(0), 0, &mut mem)).unwrap();
        store.commit_round();
        assert_eq!(store.total_bytes(), 2 * 64);
    }

    #[test]
    fn parity_store_two_phase_commit() {
        let mut p: ParityStore<(u32, usize)> = ParityStore::new();
        assert!(p.delta_base().is_none());
        p.stage((0, 0), vec![1, 1]);
        p.stage((1, 0), vec![2, 2]);
        // Nothing committed until promote.
        assert!(p.committed((0, 0)).is_none());
        p.promote(0);
        assert_eq!(p.committed((0, 0)), Some(&[1u8, 1][..]));
        assert_eq!(p.delta_base(), Some(0));

        // A second round updates in place…
        p.current_mut((0, 0)).unwrap()[0] = 9;
        assert_eq!(p.committed((0, 0)), Some(&[1u8, 1][..]), "still old gen");
        // …but the round is interrupted: rollback restores the working
        // generation from committed and kills the delta base.
        p.rollback();
        assert_eq!(p.current((0, 0)), Some(&[1u8, 1][..]));
        assert!(p.delta_base().is_none());

        // A clean round then promotes the new generation.
        p.current_mut((1, 0)).unwrap()[1] = 7;
        p.promote(1);
        assert_eq!(p.committed((1, 0)), Some(&[2u8, 7][..]));
        assert_eq!(p.delta_base(), Some(1));
    }

    #[test]
    fn parity_store_seed_and_bookkeeping() {
        let mut p: ParityStore<usize> = ParityStore::new();
        p.seed(3, vec![5; 4]);
        assert_eq!(p.committed(3), Some(&[5u8; 4][..]));
        assert_eq!(p.current(3), Some(&[5u8; 4][..]));
        assert_eq!(p.total_bytes(), 8);
        assert_eq!(p.len(), 1);
        p.evict(3);
        assert!(p.is_empty());
        assert_eq!(p.total_bytes(), 0);
    }

    #[test]
    fn checksums_track_writes_and_catch_corruption() {
        let mut mem = MemoryImage::patterned(4, 16, 7);
        let mut ck = Checkpointer::new(Mode::Incremental);
        let mut store = DoubleBufferedStore::new();
        store.apply(&ck.capture(VmId(0), 0, &mut mem)).unwrap();
        store.commit_round();
        assert_eq!(store.verify_committed(VmId(0)), Some(true));
        assert_eq!(store.verify_current(VmId(0)), Some(true));
        assert_eq!(store.verify_committed(VmId(9)), None);

        // Incremental folds refresh the checksum with the image.
        mem.write_page(2, &[3u8; 16]);
        store.apply(&ck.capture(VmId(0), 1, &mut mem)).unwrap();
        assert_eq!(store.verify_current(VmId(0)), Some(true));

        // A silent flip is caught, and only in the buffer it hit.
        assert!(store.corrupt_committed_byte(VmId(0), 5));
        assert_eq!(store.verify_committed(VmId(0)), Some(false));
        assert_eq!(store.verify_current(VmId(0)), Some(true));

        // Re-seeding the image heals the witness.
        let fresh = mem.as_bytes().to_vec();
        store.committed_mut().insert_image(VmId(0), 1, fresh);
        assert_eq!(store.verify_committed(VmId(0)), Some(true));
    }

    #[test]
    fn parity_checksums_follow_two_phase_lifecycle() {
        let mut p: ParityStore<usize> = ParityStore::new();
        p.stage(0, vec![1, 2, 3, 4]);
        assert_eq!(p.verify_current(0), Some(true));
        assert_eq!(p.verify_committed(0), None);
        p.promote(0);
        assert_eq!(p.verify_committed(0), Some(true));

        // In-place delta fold: stale until rehashed.
        p.current_mut(0).unwrap()[1] ^= 0xFF;
        assert_eq!(p.verify_current(0), Some(false));
        p.rehash_current(0);
        assert_eq!(p.verify_current(0), Some(true));

        // Corruption hits committed only; rollback copies the rot (and
        // its stale witness) into current, so it stays detectable.
        assert!(p.corrupt_committed(0, 2));
        assert_eq!(p.verify_committed(0), Some(false));
        p.rollback();
        assert_eq!(p.verify_current(0), Some(false));

        // Seeding a rebuilt block heals both generations.
        p.seed(0, vec![9, 9, 9, 9]);
        assert_eq!(p.verify_committed(0), Some(true));
        assert_eq!(p.verify_current(0), Some(true));
        p.evict(0);
        assert_eq!(p.verify_committed(0), None);
    }

    #[test]
    fn error_messages_name_the_vm() {
        let e = StoreError::MissingBase { vm: VmId(3) };
        assert!(e.to_string().contains("vm3"));
        let e = StoreError::BaseEpochMismatch {
            vm: VmId(3),
            expected: 2,
            stored: 1,
        };
        assert!(e.to_string().contains("epoch 2"));
    }
}
