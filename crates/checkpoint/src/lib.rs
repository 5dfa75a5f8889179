//! # dvdc-checkpoint
//!
//! Checkpoint mechanics for the DVDC reproduction.
//!
//! Section II-B of the paper distinguishes three checkpoint variants from
//! Plank's original work — *normal* (full image), *incremental*
//! (dirty pages only), and *forked* (copy-on-write) — and Section IV-C adds
//! delta compression for the live-migration transport. This crate
//! implements all of them against the `dvdc-vcluster` memory model:
//!
//! * [`payload`] — checkpoint payload representation: full images or
//!   dirty-page increments, with exact size accounting (what travels over
//!   the network and what gets XORed into parity).
//! * [`strategy`] — the capture engines ([`Checkpointer`]): full,
//!   incremental, and forked/COW, each with the memory-footprint and
//!   overhead/latency characteristics the paper tabulates (3I vs 2I vs
//!   I+δ).
//! * [`delta`] — XOR-delta + zero-run-length compression of page
//!   increments ("suitably compressing the differences of the last
//!   checkpoint when sending information over the network", Section IV-C).
//! * [`store`] — checkpoint stores: the in-memory double-buffered store
//!   diskless checkpointing relies on (current + previous epoch, exactly
//!   the paper's "2I/3I memory" discussion) and a materialized view for
//!   parity computation and recovery.
//! * [`integrity`] — per-block checksums (stdchk-style) recorded at every
//!   store write and verified before recovery or scrub trusts the bytes.
//! * [`accounting`] — the overhead-vs-latency split that Section II-B2
//!   stresses: *"Latency is always at least as much as overhead."*
//!
//! ## Example: incremental capture and recovery
//!
//! ```
//! use dvdc_checkpoint::strategy::{Checkpointer, Mode};
//! use dvdc_checkpoint::store::MaterializedStore;
//! use dvdc_vcluster::memory::MemoryImage;
//! use dvdc_vcluster::ids::VmId;
//!
//! let mut mem = MemoryImage::patterned(8, 32, 1);
//! let mut ckpt = Checkpointer::new(Mode::Incremental);
//! let mut store = MaterializedStore::new();
//!
//! // Epoch 0 is always a full image.
//! let c0 = ckpt.capture(VmId(0), 0, &mut mem);
//! store.apply(&c0).unwrap();
//!
//! // Guest writes two pages; epoch 1 ships only those.
//! mem.write_page(3, &[9u8; 32]);
//! mem.write_page(5, &[8u8; 32]);
//! let c1 = ckpt.capture(VmId(0), 1, &mut mem);
//! assert_eq!(c1.payload.page_count(), 2);
//! store.apply(&c1).unwrap();
//! assert_eq!(store.image(VmId(0)).unwrap(), mem.as_bytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod delta;
pub mod integrity;
pub mod payload;
pub mod store;
pub mod strategy;

pub use accounting::CheckpointCost;
pub use payload::{Checkpoint, CheckpointPayload, PageDelta};
pub use store::{DoubleBufferedStore, MaterializedStore, ParityStore, StoreError};
pub use strategy::{Checkpointer, Mode};
