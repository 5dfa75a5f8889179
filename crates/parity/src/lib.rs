//! # dvdc-parity
//!
//! Erasure-coding substrate for Distributed Virtual Diskless Checkpointing.
//!
//! Diskless checkpointing "uses the RAID principle" (paper, Section II-B2):
//! checkpoints held in volatile memory are protected by parity so that the
//! loss of a node's memory is recoverable. This crate implements one
//! code, Reed–Solomon whose first parity row is all ones: one parity block
//! is the paper's XOR parity byte for byte, and more tolerate more losses.
//!
//! * [`xor`] — word-at-a-time XOR kernels, the hot loop of every fold of
//!   ones; XOR is memory-bound, so they run on the caller's thread.
//! * [`code`] — the [`ErasureCode`] interface: `k` data shards + `m`
//!   parity shards, encode, reconstruct and delta-fold.
//! * [`raid5`] — the paper's single-parity RAID code, a name for
//!   `ReedSolomon::new(k, 1)`.
//! * [`gf256`] / [`rs`] — GF(2⁸) arithmetic and a systematic Vandermonde
//!   Reed–Solomon code tolerating any `m` losses. The byte path runs on
//!   per-coefficient 256-entry product tables ([`gf256::MulTable`], the
//!   ISA-L table-lookup scheme) with cache-blocked folds, split across
//!   threads for large encodes with any coefficient other than 1; the
//!   scalar log/exp kernel survives as the property-tested reference.
//!
//! All shard payloads are plain `&[u8]` blocks of equal length; the VM
//! checkpoint layer slices images into such blocks.
//!
//! ## Example: recover a lost VM checkpoint from XOR parity
//!
//! ```
//! use dvdc_parity::code::ErasureCode;
//! use dvdc_parity::rs::ReedSolomon;
//! use dvdc_parity::xor::xor_all;
//!
//! let code = ReedSolomon::new(3, 1); // 3 VM checkpoints per RAID group
//! let a = vec![1u8; 64];
//! let b = vec![2u8; 64];
//! let c = vec![7u8; 64];
//! let parity = code.encode(&[&a, &b, &c]);
//! assert_eq!(parity[0], xor_all(&[&a, &b, &c])); // A XOR B XOR C
//!
//! // Physical node hosting checkpoint B dies:
//! let mut shards = vec![Some(a.clone()), None, Some(c.clone()), Some(parity[0].clone())];
//! code.reconstruct(&mut shards).unwrap();
//! assert_eq!(shards[1].as_deref(), Some(&b[..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod code;
pub mod gf256;
pub mod raid5;
pub mod rs;
pub mod xor;

pub use code::{CodeError, ErasureCode};
pub use gf256::{MulTable, Tables};
pub use rs::ReedSolomon;
