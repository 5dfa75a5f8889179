//! # dvdc-parity
//!
//! Erasure-coding substrate for Distributed Virtual Diskless Checkpointing.
//!
//! Diskless checkpointing "uses the RAID principle" (paper, Section II-B2):
//! checkpoints held in volatile memory are protected by parity so that the
//! loss of a node's memory is recoverable. This crate implements two
//! codes, and [`code::for_group`] picks a group's: XOR for one parity
//! block, Reed–Solomon for more.
//!
//! * [`xor`] — word-at-a-time XOR kernels, the hot loop of every code here,
//!   with an optional multi-threaded variant for large checkpoint images.
//! * [`code`] — the [`ErasureCode`] abstraction: `k` data shards + `m`
//!   parity shards, encode and reconstruct.
//! * [`raid5`] — the single-parity XOR code of the paper's RAID groups.
//! * [`gf256`] / [`rs`] — GF(2⁸) arithmetic and a systematic Vandermonde
//!   Reed–Solomon code, the general `m`-failure extension. The byte path
//!   runs on per-coefficient 256-entry product tables
//!   ([`gf256::MulTable`], the ISA-L table-lookup scheme) with
//!   cache-blocked, optionally multi-threaded folds; the scalar log/exp
//!   kernel survives as the property-tested reference.
//!
//! All shard payloads are plain `&[u8]` blocks of equal length; the VM
//! checkpoint layer slices images into such blocks.
//!
//! ## Example: recover a lost VM checkpoint from XOR parity
//!
//! ```
//! use dvdc_parity::code::ErasureCode;
//! use dvdc_parity::raid5::XorCode;
//!
//! let code = XorCode::new(3); // 3 VM checkpoints per RAID group
//! let a = vec![1u8; 64];
//! let b = vec![2u8; 64];
//! let c = vec![7u8; 64];
//! let parity = code.encode(&[&a, &b, &c]);
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
pub use raid5::XorCode;
pub use rs::ReedSolomon;
