//! Real-socket transport for the distributed DVDC protocol.
//!
//! The protocol core ([`dvdc::protocol::node_core::NodeCore`]) performs no
//! IO: it consumes messages and a clock reading and emits
//! [`Action`](dvdc::protocol::node_core::Action)s. In simulation those
//! actions are carried by the in-process harness; this crate carries them
//! over real loopback/LAN TCP sockets using only `std::net` and threads
//! (the build environment is offline — no async runtime):
//!
//! - [`frame`] — length-prefixed framed codec with a checksum trailer and
//!   typed [`frame::FrameError`]s for torn, truncated, oversized, or
//!   corrupt frames.
//! - [`wire`] — binary envelope (`[sender][Msg]`) covering every protocol
//!   message, with typed [`wire::WireError`]s.
//! - [`conn`] — per-peer connection state machine: dial, retry with the
//!   cluster's [`RetryPolicy`](dvdc_vcluster::messaging::RetryPolicy)
//!   backoff-with-jitter schedule, typed [`conn::ConnectError`]s.
//! - [`clock`] — [`clock::WallClock`], the deployment clock: sim
//!   seconds = wall seconds.
//! - [`runtime`] — [`runtime::NodeRuntime`], the threaded TCP driver that
//!   hosts one `NodeCore` per OS process: listener + per-connection reader
//!   threads feeding a single event loop, per-peer writer threads with
//!   reconnect, control-plane replies routed back to the requesting
//!   connection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod conn;
pub mod frame;
pub mod runtime;
pub mod wire;
