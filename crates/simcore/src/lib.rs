//! # dvdc-simcore
//!
//! Deterministic discrete-event simulation (DES) engine underpinning the
//! DVDC reproduction.
//!
//! The crate provides four building blocks:
//!
//! * [`time`] — a totally-ordered simulated-time type ([`SimTime`]) and
//!   durations measured in seconds.
//! * [`event`] — a stable-priority event queue ([`EventQueue`]) that breaks
//!   simultaneous-event ties by insertion order, which is what makes reruns
//!   bit-identical.
//! * [`engine`] — a handler-based DES driver ([`Simulation`]) on top of the
//!   queue, validated against M/M/1 queueing theory.
//! * [`rng`] — named, independently seeded random-number streams
//!   ([`RngHub`]) so that adding a new stochastic component never perturbs
//!   the draws of existing ones.
//! * [`stats`] — a single-pass Welford mean/variance collector, and
//!   [`montecarlo`] — a driver that runs many independent trials and
//!   summarises them.
//!
//! Everything is deterministic given a master seed. That property is load
//! bearing: the paper's analytical model (crate `dvdc-model`) is
//! cross-validated against Monte-Carlo simulation, and the validation tests
//! assert exact reproducibility of the simulated side.
//!
//! ## Example
//!
//! ```
//! use dvdc_simcore::event::EventQueue;
//! use dvdc_simcore::time::SimTime;
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_secs(2.0), Ev::Tick(2));
//! q.schedule(SimTime::from_secs(1.0), Ev::Tick(1));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_secs(1.0));
//! assert_eq!(ev, Ev::Tick(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod montecarlo;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Scheduler, Simulation};
pub use event::EventQueue;
pub use rng::RngHub;
pub use time::{Duration, SimTime};
