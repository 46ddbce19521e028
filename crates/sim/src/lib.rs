//! # un-sim — deterministic simulation substrate
//!
//! Every other crate in this workspace that models packet processing or
//! resource consumption builds on the primitives defined here:
//!
//! * [`time::SimTime`] / [`time::SimDuration`] — a virtual clock in
//!   nanoseconds. Throughput reported by the evaluation harnesses is
//!   *virtual-time* throughput: bytes delivered divided by virtual time
//!   elapsed, with every component charging documented costs.
//! * [`event::EventQueue`] — the discrete-event scheduler core (a stable
//!   priority queue ordered by timestamp, FIFO among equal timestamps).
//! * [`cost::CostModel`] — the calibrated per-packet / per-byte cost
//!   constants for kernel networking, virtio, context switches and crypto.
//!   This module is the *single* place where the reproduction's absolute
//!   numbers come from; its docs give each constant's rationale.
//! * [`mem::MemLedger`] — hierarchical memory/storage accounting used to
//!   regenerate the RAM and image-size columns of the paper's Table 1.
//! * [`stats::Histogram`] — the harnesses' single-threaded, virtual-time
//!   latency histogram (`/metrics` renders `un_obs`'s atomic one).
//! * [`rng::DetRng`] — a seeded RNG so every run is reproducible.
//! * [`counters!`] — declares an owner's closed set of named counters.
//!
//! The simulation is single-threaded by design: determinism is a feature.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod cost;
pub mod counters;
pub mod event;
pub mod mem;
pub mod rng;
pub mod stats;
pub mod time;

pub use cost::{Cost, CostModel};
pub use event::EventQueue;
pub use mem::{AccountId, MemLedger};
pub use rng::DetRng;
pub use stats::Histogram;
pub use time::{SimDuration, SimTime};
