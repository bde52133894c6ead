//! A Montium tile model: resource-accurate replay of schedules.
//!
//! The paper targets the Montium, a coarse-grained reconfigurable tile with
//! five ALUs whose per-cycle function combination (the *pattern*) is drawn
//! from a small configuration store — "although the five ALUs can execute
//! thousands of different possible patterns, … it is only allowed to use up
//! to 32 of them" (§1). The silicon and its toolchain are proprietary, so
//! this crate simulates the relevant behaviour:
//!
//! * [`TileParams`] — ALU count and configuration-store size;
//! * [`ConfigStore`] — allocation of pattern configurations, rejecting
//!   pattern sets beyond the hardware limit;
//! * [`execute`] — cycle-accurate replay of a [`mps_scheduler::Schedule`]:
//!   every cycle the sequencer points at one configuration, nodes are bound
//!   to concrete ALU slots of matching color, and every operand must have
//!   been produced in an earlier cycle (values cross cycles through
//!   registers/memories, which the Montium compiler's later *allocation*
//!   phase assigns — out of scope for the scheduling paper and for us);
//! * [`ExecReport`] — utilization, per-ALU busy counts, configuration
//!   switches;
//! * [`EnergyModel`] — a simple per-op + per-reconfiguration energy
//!   estimate, enough to *rank* schedules (absolute Joules are not
//!   claimed);
//! * [`lifetimes`] — the register pressure a schedule implies (peak and
//!   total live values), without assigning registers.
//!
//! Replay failures are real errors, not warnings: a schedule that uses 33
//! patterns or issues a node before its operands exists only because some
//! upstream component is buggy — tests rely on this crate to catch that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config_store;
mod energy;
mod error;
mod exec;
mod lifetime;
mod tile;

pub use config_store::ConfigStore;
pub use energy::{EnergyEstimate, EnergyModel};
pub use error::MontiumError;
pub use exec::{execute, AluSlot, ExecReport};
pub use lifetime::{lifetimes, LifetimeReport};
pub use tile::TileParams;
