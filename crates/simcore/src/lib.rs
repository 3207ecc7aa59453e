#![warn(missing_docs)]
//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation of the gridmon reproduction. Provides:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time.
//! * [`EventQueue`] — a time-ordered queue with FIFO tie-breaking, so a
//!   given seed always replays the identical event history.
//! * [`Actor`] / [`Simulation`] / [`Context`] — the actor model every
//!   middleware component is written against.
//! * [`ServiceMap`] — type-keyed shared state (network fabric, OS resource
//!   accounting, metrics collectors).
//! * [`SimRng`] — a frozen xoshiro256++ implementation for reproducible
//!   randomness.
//!
//! Design notes: the kernel dispatches strictly one event at a time; actors
//! communicate only via messages, so there is no shared mutable state
//! between actors except through explicit services. Everything is
//! single-threaded *within* one simulation — parallelism in this project
//! happens *across* simulations (parameter sweeps), which is where the real
//! win is for a measurement-study reproduction.

pub mod actor;
pub mod event;
pub mod kernel;
pub mod rng;
pub mod service;
pub mod time;

pub use actor::{Actor, ActorId, FnActor, NullActor};
pub use event::{EventQueue, EventTypeStat, Payload, ScheduledEvent, WallAccum, EXTERNAL_LANE};
pub use kernel::{Context, KernelHotpath, KernelStats, RunOutcome, Simulation};
pub use rng::SimRng;
pub use service::ServiceMap;
pub use time::{SimDuration, SimTime};
