#![warn(missing_docs)]
//! # simnet — the simulated 100 Mbps switched LAN
//!
//! Models the paper's isolated Hydra network: per-node NIC FIFO
//! serialization at the measured effective rate (~7.5 MB/s), switch
//! latency, exponential jitter, MSS segmentation with per-packet overhead,
//! UDP loss, and per-connection FIFO ordering for the TCP family.
//!
//! * [`NetworkFabric`] — the kernel service actors send through.
//! * [`Transport`] — TCP / NIO / UDP / HTTP flavours.
//! * [`Delivery`] — the event a receiving actor gets.
//! * [`http`] — request/response framing for the R-GMA servlet paths.

pub mod addr;
pub mod fabric;
pub mod http;

pub use addr::Endpoint;
pub use fabric::{ConnId, Delivery, FabricConfig, FabricStats, NetworkFabric, Transport};
pub use http::{HttpRequest, HttpResponse};
