#![warn(missing_docs)]

//! # lyra-elastic
//!
//! The elastic-training substrate: the parts of the ML frameworks Lyra
//! schedules that the simulator models (§2.2, §4).
//!
//! * [`throughput`] — empirical throughput-vs-workers curves for the four
//!   model families Figure 3 profiles (ResNet-50, VGG16, BERT, GNMT-16),
//!   exported both as plot series (to regenerate the figure) and as
//!   [`lyra_core::ScalingCurve`] tables the scheduler consumes.
//! * [`checkpoint`] — how much progress a periodically checkpointing job
//!   keeps when it is preempted (§4, Figure 13).
//! * [`hetero`] — the heterogeneous-GPU training model: aggregate
//!   throughput over mixed device groups with the ≤70 %-of-ideal penalty
//!   the paper measures (§7.1, Advanced scenario).
//!
//! §6's per-job controller (one rendezvous pause per membership change)
//! lives in the simulator's resize path, `lyra-sim`'s engine.

pub mod checkpoint;
pub mod hetero;
pub mod throughput;

pub use checkpoint::preserved_work;
pub use hetero::{hetero_rate, hetero_rate_scaled, HeteroGroup};
pub use throughput::{family_curve, figure3_series, ModelProfile};
