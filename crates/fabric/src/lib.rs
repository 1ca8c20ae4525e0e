//! Simulated cluster interconnect: MX-like NICs, links, shared memory.
//!
//! The paper's testbed uses Myrinet MYRI-10G NICs driven by MX 1.2.3. No
//! such hardware exists here, so this crate models the pieces of that stack
//! the engine's mechanisms interact with (see DESIGN.md §2 for the
//! substitution argument):
//!
//! * **Submission costs host CPU.** Sending a message means either PIO
//!   (very small messages, the CPU writes the payload to the NIC) or a copy
//!   into registered memory plus a DMA descriptor post. Either way the
//!   *submitting core* pays ([`Nic::submit_cost`]) — this is exactly the
//!   work §2.2 offloads to idle cores.
//! * **The wire is asynchronous.** Once fed, a frame is transmitted by the
//!   NIC without host involvement: egress serialization, per-link latency
//!   and bandwidth, optional jitter ([`FabricParams`]).
//! * **Reception requires host reactivity.** Arrived frames sit in the NIC
//!   receive queue until the host *polls* ([`Nic::rx_poll`]) or is woken
//!   from a *blocking call* ([`Nic::rx_trigger`], the method of \[10\] the
//!   paper contrasts with idle-core polling).
//! * **Zero-copy needs registered memory.** [`MemoryRegistry`] models the
//!   registration cache used by the rendezvous path.
//! * **Intra-node messages bypass the NIC** through a shared-memory
//!   channel ([`ShmChannel`]) with copy-in/copy-out CPU costs, as in the
//!   Table 1 meta-application.
//!
//! Frames are generic over a payload type `P` supplied by the protocol
//! layer (`pm2-newmad`), so the fabric stays protocol-agnostic — like MX
//! itself, which moves opaque messages.

#![warn(missing_docs)]

mod memory;
mod nic;
mod params;
mod shm;

pub use memory::{MemoryRegistry, RegistryStats};
pub use nic::{Fabric, Frame, Nic, NicCounters, TxInfo};
pub use params::{FabricParams, FaultPlan, StallWindow};
pub use shm::ShmChannel;
