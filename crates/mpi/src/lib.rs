//! Mini-MPI facade and cluster harness.
//!
//! Builds the full simulated stack — topology, fabric rails, one Marcel +
//! PIOMAN + NewMadeleine session per node — from a single
//! [`ClusterConfig`], and exposes the hybrid programming model the paper
//! targets: **one MPI process per node, several threads per process**
//! (§4.3: "This program launches one MPI process per node of a cluster.
//! Each process creates threads that compute a part of the matrix").
//!
//! Ranks map 1:1 to nodes. Threads of the same rank communicate through
//! the node's shared-memory channel, threads of different ranks through
//! the simulated NIC — both behind the same `isend`/`recv` API.
//!
//! The [`workloads`] module contains the paper's benchmark programs
//! (Figure 4's overlap loop and Figure 7/8's convolution-style stencil),
//! shared by the examples and by the claims table in `pm2-bench`.

#![warn(missing_docs)]

mod cluster;
mod comm;
pub mod workloads;

pub use cluster::{Cluster, ClusterConfig, StrategyKind};
pub use comm::{Comm, IAllreduce, IAllreduceSum, IBarrier, IBcast, RESERVED_TAG_BASE};
pub use pm2_rma::{RmaEngine, RmaHandle, Window};
