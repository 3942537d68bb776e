//! Real network transport for the SemTree cluster — beyond the paper.
//!
//! The paper's cluster is "8 processors … based on MPJ libraries"; the
//! workspace's default stand-in is `semtree-cluster`'s in-process channel
//! fabric (threads as compute nodes). This crate provides the second
//! [`Transport`](semtree_cluster::Transport) implementation: **real OS
//! processes connected over TCP**, so the same partition actors,
//! protocol types, and query algorithms run unchanged in a genuine
//! multi-process deployment.
//!
//! Three layers, all dependency-free (`std::net` + threads):
//!
//! - `codec`: a length-computable little-endian binary encoding
//!   ([`Encode`]/[`Decode`]) for protocol types — the byte counts that
//!   `Wire::wire_size` reports in simulation are the *exact* sizes this
//!   codec produces;
//! - `frame`: u32-big-endian length-prefixed frames over a byte
//!   stream, plus dial-with-retry;
//! - `fabric`: [`NetFabric`], the coordinator/worker membership
//!   protocol, per-connection reader threads, correlation-id request
//!   routing, and cross-process member spawning for build-partition.

mod codec;
mod fabric;
mod frame;
mod mesh;
mod msg;

pub use codec::{decode_exact, Decode, DecodeError, Encode};
pub use fabric::NetFabric;
pub use frame::{
    append_encoded_frame, append_frame, dial_with_timeout, encode_frame_v2, frame_overhead,
    read_frame, split_frame_v2, write_frame, FRAME_V2, FRAME_V2_HEADER_LEN, MAX_FRAME_LEN,
};
pub use mesh::ConnRegistry;
pub use msg::{decode_error, encode_error, NetMsg};
