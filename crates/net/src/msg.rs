//! The control-plane envelope exchanged between cluster processes.

use semtree_cluster::{ClusterError, ComputeNodeId};

use crate::codec::{Decode, DecodeError, Encode};

/// One frame's payload on an inter-process connection: membership
/// handshake, request/response traffic, remote spawns, and shutdown.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMsg<Req, Resp> {
    /// First frame on every new connection, identifying the dialer.
    /// `process_index` is [`UNASSIGNED`](NetMsg::UNASSIGNED) when the
    /// dialer is a worker joining the coordinator (which then assigns
    /// an index via [`Welcome`](NetMsg::Welcome)); otherwise it is the
    /// dialer's established index (worker↔worker mesh connections).
    Hello {
        /// The dialer's process index, or `UNASSIGNED`.
        process_index: u32,
        /// Port the dialer's own listener accepts mesh connections on.
        listen_port: u16,
    },
    /// Coordinator's reply to a joining worker.
    Welcome {
        /// The index assigned to the joining process (≥ 1).
        assigned_index: u32,
        /// Already-joined peers as `(index, "ip:port")` listener addresses.
        peers: Vec<(u32, String)>,
        /// Opaque application payload — `semtree-dist` ships its encoded
        /// deployment config here so every process builds identical
        /// partition state.
        config: Vec<u8>,
    },
    /// Broadcast to established peers when a new worker joins.
    PeerJoined {
        /// The new worker's index.
        index: u32,
        /// Its listener address as `"ip:port"`.
        addr: String,
    },
    /// A compute-node request routed to the process hosting `target`.
    Request {
        /// Correlates the eventual `Response`/`Error`.
        call_id: u64,
        /// Raw [`ComputeNodeId`] of the destination node.
        target: u32,
        /// The protocol request.
        body: Req,
    },
    /// Successful answer to a `Request`.
    Response {
        /// Correlation id from the request.
        call_id: u64,
        /// The protocol response.
        body: Resp,
    },
    /// Ask the receiving process to create a member node via its
    /// installed node factory (build-partition across processes).
    SpawnFresh {
        /// Correlates the eventual `Spawned`/`Error`.
        call_id: u64,
    },
    /// Successful answer to `SpawnFresh`.
    Spawned {
        /// Correlation id from the spawn request.
        call_id: u64,
        /// Raw global id of the new node.
        node: u32,
    },
    /// Failure answer to a `Request` or `SpawnFresh`.
    Error {
        /// Correlation id from the failed request.
        call_id: u64,
        /// Encoded [`ClusterError`] variant (see `encode_error`).
        code: u8,
        /// Node id for node-scoped errors, else 0.
        node: u32,
        /// Human-readable detail.
        message: String,
    },
    /// Tear the deployment down; receivers stop their local nodes.
    Shutdown,
    /// First frame from a **restarted** worker re-dialling the
    /// coordinator: it already holds an assigned index and recovered
    /// partition state, and asks to resume serving its old routes (the
    /// coordinator answers `Welcome` echoing the old index back).
    Rejoin {
        /// The index this worker held before it crashed (≥ 1).
        process_index: u32,
        /// Port the worker's *new* listener accepts mesh connections on.
        listen_port: u16,
        /// Raw node ids of the partitions the worker recovered.
        partitions: Vec<u32>,
    },
}

impl<Req, Resp> NetMsg<Req, Resp> {
    /// `Hello.process_index` value for a not-yet-assigned worker.
    pub const UNASSIGNED: u32 = u32::MAX;
}

/// Flatten a [`ClusterError`] into `(code, node, message)` for the wire.
#[must_use]
pub fn encode_error(err: &ClusterError) -> (u8, u32, String) {
    match err {
        ClusterError::UnknownNode(id) => (0, id.0, String::new()),
        ClusterError::NodeDied(id) => (1, id.0, String::new()),
        ClusterError::Net(msg) => (2, 0, msg.clone()),
        ClusterError::SpawnFailed(msg) => (3, 0, msg.clone()),
        ClusterError::Remote(msg) => (4, 0, msg.clone()),
        ClusterError::Timeout(msg) => (5, 0, msg.clone()),
        ClusterError::InvalidRequest(msg) => (6, 0, msg.clone()),
    }
}

/// Rebuild a [`ClusterError`] from its wire form. Unknown codes become
/// [`ClusterError::Remote`] so newer peers degrade instead of panicking.
#[must_use]
pub fn decode_error(code: u8, node: u32, message: String) -> ClusterError {
    match code {
        0 => ClusterError::UnknownNode(ComputeNodeId(node)),
        1 => ClusterError::NodeDied(ComputeNodeId(node)),
        2 => ClusterError::Net(message),
        3 => ClusterError::SpawnFailed(message),
        4 => ClusterError::Remote(message),
        5 => ClusterError::Timeout(message),
        6 => ClusterError::InvalidRequest(message),
        other => ClusterError::Remote(format!("unknown error code {other}: {message}")),
    }
}

impl<Req: Encode, Resp: Encode> Encode for NetMsg<Req, Resp> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NetMsg::Hello {
                process_index,
                listen_port,
            } => {
                out.push(0);
                process_index.encode(out);
                listen_port.encode(out);
            }
            NetMsg::Welcome {
                assigned_index,
                peers,
                config,
            } => {
                out.push(1);
                assigned_index.encode(out);
                peers.encode(out);
                (config.len() as u64).encode(out);
                out.extend_from_slice(config);
            }
            NetMsg::PeerJoined { index, addr } => {
                out.push(2);
                index.encode(out);
                addr.encode(out);
            }
            NetMsg::Request {
                call_id,
                target,
                body,
            } => {
                out.push(3);
                call_id.encode(out);
                target.encode(out);
                body.encode(out);
            }
            NetMsg::Response { call_id, body } => {
                out.push(4);
                call_id.encode(out);
                body.encode(out);
            }
            NetMsg::SpawnFresh { call_id } => {
                out.push(5);
                call_id.encode(out);
            }
            NetMsg::Spawned { call_id, node } => {
                out.push(6);
                call_id.encode(out);
                node.encode(out);
            }
            NetMsg::Error {
                call_id,
                code,
                node,
                message,
            } => {
                out.push(7);
                call_id.encode(out);
                code.encode(out);
                node.encode(out);
                message.encode(out);
            }
            NetMsg::Shutdown => out.push(8),
            NetMsg::Rejoin {
                process_index,
                listen_port,
                partitions,
            } => {
                out.push(9);
                process_index.encode(out);
                listen_port.encode(out);
                partitions.encode(out);
            }
        }
    }
}

impl<Req: Decode, Resp: Decode> Decode for NetMsg<Req, Resp> {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(NetMsg::Hello {
                process_index: u32::decode(buf)?,
                listen_port: u16::decode(buf)?,
            }),
            1 => Ok(NetMsg::Welcome {
                assigned_index: u32::decode(buf)?,
                peers: Vec::decode(buf)?,
                config: {
                    let len = usize::decode(buf)?;
                    crate::codec::take(buf, len)?.to_vec()
                },
            }),
            2 => Ok(NetMsg::PeerJoined {
                index: u32::decode(buf)?,
                addr: String::decode(buf)?,
            }),
            3 => Ok(NetMsg::Request {
                call_id: u64::decode(buf)?,
                target: u32::decode(buf)?,
                body: Req::decode(buf)?,
            }),
            4 => Ok(NetMsg::Response {
                call_id: u64::decode(buf)?,
                body: Resp::decode(buf)?,
            }),
            5 => Ok(NetMsg::SpawnFresh {
                call_id: u64::decode(buf)?,
            }),
            6 => Ok(NetMsg::Spawned {
                call_id: u64::decode(buf)?,
                node: u32::decode(buf)?,
            }),
            7 => Ok(NetMsg::Error {
                call_id: u64::decode(buf)?,
                code: u8::decode(buf)?,
                node: u32::decode(buf)?,
                message: String::decode(buf)?,
            }),
            8 => Ok(NetMsg::Shutdown),
            9 => Ok(NetMsg::Rejoin {
                process_index: u32::decode(buf)?,
                listen_port: u16::decode(buf)?,
                partitions: Vec::decode(buf)?,
            }),
            other => Err(DecodeError::new(format!("bad NetMsg tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_exact;

    type Msg = NetMsg<u64, String>;

    fn round_trip(msg: Msg) {
        let bytes = msg.to_bytes();
        let back: Msg = decode_exact(&bytes).expect("round trip");
        assert_eq!(back, msg);
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(NetMsg::Hello {
            process_index: Msg::UNASSIGNED,
            listen_port: 4077,
        });
        round_trip(NetMsg::Welcome {
            assigned_index: 2,
            peers: vec![(1, "127.0.0.1:9000".into())],
            config: vec![1, 2, 3],
        });
        round_trip(NetMsg::PeerJoined {
            index: 3,
            addr: "127.0.0.1:9001".into(),
        });
        round_trip(NetMsg::Request {
            call_id: 99,
            target: (2 << 16) | 5,
            body: 1234,
        });
        round_trip(NetMsg::Response {
            call_id: 99,
            body: "candidates".into(),
        });
        round_trip(NetMsg::SpawnFresh { call_id: 7 });
        round_trip(NetMsg::Spawned {
            call_id: 7,
            node: 1 << 16,
        });
        round_trip(NetMsg::Error {
            call_id: 3,
            code: 0,
            node: 12,
            message: String::new(),
        });
        round_trip(NetMsg::Shutdown);
        round_trip(NetMsg::Rejoin {
            process_index: 2,
            listen_port: 4078,
            partitions: vec![2 << 16, (2 << 16) | 1],
        });
    }

    #[test]
    fn cluster_errors_survive_the_wire() {
        let errors = [
            ClusterError::UnknownNode(ComputeNodeId(9)),
            ClusterError::NodeDied(ComputeNodeId((3 << 16) | 1)),
            ClusterError::Net("connection reset".into()),
            ClusterError::SpawnFailed("process full".into()),
            ClusterError::Remote("handler failure".into()),
            ClusterError::Timeout("membership wait expired".into()),
            ClusterError::InvalidRequest("point has 3 dimensions".into()),
        ];
        for err in errors {
            let (code, node, message) = encode_error(&err);
            assert_eq!(decode_error(code, node, message), err);
        }
    }

    #[test]
    fn unknown_error_code_degrades_to_remote() {
        match decode_error(200, 0, "future variant".into()) {
            ClusterError::Remote(msg) => assert!(msg.contains("future variant")),
            other => panic!("expected Remote, got {other:?}"),
        }
    }
}
