//! Golden fingerprint of the dist crate's wire encodings: the client
//! port's `ClientReq`/`ClientResp`, the partition protocol's `Req`/`Resp`
//! and the `NetDeployConfig` blob that the membership handshake ships and
//! every WAL manifest persists.
//!
//! One value of every variant is encoded, each encoding framed by its
//! length into an FNV-1a-64 digest per type. The constants were recorded
//! before these types moved between modules; a change that claims to
//! keep the bytes must not re-record them. A new variant fails to
//! compile in its type's `*_variant` match until it gets a sample here.

use semtree_dist::{
    CapacityPolicy, ClientMetrics, ClientReq, ClientResp, DistConfig, LocalNodeId, NetDeployConfig,
    PartitionStats, Req, Resp,
};
use semtree_kdtree::SplitRule;
use semtree_net::{decode_exact, Decode, Encode};

const CLIENT_REQ: u64 = 11_374_142_240_928_212_513;
const CLIENT_RESP: u64 = 5_815_260_661_144_170_429;
const REQ: u64 = 8_677_084_733_858_566_735;
const RESP: u64 = 5_477_798_478_251_185_664;
const DEPLOY_CONFIG: u64 = 3_395_953_483_987_320_741;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// One value's encoding, framed by its length.
    fn encoding(&mut self, bytes: &[u8]) {
        self.bytes(&(bytes.len() as u64).to_le_bytes());
        self.bytes(bytes);
    }
}

/// The digest of `values`' encodings, each checked to decode back to
/// itself, and the variant index of each value.
fn digest<T>(values: &[T], variant: fn(&T) -> usize) -> (u64, Vec<usize>)
where
    T: Encode + Decode + PartialEq + std::fmt::Debug,
{
    let mut h = Fnv::new();
    for value in values {
        let bytes = value.to_bytes();
        let back: T = decode_exact(&bytes).expect("the encoding decodes");
        assert_eq!(&back, value);
        h.encoding(&bytes);
    }
    (h.0, values.iter().map(variant).collect())
}

fn stats() -> PartitionStats {
    PartitionStats {
        points: 1_234,
        leaves: 40,
        routing: 39,
        edge_nodes: 2,
        remote_children: vec![1 << 16, (2 << 16) | 3],
    }
}

fn client_reqs() -> Vec<ClientReq> {
    vec![
        ClientReq::Insert {
            point: vec![1.5, -2.25, 1e-300],
            payload: u64::MAX - 7,
        },
        ClientReq::Knn {
            point: vec![0.1, 0.2],
            k: 10,
        },
        ClientReq::Range {
            point: vec![-0.0, 3.75],
            radius: 0.125,
        },
        ClientReq::Stats,
        ClientReq::Verify,
        ClientReq::Metrics,
        ClientReq::Shutdown,
        ClientReq::KnnBatch {
            points: vec![vec![1.0, 2.0], vec![], vec![f64::MAX, f64::MIN_POSITIVE]],
            k: 3,
        },
    ]
}

fn client_req_variant(req: &ClientReq) -> usize {
    match req {
        ClientReq::Insert { .. } => 0,
        ClientReq::Knn { .. } => 1,
        ClientReq::Range { .. } => 2,
        ClientReq::Stats => 3,
        ClientReq::Verify => 4,
        ClientReq::Metrics => 5,
        ClientReq::Shutdown => 6,
        ClientReq::KnnBatch { .. } => 7,
    }
}

fn client_resps() -> Vec<ClientResp> {
    let mut metrics = ClientMetrics {
        messages: 3,
        bytes: 120,
        response_bytes: 48,
        spawned_nodes: 2,
        latency_count: 17,
        p50_nanos: 2_048,
        p99_nanos: 65_536,
        p999_nanos: 131_072,
        reads_retried: 5,
        read_retries: [10, 3, 1, 0, 1, 0, 0, 0],
        reads_crossed: 21,
        reactor_shards: 2,
        ..ClientMetrics::default()
    };
    metrics.shard_served[..2].copy_from_slice(&[11, 6]);
    metrics.shard_shed[1] = 4;
    vec![
        ClientResp::Done,
        ClientResp::Neighbors(vec![(0.0, 9), (0.5, 1 << 40)]),
        ClientResp::Stats(vec![(0, stats()), (1 << 16, PartitionStats::default())]),
        ClientResp::Violations(vec!["broken".into(), "ünïcode".into()]),
        ClientResp::Metrics(Box::new(metrics)),
        ClientResp::Error("invalid request: point has 3 dimensions".into()),
        ClientResp::NeighborBatches(vec![vec![(0.5, 9), (1.0, 2)], vec![]]),
        ClientResp::Overloaded,
    ]
}

fn client_resp_variant(resp: &ClientResp) -> usize {
    match resp {
        ClientResp::Done => 0,
        ClientResp::Neighbors(_) => 1,
        ClientResp::Stats(_) => 2,
        ClientResp::Violations(_) => 3,
        ClientResp::Metrics(_) => 4,
        ClientResp::Error(_) => 5,
        ClientResp::NeighborBatches(_) => 6,
        ClientResp::Overloaded => 7,
    }
}

fn reqs() -> Vec<Req> {
    vec![
        Req::Insert {
            node: LocalNodeId(7),
            point: vec![1.5, -2.25],
            payload: 42,
        },
        Req::Knn {
            node: LocalNodeId(0),
            point: vec![0.1, 0.2],
            k: 10,
            worst: Some(0.75),
        },
        Req::Knn {
            node: LocalNodeId(3),
            point: vec![],
            k: 0,
            worst: None,
        },
        Req::Range {
            node: LocalNodeId(u32::MAX),
            point: vec![9.0, 8.0],
            radius: 2.5,
        },
        Req::AdoptLeaf {
            bucket: vec![(vec![1.0, 2.0], 5), (vec![3.0, 4.0], 6)],
            depth: 4,
        },
        Req::Stats,
        Req::Verify,
    ]
}

fn req_variant(req: &Req) -> usize {
    match req {
        Req::Insert { .. } => 0,
        Req::Knn { .. } => 1,
        Req::Range { .. } => 2,
        Req::AdoptLeaf { .. } => 3,
        Req::Stats => 4,
        Req::Verify => 5,
    }
}

fn resps() -> Vec<Resp> {
    vec![
        Resp::Done,
        Resp::Candidates(vec![(0.25, 3), (1.0, u64::MAX)]),
        Resp::Stats(stats()),
        Resp::Violations(vec!["leaf 3 over capacity".into()]),
        Resp::Error("partition 65536 died".into()),
    ]
}

fn resp_variant(resp: &Resp) -> usize {
    match resp {
        Resp::Done => 0,
        Resp::Candidates(_) => 1,
        Resp::Stats(_) => 2,
        Resp::Violations(_) => 3,
        Resp::Error(_) => 4,
    }
}

/// Every variant index below `count` appears among `seen`.
fn covers(seen: &[usize], count: usize) {
    for variant in 0..count {
        assert!(seen.contains(&variant), "variant {variant} has no sample");
    }
}

#[test]
fn client_port_bytes_are_unchanged() {
    let (reqs, seen) = digest(&client_reqs(), client_req_variant);
    covers(&seen, 8);
    let (resps, seen) = digest(&client_resps(), client_resp_variant);
    covers(&seen, 8);
    assert_eq!(reqs, CLIENT_REQ, "ClientReq encoding digest moved");
    assert_eq!(resps, CLIENT_RESP, "ClientResp encoding digest moved");
}

#[test]
fn partition_protocol_bytes_are_unchanged() {
    let (reqs, seen) = digest(&reqs(), req_variant);
    covers(&seen, 6);
    let (resps, seen) = digest(&resps(), resp_variant);
    covers(&seen, 5);
    assert_eq!(reqs, REQ, "Req encoding digest moved");
    assert_eq!(resps, RESP, "Resp encoding digest moved");
}

/// The blob a coordinator ships in its handshake and a WAL manifest
/// persists, for a capped, an unlimited and the default config.
#[test]
fn deploy_config_blob_is_unchanged() {
    let capped = DistConfig::new(4)
        .with_bucket_size(16)
        .with_max_partitions(9)
        .with_split_rule(SplitRule::DegenerateMin)
        .with_capacity(CapacityPolicy::MaxPoints(500));
    let unlimited = DistConfig::new(2).with_split_rule(SplitRule::WidestSpread);
    let configs = [capped, unlimited, DistConfig::default()]
        .iter()
        .map(|config| NetDeployConfig::from_config(config).expect("deployable"))
        .collect::<Vec<_>>();
    let (blobs, _) = digest(&configs, |_| 0);
    assert_eq!(blobs, DEPLOY_CONFIG, "NetDeployConfig blob digest moved");
}
