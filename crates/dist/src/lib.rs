//! The distributed SemTree index (paper §III-B).
//!
//! SemTree is "a distributed index particularly suitable for managing
//! semantic extracted data": a bucketed KD-tree whose nodes are spread over
//! **partitions**, each hosted by a compute node of the simulated cluster.
//! Data lives only in leaf buckets; internal *routing* nodes carry the
//! split index `Sr` and split value `Sv`. A routing node is an **edge node**
//! when at least one child is the root of a different partition, an
//! *internal* node otherwise — exactly the paper's taxonomy.
//!
//! Implemented algorithms:
//!
//! 1. **Distributed insertion** (§III-B.1): navigation compares `P[Sr]`
//!    against `Sv`; if the chosen child lives on another partition
//!    (`Cp ≠ Childp`) the point travels there in a message. The client
//!    runs that navigation over every partition this process hosts in
//!    place, so the one message goes to the partition that stores the
//!    point. A saturated leaf bucket splits into two children and its
//!    points move down.
//! 2. **Build partition** (§III-B.2): when a partition's *resource
//!    condition* fires (statically fixed or dynamically evaluated — see
//!    [`CapacityPolicy`]), leaves of the overfull partition move into newly
//!    created partitions and a direct link replaces them, leaving "some
//!    partitions … used just for routing and others for storing data".
//! 3. **Distributed k-nearest** (§III-B.3): standard KD backtracking; a
//!    sub-tree is descended iff the result set is not full (`|Rs| < K`) or
//!    the splitting hyperplane is closer than the current worst result.
//!    Crossing a partition border exchanges a request/response pair, with
//!    the current worst distance piggy-backed as a pruning hint.
//! 4. **Distributed range search** (§III-B.4): both children are descended
//!    whenever `|P[SI] − Sv| ≤ D`; when both live on *other* partitions
//!    (a border node) they are searched **in parallel**, and the partial
//!    result sets are merged on the way back.
//!
//! # Table I (the paper's k-search parameter glossary)
//!
//! | Field | Reference | Here |
//! |---|---|---|
//! | Node status `S` | Not/Left/Right/All visited | implicit in the recursion |
//! | Number of points `K` | results wanted | `k` of [`Query::Knn`] |
//! | Distance `D` | current worst / range radius | the `worst` pruning hint / `radius` |
//! | Result-set `Rs` | the k best so far | the bounded max-heap |
//! | Point `P` | query point | `point` argument |
//!
//! # Example
//!
//! ```
//! use semtree_cluster::CostModel;
//! use semtree_dist::{DistConfig, DistSemTree, Query, QueryOutcome};
//!
//! let config = DistConfig::new(2).with_bucket_size(8);
//! // Three partitions (paper Figure 5's "3 partitions" series): one root
//! // routing partition + two data partitions, split on a data sample.
//! let sample: Vec<Vec<f64>> = (0..32).map(|i| vec![f64::from(i), 0.0]).collect();
//! let tree = DistSemTree::with_fanout(config, CostModel::zero(), 3, &sample);
//! for i in 0..100u32 {
//!     tree.query(Query::insert(&[f64::from(i % 10), f64::from(i / 10)], u64::from(i)))
//!         .unwrap();
//! }
//! let hits = tree
//!     .query(Query::knn(&[3.1, 4.8], 3))
//!     .and_then(QueryOutcome::neighbors)
//!     .unwrap();
//! assert_eq!(hits.len(), 3);
//! assert_eq!(hits[0].payload, 53);
//! tree.shutdown();
//! ```

mod actor;
mod border;
mod client;
mod colimage;
mod config;
mod deploy;
mod proto;
mod query;
mod recovery;
mod serve;
mod store;
mod tree;

pub use client::{ClientMetrics, ClientReq, ClientResp, NetClient, PendingReply, PipelinedClient};
pub use config::{CapacityPolicy, DistConfig};
pub use deploy::{
    build_local_durable, build_tree, join_cluster, serve_cluster, DeployError, DistFabric,
    NetDeployConfig, WorkerHandle,
};
pub use proto::{PartitionStats, Req, Resp};
pub use query::{Query, QueryOutcome};
pub use recovery::{inspect_wal, SnapshotCompression, WalInspection};
pub use semtree_kdtree::Neighbor;
pub use semtree_wal::WalOptions;
pub use serve::{serve_clients_with, ServeOptions};
pub use store::LocalNodeId;
pub use tree::{DistSemTree, GlobalStats};
