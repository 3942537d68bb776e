//! A deployment config that arrives from outside the process — from the
//! coordinator over TCP, or from a WAL manifest on disk — is checked when
//! it is decoded: a zero `dims`, `bucket_size` or `max_partitions` is a
//! decode error, never an assert inside `DistConfig` that takes the
//! worker down.

use std::net::{Ipv4Addr, SocketAddr};
use std::time::Duration;

use semtree_cluster::{CostModel, Transport};
use semtree_dist::{
    inspect_wal, join_cluster, DeployError, DistConfig, DistFabric, NetDeployConfig, WalOptions,
};
use semtree_net::{decode_exact, Encode};
use semtree_wal::Wal;

/// Sets one field of a deployable config to zero.
type Zero = fn(&mut NetDeployConfig);

fn zeroed(zero: Zero) -> Vec<u8> {
    let mut config = NetDeployConfig::from_config(&DistConfig::new(3)).expect("deployable");
    zero(&mut config);
    config.to_bytes()
}

#[test]
fn a_zero_in_the_shipped_config_is_a_decode_error() {
    let cases: [(&str, Zero); 3] = [
        ("dims", |c| c.dims = 0),
        ("bucket_size", |c| c.bucket_size = 0),
        ("max_partitions", |c| c.max_partitions = 0),
    ];
    for (field, zero) in cases {
        let err = decode_exact::<NetDeployConfig>(&zeroed(zero)).unwrap_err();
        assert!(err.0.contains(field), "{field}: {err}");
    }
}

#[test]
fn joining_a_coordinator_that_ships_zero_dims_fails_to_decode() {
    let any_port = SocketAddr::from((Ipv4Addr::LOCALHOST, 0));
    let blob = zeroed(|c| c.dims = 0);
    let coord = DistFabric::coordinator(any_port, blob, CostModel::zero()).expect("coordinator");
    let timeout = Duration::from_secs(10);
    let joined = join_cluster(coord.listen_addr(), CostModel::zero(), timeout, None);
    assert!(
        matches!(joined, Err(DeployError::Decode(_))),
        "{:?}",
        joined.err()
    );
    coord.shutdown();
}

#[test]
fn inspect_refuses_a_manifest_config_with_a_zero_bucket() {
    let dir = std::env::temp_dir().join(format!("semtree-zero-bucket-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let blob = zeroed(|c| c.bucket_size = 0);
    drop(Wal::create(&dir, 1, &blob, WalOptions::default()).expect("create wal"));
    let err = inspect_wal(&dir).expect_err("a zero bucket size must not replay");
    assert!(err.contains("bucket_size"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
