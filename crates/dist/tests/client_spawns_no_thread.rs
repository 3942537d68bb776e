//! `PipelinedClient::connect` starts no thread: replies are read by
//! whoever waits for one. Alone in its test binary, so no sibling test
//! moves the process's thread count while it is being compared.

#![cfg(target_os = "linux")]

use std::net::TcpListener;
use std::time::Duration;

use semtree_dist::PipelinedClient;

fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

#[test]
fn connecting_leaves_the_thread_count_where_it_was() {
    // The kernel completes the handshake from the listen backlog; nobody
    // needs to accept for `connect` to return.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let before = tasks();
    let mut client = PipelinedClient::connect(addr, Duration::from_secs(5)).expect("connect");
    assert_eq!(tasks(), before, "connect spawned a thread");
    let pending = client.knn(&[0.0, 0.0], 1).expect("submit");
    let unanswered = pending.wait_timeout(Duration::from_millis(20)).unwrap_err();
    assert_eq!(unanswered.kind(), std::io::ErrorKind::TimedOut);
    assert_eq!(tasks(), before, "submitting or waiting spawned a thread");
}
