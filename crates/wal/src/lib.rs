//! Durable partition state for the distributed SemTree — beyond the paper.
//!
//! The paper's cluster keeps every partition's KD-subtree in worker
//! memory only; a single process death loses the partition and forces a
//! full rebuild. This crate is the durability layer underneath
//! `semtree-dist`: a **segmented, append-only, CRC-checksummed
//! write-ahead log** of logical partition events (partition-create,
//! point-insert, leaf-split, leaf-migration), **per-partition
//! snapshots** that truncate the log via segment compaction, and the
//! read-side scan a recovery manager replays to reconstruct the exact
//! partition stores a killed worker was holding.
//!
//! The crate deliberately knows nothing about KD-trees: records carry
//! local node ids and raw points, snapshots carry an opaque store image
//! blob. `semtree-dist` owns both interpretations, and decides when a
//! partition snapshots, so the dependency
//! arrow stays `dist → wal → net` (the WAL reuses the TCP fabric's
//! little-endian [`Encode`]/[`Decode`] codec — one byte-layout contract
//! across the wire *and* the disk).
//!
//! ```
//! use semtree_wal::{Wal, WalOptions, WalRecord};
//!
//! let dir = std::env::temp_dir().join("semtree-wal-doc");
//! let _ = std::fs::remove_dir_all(&dir);
//! let wal = Wal::create(&dir, 1, b"config", WalOptions::default()).unwrap();
//! wal.append(&WalRecord::PointInsert {
//!     partition: 0x0001_0000,
//!     node: 0,
//!     point: vec![1.0, 2.0],
//!     payload: 42,
//! })
//! .unwrap();
//! drop(wal);
//!
//! let state = Wal::load(&dir).unwrap();
//! assert_eq!(state.tail.len(), 1);
//! assert_eq!(state.next_lsn, 2);
//! ```

mod crc32;
mod log;
mod record;

pub use crc32::crc32;
pub use log::{
    PartitionReport, Snapshot, Wal, WalError, WalOptions, WalReport, WalState,
    SNAPSHOT_FORMAT_COLUMNAR,
};
pub use record::WalRecord;
pub use semtree_net::{Decode, Encode};

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("semtree-wal-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn insert(partition: u32, payload: u64) -> WalRecord {
        WalRecord::PointInsert {
            partition,
            node: 0,
            point: vec![payload as f64, -1.0],
            payload,
        }
    }

    #[test]
    fn append_load_round_trips_records_in_lsn_order() {
        let dir = tmpdir("round-trip");
        let wal = Wal::create(&dir, 2, b"cfg", WalOptions::default()).unwrap();
        for i in 0..10 {
            assert_eq!(wal.append(&insert(0x0002_0000, i)).unwrap(), i + 1);
        }
        drop(wal);

        let state = Wal::load(&dir).unwrap();
        assert_eq!(state.process_index, 2);
        assert_eq!(state.config, b"cfg");
        assert!(!state.torn_tail);
        assert_eq!(state.next_lsn, 11);
        let lsns: Vec<u64> = state.tail.iter().map(|&(lsn, _)| lsn).collect();
        assert_eq!(lsns, (1..=10).collect::<Vec<_>>());
        assert_eq!(state.tail[3].1, insert(0x0002_0000, 3));
    }

    /// The durability contract (DESIGN §8): `append` writes and flushes
    /// its frame but does not fsync it, so an acknowledged record
    /// survives the death of this process, not of the machine. Another
    /// reader of the directory sees every record as soon as `append`
    /// returns — no `sync`, the writer still open, and never dropped.
    #[test]
    fn an_appended_record_survives_a_process_crash_without_sync() {
        let dir = tmpdir("process-crash");
        let wal = Wal::create(&dir, 1, b"", WalOptions::default()).unwrap();
        for i in 0..3 {
            let lsn = wal.append(&insert(7, i)).unwrap();
            let state = Wal::load(&dir).unwrap();
            assert!(!state.torn_tail);
            assert_eq!(state.tail.last(), Some(&(lsn, insert(7, i))));
        }
        // A killed process runs no destructor.
        std::mem::forget(wal);
    }

    #[test]
    fn create_refuses_to_overwrite_an_existing_wal() {
        let dir = tmpdir("no-overwrite");
        Wal::create(&dir, 1, b"", WalOptions::default()).unwrap();
        assert!(Wal::exists(&dir));
        let err = Wal::create(&dir, 1, b"", WalOptions::default()).unwrap_err();
        assert!(matches!(err, WalError::Corrupt(_)), "{err}");
    }

    #[test]
    fn resume_continues_lsns_in_a_new_segment() {
        let dir = tmpdir("resume");
        let wal = Wal::create(&dir, 1, b"cfg", WalOptions::default()).unwrap();
        for i in 0..5 {
            wal.append(&insert(7, i)).unwrap();
        }
        drop(wal);

        let (wal, state) = Wal::resume(&dir, WalOptions::default()).unwrap();
        assert_eq!(state.next_lsn, 6);
        assert_eq!(wal.append(&insert(7, 99)).unwrap(), 6);
        drop(wal);

        let state = Wal::load(&dir).unwrap();
        assert_eq!(state.tail.len(), 6);
        assert_eq!(state.tail.last().unwrap().0, 6);
    }

    /// `append` takes the log's one lock for the whole frame, so
    /// concurrent writers get contiguous LSNs and every frame is whole.
    #[test]
    fn lsns_are_contiguous_across_threads() {
        let dir = tmpdir("threads");
        let wal = Wal::create(&dir, 1, b"", WalOptions::default()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let wal = &wal;
                scope.spawn(move || {
                    for i in 0..25 {
                        wal.append(&insert(7, t * 100 + i)).unwrap();
                    }
                });
            }
        });
        drop(wal);

        let state = Wal::load(&dir).unwrap();
        assert!(!state.torn_tail);
        let lsns: Vec<u64> = state.tail.iter().map(|&(lsn, _)| lsn).collect();
        assert_eq!(lsns, (1..=100).collect::<Vec<_>>());
        let mut payloads: Vec<u64> = state
            .tail
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::PointInsert { payload, .. } => Some(*payload),
                _ => None,
            })
            .collect();
        payloads.sort_unstable();
        let want: Vec<u64> = (0..4)
            .flat_map(|t| (0..25).map(move |i| t * 100 + i))
            .collect();
        assert_eq!(payloads, want, "every thread's records load back whole");
    }

    #[test]
    fn snapshots_cover_the_tail_and_compaction_reclaims_segments() {
        let dir = tmpdir("compact");
        // Tiny segments: every record seals one.
        let options = WalOptions::default().with_segment_bytes(1);
        let wal = Wal::create(&dir, 1, b"", options).unwrap();
        for i in 0..4 {
            wal.append(&insert(7, i)).unwrap();
        }
        let covered = wal
            .snapshot(7, SNAPSHOT_FORMAT_COLUMNAR, b"store-image")
            .unwrap();
        assert_eq!(covered, 4);

        // All four sealed segments held only covered records of
        // partition 7 — compaction (run inside snapshot) removed them.
        let state = Wal::load(&dir).unwrap();
        assert_eq!(state.tail.len(), 0, "covered segments were deleted");
        assert_eq!(state.snapshots[&7].blob, b"store-image");
        assert_eq!(state.snapshots[&7].lsn, 4);
        assert_eq!(state.next_lsn, 5, "lsn clock survives compaction");

        // New appends land after the snapshot and stay live.
        wal.append(&insert(7, 100)).unwrap();
        drop(wal);
        let state = Wal::load(&dir).unwrap();
        assert_eq!(state.live_tail().count(), 1);
        assert!(state.covered(7, 4));
        assert!(!state.covered(7, 5));
    }

    /// The files under `segments/`, by name, with their bytes.
    fn segment_files(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir.join("segments"))
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect()
    }

    #[test]
    fn segments_with_uncovered_partitions_survive_compaction() {
        let dir = tmpdir("mixed-compact");
        let options = WalOptions::default().with_segment_bytes(1);
        let wal = Wal::create(&dir, 1, b"", options).unwrap();
        for i in 0..20 {
            wal.append(&insert(7, i)).unwrap();
            wal.append(&insert(8, 100 + i)).unwrap();
        }
        let before = Wal::load(&dir).unwrap();
        let files_before = segment_files(&dir);
        wal.snapshot(7, SNAPSHOT_FORMAT_COLUMNAR, b"seven").unwrap();
        drop(wal);

        // Partition 7's single-record segments died; partition 8's
        // survive, byte for byte the row frames they were appended with.
        let files_after = segment_files(&dir);
        assert_eq!(files_after.len(), 20 + 1, "20 sealed + the open one");
        for (name, bytes) in &files_after {
            assert_eq!(&bytes[..6], b"SSEG\x01\x00", "{name}");
            assert_eq!(Some(bytes), files_before.get(name), "{name}");
        }

        // They reload identical, in LSN order.
        let survivors: Vec<(u64, WalRecord)> = before
            .tail
            .iter()
            .filter(|(_, r)| r.partition() == 8)
            .cloned()
            .collect();
        let after = Wal::load(&dir).unwrap();
        assert_eq!(after.tail, survivors);
        assert_eq!(after.next_lsn, before.next_lsn);

        // And resume keeps appending on top of them.
        let (wal, state) = Wal::resume(&dir, options).unwrap();
        let lsn = wal.append(&insert(8, 999)).unwrap();
        assert_eq!(lsn, state.next_lsn);
        drop(wal);
        let reloaded = Wal::load(&dir).unwrap();
        assert_eq!(reloaded.tail[..20], survivors[..]);
        assert_eq!(reloaded.tail[20..], [(lsn, insert(8, 999))]);
    }

    #[test]
    fn a_snapshot_that_kills_the_current_segment_leaves_one_open_segment() {
        let dir = tmpdir("dead-current");
        let wal = Wal::create(&dir, 1, b"", WalOptions::default()).unwrap();
        for i in 0..3 {
            wal.append(&insert(7, i)).unwrap();
        }
        wal.snapshot(7, SNAPSHOT_FORMAT_COLUMNAR, b"seven").unwrap();
        let files = segment_files(&dir);
        let names: Vec<&str> = files.keys().map(String::as_str).collect();
        assert_eq!(names, ["seg-000002.wal"], "no sealed file is left");
        assert_eq!(files["seg-000002.wal"], b"SSEG\x01\x00", "empty, open");
        drop(wal);
    }

    #[test]
    fn a_torn_final_record_is_tolerated_and_flagged() {
        let dir = tmpdir("torn");
        let wal = Wal::create(&dir, 1, b"", WalOptions::default()).unwrap();
        for i in 0..3 {
            wal.append(&insert(7, i)).unwrap();
        }
        drop(wal);

        // Chop bytes off the single segment's tail — a crash mid-write.
        let seg = std::fs::read_dir(dir.join("segments"))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();

        let state = Wal::load(&dir).unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.tail.len(), 2, "intact prefix records survive");
        assert_eq!(state.next_lsn, 3);

        // Resume cuts the torn tail off and starts a fresh segment;
        // appends keep working.
        let (wal, _) = Wal::resume(&dir, WalOptions::default()).unwrap();
        assert_eq!(wal.append(&insert(7, 9)).unwrap(), 3);
    }

    /// A torn tail that `resume` inherits is cut off before the next
    /// segment opens: a process that then dies before any snapshot or
    /// compaction leaves a directory that loads and resumes again with
    /// the intact prefix plus what the resumed session appended.
    fn assert_second_restart_recovers(dir: &std::path::Path, intact: &[(u64, WalRecord)]) {
        let (wal, state) = Wal::resume(dir, WalOptions::default()).unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.tail, intact);
        let lsn = wal.append(&insert(7, 9)).unwrap();
        drop(wal);

        let mut want = intact.to_vec();
        want.push((lsn, insert(7, 9)));
        let state = Wal::load(dir).unwrap();
        assert!(!state.torn_tail);
        assert_eq!(state.tail, want);
        let (_wal, state) = Wal::resume(dir, WalOptions::default()).unwrap();
        assert_eq!(state.tail, want);
    }

    #[test]
    fn resume_cuts_a_torn_frame_so_a_second_restart_recovers() {
        let dir = tmpdir("torn-frame-twice");
        let wal = Wal::create(&dir, 1, b"", WalOptions::default()).unwrap();
        for i in 0..3 {
            wal.append(&insert(7, i)).unwrap();
        }
        drop(wal);
        let seg = dir.join("segments").join("seg-000001.wal");
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();

        assert_second_restart_recovers(&dir, &[(1, insert(7, 0)), (2, insert(7, 1))]);
        let cut = std::fs::read(&seg).unwrap();
        assert!(
            bytes.starts_with(&cut) && cut.len() < bytes.len() - 5,
            "cut to whole frames"
        );
    }

    #[test]
    fn resume_removes_a_partial_segment_header_so_a_second_restart_recovers() {
        let dir = tmpdir("torn-header-twice");
        let wal = Wal::create(&dir, 1, b"", WalOptions::default()).unwrap();
        for i in 0..2 {
            wal.append(&insert(7, i)).unwrap();
        }
        drop(wal);
        // A crash between creating segment 2 and flushing its header.
        let partial = dir.join("segments").join("seg-000002.wal");
        std::fs::write(&partial, b"SSE").unwrap();

        assert_second_restart_recovers(&dir, &[(1, insert(7, 0)), (2, insert(7, 1))]);
        assert!(!partial.exists(), "the partial segment is removed");
        // … and forgotten: compaction in the resumed session skips it and
        // reclaims the empty segment 4 the last resume opened.
        std::fs::write(dir.join("segments").join("seg-000005.wal"), b"SS").unwrap();
        let (wal, _) = Wal::resume(&dir, WalOptions::default()).unwrap();
        assert_eq!(wal.compact().unwrap(), 1);
    }

    #[test]
    fn corruption_in_an_interior_segment_is_an_error() {
        let dir = tmpdir("interior-corrupt");
        let options = WalOptions::default().with_segment_bytes(1);
        let wal = Wal::create(&dir, 1, b"", options).unwrap();
        wal.append(&insert(7, 0)).unwrap();
        wal.append(&insert(7, 1)).unwrap();
        drop(wal);

        // Flip a payload byte in the FIRST segment (not the newest).
        let mut paths: Vec<_> = std::fs::read_dir(dir.join("segments"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        paths.sort();
        let mut bytes = std::fs::read(&paths[0]).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&paths[0], &bytes).unwrap();

        let err = Wal::load(&dir).unwrap_err();
        assert!(matches!(err, WalError::Corrupt(_)), "{err}");
    }

    #[test]
    fn snapshot_files_with_bad_checksums_are_rejected() {
        let dir = tmpdir("snap-corrupt");
        let wal = Wal::create(&dir, 1, b"", WalOptions::default()).unwrap();
        wal.append(&insert(7, 0)).unwrap();
        wal.snapshot(7, SNAPSHOT_FORMAT_COLUMNAR, b"image").unwrap();
        drop(wal);

        let snap = dir.join("snapshots").join("part-7.snap");
        let mut bytes = std::fs::read(&snap).unwrap();
        bytes[8] ^= 0x01;
        std::fs::write(&snap, &bytes).unwrap();

        let err = Wal::load(&dir).unwrap_err();
        assert!(matches!(err, WalError::Corrupt(_)), "{err}");
    }

    /// A loadable directory — open segment 2, one snapshot of partition 7
    /// — for the retired-generation tests to overwrite with hand-built bytes.
    fn healthy_dir(name: &str) -> PathBuf {
        let dir = tmpdir(name);
        let wal = Wal::create(&dir, 1, b"cfg", WalOptions::default()).unwrap();
        wal.append(&insert(7, 0)).unwrap();
        wal.snapshot(7, SNAPSHOT_FORMAT_COLUMNAR, b"image").unwrap();
        wal.append(&insert(7, 1)).unwrap();
        drop(wal);
        Wal::load(&dir).expect("untouched directory loads");
        dir
    }

    fn assert_unsupported_generation(dir: &std::path::Path) {
        match Wal::load(dir) {
            Err(WalError::Corrupt(msg)) => assert!(msg.contains("unsupported generation"), "{msg}"),
            other => panic!("expected WalError::Corrupt, got {other:?}"),
        }
    }

    /// A checksummed snapshot file of partition 7 at LSN 1: `SNAP`,
    /// `version`, partition, lsn, `tail` (what the generation under test
    /// puts before the blob), blob, crc.
    fn write_snapshot_file(dir: &std::path::Path, version: u32, tail: &[u8]) {
        let mut body = Vec::new();
        (u32::from_le_bytes(*b"SNAP"), version, 7u32, 1u64).encode(&mut body);
        body.extend_from_slice(tail);
        b"image".to_vec().encode(&mut body);
        crc32(&body).encode(&mut body);
        std::fs::write(dir.join("snapshots").join("part-7.snap"), body).unwrap();
    }

    #[test]
    fn headerless_v0_segments_are_rejected_as_corrupt() {
        let dir = healthy_dir("v0-segment");
        // What a pre-SSEG build wrote: `[u32 len][u32 crc][u64 lsn][record]`
        // row frames from byte 0.
        let payload = (2u64, insert(7, 1)).to_bytes();
        let mut v0 = (u32::try_from(payload.len()).unwrap(), crc32(&payload)).to_bytes();
        v0.extend_from_slice(&payload);
        std::fs::write(dir.join("segments").join("seg-000002.wal"), v0).unwrap();
        assert_unsupported_generation(&dir);
    }

    #[test]
    fn codec_1_columnar_segments_are_rejected_as_corrupt() {
        let dir = healthy_dir("codec-1-segment");
        // What the retired seal-time rewrite wrote: the header with codec
        // byte 1, then `[u32 len][u32 crc]` and one columnar block.
        let block = b"block".to_vec();
        let mut seg = b"SSEG\x01\x01".to_vec();
        (u32::try_from(block.len()).unwrap(), crc32(&block)).encode(&mut seg);
        seg.extend_from_slice(&block);
        std::fs::write(dir.join("segments").join("seg-000002.wal"), seg).unwrap();
        assert_unsupported_generation(&dir);
    }

    #[test]
    fn v1_snapshot_files_are_rejected_as_corrupt() {
        let dir = healthy_dir("v1-snapshot");
        // Version word 1, no payload-format byte before the blob.
        write_snapshot_file(&dir, 1, &[]);
        assert_unsupported_generation(&dir);
    }

    #[test]
    fn v2_snapshots_with_an_unknown_format_byte_are_rejected_as_corrupt() {
        let dir = healthy_dir("v2-unknown-format");
        // The hand-built layout is the real one: format 1 loads …
        write_snapshot_file(&dir, 2, &[SNAPSHOT_FORMAT_COLUMNAR]);
        assert_eq!(Wal::load(&dir).unwrap().snapshots[&7].blob, b"image");
        // … the retired verbatim format (0) and a never-assigned one don't,
        // and the writer refuses to produce them in the first place.
        let (wal, _) = Wal::resume(&dir, WalOptions::default()).unwrap();
        for format in [0u8, 9] {
            assert!(matches!(
                wal.snapshot(8, format, b"image"),
                Err(WalError::Corrupt(_))
            ));
            write_snapshot_file(&dir, 2, &[format]);
            assert_unsupported_generation(&dir);
        }
    }

    #[test]
    fn v2_snapshots_carry_their_payload_format() {
        let dir = tmpdir("snap-format");
        let wal = Wal::create(&dir, 1, b"", WalOptions::default()).unwrap();
        wal.append(&insert(7, 0)).unwrap();
        wal.snapshot(7, SNAPSHOT_FORMAT_COLUMNAR, b"columns")
            .unwrap();
        drop(wal);

        let snap = std::fs::read(dir.join("snapshots").join("part-7.snap")).unwrap();
        assert_eq!(u32::from_le_bytes(snap[4..8].try_into().unwrap()), 2);

        let state = Wal::load(&dir).unwrap();
        assert_eq!(state.snapshots[&7].format, SNAPSHOT_FORMAT_COLUMNAR);
        assert_eq!(state.snapshots[&7].blob, b"columns");
    }

    #[test]
    fn inspect_summarises_partitions_and_kinds() {
        let dir = tmpdir("inspect");
        let wal = Wal::create(&dir, 3, b"", WalOptions::default()).unwrap();
        wal.append(&WalRecord::PartitionCreate {
            partition: 7,
            depth: 1,
            bucket: vec![(vec![0.0], 0)],
        })
        .unwrap();
        wal.append(&insert(7, 1)).unwrap();
        wal.append(&insert(7, 2)).unwrap();
        wal.append(&WalRecord::LeafSplit {
            partition: 7,
            leaf: 0,
            split_dim: 0,
            split_val: 1.0,
            left: 1,
            right: 2,
        })
        .unwrap();
        wal.append(&WalRecord::LeafMigration {
            partition: 7,
            evicted: 2,
            target_partition: 9,
            target_node: 0,
        })
        .unwrap();
        drop(wal);

        let report = Wal::inspect(&dir).unwrap();
        assert_eq!(report.process_index, 3);
        assert_eq!(report.records, 5);
        assert_eq!(report.live_records, 5);
        assert_eq!(report.partitions.len(), 1);
        let p = &report.partitions[0];
        assert_eq!((p.creates, p.inserts, p.splits, p.migrations), (1, 2, 1, 1));
        let text = report.to_string();
        assert!(text.contains("process-index: 3"), "{text}");
        assert!(text.contains("1 creates, 2 inserts"), "{text}");
    }
}
