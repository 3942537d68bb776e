//! The on-disk log: manifest, segment files, per-partition snapshot
//! files, and the [`Wal`] manager that owns them.
//!
//! # Layout
//!
//! ```text
//! <wal-dir>/
//!   MANIFEST                  magic, version, process index, config blob, crc
//!   segments/seg-000001.wal   "SSEG" ver codec, then [u32 len][u32 crc][u64 lsn][record]…
//!   snapshots/part-65537.snap magic, version, partition, covered lsn, format, blob, crc
//! ```
//!
//! Every segment file starts with a 6-byte header (`SSEG`, version,
//! codec) followed by row-oriented record frames (codec 0). A segment
//! holds the frames it was appended with from creation until
//! compaction deletes it; nothing re-encodes it. Every snapshot file is
//! the version-2 layout, whose payload-format byte is
//! [`SNAPSHOT_FORMAT_COLUMNAR`]. Files of the three retired generations
//! (headerless v0 segments, codec-1 columnar segments, version-1 or
//! verbatim-format snapshots) are rejected as [`WalError::Corrupt`],
//! naming the generation.
//!
//! Every record frame and every snapshot file is CRC-32 checksummed.
//! Appends are written and flushed record-by-record (a killed *process*
//! loses nothing; surviving a machine crash would additionally need the
//! `sync_data` that rotation, snapshots and [`Wal::sync`] perform).
//! Manifest and snapshot files are written to a `.tmp` sibling and
//! renamed into place so readers never observe a half-written file.
//!
//! A crash mid-append leaves a torn final frame (or a partial header)
//! in the newest segment. [`Wal::load`] and [`Wal::inspect`] tolerate it
//! there and report it; [`Wal::resume`] cuts it off before it opens the
//! next segment, so no segment it leaves behind is torn.
//!
//! # Snapshots and compaction
//!
//! A snapshot of partition `p` at LSN `n` makes every record of `p` with
//! `lsn ≤ n` dead. A **sealed** segment is deleted once, for every
//! partition appearing in it, the partition's snapshot LSN has reached
//! the segment's highest LSN for that partition. Taking a snapshot seals
//! the current segment when that makes it immediately reclaimable, so a
//! quiescent worker's WAL directory stays at one manifest, one snapshot
//! per partition, and one (empty) open segment.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use semtree_conc::sync::Mutex;

use semtree_net::{decode_exact, Decode, DecodeError, Encode};

use crate::crc32::crc32;
use crate::record::WalRecord;

/// `b"SWAL"` — first four bytes of a manifest.
const MANIFEST_MAGIC: u32 = u32::from_le_bytes(*b"SWAL");
/// `b"SNAP"` — first four bytes of a snapshot file.
const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b"SNAP");
/// On-disk format version of the manifest.
const FORMAT_VERSION: u32 = 1;
/// Upper bound on a single record frame; larger lengths mean corruption.
const MAX_RECORD_LEN: u32 = 256 * 1024 * 1024;

/// `b"SSEG"` — first four bytes of every segment file.
const SEGMENT_MAGIC: [u8; 4] = *b"SSEG";
/// Version byte following the segment magic.
const SEGMENT_VERSION: u8 = 1;
/// Segment codec byte: row-oriented record frames, the one codec this
/// build writes and reads (codec 1, a columnar block, is retired).
const SEGMENT_CODEC_ROWS: u8 = 0;
/// Total length of a segment header: magic, version, codec.
const SEGMENT_HEADER_LEN: usize = 6;

/// The snapshot file version: a payload-format byte precedes the blob.
const SNAPSHOT_VERSION: u32 = 2;

/// The snapshot payload format: the blob is a columnar-compressed store
/// image (`semtree-dist` owns the column layout).
pub const SNAPSHOT_FORMAT_COLUMNAR: u8 = 1;

/// A WAL failure: I/O, or on-disk state that fails validation.
#[derive(Debug)]
pub enum WalError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A file is malformed: bad magic, bad checksum, truncated interior
    /// segment, or an undecodable record.
    Corrupt(String),
    /// An append failed and its partial frame could not be cut off the
    /// open segment, so this log refuses every append until
    /// [`Wal::resume`] repairs it.
    Torn,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(msg) => write!(f, "wal corrupt: {msg}"),
            WalError::Torn => f.write_str(
                "wal refuses appends: a failed append left a partial frame; resume the log",
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<DecodeError> for WalError {
    fn from(e: DecodeError) -> Self {
        WalError::Corrupt(e.to_string())
    }
}

/// Tuning knobs for the log.
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Seal the current segment once it holds at least this many bytes.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 4 * 1024 * 1024,
        }
    }
}

impl WalOptions {
    /// Seal segments at this size (consuming builder, like the
    /// `with_*` methods on `KdConfig`/`DistConfig`).
    #[must_use]
    pub fn with_segment_bytes(mut self, segment_bytes: u64) -> Self {
        self.segment_bytes = segment_bytes;
        self
    }
}

/// A decoded snapshot: the opaque store image of one partition and the
/// LSN up to which it covers the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Compute-node id of the partition.
    pub partition: u32,
    /// Every record of this partition with `lsn ≤` this is superseded.
    pub lsn: u64,
    /// Payload format of `blob` ([`SNAPSHOT_FORMAT_COLUMNAR`]).
    pub format: u8,
    /// The serialized store (opaque to the WAL; `semtree-dist` owns the
    /// format).
    pub blob: Vec<u8>,
}

/// Everything a recovery manager needs: the manifest identity, the
/// latest snapshot per partition, and the full record tail in LSN order.
#[derive(Debug, Clone)]
pub struct WalState {
    /// Process index recorded at `create` time (the worker's slot in the
    /// cluster).
    pub process_index: u32,
    /// The deployment config blob recorded at `create` time.
    pub config: Vec<u8>,
    /// Latest snapshot per partition.
    pub snapshots: BTreeMap<u32, Snapshot>,
    /// All records still present in segment files, ascending LSN.
    /// Records covered by a snapshot may still appear here (compaction
    /// is per-segment); filter with [`WalState::covered`].
    pub tail: Vec<(u64, WalRecord)>,
    /// The LSN the next append would receive.
    pub next_lsn: u64,
    /// True when the final segment ended in a torn (partially written)
    /// record — the expected signature of a crash mid-append.
    pub torn_tail: bool,
}

impl WalState {
    /// Is this record superseded by its partition's snapshot?
    pub fn covered(&self, partition: u32, lsn: u64) -> bool {
        self.snapshots
            .get(&partition)
            .is_some_and(|snap| snap.lsn >= lsn)
    }

    /// The records replay must apply: tail entries not covered by a
    /// snapshot, ascending LSN.
    pub fn live_tail(&self) -> impl Iterator<Item = &(u64, WalRecord)> {
        self.tail
            .iter()
            .filter(|(lsn, record)| !self.covered(record.partition(), *lsn))
    }
}

struct Inner {
    file: File,
    segment_index: u64,
    /// Bytes of whole frames in the open segment, after its header.
    segment_written: u64,
    next_lsn: u64,
    /// A failed append's partial frame could not be cut off: every later
    /// append is refused.
    torn: bool,
    /// partition → highest LSN written for it in the *current* segment.
    current_coverage: HashMap<u32, u64>,
    /// sealed segment index → partition → highest LSN for it there.
    sealed: BTreeMap<u64, HashMap<u32, u64>>,
    snapshot_lsn: HashMap<u32, u64>,
}

/// The write-ahead log manager: one per worker process, shared by all
/// partition actors of that process.
pub struct Wal {
    dir: PathBuf,
    process_index: u32,
    options: WalOptions,
    inner: Mutex<Inner>,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("process_index", &self.process_index)
            .finish_non_exhaustive()
    }
}

fn segments_dir(dir: &Path) -> PathBuf {
    dir.join("segments")
}

fn snapshots_dir(dir: &Path) -> PathBuf {
    dir.join("snapshots")
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    segments_dir(dir).join(format!("seg-{index:06}.wal"))
}

fn snapshot_path(dir: &Path, partition: u32) -> PathBuf {
    snapshots_dir(dir).join(format!("part-{partition}.snap"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

/// Write `bytes` to `path` atomically: `.tmp` sibling, sync, rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), WalError> {
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;
    Ok(())
}

fn checksummed(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    crc.encode(&mut body);
    body
}

fn verify_checksum<'a>(path: &Path, bytes: &'a [u8]) -> Result<&'a [u8], WalError> {
    let Some((body, tail)) = bytes.split_last_chunk::<4>() else {
        return Err(WalError::Corrupt(format!("{} too short", path.display())));
    };
    let want = u32::from_le_bytes(*tail);
    if crc32(body) != want {
        return Err(WalError::Corrupt(format!(
            "{} checksum mismatch",
            path.display()
        )));
    }
    Ok(body)
}

impl Wal {
    /// Does `dir` already hold an initialised WAL (a manifest)?
    pub fn exists(dir: &Path) -> bool {
        manifest_path(dir).is_file()
    }

    /// Initialise a fresh WAL directory for a worker. Fails if one is
    /// already present (use [`Wal::resume`] to pick it back up).
    pub fn create(
        dir: &Path,
        process_index: u32,
        config: &[u8],
        options: WalOptions,
    ) -> Result<Wal, WalError> {
        if Wal::exists(dir) {
            return Err(WalError::Corrupt(format!(
                "{} already holds a WAL; refusing to overwrite",
                dir.display()
            )));
        }
        fs::create_dir_all(segments_dir(dir))?;
        fs::create_dir_all(snapshots_dir(dir))?;

        let mut body = Vec::new();
        MANIFEST_MAGIC.encode(&mut body);
        FORMAT_VERSION.encode(&mut body);
        process_index.encode(&mut body);
        config.to_vec().encode(&mut body);
        write_atomic(&manifest_path(dir), &checksummed(body))?;

        let file = open_segment(dir, 1)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            process_index,
            options,
            inner: Mutex::new(Inner {
                file,
                segment_index: 1,
                segment_written: 0,
                next_lsn: 1,
                torn: false,
                current_coverage: HashMap::new(),
                sealed: BTreeMap::new(),
                snapshot_lsn: HashMap::new(),
            }),
        })
    }

    /// Re-open an existing WAL for appending: scan it, return the
    /// recovered [`WalState`], and start a fresh segment after the
    /// highest existing one. A torn tail is repaired first: the newest
    /// segment is cut back to its last whole frame (or removed, if not
    /// even its header was written) and synced, so it can sit behind
    /// the new segment as an ordinary sealed one.
    pub fn resume(dir: &Path, options: WalOptions) -> Result<(Wal, WalState), WalError> {
        let mut scan = scan(dir)?;
        let next_segment = scan.segments.last().map_or(1, |s| s.index + 1);
        if let Some(torn) = scan.torn {
            let path = segment_path(dir, torn.index);
            if torn.intact < SEGMENT_HEADER_LEN as u64 {
                // Only the newest segment tears; it held no record.
                fs::remove_file(&path)?;
                scan.segments.pop();
            } else {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(torn.intact)?;
                file.sync_data()?;
            }
        }
        let file = open_segment(dir, next_segment)?;

        // LSNs ascend within a segment, so each partition's last record
        // there is its highest.
        let sealed = scan
            .segments
            .iter()
            .map(|segment| {
                let coverage = segment.records.iter();
                let coverage = coverage.map(|(lsn, record)| (record.partition(), *lsn));
                (segment.index, coverage.collect())
            })
            .collect();
        let snapshot_lsn: HashMap<u32, u64> = scan
            .snapshots
            .iter()
            .map(|(&p, snap)| (p, snap.lsn))
            .collect();

        let state = scan.into_state();
        let wal = Wal {
            dir: dir.to_path_buf(),
            process_index: state.process_index,
            options,
            inner: Mutex::new(Inner {
                file,
                segment_index: next_segment,
                segment_written: 0,
                next_lsn: state.next_lsn,
                torn: false,
                current_coverage: HashMap::new(),
                sealed,
                snapshot_lsn,
            }),
        };
        Ok((wal, state))
    }

    /// Read-only scan of a WAL directory (what `semtree recover` and the
    /// recovery manager consume).
    pub fn load(dir: &Path) -> Result<WalState, WalError> {
        Ok(scan(dir)?.into_state())
    }

    /// Append one record and return its LSN (the first is 1). The
    /// frame is written and flushed before this returns, so a caller
    /// that applies the state change *after* logging it can never have
    /// applied a mutation whose record another reader cannot load.
    ///
    /// A failed write takes no LSN and leaves no bytes behind: the open
    /// segment is cut back to its last whole frame, so a later record
    /// is never written behind a partial one. If even the cut fails,
    /// this and every later append return [`WalError::Torn`] until
    /// [`Wal::resume`] repairs the segment.
    pub fn append(&self, record: &WalRecord) -> Result<u64, WalError> {
        let mut inner = self.inner.lock();
        if inner.torn {
            return Err(WalError::Torn);
        }
        let lsn = inner.next_lsn;

        let mut payload = Vec::with_capacity(16 + record.encoded_len());
        lsn.encode(&mut payload);
        record.encode(&mut payload);
        let mut frame = Vec::with_capacity(8 + payload.len());
        let payload_len = u32::try_from(payload.len()).map_err(|_| {
            WalError::Corrupt(format!(
                "record payload {}B exceeds u32 framing",
                payload.len()
            ))
        })?;
        payload_len.encode(&mut frame);
        crc32(&payload).encode(&mut frame);
        frame.extend_from_slice(&payload);

        if let Err(e) = inner
            .file
            .write_all(&frame)
            .and_then(|()| inner.file.flush())
        {
            // The segment is opened for appending, so the next write
            // lands wherever this cut leaves its end.
            let intact = SEGMENT_HEADER_LEN as u64 + inner.segment_written;
            let cut = OpenOptions::new()
                .write(true)
                .open(segment_path(&self.dir, inner.segment_index))
                .and_then(|file| file.set_len(intact));
            inner.torn = cut.is_err();
            return Err(e.into());
        }
        inner.next_lsn += 1;
        inner.segment_written += frame.len() as u64;
        let top = inner
            .current_coverage
            .entry(record.partition())
            .or_insert(0);
        *top = (*top).max(lsn);
        if inner.segment_written >= self.options.segment_bytes {
            Self::seal_in(&self.dir, &mut inner)?;
        }
        Ok(lsn)
    }

    /// Persist a snapshot of `partition` covering everything appended so
    /// far, then reclaim any segments it makes fully dead. `format` tags
    /// how the blob is encoded and must be [`SNAPSHOT_FORMAT_COLUMNAR`],
    /// the one format [`Wal::load`] reads back. Returns the covered LSN.
    pub fn snapshot(&self, partition: u32, format: u8, blob: &[u8]) -> Result<u64, WalError> {
        check_snapshot_format(format)?;
        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn - 1;

        let mut body = Vec::new();
        SNAPSHOT_MAGIC.encode(&mut body);
        SNAPSHOT_VERSION.encode(&mut body);
        partition.encode(&mut body);
        lsn.encode(&mut body);
        body.push(format);
        blob.to_vec().encode(&mut body);
        write_atomic(&snapshot_path(&self.dir, partition), &checksummed(body))?;

        inner.snapshot_lsn.insert(partition, lsn);

        // Seal the current segment when the snapshot just made all of it
        // reclaimable, so compaction can delete it right away.
        let current_dead = inner.segment_written > 0
            && inner
                .current_coverage
                .iter()
                .all(|(p, &top)| inner.snapshot_lsn.get(p).copied().unwrap_or(0) >= top);
        if current_dead {
            Self::seal_in(&self.dir, &mut inner)?;
        }
        self.compact_locked(&mut inner)?;
        Ok(lsn)
    }

    /// Delete every sealed segment whose records are all covered by
    /// snapshots. Returns how many segment files were removed.
    pub fn compact(&self) -> Result<usize, WalError> {
        let mut inner = self.inner.lock();
        self.compact_locked(&mut inner)
    }

    /// `sync_data` the current segment (rotation and snapshots already
    /// sync what they seal/write).
    pub fn sync(&self) -> Result<(), WalError> {
        let inner = self.inner.lock();
        inner.file.sync_data()?;
        Ok(())
    }

    /// Summarise a WAL directory without mutating it.
    pub fn inspect(dir: &Path) -> Result<WalReport, WalError> {
        WalReport::from_state(dir, &Wal::load(dir)?)
    }

    fn seal_in(dir: &Path, inner: &mut Inner) -> Result<(), WalError> {
        inner.file.sync_data()?;
        let coverage = std::mem::take(&mut inner.current_coverage);
        inner.sealed.insert(inner.segment_index, coverage);
        inner.segment_index += 1;
        inner.segment_written = 0;
        inner.file = open_segment(dir, inner.segment_index)?;
        Ok(())
    }

    fn compact_locked(&self, inner: &mut Inner) -> Result<usize, WalError> {
        let dead: Vec<u64> = inner
            .sealed
            .iter()
            .filter(|(_, coverage)| {
                coverage
                    .iter()
                    .all(|(p, &top)| inner.snapshot_lsn.get(p).copied().unwrap_or(0) >= top)
            })
            .map(|(&index, _)| index)
            .collect();
        for index in &dead {
            fs::remove_file(segment_path(&self.dir, *index))?;
            inner.sealed.remove(index);
        }
        Ok(dead.len())
    }
}

/// The 6-byte header every segment file starts with.
const SEGMENT_HEADER: [u8; SEGMENT_HEADER_LEN] = {
    let [m0, m1, m2, m3] = SEGMENT_MAGIC;
    [m0, m1, m2, m3, SEGMENT_VERSION, SEGMENT_CODEC_ROWS]
};

fn open_segment(dir: &Path, index: u64) -> Result<File, WalError> {
    let path = segment_path(dir, index);
    let mut file = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(path)?;
    file.write_all(&SEGMENT_HEADER)?;
    file.flush()?;
    Ok(file)
}

struct SegmentScan {
    index: u64,
    records: Vec<(u64, WalRecord)>,
}

/// Where the newest segment tears: its index and the length of its
/// intact prefix (header plus whole frames; less than a header when
/// only part of the header was written).
#[derive(Clone, Copy)]
struct TornTail {
    index: u64,
    intact: u64,
}

struct Scan {
    process_index: u32,
    config: Vec<u8>,
    segments: Vec<SegmentScan>,
    snapshots: BTreeMap<u32, Snapshot>,
    torn: Option<TornTail>,
}

impl Scan {
    fn into_state(self) -> WalState {
        let mut tail = Vec::new();
        for segment in self.segments {
            tail.extend(segment.records);
        }
        let mut next_lsn = tail.iter().map(|&(lsn, _)| lsn + 1).max().unwrap_or(1);
        for snap in self.snapshots.values() {
            next_lsn = next_lsn.max(snap.lsn + 1);
        }
        WalState {
            process_index: self.process_index,
            config: self.config,
            snapshots: self.snapshots,
            tail,
            next_lsn,
            torn_tail: self.torn.is_some(),
        }
    }
}

fn scan(dir: &Path) -> Result<Scan, WalError> {
    let manifest_file = manifest_path(dir);
    let bytes = fs::read(&manifest_file)?;
    let body = verify_checksum(&manifest_file, &bytes)?;
    let (magic, version, process_index, config): (u32, u32, u32, Vec<u8>) = decode_exact(body)?;
    if magic != MANIFEST_MAGIC {
        return Err(WalError::Corrupt(format!(
            "{} has bad magic {magic:#x}",
            manifest_file.display()
        )));
    }
    if version != FORMAT_VERSION {
        return Err(WalError::Corrupt(format!(
            "unsupported WAL format version {version}"
        )));
    }

    let mut indices = Vec::new();
    for entry in fs::read_dir(segments_dir(dir))? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(index) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".wal"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            indices.push(index);
        }
    }
    indices.sort_unstable();

    let mut segments = Vec::new();
    let mut torn = None;
    for (pos, &index) in indices.iter().enumerate() {
        let last = pos + 1 == indices.len();
        let (segment, intact) = read_segment(dir, index, last)?;
        if let Some(intact) = intact {
            torn = Some(TornTail { index, intact });
        }
        segments.push(segment);
    }

    let mut snapshots = BTreeMap::new();
    if snapshots_dir(dir).is_dir() {
        for entry in fs::read_dir(snapshots_dir(dir))? {
            let path = entry?.path();
            if path.extension().is_some_and(|ext| ext == "snap") {
                let snap = read_snapshot(&path)?;
                snapshots.insert(snap.partition, snap);
            }
        }
    }

    Ok(Scan {
        process_index,
        config,
        segments,
        snapshots,
        torn,
    })
}

/// Read one segment file. `last` tolerates a partial header or a torn
/// final frame, the signature of a crash mid-append in the newest
/// segment; the second value is then the length of the intact prefix.
fn read_segment(
    dir: &Path,
    index: u64,
    last: bool,
) -> Result<(SegmentScan, Option<u64>), WalError> {
    let path = segment_path(dir, index);
    let bytes = fs::read(&path)?;

    if bytes.len() < SEGMENT_HEADER_LEN && SEGMENT_MAGIC.starts_with(&bytes[..bytes.len().min(4)]) {
        // A crash between create and header flush leaves an empty file
        // (nothing to lose) or a partial header — the latter only
        // acceptable in the newest segment.
        if bytes.is_empty() || last {
            let torn = (!bytes.is_empty()).then_some(0);
            let records = Vec::new();
            return Ok((SegmentScan { index, records }, torn));
        }
        return Err(WalError::Corrupt(format!(
            "{}: truncated segment header",
            path.display()
        )));
    }
    if !bytes.starts_with(&SEGMENT_MAGIC) {
        return Err(WalError::Corrupt(format!(
            "{}: no SSEG header — headerless v0 segments are an unsupported generation",
            path.display()
        )));
    }
    if bytes[4] != SEGMENT_VERSION {
        return Err(WalError::Corrupt(format!(
            "{}: unsupported segment version {}",
            path.display(),
            bytes[4]
        )));
    }
    match bytes[5] {
        SEGMENT_CODEC_ROWS => {}
        1 => {
            return Err(WalError::Corrupt(format!(
                "{}: codec 1 (one columnar block) is an unsupported generation \
                 (this build reads codec {SEGMENT_CODEC_ROWS}, row frames)",
                path.display()
            )))
        }
        codec => {
            return Err(WalError::Corrupt(format!(
                "{}: unsupported segment codec {codec}",
                path.display()
            )))
        }
    }
    let body = &bytes[SEGMENT_HEADER_LEN..];
    let (records, whole) = scan_row_frames(&path, body, last)?;
    let intact = (whole < body.len()).then_some((SEGMENT_HEADER_LEN + whole) as u64);
    Ok((SegmentScan { index, records }, intact))
}

/// Scan row frames, tolerating a torn final frame when `last`; the
/// second value is how many bytes of `body` are whole frames (all of
/// them unless the tail is torn).
fn scan_row_frames(
    path: &Path,
    body: &[u8],
    last: bool,
) -> Result<(Vec<(u64, WalRecord)>, usize), WalError> {
    let mut records = Vec::new();
    let mut rest: &[u8] = body;
    while !rest.is_empty() {
        let frame_ok = (|| -> Result<Option<(u64, WalRecord)>, WalError> {
            if rest.len() < 8 {
                return Ok(None);
            }
            let mut header = rest;
            let len = u32::decode(&mut header)?;
            let crc = u32::decode(&mut header)?;
            if len > MAX_RECORD_LEN {
                return Err(WalError::Corrupt(format!(
                    "{}: record length {len} exceeds {MAX_RECORD_LEN}",
                    path.display()
                )));
            }
            let len = len as usize;
            if rest.len() < 8 + len {
                return Ok(None);
            }
            let payload = &rest[8..8 + len];
            if crc32(payload) != crc {
                return Ok(None);
            }
            let (lsn, record): (u64, WalRecord) = decode_exact(payload)?;
            rest = &rest[8 + len..];
            Ok(Some((lsn, record)))
        })();
        match frame_ok {
            Ok(Some((lsn, record))) => {
                records.push((lsn, record));
            }
            Ok(None) if last => {
                // A partial or checksum-failing frame at the very tail of
                // the newest segment is the signature of a crash mid
                // append: everything before it is intact.
                break;
            }
            Ok(None) => {
                return Err(WalError::Corrupt(format!(
                    "{}: truncated or corrupt record in interior segment",
                    path.display()
                )));
            }
            Err(e) => return Err(e),
        }
    }

    Ok((records, body.len() - rest.len()))
}

/// The one payload format this build writes and reads.
fn check_snapshot_format(format: u8) -> Result<(), WalError> {
    if format == SNAPSHOT_FORMAT_COLUMNAR {
        Ok(())
    } else {
        Err(WalError::Corrupt(format!(
            "snapshot payload format {format} is an unsupported generation \
             (this build reads format {SNAPSHOT_FORMAT_COLUMNAR})"
        )))
    }
}

fn read_snapshot(path: &Path) -> Result<Snapshot, WalError> {
    let bytes = fs::read(path)?;
    let body = verify_checksum(path, &bytes)?;
    let mut rest = body;
    let magic = u32::decode(&mut rest)?;
    let version = u32::decode(&mut rest)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(WalError::Corrupt(format!(
            "{} has bad magic {magic:#x}",
            path.display()
        )));
    }
    if version != SNAPSHOT_VERSION {
        return Err(WalError::Corrupt(format!(
            "{}: snapshot version {version} is an unsupported generation \
             (this build reads version {SNAPSHOT_VERSION})",
            path.display()
        )));
    }
    let partition = u32::decode(&mut rest)?;
    let lsn = u64::decode(&mut rest)?;
    let (&format, tail) = rest.split_first().ok_or_else(|| {
        WalError::Corrupt(format!("{} missing payload format byte", path.display()))
    })?;
    check_snapshot_format(format)?;
    rest = tail;
    let blob = Vec::<u8>::decode(&mut rest)?;
    if !rest.is_empty() {
        return Err(WalError::Corrupt(format!(
            "{} has trailing bytes",
            path.display()
        )));
    }
    Ok(Snapshot {
        partition,
        lsn,
        format,
        blob,
    })
}

/// What `semtree recover` prints: a human-readable summary of a WAL
/// directory.
#[derive(Debug, Clone)]
pub struct WalReport {
    /// The WAL directory inspected.
    pub dir: PathBuf,
    /// Process index from the manifest.
    pub process_index: u32,
    /// Number of segment files present.
    pub segments: usize,
    /// Total bytes of all segment files on disk.
    pub segment_disk_bytes: u64,
    /// Total bytes of all snapshot files on disk.
    pub snapshot_disk_bytes: u64,
    /// Total records still on disk.
    pub records: usize,
    /// Records replay would actually apply (not covered by a snapshot).
    pub live_records: usize,
    /// The LSN the next append would receive.
    pub next_lsn: u64,
    /// Whether the newest segment ends in a torn record.
    pub torn_tail: bool,
    /// Per-partition breakdown, ascending partition id.
    pub partitions: Vec<PartitionReport>,
}

/// One partition's durable footprint.
#[derive(Debug, Clone, Default)]
pub struct PartitionReport {
    /// Compute-node id of the partition.
    pub partition: u32,
    /// Covered LSN of its snapshot, if one exists.
    pub snapshot_lsn: Option<u64>,
    /// Size of the snapshot blob in bytes (as stored, after any
    /// columnar compression).
    pub snapshot_bytes: usize,
    /// Size of the whole snapshot file on disk (header + blob + crc).
    pub snapshot_disk_bytes: u64,
    /// Payload format of the snapshot blob
    /// ([`SNAPSHOT_FORMAT_COLUMNAR`]).
    pub snapshot_format: u8,
    /// Live `partition-create` records.
    pub creates: usize,
    /// Live `point-insert` records.
    pub inserts: usize,
    /// Live `leaf-split` records.
    pub splits: usize,
    /// Live `leaf-migration` records.
    pub migrations: usize,
}

impl WalReport {
    /// Build a report from an already-loaded state.
    pub fn from_state(dir: &Path, state: &WalState) -> Result<WalReport, WalError> {
        let mut segments = 0;
        let mut segment_disk_bytes = 0;
        for entry in fs::read_dir(segments_dir(dir))? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(".wal") {
                segments += 1;
                segment_disk_bytes += entry.metadata()?.len();
            }
        }

        let mut per: BTreeMap<u32, PartitionReport> = BTreeMap::new();
        let mut snapshot_disk_bytes = 0;
        for (partition, snap) in &state.snapshots {
            let entry = per.entry(*partition).or_default();
            entry.partition = *partition;
            entry.snapshot_lsn = Some(snap.lsn);
            entry.snapshot_bytes = snap.blob.len();
            entry.snapshot_format = snap.format;
            entry.snapshot_disk_bytes = fs::metadata(snapshot_path(dir, *partition))?.len();
            snapshot_disk_bytes += entry.snapshot_disk_bytes;
        }
        let mut live_records = 0;
        for (_, record) in state.live_tail() {
            live_records += 1;
            let entry = per.entry(record.partition()).or_default();
            entry.partition = record.partition();
            match record {
                WalRecord::PartitionCreate { .. } => entry.creates += 1,
                WalRecord::PointInsert { .. } => entry.inserts += 1,
                WalRecord::LeafSplit { .. } => entry.splits += 1,
                WalRecord::LeafMigration { .. } => entry.migrations += 1,
            }
        }

        Ok(WalReport {
            dir: dir.to_path_buf(),
            process_index: state.process_index,
            segments,
            segment_disk_bytes,
            snapshot_disk_bytes,
            records: state.tail.len(),
            live_records,
            next_lsn: state.next_lsn,
            torn_tail: state.torn_tail,
            partitions: per.into_values().collect(),
        })
    }
}

impl fmt::Display for WalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "wal-dir: {}", self.dir.display())?;
        writeln!(f, "process-index: {}", self.process_index)?;
        writeln!(
            f,
            "segments: {} ({} records, {} live, {} bytes on disk)",
            self.segments, self.records, self.live_records, self.segment_disk_bytes
        )?;
        writeln!(f, "snapshot-bytes: {}", self.snapshot_disk_bytes)?;
        writeln!(f, "next-lsn: {}", self.next_lsn)?;
        writeln!(f, "torn-tail: {}", self.torn_tail)?;
        for p in &self.partitions {
            writeln!(
                f,
                "partition {}: snapshot {} ({} bytes), live tail: {} creates, {} inserts, {} splits, {} migrations",
                p.partition,
                p.snapshot_lsn
                    .map_or_else(|| "none".to_string(), |lsn| format!("@{lsn}")),
                p.snapshot_bytes,
                p.creates,
                p.inserts,
                p.splits,
                p.migrations
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("semtree-wal-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn insert(payload: u64) -> WalRecord {
        WalRecord::PointInsert {
            partition: 7,
            node: 0,
            point: vec![payload as f64],
            payload,
        }
    }

    /// What a write that failed half-way leaves in the open segment.
    fn write_stray_bytes(path: &Path) {
        let mut file = OpenOptions::new().append(true).open(path).unwrap();
        file.write_all(&[0xAB; 5]).unwrap();
    }

    /// Put a read-only handle on `path` in place of the open segment's,
    /// so the next append's write fails; returns the writable handle.
    fn fail_writes(wal: &Wal, path: &Path) -> File {
        let read_only = File::open(path).unwrap();
        std::mem::replace(&mut wal.inner.lock().file, read_only)
    }

    #[test]
    fn a_failed_append_leaves_no_torn_frame_behind() {
        let dir = tmpdir("failed-append");
        let wal = Wal::create(&dir, 1, b"", WalOptions::default()).unwrap();
        for i in 0..3 {
            assert_eq!(wal.append(&insert(i)).unwrap(), i + 1);
        }
        let path = segment_path(&dir, 1);
        write_stray_bytes(&path);
        let writable = fail_writes(&wal, &path);
        assert!(matches!(wal.append(&insert(99)), Err(WalError::Io(_))));
        wal.inner.lock().file = writable;
        for i in 3..6 {
            assert_eq!(wal.append(&insert(i)).unwrap(), i + 1);
        }

        let state = Wal::load(&dir).unwrap();
        assert!(!state.torn_tail);
        let want: Vec<(u64, WalRecord)> = (0..6).map(|i| (i + 1, insert(i))).collect();
        assert_eq!(state.tail, want);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_cut_refuses_appends_until_resume() {
        let dir = tmpdir("failed-cut");
        let wal = Wal::create(&dir, 1, b"", WalOptions::default()).unwrap();
        wal.append(&insert(0)).unwrap();
        let path = segment_path(&dir, 1);
        write_stray_bytes(&path);
        // With the segment moved away, the cut cannot open it.
        let aside = dir.join("aside");
        let writable = fail_writes(&wal, &path);
        fs::rename(&path, &aside).unwrap();
        assert!(matches!(wal.append(&insert(99)), Err(WalError::Io(_))));
        fs::rename(&aside, &path).unwrap();
        wal.inner.lock().file = writable;
        assert!(matches!(wal.append(&insert(1)), Err(WalError::Torn)));
        drop(wal);

        let (wal, state) = Wal::resume(&dir, WalOptions::default()).unwrap();
        assert_eq!(state.tail, vec![(1, insert(0))]);
        assert_eq!(wal.append(&insert(1)).unwrap(), 2);
        drop(wal);
        let state = Wal::load(&dir).unwrap();
        assert!(!state.torn_tail);
        assert_eq!(state.tail, vec![(1, insert(0)), (2, insert(1))]);
        let _ = fs::remove_dir_all(&dir);
    }
}
