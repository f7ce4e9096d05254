//! Fault-tolerant file-backed CSR shard storage.
//!
//! A shard lays a [`HetGraph`] out as one checksummed file per link type
//! under a shard *directory*, so a reader pays I/O for only the link types
//! it needs — an embedding server that never walks `contained_in` edges
//! skips the term segment entirely — and a corrupted segment is isolated
//! to one file that can be quarantined and rebuilt without touching its
//! neighbors.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! <dir>/meta.hgs          magic "HGS2" | body | fnv1a(body)
//!                         body = schema | n_nodes u64 | node-type bytes
//!                              | content fingerprint u64
//!                              | per link type { n_offsets, n_edges, checksum }
//! <dir>/seg-<i>-<name>.hgs
//!                         magic "HSG2" | link index u32 | n_offsets u64
//!                         | n_edges u64 | fnv1a(payload) u64 | payload
//!                         payload = offsets u32s | targets u32s | weight bits
//! ```
//!
//! ## Failure domains
//!
//! Every read and write goes through a [`ShardIo`] implementation —
//! [`FsIo`] in production, the seeded once-firing [`FaultyIo`] under test —
//! and every read is validated end to end (magic, lengths, FNV-1a checksum
//! cross-checked against the meta directory). Transient failures
//! (`ErrorKind::Interrupted`, or a checksum mismatch that a re-read heals)
//! are absorbed by a [`RetryPolicy`] with deterministic compounding
//! backoff; the decision path never reads a clock. A segment that stays
//! invalid after the retry budget is renamed to `.quarantine` and the
//! loader falls back to the `.prev` rotation *only when the previous
//! generation's payload matches the current meta checksum* — a stale
//! generation is never silently substituted. Writes rotate the old meta
//! first and commit the new meta last, so a crash at any point leaves
//! readers on one consistent generation. [`ShardStore::verify_all`] and
//! [`ShardStore::repair`] make the recovery path scriptable
//! (`catehgn_cli shard verify|repair`).

use crate::graph::{Csr, HetGraph};
use crate::schema::{LinkTypeId, NodeTypeId, Schema};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::io::{self, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};

const META_MAGIC: &[u8; 4] = b"HGS2";
const SEG_MAGIC: &[u8; 4] = b"HSG2";
const META_FILE: &str = "meta.hgs";

/// FNV-1a 64-bit over raw bytes (same constants as `catehgn::resilience`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 — derives fault parameters (flip position, truncation) from
/// the schedule seed without pulling in an RNG dependency.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A storage failure surfaced to the caller instead of a panic or abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// A non-transient I/O failure (permissions, disk, …).
    Io {
        op: &'static str,
        path: String,
        detail: String,
    },
    /// The meta file (and its `.prev` fallback) failed validation.
    CorruptMeta { path: String, detail: String },
    /// A segment failed validation after the retry budget and no matching
    /// `.prev` generation existed. Names the file and the link type.
    CorruptSegment {
        file: String,
        link_type: String,
        detail: String,
        /// Whether the bad file was renamed to `.quarantine`.
        quarantined: bool,
    },
    /// A segment file is absent with no quarantine marker and no fallback.
    MissingSegment { file: String, link_type: String },
    /// `repair` was handed a source graph whose content fingerprint does
    /// not match the shard's meta.
    SourceMismatch { want: u64, got: u64 },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io { op, path, detail } => {
                write!(f, "shard i/o failure during {op} on {path}: {detail}")
            }
            ShardError::CorruptMeta { path, detail } => {
                write!(f, "shard meta corrupt at {path}: {detail}")
            }
            ShardError::CorruptSegment {
                file,
                link_type,
                detail,
                quarantined,
            } => {
                write!(
                    f,
                    "shard segment corrupt: {file} (link type '{link_type}'): {detail}{}",
                    if *quarantined { "; quarantined" } else { "" }
                )
            }
            ShardError::MissingSegment { file, link_type } => {
                write!(f, "shard segment missing: {file} (link type '{link_type}')")
            }
            ShardError::SourceMismatch { want, got } => {
                write!(
                    f,
                    "repair source mismatch: shard expects fingerprint {want:#018x}, \
                     source graph has {got:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for ShardError {}

// ---------------------------------------------------------------------------
// I/O abstraction
// ---------------------------------------------------------------------------

/// The primitive operations `ShardStore` performs against storage. Whole
/// files move as byte buffers — segments are loaded into owned vectors
/// anyway, and buffer-level injection lets [`FaultyIo`] model torn writes
/// and bit flips without touching the filesystem layer.
pub trait ShardIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates (or truncates) `path`, writes `bytes`, and flushes to disk.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    fn exists(&self, path: &Path) -> bool;
}

/// Production `std::fs` implementation.
#[derive(Clone, Copy, Debug, Default)]
pub struct FsIo;

impl ShardIo for FsIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut f = std::fs::File::open(path)?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// One storage fault, armed at a specific operation ordinal (reads and
/// writes count separately, starting at 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// The nth write persists only the first half of the buffer but
    /// reports success — a torn write detected later by checksum.
    TornWrite { write_op: u64 },
    /// The nth write fails once with `ErrorKind::Interrupted`.
    TransientWrite { write_op: u64 },
    /// The nth read returns the file with one seed-chosen bit flipped.
    BitFlip { read_op: u64 },
    /// The nth read returns only the first half of the file.
    ShortRead { read_op: u64 },
    /// The nth read fails once with `ErrorKind::Interrupted`.
    TransientRead { read_op: u64 },
}

/// Deterministic fault-injecting [`ShardIo`] in the spirit of the training
/// `FaultPlan`: each armed fault fires exactly once at its ordinal, and the
/// seed fixes every free parameter (flip position and bit, truncation), so
/// a failing schedule replays exactly.
pub struct FaultyIo {
    inner: FsIo,
    seed: u64,
    armed: RefCell<Vec<(IoFault, bool)>>,
    reads: Cell<u64>,
    writes: Cell<u64>,
}

impl FaultyIo {
    pub fn new(seed: u64, faults: &[IoFault]) -> Self {
        FaultyIo {
            inner: FsIo,
            seed,
            armed: RefCell::new(faults.iter().map(|&f| (f, false)).collect()),
            reads: Cell::new(0),
            writes: Cell::new(0),
        }
    }

    /// Canonical chaos schedule derived from the seed: one transient read,
    /// one bit flip, one short read, and one transient write, spaced at
    /// least three ordinals apart so the default [`RetryPolicy`] (three
    /// attempts) can absorb each one independently.
    pub fn chaos(seed: u64) -> Self {
        let r1 = 1 + splitmix64(seed) % 2;
        let r2 = r1 + 3 + splitmix64(seed ^ 1) % 3;
        let r3 = r2 + 3 + splitmix64(seed ^ 2) % 3;
        let w1 = 1 + splitmix64(seed ^ 3) % 2;
        FaultyIo::new(
            seed,
            &[
                IoFault::TransientRead { read_op: r1 },
                IoFault::BitFlip { read_op: r2 },
                IoFault::ShortRead { read_op: r3 },
                IoFault::TransientWrite { write_op: w1 },
            ],
        )
    }

    /// True once every armed fault has fired.
    pub fn exhausted(&self) -> bool {
        self.armed.borrow().iter().all(|&(_, fired)| fired)
    }

    /// Fires (at most once) the first armed fault matching `want`.
    fn fire(&self, want: impl Fn(IoFault) -> bool) -> Option<IoFault> {
        let mut armed = self.armed.borrow_mut();
        for (fault, fired) in armed.iter_mut() {
            if !*fired && want(*fault) {
                *fired = true;
                return Some(*fault);
            }
        }
        None
    }
}

fn interrupted(what: &str) -> io::Error {
    io::Error::new(ErrorKind::Interrupted, format!("injected transient {what}"))
}

impl ShardIo for FaultyIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let op = self.reads.get() + 1;
        self.reads.set(op);
        if self
            .fire(|f| matches!(f, IoFault::TransientRead { read_op } if read_op == op))
            .is_some()
        {
            return Err(interrupted("read"));
        }
        let mut bytes = self.inner.read(path)?;
        if self
            .fire(|f| matches!(f, IoFault::BitFlip { read_op } if read_op == op))
            .is_some()
            && !bytes.is_empty()
        {
            let pos = (splitmix64(self.seed ^ op) as usize) % bytes.len();
            let bit = (splitmix64(self.seed ^ op ^ 0xF11F) % 8) as u32;
            bytes[pos] ^= 1u8 << bit;
        }
        if self
            .fire(|f| matches!(f, IoFault::ShortRead { read_op } if read_op == op))
            .is_some()
        {
            bytes.truncate(bytes.len() / 2);
        }
        Ok(bytes)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let op = self.writes.get() + 1;
        self.writes.set(op);
        if self
            .fire(|f| matches!(f, IoFault::TransientWrite { write_op } if write_op == op))
            .is_some()
        {
            return Err(interrupted("write"));
        }
        if self
            .fire(|f| matches!(f, IoFault::TornWrite { write_op } if write_op == op))
            .is_some()
        {
            let torn = bytes.get(..bytes.len() / 2).unwrap_or(bytes);
            // The torn half persists and the caller sees success; detection
            // is the reader's job.
            return self.inner.write(path, torn);
        }
        self.inner.write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Bounded retries with deterministic compounding backoff. The delay for
/// the nth failure is `base_delay_ms * backoff^(n-1)` — computed from the
/// attempt index alone, so the decision path never reads a wall clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    pub max_attempts: u32,
    pub base_delay_ms: u64,
    pub backoff: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 0,
            backoff: 2,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retrying after the nth failure (1-based).
    pub fn delay_ms(&self, failures: u32) -> u64 {
        if failures == 0 {
            return 0;
        }
        self.base_delay_ms
            .saturating_mul(self.backoff.saturating_pow(failures - 1))
    }

    fn pause(&self, failures: u32) {
        let ms = self.delay_ms(failures);
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
}

fn display_path(path: &Path) -> String {
    path.display().to_string()
}

/// Runs `f`, retrying transient (`Interrupted`) failures under `policy`.
fn with_retry<T>(
    policy: &RetryPolicy,
    op: &'static str,
    path: &Path,
    mut f: impl FnMut() -> io::Result<T>,
) -> Result<T, ShardError> {
    let attempts = policy.max_attempts.max(1);
    let mut failures = 0u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if e.kind() == ErrorKind::Interrupted && failures + 1 < attempts => {
                failures += 1;
                policy.pause(failures);
            }
            Err(e) => {
                return Err(ShardError::Io {
                    op,
                    path: display_path(path),
                    detail: e.to_string(),
                })
            }
        }
    }
}

/// Why a validated read of one file did not produce a value.
enum ReadFail {
    Io(ShardError),
    Missing,
    Invalid(String),
}

/// Reads `path` and validates it with `parse`, retrying both transient
/// I/O errors and validation failures (a bit flipped in flight heals on
/// re-read; real on-disk corruption fails every attempt).
fn read_validated<T>(
    io: &dyn ShardIo,
    policy: &RetryPolicy,
    path: &Path,
    parse: impl Fn(&[u8]) -> Result<T, String>,
) -> Result<T, ReadFail> {
    let attempts = policy.max_attempts.max(1);
    let mut failures = 0u32;
    loop {
        match io.read(path) {
            Err(e) if e.kind() == ErrorKind::NotFound => return Err(ReadFail::Missing),
            Err(e) if e.kind() == ErrorKind::Interrupted && failures + 1 < attempts => {
                failures += 1;
                policy.pause(failures);
            }
            Err(e) => {
                return Err(ReadFail::Io(ShardError::Io {
                    op: "read",
                    path: display_path(path),
                    detail: e.to_string(),
                }))
            }
            Ok(bytes) => match parse(&bytes) {
                Ok(v) => return Ok(v),
                Err(_) if failures + 1 < attempts => {
                    failures += 1;
                    policy.pause(failures);
                }
                Err(detail) => return Err(ReadFail::Invalid(detail)),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Binary codec helpers
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a byte buffer; every failure
/// is a `String` detail rather than a panic.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| "length overflow".to_string())?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| "unexpected end of data".to_string())?;
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        if len > 1 << 20 {
            return Err("name too long".to_string());
        }
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| "name not utf-8".to_string())
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }
}

fn decode_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn write_schema(out: &mut Vec<u8>, s: &Schema) {
    put_u32(out, s.num_node_types() as u32);
    for t in s.node_type_ids() {
        put_str(out, s.node_type_name(t));
    }
    put_u32(out, s.num_link_types() as u32);
    for t in s.link_type_ids() {
        let def = s.link_type(t);
        put_str(out, &def.name);
        out.extend_from_slice(&[def.src.0, def.dst.0]);
        // Reverse link id, or 0xFFFF for none.
        let rev = def.reverse_of.map_or(u16::MAX, |r| r.0 as u16);
        out.extend_from_slice(&rev.to_le_bytes());
    }
}

fn read_schema(r: &mut ByteReader<'_>) -> Result<Schema, String> {
    let mut s = Schema::new();
    let n_node_types = r.u32()?;
    for _ in 0..n_node_types {
        let name = r.str()?;
        s.try_add_node_type(name)
            .map_err(|_| "too many node types".to_string())?;
    }
    let n_link_types = r.u32()?;
    let mut reverses = Vec::with_capacity(n_link_types as usize);
    for _ in 0..n_link_types {
        let name = r.str()?;
        let ends = r.take(4)?;
        s.try_add_link_type(name, NodeTypeId(ends[0]), NodeTypeId(ends[1]))
            .map_err(|_| "bad link type".to_string())?;
        reverses.push(u16::from_le_bytes([ends[2], ends[3]]));
    }
    // Re-register reverse pairs (forward id < backward id, pairs symmetric).
    for (i, &rev) in reverses.iter().enumerate() {
        if rev != u16::MAX && (rev as usize) > i {
            if reverses.get(rev as usize) != Some(&(i as u16)) {
                return Err("asymmetric reverse pair".to_string());
            }
            s.set_reverse_pair(LinkTypeId(i as u8), LinkTypeId(rev as u8));
        }
    }
    Ok(s)
}

fn schema_byte_len(s: &Schema) -> u64 {
    let mut n = 4u64;
    for t in s.node_type_ids() {
        n += 4 + s.node_type_name(t).len() as u64;
    }
    n += 4;
    for t in s.link_type_ids() {
        n += 4 + s.link_type(t).name.len() as u64 + 4;
    }
    n
}

/// Meta directory row for one link-type segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SegEntry {
    n_offsets: u64,
    n_edges: u64,
    checksum: u64,
}

impl SegEntry {
    fn payload_len(&self) -> u64 {
        self.n_offsets * 4 + self.n_edges * 8
    }
}

/// Segment file header size: magic + link index + counts + checksum.
const SEG_HEADER_LEN: u64 = 4 + 4 + 8 + 8 + 8;

fn seg_file_name(index: usize, name: &str) -> String {
    format!("seg-{index}-{name}.hgs")
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

fn prev_path(path: &Path) -> PathBuf {
    with_suffix(path, ".prev")
}

fn tmp_path(path: &Path) -> PathBuf {
    with_suffix(path, ".tmp")
}

fn quarantine_path(path: &Path) -> PathBuf {
    with_suffix(path, ".quarantine")
}

/// Encodes one segment file; returns the bytes and its directory row.
fn encode_segment(index: u32, csr: &Csr) -> (Vec<u8>, SegEntry) {
    let (offsets, targets, weights) = csr.parts();
    let mut payload = Vec::with_capacity(offsets.len() * 4 + targets.len() * 8);
    for &x in offsets {
        put_u32(&mut payload, x);
    }
    for &x in targets {
        put_u32(&mut payload, x);
    }
    for &w in weights {
        put_u32(&mut payload, w.to_bits());
    }
    let entry = SegEntry {
        n_offsets: offsets.len() as u64,
        n_edges: targets.len() as u64,
        checksum: fnv1a(&payload),
    };
    let mut out = Vec::with_capacity(SEG_HEADER_LEN as usize + payload.len());
    out.extend_from_slice(SEG_MAGIC);
    put_u32(&mut out, index);
    put_u64(&mut out, entry.n_offsets);
    put_u64(&mut out, entry.n_edges);
    put_u64(&mut out, entry.checksum);
    out.extend_from_slice(&payload);
    (out, entry)
}

/// Validates one segment file against its meta directory row and decodes
/// the adjacency. Every failure names what disagreed.
fn parse_segment(bytes: &[u8], index: u32, want: &SegEntry) -> Result<Csr, String> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != SEG_MAGIC {
        return Err("bad segment magic".to_string());
    }
    if r.u32()? != index {
        return Err("segment link index mismatch".to_string());
    }
    if r.u64()? != want.n_offsets {
        return Err("segment offsets count disagrees with meta".to_string());
    }
    if r.u64()? != want.n_edges {
        return Err("segment edge count disagrees with meta".to_string());
    }
    let checksum = r.u64()?;
    if checksum != want.checksum {
        return Err("segment checksum disagrees with meta".to_string());
    }
    let payload = r.take(want.payload_len() as usize)?;
    if r.remaining() != 0 {
        return Err("trailing bytes after segment payload".to_string());
    }
    if fnv1a(payload) != checksum {
        return Err("segment payload checksum mismatch".to_string());
    }
    let off_bytes = want.n_offsets as usize * 4;
    let tgt_bytes = want.n_edges as usize * 4;
    let offsets = decode_u32s(payload.get(..off_bytes).unwrap_or(&[]));
    let targets = decode_u32s(payload.get(off_bytes..off_bytes + tgt_bytes).unwrap_or(&[]));
    let weights = decode_u32s(payload.get(off_bytes + tgt_bytes..).unwrap_or(&[]))
        .into_iter()
        .map(f32::from_bits)
        .collect();
    Ok(Csr::from_parts(offsets, targets, weights))
}

struct Meta {
    schema: Schema,
    node_types: Vec<NodeTypeId>,
    fingerprint: u64,
    directory: Vec<SegEntry>,
}

fn encode_meta(g: &HetGraph, directory: &[SegEntry]) -> Vec<u8> {
    let mut body = Vec::new();
    write_schema(&mut body, g.schema());
    let node_types = g.node_types_raw();
    put_u64(&mut body, node_types.len() as u64);
    body.extend(node_types.iter().map(|t| t.0));
    put_u64(&mut body, g.content_fingerprint());
    for entry in directory {
        put_u64(&mut body, entry.n_offsets);
        put_u64(&mut body, entry.n_edges);
        put_u64(&mut body, entry.checksum);
    }
    let mut out = Vec::with_capacity(4 + body.len() + 8);
    out.extend_from_slice(META_MAGIC);
    let trailer = fnv1a(&body);
    out.extend_from_slice(&body);
    put_u64(&mut out, trailer);
    out
}

fn parse_meta(bytes: &[u8]) -> Result<Meta, String> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != META_MAGIC {
        return Err("bad meta magic".to_string());
    }
    let body_len = bytes
        .len()
        .checked_sub(4 + 8)
        .ok_or_else(|| "meta file truncated".to_string())?;
    let body = r.take(body_len)?;
    let trailer = r.u64()?;
    if fnv1a(body) != trailer {
        return Err("meta checksum mismatch".to_string());
    }
    let mut b = ByteReader::new(body);
    let schema = read_schema(&mut b)?;
    let n_nodes = b.u64()? as usize;
    let type_bytes = b.take(n_nodes)?;
    let n_types = schema.num_node_types() as u8;
    if type_bytes.iter().any(|&t| t >= n_types) {
        return Err("node type out of range".to_string());
    }
    let node_types: Vec<NodeTypeId> = type_bytes.iter().copied().map(NodeTypeId).collect();
    let fingerprint = b.u64()?;
    let mut directory = Vec::with_capacity(schema.num_link_types());
    for _ in 0..schema.num_link_types() {
        let entry = SegEntry {
            n_offsets: b.u64()?,
            n_edges: b.u64()?,
            checksum: b.u64()?,
        };
        if entry.n_offsets != n_nodes as u64 + 1 {
            return Err("segment offsets length disagrees with node count".to_string());
        }
        directory.push(entry);
    }
    if b.remaining() != 0 {
        return Err("trailing bytes in meta body".to_string());
    }
    Ok(Meta {
        schema,
        node_types,
        fingerprint,
        directory,
    })
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// Health of one segment as observed by [`ShardStore::verify_all`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegmentHealth {
    Intact,
    Corrupt(String),
    Missing,
}

/// Per-segment verification outcome.
#[derive(Clone, Debug)]
pub struct SegmentReport {
    pub link_type: LinkTypeId,
    pub name: String,
    pub file: String,
    pub health: SegmentHealth,
    /// A `.prev` generation matching the current meta checksum exists, so
    /// loads recover even if the current file is bad.
    pub prev_ok: bool,
    /// A `.quarantine` marker from an earlier failed load is present.
    pub quarantined: bool,
}

/// What [`ShardStore::repair`] did.
#[derive(Clone, Debug, Default)]
pub struct RepairReport {
    /// Link-type names whose segment files were rebuilt from the source.
    pub rebuilt: Vec<String>,
    /// Number of `.quarantine` markers removed.
    pub quarantine_cleared: usize,
}

/// An opened shard directory: schema, node types, fingerprint, and the
/// checksummed segment directory are resident; adjacency loads on demand
/// through the store's [`ShardIo`] under its [`RetryPolicy`].
pub struct ShardStore {
    dir: PathBuf,
    schema: Schema,
    node_types: Vec<NodeTypeId>,
    fingerprint: u64,
    directory: Vec<SegEntry>,
    io: Box<dyn ShardIo>,
    retry: RetryPolicy,
}

impl ShardStore {
    /// Writes `g` as a shard directory at `dir` using production I/O.
    pub fn write(dir: &Path, g: &HetGraph) -> Result<(), ShardError> {
        Self::write_with(dir, g, &FsIo, &RetryPolicy::default())
    }

    /// Writes `g` as a shard directory through `io`. Commit protocol: the
    /// old meta rotates to `.prev` first (readers fall back to the intact
    /// previous generation mid-write), each segment rotates and rewrites
    /// atomically (temp + rename), and the new meta lands last.
    pub fn write_with(
        dir: &Path,
        g: &HetGraph,
        io: &dyn ShardIo,
        retry: &RetryPolicy,
    ) -> Result<(), ShardError> {
        with_retry(retry, "create-dir", dir, || io.create_dir_all(dir))?;
        let mut directory = Vec::with_capacity(g.schema().num_link_types());
        let mut seg_files = Vec::with_capacity(g.schema().num_link_types());
        for (i, t) in g.schema().link_type_ids().enumerate() {
            let name = &g.schema().link_type(t).name;
            let (bytes, entry) = encode_segment(i as u32, g.csr(t));
            directory.push(entry);
            seg_files.push((dir.join(seg_file_name(i, name)), bytes));
        }
        let meta_bytes = encode_meta(g, &directory);
        let meta_path = dir.join(META_FILE);
        rotate(io, retry, &meta_path)?;
        for (path, bytes) in &seg_files {
            rotate(io, retry, path)?;
            let quar = quarantine_path(path);
            if io.exists(&quar) {
                with_retry(retry, "remove-quarantine", &quar, || io.remove_file(&quar))?;
            }
            atomic_write(io, retry, path, bytes)?;
        }
        atomic_write(io, retry, &meta_path, &meta_bytes)
    }

    /// Opens a shard directory using production I/O and the default retry
    /// policy.
    pub fn open(dir: &Path) -> Result<Self, ShardError> {
        Self::open_with(dir, Box::new(FsIo), RetryPolicy::default())
    }

    /// Opens a shard directory through `io`. A meta file that stays
    /// invalid after the retry budget is quarantined and the `.prev`
    /// generation is tried before giving up.
    pub fn open_with(
        dir: &Path,
        io: Box<dyn ShardIo>,
        retry: RetryPolicy,
    ) -> Result<Self, ShardError> {
        let meta_path = dir.join(META_FILE);
        let meta = match read_validated(io.as_ref(), &retry, &meta_path, parse_meta) {
            Ok(meta) => meta,
            Err(ReadFail::Io(e)) => return Err(e),
            Err(fail) => {
                let detail = match fail {
                    ReadFail::Missing => "meta file missing".to_string(),
                    ReadFail::Invalid(d) => d,
                    ReadFail::Io(_) => unreachable_detail(),
                };
                if io.exists(&meta_path) {
                    let _ = io.rename(&meta_path, &quarantine_path(&meta_path));
                }
                match read_validated(io.as_ref(), &retry, &prev_path(&meta_path), parse_meta) {
                    Ok(meta) => meta,
                    Err(_) => {
                        return Err(ShardError::CorruptMeta {
                            path: display_path(&meta_path),
                            detail,
                        })
                    }
                }
            }
        };
        Ok(ShardStore {
            dir: dir.to_path_buf(),
            schema: meta.schema,
            node_types: meta.node_types,
            fingerprint: meta.fingerprint,
            directory: meta.directory,
            io,
            retry,
        })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// The stored graph's content fingerprint (from the meta file).
    pub fn content_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of edges stored for one link type (directory lookup; no I/O).
    pub fn num_links_of(&self, t: LinkTypeId) -> usize {
        self.directory[t.0 as usize].n_edges as usize
    }

    /// Total on-disk bytes of the current generation (meta + segments).
    pub fn total_bytes(&self) -> u64 {
        let meta = 4
            + schema_byte_len(&self.schema)
            + 8
            + self.node_types.len() as u64
            + 8
            + self.directory.len() as u64 * 24
            + 8;
        meta + self
            .directory
            .iter()
            .map(|e| SEG_HEADER_LEN + e.payload_len())
            .sum::<u64>()
    }

    fn seg_path(&self, t: LinkTypeId) -> PathBuf {
        let name = &self.schema.link_type(t).name;
        self.dir.join(seg_file_name(t.0 as usize, name))
    }

    /// Loads one link type's adjacency from its segment file. A segment
    /// that stays invalid after retries is quarantined; the `.prev`
    /// generation is served instead when — and only when — its payload
    /// matches the current meta checksum.
    pub fn load_csr(&self, t: LinkTypeId) -> Result<Csr, ShardError> {
        let index = t.0 as usize;
        let entry = self.directory[index];
        let name = self.schema.link_type(t).name.clone();
        let path = self.seg_path(t);
        let parse = |bytes: &[u8]| parse_segment(bytes, index as u32, &entry);
        let fail = match read_validated(self.io.as_ref(), &self.retry, &path, parse) {
            Ok(csr) => return Ok(csr),
            Err(ReadFail::Io(e)) => return Err(e),
            Err(fail) => fail,
        };
        let quar = quarantine_path(&path);
        let (missing, detail) = match fail {
            ReadFail::Missing => (true, "segment file missing".to_string()),
            ReadFail::Invalid(d) => (false, d),
            ReadFail::Io(_) => (false, unreachable_detail()),
        };
        let quarantined = if missing {
            false
        } else {
            self.io.rename(&path, &quar).is_ok()
        };
        if let Ok(csr) = read_validated(self.io.as_ref(), &self.retry, &prev_path(&path), parse) {
            return Ok(csr);
        }
        let file = display_path(&path);
        if missing && !self.io.exists(&quar) {
            return Err(ShardError::MissingSegment {
                file,
                link_type: name,
            });
        }
        let detail = if missing {
            "segment quarantined by an earlier failed load".to_string()
        } else {
            detail
        };
        Err(ShardError::CorruptSegment {
            file,
            link_type: name,
            detail,
            quarantined: quarantined || self.io.exists(&quar),
        })
    }

    /// Loads the full graph (every segment).
    pub fn load_graph(&self) -> Result<HetGraph, ShardError> {
        let types: Vec<LinkTypeId> = self.schema.link_type_ids().collect();
        self.load_graph_with(&types)
    }

    /// Loads a graph with only the selected link types resident; the
    /// others come back as empty adjacency (every degree 0), so walks over
    /// unloaded types see no edges rather than panicking.
    pub fn load_graph_with(&self, types: &[LinkTypeId]) -> Result<HetGraph, ShardError> {
        let n = self.num_nodes();
        let mut adj = Vec::with_capacity(self.schema.num_link_types());
        for t in self.schema.link_type_ids() {
            if types.contains(&t) {
                adj.push(self.load_csr(t)?);
            } else {
                adj.push(Csr::from_parts(vec![0u32; n + 1], Vec::new(), Vec::new()));
            }
        }
        Ok(HetGraph::assemble(
            self.schema.clone(),
            self.node_types.clone(),
            adj,
        ))
    }

    /// Read-only health check of every segment: current-file validity, the
    /// availability of a matching `.prev` fallback, and quarantine markers.
    /// Never renames or rewrites anything.
    pub fn verify_all(&self) -> Vec<SegmentReport> {
        self.schema
            .link_type_ids()
            .map(|t| {
                let index = t.0 as usize;
                let entry = self.directory[index];
                let name = self.schema.link_type(t).name.clone();
                let path = self.seg_path(t);
                let parse = |bytes: &[u8]| parse_segment(bytes, index as u32, &entry);
                let health = match read_validated(self.io.as_ref(), &self.retry, &path, parse) {
                    Ok(_) => SegmentHealth::Intact,
                    Err(ReadFail::Missing) => SegmentHealth::Missing,
                    Err(ReadFail::Invalid(d)) => SegmentHealth::Corrupt(d),
                    Err(ReadFail::Io(e)) => SegmentHealth::Corrupt(e.to_string()),
                };
                let prev_ok =
                    read_validated(self.io.as_ref(), &self.retry, &prev_path(&path), parse).is_ok();
                SegmentReport {
                    link_type: t,
                    name,
                    file: display_path(&path),
                    health,
                    prev_ok,
                    quarantined: self.io.exists(&quarantine_path(&path)),
                }
            })
            .collect()
    }

    /// True when every segment's current file validates.
    pub fn healthy(&self) -> bool {
        self.verify_all()
            .iter()
            .all(|r| matches!(r.health, SegmentHealth::Intact))
    }

    /// Rebuilds every invalid segment from `source` and clears quarantine
    /// markers. The source must carry the exact content fingerprint the
    /// meta promises — repair never changes what the shard serves.
    pub fn repair(&self, source: &HetGraph) -> Result<RepairReport, ShardError> {
        let got = source.content_fingerprint();
        if got != self.fingerprint {
            return Err(ShardError::SourceMismatch {
                want: self.fingerprint,
                got,
            });
        }
        let mut report = RepairReport::default();
        for t in self.schema.link_type_ids() {
            let index = t.0 as usize;
            let entry = self.directory[index];
            let name = self.schema.link_type(t).name.clone();
            let path = self.seg_path(t);
            let parse = |bytes: &[u8]| parse_segment(bytes, index as u32, &entry);
            let intact = read_validated(self.io.as_ref(), &self.retry, &path, parse).is_ok();
            if !intact {
                let (bytes, _) = encode_segment(index as u32, source.csr(t));
                atomic_write(self.io.as_ref(), &self.retry, &path, &bytes)?;
                report.rebuilt.push(name);
            }
            let quar = quarantine_path(&path);
            if self.io.exists(&quar) {
                with_retry(&self.retry, "remove-quarantine", &quar, || {
                    self.io.remove_file(&quar)
                })?;
                report.quarantine_cleared += 1;
            }
        }
        Ok(report)
    }
}

fn unreachable_detail() -> String {
    // `ReadFail::Io` is returned to the caller before fallback handling;
    // reaching here would be a control-flow bug, reported as corruption
    // rather than a panic.
    "internal: i/o failure routed through fallback".to_string()
}

fn rotate(io: &dyn ShardIo, retry: &RetryPolicy, path: &Path) -> Result<(), ShardError> {
    if io.exists(path) {
        let prev = prev_path(path);
        with_retry(retry, "rotate", path, || io.rename(path, &prev))?;
    }
    Ok(())
}

fn atomic_write(
    io: &dyn ShardIo,
    retry: &RetryPolicy,
    path: &Path,
    bytes: &[u8],
) -> Result<(), ShardError> {
    let tmp = tmp_path(path);
    with_retry(retry, "write", &tmp, || io.write(&tmp, bytes))?;
    with_retry(retry, "commit-rename", path, || io.rename(&tmp, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HetGraphBuilder;

    fn toy() -> HetGraph {
        let mut s = Schema::new();
        let paper = s.add_node_type("paper");
        let author = s.add_node_type("author");
        let (writes, _) = s.add_link_type_pair("writes", "written_by", author, paper);
        let cites = s.add_link_type("cites", paper, paper);
        let mut b = HetGraphBuilder::new(s);
        let papers = b.add_nodes(paper, 3);
        let authors = b.add_nodes(author, 2);
        b.add_link_with_reverse(writes, authors[0], papers[0], 1.0);
        b.add_link_with_reverse(writes, authors[1], papers[2], 0.5);
        b.add_link(cites, papers[1], papers[0], 1.0);
        b.add_link(cites, papers[2], papers[0], 2.0);
        b.build()
    }

    fn toy_other() -> HetGraph {
        use crate::graph::NodeId;
        let g = toy();
        let mut h = toy();
        let cites = g.schema().link_type_by_name("cites").unwrap();
        h.replace_links(cites, &[(NodeId(1), NodeId(2), 1.0)]);
        h
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hetgraph-shard-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_dir_all(p);
    }

    fn cites_seg(g: &HetGraph, dir: &Path) -> PathBuf {
        let cites = g.schema().link_type_by_name("cites").unwrap();
        dir.join(seg_file_name(
            cites.0 as usize,
            &g.schema().link_type(cites).name,
        ))
    }

    fn flip_byte(path: &Path, offset: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        let i = offset % bytes.len();
        bytes[i] ^= 0x40;
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn round_trip_preserves_content() {
        let g = toy();
        let dir = tmp("round-trip");
        ShardStore::write(&dir, &g).unwrap();
        let store = ShardStore::open(&dir).unwrap();
        assert_eq!(store.num_nodes(), g.num_nodes());
        assert_eq!(store.schema(), g.schema());
        assert_eq!(store.content_fingerprint(), g.content_fingerprint());
        let h = store.load_graph().unwrap();
        assert_eq!(h.content_fingerprint(), g.content_fingerprint());
        assert_ne!(h.sampling_stamp(), g.sampling_stamp());
        assert!(store.healthy());
        cleanup(&dir);
    }

    #[test]
    fn selective_load_skips_segments() {
        let g = toy();
        let dir = tmp("selective");
        ShardStore::write(&dir, &g).unwrap();
        let store = ShardStore::open(&dir).unwrap();
        let cites = g.schema().link_type_by_name("cites").unwrap();
        let writes = g.schema().link_type_by_name("writes").unwrap();
        assert_eq!(store.num_links_of(cites), 2);
        let h = store.load_graph_with(&[cites]).unwrap();
        assert_eq!(h.num_links_of(cites), 2);
        assert_eq!(h.num_links_of(writes), 0, "unloaded segment is empty");
        assert_eq!(h.csr(cites), g.csr(cites));
        cleanup(&dir);
    }

    #[test]
    fn rejects_corrupt_meta() {
        let dir = tmp("corrupt-meta");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(META_FILE), b"NOPE").unwrap();
        match ShardStore::open(&dir) {
            Err(ShardError::CorruptMeta { .. }) => {}
            Err(other) => panic!("expected CorruptMeta, got {other:?}"),
            Ok(_) => panic!("expected CorruptMeta, got an open store"),
        }
        cleanup(&dir);
    }

    #[test]
    fn corruption_is_detected_quarantined_and_repaired() {
        let g = toy();
        let dir = tmp("quarantine-repair");
        ShardStore::write(&dir, &g).unwrap();
        // Single generation: no .prev fallback exists yet.
        let seg = cites_seg(&g, &dir);
        flip_byte(&seg, 40);
        let store = ShardStore::open(&dir).unwrap();
        match store.load_graph() {
            Err(ShardError::CorruptSegment {
                link_type,
                quarantined,
                ..
            }) => {
                assert_eq!(link_type, "cites");
                assert!(quarantined);
            }
            other => panic!("expected CorruptSegment, got {other:?}"),
        }
        assert!(quarantine_path(&seg).exists());
        assert!(!seg.exists());
        let reports = store.verify_all();
        let bad: Vec<_> = reports
            .iter()
            .filter(|r| !matches!(r.health, SegmentHealth::Intact))
            .collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "cites");
        assert!(bad[0].quarantined);
        let report = store.repair(&g).unwrap();
        assert_eq!(report.rebuilt, vec!["cites".to_string()]);
        assert_eq!(report.quarantine_cleared, 1);
        assert!(store.healthy());
        assert!(!quarantine_path(&seg).exists());
        let h = store.load_graph().unwrap();
        assert_eq!(h.content_fingerprint(), g.content_fingerprint());
        cleanup(&dir);
    }

    #[test]
    fn prev_generation_recovers_same_content() {
        let g = toy();
        let dir = tmp("prev-fallback");
        ShardStore::write(&dir, &g).unwrap();
        ShardStore::write(&dir, &g).unwrap(); // rotates gen 1 to .prev
        let seg = cites_seg(&g, &dir);
        assert!(prev_path(&seg).exists());
        flip_byte(&seg, 52);
        let store = ShardStore::open(&dir).unwrap();
        let h = store.load_graph().unwrap();
        assert_eq!(
            h.content_fingerprint(),
            g.content_fingerprint(),
            "load falls back to the matching .prev generation"
        );
        assert!(
            quarantine_path(&seg).exists(),
            "bad current file quarantined"
        );
        cleanup(&dir);
    }

    #[test]
    fn stale_prev_generation_is_never_substituted() {
        let old = toy_other();
        let new = toy();
        let dir = tmp("stale-prev");
        ShardStore::write(&dir, &old).unwrap();
        ShardStore::write(&dir, &new).unwrap(); // .prev now holds different content
        let seg = cites_seg(&new, &dir);
        flip_byte(&seg, 52);
        let store = ShardStore::open(&dir).unwrap();
        match store.load_graph() {
            Err(ShardError::CorruptSegment { link_type, .. }) => {
                assert_eq!(link_type, "cites");
            }
            other => panic!("stale .prev must not be served, got {other:?}"),
        }
        let report = store.repair(&new).unwrap();
        assert_eq!(report.rebuilt, vec!["cites".to_string()]);
        let h = store.load_graph().unwrap();
        assert_eq!(h.content_fingerprint(), new.content_fingerprint());
        cleanup(&dir);
    }

    #[test]
    fn repair_rejects_mismatched_source() {
        let g = toy();
        let dir = tmp("repair-mismatch");
        ShardStore::write(&dir, &g).unwrap();
        let store = ShardStore::open(&dir).unwrap();
        let other = toy_other();
        match store.repair(&other) {
            Err(ShardError::SourceMismatch { want, got }) => {
                assert_eq!(want, g.content_fingerprint());
                assert_eq!(got, other.content_fingerprint());
            }
            other => panic!("expected SourceMismatch, got {other:?}"),
        }
        cleanup(&dir);
    }

    #[test]
    fn transient_faults_heal_through_retries() {
        let g = toy();
        let dir = tmp("transient");
        ShardStore::write(&dir, &g).unwrap();
        let faulty = FaultyIo::new(
            0xC0FFEE,
            &[
                IoFault::TransientRead { read_op: 1 },
                IoFault::BitFlip { read_op: 4 },
                IoFault::ShortRead { read_op: 7 },
            ],
        );
        let store = ShardStore::open_with(&dir, Box::new(faulty), RetryPolicy::default()).unwrap();
        let h = store.load_graph().unwrap();
        assert_eq!(h.content_fingerprint(), g.content_fingerprint());
        assert!(store.healthy(), "once-fired faults leave the store intact");
        cleanup(&dir);
    }

    #[test]
    fn chaos_write_then_clean_read_round_trips() {
        let g = toy();
        let dir = tmp("chaos-write");
        for seed in 0..8u64 {
            let faulty = FaultyIo::chaos(seed);
            ShardStore::write_with(&dir, &g, &faulty, &RetryPolicy::default()).unwrap();
            let store = ShardStore::open(&dir).unwrap();
            let h = store.load_graph().unwrap();
            assert_eq!(
                h.content_fingerprint(),
                g.content_fingerprint(),
                "seed {seed}"
            );
        }
        cleanup(&dir);
    }

    #[test]
    fn torn_write_of_rewrite_recovers_previous_generation() {
        let g = toy();
        let dir = tmp("torn-write");
        ShardStore::write(&dir, &g).unwrap();
        // Rewrite the same graph, tearing the first segment write. The
        // directory keeps serving g either via the intact new files or via
        // the .prev rotation whose checksum still matches.
        let faulty = FaultyIo::new(7, &[IoFault::TornWrite { write_op: 1 }]);
        ShardStore::write_with(&dir, &g, &faulty, &RetryPolicy::default()).unwrap();
        let store = ShardStore::open(&dir).unwrap();
        let h = store.load_graph().unwrap();
        assert_eq!(h.content_fingerprint(), g.content_fingerprint());
        cleanup(&dir);
    }

    #[test]
    fn retry_backoff_compounds_deterministically() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 3,
            backoff: 2,
        };
        assert_eq!(p.delay_ms(0), 0);
        assert_eq!(p.delay_ms(1), 3);
        assert_eq!(p.delay_ms(2), 6);
        assert_eq!(p.delay_ms(3), 12);
    }

    #[test]
    fn faulty_io_fires_each_fault_once() {
        let g = toy();
        let dir = tmp("fire-once");
        ShardStore::write(&dir, &g).unwrap();
        let faulty = FaultyIo::new(3, &[IoFault::TransientRead { read_op: 1 }]);
        assert!(!faulty.exhausted());
        let store = ShardStore::open_with(&dir, Box::new(faulty), RetryPolicy::default()).unwrap();
        store.load_graph().unwrap();
        cleanup(&dir);
        // Ownership moved into the store; exhaustion is observable through
        // the successful open (the transient fired and was retried).
        let _ = store;
    }
}
