//! Hand-rolled little-endian wire encoding.
//!
//! No serialisation dependency exists in this workspace, and none is
//! needed: the WAL, checkpoint, and page-file formats are closed (every
//! type is known here), so a small writer/reader pair over `Vec<u8>`
//! suffices. All integers are little-endian; collections are
//! length-prefixed with a `u32`; options carry a one-byte tag.
//!
//! This module lives in `threev-storage` (the bottom of the dependency
//! stack) so both the [`paged`](crate::paged) backend and the
//! `threev-durability` WAL/checkpoint codecs can share one framing
//! discipline; durability re-exports it as `threev_durability::wire`.

use crate::locks::LockMode;
use threev_model::{
    JournalEntry, Key, NodeId, OpStep, SubtxnPlan, TxnId, TxnKind, TxnPlan, UpdateOp, Value,
    VersionNo,
};

/// Decoding failure: the input is truncated or structurally invalid.
///
/// Carries a static description of what was being decoded — enough to
/// debug a corrupt log without dragging a position through every call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireError(pub &'static str);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode failed: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Fixed-size array view of a slice. [`ByteReader::take`] always hands back
/// exactly the requested length, so the error arm is unreachable — but an
/// error return beats an `unwrap` panic in protocol code.
fn arr<const N: usize>(slice: &[u8]) -> Result<[u8; N], WireError> {
    slice
        .try_into()
        .map_err(|_| WireError("internal slice-length mismatch"))
}

/// Append-only byte sink.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Finish, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write a raw byte.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Write a `u16`.
    pub fn u16(&mut self, x: u16) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Write a `u32`.
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Write a `u64`.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Write an `i64`.
    pub fn i64(&mut self, x: i64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Write a collection length.
    pub fn len(&mut self, n: usize) {
        // lint-allow(panic-hygiene): a collection the wire format cannot
        // express must not be logged truncated — fail-stop.
        self.u32(u32::try_from(n).expect("collection too large for wire format"));
    }

    /// Write a [`NodeId`].
    pub fn node(&mut self, n: NodeId) {
        self.u16(n.0);
    }

    /// Write a [`Key`].
    pub fn key(&mut self, k: Key) {
        self.u64(k.0);
    }

    /// Write a [`VersionNo`].
    pub fn version(&mut self, v: VersionNo) {
        self.u32(v.0);
    }

    /// Write a `u64` as a LEB128 varint (7 bits per byte, little-endian,
    /// high bit = continuation). Dense structures that repeat small
    /// numbers — the paged backend's meta directory — use this so their
    /// size tracks the magnitudes stored, not the field widths.
    pub fn varint(&mut self, mut x: u64) {
        while x >= 0x80 {
            self.buf.push((x as u8) | 0x80);
            x >>= 7;
        }
        self.buf.push(x as u8);
    }

    /// Write a [`TxnId`].
    pub fn txn(&mut self, t: TxnId) {
        self.u64(t.seq);
        self.node(t.origin);
    }

    /// Write an [`UpdateOp`].
    pub fn op(&mut self, op: UpdateOp) {
        match op {
            UpdateOp::Add(d) => {
                self.u8(0);
                self.i64(d);
            }
            UpdateOp::Append { amount, tag } => {
                self.u8(1);
                self.i64(amount);
                self.u32(tag);
            }
            UpdateOp::Retract { amount, tag } => {
                self.u8(2);
                self.i64(amount);
                self.u32(tag);
            }
            UpdateOp::Assign(x) => {
                self.u8(3);
                self.i64(x);
            }
        }
    }

    /// Write a [`Value`].
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Counter(c) => {
                self.u8(0);
                self.i64(*c);
            }
            Value::Journal(entries) => {
                self.u8(1);
                self.len(entries.len());
                for e in entries {
                    self.txn(e.txn);
                    self.i64(e.amount);
                    self.u32(e.tag);
                }
            }
            Value::Register(r) => {
                self.u8(2);
                self.i64(*r);
            }
        }
    }

    /// Write an `Option<Value>`.
    pub fn opt_value(&mut self, v: &Option<Value>) {
        match v {
            None => self.u8(0),
            Some(val) => {
                self.u8(1);
                self.value(val);
            }
        }
    }

    /// Write a [`LockMode`].
    pub fn lock_mode(&mut self, m: LockMode) {
        self.u8(match m {
            LockMode::Commute => 0,
            LockMode::Exclusive => 1,
        });
    }

    /// Write a UTF-8 string, length-prefixed.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a [`TxnKind`].
    pub fn txn_kind(&mut self, k: TxnKind) {
        self.u8(match k {
            TxnKind::ReadOnly => 0,
            TxnKind::Commuting => 1,
            TxnKind::NonCommuting => 2,
        });
    }

    /// Write an [`OpStep`].
    pub fn op_step(&mut self, s: &OpStep) {
        match s {
            OpStep::Read(k) => {
                self.u8(0);
                self.key(*k);
            }
            OpStep::Update(k, op) => {
                self.u8(1);
                self.key(*k);
                self.op(*op);
            }
        }
    }

    /// Write a [`SubtxnPlan`] subtree (preorder: node, steps, children).
    pub fn sub_plan(&mut self, p: &SubtxnPlan) {
        self.node(p.node);
        self.len(p.steps.len());
        for s in &p.steps {
            self.op_step(s);
        }
        self.len(p.children.len());
        for c in &p.children {
            self.sub_plan(c);
        }
    }

    /// Write a whole [`TxnPlan`].
    pub fn txn_plan(&mut self, p: &TxnPlan) {
        self.txn_kind(p.kind);
        self.sub_plan(&p.root);
    }
}

/// Sequential byte source over a borrowed slice.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from `buf`, starting at the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a raw byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(arr(self.take(2, "u16")?)?))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(arr(self.take(4, "u32")?)?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(arr(self.take(8, "u64")?)?))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(arr(self.take(8, "i64")?)?))
    }

    /// Read a LEB128 varint written by [`ByteWriter::varint`]. Rejects
    /// encodings longer than a `u64` can carry.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut x = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            x |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return Ok(x);
            }
        }
        Err(WireError("varint overruns u64"))
    }

    /// Read a collection length, bounded by the bytes actually remaining
    /// so corrupt lengths fail instead of triggering huge allocations.
    pub fn read_len(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(WireError("length exceeds remaining input"));
        }
        Ok(n)
    }

    /// Read a version chain (`len`, then `(version, value)` pairs) and
    /// check it is a valid [`VersionedRecord`](crate::VersionedRecord)
    /// layout: 1 to [`MAX_VERSIONS`](crate::record::MAX_VERSIONS) versions,
    /// strictly ascending.
    pub fn chain(&mut self) -> Result<Vec<(VersionNo, Value)>, WireError> {
        let n = self.read_len()?;
        if !(1..=crate::record::MAX_VERSIONS).contains(&n) {
            return Err(WireError("chain version count out of range"));
        }
        let mut versions = Vec::with_capacity(n);
        for _ in 0..n {
            versions.push((self.version()?, self.value()?));
        }
        if !versions.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(WireError("chain versions not strictly ascending"));
        }
        Ok(versions)
    }

    /// Read a [`NodeId`].
    pub fn node(&mut self) -> Result<NodeId, WireError> {
        Ok(NodeId(self.u16()?))
    }

    /// Read a [`Key`].
    pub fn key(&mut self) -> Result<Key, WireError> {
        Ok(Key(self.u64()?))
    }

    /// Read a [`VersionNo`].
    pub fn version(&mut self) -> Result<VersionNo, WireError> {
        Ok(VersionNo(self.u32()?))
    }

    /// Read a [`TxnId`].
    pub fn txn(&mut self) -> Result<TxnId, WireError> {
        let seq = self.u64()?;
        let origin = self.node()?;
        Ok(TxnId { seq, origin })
    }

    /// Read an [`UpdateOp`].
    pub fn op(&mut self) -> Result<UpdateOp, WireError> {
        match self.u8()? {
            0 => Ok(UpdateOp::Add(self.i64()?)),
            1 => {
                let amount = self.i64()?;
                let tag = self.u32()?;
                Ok(UpdateOp::Append { amount, tag })
            }
            2 => {
                let amount = self.i64()?;
                let tag = self.u32()?;
                Ok(UpdateOp::Retract { amount, tag })
            }
            3 => Ok(UpdateOp::Assign(self.i64()?)),
            _ => Err(WireError("unknown UpdateOp tag")),
        }
    }

    /// Read a [`Value`].
    pub fn value(&mut self) -> Result<Value, WireError> {
        match self.u8()? {
            0 => Ok(Value::Counter(self.i64()?)),
            1 => {
                let n = self.read_len()?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let txn = self.txn()?;
                    let amount = self.i64()?;
                    let tag = self.u32()?;
                    entries.push(JournalEntry { txn, amount, tag });
                }
                Ok(Value::Journal(entries))
            }
            2 => Ok(Value::Register(self.i64()?)),
            _ => Err(WireError("unknown Value tag")),
        }
    }

    /// Read an `Option<Value>`.
    pub fn opt_value(&mut self) -> Result<Option<Value>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.value()?)),
            _ => Err(WireError("unknown Option tag")),
        }
    }

    /// Read a [`LockMode`].
    pub fn lock_mode(&mut self) -> Result<LockMode, WireError> {
        match self.u8()? {
            0 => Ok(LockMode::Commute),
            1 => Ok(LockMode::Exclusive),
            _ => Err(WireError("unknown LockMode tag")),
        }
    }

    /// Read a UTF-8 string written by [`ByteWriter::str`].
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.read_len()?;
        let bytes = self.take(n, "str body")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError("string is not UTF-8"))
    }

    /// Read a [`TxnKind`].
    pub fn txn_kind(&mut self) -> Result<TxnKind, WireError> {
        match self.u8()? {
            0 => Ok(TxnKind::ReadOnly),
            1 => Ok(TxnKind::Commuting),
            2 => Ok(TxnKind::NonCommuting),
            _ => Err(WireError("unknown TxnKind tag")),
        }
    }

    /// Read an [`OpStep`].
    pub fn op_step(&mut self) -> Result<OpStep, WireError> {
        match self.u8()? {
            0 => Ok(OpStep::Read(self.key()?)),
            1 => {
                let k = self.key()?;
                let op = self.op()?;
                Ok(OpStep::Update(k, op))
            }
            _ => Err(WireError("unknown OpStep tag")),
        }
    }

    /// Read a [`SubtxnPlan`] subtree. Recursion is bounded by
    /// [`MAX_PLAN_DEPTH`]: `read_len` caps each child *count* by the
    /// remaining bytes, but a malicious frame could still nest one child
    /// per level and overflow the stack without an explicit depth fence.
    pub fn sub_plan(&mut self) -> Result<SubtxnPlan, WireError> {
        self.sub_plan_at(0)
    }

    fn sub_plan_at(&mut self, depth: usize) -> Result<SubtxnPlan, WireError> {
        if depth > MAX_PLAN_DEPTH {
            return Err(WireError("plan nesting exceeds MAX_PLAN_DEPTH"));
        }
        let node = self.node()?;
        let n_steps = self.read_len()?;
        let mut steps = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            steps.push(self.op_step()?);
        }
        let n_children = self.read_len()?;
        let mut children = Vec::with_capacity(n_children);
        for _ in 0..n_children {
            children.push(self.sub_plan_at(depth + 1)?);
        }
        Ok(SubtxnPlan {
            node,
            steps,
            children,
        })
    }

    /// Read a whole [`TxnPlan`].
    pub fn txn_plan(&mut self) -> Result<TxnPlan, WireError> {
        let kind = self.txn_kind()?;
        let root = self.sub_plan()?;
        Ok(TxnPlan { kind, root })
    }
}

/// FNV-1a checksum of `bytes`, folded to 32 bits. Used by the file
/// backend to detect torn or corrupt log frames.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

/// First four bytes of every client-protocol frame: `"RFV3"` on the wire
/// (the u32 is little-endian, so the constant reads back-to-front).
pub const FRAME_MAGIC: u32 = 0x3356_4652;

/// Byte length of the fixed frame header.
pub const FRAME_HEADER_LEN: usize = 16;

/// Hard cap on a frame payload. A header announcing more than this is
/// rejected before any allocation — the bound that keeps a hostile
/// 4 GiB length prefix from becoming a 4 GiB `Vec`.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Deepest [`SubtxnPlan`] nesting the decoder will follow. `read_len`
/// bounds child *counts* by remaining bytes, but one-child-per-level
/// nesting is linear in input size and would otherwise recurse without
/// limit.
pub const MAX_PLAN_DEPTH: usize = 64;

/// Decoded fixed header of a client-protocol frame.
///
/// Layout (16 bytes, all little-endian):
///
/// | offset | field       | type  |
/// |-------:|-------------|-------|
/// |      0 | magic       | `u32` |
/// |      4 | version     | `u16` |
/// |      6 | kind        | `u8`  |
/// |      7 | reserved(0) | `u8`  |
/// |      8 | payload len | `u32` |
/// |     12 | checksum    | `u32` |
///
/// The checksum is [`checksum`] over the payload bytes only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version the sender speaks.
    pub version: u16,
    /// Message kind discriminant (meaning belongs to the layer above).
    pub kind: u8,
    /// Payload byte length, already validated `<=` [`MAX_FRAME_PAYLOAD`].
    pub payload_len: usize,
    /// FNV-1a checksum of the payload.
    pub checksum: u32,
}

/// Encode a frame: fixed header plus payload. Fails (rather than
/// truncating or panicking) if the payload exceeds [`MAX_FRAME_PAYLOAD`].
pub fn encode_frame(version: u16, kind: u8, payload: &[u8]) -> Result<Vec<u8>, WireError> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(WireError("payload exceeds MAX_FRAME_PAYLOAD"));
    }
    let mut w = ByteWriter::new();
    w.u32(FRAME_MAGIC);
    w.u16(version);
    w.u8(kind);
    w.u8(0);
    w.u32(payload.len() as u32);
    w.u32(checksum(payload));
    let mut buf = w.into_bytes();
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// Decode and validate the fixed 16-byte header. Rejects short input,
/// bad magic, a non-zero reserved byte, and oversized payload lengths —
/// everything a reader can check before touching the payload.
pub fn decode_frame_header(bytes: &[u8]) -> Result<FrameHeader, WireError> {
    let mut r = ByteReader::new(bytes);
    if r.remaining() < FRAME_HEADER_LEN {
        return Err(WireError("frame header truncated"));
    }
    if r.u32()? != FRAME_MAGIC {
        return Err(WireError("bad frame magic"));
    }
    let version = r.u16()?;
    let kind = r.u8()?;
    if r.u8()? != 0 {
        return Err(WireError("reserved frame byte is non-zero"));
    }
    let payload_len = r.u32()? as usize;
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(WireError("frame payload length exceeds limit"));
    }
    let cksum = r.u32()?;
    Ok(FrameHeader {
        version,
        kind,
        payload_len,
        checksum: cksum,
    })
}

/// Verify a received payload against its header (length, then checksum).
pub fn verify_frame_payload(header: &FrameHeader, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() != header.payload_len {
        return Err(WireError("frame payload length mismatch"));
    }
    if checksum(payload) != header.checksum {
        return Err(WireError("frame checksum mismatch"));
    }
    Ok(())
}

/// Decode one whole frame from a contiguous buffer: header, exact-length
/// payload, checksum. Trailing bytes after the payload are rejected so a
/// frame is one frame, not a prefix.
pub fn decode_frame(bytes: &[u8]) -> Result<(FrameHeader, &[u8]), WireError> {
    let header = decode_frame_header(bytes)?;
    let body = &bytes[FRAME_HEADER_LEN..];
    if body.len() != header.payload_len {
        return Err(WireError("frame payload length mismatch"));
    }
    verify_frame_payload(&header, body)?;
    Ok((header, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(65_535);
        w.u32(123_456);
        w.u64(u64::MAX);
        w.i64(-42);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65_535);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert!(r.is_exhausted());
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let cases = [0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, 1 << 56, u64::MAX];
        let mut w = ByteWriter::new();
        for &x in &cases {
            w.varint(x);
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 1 + 1 + 2 + 2 + 3 + 9 + 10);
        let mut r = ByteReader::new(&bytes);
        for &x in &cases {
            assert_eq!(r.varint().unwrap(), x);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn varint_rejects_overrun() {
        let bytes = [0xFF; 11];
        assert!(ByteReader::new(&bytes).varint().is_err());
    }

    #[test]
    fn model_types_round_trip() {
        let ops = [
            UpdateOp::Add(-5),
            UpdateOp::Append { amount: 7, tag: 3 },
            UpdateOp::Retract { amount: 7, tag: 3 },
            UpdateOp::Assign(9),
        ];
        let values = [
            Value::Counter(-100),
            Value::Register(55),
            Value::Journal(vec![JournalEntry {
                txn: TxnId::new(3, NodeId(1)),
                amount: 12,
                tag: 4,
            }]),
        ];
        let mut w = ByteWriter::new();
        w.txn(TxnId::new(9, NodeId(2)));
        w.key(Key(77));
        w.version(VersionNo(6));
        for op in ops {
            w.op(op);
        }
        for v in &values {
            w.value(v);
        }
        w.opt_value(&None);
        w.opt_value(&Some(Value::Counter(1)));
        w.lock_mode(LockMode::Commute);
        w.lock_mode(LockMode::Exclusive);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.txn().unwrap(), TxnId::new(9, NodeId(2)));
        assert_eq!(r.key().unwrap(), Key(77));
        assert_eq!(r.version().unwrap(), VersionNo(6));
        for op in ops {
            assert_eq!(r.op().unwrap(), op);
        }
        for v in &values {
            assert_eq!(&r.value().unwrap(), v);
        }
        assert_eq!(r.opt_value().unwrap(), None);
        assert_eq!(r.opt_value().unwrap(), Some(Value::Counter(1)));
        assert_eq!(r.lock_mode().unwrap(), LockMode::Commute);
        assert_eq!(r.lock_mode().unwrap(), LockMode::Exclusive);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = ByteWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn corrupt_length_rejected() {
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            r.read_len(),
            Err(WireError("length exceeds remaining input"))
        );
    }

    #[test]
    fn checksum_differs_on_flip() {
        let a = checksum(b"hello world");
        let b = checksum(b"hello worle");
        assert_ne!(a, b);
        assert_eq!(a, checksum(b"hello world"));
    }

    #[test]
    fn strings_round_trip() {
        let mut w = ByteWriter::new();
        w.str("");
        w.str("hello ↔ wire");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.str().unwrap(), "hello ↔ wire");
        assert!(r.is_exhausted());
    }

    #[test]
    fn invalid_utf8_string_rejected() {
        let mut w = ByteWriter::new();
        w.len(2);
        w.u8(0xFF);
        w.u8(0xFE);
        let bytes = w.into_bytes();
        assert_eq!(
            ByteReader::new(&bytes).str(),
            Err(WireError("string is not UTF-8"))
        );
    }

    fn sample_plan() -> TxnPlan {
        TxnPlan {
            kind: TxnKind::Commuting,
            root: SubtxnPlan {
                node: NodeId(0),
                steps: vec![
                    OpStep::Read(Key(1)),
                    OpStep::Update(Key(2), UpdateOp::Add(3)),
                ],
                children: vec![SubtxnPlan {
                    node: NodeId(1),
                    steps: vec![OpStep::Update(
                        Key(9),
                        UpdateOp::Append { amount: 1, tag: 7 },
                    )],
                    children: vec![],
                }],
            },
        }
    }

    #[test]
    fn txn_plan_round_trips() {
        let plan = sample_plan();
        let mut w = ByteWriter::new();
        w.txn_plan(&plan);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.txn_plan().unwrap(), plan);
        assert!(r.is_exhausted());
    }

    #[test]
    fn plan_nesting_depth_is_fenced() {
        // One child per level: linear in bytes, unbounded in depth.
        let mut deep = SubtxnPlan {
            node: NodeId(0),
            steps: vec![],
            children: vec![],
        };
        for _ in 0..(MAX_PLAN_DEPTH + 2) {
            deep = SubtxnPlan {
                node: NodeId(0),
                steps: vec![],
                children: vec![deep],
            };
        }
        let mut w = ByteWriter::new();
        w.sub_plan(&deep);
        let bytes = w.into_bytes();
        assert_eq!(
            ByteReader::new(&bytes).sub_plan(),
            Err(WireError("plan nesting exceeds MAX_PLAN_DEPTH"))
        );
    }

    #[test]
    fn frames_round_trip() {
        let payload = b"commuting updates".as_slice();
        let frame = encode_frame(1, 4, payload).unwrap();
        assert_eq!(frame.len(), FRAME_HEADER_LEN + payload.len());
        let (header, body) = decode_frame(&frame).unwrap();
        assert_eq!(header.version, 1);
        assert_eq!(header.kind, 4);
        assert_eq!(body, payload);

        // Empty payload is a legal frame.
        let empty = encode_frame(1, 0, &[]).unwrap();
        let (h, b) = decode_frame(&empty).unwrap();
        assert_eq!(h.payload_len, 0);
        assert!(b.is_empty());
    }

    #[test]
    fn frame_rejects_corruption() {
        let frame = encode_frame(1, 2, b"payload").unwrap();

        // Truncation at every length short of the full frame.
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }

        // A flip anywhere — magic, header fields, or payload — must fail
        // (flips inside `version`/`kind` survive header checks, but then
        // the checksum was computed for a different (version, kind)
        // pairing only if the payload changed; version/kind flips are
        // caught one layer up, so only assert no panic for those).
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            let _ = decode_frame(&bad); // must not panic
        }

        // Payload flips specifically must fail the checksum.
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(
            decode_frame(&bad),
            Err(WireError("frame checksum mismatch"))
        );

        // Oversized announced length is rejected before allocation.
        let mut w = ByteWriter::new();
        w.u32(FRAME_MAGIC);
        w.u16(1);
        w.u8(0);
        w.u8(0);
        w.u32(u32::MAX);
        w.u32(0);
        assert_eq!(
            decode_frame_header(&w.into_bytes()),
            Err(WireError("frame payload length exceeds limit"))
        );

        // Trailing garbage after the payload is not a frame.
        let mut long = frame.clone();
        long.push(0);
        assert!(decode_frame(&long).is_err());
    }

    #[test]
    fn oversized_payload_refused_at_encode() {
        let big = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        assert_eq!(
            encode_frame(1, 0, &big),
            Err(WireError("payload exceeds MAX_FRAME_PAYLOAD"))
        );
    }
}
