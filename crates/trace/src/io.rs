//! Streaming trace file IO.
//!
//! [`TraceWriter`] encodes records as they arrive — nothing is buffered
//! beyond one record — so multi-gigabyte captures stream straight to disk.
//! [`TraceReader`] is an iterator over records and verifies the footer's
//! record count and content hash when the stream ends, so truncated or
//! corrupted trace files fail loudly rather than replaying garbage.

use crate::format::{
    fnv1a, ByteCursor, CapturedTrace, Decoder, Encoder, FormatError, TraceMeta, TraceRecord,
    FNV_OFFSET, FORMAT_VERSION, MAGIC, TAG_END,
};
use std::io::{self, Read, Write};

/// Errors produced while reading a trace stream.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Structurally invalid stream.
    Format(FormatError),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace io error: {e}"),
            TraceIoError::Format(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<FormatError> for TraceIoError {
    fn from(e: FormatError) -> Self {
        TraceIoError::Format(e)
    }
}

fn fmt_err<T>(msg: impl Into<String>) -> Result<T, TraceIoError> {
    Err(TraceIoError::Format(FormatError(msg.into())))
}

/// Seed of the footer hash: the header metadata (version, workload,
/// scale, capture-cycle count) is folded in, so a corrupted header
/// field fails the same loud check as a flipped record byte.
fn header_seed(meta: &TraceMeta) -> u64 {
    let mut bytes = Vec::with_capacity(meta.workload.len() + meta.scale.len() + 16);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    for s in [&meta.workload, &meta.scale] {
        bytes.extend_from_slice(&(s.len() as u16).to_le_bytes());
        bytes.extend_from_slice(s.as_bytes());
    }
    crate::format::write_varint(&mut bytes, meta.capture_cycles);
    fnv1a(&bytes, FNV_OFFSET)
}

/// Streaming writer for the trace format.
pub struct TraceWriter<W: Write> {
    out: W,
    enc: Encoder,
    buf: Vec<u8>,
    /// Records-only content hash (seed [`FNV_OFFSET`]): the value
    /// [`TraceWriter::finish`] returns, comparable with
    /// [`crate::format::content_hash`].
    hash: u64,
    /// Footer hash: records folded over [`header_seed`], so the header
    /// is integrity-checked too.
    file_hash: u64,
    count: u64,
    finished: bool,
}

impl<W: Write> TraceWriter<W> {
    /// Writes a [`FORMAT_VERSION`] header and returns a writer ready
    /// for records.
    pub fn new(mut out: W, meta: &TraceMeta) -> io::Result<Self> {
        out.write_all(&MAGIC)?;
        out.write_all(&FORMAT_VERSION.to_le_bytes())?;
        write_str(&mut out, &meta.workload)?;
        write_str(&mut out, &meta.scale)?;
        let mut buf = Vec::with_capacity(32);
        crate::format::write_varint(&mut buf, meta.capture_cycles);
        out.write_all(&buf)?;
        Ok(TraceWriter {
            out,
            enc: Encoder::default(),
            buf,
            hash: FNV_OFFSET,
            file_hash: header_seed(meta),
            count: 0,
            finished: false,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    /// The underlying writer's error, or `InvalidInput` (`record N: store
    /// size S`) for a store of a size the reader refuses — anything but
    /// 1, 4 or 8 bytes — before any of its bytes is written, so the count
    /// and hashes stay those of the records before it.
    pub fn record(&mut self, r: &TraceRecord) -> io::Result<()> {
        debug_assert!(!self.finished, "record() after finish()");
        if let TraceRecord::Store { size, .. } = r {
            if !matches!(size, 1 | 4 | 8) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("record {}: store size {size}", self.count),
                ));
            }
        }
        self.buf.clear();
        self.enc.encode(r, &mut self.buf);
        self.hash = fnv1a(&self.buf, self.hash);
        self.file_hash = fnv1a(&self.buf, self.file_hash);
        self.count += 1;
        self.out.write_all(&self.buf)
    }

    /// Number of records written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Writes the footer (end marker, count, header-seeded file hash)
    /// and returns the underlying writer plus the records-only content
    /// hash (the cache-key value).
    pub fn finish(mut self) -> io::Result<(W, u64)> {
        self.finished = true;
        self.out.write_all(&[TAG_END])?;
        self.buf.clear();
        crate::format::write_varint(&mut self.buf, self.count);
        let buf = std::mem::take(&mut self.buf);
        self.out.write_all(&buf)?;
        self.out.write_all(&self.file_hash.to_le_bytes())?;
        self.out.flush()?;
        Ok((self.out, self.hash))
    }
}

fn write_str<W: Write>(out: &mut W, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    assert!(bytes.len() <= u16::MAX as usize, "metadata string too long");
    out.write_all(&(bytes.len() as u16).to_le_bytes())?;
    out.write_all(bytes)
}

fn read_str<R: Read>(src: &mut R) -> Result<String, TraceIoError> {
    let mut len = [0u8; 2];
    src.read_exact(&mut len)?;
    let mut bytes = vec![0u8; u16::from_le_bytes(len) as usize];
    src.read_exact(&mut bytes)?;
    match String::from_utf8(bytes) {
        Ok(s) => Ok(s),
        Err(_) => fmt_err("metadata string is not utf-8"),
    }
}

/// Reads one LEB128 varint directly off the stream (header fields only;
/// record varints decode from the buffered bytes).
fn read_varint<R: Read>(src: &mut R) -> Result<u64, TraceIoError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        src.read_exact(&mut b)?;
        if shift >= 64 {
            return fmt_err("varint overflow in header");
        }
        v |= ((b[0] & 0x7F) as u64) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Streaming reader: parses the header eagerly, then iterates records.
///
/// The reader buffers the stream in 64 KiB chunks as records need them
/// and decodes each record from that buffer on demand; consumed bytes are
/// dropped once more than 1 MiB has been read past, so the buffer stays
/// bounded however long the file is. A record that fails to decode is
/// named by its ordinal (`record N: ...`).
pub struct TraceReader<R: Read> {
    src: R,
    meta: TraceMeta,
    bytes: Vec<u8>,
    pos: usize,
    dec: Decoder,
    hash: u64,
    count: u64,
    done: bool,
    src_exhausted: bool,
}

impl<R: Read> TraceReader<R> {
    /// Parses the header; fails on bad magic or on any version other
    /// than [`FORMAT_VERSION`] (named in the error, so a file from an
    /// older or newer build says what it is).
    pub fn new(mut src: R) -> Result<Self, TraceIoError> {
        let mut magic = [0u8; 4];
        src.read_exact(&mut magic)?;
        if magic != MAGIC {
            return fmt_err("bad magic (not an ETPT trace)");
        }
        let mut ver = [0u8; 2];
        src.read_exact(&mut ver)?;
        let version = u16::from_le_bytes(ver);
        if version != FORMAT_VERSION {
            return fmt_err(format!(
                "unsupported trace version {version} (this build reads version {FORMAT_VERSION})"
            ));
        }
        let workload = read_str(&mut src)?;
        let scale = read_str(&mut src)?;
        let capture_cycles = read_varint(&mut src)?;
        let meta = TraceMeta {
            workload,
            scale,
            capture_cycles,
        };
        // Footer hash accumulator, seeded so header corruption fails
        // verification exactly like a flipped record byte.
        let hash = header_seed(&meta);
        Ok(TraceReader {
            src,
            meta,
            bytes: Vec::new(),
            pos: 0,
            dec: Decoder::default(),
            hash,
            count: 0,
            done: false,
            src_exhausted: false,
        })
    }

    /// Header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Reads every remaining record, verifying the footer.
    pub fn read_to_end(mut self) -> Result<CapturedTrace, TraceIoError> {
        let mut records = Vec::new();
        for r in self.by_ref() {
            records.push(r?);
        }
        Ok(CapturedTrace {
            meta: self.meta,
            records,
        })
    }

    /// Ensures at least `n` unconsumed bytes are buffered (or the source is
    /// exhausted).
    fn fill(&mut self, n: usize) -> io::Result<()> {
        while !self.src_exhausted && self.bytes.len() - self.pos < n {
            let mut chunk = [0u8; 65536];
            let got = self.src.read(&mut chunk)?;
            if got == 0 {
                self.src_exhausted = true;
            } else {
                self.bytes.extend_from_slice(&chunk[..got]);
            }
        }
        Ok(())
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceIoError> {
        if self.done {
            return Ok(None);
        }
        // A record is at most ~40 bytes; buffer generously.
        self.fill(64)?;
        if self.pos >= self.bytes.len() {
            return fmt_err("truncated trace: missing end marker");
        }
        let tag = self.bytes[self.pos];
        if tag == TAG_END {
            self.pos += 1;
            self.done = true;
            self.verify_footer()?;
            return Ok(None);
        }
        let start = self.pos + 1;
        let mut cur = ByteCursor {
            bytes: &self.bytes,
            pos: start,
        };
        // Name the failing record ordinal so a corrupt trace diagnoses
        // as "record N: ...", not a bare decoder error.
        let rec = self
            .dec
            .decode(tag, &mut cur)
            .map_err(|FormatError(msg)| FormatError(format!("record {}: {msg}", self.count)))?;
        let end = cur.pos;
        self.hash = fnv1a(&self.bytes[self.pos..end], self.hash);
        self.pos = end;
        self.count += 1;
        // Drop consumed bytes occasionally so memory stays bounded.
        if self.pos > 1 << 20 {
            self.bytes.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(rec))
    }

    fn verify_footer(&mut self) -> Result<(), TraceIoError> {
        self.fill(20)?;
        let mut cur = ByteCursor {
            bytes: &self.bytes,
            pos: self.pos,
        };
        let count = cur.varint()?;
        let pos = cur.pos;
        if self.bytes.len() < pos + 8 {
            return fmt_err("truncated trace footer");
        }
        let hash = u64::from_le_bytes(self.bytes[pos..pos + 8].try_into().expect("8 bytes"));
        if count != self.count {
            return fmt_err(format!(
                "record count mismatch: footer {count}, stream {}",
                self.count
            ));
        }
        if hash != self.hash {
            return fmt_err("content hash mismatch: trace corrupted (header or records)");
        }
        self.pos = pos + 8;
        Ok(())
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_record() {
            Ok(Some(r)) => Some(Ok(r)),
            Ok(None) => None,
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpp_mem::ConfigOp;

    fn sample_records() -> Vec<TraceRecord> {
        let mut v = Vec::new();
        v.push(TraceRecord::Config {
            cycle: 0,
            op: Box::new(ConfigOp::SetGlobal { idx: 1, value: 42 }),
        });
        for i in 0..100u64 {
            let (cycle, pc, vaddr) = (5 + i * 7, 0x40 + (i as u32 % 3) * 4, 0x1_0000 + i * 64);
            v.push(if i % 5 == 0 {
                TraceRecord::Store {
                    cycle,
                    pc,
                    vaddr,
                    value: i * 3,
                    size: 8,
                }
            } else {
                TraceRecord::Load {
                    cycle,
                    pc,
                    vaddr,
                    dep: (i % 4) as u32,
                }
            });
        }
        v
    }

    #[test]
    fn roundtrip_with_meta_and_footer() {
        let records = sample_records();
        let meta = TraceMeta::new("HJ-8", "tiny").with_capture_cycles(123_456);
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, &meta).unwrap();
        for r in &records {
            w.record(r).unwrap();
        }
        let (_, hash) = w.finish().unwrap();
        assert_eq!(hash, crate::format::content_hash(&records));

        let r = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.meta().workload, "HJ-8");
        let back = r.read_to_end().unwrap();
        assert_eq!(back.records, records);
        assert_eq!(back.meta, meta);
    }

    #[test]
    fn corrupted_v2_header_field_is_detected() {
        // capture_cycles = 777 encodes as the 2-byte varint [0x89,
        // 0x06] right after the two header strings. Flip its low bits
        // so it still parses as a valid varint (to 649): the footer
        // hash is seeded with the header metadata, so the corruption
        // must fail verification like any flipped record byte.
        let records = sample_records();
        let meta = TraceMeta::new("HJ-8", "tiny").with_capture_cycles(777);
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, &meta).unwrap();
        for r in &records {
            w.record(r).unwrap();
        }
        w.finish().unwrap();
        let field_at = MAGIC.len() + 2 + (2 + "HJ-8".len()) + (2 + "tiny".len());
        assert_eq!(&buf[field_at..field_at + 2], &[0x89, 0x06]);
        buf[field_at + 1] = 0x05;
        let r = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.meta().capture_cycles, 649, "corrupted field parses");
        let res = r.read_to_end();
        assert!(
            res.is_err(),
            "header corruption must not produce a validated trace"
        );
    }

    #[test]
    fn unsupported_version_names_accepted_range() {
        // MAGIC + version + empty workload/scale strings: the retired
        // v1 and a future version are refused alike, by name.
        for version in [1u16, 99] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&crate::format::MAGIC);
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&[0, 0, 0, 0]);
            let Err(err) = TraceReader::new(buf.as_slice()) else {
                panic!("version {version} must be rejected");
            };
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("unsupported trace version {version}")),
                "message must name the file's version: {msg}"
            );
            assert!(
                msg.contains(&format!("reads version {FORMAT_VERSION}")),
                "message must name the accepted version: {msg}"
            );
        }
    }

    #[test]
    fn corrupted_byte_is_detected() {
        let records = sample_records();
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, &TraceMeta::new("x", "tiny")).unwrap();
        for r in &records {
            w.record(r).unwrap();
        }
        w.finish().unwrap();
        // Flip a byte in the middle of the record stream.
        let mid = buf.len() / 2;
        buf[mid] ^= 0x55;
        let res = TraceReader::new(buf.as_slice()).and_then(|r| r.read_to_end());
        assert!(res.is_err(), "corruption must not round-trip silently");
    }

    #[test]
    fn truncation_is_detected() {
        let records = sample_records();
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, &TraceMeta::new("x", "tiny")).unwrap();
        for r in &records {
            w.record(r).unwrap();
        }
        w.finish().unwrap();
        buf.truncate(buf.len() - 4);
        let res = TraceReader::new(buf.as_slice()).and_then(|r| r.read_to_end());
        assert!(res.is_err());
    }

    #[test]
    fn store_of_unsupported_size_is_refused_by_record() {
        // The writer refuses to encode such a store, so patch the size
        // byte of a valid stream: the one byte where a 4-byte and an
        // 8-byte store 6 differ before the footer.
        let encode = |size: u8| {
            let mut records = sample_records();
            let TraceRecord::Store { size: s, .. } = &mut records[6] else {
                panic!("sample record 6 is a store");
            };
            *s = size;
            let mut buf = Vec::new();
            let mut w = TraceWriter::new(&mut buf, &TraceMeta::new("x", "tiny")).unwrap();
            for r in &records {
                w.record(r).unwrap();
            }
            w.finish().unwrap();
            buf
        };
        let (mut buf, eight) = (encode(4), encode(8));
        let at = (buf.iter().zip(&eight)).position(|(a, b)| a != b).unwrap();
        assert_eq!((buf[at], eight[at]), (4, 8), "the size byte");
        buf[at] = 2;
        // The reader refuses any store size but 1, 4 and 8, naming the
        // record.
        let err = TraceReader::new(buf.as_slice())
            .and_then(|r| r.read_to_end())
            .expect_err("a 2-byte store must not decode");
        assert_eq!(
            err.to_string(),
            "trace format error: record 6: store size 2"
        );
    }

    #[test]
    fn writer_refuses_a_store_size_the_reader_refuses() {
        let records = sample_records();
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, &TraceMeta::new("x", "tiny")).unwrap();
        for r in &records[..6] {
            w.record(r).unwrap();
        }
        let before = (w.count(), w.hash, w.file_hash);
        for size in [0, 2, 3, 5, 16, 255] {
            let bad = TraceRecord::Store {
                cycle: 99,
                pc: 0x40,
                vaddr: 0x1_0000,
                value: 7,
                size,
            };
            let err = w.record(&bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert_eq!(err.to_string(), format!("record 6: store size {size}"));
            assert_eq!((w.count(), w.hash, w.file_hash), before, "size {size}");
        }
        // Nothing of the refused records reached the stream: the rest
        // writes and reads back as if they had never been offered.
        for r in &records[6..] {
            w.record(r).unwrap();
        }
        w.finish().unwrap();
        let back = TraceReader::new(buf.as_slice())
            .and_then(|r| r.read_to_end())
            .unwrap();
        assert_eq!(back.records, records);
    }

    #[test]
    fn bad_magic_rejected() {
        let res = TraceReader::new(&b"NOPE\x01\x00"[..]);
        assert!(res.is_err());
    }
}
