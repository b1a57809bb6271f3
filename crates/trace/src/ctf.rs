//! CTF-lite binary trace format.
//!
//! The paper emits Common Trace Format streams because CTF "strives for
//! fast data writes". We keep the property that matters — fixed-size
//! little-endian records that can be `memcpy`d — in a simplified container:
//!
//! ```text
//! header:  magic  b"NTCF"     (4 bytes)
//!          version u32 LE     (currently 1)
//!          ncores  u16 LE
//!          nevents u64 LE
//! records: nevents × 24 bytes:
//!          ns u64 LE | payload u64 LE | core u16 LE | kind u8 | pad [5]
//! ```

use crate::Trace;
use crate::event::{Event, EventKind};
use std::io::{self, Read, Write};

/// File magic.
pub const MAGIC: &[u8; 4] = b"NTCF";
/// Current format version.
pub const VERSION: u32 = 1;
/// Bytes per record.
pub const RECORD_BYTES: usize = 24;

/// Typed CTF-lite serialization failures. Carried inside the
/// `io::Error` returned by [`write_trace`] (kind `InvalidInput`), so
/// callers can downcast via `err.get_ref()` instead of string-matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtfError {
    /// The trace's core count does not fit the header's on-disk `u16`.
    NcoresOverflow(u32),
}

impl std::fmt::Display for CtfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtfError::NcoresOverflow(n) => {
                write!(
                    f,
                    "ncores {n} exceeds the CTF-lite header limit {}",
                    u16::MAX
                )
            }
        }
    }
}

impl std::error::Error for CtfError {}

/// Serialize a trace into `w`. Fails with [`CtfError::NcoresOverflow`]
/// (wrapped in an `InvalidInput` io error) when the trace's core count
/// cannot be represented in the header, rather than truncating it.
pub fn write_trace<W: Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    let ncores: u16 = trace.ncores().try_into().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            CtfError::NcoresOverflow(trace.ncores()),
        )
    })?;
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&ncores.to_le_bytes())?;
    w.write_all(&(trace.events().len() as u64).to_le_bytes())?;
    let mut rec = [0u8; RECORD_BYTES];
    for e in trace.events() {
        rec[0..8].copy_from_slice(&e.ns.to_le_bytes());
        rec[8..16].copy_from_slice(&e.payload.to_le_bytes());
        rec[16..18].copy_from_slice(&e.core.to_le_bytes());
        rec[18] = e.kind as u8;
        // bytes 19..24 are padding, already zero
        w.write_all(&rec)?;
    }
    Ok(())
}

/// Parse a trace from `r`.
pub fn read_trace<R: Read>(r: &mut R) -> io::Result<Trace> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let mut buf4 = [0u8; 4];
    r.read_exact(&mut buf4)?;
    let version = u32::from_le_bytes(buf4);
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported version {version}"),
        ));
    }
    let mut buf2 = [0u8; 2];
    r.read_exact(&mut buf2)?;
    let ncores = u16::from_le_bytes(buf2);
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let nevents = u64::from_le_bytes(buf8) as usize;
    let mut events = Vec::with_capacity(nevents.min(1 << 24));
    let mut rec = [0u8; RECORD_BYTES];
    for _ in 0..nevents {
        r.read_exact(&mut rec)?;
        let ns = u64::from_le_bytes(rec[0..8].try_into().unwrap());
        let payload = u64::from_le_bytes(rec[8..16].try_into().unwrap());
        let core = u16::from_le_bytes(rec[16..18].try_into().unwrap());
        let kind = EventKind::from_u8(rec[18]).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad kind {}", rec[18]))
        })?;
        events.push(Event {
            ns,
            payload,
            core,
            kind,
        });
    }
    Ok(Trace::from_events(ncores.into(), events))
}

/// Write a trace to a file path.
pub fn save(trace: &Trace, path: &std::path::Path) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_trace(trace, &mut f)
}

/// Read a trace from a file path.
pub fn load(path: &std::path::Path) -> io::Result<Trace> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    read_trace(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let events = vec![
            Event {
                ns: 10,
                payload: 7,
                core: 0,
                kind: EventKind::TaskStart,
            },
            Event {
                ns: 20,
                payload: 7,
                core: 0,
                kind: EventKind::TaskEnd,
            },
            Event {
                ns: 15,
                payload: 3,
                core: 1,
                kind: EventKind::SchedServe,
            },
        ];
        Trace::from_events(2, events)
    }

    #[test]
    fn roundtrip_in_memory() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), 4 + 4 + 2 + 8 + 3 * RECORD_BYTES);
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn roundtrip_empty() {
        let t = Trace::from_events(4, vec![]);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.ncores(), 4);
        assert!(back.events().is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(read_trace(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        buf[4] = 99;
        assert!(read_trace(&mut buf.as_slice()).is_err());
    }

    /// Forward-compat guard: a trace written by a *future* format
    /// version (VERSION + 1) must be rejected up front, not
    /// misinterpreted record-by-record.
    #[test]
    fn rejects_next_version_explicitly() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        buf[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn ncores_overflow_is_a_typed_error() {
        let t = Trace::from_events(u16::MAX as u32 + 1, vec![]);
        let err = write_trace(&t, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let inner = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<CtfError>())
            .expect("downcasts to CtfError");
        assert_eq!(*inner, CtfError::NcoresOverflow(u16::MAX as u32 + 1));
        // The boundary value still serializes.
        let t = Trace::from_events(u16::MAX as u32, vec![]);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        assert_eq!(
            read_trace(&mut buf.as_slice()).unwrap().ncores(),
            u16::MAX as u32
        );
    }

    #[test]
    fn rejects_bad_kind() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        // Corrupt the kind byte of the first record: an unassigned value,
        // then retired ones (22, inline runs; 23, batched ready-task
        // adds; 26, replay-partition assignment) that older writers
        // emitted under the same format version.
        let kind_off = 4 + 4 + 2 + 8 + 18;
        for bad in [250, 22, 23, 26] {
            buf[kind_off] = bad;
            let err = read_trace(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "kind {bad}");
        }
    }

    #[test]
    fn rejects_truncated_records() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(read_trace(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("nanotask-ctf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.ntcf");
        let t = sample_trace();
        save(&t, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, t);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_event() -> impl Strategy<Value = Event> {
        (
            any::<u64>(),
            any::<u64>(),
            any::<u16>(),
            0..EventKind::all().len() as u8,
        )
            .prop_map(|(ns, payload, core, k)| Event {
                ns,
                payload,
                core,
                kind: EventKind::all()[k as usize],
            })
    }

    proptest! {
        #[test]
        fn roundtrip_any_events(
            events in proptest::collection::vec(arb_event(), 0..200),
            ncores in 0u32..64,
        ) {
            let t = Trace::from_events(ncores, events);
            let mut buf = Vec::new();
            write_trace(&t, &mut buf).unwrap();
            let back = read_trace(&mut buf.as_slice()).unwrap();
            prop_assert_eq!(back, t);
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // The reader must reject garbage gracefully.
            let _ = read_trace(&mut bytes.as_slice());
        }

        #[test]
        fn truncation_is_an_error_not_a_panic(
            events in proptest::collection::vec(arb_event(), 1..20),
            cut in 1usize..10,
        ) {
            let t = Trace::from_events(4, events);
            let mut buf = Vec::new();
            write_trace(&t, &mut buf).unwrap();
            let cut = cut.min(buf.len() - 1);
            buf.truncate(buf.len() - cut);
            prop_assert!(read_trace(&mut buf.as_slice()).is_err());
        }
    }
}
