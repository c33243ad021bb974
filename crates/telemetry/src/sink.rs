//! Where the NDJSON lines go: a small sink trait plus the two obvious
//! implementations (an `io::Write` adapter for files/stdout and an in-memory
//! string buffer for tests).

use crate::event::TelemetryEvent;
use std::io;

/// Consumer of encoded NDJSON lines (without trailing newline).
pub trait TelemetrySink {
    /// Accept one encoded line.
    fn line(&mut self, line: &str) -> io::Result<()>;
}

/// Adapter writing lines (newline-terminated) to any [`io::Write`].
pub struct WriteSink<W: io::Write>(pub W);

impl<W: io::Write> TelemetrySink for WriteSink<W> {
    fn line(&mut self, line: &str) -> io::Result<()> {
        self.0.write_all(line.as_bytes())?;
        self.0.write_all(b"\n")
    }
}

/// In-memory sink accumulating the stream as one newline-separated string.
#[derive(Debug, Default)]
pub struct StringSink(pub String);

impl TelemetrySink for StringSink {
    fn line(&mut self, line: &str) -> io::Result<()> {
        self.0.push_str(line);
        self.0.push('\n');
        Ok(())
    }
}

/// Encode `events` into `sink`, one NDJSON line per event.
pub fn write_ndjson<S: TelemetrySink>(events: &[TelemetryEvent], sink: &mut S) -> io::Result<()> {
    let mut line = String::with_capacity(128);
    for ev in events {
        line.clear();
        ev.encode_into(&mut line);
        sink.line(&line)?;
    }
    Ok(())
}
