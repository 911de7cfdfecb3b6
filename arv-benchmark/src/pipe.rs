//! The driver's end of a connection to a daemon under test: a blocking
//! socket that can pipeline. Requests are queued and written as one
//! batch; replies are reassembled by the product's own `FrameDecoder`.

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use arv_viewd::FrameDecoder;

/// A daemon that stops answering must fail the run, not hang it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One blocking, pipelining connection.
#[derive(Debug)]
pub struct Pipe {
    stream: UnixStream,
    decoder: FrameDecoder,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
}

impl Pipe {
    /// Connect to the daemon at `path`; replies may be up to `max_frame`
    /// bytes long.
    pub fn connect(path: &Path, max_frame: u32) -> io::Result<Pipe> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Pipe {
            stream,
            decoder: FrameDecoder::new(max_frame),
            rbuf: vec![0u8; 64 * 1024],
            wbuf: Vec::new(),
        })
    }

    /// Queue one frame (the length prefix is added here).
    pub fn queue(&mut self, payload: &[u8]) {
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(payload);
    }

    /// Write everything queued, as one batch.
    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.wbuf)?;
        self.wbuf.clear();
        Ok(())
    }

    /// The next reply frame (the payload after its length prefix).
    pub fn recv(&mut self) -> io::Result<Vec<u8>> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            let n = self.stream.read(&mut self.rbuf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.decoder.feed(&self.rbuf[..n]);
        }
    }
}
