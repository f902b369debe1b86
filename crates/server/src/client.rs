//! A small blocking client for the `safetsa-serve/1` protocol.
//!
//! Used by the chaos harness, the loadgen bench, and anyone scripting
//! against a daemon: one connection, synchronous request/response, no
//! pipelining (send several lines yourself if you want that — see
//! [`Client::send_line`] / [`Client::recv`]).

use crate::json;
use safetsa_telemetry::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::Path;

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// One client connection to a serve daemon.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Client {
    /// Connects over TCP (`host:port`) with `TCP_NODELAY` set, so a
    /// request frame leaves in one segment instead of waiting on Nagle
    /// for the daemon's delayed ACK.
    ///
    /// # Errors
    ///
    /// Returns the connect failure.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = Stream::Tcp(stream.try_clone()?);
        Ok(Client {
            reader: BufReader::new(Stream::Tcp(stream)),
            writer,
        })
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Returns the connect failure.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let writer = Stream::Unix(stream.try_clone()?);
        Ok(Client {
            reader: BufReader::new(Stream::Unix(stream)),
            writer,
        })
    }

    /// Sends one raw frame (a newline is appended). Deliberately does
    /// not validate — the chaos harness uses this to send garbage.
    ///
    /// The line and its `\n` go out in a single write: a separate write
    /// for the terminator would be a second small segment that Nagle
    /// holds until the daemon ACKs the first, which costs a delayed-ACK
    /// timeout (about 40 ms on Linux) per request.
    ///
    /// # Errors
    ///
    /// Returns the write failure.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()
    }

    /// Reads one response frame; `None` on clean EOF.
    ///
    /// # Errors
    ///
    /// I/O failures, plus `InvalidData` when the daemon's response is
    /// not valid JSON (which would itself be a daemon bug).
    pub fn recv(&mut self) -> std::io::Result<Option<Json>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        json::parse(line.trim())
            .map(Some)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Sends a request document and waits for its response.
    ///
    /// # Errors
    ///
    /// I/O failures; `UnexpectedEof` if the daemon hangs up first.
    pub fn request(&mut self, req: &Json) -> std::io::Result<Json> {
        self.send_line(&req.render())?;
        self.recv()?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection before responding",
            )
        })
    }
}

/// Builds the skeleton of a request document (`op` + `id`); callers
/// `set` the op-specific fields.
pub fn request_obj(op: &str, id: &str) -> Json {
    let mut r = Json::obj();
    r.set("op", Json::Str(op.into()));
    r.set("id", Json::Str(id.into()));
    r
}
