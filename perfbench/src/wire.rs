//! The TCP client: one connection that sends a fixed window of requests
//! and waits for all of their replies before the next window (closed
//! loop per window), against the `server` front end.

use queryvis_service::{DiagramService, DrainReport, Server, ServerConfig, ServerHandle};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per window.
pub const WINDOW: usize = 32;

/// A running server with one connected client.
pub struct Rig {
    handle: ServerHandle,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Rig {
    /// Bind a server on a free loopback port over `service`, start it,
    /// and connect.
    pub fn start(service: Arc<DiagramService>) -> io::Result<Rig> {
        let handle = Server::bind(service, ServerConfig::default())?.spawn();
        let writer = TcpStream::connect(handle.addr())?;
        // Like most clients, leave Nagle's algorithm on.
        writer.set_nodelay(false)?;
        // A server that stops answering fails the run instead of hanging it.
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Rig {
            handle,
            writer,
            reader,
        })
    }

    /// Send the lines (each ending in `\n`) a window at a time: write
    /// `window` requests, read their `window` replies, then the next
    /// window. Fills `replies` (newline stripped, in arrival order) and
    /// appends each request's send-to-reply latency in µs to `latencies`.
    /// Returns the pass's wall time in µs.
    pub fn pipelined(
        &mut self,
        lines: &[String],
        window: usize,
        replies: &mut Vec<String>,
        latencies: &mut Vec<f64>,
    ) -> io::Result<f64> {
        replies.resize_with(lines.len(), String::new);
        let mut sent_at: Vec<Instant> = Vec::with_capacity(window);
        let start = Instant::now();
        for (chunk, replies) in lines.chunks(window).zip(replies.chunks_mut(window)) {
            sent_at.clear();
            for line in chunk {
                sent_at.push(Instant::now());
                self.writer.write_all(line.as_bytes())?;
            }
            for (reply, sent) in replies.iter_mut().zip(&sent_at) {
                reply.clear();
                if self.reader.read_line(reply)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before every reply arrived",
                    ));
                }
                latencies.push((Instant::now() - *sent).as_secs_f64() * 1e6);
                if reply.ends_with('\n') {
                    reply.pop();
                }
            }
        }
        Ok(start.elapsed().as_secs_f64() * 1e6)
    }

    /// Replace the connection with a new one. How the kernel paces
    /// acknowledgements settles per connection, and so does where in a
    /// window the stall falls; a connection per round lets the per-round
    /// median see many draws instead of one.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let _ = self.writer.shutdown(Shutdown::Both);
        let writer = TcpStream::connect(self.handle.addr())?;
        writer.set_nodelay(false)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        self.reader = BufReader::new(writer.try_clone()?);
        self.writer = writer;
        Ok(())
    }

    /// Close the connection, drain the server, and return its report.
    pub fn stop(self) -> Option<DrainReport> {
        let _ = self.writer.shutdown(Shutdown::Both);
        drop(self.reader);
        drop(self.writer);
        self.handle.shutdown();
        self.handle.join()
    }
}
