//! Blocking TCP client for the engine's transport front.
//!
//! [`TransportClient`] speaks the frame protocol over one connection:
//! `submit`/`poll` for fine-grained control, and [`run_batch`] — a
//! streaming batch mode mirroring [`Engine::run_batch`] semantics — for
//! replaying a whole [`LoadProfile`] over the wire. `run_batch` keeps a
//! bounded submission window in flight and interleaves reads, so it can
//! never deadlock against the server's bounded queues, and it retries
//! `BUSY` replies (the server's explicit backpressure signal) until
//! every job is served. Results come back sorted by id, so the
//! cross-wire determinism check is `fingerprints(tcp) ==
//! fingerprints(in_process)` — bit for bit.
//!
//! The waiting contract is explicit: [`poll`] **blocks in the kernel**
//! (`read(2)` on an empty socket parks the thread; zero CPU until the
//! reply or the [`WireTimeouts::read`] deadline), and [`try_poll`]
//! **never blocks** (`WouldBlock` maps to `Ok(None)`). Both sides of
//! the contract decode through a [`FrameAssembler`], so a deadline or
//! `WouldBlock` landing mid-frame leaves the partial frame buffered —
//! it never desynchronizes the stream.
//!
//! [`run_batch`]: TransportClient::run_batch
//! [`poll`]: TransportClient::poll
//! [`try_poll`]: TransportClient::try_poll
//! [`Engine::run_batch`]: crate::engine::Engine::run_batch
//! [`LoadProfile`]: crate::traffic::LoadProfile
//! [`FrameAssembler`]: crate::transport::frame::FrameAssembler

use std::collections::{HashMap, VecDeque};
use std::io::{BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Instant;

use pooled_lab::split::LatencySplit;

use crate::codec::RecordError;
use crate::job::{JobResult, JobSpec};
use crate::transport::frame::{write_frame, Frame, FrameAssembler};
use crate::transport::{connect_stream, WireTimeouts};

/// What can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum TransportError {
    /// Socket-level failure (includes torn frames surfaced as
    /// `InvalidData` by the stream reader).
    Io(std::io::Error),
    /// The server closed the connection mid-conversation.
    Disconnected,
    /// The peer sent a frame that is illegal in this direction.
    Protocol(&'static str),
    /// The server rejected job `id` as infeasible (terminal; retrying
    /// cannot succeed).
    Rejected(u64),
    /// The read deadline ([`WireTimeouts::read`]) expired while waiting
    /// for a reply — the peer is half-dead or badly stalled. The stream
    /// itself stays consistent (a frame cut in half by the deadline is
    /// held by the assembler), but a peer silent past its deadline
    /// should be considered down.
    TimedOut,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Disconnected => write!(f, "server closed the connection"),
            TransportError::Protocol(what) => write!(f, "protocol violation: {what}"),
            TransportError::Rejected(id) => write!(f, "server rejected job {id} as infeasible"),
            TransportError::TimedOut => write!(f, "read deadline expired waiting for a reply"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<RecordError> for TransportError {
    fn from(e: RecordError) -> Self {
        TransportError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// A reply frame the server may send.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reply {
    /// One completed job.
    Result(JobResult),
    /// The submission queue was full when job `id` arrived; retry.
    Busy(u64),
    /// Job `id` is infeasible; do not retry.
    Rejected(u64),
}

/// One connection to a [`TransportServer`].
///
/// [`TransportServer`]: crate::transport::server::TransportServer
pub struct TransportClient {
    /// The read half (a clone of the writer's stream; carries the read
    /// deadline). Reads go straight to the socket — partial-frame state
    /// lives in the assembler, not a buffered reader, so blocking and
    /// non-blocking reads can interleave safely.
    read_half: TcpStream,
    writer: BufWriter<TcpStream>,
    asm: FrameAssembler,
    read_buf: Vec<u8>,
    write_scratch: Vec<u8>,
    window: usize,
    busy_retries: u64,
}

impl TransportClient {
    /// Connect to a transport server with the default [`WireTimeouts`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::connect_with(addr, WireTimeouts::default())
    }

    /// Connect with explicit deadlines: a bounded connect, and a read
    /// deadline that turns an eternal [`Self::poll`] against a half-dead
    /// server into [`TransportError::TimedOut`].
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        timeouts: WireTimeouts,
    ) -> std::io::Result<Self> {
        let stream = connect_stream(addr, timeouts.connect)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        read_half.set_read_timeout(timeouts.read)?;
        Ok(Self {
            read_half,
            writer: BufWriter::new(stream),
            asm: FrameAssembler::new(),
            read_buf: vec![0u8; 16 * 1024],
            write_scratch: Vec::new(),
            window: 32,
            busy_retries: 0,
        })
    }

    /// Cap on unanswered submissions [`Self::run_batch`] keeps in flight
    /// (default 32). Every in-flight frame provokes at most one ~88-byte
    /// reply, so any window comfortably below the kernel's socket-buffer
    /// budget keeps the pipeline deadlock-free; larger windows only help
    /// on high-latency links.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn set_window(&mut self, window: usize) {
        assert!(window > 0, "the batch pipeline needs a window of at least 1");
        self.window = window;
    }

    /// `BUSY` replies absorbed (and retried) by [`Self::run_batch`] calls
    /// so far — the client-visible face of server backpressure.
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Send one job (buffered until [`Self::flush`] or a batch read).
    pub fn submit(&mut self, spec: &JobSpec) -> Result<(), TransportError> {
        write_frame(&mut self.writer, &Frame::Submit(*spec), &mut self.write_scratch)?;
        Ok(())
    }

    /// Flush buffered submissions to the socket.
    pub fn flush(&mut self) -> Result<(), TransportError> {
        self.writer.flush()?;
        Ok(())
    }

    /// **Blocking** read of the next server reply: with nothing buffered
    /// the thread parks in the kernel's `read(2)` — no spinning, no CPU
    /// — until a reply arrives or [`WireTimeouts::read`] expires
    /// (surfacing as [`TransportError::TimedOut`]). For a non-blocking
    /// probe, use [`Self::try_poll`].
    pub fn poll(&mut self) -> Result<Reply, TransportError> {
        loop {
            if let Some((frame, _)) = self.asm.next_frame()? {
                return classify(frame);
            }
            let got = self.read_half.read(&mut self.read_buf).map_err(|e| {
                if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
                {
                    TransportError::TimedOut
                } else {
                    TransportError::Io(e)
                }
            })?;
            if got == 0 {
                return Err(self.eof_error());
            }
            self.asm.extend(&self.read_buf[..got]);
        }
    }

    /// **Non-blocking** read of the next server reply: `Ok(None)` means
    /// no complete reply is available *right now* — never an error, and
    /// never a parked thread. A reply split across packets stays
    /// buffered in the assembler until its remaining bytes arrive.
    pub fn try_poll(&mut self) -> Result<Option<Reply>, TransportError> {
        loop {
            if let Some((frame, _)) = self.asm.next_frame()? {
                return classify(frame).map(Some);
            }
            self.read_half.set_nonblocking(true)?;
            let got = self.read_half.read(&mut self.read_buf);
            // Restore before interpreting the result: the blocking
            // contract of every other method must hold even if this
            // probe came up empty or errored.
            self.read_half.set_nonblocking(false)?;
            match got {
                Ok(0) => return Err(self.eof_error()),
                Ok(n) => self.asm.extend(&self.read_buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
    }

    /// EOF classification: clean between frames is [`Disconnected`];
    /// mid-frame means the server died with half a reply on the wire.
    ///
    /// [`Disconnected`]: TransportError::Disconnected
    fn eof_error(&self) -> TransportError {
        if self.asm.buffered() == 0 {
            TransportError::Disconnected
        } else {
            TransportError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ))
        }
    }

    /// Serve a whole batch over the wire: pipeline submissions within the
    /// window, retry `BUSY` replies, and append exactly `specs.len()`
    /// results to `out`, **sorted by job id** — the same contract as
    /// [`Engine::run_batch`], so fingerprint comparisons line up
    /// element-wise.
    ///
    /// [`Engine::run_batch`]: crate::engine::Engine::run_batch
    ///
    /// # Panics
    /// Panics if job ids repeat within the batch (ids are the retry and
    /// routing key).
    pub fn run_batch(
        &mut self,
        specs: &[JobSpec],
        out: &mut Vec<JobResult>,
    ) -> Result<(), TransportError> {
        self.run_batch_impl(specs, out, None)
    }

    /// [`Self::run_batch`], additionally folding every job's latency into
    /// `split`: the engine-reported queue wait and service time, plus the
    /// wire overhead only this side of the socket can observe.
    pub fn run_batch_split(
        &mut self,
        specs: &[JobSpec],
        out: &mut Vec<JobResult>,
        split: &mut LatencySplit,
    ) -> Result<(), TransportError> {
        self.run_batch_impl(specs, out, Some(split))
    }

    fn run_batch_impl(
        &mut self,
        specs: &[JobSpec],
        out: &mut Vec<JobResult>,
        mut split: Option<&mut LatencySplit>,
    ) -> Result<(), TransportError> {
        let start = out.len();
        let by_id: HashMap<u64, JobSpec> = specs.iter().map(|s| (s.id, *s)).collect();
        assert_eq!(by_id.len(), specs.len(), "batch job ids must be unique");
        let mut to_send: VecDeque<u64> = specs.iter().map(|s| s.id).collect();
        let mut sent_at: HashMap<u64, Instant> = HashMap::with_capacity(specs.len());
        let mut in_flight = 0usize;
        let mut got = 0usize;
        // After a BUSY, prefer draining a reply over instantly resending:
        // a Result frees a queue slot, so the retry lands; blind resends
        // would ping-pong BUSY frames while the queue is still full.
        let mut defer_retries = false;
        while got < specs.len() {
            let can_send = in_flight < self.window && !to_send.is_empty() && !defer_retries;
            if can_send {
                let id = to_send.pop_front().expect("nonempty");
                sent_at.insert(id, Instant::now());
                self.submit(&by_id[&id])?;
                in_flight += 1;
                if to_send.is_empty() || in_flight == self.window {
                    self.flush()?;
                }
                continue;
            }
            self.flush()?;
            match self.poll()? {
                Reply::Result(r) => {
                    in_flight -= 1;
                    got += 1;
                    defer_retries = false;
                    if let Some(split) = split.as_deref_mut() {
                        let observed = sent_at[&r.id].elapsed().as_micros() as u64;
                        split.record_observed(r.queue_micros, r.total_micros, observed);
                    }
                    out.push(r);
                }
                Reply::Busy(id) => {
                    assert!(by_id.contains_key(&id), "BUSY for a job this batch never sent");
                    in_flight -= 1;
                    self.busy_retries += 1;
                    to_send.push_back(id);
                    if in_flight > 0 {
                        defer_retries = true;
                    } else {
                        // Nothing left to wait on: the whole window got
                        // BUSY'd. Resending is now the *only* source of
                        // future replies, so retries must not stay
                        // deferred — just give the queue a moment to
                        // drain instead of ping-ponging frames.
                        defer_retries = false;
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                }
                Reply::Rejected(id) => return Err(TransportError::Rejected(id)),
            }
        }
        out[start..].sort_unstable_by_key(|r| r.id);
        Ok(())
    }
}

/// Map a server→client frame to its [`Reply`], rejecting frames that
/// are illegal in this direction.
fn classify(frame: Frame) -> Result<Reply, TransportError> {
    match frame {
        Frame::Result(r) => Ok(Reply::Result(r)),
        Frame::Busy(id) => Ok(Reply::Busy(id)),
        Frame::Reject(id) => Ok(Reply::Rejected(id)),
        Frame::Submit(_) => Err(TransportError::Protocol("server sent a SUBMIT frame")),
        Frame::Prewarm(_) => Err(TransportError::Protocol("server sent a PREWARM frame")),
        // This client never scrapes, so a STATS reply is as illegal
        // as a server-originated request would be.
        Frame::Stats(_) => Err(TransportError::Protocol("server sent an unsolicited STATS frame")),
        Frame::StatsRequest(_) => {
            Err(TransportError::Protocol("server sent a STATS_REQUEST frame"))
        }
    }
}
