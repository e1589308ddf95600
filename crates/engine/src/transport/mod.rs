//! Network front for the engine: remote tenants over TCP.
//!
//! The engine's queues are in-process; this module puts a socket on
//! them. Three pieces:
//!
//! * [`frame`] — length-prefixed binary framing for [`JobSpec`] /
//!   [`JobResult`] with an explicit little-endian layout, a version
//!   byte, and a checksum. Pure functions over byte slices, so the
//!   codec is testable (and property-tested) without a socket.
//! * [`reactor`] — the readiness core: a raw epoll backend (Linux), a
//!   vectored `writev` shim, a nonblocking `recv`, a self-pipe wakeup
//!   channel, and process introspection helpers. No dependencies
//!   beyond the libc `std` already links.
//! * [`server`] — a readiness-driven event-loop front: an accept
//!   thread hands nonblocking sockets to N loop threads, each
//!   multiplexing thousands of per-connection state machines (one
//!   private [`ResultRoute`] on the served engine per connection). A
//!   tick costs O(active): epoll holds fd interest across ticks,
//!   and outbound frames queue as encoded segments drained by `writev`
//!   — no post-encode byte is ever copied. Backpressure is an explicit
//!   `BUSY` reply frame — never a silent drop.
//!
//! The client side is the cluster's [`RemoteNode`]: one connection that
//! reads its replies on the caller's thread. A batch over the wire is a
//! [`Router`] over one remote node, which is how `engine_load`'s `tcp`
//! and `connections` scenarios replay a [`LoadProfile`] over loopback.
//!
//! The headline invariant, pinned by `tests/transport_loopback.rs` and
//! the CI smoke job: the same profile submitted over TCP produces
//! result fingerprints **bit-identical** to in-process submission,
//! across worker counts and batch windows. The wire may change *when*
//! a job runs — never *what* it computes.
//!
//! [`JobSpec`]: crate::job::JobSpec
//! [`JobResult`]: crate::job::JobResult
//! [`ResultRoute`]: crate::engine::ResultRoute
//! [`RemoteNode`]: crate::cluster::RemoteNode
//! [`Router`]: crate::cluster::Router
//! [`LoadProfile`]: crate::traffic::LoadProfile

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

pub mod frame;
pub mod reactor;
pub mod server;

pub use frame::Frame;
pub use server::{BackendChoice, TransportConfig, TransportServer};

/// Connect/read deadlines for a wire peer. Blocking reads without a
/// deadline can park a waiting `recv` forever on a half-dead peer (SYN
/// blackhole, stalled middlebox); with one, silence is bounded and a
/// peer that owes replies past the deadline is declared down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireTimeouts {
    /// Deadline for establishing the TCP connection. `None` leaves the
    /// OS default (which can be minutes).
    pub connect: Option<Duration>,
    /// Socket read deadline. An *idle* peer may be silent indefinitely —
    /// the deadline only fails the connection when replies are owed
    /// (tracked by the caller). `None` blocks forever.
    pub read: Option<Duration>,
}

impl Default for WireTimeouts {
    /// Generous production defaults: 5 s to connect, 10 s of owed-reply
    /// silence. Cluster probation (router-level, default 2 s) normally
    /// fires first; these are the backstop for peers that die between
    /// router polls.
    fn default() -> Self {
        Self { connect: Some(Duration::from_secs(5)), read: Some(Duration::from_secs(10)) }
    }
}

/// Connect to `addr`, honoring an optional connect deadline (tries each
/// resolved address in turn, like `TcpStream::connect` does).
pub(crate) fn connect_stream<A: ToSocketAddrs>(
    addr: A,
    deadline: Option<Duration>,
) -> std::io::Result<TcpStream> {
    let Some(deadline) = deadline else {
        return TcpStream::connect(addr);
    };
    let mut last_err = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, deadline) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
    }))
}
