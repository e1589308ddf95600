//! Minimal readiness core for the event-loop transport front.
//!
//! The serving target is tens of thousands of concurrent tenants, which
//! rules out thread-per-connection — but this workspace is built in an
//! offline container, so an async runtime or an epoll crate is not on
//! the table. What the front actually needs from the OS is tiny:
//!
//! * **[`EpollBackend`]** — raw Linux **`epoll`**
//!   (`epoll_create1`/`epoll_ctl`/`epoll_wait` via a zero-dependency
//!   `extern "C"` block): register/modify/deregister fd interest and
//!   block until something is ready, with O(1) interest updates and
//!   O(ready fds) per wait — what makes a 10k-tenant idle herd free.
//!   Off Linux there is no epoll, so [`EpollBackend::new`] (and with it
//!   the server's `bind`) fails with `Unsupported`.
//! * **a wakeup pipe** — the classic self-pipe trick, so engine workers
//!   finishing a job can rouse a loop parked in `epoll_wait` without the
//!   loop ever polling the result queues.
//! * **[`writev_fd`]** — vectored writes, so the server's outbound
//!   segment queue drains many encoded frames in one syscall without
//!   ever flattening them into a contiguous buffer.
//! * **`recv_nonblocking`** — one read that never waits, on a socket
//!   left in blocking mode, for a remote node's polling receive.
//!
//! Everything else (nonblocking sockets, fd extraction) comes from
//! `std::net` and `std::os::fd`. The handful of process introspection
//! helpers at the bottom ([`thread_count`], [`thread_cpu_time`],
//! [`thread_cpu_time_by_name`], [`raise_fd_limit`]) exist for the
//! connection-sweep bench and the no-busy-wait regression tests — they
//! are diagnostics, not serving machinery.

use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
const O_NONBLOCK: i32 = 0o4000;
const MSG_DONTWAIT: i32 = if cfg!(target_os = "linux") { 0x40 } else { 0x80 };
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RLIMIT_NOFILE: i32 = 7;
const SC_CLK_TCK: i32 = 2;

// epoll interface constants (Linux UAPI).
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

/// `struct epoll_event`. The kernel packs it on x86-64 only (the
/// `EPOLL_PACKED` attribute in the UAPI header); other architectures
/// use natural alignment — mirror both or `epoll_wait` scribbles over
/// the wrong offsets.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct iovec` for [`writev_fd`]. Scatter-gather entry: base pointer
/// plus length, borrowed from a caller-owned buffer for the duration of
/// one syscall.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct IoVec {
    base: *const u8,
    len: usize,
}

impl IoVec {
    /// An entry covering `slice` (the slice must outlive the `writev`
    /// call that consumes this entry — enforced by the borrow in
    /// [`writev_fd`]'s caller, not by this type, which is raw).
    pub fn from_slice(slice: &[u8]) -> Self {
        Self { base: slice.as_ptr(), len: slice.len() }
    }

    /// A zeroed placeholder for fixed-size iovec arrays.
    pub fn empty() -> Self {
        Self { base: std::ptr::null(), len: 0 }
    }

    /// Bytes this entry covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the entry covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

// An IoVec is an inert (pointer, length) pair; it dereferences nothing
// on its own, so moving it across threads is safe.
unsafe impl Send for IoVec {}

extern "C" {
    fn pipe(fds: *mut i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, ...) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn writev(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
    fn close(fd: i32) -> i32;
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn sysconf(name: i32) -> i64;
}

#[cfg(target_os = "linux")]
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

// Off Linux there is no epoll: `EpollBackend::new` refuses before any
// of these could run, so they exist only to keep the crate compiling.
// They touch none of their arguments, so callers owe them nothing.
#[cfg(not(target_os = "linux"))]
unsafe fn epoll_create1(_flags: i32) -> i32 {
    -1
}
#[cfg(not(target_os = "linux"))]
unsafe fn epoll_ctl(_epfd: i32, _op: i32, _fd: i32, _event: *mut EpollEvent) -> i32 {
    -1
}
#[cfg(not(target_os = "linux"))]
unsafe fn epoll_wait(_epfd: i32, _events: *mut EpollEvent, _max: i32, _timeout: i32) -> i32 {
    -1
}

/// Vectored write: transmit the concatenation of `iovs` to `fd` in one
/// syscall, without ever copying the segments into a contiguous buffer.
/// Returns the byte count the kernel accepted (possibly a prefix —
/// partial-write resume is the caller's job). `EINTR` is retried;
/// `EWOULDBLOCK` surfaces as an error for the caller to classify.
pub fn writev_fd(fd: RawFd, iovs: &[IoVec]) -> io::Result<usize> {
    loop {
        let rc = unsafe { writev(fd, iovs.as_ptr(), iovs.len().min(i32::MAX as usize) as i32) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Nonblocking receive: take whatever bytes socket `fd` holds right
/// now, without waiting. `MSG_DONTWAIT` makes this one call nonblocking
/// and leaves the fd's own mode alone, so a clone sharing its file
/// description keeps blocking writes. Returns the byte count (0 is end
/// of stream). `EINTR` is retried; `EWOULDBLOCK` surfaces as an error
/// for the caller to classify.
pub(crate) fn recv_nonblocking(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        // SAFETY: `buf` is a live, exclusively borrowed slice of
        // `buf.len()` bytes, and `recv` writes at most that many.
        let rc = unsafe { recv(fd, buf.as_mut_ptr(), buf.len(), MSG_DONTWAIT) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

fn set_nonblocking_fd(fd: RawFd) -> io::Result<()> {
    let flags = unsafe { fcntl(fd, F_GETFL) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    if unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The self-pipe wakeup channel: any thread calls [`WakePipe::wake`],
/// and a loop parked in `epoll_wait` on [`WakePipe::read_fd`] returns.
///
/// Wakeups are edge-coalesced by the `armed` flag: between a `wake` and
/// the loop's next [`WakePipe::drain`], further `wake` calls are free
/// (no syscall, no pipe bytes), so a burst of result deliveries costs
/// one byte in the pipe, not thousands.
///
/// The protocol — a waker posts to the loop's inbox and then calls
/// `wake`; the loop calls `drain` and then takes the inbox under its
/// lock — must never leave a posted item with no byte in the pipe, or
/// `armed` set with an empty pipe (every later `wake` would be skipped
/// and the loop could park forever). So `drain` reads the pipe dry
/// *before* clearing `armed`. A `wake` that finds the flag clear then
/// writes its byte after the drain's read, where only the next wait
/// sees it. A `wake` that finds the flag set either ran before the
/// clear, so the inbox lock orders its post before the loop's take, or
/// found it set by a later waker whose byte is still pending. Clearing
/// first loses wakeups: a `wake` between the clear and the read writes
/// a byte the read swallows, leaving `armed` set over an empty pipe.
/// `drain_order_never_loses_a_wakeup` checks every interleaving.
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
    armed: AtomicBool,
}

impl WakePipe {
    /// Open the pipe; both ends nonblocking (a full pipe must never
    /// block a worker, and the drain must never block the loop).
    pub fn new() -> io::Result<Self> {
        let mut fds = [0i32; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        let this = Self { read_fd: fds[0], write_fd: fds[1], armed: AtomicBool::new(false) };
        set_nonblocking_fd(this.read_fd)?;
        set_nonblocking_fd(this.write_fd)?;
        Ok(this)
    }

    /// The fd the loop registers with [`Interest::READ`].
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Rouse the loop. Returns `true` when this call actually signaled
    /// (wrote the pipe byte) rather than piggybacking on a wakeup
    /// already in flight — the reactor's wakeup counter counts these.
    pub fn wake(&self) -> bool {
        if self.armed.swap(true, Ordering::AcqRel) {
            return false;
        }
        let byte = 1u8;
        // A full pipe (EAGAIN) still wakes the loop — there are already
        // unread bytes in it — so the result is deliberately ignored.
        unsafe { write(self.write_fd, &byte, 1) };
        true
    }

    /// Loop-side: swallow pending wakeup bytes, then re-arm (the steps
    /// and their order are `DRAIN_ORDER`). Call once per tick before
    /// consuming whatever state the wakers advertised.
    pub fn drain(&self) {
        for step in DRAIN_ORDER {
            match step {
                DrainStep::ReadDry => {
                    let mut buf = [0u8; 64];
                    // A short read means drained (or EAGAIN / a spurious
                    // error — the same thing here).
                    while unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) }
                        == buf.len() as isize
                    {}
                }
                DrainStep::Disarm => self.armed.store(false, Ordering::Release),
            }
        }
    }
}

/// One loop-side step of [`WakePipe::drain`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DrainStep {
    /// Read the pipe until it is empty.
    ReadDry,
    /// Clear `armed`, so the next `wake` writes a byte again.
    Disarm,
}

/// The order of [`WakePipe::drain`]'s steps — read first, then clear
/// (the [`WakePipe`] docs argue why).
const DRAIN_ORDER: [DrainStep; 2] = [DrainStep::ReadDry, DrainStep::Disarm];

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

// The fds are plain owned descriptors; the armed flag is atomic.
unsafe impl Send for WakePipe {}
unsafe impl Sync for WakePipe {}

/// Which readiness events a registered fd wants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Interest {
    /// Deliver when a read would not block (or the peer hung up).
    pub readable: bool,
    /// Deliver when a write would not block.
    pub writable: bool,
}

impl Interest {
    /// Read interest only — the state every connection registers with.
    pub const READ: Interest = Interest { readable: true, writable: false };
}

/// One ready fd, reported by [`EpollBackend::wait`].
#[derive(Clone, Copy, Debug)]
pub struct ReadyEvent {
    /// The caller's token from `register` (connection id; the wake pipe
    /// uses a sentinel).
    pub token: u64,
    /// A read would not block.
    pub readable: bool,
    /// A write would not block.
    pub writable: bool,
    /// Error condition (`EPOLLERR`) — terminal.
    pub error: bool,
    /// Peer hung up; drain what remains, then expect EOF.
    pub hup: bool,
}

/// The readiness multiplexer behind one event loop: the kernel holds
/// the interest set, so a wait touches only ready fds and interest
/// updates are single syscalls.
///
/// The contract the loop relies on:
///
/// * level-triggered — an fd stays reported while its condition holds,
///   so a budget-bounded reader that leaves bytes in the kernel buffer
///   is re-reported next wait, and no readiness is ever lost;
/// * `error`/`hup` are always delivered, whatever the interest mask;
/// * `deregister` of an fd that was never registered is a no-op (a
///   connection that died before adoption tears down uniformly).
pub struct EpollBackend {
    epfd: RawFd,
    /// Kernel-filled event buffer, reused across waits. 1024 entries is
    /// a per-tick delivery window, not a capacity: level-triggered
    /// epoll re-reports anything still ready on the next wait.
    events: Vec<EpollEvent>,
}

impl EpollBackend {
    /// Create the epoll instance (close-on-exec). Fails with
    /// `Unsupported` off Linux — there is no fallback, so a deployment
    /// finds out at startup, not in a flame graph.
    pub fn new() -> io::Result<Self> {
        if cfg!(not(target_os = "linux")) {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the transport front needs Linux epoll",
            ));
        }
        // SAFETY: takes only a flags word; no memory is passed.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { epfd, events: vec![EpollEvent { events: 0, data: 0 }; 1024] })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut events = 0u32;
        if interest.readable {
            events |= EPOLLIN;
        }
        if interest.writable {
            events |= EPOLLOUT;
        }
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: `ev` is a live local with the kernel's layout, and the
        // kernel only reads it for the duration of the call.
        if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Watch `fd` with `interest`; `wait` reports it as `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replace the interest mask of a registered fd (an *edge* — the
    /// caller only invokes this on pause/resume and write-arm/disarm
    /// transitions, never per tick).
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stop watching `fd`; call before the fd closes.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::default()) {
            Ok(()) => Ok(()),
            // Never registered (or already auto-forgotten): a no-op.
            Err(e) if e.raw_os_error() == Some(2) => Ok(()), // ENOENT
            Err(e) if e.raw_os_error() == Some(9) => Ok(()), // EBADF (already closed)
            Err(e) => Err(e),
        }
    }

    /// Park until readiness or `timeout` (`None` = forever;
    /// `Some(Duration::ZERO)` is a nonblocking probe). Clears and
    /// refills `out` with the ready set — the delivered events, which
    /// the loop counts into `pooled_transport_ready_fds_total`.
    pub fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<ReadyEvent>) -> io::Result<()> {
        out.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 100µs request parks instead of degenerating
            // into a hot 0ms spin.
            Some(t) => {
                t.as_millis().min(i32::MAX as u128) as i32
                    + i32::from(t.subsec_micros() % 1000 != 0 && t.as_millis() < i32::MAX as u128)
            }
        };
        let n = loop {
            // SAFETY: the kernel writes at most `events.len()` entries
            // into the owned buffer, which outlives the call.
            let rc = unsafe {
                epoll_wait(
                    self.epfd,
                    self.events.as_mut_ptr(),
                    self.events.len() as i32,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &self.events[..n] {
            // Copy out of the (possibly packed) struct before touching
            // the fields — references into packed layouts are UB.
            let bits = ev.events;
            out.push(ReadyEvent {
                token: ev.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                error: bits & EPOLLERR != 0,
                hup: bits & EPOLLHUP != 0,
            });
        }
        Ok(())
    }
}

impl Drop for EpollBackend {
    fn drop(&mut self) {
        // SAFETY: `epfd` is owned by this value and closed exactly once.
        unsafe { close(self.epfd) };
    }
}

/// CPU time consumed by the calling thread (kernel-accounted, so a
/// thread parked in `epoll_wait`/`read` accrues none). This is how the
/// tests pin "waiting burns no CPU" — wall time elapses, this doesn't.
pub fn thread_cpu_time() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec.max(0) as u64, ts.tv_nsec.max(0) as u32)
}

/// Live thread count of this process (from `/proc/self/status`), or
/// `None` off Linux. The connection sweep uses it to prove the server
/// scales threads with event loops, not with connections.
pub fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

/// Summed CPU time (user + system) of every live thread in this
/// process whose name starts with `prefix`, read from
/// `/proc/self/task/*/stat`. `None` off Linux procfs or when no thread
/// matches.
///
/// This is the out-of-band counterpart to [`thread_cpu_time`]: the
/// idle-herd regression test uses it to pin the *event loops'* CPU from
/// the test thread — kernel-accounted at clock-tick (10ms) granularity,
/// so it bounds work coarsely but can't be fooled by wall time spent
/// parked.
pub fn thread_cpu_time_by_name(prefix: &str) -> Option<Duration> {
    let tick_hz = match unsafe { sysconf(SC_CLK_TCK) } {
        t if t > 0 => t as u64,
        _ => 100,
    };
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut ticks = 0u64;
    let mut matched = false;
    for task in tasks.flatten() {
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else {
            continue; // thread exited mid-scan
        };
        // Field 2 is `(comm)` and may contain spaces; everything after
        // the closing paren is space-separated, with utime/stime at
        // (1-indexed) fields 14/15 — i.e. 11/12 past the paren.
        let open = stat.find('(')?;
        let close = stat.rfind(')')?;
        if !stat[open + 1..close].starts_with(prefix) {
            continue;
        }
        let mut rest = stat[close + 1..].split_ascii_whitespace();
        let utime: u64 = rest.nth(11)?.parse().ok()?;
        let stime: u64 = rest.next()?.parse().ok()?;
        ticks += utime + stime;
        matched = true;
    }
    matched.then(|| Duration::from_millis(ticks.saturating_mul(1000) / tick_hz))
}

/// Best-effort `RLIMIT_NOFILE` raise to at least `want` descriptors
/// (each loopback tenant costs two — one per socket end). Returns the
/// limit now in force. Never lowers the limit.
pub fn raise_fd_limit(want: u64) -> u64 {
    let mut lim = Rlimit { rlim_cur: 0, rlim_max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.rlim_cur >= want {
        return lim.rlim_cur;
    }
    // Raising the soft limit within the hard limit always works;
    // raising the hard limit too needs privilege — try, fall back.
    let tries = [
        Rlimit { rlim_cur: want, rlim_max: lim.rlim_max.max(want) },
        Rlimit { rlim_cur: want.min(lim.rlim_max), rlim_max: lim.rlim_max },
    ];
    for attempt in tries {
        if unsafe { setrlimit(RLIMIT_NOFILE, &attempt) } == 0 {
            return attempt.rlim_cur;
        }
    }
    lim.rlim_cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::{self, Flow};
    use std::sync::Arc;
    use std::time::Instant;

    /// An epoll instance watching `pipe`'s read end as token 7.
    fn watch(pipe: &WakePipe) -> EpollBackend {
        let mut backend = EpollBackend::new().expect("epoll_create1");
        backend.register(pipe.read_fd(), 7, Interest::READ).expect("register");
        backend
    }

    #[test]
    fn wake_pipe_rouses_a_parked_wait() {
        let pipe = WakePipe::new().expect("pipe");
        let mut backend = watch(&pipe);
        let parked = std::thread::spawn(move || {
            let mut out = Vec::new();
            let started = Instant::now();
            backend.wait(Some(Duration::from_secs(10)), &mut out).expect("wait");
            (out, started.elapsed())
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(pipe.wake(), "first wake must signal");
        assert!(!pipe.wake(), "second wake coalesces onto the armed flag");
        let (out, waited) = parked.join().expect("wait thread");
        assert_eq!(out.len(), 1);
        assert!(out[0].token == 7 && out[0].readable, "pipe must report readable: {out:?}");
        assert!(waited < Duration::from_secs(5), "wakeup, not timeout");
        pipe.drain();
        assert!(pipe.wake(), "drain re-arms the pipe");
    }

    #[test]
    fn drain_then_wake_is_never_lost() {
        let pipe = WakePipe::new().expect("pipe");
        for _ in 0..100 {
            pipe.wake();
            pipe.drain();
            assert!(pipe.wake(), "post-drain wake must signal again");
            pipe.drain();
        }
        // After a final drain the pipe is empty: the wait must time out.
        let mut out = Vec::new();
        watch(&pipe).wait(Some(Duration::from_millis(10)), &mut out).expect("wait");
        assert!(out.is_empty(), "drained pipe must not be readable: {out:?}");
    }

    /// One atomic step of the wake protocol in the interleaving model.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Waker: post an item to the loop's inbox.
        Post,
        /// Waker: `wake`'s swap of `armed`.
        Swap,
        /// Waker: `wake`'s pipe write, if its swap found `armed` clear.
        Write,
        /// Loop: one step of `drain`.
        Drain(DrainStep),
        /// Loop: take everything in the inbox.
        Consume,
    }

    #[derive(Clone, Copy)]
    struct Model {
        inbox: u32,
        pipe: u32,
        armed: bool,
        /// Per waker: whether its swap found `armed` clear.
        writes: [bool; 2],
    }

    /// Walk every interleaving of one loop tick (`drain` in `order`, then
    /// consume) with two wakers (post, then `wake`), from an idle loop
    /// and from one just roused by an earlier wake. Each final state must
    /// leave no posted item without a pipe byte to wake the loop, and no
    /// `armed` flag without a byte behind it. Returns the number of
    /// interleavings walked, or the first one (as `(thread, step)` pairs,
    /// thread 0 the loop) that broke the protocol.
    fn explore(order: [DrainStep; 2]) -> Result<usize, String> {
        let waker = [Step::Post, Step::Swap, Step::Write];
        let tick = [Step::Drain(order[0]), Step::Drain(order[1]), Step::Consume];
        let idle = Model { inbox: 0, pipe: 0, armed: false, writes: [false; 2] };
        let roused = Model { inbox: 1, pipe: 1, armed: true, writes: [false; 2] };
        let step = |m: &mut Model, t: usize, step: Step| {
            match step {
                Step::Post => m.inbox += 1,
                Step::Swap => m.writes[t - 1] = !std::mem::replace(&mut m.armed, true),
                Step::Write => m.pipe += u32::from(m.writes[t - 1]),
                Step::Drain(DrainStep::ReadDry) => m.pipe = 0,
                Step::Drain(DrainStep::Disarm) => m.armed = false,
                Step::Consume => m.inbox = 0,
            }
            Flow::Next
        };
        let check = |m: &Model| {
            if m.inbox > 0 && m.pipe == 0 {
                return Err("posted item stranded over an empty pipe");
            }
            if m.armed && m.pipe == 0 {
                return Err("armed over an empty pipe, later wakes skipped");
            }
            Ok(())
        };
        interleave::explore(&[idle, roused], [&tick, &waker, &waker], step, check)
    }

    #[test]
    fn drain_order_never_loses_a_wakeup() {
        // 9! / (3! 3! 3!) interleavings from each of the two start states.
        assert_eq!(explore(DRAIN_ORDER), Ok(2 * 1680));
        // The model is not vacuous: clearing `armed` before reading the
        // pipe is the lost wakeup.
        assert!(explore([DrainStep::Disarm, DrainStep::ReadDry]).is_err());
    }

    #[test]
    fn zero_timeout_wait_is_a_nonblocking_probe() {
        let pipe = WakePipe::new().expect("pipe");
        let mut out = Vec::new();
        let started = Instant::now();
        watch(&pipe).wait(Some(Duration::ZERO), &mut out).expect("wait");
        assert!(out.is_empty());
        assert!(started.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn thread_cpu_time_tracks_work_not_sleep() {
        let before = thread_cpu_time();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu_time() - before;
        assert!(slept < Duration::from_millis(40), "sleep burned {slept:?} of CPU");
        // And it does advance under actual work.
        let before = thread_cpu_time();
        let mut acc = 0u64;
        while thread_cpu_time() - before < Duration::from_millis(5) {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        assert!(acc != 42, "keep the loop observable");
    }

    #[test]
    fn thread_count_sees_spawned_threads() {
        let Some(base) = thread_count() else {
            return; // not on Linux procfs; helper is allowed to opt out
        };
        assert!(base >= 1);
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
            })
            .collect();
        let with_threads = thread_count().expect("procfs stays readable");
        assert!(with_threads >= base + 4, "expected {base}+4 threads, saw {with_threads}");
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("spinner");
        }
    }

    #[test]
    fn fd_limit_raise_reports_a_usable_limit() {
        let now = raise_fd_limit(256);
        assert!(now >= 256, "any sane environment grants 256 fds, got {now}");
    }

    /// The full interest-edge lifecycle against a pipe: register the
    /// read side, observe readability only after bytes arrive, arm and
    /// disarm write interest on the write side, deregister (including
    /// the never-registered no-op).
    #[test]
    fn epoll_backend_lifecycle() {
        let pipe = WakePipe::new().expect("pipe");
        let mut backend = watch(&pipe);
        let mut out = Vec::new();
        backend.wait(Some(Duration::from_millis(10)), &mut out).expect("wait");
        assert!(out.is_empty(), "empty pipe must not be readable: {out:?}");

        pipe.wake();
        backend.wait(Some(Duration::from_secs(5)), &mut out).expect("wait");
        assert_eq!(out.len(), 1, "one ready fd expected: {out:?}");
        assert_eq!(out[0].token, 7);
        assert!(out[0].readable && !out[0].writable);

        // Masking read interest hides the pending byte (level-triggered
        // delivery honors the mask) without losing it.
        backend.modify(pipe.read_fd(), 7, Interest::default()).expect("mask");
        backend.wait(Some(Duration::from_millis(10)), &mut out).expect("wait");
        assert!(out.is_empty(), "masked fd must not report: {out:?}");
        backend.modify(pipe.read_fd(), 7, Interest::READ).expect("unmask");
        backend.wait(Some(Duration::from_millis(10)), &mut out).expect("wait");
        assert_eq!(out.len(), 1, "unmasked fd reports the still-pending byte");

        // An empty pipe's write side is writable the moment it's armed.
        backend
            .register(pipe.write_fd, 9, Interest { readable: false, writable: true })
            .expect("register write side");
        backend.wait(Some(Duration::from_secs(5)), &mut out).expect("wait");
        assert!(
            out.iter().any(|ev| ev.token == 9 && ev.writable),
            "write side must report writable: {out:?}"
        );

        backend.deregister(pipe.read_fd()).expect("deregister");
        backend.deregister(pipe.write_fd).expect("deregister");
        backend.deregister(pipe.read_fd()).expect("double deregister is a no-op");
        backend.wait(Some(Duration::ZERO), &mut out).expect("wait");
        assert!(out.is_empty(), "empty set: nothing delivered");
    }

    #[test]
    fn writev_gathers_segments_in_one_syscall() {
        let pipe = WakePipe::new().expect("pipe");
        let (a, b, c) = (b"hello ".as_slice(), b"vectored ".as_slice(), b"world".as_slice());
        let iovs = [IoVec::from_slice(a), IoVec::from_slice(b), IoVec::from_slice(c)];
        let wrote = writev_fd(pipe.write_fd, &iovs).expect("writev");
        assert_eq!(wrote, a.len() + b.len() + c.len());
        let mut got = [0u8; 64];
        let n = unsafe { read(pipe.read_fd(), got.as_mut_ptr(), got.len()) };
        assert_eq!(&got[..n as usize], b"hello vectored world");
    }

    #[test]
    fn writev_partial_write_reports_the_accepted_prefix() {
        let pipe = WakePipe::new().expect("pipe");
        // A pipe's capacity is finite (64KiB default); two oversized
        // segments cannot both land, so the kernel takes a prefix.
        let big = vec![0xABu8; 1 << 20];
        let iovs = [IoVec::from_slice(&big), IoVec::from_slice(&big)];
        let wrote = writev_fd(pipe.write_fd, &iovs).expect("writev");
        assert!(wrote > 0, "nonblocking pipe accepts something");
        assert!(wrote < 2 * big.len(), "a 2MiB gather cannot fit a pipe");
        // The pipe is now full: the next vectored write must refuse,
        // not block (the event loop relies on this).
        let mut drained = 0usize;
        let mut buf = vec![0u8; 1 << 16];
        loop {
            match writev_fd(pipe.write_fd, &iovs) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Ok(n) => {
                    // Kernel found room (scheduling); drain and retry.
                    assert!(n > 0);
                    let got = unsafe { read(pipe.read_fd(), buf.as_mut_ptr(), buf.len()) };
                    assert!(got > 0);
                    drained += got as usize;
                    assert!(drained < 64 << 20, "pipe never fills? drained {drained}");
                }
                Err(e) => panic!("unexpected writev error: {e}"),
            }
        }
    }

    #[test]
    fn recv_nonblocking_never_waits_and_sees_bytes_then_eof() {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (socket, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 16];
        let err = recv_nonblocking(socket.as_raw_fd(), &mut buf).expect_err("nothing sent yet");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        peer.write_all(b"reply").expect("write");
        let deadline = Instant::now() + Duration::from_secs(5);
        let got = loop {
            match recv_nonblocking(socket.as_raw_fd(), &mut buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "the bytes never arrived");
                    std::thread::yield_now();
                }
                other => break other.expect("recv"),
            }
        };
        assert_eq!(&buf[..got], b"reply");
        drop(peer);
        socket.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut eof = [0u8; 1];
        assert_eq!(std::io::Read::read(&mut &socket, &mut eof).expect("EOF"), 0);
        assert_eq!(recv_nonblocking(socket.as_raw_fd(), &mut buf).expect("EOF again"), 0);
    }

    #[test]
    fn thread_cpu_by_name_accounts_a_spinning_thread() {
        if !std::path::Path::new("/proc/self/task").exists() {
            return; // helper is allowed to opt out off procfs
        }
        let stop = Arc::new(AtomicBool::new(false));
        let spinner = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("reactor-spin-probe".into())
                .spawn(move || {
                    let mut acc = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    acc
                })
                .expect("spawn")
        };
        // Spin long enough to cross several 10ms accounting ticks.
        std::thread::sleep(Duration::from_millis(120));
        let burned = thread_cpu_time_by_name("reactor-spin").expect("matched the spinner");
        stop.store(true, Ordering::Relaxed);
        assert!(spinner.join().expect("spinner") != 42);
        assert!(
            burned >= Duration::from_millis(20),
            "a 120ms spin must account ≥20ms of CPU, saw {burned:?}"
        );
        assert!(
            thread_cpu_time_by_name("no-such-thread-name").is_none(),
            "unmatched prefix reports None"
        );
    }
}
