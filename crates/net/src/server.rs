//! The resident front door: TCP connections multiplexed onto store
//! sessions by a bounded reactor pool, with completion-driven writes.
//!
//! [`NetServer`] wraps a running [`StoreServer`] and a bound listener.
//! [`NetServer::serve`] runs the accept loop on the calling thread and
//! spawns a fixed pool of **reactors** ([`NetOptions::reactor_threads`],
//! named `vpdt-net-reactor-{i}`), so C connections cost O(pool size)
//! threads, not O(C). Each accepted socket is made nonblocking and
//! owned by one reactor for life. A reactor blocks in `poll(2)` on its
//! connections and a waker and does all their I/O: it reads and decodes
//! requests, submits programs to the worker pool, and writes responses.
//! No thread sleeps to find work or blocks on a socket or a ticket.
//!
//! Every response is stamped into the connection's **outbox** at a
//! sequence slot reserved at decode time, in request order. A `Submit`'s
//! [`TxTicket`](vpdt_store::TxTicket) gets an
//! [`on_resolve`](vpdt_store::TxTicket::on_resolve) hook that stamps the
//! outcome when the ticket resolves (on a persisted store: after the
//! covering fsync), on whichever store thread resolved it. If the
//! outbox's *ready prefix* grew, the hook posts the connection to its
//! reactor's ready list, writing a waker byte only when the list was
//! empty; it never blocks. The reactor frames the ready prefix (until
//! about [`MAX_FRAME_LEN`] bytes wait) and sends it with **one** socket
//! write, so a burst of outcomes wakes the client once. Bytes the socket
//! does not take wait for `POLLOUT`; a peer that takes none for
//! [`NetOptions::write_timeout`] loses its connection, and no other
//! connection waits on it.
//!
//! Since slots are reserved in request order and written in sequence
//! order, responses on one connection arrive strictly in request order
//! for **every** request kind, and **an acknowledged networked commit is
//! durable by construction**. `Wait` versions, checkpoint offsets and
//! stats are *realized at write time*, only once every byte framed
//! before them went out — the barrier the protocol promises.
//!
//! A malformed frame (truncated, oversized, corrupt, undecodable) tears
//! down *that connection only*: a typed [`Response::Error`] takes its
//! next slot, the outbox is end-marked, and the connection drains.
//! Transient `accept` failures (`ECONNABORTED`, `EMFILE`, …) are counted
//! and retried with bounded backoff; only a stop ends the accept loop.
//!
//! A stop ([`ServerHandle::stop`], or a permitted remote
//! [`Request::Shutdown`]) wakes the accept loop, which stops accepting
//! and wakes the reactors. They give every serving connection a `Bye`,
//! write every owed response, and exit; then the store shuts down, so
//! the final [`ServerReport`] covers everything the front door
//! acknowledged.
//!
//! [`MAX_FRAME_LEN`]: crate::MAX_FRAME_LEN

use crate::frame::{frame_into, FramePoll, FrameReader, MAX_FRAME_LEN};
use crate::proto::{NetError, Request, Response, WireOutcome, PROTOCOL_VERSION};
use crate::sys::{self, PollFd, Waker, POLLIN, POLLOUT, READABLE, WRITABLE};
use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vpdt_obs::{Counter, Gauge, Histogram};
use vpdt_store::{AbortReason, ServerReport, Session, StoreServer, TxOutcome};

/// Knobs for [`NetServer::bind`].
#[derive(Clone, Debug)]
pub struct NetOptions {
    /// Honor [`Request::Shutdown`] from clients. Off by default: a
    /// remote peer should not be able to stop a server unless the
    /// operator opted in (`vpdtool serve --allow-shutdown`).
    pub allow_remote_shutdown: bool,
    /// Reactor threads. Each owns a share of the connections and does
    /// their reads and writes; the thread cost of serving is this plus
    /// the accept loop, independent of connection count
    /// (`vpdtool serve --reactors`).
    pub reactor_threads: usize,
    /// How long a connection's socket may take none of the bytes
    /// waiting for it before the connection is declared dead. Not a
    /// protocol deadline: it only fires when the peer stops draining its
    /// receive buffer.
    pub write_timeout: Duration,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            allow_remote_shutdown: false,
            reactor_threads: 2,
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// Front-door instruments, registered on the **store's** registry so
/// one snapshot — and the final [`ServerReport`] — covers both layers.
#[derive(Clone, Debug)]
struct NetMetrics {
    connections: Gauge,
    connections_total: Counter,
    accept_errors: Counter,
    reactor_threads: Gauge,
    outbox_pending: Gauge,
    bytes_in: Counter,
    bytes_out: Counter,
    socket_writes: Counter,
    frame_errors: Counter,
    request_us: Histogram,
    requests: Vec<(&'static str, Counter)>,
}

/// Metric names the front door registers (exported so dashboards and
/// tests don't hard-code strings).
pub mod names {
    /// Gauge: connections currently open.
    pub const NET_CONNECTIONS: &str = "net_connections";
    /// Counter: connections ever accepted.
    pub const NET_CONNECTIONS_TOTAL: &str = "net_connections_total";
    /// Counter: transient `accept` failures retried with backoff.
    pub const NET_ACCEPT_ERRORS_TOTAL: &str = "net_accept_errors_total";
    /// Gauge: reactor pool threads while serving.
    pub const NET_REACTOR_THREADS: &str = "net_reactor_threads";
    /// Gauge: responses reserved in outboxes but not yet written.
    pub const NET_OUTBOX_PENDING: &str = "net_outbox_pending";
    /// Counter: payload + framing bytes received.
    pub const NET_BYTES_IN_TOTAL: &str = "net_bytes_in_total";
    /// Counter: payload + framing bytes sent.
    pub const NET_BYTES_OUT_TOTAL: &str = "net_bytes_out_total";
    /// Counter: socket `write` calls by the reactors — about one per
    /// ready prefix, however many responses it holds.
    pub const NET_SOCKET_WRITES_TOTAL: &str = "net_socket_writes_total";
    /// Counter: frames rejected as truncated/oversized/corrupt/undecodable.
    pub const NET_FRAME_ERRORS_TOTAL: &str = "net_frame_errors_total";
    /// Histogram: microseconds from request decode to response write.
    pub const NET_REQUEST_US: &str = "net_request_us";
    /// Counter family: requests served, labeled by kind.
    pub const NET_REQUESTS_TOTAL: &str = "net_requests_total";
}

impl NetMetrics {
    fn new(store: &StoreServer) -> Self {
        let registry = store.metrics_registry();
        let kinds = [
            "hello",
            "submit",
            "wait",
            "checkpoint",
            "stats",
            "goodbye",
            "shutdown",
        ];
        NetMetrics {
            connections: registry.gauge(names::NET_CONNECTIONS),
            connections_total: registry.counter(names::NET_CONNECTIONS_TOTAL),
            accept_errors: registry.counter(names::NET_ACCEPT_ERRORS_TOTAL),
            reactor_threads: registry.gauge(names::NET_REACTOR_THREADS),
            outbox_pending: registry.gauge(names::NET_OUTBOX_PENDING),
            bytes_in: registry.counter(names::NET_BYTES_IN_TOTAL),
            bytes_out: registry.counter(names::NET_BYTES_OUT_TOTAL),
            socket_writes: registry.counter(names::NET_SOCKET_WRITES_TOTAL),
            frame_errors: registry.counter(names::NET_FRAME_ERRORS_TOTAL),
            request_us: registry.histogram(names::NET_REQUEST_US),
            requests: kinds
                .into_iter()
                .map(|kind| {
                    let name = format!("{}{{kind=\"{kind}\"}}", names::NET_REQUESTS_TOTAL);
                    (kind, registry.counter(&name))
                })
                .collect(),
        }
    }

    /// The per-kind request counter (`vpdt_net_requests_total{kind="…"}`).
    fn requests(&self, kind: &str) -> &Counter {
        &self
            .requests
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("every request kind is pre-registered")
            .1
    }

    /// Frame-level damage (truncated / oversized / corrupt / undecodable)
    /// bumps the error counter; higher-level protocol errors do not.
    fn note_error(&self, e: &NetError) {
        if matches!(
            e,
            NetError::Truncated { .. }
                | NetError::Oversized { .. }
                | NetError::Corrupt { .. }
                | NetError::Codec(_)
        ) {
            self.frame_errors.inc();
        }
    }
}

/// The stop request: a flag, plus the waker the accept loop polls.
#[derive(Debug)]
struct Stop {
    flag: AtomicBool,
    waker: Waker,
}

impl Stop {
    fn fire(&self) {
        self.flag.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A remote-stop handle: cheap to clone out of [`NetServer::handle`]
/// before `serve` consumes the server.
#[derive(Clone, Debug)]
pub struct ServerHandle {
    stop: Arc<Stop>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the serve loop to stop: accepting ends, connections drain,
    /// the store shuts down, [`NetServer::serve`] returns.
    pub fn stop(&self) {
        self.stop.fire();
    }
}

/// A bound front door around a running [`StoreServer`].
#[derive(Debug)]
pub struct NetServer {
    store: StoreServer,
    listener: TcpListener,
    opts: NetOptions,
    stop: Arc<Stop>,
    reactors: Vec<Arc<Reactor>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) in front of `store`.
    pub fn bind(store: StoreServer, addr: &str, opts: NetOptions) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr).map_err(NetError::io)?;
        listener.set_nonblocking(true).map_err(NetError::io)?;
        let waker = Waker::new().map_err(NetError::io)?;
        let reactors = (0..opts.reactor_threads.max(1))
            .map(|_| {
                let waker = Waker::new().map_err(NetError::io)?;
                Ok(Arc::new(Reactor {
                    mail: Mutex::default(),
                    waker,
                }))
            })
            .collect::<Result<_, NetError>>()?;
        Ok(NetServer {
            store,
            listener,
            opts,
            stop: Arc::new(Stop {
                flag: AtomicBool::new(false),
                waker,
            }),
            reactors,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// A stop handle usable from another thread while `serve` runs.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
            addr: self.local_addr(),
        }
    }

    /// Serves until stopped, then drains and shuts the store down.
    ///
    /// Blocks the calling thread, which runs the accept loop: it polls
    /// the listener and the stop waker. The reactor pool is spawned
    /// once, up front — accepted connections are distributed
    /// round-robin over the reactors and never get threads of their
    /// own. On a stop the accept loop ends and wakes the reactors, every
    /// serving connection is given a `Bye` and drains its owed
    /// responses, and the wrapped store's
    /// [`shutdown`](StoreServer::shutdown) report — front-door metrics
    /// included — is returned.
    pub fn serve(self) -> ServerReport {
        let NetServer {
            store,
            listener,
            opts,
            stop,
            reactors,
        } = self;
        let metrics = NetMetrics::new(&store);
        let closing = AtomicBool::new(false);
        metrics.reactor_threads.set(reactors.len() as u64);

        std::thread::scope(|s| {
            for (i, reactor) in reactors.iter().enumerate() {
                let ctx = Ctx {
                    store: &store,
                    opts: &opts,
                    stop: &stop,
                    closing: &closing,
                    metrics: &metrics,
                };
                std::thread::Builder::new()
                    .name(format!("vpdt-net-reactor-{i}"))
                    .spawn_scoped(s, move || reactor_loop(&ctx, reactor))
                    .expect("spawn a reactor thread");
            }

            // The accept loop. Transient failures (ECONNABORTED, EMFILE,
            // …) are counted and retried with bounded exponential
            // backoff — only a stop ends the front door.
            let mut fds = [
                PollFd::new(listener.as_raw_fd(), POLLIN),
                PollFd::new(stop.waker.fd(), POLLIN),
            ];
            let mut next = 0usize;
            let mut backoff = ACCEPT_BACKOFF_FLOOR;
            while !stop.is_set() {
                sys::wait(&mut fds, None);
                match listener.accept() {
                    Ok((stream, _)) => {
                        backoff = ACCEPT_BACKOFF_FLOOR;
                        reactors[next % reactors.len()].post(|mail| mail.streams.push(stream));
                        next += 1;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(_) => {
                        metrics.accept_errors.inc();
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(ACCEPT_BACKOFF_CEIL);
                    }
                }
            }
            // No stream is handed over after this: once a reactor sees
            // `closing` it stops its connections, drains them, and exits.
            closing.store(true, Ordering::SeqCst);
            for reactor in &reactors {
                reactor.waker.wake();
            }
        });
        metrics.reactor_threads.set(0);
        store.shutdown()
    }
}

const ACCEPT_BACKOFF_FLOOR: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_CEIL: Duration = Duration::from_secs(1);

/// Frames one reactor drains from one connection per wake-up before
/// moving on — a firehose client must not starve its reactor-mates.
const MAX_FRAMES_PER_PUMP: usize = 32;

/// Everything a reactor (and its connections) borrows from `serve`.
struct Ctx<'a> {
    store: &'a StoreServer,
    opts: &'a NetOptions,
    stop: &'a Stop,
    /// Raised by the accept loop once it has stopped accepting.
    closing: &'a AtomicBool,
    metrics: &'a NetMetrics,
}

/// What other threads hand one reactor, and the waker that interrupts
/// its poll.
#[derive(Debug)]
struct Reactor {
    mail: Mutex<Mail>,
    waker: Waker,
}

#[derive(Debug, Default)]
struct Mail {
    /// Accepted sockets to adopt.
    streams: Vec<TcpStream>,
    /// Tokens of connections whose outbox grew a ready prefix.
    ready: Vec<u64>,
}

impl Reactor {
    /// Adds to the mail, waking the reactor if the mail was empty (if
    /// not, the wake-up for it is already owed). Never blocks.
    fn post(&self, add: impl FnOnce(&mut Mail)) {
        let was_empty = {
            let mut mail = self.mail.lock().expect("reactor mail poisoned");
            let was_empty = mail.streams.is_empty() && mail.ready.is_empty();
            add(&mut mail);
            was_empty
        };
        if was_empty {
            self.waker.wake();
        }
    }
}

/// One reactor: block in `poll` on the connections and the waker; read
/// the readable connections, adopt posted sockets, write the connections
/// with ready responses or a writable socket, retire finished ones.
/// Exits once the accept loop is closing and every connection drained.
fn reactor_loop<'a>(ctx: &Ctx<'a>, me: &Arc<Reactor>) {
    let mut conns: HashMap<u64, Conn<'a>> = HashMap::new();
    let mut next_token = 0u64;
    let (mut fds, mut tokens, mut flush) = (Vec::new(), Vec::new(), Vec::new());
    // One response's payload, reused across responses.
    let mut payload = Vec::new();
    let mut backlog = false;
    loop {
        // Poll until something is ready, the earliest write deadline
        // passes, or — with frames still buffered — not at all.
        fds.clear();
        tokens.clear();
        fds.push(PollFd::new(me.waker.fd(), POLLIN));
        for (&token, conn) in &conns {
            fds.push(conn.poll_fd());
            tokens.push(token);
        }
        let deadline = conns.values().filter_map(|c| c.write_deadline).min();
        let timeout = match deadline {
            _ if backlog => Some(Duration::ZERO),
            due => due.map(|d| d.saturating_duration_since(Instant::now())),
        };
        sys::wait(&mut fds, timeout);

        // Reads. Every connection read from is written next: what it
        // answered at once is stamped without posting.
        backlog = false;
        for (fd, token) in fds[1..].iter().zip(&tokens) {
            let conn = conns.get_mut(token).expect("polled connections are live");
            if fd.revents & READABLE != 0 || conn.backlog {
                conn.pump(ctx);
                backlog |= conn.backlog;
                flush.push(*token);
            } else if fd.revents & WRITABLE != 0 {
                flush.push(*token);
            }
        }

        // The mail. Draining the waker before taking the mail loses no
        // wake-up: a post after the take finds the mail empty and wakes.
        if fds[0].revents != 0 {
            me.waker.drain();
        }
        let mail = std::mem::take(&mut *me.mail.lock().expect("reactor mail poisoned"));
        for stream in mail.streams {
            if let Ok(conn) = Conn::adopt(stream, next_token, me, ctx) {
                ctx.metrics.connections.inc();
                ctx.metrics.connections_total.inc();
                conns.insert(next_token, conn);
                next_token += 1;
            }
        }
        flush.extend(mail.ready);
        let closing = ctx.closing.load(Ordering::SeqCst);
        if closing {
            for (&token, conn) in conns.iter_mut() {
                conn.begin_stop();
                flush.push(token);
            }
        }

        // Writes.
        for token in flush.drain(..) {
            if let Some(conn) = conns.get_mut(&token) {
                conn.flush(ctx, &mut payload);
            }
        }
        let now = Instant::now();
        conns.retain(|_, conn| {
            if conn.write_deadline.is_some_and(|due| now >= due) {
                conn.discard(ctx);
            }
            let retired = conn.closed && conn.out.is_empty();
            if retired {
                ctx.metrics.connections.dec();
            }
            !retired
        });
        if closing && conns.is_empty() {
            return;
        }
    }
}

/// Materializes an outbox entry into the frame to write.
fn realize(store: &StoreServer, entry: &Entry) -> Response {
    match entry {
        Entry::Ready(resp) => resp.clone(),
        Entry::Outcome {
            request_id,
            tx,
            outcome,
        } => Response::Outcome {
            request_id: *request_id,
            tx: *tx,
            outcome: wire_outcome(store, outcome.clone()),
        },
        Entry::Synced => Response::Synced {
            version: store.version(),
        },
        Entry::Checkpoint => match store.checkpoint() {
            Ok(offset) => Response::CheckpointDone { offset },
            Err(e) => Response::Error {
                request_id: 0,
                code: e.code().into(),
                detail: e.to_string(),
            },
        },
        Entry::Stats => Response::StatsText {
            text: store.metrics().render_prometheus(),
        },
    }
}

/// Projects a store outcome onto the wire, pairing a commit with the
/// root hash recorded at its version. A missing commitment (the
/// version's history segment was retired before write-back) is an
/// explicit `None` on the wire — never a fabricated zero.
fn wire_outcome(store: &StoreServer, outcome: TxOutcome) -> WireOutcome {
    match outcome {
        TxOutcome::Committed { version } => WireOutcome::Committed {
            version,
            root_hash: store.commit_root(version),
        },
        TxOutcome::Aborted {
            reason: AbortReason::GuardFailed { version, shape },
        } => WireOutcome::GuardAborted { version, shape },
        TxOutcome::Aborted {
            reason: AbortReason::RolledBack { reason },
        } => WireOutcome::RolledBack { reason },
        TxOutcome::Failed { error } => WireOutcome::Failed {
            code: error.code().into(),
            detail: error.to_string(),
        },
    }
}

/// One response owed at one outbox sequence slot.
enum Entry {
    /// Fully formed at decode/resolve time.
    Ready(Response),
    /// A resolved transaction outcome; projected onto the wire (root
    /// commitment attached) at write time.
    Outcome {
        request_id: u64,
        tx: u64,
        outcome: TxOutcome,
    },
    /// A `Wait` barrier: the version is read at write time, after every
    /// earlier response was written.
    Synced,
    /// A checkpoint request: executed at write time, in FIFO position.
    Checkpoint,
    /// A stats request: rendered at write time, in FIFO position.
    Stats,
}

impl Entry {
    /// Whether the response depends on when it is realized (a barrier):
    /// everything before it on the connection must be written first.
    fn is_deferred(&self) -> bool {
        matches!(self, Entry::Synced | Entry::Checkpoint | Entry::Stats)
    }
}

struct Slot {
    entry: Entry,
    /// Decode time, for the request latency histogram (handshake and
    /// teardown frames don't carry one).
    started: Option<Instant>,
}

/// What [`Outbox::take`] found at the next sequence slot to write.
enum Take {
    Slot(Slot),
    /// A deferred entry, while bytes framed before it still wait.
    Barrier,
    /// Not completed yet.
    Idle,
    /// Every owed response was taken (or the connection was killed).
    Closed,
}

/// The response ledger of one connection: sequence-numbered slots,
/// shared between its reactor and the store threads that complete them.
///
/// Sequence slots are **reserved** by the reactor at request-decode
/// time (so reservation order is request order) and **completed** when
/// the response is known — immediately for most requests, at ticket
/// resolution for submits. The reactor takes the contiguous ready
/// prefix, so the wire order is the reservation order, always.
struct Outbox {
    inner: Mutex<OutboxInner>,
    /// The connection's key in its reactor's table: what a completion
    /// posts to `reactor`.
    token: u64,
    reactor: Arc<Reactor>,
    /// The shared `net_outbox_pending` gauge (reserved, not yet written).
    pending: Gauge,
}

#[derive(Default)]
struct OutboxInner {
    /// Next sequence number to reserve.
    next_seq: u64,
    /// Next sequence number to write.
    next_write: u64,
    /// Completed slots waiting their turn.
    ready: BTreeMap<u64, Slot>,
    /// One past the last sequence this connection will ever write; the
    /// outbox closes when `next_write` reaches it.
    end: Option<u64>,
    /// The token is posted, or the reactor is still writing this
    /// outbox: a completion need not post it again.
    scheduled: bool,
    /// Every owed response taken (or the socket died); late completions
    /// are no-ops.
    closed: bool,
}

impl Outbox {
    /// Reserves the next sequence slot (request order). On a closed
    /// outbox the reservation is moot — the slot is handed out but no
    /// longer counts as pending.
    fn reserve(&self) -> u64 {
        let mut g = self.inner.lock().expect("outbox lock poisoned");
        let seq = g.next_seq;
        g.next_seq += 1;
        if !g.closed {
            self.pending.inc();
        }
        seq
    }

    /// Stamps `slot` at `seq`; a no-op on a closed outbox. With
    /// `notify` — from whichever store thread resolved a ticket, never
    /// under any store lock — the connection is posted to its reactor if
    /// the ready prefix grew. The reactor's own stamps skip that: it
    /// writes the connection before it polls again.
    fn complete(&self, seq: u64, slot: Slot, notify: bool) {
        let post = {
            let mut g = self.inner.lock().expect("outbox lock poisoned");
            if g.closed {
                return;
            }
            g.ready.insert(seq, slot);
            let post = notify && !g.scheduled && g.ready.contains_key(&g.next_write);
            g.scheduled |= post;
            post
        };
        if post {
            self.reactor.post(|mail| mail.ready.push(self.token));
        }
    }

    /// Ends the outbox right after everything already reserved.
    fn end_now(&self) {
        let mut g = self.inner.lock().expect("outbox lock poisoned");
        debug_assert!(g.closed || g.end.is_none(), "a connection ends once");
        g.end = Some(g.next_seq);
    }

    /// Takes the slot at the write cursor. A deferred one is taken only
    /// when `may_defer` (nothing framed before it still waits).
    fn take(&self, may_defer: bool) -> Take {
        let mut g = self.inner.lock().expect("outbox lock poisoned");
        if g.closed {
            return Take::Closed;
        }
        let seq = g.next_write;
        match g.ready.get(&seq).map(|slot| slot.entry.is_deferred()) {
            Some(true) if !may_defer => Take::Barrier,
            Some(_) => {
                g.next_write += 1;
                Take::Slot(g.ready.remove(&seq).expect("just seen"))
            }
            None => {
                g.scheduled = false;
                g.closed = g.end == Some(seq);
                if g.closed {
                    Take::Closed
                } else {
                    Take::Idle
                }
            }
        }
    }

    /// Declares the socket dead: everything reserved but not taken is
    /// abandoned. Late completions become no-ops.
    fn kill(&self) {
        let mut g = self.inner.lock().expect("outbox lock poisoned");
        if g.closed {
            return;
        }
        g.closed = true;
        self.pending.sub(g.next_seq - g.next_write);
        g.next_write = g.next_seq;
        g.ready.clear();
    }
}

/// Where a connection is in its life.
#[derive(PartialEq)]
enum ConnPhase {
    /// Waiting for the version-matched Hello.
    Hello,
    /// Serving requests.
    Serving,
    /// No more requests will be read; owed responses are flushing.
    Draining,
}

/// One connection, owned by one reactor.
struct Conn<'a> {
    stream: TcpStream,
    frames: FrameReader,
    outbox: Arc<Outbox>,
    session: Session<'a>,
    phase: ConnPhase,
    /// The last pump stopped at its frame cap with bytes buffered, which
    /// no poll will announce: pump again without waiting.
    backlog: bool,
    /// Framed responses the socket has not taken yet.
    out: Vec<u8>,
    /// Decode times of the responses framed into `out` since it was
    /// last empty, settled when it empties.
    unsettled: Vec<Option<Instant>>,
    /// While bytes wait: when the connection dies if the socket takes
    /// none of them.
    write_deadline: Option<Instant>,
    /// The outbox closed: once `out` is written, the connection retires.
    closed: bool,
}

impl<'a> Conn<'a> {
    fn adopt(
        stream: TcpStream,
        token: u64,
        reactor: &Arc<Reactor>,
        ctx: &Ctx<'a>,
    ) -> Result<Self, NetError> {
        stream.set_nodelay(true).map_err(NetError::io)?;
        stream.set_nonblocking(true).map_err(NetError::io)?;
        let outbox = Arc::new(Outbox {
            inner: Mutex::default(),
            token,
            reactor: Arc::clone(reactor),
            pending: ctx.metrics.outbox_pending.clone(),
        });
        Ok(Conn {
            stream,
            frames: FrameReader::new(),
            outbox,
            session: ctx.store.session(),
            phase: ConnPhase::Hello,
            backlog: false,
            out: Vec::new(),
            unsettled: Vec::new(),
            write_deadline: None,
            closed: false,
        })
    }

    /// What to poll this connection for: requests until it drains,
    /// writability while bytes wait. With neither, it is left out (a
    /// hang-up would otherwise be reported on every poll).
    fn poll_fd(&self) -> PollFd {
        let events = match (self.phase == ConnPhase::Draining, self.out.is_empty()) {
            (true, true) => return PollFd::new(-1, 0),
            (true, false) => POLLOUT,
            (false, true) => POLLIN,
            (false, false) => POLLIN | POLLOUT,
        };
        PollFd::new(self.stream.as_raw_fd(), events)
    }

    /// Server-initiated teardown: serving connections get a Bye; a
    /// connection still in handshake just closes.
    fn begin_stop(&mut self) {
        match self.phase {
            ConnPhase::Serving => self.finish(Response::Bye),
            ConnPhase::Hello => self.fail(&NetError::Protocol("server stopping".into())),
            ConnPhase::Draining => {}
        }
    }

    /// Drains readable frames, at most [`MAX_FRAMES_PER_PUMP`].
    fn pump(&mut self, ctx: &Ctx<'a>) {
        self.backlog = false;
        if self.phase == ConnPhase::Draining {
            return;
        }
        for _ in 0..MAX_FRAMES_PER_PUMP {
            let mut reader = CountingReader {
                stream: &self.stream,
                bytes_in: &ctx.metrics.bytes_in,
            };
            match self.frames.poll(&mut reader) {
                Ok(FramePoll::Frame(payload)) => self.handle_frame(&payload, ctx),
                Ok(FramePoll::Eof) => {
                    self.outbox.end_now();
                    self.phase = ConnPhase::Draining;
                }
                Ok(FramePoll::Pending) => return,
                Err(e) => {
                    ctx.metrics.note_error(&e);
                    self.fail(&e);
                }
            }
            if self.phase == ConnPhase::Draining {
                return;
            }
        }
        self.backlog = self.frames.has_buffered();
    }

    /// Reserves the next slot and stamps `entry` into it.
    fn answer(&self, entry: Entry, started: Option<Instant>) {
        let seq = self.outbox.reserve();
        self.outbox.complete(seq, Slot { entry, started }, false);
    }

    /// Answers with `last`, ends the outbox after it, drains.
    fn finish(&mut self, last: Response) {
        self.answer(Entry::Ready(last), None);
        self.outbox.end_now();
        self.phase = ConnPhase::Draining;
    }

    /// Answers with a typed error and drains.
    fn fail(&mut self, e: &NetError) {
        self.finish(error_response(0, e));
    }

    fn handle_frame(&mut self, payload: &[u8], ctx: &Ctx<'a>) {
        let started = Instant::now();
        let request = match Request::decode(payload) {
            Ok(request) => request,
            Err(e) => {
                let e = NetError::from(e);
                ctx.metrics.note_error(&e);
                self.fail(&e);
                return;
            }
        };
        ctx.metrics.requests(request.kind()).inc();

        if self.phase == ConnPhase::Hello {
            match request {
                Request::Hello { version, client: _ } if version == PROTOCOL_VERSION => {
                    let welcome = Response::Welcome {
                        version: PROTOCOL_VERSION,
                        store_version: ctx.store.version(),
                        session: self.session.id(),
                    };
                    self.answer(Entry::Ready(welcome), None);
                    self.phase = ConnPhase::Serving;
                }
                Request::Hello { version, .. } => self.fail(&NetError::Version {
                    ours: PROTOCOL_VERSION,
                    theirs: version,
                }),
                other => self.fail(&NetError::Protocol(format!(
                    "expected Hello, got {}",
                    other.kind()
                ))),
            }
            return;
        }

        match request {
            Request::Hello { .. } => self.fail(&NetError::Protocol("repeated Hello".into())),
            Request::Submit {
                request_id,
                program,
            } => {
                // Reserve *before* submitting: the completion must have
                // its slot no matter how fast the ticket resolves.
                let seq = self.outbox.reserve();
                let ticket = self.session.submit(program);
                let tx = ticket.id();
                let outbox = Arc::clone(&self.outbox);
                ticket.on_resolve(move |outcome| {
                    let entry = Entry::Outcome {
                        request_id,
                        tx,
                        outcome,
                    };
                    let started = Some(started);
                    outbox.complete(seq, Slot { entry, started }, true);
                });
            }
            Request::Wait => self.answer(Entry::Synced, Some(started)),
            Request::Checkpoint => self.answer(Entry::Checkpoint, Some(started)),
            Request::Stats => self.answer(Entry::Stats, Some(started)),
            Request::Goodbye => self.finish(Response::Bye),
            Request::Shutdown if ctx.opts.allow_remote_shutdown => {
                ctx.stop.fire();
                self.finish(Response::Bye);
            }
            Request::Shutdown => {
                let forbidden = Response::Error {
                    request_id: 0,
                    code: "forbidden".into(),
                    detail: "server started without --allow-shutdown".into(),
                };
                self.answer(Entry::Ready(forbidden), None);
            }
        }
    }

    /// Writes the ready prefix: slots are taken in sequence order,
    /// realized and framed until about [`MAX_FRAME_LEN`] bytes wait, and
    /// what waits goes to the socket in one write. A deferred slot is
    /// realized only once every byte framed before it was written —
    /// which is what makes it a barrier. Returns when nothing more is
    /// ready, or when the socket is full (the rest then waits for
    /// `POLLOUT`).
    fn flush(&mut self, ctx: &Ctx<'a>, payload: &mut Vec<u8>) {
        loop {
            while !self.closed && self.out.len() < MAX_FRAME_LEN as usize {
                match self.outbox.take(self.out.is_empty()) {
                    Take::Slot(slot) => {
                        payload.clear();
                        realize(ctx.store, &slot.entry).encode(payload);
                        frame_into(&mut self.out, payload);
                        self.unsettled.push(slot.started);
                    }
                    Take::Barrier | Take::Idle => break,
                    Take::Closed => self.closed = true,
                }
            }
            if self.out.is_empty() || !self.write(ctx) {
                return;
            }
        }
    }

    /// One nonblocking write of the waiting bytes; whether all of them
    /// went out.
    fn write(&mut self, ctx: &Ctx<'a>) -> bool {
        match (&self.stream).write(&self.out) {
            Ok(n) if n > 0 => {
                ctx.metrics.bytes_out.add(n as u64);
                ctx.metrics.socket_writes.inc();
                self.out.drain(..n);
                self.write_deadline = None;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            _ => {
                self.discard(ctx);
                return false;
            }
        }
        if !self.out.is_empty() {
            let due = Instant::now() + ctx.opts.write_timeout;
            self.write_deadline.get_or_insert(due);
            return false;
        }
        self.settle(ctx, true);
        true
    }

    /// Empties `out` and settles the responses framed into it: no longer
    /// pending, and their request latency observed if they were
    /// `written`.
    fn settle(&mut self, ctx: &Ctx<'a>, written: bool) {
        let metrics = ctx.metrics;
        metrics.outbox_pending.sub(self.unsettled.len() as u64);
        for started in self.unsettled.drain(..).flatten().filter(|_| written) {
            metrics
                .request_us
                .observe(started.elapsed().as_micros() as u64);
        }
        self.out.clear();
        self.write_deadline = None;
    }

    /// The socket is dead, or its peer took nothing for the write
    /// timeout: drop what waits and abandon every owed response.
    fn discard(&mut self, ctx: &Ctx<'a>) {
        self.settle(ctx, false);
        self.outbox.kill();
        self.closed = true;
    }
}

fn error_response(request_id: u64, e: &NetError) -> Response {
    Response::Error {
        request_id,
        code: e.code().into(),
        detail: e.to_string(),
    }
}

/// A frame-source that meters bytes in.
struct CountingReader<'a> {
    stream: &'a TcpStream,
    bytes_in: &'a Counter,
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut stream = self.stream;
        let n = stream.read(buf)?;
        self.bytes_in.add(n as u64);
        Ok(n)
    }
}
