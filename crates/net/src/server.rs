//! The resident front door: TCP connections multiplexed onto store
//! sessions by a bounded reactor pool, with completion-driven writes.
//!
//! [`NetServer`] wraps a running [`StoreServer`] and a bound listener.
//! [`NetServer::serve`] owns the accept loop and two small fixed pools —
//! serving C connections costs O(pool size) threads, not O(C):
//!
//! * **reactors** ([`NetOptions::reactor_threads`]) own the read side.
//!   Each accepted socket is made nonblocking and handed to one reactor,
//!   which sweeps its connections for readable frames, decodes requests,
//!   and submits programs to the worker pool. No reactor thread ever
//!   blocks on a socket or a ticket.
//! * **writers** ([`NetOptions::writer_threads`]) own the write side.
//!   Every response is stamped into the connection's sequence-numbered
//!   **outbox** — a slot per request, reserved at decode time in request
//!   order — and a writer flushes each outbox's *ready prefix* strictly
//!   in sequence order: the whole prefix is framed into one buffer and
//!   written with **one** socket write, so a burst of resolved outcomes
//!   wakes the client once, not once per response.
//!
//! The bridge between them is completion-driven: a `Submit`'s
//! [`TxTicket`](vpdt_store::TxTicket) gets an
//! [`on_resolve`](vpdt_store::TxTicket::on_resolve) hook that stamps the
//! outcome into its reserved outbox slot when the ticket resolves (for
//! commits on a persisted store: after the covering fsync). No thread
//! parks per ticket.
//!
//! Because slots are reserved in request order and written in sequence
//! order, responses on one connection arrive strictly in request order —
//! for **every** request kind (`Stats` and `Checkpoint` ride the outbox
//! like everything else) — and **an acknowledged networked commit is
//! durable by construction**. `Wait` barriers, checkpoint offsets, and
//! sync versions are *evaluated at write time*, after every earlier
//! response on that connection has been written, which is exactly the
//! barrier the protocol promises: when a writer meets such a deferred
//! entry in a prefix, it first writes the responses framed before it,
//! then realizes the entry and goes on framing.
//!
//! A malformed frame (truncated, oversized, corrupt, undecodable) tears
//! down *that connection only*: a typed [`Response::Error`] is stamped at
//! the connection's next sequence slot, the outbox is end-marked, and the
//! connection drains. Other connections never observe it — a bad client
//! must never poison the server. Transient `accept` failures
//! (`ECONNABORTED`, `EMFILE`, …) are counted and retried with bounded
//! backoff; only the stop flag ends the accept loop.
//!
//! Shutdown (the [`ServerHandle`] stop flag, or a permitted remote
//! [`Request::Shutdown`]) stops accepting, stamps a `Bye` into every
//! serving connection's outbox, lets the writers drain every owed
//! response, then shuts the store down — the final [`ServerReport`]
//! covers everything the front door acknowledged.

use crate::frame::{frame_into, FramePoll, FrameReader};
use crate::proto::{NetError, Request, Response, WireOutcome, PROTOCOL_VERSION};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Reader threads. Each reactor owns a share of the connections and
    /// sweeps them for readable frames; the thread cost of serving is
    /// `reactor_threads + writer_threads`, independent of connection
    /// count (`vpdtool serve --reactors`).
    pub reactor_threads: usize,
    /// Writer threads flushing ready outbox prefixes, shared by all
    /// connections (`vpdtool serve --writers`).
    pub writer_threads: usize,
    /// How long an idle reactor sleeps between readiness sweeps — the
    /// latency floor for noticing new frames and the stop flag.
    pub sweep_interval: Duration,
    /// How long a writer keeps retrying a back-pressured socket before
    /// declaring the connection dead. Not a protocol deadline: it only
    /// fires when the peer stops draining its receive buffer.
    pub write_timeout: Duration,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            allow_remote_shutdown: false,
            reactor_threads: 2,
            writer_threads: 2,
            sweep_interval: Duration::from_millis(2),
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
    writer_threads: Gauge,
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
    /// Gauge: reactor (read-side) pool threads while serving.
    pub const NET_REACTOR_THREADS: &str = "net_reactor_threads";
    /// Gauge: writer (write-side) pool threads while serving.
    pub const NET_WRITER_THREADS: &str = "net_writer_threads";
    /// Gauge: responses reserved in outboxes but not yet written.
    pub const NET_OUTBOX_PENDING: &str = "net_outbox_pending";
    /// Counter: payload + framing bytes received.
    pub const NET_BYTES_IN_TOTAL: &str = "net_bytes_in_total";
    /// Counter: payload + framing bytes sent.
    pub const NET_BYTES_OUT_TOTAL: &str = "net_bytes_out_total";
    /// Counter: socket `write` calls by the writer pool — about one per
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
            writer_threads: registry.gauge(names::NET_WRITER_THREADS),
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

/// A remote-stop handle: cheap to clone out of [`NetServer::handle`]
/// before `serve` consumes the server.
#[derive(Clone, Debug)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
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
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// A bound front door around a running [`StoreServer`].
#[derive(Debug)]
pub struct NetServer {
    store: StoreServer,
    listener: TcpListener,
    opts: NetOptions,
    stop: Arc<AtomicBool>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) in front of `store`.
    pub fn bind(store: StoreServer, addr: &str, opts: NetOptions) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr).map_err(NetError::io)?;
        listener.set_nonblocking(true).map_err(NetError::io)?;
        Ok(NetServer {
            store,
            listener,
            opts,
            stop: Arc::new(AtomicBool::new(false)),
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
    /// Blocks the calling thread (which runs the accept loop). The
    /// reactor and writer pools are spawned once, up front — accepted
    /// connections are distributed round-robin over the reactors and
    /// never get threads of their own. When the stop flag rises the
    /// accept loop ends, every serving connection is given a `Bye` and
    /// drains its owed responses through the writer pool, and the
    /// wrapped store's [`shutdown`](StoreServer::shutdown) report —
    /// front-door metrics included — is returned.
    pub fn serve(self) -> ServerReport {
        let NetServer {
            store,
            listener,
            opts,
            stop,
        } = self;
        let metrics = NetMetrics::new(&store);
        let reactors = opts.reactor_threads.max(1);
        let writers = opts.writer_threads.max(1);
        let pool = Arc::new(WriterPool::new(reactors));
        let inboxes: Vec<Inbox> = (0..reactors).map(|_| Inbox::default()).collect();
        metrics.reactor_threads.set(reactors as u64);
        metrics.writer_threads.set(writers as u64);

        std::thread::scope(|s| {
            for _ in 0..writers {
                let pool = Arc::clone(&pool);
                let store = &store;
                let metrics = &metrics;
                s.spawn(move || writer_loop(&pool, store, metrics));
            }
            for inbox in &inboxes {
                let ctx = Ctx {
                    store: &store,
                    opts: &opts,
                    stop: &stop,
                    metrics: &metrics,
                    pool: Arc::clone(&pool),
                };
                s.spawn(move || reactor_loop(ctx, inbox));
            }

            // The accept loop. Transient failures (ECONNABORTED, EMFILE,
            // …) are counted and retried with bounded exponential
            // backoff — only the stop flag ends the front door.
            let mut next = 0usize;
            let mut backoff = ACCEPT_BACKOFF_FLOOR;
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        backoff = ACCEPT_BACKOFF_FLOOR;
                        inboxes[next % reactors].push(stream);
                        next += 1;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => {
                        metrics.accept_errors.inc();
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(ACCEPT_BACKOFF_CEIL);
                    }
                }
            }
            // Scope exit joins the pools: reactors notice the stop flag
            // within one sweep, drain their connections (every owed
            // response written, via the writers), and count themselves
            // out; writers exit once the last reactor is gone and the
            // flush queue is empty.
        });
        metrics.reactor_threads.set(0);
        metrics.writer_threads.set(0);
        store.shutdown()
    }
}

const ACCEPT_BACKOFF_FLOOR: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_CEIL: Duration = Duration::from_secs(1);

/// Frames one reactor drains from one connection per sweep before moving
/// on — a firehose client must not starve its reactor-mates.
const MAX_FRAMES_PER_PUMP: usize = 32;

/// Everything a reactor (and its connections) borrows from `serve`.
struct Ctx<'a> {
    store: &'a StoreServer,
    opts: &'a NetOptions,
    stop: &'a AtomicBool,
    metrics: &'a NetMetrics,
    pool: Arc<WriterPool>,
}

/// Hand-off slot from the accept loop to one reactor.
#[derive(Default)]
struct Inbox {
    streams: Mutex<Vec<TcpStream>>,
}

impl Inbox {
    fn push(&self, stream: TcpStream) {
        self.streams
            .lock()
            .expect("inbox lock poisoned")
            .push(stream);
    }

    fn drain(&self) -> Vec<TcpStream> {
        let mut g = self.streams.lock().expect("inbox lock poisoned");
        std::mem::take(&mut *g)
    }

    fn is_empty(&self) -> bool {
        self.streams.lock().expect("inbox lock poisoned").is_empty()
    }
}

/// The shared flush queue: outboxes with a writable prefix, FIFO.
struct WriterPool {
    queue: Mutex<VecDeque<Arc<Outbox>>>,
    ready: Condvar,
    /// Reactors still running. Writers exit only after the last reactor
    /// is gone (every connection finished, so no outbox will ever be
    /// scheduled again) *and* the queue is empty.
    reactors_live: AtomicUsize,
}

impl WriterPool {
    fn new(reactors: usize) -> Self {
        WriterPool {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            reactors_live: AtomicUsize::new(reactors),
        }
    }

    fn push(&self, outbox: Arc<Outbox>) {
        self.queue
            .lock()
            .expect("writer queue poisoned")
            .push_back(outbox);
        self.ready.notify_one();
    }

    fn reactor_done(&self) {
        self.reactors_live.fetch_sub(1, Ordering::SeqCst);
        self.ready.notify_all();
    }
}

/// One writer: pop an outbox with a ready prefix, flush it, repeat.
fn writer_loop(pool: &WriterPool, store: &StoreServer, metrics: &NetMetrics) {
    // Reused across outboxes: the framed burst and one response payload.
    let mut frames = Vec::new();
    let mut payload = Vec::new();
    loop {
        let outbox = {
            let mut q = pool.queue.lock().expect("writer queue poisoned");
            loop {
                if let Some(outbox) = q.pop_front() {
                    break Some(outbox);
                }
                if pool.reactors_live.load(Ordering::SeqCst) == 0 {
                    break None;
                }
                // Timed wait: robust against a notification racing the
                // last reactor's exit.
                let (g, _) = pool
                    .ready
                    .wait_timeout(q, Duration::from_millis(50))
                    .expect("writer queue poisoned");
                q = g;
            }
        };
        match outbox {
            Some(outbox) => drain_outbox(&outbox, store, metrics, &mut frames, &mut payload),
            None => return,
        }
    }
}

/// Flushes one outbox's ready prefix in sequence order, framing the
/// whole prefix into `frames` and writing it with one call. Deferred
/// entries (`Synced`, `Checkpoint`, `Stats`) are realized *here*, after
/// every earlier response on the connection has been written — the
/// bytes framed before one go out first — which is what makes them
/// barriers.
fn drain_outbox(
    outbox: &Arc<Outbox>,
    store: &StoreServer,
    metrics: &NetMetrics,
    frames: &mut Vec<u8>,
    payload: &mut Vec<u8>,
) {
    loop {
        let batch = {
            let mut g = outbox.inner.lock().expect("outbox lock poisoned");
            let mut batch = Vec::new();
            loop {
                let seq = g.next_write;
                match g.ready.remove(&seq) {
                    Some(slot) => {
                        g.next_write += 1;
                        batch.push(slot);
                    }
                    None => break,
                }
            }
            if batch.is_empty() {
                g.scheduled = false;
                if g.end == Some(g.next_write) {
                    g.closed = true;
                }
                return;
            }
            batch
        };
        // `batch[..written]` is on the wire; `batch[written..framed]` is
        // framed into `frames`, waiting for the next write.
        let mut written = 0usize;
        for (framed, slot) in batch.iter().enumerate() {
            if slot.entry.is_deferred() && framed > written {
                if outbox.write_frames(frames).is_err() {
                    outbox.kill((batch.len() - written) as u64);
                    return;
                }
                settle(outbox, metrics, &batch[written..framed]);
                written = framed;
            }
            payload.clear();
            realize(store, &slot.entry).encode(payload);
            frame_into(frames, payload);
        }
        if outbox.write_frames(frames).is_err() {
            outbox.kill((batch.len() - written) as u64);
            return;
        }
        settle(outbox, metrics, &batch[written..]);
    }
}

/// Accounts for responses just written: no longer pending, and their
/// request latency observed.
fn settle(outbox: &Outbox, metrics: &NetMetrics, slots: &[Slot]) {
    outbox.pending.sub(slots.len() as u64);
    for started in slots.iter().filter_map(|slot| slot.started) {
        metrics
            .request_us
            .observe(started.elapsed().as_micros() as u64);
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

/// The write half of one connection: a sequence-numbered response
/// ledger plus the socket the writer pool flushes it to.
///
/// Sequence slots are **reserved** by the reactor at request-decode
/// time (so reservation order is request order) and **completed** when
/// the response is known — immediately for most requests, at ticket
/// resolution for submits. Writers flush the contiguous ready prefix,
/// so the wire order is the reservation order, always.
struct Outbox {
    stream: TcpStream,
    write_timeout: Duration,
    inner: Mutex<OutboxInner>,
    pool: Arc<WriterPool>,
    /// The shared `net_outbox_pending` gauge (reserved, not yet written).
    pending: Gauge,
    bytes_out: Counter,
    socket_writes: Counter,
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
    /// A writer currently owns (or is queued to own) this outbox.
    scheduled: bool,
    /// Every owed response written (or the socket died): the connection
    /// can be retired.
    closed: bool,
}

impl Outbox {
    fn new(
        stream: TcpStream,
        pool: Arc<WriterPool>,
        metrics: &NetMetrics,
        write_timeout: Duration,
    ) -> Self {
        Outbox {
            stream,
            write_timeout,
            inner: Mutex::new(OutboxInner::default()),
            pool,
            pending: metrics.outbox_pending.clone(),
            bytes_out: metrics.bytes_out.clone(),
            socket_writes: metrics.socket_writes.clone(),
        }
    }

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

    /// Stamps `slot` at `seq` and schedules a flush if the ready prefix
    /// grew. Called from reactors (immediate responses) and from ticket
    /// completions (whichever store thread resolved the ticket) — never
    /// under any store lock. On a closed outbox this is a silent no-op.
    fn complete(self: &Arc<Self>, seq: u64, slot: Slot) {
        let schedule = {
            let mut g = self.inner.lock().expect("outbox lock poisoned");
            if g.closed {
                return;
            }
            g.ready.insert(seq, slot);
            if !g.scheduled && g.ready.contains_key(&g.next_write) {
                g.scheduled = true;
                true
            } else {
                false
            }
        };
        if schedule {
            self.pool.push(Arc::clone(self));
        }
    }

    /// Declares `end` (one past the final sequence). If everything owed
    /// is already written, the outbox closes on the spot.
    fn set_end(&self, end: u64) {
        let mut g = self.inner.lock().expect("outbox lock poisoned");
        if g.closed {
            return;
        }
        debug_assert!(g.end.is_none(), "a connection ends once");
        g.end = Some(end);
        if !g.scheduled && g.next_write == end {
            g.closed = true;
        }
    }

    /// Ends the outbox right after everything already reserved — the
    /// orderly-EOF path, where no farewell frame is owed.
    fn end_now(&self) {
        let mut g = self.inner.lock().expect("outbox lock poisoned");
        if g.closed {
            return;
        }
        debug_assert!(g.end.is_none(), "a connection ends once");
        g.end = Some(g.next_seq);
        if !g.scheduled && g.next_write == g.next_seq {
            g.closed = true;
        }
    }

    /// Declares the socket dead: everything reserved-but-unwritten is
    /// abandoned (`extra` covers slots a writer had already popped when
    /// the write failed). Late completions become no-ops.
    fn kill(&self, extra: u64) {
        let mut g = self.inner.lock().expect("outbox lock poisoned");
        if g.closed {
            return;
        }
        g.closed = true;
        let abandoned = g.next_seq - g.next_write + extra;
        g.next_write = g.next_seq;
        g.ready.clear();
        self.pending.sub(abandoned);
    }

    fn is_closed(&self) -> bool {
        self.inner.lock().expect("outbox lock poisoned").closed
    }

    /// Writes the framed responses in `frames` with one `write_all`,
    /// riding out `WouldBlock` (the socket is nonblocking — it is shared
    /// with the read side) up to the write timeout, and empties `frames`.
    fn write_frames(&self, frames: &mut Vec<u8>) -> Result<(), NetError> {
        let mut w = PatientWriter {
            stream: &self.stream,
            deadline: Instant::now() + self.write_timeout,
            bytes_out: &self.bytes_out,
            writes: &self.socket_writes,
        };
        let written = w.write_all(frames);
        frames.clear();
        written.map_err(NetError::io)
    }
}

/// A writer over a nonblocking socket that waits out transient
/// back-pressure instead of failing, up to a deadline.
struct PatientWriter<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    bytes_out: &'a Counter,
    /// `net_socket_writes_total`: one per successful `write` call.
    writes: &'a Counter,
}

impl Write for PatientWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            let mut stream = self.stream;
            match stream.write(buf) {
                Ok(n) => {
                    self.bytes_out.add(n as u64);
                    self.writes.inc();
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= self.deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "peer stopped draining its receive buffer",
                        ));
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let mut stream = self.stream;
        stream.flush()
    }
}

/// One reactor: adopt sockets from the inbox, sweep connections for
/// readable frames, retire finished connections. Exits when the stop
/// flag is up and every connection has drained.
fn reactor_loop<'a>(ctx: Ctx<'a>, inbox: &Inbox) {
    let mut conns: Vec<Conn<'a>> = Vec::new();
    loop {
        for stream in inbox.drain() {
            match Conn::adopt(stream, &ctx) {
                Ok(conn) => {
                    ctx.metrics.connections.inc();
                    ctx.metrics.connections_total.inc();
                    conns.push(conn);
                }
                Err(_) => {
                    // Socket setup failed before the connection existed
                    // observably; nothing to account.
                }
            }
        }
        let stopping = ctx.stop.load(Ordering::SeqCst);
        let mut progressed = false;
        for conn in conns.iter_mut() {
            if stopping {
                conn.begin_stop();
            }
            progressed |= conn.pump(&ctx);
        }
        let before = conns.len();
        conns.retain(|c| {
            if c.outbox.is_closed() {
                ctx.metrics.connections.dec();
                false
            } else {
                true
            }
        });
        progressed |= conns.len() != before;
        if stopping && conns.is_empty() && inbox.is_empty() {
            break;
        }
        if !progressed {
            std::thread::sleep(ctx.opts.sweep_interval);
        }
    }
    ctx.pool.reactor_done();
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
}

impl<'a> Conn<'a> {
    fn adopt(stream: TcpStream, ctx: &Ctx<'a>) -> Result<Self, NetError> {
        stream.set_nodelay(true).map_err(NetError::io)?;
        stream.set_nonblocking(true).map_err(NetError::io)?;
        let write_half = stream.try_clone().map_err(NetError::io)?;
        let outbox = Arc::new(Outbox::new(
            write_half,
            Arc::clone(&ctx.pool),
            ctx.metrics,
            ctx.opts.write_timeout,
        ));
        Ok(Conn {
            stream,
            frames: FrameReader::new(),
            outbox,
            session: ctx.store.session(),
            phase: ConnPhase::Hello,
        })
    }

    /// Server-initiated teardown: serving connections get a Bye; a
    /// connection still in handshake just closes.
    fn begin_stop(&mut self) {
        match self.phase {
            ConnPhase::Serving => {
                let seq = self.outbox.reserve();
                self.outbox.complete(
                    seq,
                    Slot {
                        entry: Entry::Ready(Response::Bye),
                        started: None,
                    },
                );
                self.outbox.set_end(seq + 1);
                self.phase = ConnPhase::Draining;
            }
            ConnPhase::Hello => {
                let seq = self.outbox.reserve();
                self.fail(seq, &NetError::Protocol("server stopping".into()));
            }
            ConnPhase::Draining => {}
        }
    }

    /// Drains readable frames (bounded per sweep). Returns whether any
    /// progress was made.
    fn pump(&mut self, ctx: &Ctx<'a>) -> bool {
        if self.phase == ConnPhase::Draining {
            return false;
        }
        let mut progressed = false;
        for _ in 0..MAX_FRAMES_PER_PUMP {
            let mut reader = CountingReader {
                stream: &self.stream,
                bytes_in: &ctx.metrics.bytes_in,
            };
            match self.frames.poll(&mut reader) {
                Ok(FramePoll::Frame(payload)) => {
                    progressed = true;
                    self.handle_frame(&payload, ctx);
                }
                Ok(FramePoll::Eof) => {
                    progressed = true;
                    self.outbox.end_now();
                    self.phase = ConnPhase::Draining;
                }
                Ok(FramePoll::Pending) => break,
                Err(e) => {
                    progressed = true;
                    ctx.metrics.note_error(&e);
                    let seq = self.outbox.reserve();
                    self.fail(seq, &e);
                }
            }
            if self.phase == ConnPhase::Draining {
                break;
            }
        }
        progressed
    }

    /// Stamps a typed error at `seq`, ends the outbox there, drains.
    fn fail(&mut self, seq: u64, e: &NetError) {
        self.outbox.complete(
            seq,
            Slot {
                entry: Entry::Ready(error_response(0, e)),
                started: None,
            },
        );
        self.outbox.set_end(seq + 1);
        self.phase = ConnPhase::Draining;
    }

    fn handle_frame(&mut self, payload: &[u8], ctx: &Ctx<'a>) {
        let started = Instant::now();
        let request = match Request::decode(payload) {
            Ok(request) => request,
            Err(e) => {
                let e = NetError::from(e);
                ctx.metrics.note_error(&e);
                let seq = self.outbox.reserve();
                self.fail(seq, &e);
                return;
            }
        };
        ctx.metrics.requests(request.kind()).inc();

        if self.phase == ConnPhase::Hello {
            let seq = self.outbox.reserve();
            match request {
                Request::Hello { version, client: _ } if version == PROTOCOL_VERSION => {
                    self.outbox.complete(
                        seq,
                        Slot {
                            entry: Entry::Ready(Response::Welcome {
                                version: PROTOCOL_VERSION,
                                store_version: ctx.store.version(),
                                session: self.session.id(),
                            }),
                            started: None,
                        },
                    );
                    self.phase = ConnPhase::Serving;
                }
                Request::Hello { version, .. } => {
                    self.fail(
                        seq,
                        &NetError::Version {
                            ours: PROTOCOL_VERSION,
                            theirs: version,
                        },
                    );
                }
                other => {
                    self.fail(
                        seq,
                        &NetError::Protocol(format!("expected Hello, got {}", other.kind())),
                    );
                }
            }
            return;
        }

        match request {
            Request::Hello { .. } => {
                let seq = self.outbox.reserve();
                self.fail(seq, &NetError::Protocol("repeated Hello".into()));
            }
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
                    outbox.complete(
                        seq,
                        Slot {
                            entry: Entry::Outcome {
                                request_id,
                                tx,
                                outcome,
                            },
                            started: Some(started),
                        },
                    );
                });
            }
            Request::Wait => {
                let seq = self.outbox.reserve();
                self.outbox.complete(
                    seq,
                    Slot {
                        entry: Entry::Synced,
                        started: Some(started),
                    },
                );
            }
            Request::Checkpoint => {
                let seq = self.outbox.reserve();
                self.outbox.complete(
                    seq,
                    Slot {
                        entry: Entry::Checkpoint,
                        started: Some(started),
                    },
                );
            }
            Request::Stats => {
                let seq = self.outbox.reserve();
                self.outbox.complete(
                    seq,
                    Slot {
                        entry: Entry::Stats,
                        started: Some(started),
                    },
                );
            }
            Request::Goodbye => {
                let seq = self.outbox.reserve();
                self.outbox.complete(
                    seq,
                    Slot {
                        entry: Entry::Ready(Response::Bye),
                        started: None,
                    },
                );
                self.outbox.set_end(seq + 1);
                self.phase = ConnPhase::Draining;
            }
            Request::Shutdown => {
                if ctx.opts.allow_remote_shutdown {
                    ctx.stop.store(true, Ordering::SeqCst);
                    let seq = self.outbox.reserve();
                    self.outbox.complete(
                        seq,
                        Slot {
                            entry: Entry::Ready(Response::Bye),
                            started: None,
                        },
                    );
                    self.outbox.set_end(seq + 1);
                    self.phase = ConnPhase::Draining;
                } else {
                    let seq = self.outbox.reserve();
                    self.outbox.complete(
                        seq,
                        Slot {
                            entry: Entry::Ready(Response::Error {
                                request_id: 0,
                                code: "forbidden".into(),
                                detail: "server started without --allow-shutdown".into(),
                            }),
                            started: None,
                        },
                    );
                }
            }
        }
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
