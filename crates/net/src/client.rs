//! The remote session handle: sync submit/wait plus pipelined windows.
//!
//! [`NetClient::connect`] performs the Hello/Welcome handshake and
//! yields a handle shaped like an in-process
//! [`Session`](vpdt_store::Session): [`submit_sync`] for the one-call
//! path, or [`submit`] + [`next_outcome`] to keep a window of
//! submissions in flight — the pipelined mode mirrors the bench's
//! session driver, which keeps `PIPELINE_WINDOW` tickets open and
//! drains the resolved prefix.
//!
//! Responses on one connection arrive strictly in request order (the
//! server's per-connection outbox is sequence-numbered at decode time),
//! so a pipelining client needs no reordering buffer: `next_outcome`
//! returns outcomes exactly in the order `submit` assigned request ids.
//!
//! Requests are framed into an outgoing buffer, not written one by one:
//! a submit is **sent when the client next waits** for a response (every
//! blocking call — [`next_outcome`], [`submit_sync`], [`sync`], the RPCs,
//! [`goodbye`] — writes the buffer first), when it is [`flush`]ed, when
//! the buffer passes 64 KiB, or when the client is dropped. A burst of
//! submits therefore costs one `send`, and the server reads it in one
//! go. A caller that pipelines without waiting and needs the requests
//! on the wire now (say, to observe the server while they run) calls
//! [`flush`]. A send error surfaces at that write, not at `submit`.
//!
//! [`submit_sync`]: NetClient::submit_sync
//! [`submit`]: NetClient::submit
//! [`next_outcome`]: NetClient::next_outcome
//! [`sync`]: NetClient::sync
//! [`goodbye`]: NetClient::goodbye
//! [`flush`]: NetClient::flush

use crate::frame::{frame_into, FrameReader};
use crate::proto::{NetError, Request, Response, WireOutcome, PROTOCOL_VERSION};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use vpdt_tx::program::Program;

/// Outgoing bytes past which [`NetClient`] writes without waiting for
/// its next blocking call, bounding the buffer of a client that
/// pipelines a long way ahead.
const OUTGOING_FLUSH_BYTES: usize = 64 * 1024;

/// A connected remote session.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    reader: FrameReader,
    session: u64,
    store_version: u64,
    next_request: u64,
    /// Request ids submitted but not yet answered, oldest first.
    inflight: VecDeque<u64>,
    /// Framed requests not yet written to the socket.
    outgoing: Vec<u8>,
    /// One request's payload, reused across requests.
    payload: Vec<u8>,
}

impl NetClient {
    /// Connects, shakes hands, and returns the session handle.
    /// `client` is a free-form label the server may record.
    pub fn connect(addr: impl ToSocketAddrs, client: &str) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr).map_err(NetError::io)?;
        stream.set_nodelay(true).map_err(NetError::io)?;
        let mut me = NetClient {
            stream,
            reader: FrameReader::new(),
            session: 0,
            store_version: 0,
            next_request: 1,
            inflight: VecDeque::new(),
            outgoing: Vec::new(),
            payload: Vec::new(),
        };
        me.send(&Request::Hello {
            version: PROTOCOL_VERSION,
            client: client.into(),
        })?;
        match me.next_response()? {
            Response::Welcome {
                version: PROTOCOL_VERSION,
                store_version,
                session,
            } => {
                me.session = session;
                me.store_version = store_version;
                Ok(me)
            }
            Response::Welcome { version, .. } => Err(NetError::Version {
                ours: PROTOCOL_VERSION,
                theirs: version,
            }),
            other => Err(unexpected("Welcome", &other)),
        }
    }

    /// The session id the server assigned this connection.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The server's store version as of the last handshake or barrier.
    pub fn store_version(&self) -> u64 {
        self.store_version
    }

    /// Request ids submitted but not yet answered.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Pipelined submit: queues the program and returns its request id
    /// without waiting. It goes out with the next blocking call (or
    /// [`NetClient::flush`]); collect outcomes with
    /// [`NetClient::next_outcome`].
    pub fn submit(&mut self, program: &Program) -> Result<u64, NetError> {
        let request_id = self.next_request;
        self.next_request += 1;
        self.payload.clear();
        Request::encode_submit(request_id, program, &mut self.payload);
        self.queue_payload()?;
        self.inflight.push_back(request_id);
        Ok(request_id)
    }

    /// Writes every queued request to the socket in one write. Blocking
    /// calls do this themselves; call it to put a pipelined burst on the
    /// wire without waiting for a response.
    pub fn flush(&mut self) -> Result<(), NetError> {
        if self.outgoing.is_empty() {
            return Ok(());
        }
        let written = (&self.stream).write_all(&self.outgoing);
        self.outgoing.clear();
        written.map_err(NetError::io)
    }

    /// Blocks for the oldest in-flight submission's outcome, returning
    /// `(request_id, transaction id, outcome)`. A request-scoped error
    /// frame surfaces as [`NetError::Remote`].
    pub fn next_outcome(&mut self) -> Result<(u64, u64, WireOutcome), NetError> {
        let expected = self
            .inflight
            .front()
            .copied()
            .ok_or_else(|| NetError::Protocol("no submission in flight".into()))?;
        match self.next_response()? {
            Response::Outcome {
                request_id,
                tx,
                outcome,
            } => {
                if request_id != expected {
                    return Err(NetError::Protocol(format!(
                        "outcome for request {request_id}, expected {expected}"
                    )));
                }
                self.inflight.pop_front();
                Ok((request_id, tx, outcome))
            }
            Response::Error {
                request_id,
                code,
                detail,
            } if request_id == expected => {
                self.inflight.pop_front();
                Err(NetError::Remote { code, detail })
            }
            other => Err(unexpected("Outcome", &other)),
        }
    }

    /// The one-call path: submit, then block for the outcome. Requires
    /// an empty pipeline (outcomes arrive in order).
    pub fn submit_sync(&mut self, program: &Program) -> Result<WireOutcome, NetError> {
        if !self.inflight.is_empty() {
            return Err(NetError::Protocol(
                "submit_sync with submissions in flight".into(),
            ));
        }
        self.submit(program)?;
        self.next_outcome().map(|(_, _, outcome)| outcome)
    }

    /// Barrier: drains every in-flight outcome (invoking `on_outcome`
    /// for each), then waits for the server's `Synced` and returns the
    /// store version at the barrier.
    pub fn sync(
        &mut self,
        mut on_outcome: impl FnMut(u64, u64, WireOutcome),
    ) -> Result<u64, NetError> {
        self.send(&Request::Wait)?;
        while !self.inflight.is_empty() {
            let (request_id, tx, outcome) = self.next_outcome()?;
            on_outcome(request_id, tx, outcome);
        }
        match self.next_response()? {
            Response::Synced { version } => {
                self.store_version = version;
                Ok(version)
            }
            other => Err(unexpected("Synced", &other)),
        }
    }

    /// Asks the server to write a snapshot checkpoint; returns the
    /// covered log offset. Requires an empty pipeline.
    pub fn checkpoint(&mut self) -> Result<u64, NetError> {
        self.rpc(&Request::Checkpoint, |resp| match resp {
            Response::CheckpointDone { offset } => Some(offset),
            _ => None,
        })
    }

    /// Fetches the Prometheus rendering of the server's metrics.
    /// Requires an empty pipeline.
    pub fn stats(&mut self) -> Result<String, NetError> {
        self.rpc(&Request::Stats, |resp| match resp {
            Response::StatsText { text } => Some(text),
            _ => None,
        })
    }

    /// Orderly close: drains in-flight outcomes, says goodbye, waits
    /// for `Bye`, and consumes the handle.
    pub fn goodbye(mut self) -> Result<(), NetError> {
        while !self.inflight.is_empty() {
            self.next_outcome()?;
        }
        self.send(&Request::Goodbye)?;
        match self.next_response()? {
            Response::Bye => Ok(()),
            other => Err(unexpected("Bye", &other)),
        }
    }

    /// Asks the server process to stop serving (honored only when the
    /// server allows remote shutdown), waiting for its farewell.
    pub fn shutdown_server(mut self) -> Result<(), NetError> {
        while !self.inflight.is_empty() {
            self.next_outcome()?;
        }
        self.send(&Request::Shutdown)?;
        match self.next_response()? {
            Response::Bye => Ok(()),
            Response::Error { code, detail, .. } => Err(NetError::Remote { code, detail }),
            other => Err(unexpected("Bye", &other)),
        }
    }

    /// One request, one matching response; `Error` frames surface typed.
    fn rpc<T>(
        &mut self,
        req: &Request,
        extract: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T, NetError> {
        if !self.inflight.is_empty() {
            return Err(NetError::Protocol(format!(
                "{} with submissions in flight",
                req.kind()
            )));
        }
        self.send(req)?;
        let resp = self.next_response()?;
        if let Response::Error { code, detail, .. } = resp {
            return Err(NetError::Remote { code, detail });
        }
        let what = req.kind();
        extract(resp).ok_or_else(|| NetError::Protocol(format!("unexpected response to {what}")))
    }

    /// Queues one request (see the module docs for when it is written).
    fn send(&mut self, req: &Request) -> Result<(), NetError> {
        self.payload.clear();
        req.encode(&mut self.payload);
        self.queue_payload()
    }

    /// Frames the encoded `payload` into the outgoing buffer.
    fn queue_payload(&mut self) -> Result<(), NetError> {
        frame_into(&mut self.outgoing, &self.payload);
        if self.outgoing.len() >= OUTGOING_FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes what is queued, then blocks for the next response.
    fn next_response(&mut self) -> Result<Response, NetError> {
        self.flush()?;
        let payload = self.reader.next_frame(&mut self.stream)?;
        Ok(Response::decode(&payload)?)
    }
}

/// A dropped client still sends what it queued (best effort), so a
/// fire-and-forget caller's submits reach the server as before.
impl Drop for NetClient {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

fn unexpected(wanted: &str, got: &Response) -> NetError {
    if let Response::Error { code, detail, .. } = got {
        return NetError::Remote {
            code: code.clone(),
            detail: detail.clone(),
        };
    }
    NetError::Protocol(format!("expected {wanted}, got {got:?}"))
}
