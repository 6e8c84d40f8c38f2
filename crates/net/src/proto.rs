//! Request/response envelopes and the typed error surface.
//!
//! Payloads are encoded with the same hand-rolled tagged binary codec
//! the rest of the system speaks ([`vpdt_tx::codec`]): one leading tag
//! byte, then little-endian fixed-width fields and length-prefixed
//! strings. `Submit` carries a full [`Program`] via
//! [`encode_program`]/[`decode_program`] — the network protocol *is*
//! the codec wire protocol with an envelope around it.
//!
//! ## Version negotiation
//!
//! The first frame on a connection must be [`Request::Hello`] carrying
//! [`PROTOCOL_VERSION`]. The server answers [`Response::Welcome`] with
//! its own version on match, or [`Response::Error`] (code
//! `"version_mismatch"`) and a close on anything else. There is no
//! downgrade path: a single u32 decides, exactly like the WAL's format
//! version field.
//!
//! ## Correlation
//!
//! `Submit` carries a **client-assigned** `request_id`, echoed verbatim
//! on the matching [`Response::Outcome`] (and on request-scoped
//! errors). The server's own transaction id rides alongside, so a
//! client can correlate its pipeline without coordinating id spaces
//! with the server. Responses on one connection arrive strictly in
//! request order — for *every* request kind, not just submissions: a
//! `StatsText` answering a `Stats` sent after two `Submit`s arrives
//! after those two outcomes. The server enforces this with a
//! per-connection sequence-numbered outbox.

use vpdt_tx::codec::{
    decode_program, encode_program, put_str, put_u32, put_u64, CodecError, Cursor,
};
use vpdt_tx::program::Program;

/// The protocol version this build speaks. Bumped on any change to the
/// envelope encodings; there is no cross-version compatibility.
///
/// History: v1 encoded `Committed.root_hash` as a bare u64 with `0`
/// standing in for "unavailable" — indistinguishable from a real zero
/// commitment. v2 adds a presence byte so an absent root is typed.
pub const PROTOCOL_VERSION: u32 = 2;

/// Everything that can go wrong on the network boundary, typed.
///
/// A server maps these onto [`Response::Error`] frames (via
/// [`NetError::code`]) where the connection is still coherent, and onto
/// connection teardown where it is not — in both cases without
/// disturbing any other connection.
#[derive(Clone, Debug, PartialEq)]
pub enum NetError {
    /// Socket I/O failed (message only: `std::io::Error` is not `Clone`).
    Io(String),
    /// The peer closed mid-frame: `got` bytes buffered of the `want` the
    /// frame header promised.
    Truncated {
        /// Bytes received before the close.
        got: usize,
        /// Bytes the frame needed (header included).
        want: usize,
    },
    /// A length prefix exceeded the frame cap; rejected before buffering.
    Oversized {
        /// The offending length prefix.
        len: u32,
        /// The cap ([`crate::frame::MAX_FRAME_LEN`]).
        max: u32,
    },
    /// Frame checksum mismatch: bytes arrived but are damaged.
    Corrupt {
        /// The checksum the frame header claimed.
        expected: u64,
        /// The checksum of the payload as received.
        found: u64,
    },
    /// The payload failed to decode as an envelope.
    Codec(CodecError),
    /// Hello carried a protocol version this build does not speak.
    Version {
        /// The version this build speaks.
        ours: u32,
        /// The version the peer offered.
        theirs: u32,
    },
    /// The peer sent a well-formed message the protocol state does not
    /// admit (e.g. anything before `Hello`).
    Protocol(String),
    /// The server answered with an error frame (client side).
    Remote {
        /// The server's stable error code.
        code: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl NetError {
    /// Wraps an I/O error (stringified — the typed surface stays `Clone`).
    pub fn io(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }

    /// A short stable code for wire error frames and metrics labels.
    pub fn code(&self) -> &'static str {
        match self {
            NetError::Io(_) => "io",
            NetError::Truncated { .. } => "truncated",
            NetError::Oversized { .. } => "oversized",
            NetError::Corrupt { .. } => "corrupt",
            NetError::Codec(_) => "codec",
            NetError::Version { .. } => "version_mismatch",
            NetError::Protocol(_) => "protocol",
            NetError::Remote { .. } => "remote",
        }
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(m) => write!(f, "socket i/o: {m}"),
            NetError::Truncated { got, want } => {
                write!(f, "peer closed mid-frame ({got} of {want} bytes)")
            }
            NetError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            NetError::Corrupt { expected, found } => write!(
                f,
                "frame checksum mismatch (header {expected:#018x}, payload {found:#018x})"
            ),
            NetError::Codec(e) => write!(f, "envelope decode: {e}"),
            NetError::Version { ours, theirs } => {
                write!(f, "protocol version mismatch (ours {ours}, peer {theirs})")
            }
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
            NetError::Remote { code, detail } => write!(f, "server error [{code}]: {detail}"),
        }
    }
}

impl std::error::Error for NetError {}

/// A client→server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Mandatory first frame: version negotiation plus a client label
    /// (free-form, recorded for observability only).
    Hello {
        /// The protocol version the client speaks.
        version: u32,
        /// A label identifying the client (for logs/metrics).
        client: String,
    },
    /// Submit a transaction program for execution.
    Submit {
        /// Client-assigned correlation id, echoed on the outcome.
        request_id: u64,
        /// The transaction program, codec-encoded.
        program: Program,
    },
    /// Barrier: answer [`Response::Synced`] only after every outcome for
    /// previously submitted transactions has been written back.
    Wait,
    /// Write a snapshot checkpoint on the server (durable servers only).
    Checkpoint,
    /// Fetch the Prometheus rendering of the server's metrics snapshot.
    Stats,
    /// Orderly goodbye: the server drains outcomes, answers
    /// [`Response::Bye`], and closes.
    Goodbye,
    /// Ask the server process to stop serving (honored only when the
    /// server was started with `allow_remote_shutdown`).
    Shutdown,
}

const REQ_HELLO: u8 = 1;
const REQ_SUBMIT: u8 = 2;
const REQ_WAIT: u8 = 3;
const REQ_CHECKPOINT: u8 = 4;
const REQ_STATS: u8 = 5;
const REQ_GOODBYE: u8 = 6;
const REQ_SHUTDOWN: u8 = 7;

impl Request {
    /// Appends the encoding of a `Submit` of a borrowed `program` to
    /// `out` — the same bytes as [`Request::encode`], without cloning the
    /// program into a `Request` first.
    pub fn encode_submit(request_id: u64, program: &Program, out: &mut Vec<u8>) {
        out.push(REQ_SUBMIT);
        put_u64(out, request_id);
        encode_program(program, out);
    }

    /// Appends the tagged encoding of this request to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Hello { version, client } => {
                out.push(REQ_HELLO);
                put_u32(out, *version);
                put_str(out, client);
            }
            Request::Submit {
                request_id,
                program,
            } => Request::encode_submit(*request_id, program, out),
            Request::Wait => out.push(REQ_WAIT),
            Request::Checkpoint => out.push(REQ_CHECKPOINT),
            Request::Stats => out.push(REQ_STATS),
            Request::Goodbye => out.push(REQ_GOODBYE),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
        }
    }

    /// Decodes one request from an exact payload (trailing bytes are an
    /// error — a frame carries one envelope).
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut c = Cursor::new(payload);
        let req = match c.u8("request tag")? {
            REQ_HELLO => Request::Hello {
                version: c.u32("protocol version")?,
                client: c.str("client label")?,
            },
            REQ_SUBMIT => Request::Submit {
                request_id: c.u64("request id")?,
                program: decode_program(&mut c)?,
            },
            REQ_WAIT => Request::Wait,
            REQ_CHECKPOINT => Request::Checkpoint,
            REQ_STATS => Request::Stats,
            REQ_GOODBYE => Request::Goodbye,
            REQ_SHUTDOWN => Request::Shutdown,
            tag => {
                return Err(CodecError::BadTag {
                    what: "request tag",
                    tag,
                    at: c.pos() - 1,
                })
            }
        };
        c.finish()?;
        Ok(req)
    }

    /// The request kind as a metrics label.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Submit { .. } => "submit",
            Request::Wait => "wait",
            Request::Checkpoint => "checkpoint",
            Request::Stats => "stats",
            Request::Goodbye => "goodbye",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A transaction outcome as it crosses the wire.
///
/// The flattened, owner-free projection of
/// [`TxOutcome`](vpdt_store::TxOutcome): a committed transaction
/// carries its version **and** the root hash recorded at that version —
/// the per-relation state commitment — so a remote client holds the
/// same verifiable claim an in-process caller could compute.
#[derive(Clone, Debug, PartialEq)]
pub enum WireOutcome {
    /// Committed (durably, on a persisted server) at `version`.
    Committed {
        /// The version the commit produced.
        version: u64,
        /// The root hash recorded at that version — the per-relation
        /// state commitment. `None` when the server no longer holds a
        /// commitment for the version (its history segment was retired
        /// before the outcome was written back): explicitly absent on
        /// the wire, never a fabricated zero a verifying client could
        /// mistake for a real commitment.
        root_hash: Option<u64>,
    },
    /// The guard aborted the transaction: it would have violated `α`.
    GuardAborted {
        /// The snapshot version the failing guard evaluated against.
        version: u64,
        /// The transaction's statement-shape id.
        shape: u64,
    },
    /// The check-and-rollback baseline ran it, found the constraint
    /// violated, and rolled back.
    RolledBack {
        /// The rollback path's own message.
        reason: String,
    },
    /// An execution error (not a deliberate abort).
    Failed {
        /// The store's stable error code.
        code: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl WireOutcome {
    /// Whether this outcome is a commit.
    pub fn is_committed(&self) -> bool {
        matches!(self, WireOutcome::Committed { .. })
    }
}

const OUT_COMMITTED: u8 = 1;
const OUT_GUARD_ABORTED: u8 = 2;
const OUT_ROLLED_BACK: u8 = 3;
const OUT_FAILED: u8 = 4;

fn encode_outcome(o: &WireOutcome, out: &mut Vec<u8>) {
    match o {
        WireOutcome::Committed { version, root_hash } => {
            out.push(OUT_COMMITTED);
            put_u64(out, *version);
            match root_hash {
                Some(root) => {
                    out.push(1);
                    put_u64(out, *root);
                }
                None => out.push(0),
            }
        }
        WireOutcome::GuardAborted { version, shape } => {
            out.push(OUT_GUARD_ABORTED);
            put_u64(out, *version);
            put_u64(out, *shape);
        }
        WireOutcome::RolledBack { reason } => {
            out.push(OUT_ROLLED_BACK);
            put_str(out, reason);
        }
        WireOutcome::Failed { code, detail } => {
            out.push(OUT_FAILED);
            put_str(out, code);
            put_str(out, detail);
        }
    }
}

fn decode_outcome(c: &mut Cursor<'_>) -> Result<WireOutcome, CodecError> {
    Ok(match c.u8("outcome tag")? {
        OUT_COMMITTED => {
            let version = c.u64("commit version")?;
            let root_hash = match c.u8("root presence")? {
                0 => None,
                1 => Some(c.u64("root hash")?),
                tag => {
                    return Err(CodecError::BadTag {
                        what: "root presence",
                        tag,
                        at: c.pos() - 1,
                    })
                }
            };
            WireOutcome::Committed { version, root_hash }
        }
        OUT_GUARD_ABORTED => WireOutcome::GuardAborted {
            version: c.u64("abort version")?,
            shape: c.u64("shape id")?,
        },
        OUT_ROLLED_BACK => WireOutcome::RolledBack {
            reason: c.str("rollback reason")?,
        },
        OUT_FAILED => WireOutcome::Failed {
            code: c.str("error code")?,
            detail: c.str("error detail")?,
        },
        tag => {
            return Err(CodecError::BadTag {
                what: "outcome tag",
                tag,
                at: c.pos() - 1,
            })
        }
    })
}

/// A server→client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to a version-matched [`Request::Hello`].
    Welcome {
        /// The protocol version the server speaks.
        version: u32,
        /// The server's current store version at accept time.
        store_version: u64,
        /// The session id the server assigned this connection.
        session: u64,
    },
    /// One submitted transaction's final outcome. For commits on a
    /// durable server, sent only after the covering fsync — an
    /// acknowledged networked commit is durable by construction.
    Outcome {
        /// The client's correlation id, echoed.
        request_id: u64,
        /// The transaction id the server assigned.
        tx: u64,
        /// The typed outcome.
        outcome: WireOutcome,
    },
    /// Answer to [`Request::Wait`]: every prior outcome has been written.
    Synced {
        /// The server's store version at the barrier.
        version: u64,
    },
    /// Answer to [`Request::Checkpoint`].
    CheckpointDone {
        /// The log offset the checkpoint covers.
        offset: u64,
    },
    /// Answer to [`Request::Stats`]: the Prometheus exposition text.
    StatsText {
        /// `render_prometheus` output of the server's metrics snapshot.
        text: String,
    },
    /// Orderly close acknowledgment.
    Bye,
    /// A typed failure. `request_id` is the offending submission's id,
    /// or 0 for connection-scoped errors.
    Error {
        /// The offending request's correlation id (0 = connection-scoped).
        request_id: u64,
        /// Stable error code ([`NetError::code`] or a store error code).
        code: String,
        /// Human-readable detail.
        detail: String,
    },
}

const RESP_WELCOME: u8 = 1;
const RESP_OUTCOME: u8 = 2;
const RESP_SYNCED: u8 = 3;
const RESP_CHECKPOINT_DONE: u8 = 4;
const RESP_STATS_TEXT: u8 = 5;
const RESP_BYE: u8 = 6;
const RESP_ERROR: u8 = 7;

impl Response {
    /// Appends the tagged encoding of this response to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Welcome {
                version,
                store_version,
                session,
            } => {
                out.push(RESP_WELCOME);
                put_u32(out, *version);
                put_u64(out, *store_version);
                put_u64(out, *session);
            }
            Response::Outcome {
                request_id,
                tx,
                outcome,
            } => {
                out.push(RESP_OUTCOME);
                put_u64(out, *request_id);
                put_u64(out, *tx);
                encode_outcome(outcome, out);
            }
            Response::Synced { version } => {
                out.push(RESP_SYNCED);
                put_u64(out, *version);
            }
            Response::CheckpointDone { offset } => {
                out.push(RESP_CHECKPOINT_DONE);
                put_u64(out, *offset);
            }
            Response::StatsText { text } => {
                out.push(RESP_STATS_TEXT);
                put_str(out, text);
            }
            Response::Bye => out.push(RESP_BYE),
            Response::Error {
                request_id,
                code,
                detail,
            } => {
                out.push(RESP_ERROR);
                put_u64(out, *request_id);
                put_str(out, code);
                put_str(out, detail);
            }
        }
    }

    /// Decodes one response from an exact payload.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8("response tag")? {
            RESP_WELCOME => Response::Welcome {
                version: c.u32("protocol version")?,
                store_version: c.u64("store version")?,
                session: c.u64("session id")?,
            },
            RESP_OUTCOME => Response::Outcome {
                request_id: c.u64("request id")?,
                tx: c.u64("transaction id")?,
                outcome: decode_outcome(&mut c)?,
            },
            RESP_SYNCED => Response::Synced {
                version: c.u64("store version")?,
            },
            RESP_CHECKPOINT_DONE => Response::CheckpointDone {
                offset: c.u64("log offset")?,
            },
            RESP_STATS_TEXT => Response::StatsText {
                text: c.str("stats text")?,
            },
            RESP_BYE => Response::Bye,
            RESP_ERROR => Response::Error {
                request_id: c.u64("request id")?,
                code: c.str("error code")?,
                detail: c.str("error detail")?,
            },
            tag => {
                return Err(CodecError::BadTag {
                    what: "response tag",
                    tag,
                    at: c.pos() - 1,
                })
            }
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(r: &Request) {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(&Request::decode(&buf).expect("decode"), r);
    }

    fn round_trip_response(r: &Response) {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(&Response::decode(&buf).expect("decode"), r);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::Hello {
            version: PROTOCOL_VERSION,
            client: "bench-client-3".into(),
        });
        round_trip_request(&Request::Submit {
            request_id: 42,
            program: Program::insert_consts("edge", [1, 2]),
        });
        for r in [
            Request::Wait,
            Request::Checkpoint,
            Request::Stats,
            Request::Goodbye,
            Request::Shutdown,
        ] {
            round_trip_request(&r);
        }
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(&Response::Welcome {
            version: PROTOCOL_VERSION,
            store_version: 17,
            session: 3,
        });
        for outcome in [
            WireOutcome::Committed {
                version: 9,
                root_hash: Some(0xdead_beef),
            },
            WireOutcome::Committed {
                version: 10,
                root_hash: None,
            },
            WireOutcome::GuardAborted {
                version: 8,
                shape: 2,
            },
            WireOutcome::RolledBack {
                reason: "constraint violated".into(),
            },
            WireOutcome::Failed {
                code: "tx".into(),
                detail: "boom".into(),
            },
        ] {
            round_trip_response(&Response::Outcome {
                request_id: 7,
                tx: 11,
                outcome,
            });
        }
        round_trip_response(&Response::Synced { version: 23 });
        round_trip_response(&Response::CheckpointDone { offset: 4096 });
        round_trip_response(&Response::StatsText {
            text: "# TYPE vpdt_tx_committed_total counter\n".into(),
        });
        round_trip_response(&Response::Bye);
        round_trip_response(&Response::Error {
            request_id: 0,
            code: "version_mismatch".into(),
            detail: "ours 1, peer 2".into(),
        });
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        Request::Wait.encode(&mut buf);
        buf.push(0);
        assert!(matches!(
            Request::decode(&buf),
            Err(CodecError::Trailing { .. })
        ));
    }

    #[test]
    fn bogus_root_presence_byte_is_rejected() {
        let mut buf = Vec::new();
        Response::Outcome {
            request_id: 1,
            tx: 2,
            outcome: WireOutcome::Committed {
                version: 3,
                root_hash: None,
            },
        }
        .encode(&mut buf);
        *buf.last_mut().expect("presence byte") = 7;
        assert!(matches!(
            Response::decode(&buf),
            Err(CodecError::BadTag {
                what: "root presence",
                ..
            })
        ));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(
            Request::decode(&[200]),
            Err(CodecError::BadTag { .. })
        ));
        assert!(matches!(
            Response::decode(&[200]),
            Err(CodecError::BadTag { .. })
        ));
    }
}
