//! The framed TCP front door: remote sessions over the codec wire
//! protocol.
//!
//! This crate is where the two transport-shaped halves built earlier
//! finally meet a network boundary: the store's
//! [`Session`](vpdt_store::Session)/[`TxTicket`](vpdt_store::TxTicket)
//! pipeline (submission decoupled from resolution) and the
//! [`vpdt_tx::codec`] deterministic binary encoding of the whole
//! program syntax. The wire protocol is deliberately thin:
//!
//! * **frames** ([`frame`]) — `[u32 len][u64 FNV-1a][payload]`, the
//!   write-ahead log's framing discipline applied to a socket, with a
//!   hard length cap validated before any buffering;
//! * **envelopes** ([`proto`]) — tagged request/response types encoded
//!   with the same codec primitives as programs, version-negotiated by
//!   a single `u32` in the mandatory `Hello`;
//! * **server** ([`server`]) — a resident [`NetServer`] multiplexing
//!   connections onto per-connection sessions backed by the existing
//!   worker pool. A bounded reactor pool blocks in `poll(2)` on the
//!   (nonblocking) sockets and does their reads and writes, completion
//!   hooks ([`TxTicket::on_resolve`](vpdt_store::TxTicket::on_resolve))
//!   stamp resolved outcomes into per-connection sequence-numbered
//!   outboxes and wake the owning reactor to write the ready prefix — so
//!   C mostly-idle connections cost O(pool size) threads, and every
//!   response (stats and checkpoints included) goes back in request
//!   order. A committed
//!   outcome carries the version's root hash, so a remote client holds
//!   the same per-relation state commitment an in-process caller could
//!   compute — and on a durable store an acknowledged commit is durable
//!   by construction;
//! * **client** ([`client`]) — [`NetClient`] with sync submit/wait and
//!   a pipelined window mode mirroring the bench's session driver.
//!
//! Robustness stance: every way a peer can misbehave (truncated,
//! oversized, corrupt, undecodable, version-mismatched, out-of-order
//! frames) maps to a typed [`NetError`], answered where possible and
//! followed by teardown of *that connection only*. The server never
//! trusts a length prefix for an allocation and never lets one bad
//! client poison service to others.

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;
mod sys;

pub use client::NetClient;
pub use frame::{FramePoll, FrameReader, FRAME_HEADER, MAX_FRAME_LEN};
pub use proto::{NetError, Request, Response, WireOutcome, PROTOCOL_VERSION};
pub use server::{names, NetOptions, NetServer, ServerHandle};
