//! The closed-loop load generator: one thread, one client, a fixed
//! pipelining window and a fixed amount of work.
//!
//! The client works in bursts of `window` transactions, back to back: it
//! submits the whole burst, waits until every reply of the burst has
//! arrived, then submits the next. A slower system therefore receives
//! less load, and every run submits the same number of transactions — so
//! the work measured, the history kept and the log replayed do not
//! depend on how much CPU the hypervisor stole during the run.
//!
//! Waiting for a whole burst (the last ticket first) rather than ticket
//! by ticket means the client blocks and wakes once per burst whatever
//! the relative speed of its thread and the workers. Per-ticket waits
//! made the number of wake-ups, and with it the CPU spent per
//! transaction, depend on how the hypervisor scheduled the two threads.

use crate::gen::TxGen;
use crate::span::{LayerTotals, Recorder, Span};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vpdt_net::{NetClient, WireOutcome};
use vpdt_store::{CrossOutcome, Routed, Session, ShardedStore, TxOutcome, TxTicket};
use vpdt_tx::program::Program;

/// How one transaction ended, as the client saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seen {
    /// Committed (durably, on a persisted front).
    Committed,
    /// The guard aborted it.
    Aborted,
    /// Refused or failed.
    Failed,
}

/// What a submit call returned.
pub enum Submitted<P> {
    /// Still in flight.
    Pending(P),
    /// Resolved inline (a cross-shard two-phase commit).
    Resolved(Seen),
}

/// A public front door the load thread drives.
pub trait FrontDoor {
    /// The handle of an in-flight submission.
    type Pending;
    /// Submits one program.
    fn submit(&mut self, program: Program, clock: &Recorder) -> Submitted<Self::Pending>;
    /// Blocks until every submission of `burst` has resolved; returns
    /// each outcome with the time (ns on `clock`) it became available.
    fn collect(&mut self, burst: Vec<Self::Pending>, clock: &Recorder) -> Vec<(Seen, u64)>;
}

fn seen(outcome: &TxOutcome) -> Seen {
    match outcome {
        TxOutcome::Committed { .. } => Seen::Committed,
        TxOutcome::Aborted { .. } => Seen::Aborted,
        TxOutcome::Failed { .. } => Seen::Failed,
    }
}

/// An in-process ticket plus the time its outcome arrived, stamped by the
/// resolving thread.
pub struct Stamped {
    ticket: TxTicket,
    resolved_ns: Arc<AtomicU64>,
}

fn stamped(ticket: TxTicket, clock: &Recorder) -> Stamped {
    let resolved_ns = Arc::new(AtomicU64::new(0));
    let (stamp, epoch) = (Arc::clone(&resolved_ns), clock.epoch());
    // The stamp publishes nothing else; `wait` below synchronises with
    // the resolution itself.
    ticket.on_resolve(move |_| stamp.store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed));
    Stamped {
        ticket,
        resolved_ns,
    }
}

/// Waits for the last ticket first (on a one-worker shard the others are
/// then resolved too), then reads every outcome and its stamp.
fn collect_tickets(burst: Vec<Stamped>, clock: &Recorder) -> Vec<(Seen, u64)> {
    if let Some(last) = burst.last() {
        last.ticket.wait();
    }
    burst
        .into_iter()
        .map(|s| {
            let outcome = seen(&s.ticket.wait());
            let at = match s.resolved_ns.load(Ordering::Relaxed) {
                0 => clock.now_ns(),
                ns => ns,
            };
            (outcome, at)
        })
        .collect()
}

impl FrontDoor for Session<'_> {
    type Pending = Stamped;
    fn submit(&mut self, program: Program, clock: &Recorder) -> Submitted<Stamped> {
        Submitted::Pending(stamped(Session::submit(self, program), clock))
    }
    fn collect(&mut self, burst: Vec<Stamped>, clock: &Recorder) -> Vec<(Seen, u64)> {
        collect_tickets(burst, clock)
    }
}

impl FrontDoor for NetClient {
    type Pending = ();
    fn submit(&mut self, program: Program, _: &Recorder) -> Submitted<()> {
        match NetClient::submit(self, &program) {
            Ok(_) => Submitted::Pending(()),
            Err(_) => Submitted::Resolved(Seen::Failed),
        }
    }
    fn collect(&mut self, burst: Vec<()>, clock: &Recorder) -> Vec<(Seen, u64)> {
        burst
            .into_iter()
            .map(|()| {
                let outcome = match self.next_outcome() {
                    Ok((_, _, WireOutcome::Committed { .. })) => Seen::Committed,
                    Ok((
                        _,
                        _,
                        WireOutcome::GuardAborted { .. } | WireOutcome::RolledBack { .. },
                    )) => Seen::Aborted,
                    _ => Seen::Failed,
                };
                (outcome, clock.now_ns())
            })
            .collect()
    }
}

/// A routed session on a sharded store.
pub struct RoutedSession<'a> {
    /// The store.
    pub store: &'a ShardedStore,
    /// The provenance id from [`ShardedStore::session`].
    pub session: u64,
}

impl FrontDoor for RoutedSession<'_> {
    type Pending = Stamped;
    fn submit(&mut self, program: Program, clock: &Recorder) -> Submitted<Stamped> {
        match self.store.submit(self.session, program) {
            Ok(Routed::Single { ticket, .. }) => Submitted::Pending(stamped(ticket, clock)),
            Ok(Routed::Cross(CrossOutcome::Committed { .. })) => {
                Submitted::Resolved(Seen::Committed)
            }
            Ok(Routed::Cross(CrossOutcome::Aborted { .. })) => Submitted::Resolved(Seen::Aborted),
            Err(_) => Submitted::Resolved(Seen::Failed),
        }
    }
    fn collect(&mut self, burst: Vec<Stamped>, clock: &Recorder) -> Vec<(Seen, u64)> {
        collect_tickets(burst, clock)
    }
}

/// One equal slice of a measured phase, by transactions submitted.
/// Per-slice figures let a run report medians over its slices, which a
/// burst of hypervisor steal in a few slices does not move.
#[derive(Clone, Debug, Default)]
pub struct Slice {
    /// Process CPU seconds spent in the slice.
    pub cpu_s: f64,
    /// Machine steal seconds during the slice.
    pub steal_s: f64,
    /// Commits among the slice's transactions.
    pub committed: u64,
    /// Submit → outcome, µs, of the slice's transactions.
    pub ack_us: Vec<f64>,
}

/// What one closed-loop phase observed.
#[derive(Debug, Default)]
pub struct Drive {
    /// Transactions submitted.
    pub attempted: u64,
    /// Outcomes received, by kind.
    pub committed: u64,
    /// Guard aborts.
    pub aborted: u64,
    /// Refusals and failures.
    pub failed: u64,
    /// Submit → outcome, µs, every transaction.
    pub ack_us: Vec<f64>,
    /// The phase cut into equal slices by transactions submitted.
    pub slices: Vec<Slice>,
    /// Submit → outcome, µs, transactions that resolved inline.
    pub inline_ack_us: Vec<f64>,
    /// Wall time from the first submit to the last outcome.
    pub wall: Duration,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Machine steal seconds over the same interval.
    pub steal_s: f64,
    /// Client spans (`session.submit`, `session.wait` under a `tx` root),
    /// when the phase was traced.
    pub spans: Option<LayerTotals>,
}

impl Drive {
    /// Outcomes received.
    pub fn resolved(&self) -> u64 {
        self.committed + self.aborted + self.failed
    }

    fn record(&mut self, seen: Seen, ack_us: f64, slice: usize) {
        match seen {
            Seen::Committed => {
                self.committed += 1;
                self.slices[slice].committed += 1;
            }
            Seen::Aborted => self.aborted += 1,
            Seen::Failed => self.failed += 1,
        }
        self.ack_us.push(ack_us);
        self.slices[slice].ack_us.push(ack_us);
    }
}

/// Drives `door` with `total` programs drawn from `gen`, in back-to-back
/// bursts of `window`. Outcomes and CPU are also tallied per each of
/// `slices` equal slices of the bursts. With `trace`, records each
/// transaction's client spans.
pub fn closed_loop<D: FrontDoor>(
    door: &mut D,
    gen: &mut TxGen,
    window: usize,
    total: u64,
    slices: usize,
    trace: bool,
) -> Drive {
    let clock = Recorder::new();
    let mut out = Drive {
        spans: trace.then(|| LayerTotals::with_sample(1_000)),
        slices: vec![Slice::default(); slices],
        ..Drive::default()
    };
    let slice_of =
        |submitted: u64| ((submitted * slices as u64 / total.max(1)) as usize).min(slices - 1);
    let (cpu0, steal0) = (crate::sys::process_cpu_s(), crate::sys::steal_s());
    let (mut slice_cpu0, mut slice_steal0, mut current) = (cpu0, steal0, 0);
    let started = Instant::now();
    // (submit start, submit end) per pending submission of the burst.
    let mut times = Vec::with_capacity(window);
    let mut pending = Vec::with_capacity(window);
    while out.attempted < total {
        let at = slice_of(out.attempted);
        if at > current {
            let (cpu, steal) = (crate::sys::process_cpu_s(), crate::sys::steal_s());
            out.slices[current].cpu_s = cpu - slice_cpu0;
            out.slices[current].steal_s = steal - slice_steal0;
            (slice_cpu0, slice_steal0, current) = (cpu, steal, at);
        }
        for _ in 0..window.min((total - out.attempted) as usize) {
            let program = gen.next_program();
            out.attempted += 1;
            let submit_start = clock.now_ns();
            let submitted = door.submit(program, &clock);
            let submit_end = clock.now_ns();
            match submitted {
                Submitted::Pending(p) => {
                    pending.push(p);
                    times.push((submit_start, submit_end));
                }
                Submitted::Resolved(result) => {
                    let us = (submit_end - submit_start) as f64 / 1e3;
                    out.record(result, us, current);
                    out.inline_ack_us.push(us);
                    if let Some(spans) = &mut out.spans {
                        spans.add(&client_tree((submit_start, submit_end), submit_end, None));
                    }
                }
            }
        }
        let wait_start = clock.now_ns();
        let results = door.collect(std::mem::take(&mut pending), &clock);
        let wait_end = clock.now_ns();
        for ((result, at), (submit_start, submit_end)) in results.into_iter().zip(times.drain(..)) {
            // A stamp can precede the submit call's return on a fast path.
            let at = at.max(submit_end);
            out.record(result, (at - submit_start) as f64 / 1e3, current);
            if let Some(spans) = &mut out.spans {
                let wait = (wait_start, wait_end.min(at).max(wait_start));
                spans.add(&client_tree((submit_start, submit_end), at, Some(wait)));
            }
        }
    }
    out.wall = started.elapsed();
    let (cpu, steal) = (crate::sys::process_cpu_s(), crate::sys::steal_s());
    out.slices[current].cpu_s = cpu - slice_cpu0;
    out.slices[current].steal_s = steal - slice_steal0;
    out.cpu_s = cpu - cpu0;
    out.steal_s = steal - steal0;
    out
}

/// A transaction's client span tree: the `tx` root from submit to
/// outcome, its `session.submit` call, and the part of the burst's
/// collect call that it waited through.
fn client_tree(submit: (u64, u64), end: u64, wait: Option<(u64, u64)>) -> Vec<Span> {
    let mut tree = vec![
        Span {
            name: "tx",
            parent: None,
            start_ns: submit.0,
            end_ns: end,
        },
        Span {
            name: "session.submit",
            parent: Some(0),
            start_ns: submit.0,
            end_ns: submit.1,
        },
    ];
    if let Some((start_ns, end_ns)) = wait {
        tree.push(Span {
            name: "session.wait",
            parent: Some(0),
            start_ns,
            end_ns,
        });
    }
    tree
}
