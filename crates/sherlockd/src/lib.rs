#![warn(missing_docs)]
// A daemon must degrade, never panic: clippy's panic lints are denied in
// library code (tests may panic freely).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

//! `sherlockd`: an overload-safe streaming diagnosis daemon.
//!
//! The batch tools diagnose an incident after the fact; `sherlockd` watches
//! it happen. Clients stream dbseer-style CSV telemetry over a line
//! protocol (TCP or stdin), the daemon keeps a bounded sliding window per
//! tenant, runs the paper's §7 anomaly detector as rows arrive, and fires
//! the full explanation pipeline automatically when a fresh anomalous
//! region appears — all under the robustness contract the rest of the
//! workspace established: bounded memory, explicit load shedding,
//! per-tenant panic quarantine, cooperative deadlines, and a crash-safe
//! model store saved exactly once on drain.
//!
//! Layering:
//!
//! * [`protocol`] — line commands in, structured `key=value` lines out;
//! * [`ring`] — bounded per-tenant history with absolute sequence numbers;
//! * [`daemon`] — tenants, the bounded diagnosis queue, shedding,
//!   quarantine, drain;
//! * [`net`] — TCP/stdin transports with read deadlines and bounded line
//!   buffers;
//! * [`chaos`] — deterministic ingest fault schedules for the tests and
//!   the overload bench.

pub mod chaos;
pub mod daemon;
pub mod net;
pub mod protocol;
pub mod ring;

pub use chaos::{apply_schedule, IngestFault, StreamEvent};
pub use daemon::{
    save_with_backoff, Daemon, DaemonConfig, DaemonStats, DrainReport, LineOutcome, Session, Sink,
    SAVE_ATTEMPTS,
};
pub use net::{serve, serve_session, writer_sink, LineReader, NetConfig, ReadEvent};
pub use protocol::{parse_command, Command, Response};
pub use ring::{RingRow, RingSnapshot, TenantRing};
