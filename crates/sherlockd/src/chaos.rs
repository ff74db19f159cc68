//! Deterministic fault schedules for torturing the ingest path.
//!
//! The telemetry layer's `FaultPlan` corrupts *datasets*; this module
//! corrupts *streams* — the transport-shaped failures a daemon meets that a
//! batch tool never does: lines torn mid-byte by a dying client, tenants
//! flooding rows, connections dropping mid-stream, readers that stall, and
//! clocks that jump backwards. Schedules are explicit (`at` row positions,
//! no RNG), so a failing chaos run replays bit-identically.
//!
//! [`apply_schedule`] compiles a clean line stream plus a fault list into a
//! sequence of [`StreamEvent`]s that a driver (the chaos tests, the
//! `table5d_daemon_overload` bench, or a manual `nc` session) plays against
//! the daemon.

// sherlock-lint: allow-file(unbounded-channel): the event vector compiled by
// apply_schedule is bounded by lines.len() + faults.len(), both finite test
// inputs — no socket feeds these loops.

/// One transport-level fault, anchored to a 0-based row position in the
/// clean stream.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestFault {
    /// The row at `at` is torn: its first `keep_bytes` bytes are sent with
    /// no newline, then the connection behaves as if the client died and
    /// reconnected (the remainder is lost).
    TornLine {
        /// Row position of the torn line.
        at: usize,
        /// Bytes of the row that make it onto the wire.
        keep_bytes: usize,
    },
    /// `extra` duplicate copies of the row at `at` are injected — a tenant
    /// flooding the daemon faster than it can diagnose.
    Flood {
        /// Row position to duplicate.
        at: usize,
        /// Copies injected after the original.
        extra: usize,
    },
    /// The stream ends abruptly after the row at `at` (mid-stream
    /// disconnect); later rows never arrive.
    Disconnect {
        /// Last row position delivered.
        at: usize,
    },
    /// The client stalls for `ms` before sending the row at `at` — a reader
    /// that stops draining, exercising read deadlines and idle timeouts.
    StallReader {
        /// Row position delayed.
        at: usize,
        /// Stall length in milliseconds.
        ms: u64,
    },
    /// The row at `at` has its timestamp (first CSV field) rewritten to
    /// `to` — clock skew / backwards time.
    ClockSkew {
        /// Row position rewritten.
        at: usize,
        /// Replacement timestamp.
        to: f64,
    },
    /// A line of non-CSV garbage is injected before the row at `at`.
    Garbage {
        /// Row position the garbage precedes.
        at: usize,
        /// The garbage payload.
        payload: String,
    },
}

/// One wire-level event produced by [`apply_schedule`].
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// Send these exact bytes (a `\n`-terminated line unless torn).
    Send(String),
    /// Sleep this many milliseconds before the next event.
    Pause(u64),
    /// Close the connection without warning.
    Disconnect,
}

/// Compile clean `lines` (without trailing newlines) and a fault schedule
/// into the wire events a chaos driver should play. Faults whose `at` is
/// past the end of the stream are ignored; multiple faults may anchor to
/// the same row (they apply in schedule order).
pub fn apply_schedule(lines: &[String], faults: &[IngestFault]) -> Vec<StreamEvent> {
    let mut events = Vec::with_capacity(lines.len() + faults.len());
    for (i, line) in lines.iter().enumerate() {
        let mut line = line.clone();
        let mut torn = None;
        let mut flood = 0usize;
        let mut disconnect = false;
        for fault in faults {
            match fault {
                IngestFault::TornLine { at, keep_bytes } if *at == i => {
                    torn = Some(*keep_bytes);
                }
                IngestFault::Flood { at, extra } if *at == i => flood += extra,
                IngestFault::Disconnect { at } if *at == i => disconnect = true,
                IngestFault::StallReader { at, ms } if *at == i => {
                    events.push(StreamEvent::Pause(*ms));
                }
                IngestFault::ClockSkew { at, to } if *at == i => {
                    line = skew_timestamp(&line, *to);
                }
                IngestFault::Garbage { at, payload } if *at == i => {
                    events.push(StreamEvent::Send(format!("{payload}\n")));
                }
                _ => {}
            }
        }
        match torn {
            Some(keep) => {
                let keep = keep.min(line.len());
                // Tear on a char boundary so the driver can still treat the
                // event as a string; the daemon sees a prefix with no '\n'.
                let mut end = keep;
                while end > 0 && !line.is_char_boundary(end) {
                    end -= 1;
                }
                #[allow(
                    clippy::string_slice,
                    reason = "end <= line.len() and sits on a char boundary"
                )]
                events.push(StreamEvent::Send(line[..end].to_string()));
                events.push(StreamEvent::Disconnect);
                return events;
            }
            None => {
                events.push(StreamEvent::Send(format!("{line}\n")));
                for _ in 0..flood {
                    events.push(StreamEvent::Send(format!("{line}\n")));
                }
            }
        }
        if disconnect {
            events.push(StreamEvent::Disconnect);
            return events;
        }
    }
    events
}

/// Rewrite the first CSV field (the timestamp) of `line` to `to`.
fn skew_timestamp(line: &str, to: f64) -> String {
    match line.split_once(',') {
        Some((_, rest)) => format!("{to},{rest}"),
        None => line.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{i},1.0")).collect()
    }

    #[test]
    fn clean_schedule_is_identity() {
        let events = apply_schedule(&lines(3), &[]);
        assert_eq!(
            events,
            vec![
                StreamEvent::Send("0,1.0\n".into()),
                StreamEvent::Send("1,1.0\n".into()),
                StreamEvent::Send("2,1.0\n".into()),
            ]
        );
    }

    #[test]
    fn torn_line_truncates_and_disconnects() {
        let events = apply_schedule(&lines(3), &[IngestFault::TornLine { at: 1, keep_bytes: 3 }]);
        assert_eq!(events[1], StreamEvent::Send("1,1".into()));
        assert_eq!(events[2], StreamEvent::Disconnect);
        assert_eq!(events.len(), 3, "rows after the tear are lost");
    }

    #[test]
    fn flood_duplicates_and_skew_rewrites() {
        let events = apply_schedule(
            &lines(2),
            &[IngestFault::Flood { at: 0, extra: 2 }, IngestFault::ClockSkew { at: 1, to: -5.0 }],
        );
        assert_eq!(events.iter().filter(|e| **e == StreamEvent::Send("0,1.0\n".into())).count(), 3);
        assert_eq!(events.last(), Some(&StreamEvent::Send("-5,1.0\n".into())));
    }

    #[test]
    fn stall_garbage_disconnect_compose() {
        let events = apply_schedule(
            &lines(4),
            &[
                IngestFault::StallReader { at: 1, ms: 50 },
                IngestFault::Garbage { at: 1, payload: "\u{1}\u{2}%%".into() },
                IngestFault::Disconnect { at: 2 },
            ],
        );
        assert!(events.contains(&StreamEvent::Pause(50)));
        assert!(events.contains(&StreamEvent::Send("\u{1}\u{2}%%\n".into())));
        assert_eq!(events.last(), Some(&StreamEvent::Disconnect));
        // Row 3 never ships.
        assert!(!events.contains(&StreamEvent::Send("3,1.0\n".into())));
    }
}
