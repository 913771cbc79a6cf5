//! The structured event stream: what happened on the fabric, when.
//!
//! Every producer (the cycle engine, the epoch runner, the WCET
//! annotator) speaks the same [`Event`] vocabulary; every consumer (the
//! [`crate::Counters`] registry, the Gantt trace, the Chrome-trace and
//! metrics exporters) folds over the same stream. Timestamps are global
//! simulator **cycles**; exporters convert to nanoseconds with the
//! fabric [`cgra_fabric::CostModel`] so one stream serves every time
//! domain.
//!
//! Two granularities coexist, by design:
//!
//! * **Summary events** ([`Event::EpochBegin`], [`Event::TileEpoch`],
//!   [`Event::Reconfig`], [`Event::EpochEnd`]) are emitted by the epoch
//!   runner unconditionally — a handful per epoch, cheap enough to be
//!   always on. The simulator's `Trace`/Gantt view is rebuilt from
//!   exactly these.
//! * **Fine events** ([`Event::Segment`], [`Event::LinkTransfer`]) are
//!   emitted by the cycle engine *only when a sink is attached* — the
//!   zero-cost-when-disabled discipline: with no sink installed the
//!   engine pays one branch per cycle and nothing else.

use cgra_fabric::cost::TransitionBreakdown;
use cgra_fabric::TileId;
use std::cell::RefCell;
use std::rc::Rc;

/// What a tile was doing during a [`Event::Segment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegState {
    /// Executing instructions.
    Busy,
    /// Stalled for partial reconfiguration (its region is being
    /// rewritten through the ICAP).
    Stall,
}

impl SegState {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            SegState::Busy => "compute",
            SegState::Stall => "reconfig",
        }
    }
}

/// One structured telemetry event. All `at`/`start`/`end` fields are
/// global simulator cycles.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An epoch started (before its reconfiguration is applied).
    EpochBegin {
        /// Zero-based epoch index in execution order.
        epoch: usize,
        /// Epoch name.
        name: String,
        /// Cycle the epoch started at.
        at: u64,
    },
    /// The reconfiguration transition into an epoch: the exact Eq. 1
    /// `tau_ij` decomposition plus the stall it imposes.
    Reconfig {
        /// Epoch being switched into.
        epoch: usize,
        /// Cycle the switch started at.
        at: u64,
        /// Per-kind ICAP decomposition (data words, instruction words,
        /// links) from `cgra_fabric::cost`.
        breakdown: TransitionBreakdown,
        /// Switch time in ns under the run's cost model.
        reconfig_ns: f64,
        /// Cycles the rewritten tiles stall.
        stall_cycles: u64,
        /// Tiles whose memories are rewritten (they stall; everyone
        /// else may keep computing — the paper's overlap).
        stalled_tiles: Vec<TileId>,
    },
    /// A maximal run of cycles one tile spent in one state
    /// (engine-emitted, coalesced; idle gaps are implicit).
    Segment {
        /// The tile.
        tile: TileId,
        /// What it was doing.
        state: SegState,
        /// First cycle of the run (inclusive).
        start: u64,
        /// One past the last cycle of the run (exclusive).
        end: u64,
    },
    /// Words moved over an inter-tile link (engine-emitted as the write
    /// lands in the neighbour's data memory).
    LinkTransfer {
        /// Sending tile.
        from: TileId,
        /// Receiving tile.
        to: TileId,
        /// Cycle the words landed.
        at: u64,
        /// Words moved.
        words: u64,
    },
    /// Per-tile activity summary for one epoch (runner-emitted).
    TileEpoch {
        /// The epoch.
        epoch: usize,
        /// The tile.
        tile: TileId,
        /// Cycles spent executing during the epoch.
        busy: u64,
        /// Cycles stalled for reconfiguration during the epoch.
        stalled: u64,
        /// Remote words the tile sent during the epoch.
        words_sent: u64,
        /// Remote words that landed in the tile during the epoch.
        words_received: u64,
    },
    /// An epoch ran to quiescence.
    EpochEnd {
        /// The epoch.
        epoch: usize,
        /// Epoch name (repeated so B/E pairs are self-contained).
        name: String,
        /// Cycle the epoch ended at.
        at: u64,
    },
    /// A hoisted reconfiguration payload finished streaming through the
    /// background port into a tile's shadow configuration plane
    /// (runner-emitted at the end of the payload's last donor epoch).
    ShadowPrefetch {
        /// Donor epoch whose idle windows absorbed the tail of the
        /// streaming (runner-relative, like [`Event::EpochBegin`]).
        epoch: usize,
        /// Cycle the payload was fully staged.
        at: u64,
        /// The tile whose shadow plane holds the payload.
        tile: TileId,
        /// Epoch the payload will commit into (runner-relative: the
        /// `epoch` of the matching [`Event::ShadowCommit`]).
        target: usize,
        /// Payload ICAP time hidden inside idle windows, ns.
        payload_ns: f64,
        /// Payloads now pending in the tile's shadow plane.
        pending: usize,
    },
    /// A staged shadow payload committed at its target epoch's switch —
    /// a configuration-plane swap, zero foreground ICAP time.
    ShadowCommit {
        /// Epoch being switched into.
        epoch: usize,
        /// Cycle of the commit (the switch start).
        at: u64,
        /// The tile whose planes swapped.
        tile: TileId,
        /// Foreground ICAP time the commit avoided, ns.
        payload_ns: f64,
    },
    /// Per-tile cycle attribution for one epoch (runner-emitted right
    /// after the matching [`Event::TileEpoch`]): the epoch span split
    /// across the closed [`crate::attrib::Category`] set. The counts
    /// partition the span exactly — `cycles.iter().sum() == span` —
    /// which is the conservation invariant
    /// [`crate::conservation_violations`] enforces, cross-checked
    /// against a recomputation from the activity summary so fabricated
    /// attributions are rejected.
    TileAttrib {
        /// The epoch.
        epoch: usize,
        /// The tile.
        tile: TileId,
        /// Cycles per category, indexed by
        /// `crate::attrib::Category as usize`.
        cycles: [u64; crate::attrib::CATEGORIES],
    },
    /// Static WCET annotation for one epoch, from the `cgra-verify`
    /// timing engine (attached after the fact by drivers; the bounds
    /// travel with the stream so exporters can draw them next to the
    /// observed timeline).
    WcetBound {
        /// The epoch.
        epoch: usize,
        /// Epoch name.
        name: String,
        /// Sound lower bound on the epoch's total time, ns.
        best_ns: f64,
        /// Sound upper bound, ns; `None` when statically unbounded.
        worst_ns: Option<f64>,
    },
}

/// A consumer of the event stream.
///
/// The simulator holds at most one `Box<dyn EventSink>`; when none is
/// attached, producers skip all fine-grained bookkeeping (one
/// `Option` check per cycle — the "zero cost when disabled" contract,
/// held to < 2% by the WCET-conformance timing gate).
pub trait EventSink: std::fmt::Debug {
    /// Receives one event. Must not panic; sinks that can fail should
    /// buffer the error and surface it out of band.
    fn record(&mut self, ev: &Event);
}

/// A sink that drops everything (useful to measure sink overhead).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _ev: &Event) {}
}

/// A sink that appends every event to a shared in-memory buffer.
///
/// `Recorder` is a cheap handle (`Rc` internally): clone one into the
/// simulator as the installed sink and keep the other to read the
/// stream back after the run.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    buf: Rc<RefCell<Vec<Event>>>,
}

impl Recorder {
    /// A recorder with an empty buffer.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Snapshot of every event recorded so far, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.buf.borrow().clone()
    }

    /// Moves every event recorded so far out, in arrival order, and
    /// leaves the buffer empty — [`Recorder::events`] without the copy,
    /// for a reader that is done with the run.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.buf.borrow_mut())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.borrow().is_empty()
    }

    /// Appends events produced out of band (e.g. [`Event::WcetBound`]
    /// annotations computed after the run).
    pub fn append(&self, events: impl IntoIterator<Item = Event>) {
        self.buf.borrow_mut().extend(events);
    }
}

impl EventSink for Recorder {
    fn record(&mut self, ev: &Event) {
        self.buf.borrow_mut().push(ev.clone());
    }
}

/// Per-tile run-length coalescer: turns a per-cycle state feed into
/// maximal [`Event::Segment`]s. The cycle engine owns one of these
/// while a sink is attached.
#[derive(Debug, Clone, Default)]
pub struct Coalescer {
    open: Vec<Option<(SegState, u64)>>,
}

impl Coalescer {
    /// A coalescer for `tiles` tiles with no open runs.
    pub fn new(tiles: usize) -> Coalescer {
        Coalescer {
            open: vec![None; tiles],
        }
    }

    /// Feeds tile `t`'s state for cycle `at` (`None` = idle). Emits a
    /// [`Event::Segment`] into `sink` whenever a run ends.
    pub fn observe(
        &mut self,
        t: TileId,
        state: Option<SegState>,
        at: u64,
        sink: &mut dyn EventSink,
    ) {
        if t >= self.open.len() {
            self.open.resize(t + 1, None);
        }
        match (self.open[t], state) {
            (Some((open, _)), Some(s)) if open == s => {}
            (prev, next) => {
                if let Some((open, start)) = prev {
                    sink.record(&Event::Segment {
                        tile: t,
                        state: open,
                        start,
                        end: at,
                    });
                }
                self.open[t] = next.map(|s| (s, at));
            }
        }
    }

    /// Closes every open run at cycle `at` (epoch end / end of run).
    pub fn flush(&mut self, at: u64, sink: &mut dyn EventSink) {
        for t in 0..self.open.len() {
            if let Some((state, start)) = self.open[t].take() {
                sink.record(&Event::Segment {
                    tile: t,
                    state,
                    start,
                    end: at.max(start),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_collects_in_order() {
        let rec = Recorder::new();
        let mut sink = rec.clone();
        assert!(rec.is_empty());
        sink.record(&Event::EpochBegin {
            epoch: 0,
            name: "a".into(),
            at: 0,
        });
        sink.record(&Event::EpochEnd {
            epoch: 0,
            name: "a".into(),
            at: 10,
        });
        assert_eq!(rec.len(), 2);
        let evs = rec.events();
        assert!(matches!(evs[0], Event::EpochBegin { at: 0, .. }));
        assert!(matches!(evs[1], Event::EpochEnd { at: 10, .. }));
    }

    #[test]
    fn coalescer_merges_runs_and_flushes() {
        let rec = Recorder::new();
        let mut sink = rec.clone();
        let mut co = Coalescer::new(1);
        // 3 cycles stall, 2 cycles busy, 1 idle, 1 busy, then flush.
        for c in 0..3 {
            co.observe(0, Some(SegState::Stall), c, &mut sink);
        }
        for c in 3..5 {
            co.observe(0, Some(SegState::Busy), c, &mut sink);
        }
        co.observe(0, None, 5, &mut sink);
        co.observe(0, Some(SegState::Busy), 6, &mut sink);
        co.flush(7, &mut sink);
        let evs = rec.events();
        assert_eq!(
            evs,
            vec![
                Event::Segment {
                    tile: 0,
                    state: SegState::Stall,
                    start: 0,
                    end: 3
                },
                Event::Segment {
                    tile: 0,
                    state: SegState::Busy,
                    start: 3,
                    end: 5
                },
                Event::Segment {
                    tile: 0,
                    state: SegState::Busy,
                    start: 6,
                    end: 7
                },
            ]
        );
    }

    #[test]
    fn coalescer_grows_on_demand() {
        let rec = Recorder::new();
        let mut sink = rec.clone();
        let mut co = Coalescer::new(0);
        co.observe(4, Some(SegState::Busy), 0, &mut sink);
        co.flush(2, &mut sink);
        assert_eq!(
            rec.events(),
            vec![Event::Segment {
                tile: 4,
                state: SegState::Busy,
                start: 0,
                end: 2
            }]
        );
    }
}
