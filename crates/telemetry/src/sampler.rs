//! Windowed metrics sampler: fixed simulated-time buckets accumulating
//! per-flow goodput, queue occupancy peaks, calendar resizes, suspicion-table
//! sizes and fluid allocations.
//!
//! Windows are emitted lazily: when the first observation at or past a
//! window's end arrives, the closed window flushes as a
//! [`TelemetryEvent::Window`] stamped with the window's *end* time (so the
//! stream stays monotone).  Windows with no observations are
//! skipped entirely — consumers treat a missing index as all-zero.

use crate::event::{TelemetryEvent, WindowStats};

/// Accumulator state of the current (not yet closed) window.
#[derive(Debug, Default, Clone)]
struct WindowAcc {
    /// The window's payload so far (`cal_resizes` is filled in at close).
    stats: WindowStats,
    /// Calendar-resize total at the window's start (differenced at flush).
    cal_base: u64,
    /// Latest cumulative calendar-resize observation.
    cal_last: u64,
    /// Whether anything was observed this window.
    dirty: bool,
}

/// The sampler: bucket width plus the open window's accumulators.
#[derive(Debug, Clone)]
pub struct Sampler {
    window_secs: f64,
    /// Index of the open window (`None` until the first observation).
    cur: Option<u64>,
    acc: WindowAcc,
}

impl Sampler {
    /// A sampler with `window_secs`-wide buckets (must be positive/finite).
    pub fn new(window_secs: f64) -> Self {
        assert!(
            window_secs.is_finite() && window_secs > 0.0,
            "sampler window must be positive and finite"
        );
        Sampler {
            window_secs,
            cur: None,
            acc: WindowAcc::default(),
        }
    }

    /// The bucket width, seconds.
    pub fn window_secs(&self) -> f64 {
        self.window_secs
    }

    fn index_of(&self, t: f64) -> u64 {
        let idx = (t / self.window_secs).floor();
        if idx <= 0.0 {
            0
        } else {
            idx as u64
        }
    }

    /// Advance to time `t`, flushing the open window into `out` if `t`
    /// falls past its end.  Every observation (and every event emission)
    /// rolls first, so window lines interleave correctly.
    pub fn roll_to(&mut self, t: f64, out: &mut Vec<TelemetryEvent>) {
        let idx = self.index_of(t);
        match self.cur {
            None => self.cur = Some(idx),
            Some(cur) if idx > cur => {
                self.close(cur, out);
                self.cur = Some(idx);
            }
            Some(_) => {}
        }
    }

    fn close(&mut self, idx: u64, out: &mut Vec<TelemetryEvent>) {
        let acc = std::mem::take(&mut self.acc);
        // Carry the resize baseline into the next window.
        self.acc.cal_base = acc.cal_last.max(acc.cal_base);
        self.acc.cal_last = self.acc.cal_base;
        if !acc.dirty {
            return;
        }
        let mut stats = Box::new(acc.stats);
        stats.cal_resizes = acc.cal_last.saturating_sub(acc.cal_base);
        out.push(TelemetryEvent::Window {
            t: (idx + 1) as f64 * self.window_secs,
            window: idx,
            stats,
        });
    }

    /// Record delivered in-order bytes for `conn` in the open window.
    pub fn note_goodput(&mut self, conn: u32, bytes: u64) {
        *self.acc.stats.goodput.entry(conn).or_insert(0) += bytes;
        self.acc.dirty = true;
    }

    /// Record a MAC queue occupancy observation.
    pub fn note_queue_len(&mut self, len: u32) {
        self.acc.stats.queue_peak = self.acc.stats.queue_peak.max(len);
        self.acc.dirty = true;
    }

    /// Record a suspicion-table size observation.
    pub fn note_suspicion_size(&mut self, size: u32) {
        self.acc.stats.suspicion_peak = self.acc.stats.suspicion_peak.max(size);
        self.acc.dirty = true;
    }

    /// Record one region's fluid demand/allocation rates (bytes/s) from a
    /// fluid epoch.  Later epochs in the same window overwrite earlier ones:
    /// the window reports the last-known allocation, not a sum of rates.
    pub fn note_fluid(&mut self, region: u32, demand: u64, alloc: u64) {
        self.acc.stats.fluid_demand.insert(region, demand);
        self.acc.stats.fluid_alloc.insert(region, alloc);
        self.acc.dirty = true;
    }

    /// Record the cumulative calendar-resize counter (the per-window line
    /// reports the delta against the previous window's last observation).
    pub fn note_calendar_resizes(&mut self, total: u64) {
        self.acc.cal_last = self.acc.cal_last.max(total);
        self.acc.dirty = true;
    }

    /// Flush the trailing open window at end of run.
    pub fn flush(&mut self, out: &mut Vec<TelemetryEvent>) {
        if let Some(cur) = self.cur.take() {
            self.close(cur, out);
        }
    }
}
