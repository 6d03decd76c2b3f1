//! Timing wrappers around the two layers the simulator's public API lets
//! a caller substitute: each node's [`SupplierPredictor`] (passed in via
//! `Simulator::with_predictors`) and each core's [`AccessStream`].
//!
//! Every call is timed with [`Instant`] and added to a shared
//! [`LayerClock`]. The wrappers forward every call unchanged, so a traced
//! run must produce exactly the statistics of an untraced one; the
//! benchmark checks that through the cells' stats digest.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use flexsnoop_engine::{SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_predictor::{PredictorCounters, SupplierPredictor};
use flexsnoop_workload::{AccessStream, LineAddr, MemAccess};

/// Busy time and call counts of the wrapped layers, shared by every
/// wrapper of one traced pass.
#[derive(Debug, Default)]
pub struct LayerClock {
    predictor_ns: AtomicU64,
    predictor_calls: AtomicU64,
    next_ns: AtomicU64,
    next_calls: AtomicU64,
}

/// A snapshot of a [`LayerClock`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    /// Seconds inside predictor calls.
    pub predictor_s: f64,
    /// Predictor calls (`predict`, `supplier_gained`, `supplier_lost`,
    /// `feedback`).
    pub predictor_calls: u64,
    /// Seconds inside `AccessStream::next_access`.
    pub next_s: f64,
    /// `AccessStream::next_access` calls.
    pub next_calls: u64,
}

impl LayerClock {
    /// The accumulated times and counts.
    pub fn read(&self) -> LayerTimes {
        LayerTimes {
            predictor_s: self.predictor_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            predictor_calls: self.predictor_calls.load(Ordering::Relaxed),
            next_s: self.next_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            next_calls: self.next_calls.load(Ordering::Relaxed),
        }
    }

    fn predictor<T>(&self, f: impl FnOnce() -> T) -> T {
        timed(&self.predictor_ns, &self.predictor_calls, f)
    }
}

/// Runs `f`, adding its duration to `ns` and one call to `calls`. The
/// counters publish no other data, so relaxed ordering suffices.
fn timed<T>(ns: &AtomicU64, calls: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    calls.fetch_add(1, Ordering::Relaxed);
    out
}

/// A predictor that times every call into the wrapped one.
#[derive(Debug)]
pub struct TimedPredictor {
    inner: Box<dyn SupplierPredictor + Send>,
    clock: Arc<LayerClock>,
}

impl TimedPredictor {
    /// Wraps `inner`, charging its calls to `clock`.
    pub fn new(inner: Box<dyn SupplierPredictor + Send>, clock: Arc<LayerClock>) -> Self {
        Self { inner, clock }
    }
}

impl Snapshot for TimedPredictor {
    fn save_into(&self, w: &mut SnapWriter) {
        self.inner.save_into(w);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_from(r)
    }
}

impl SupplierPredictor for TimedPredictor {
    fn predict(&mut self, line: LineAddr) -> bool {
        let inner = &mut self.inner;
        self.clock.predictor(|| inner.predict(line))
    }

    fn supplier_gained(&mut self, line: LineAddr) -> Option<LineAddr> {
        let inner = &mut self.inner;
        self.clock.predictor(|| inner.supplier_gained(line))
    }

    fn supplier_lost(&mut self, line: LineAddr) {
        let inner = &mut self.inner;
        self.clock.predictor(|| inner.supplier_lost(line))
    }

    fn feedback(&mut self, line: LineAddr, was_supplier: bool) {
        let inner = &mut self.inner;
        self.clock.predictor(|| inner.feedback(line, was_supplier))
    }

    fn counters(&self) -> PredictorCounters {
        self.inner.counters()
    }

    fn storage_bits(&self) -> usize {
        self.inner.storage_bits()
    }

    fn injected_faults(&self) -> u64 {
        self.inner.injected_faults()
    }
}

/// An access stream that times every `next_access` of the wrapped one.
/// Generic rather than boxed, so wrapping adds no allocation per core.
#[derive(Debug)]
pub struct TimedStream<S> {
    inner: S,
    clock: Arc<LayerClock>,
}

impl<S> TimedStream<S> {
    /// Wraps `inner`, charging its calls to `clock`.
    pub fn new(inner: S, clock: Arc<LayerClock>) -> Self {
        Self { inner, clock }
    }
}

impl<S: Snapshot> Snapshot for TimedStream<S> {
    fn save_into(&self, w: &mut SnapWriter) {
        self.inner.save_into(w);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_from(r)
    }
}

impl<S: AccessStream> AccessStream for TimedStream<S> {
    fn next_access(&mut self) -> Option<MemAccess> {
        let inner = &mut self.inner;
        timed(&self.clock.next_ns, &self.clock.next_calls, || {
            inner.next_access()
        })
    }
}
