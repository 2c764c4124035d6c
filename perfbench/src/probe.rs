//! Layer probes the benchmark owns: thin wrappers that time calls into the
//! crates' public traits from the outside. A probe built with
//! [`Meter::off`] forwards without reading the clock, so the untraced run
//! executes the same code path minus the timing.

use rssd_core::{RemoteError, RemoteTarget, SegmentEnvelope, StoreAck};
use rssd_flash::SimClock;
use rssd_ssd::{BlockDevice, CommandResult, DeviceError, IoCommand};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Calls made into one layer and the host time they took. Shared through
/// an `Rc`, so the benchmark can read it after the probe moved into a
/// controller or a device.
#[derive(Clone, Debug, Default)]
pub struct Meter(Option<Rc<Cell<(u64, u64)>>>);

impl Meter {
    /// A meter that records nothing.
    pub fn off() -> Self {
        Meter(None)
    }

    /// A recording meter.
    pub fn on() -> Self {
        Meter(Some(Rc::new(Cell::new((0, 0)))))
    }

    /// Runs `f`, charging one call and its host time when recording.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let Some(cell) = &self.0 else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        let (calls, ns) = cell.get();
        cell.set((calls + 1, ns + start.elapsed().as_nanos() as u64));
        out
    }

    /// Calls recorded so far.
    pub fn calls(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get().0)
    }

    /// Host milliseconds recorded so far.
    pub fn ms(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |c| c.get().1 as f64 / 1e6)
    }
}

/// A [`BlockDevice`] that times every call into the device it wraps. The
/// trait's default `execute` and `submit_batch` route through the timed
/// methods.
#[derive(Debug)]
pub struct TimedDevice<D> {
    inner: D,
    meter: Meter,
}

impl<D: BlockDevice> TimedDevice<D> {
    pub fn new(inner: D, meter: Meter) -> Self {
        TimedDevice { inner, meter }
    }

    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }
}

impl<D: BlockDevice> BlockDevice for TimedDevice<D> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn logical_pages(&self) -> u64 {
        self.inner.logical_pages()
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }

    fn write_page(&mut self, lpa: u64, data: Vec<u8>) -> Result<(), DeviceError> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.write_page(lpa, data))
    }

    fn read_page(&mut self, lpa: u64) -> Result<Vec<u8>, DeviceError> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.read_page(lpa))
    }

    fn trim_page(&mut self, lpa: u64) -> Result<(), DeviceError> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.trim_page(lpa))
    }

    fn flush(&mut self) -> Result<(), DeviceError> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.flush())
    }

    fn submit_batch_timed(&mut self, commands: Vec<IoCommand>) -> Vec<(CommandResult, u64)> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.submit_batch_timed(commands))
    }

    fn recover_page(&mut self, lpa: u64) -> Option<Vec<u8>> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.recover_page(lpa))
    }
}

/// A [`RemoteTarget`] that times stores and fetches into the target it
/// wraps.
#[derive(Debug)]
pub struct TimedRemote<R> {
    inner: R,
    stores: Meter,
    fetches: Meter,
}

impl<R: RemoteTarget> TimedRemote<R> {
    pub fn new(inner: R, stores: Meter, fetches: Meter) -> Self {
        TimedRemote {
            inner,
            stores,
            fetches,
        }
    }

    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl<R: RemoteTarget> RemoteTarget for TimedRemote<R> {
    fn store_segment(
        &mut self,
        envelope: SegmentEnvelope,
        now_ns: u64,
    ) -> Result<StoreAck, RemoteError> {
        let inner = &mut self.inner;
        self.stores.time(|| inner.store_segment(envelope, now_ns))
    }

    fn fetch_segment(&mut self, segment_seq: u64) -> Result<SegmentEnvelope, RemoteError> {
        let inner = &mut self.inner;
        self.fetches.time(|| inner.fetch_segment(segment_seq))
    }

    fn stored_segments(&self) -> Vec<u64> {
        self.inner.stored_segments()
    }

    fn set_trace_sink(&mut self, sink: rssd_obs::SinkHandle) {
        self.inner.set_trace_sink(sink);
    }
}

/// Host time of one call to `f`, in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}
