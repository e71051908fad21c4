//! Outside-in probes: wrappers that time and count calls into a layer
//! through its public trait, without touching the layer's code. They are
//! installed only in traced runs; untraced runs call the layers bare.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use htpb_harness::Fs;
use htpb_noc::{InspectOutcome, NodeId, Packet, PacketInspector};
use htpb_trojan::TrojanFleet;

/// The [`Fs`] operations a [`CountingFs`] tallies, in report order.
pub const FS_OPS: [&str; 7] = [
    "read",
    "write_file",
    "append",
    "rename",
    "sync_dir",
    "create_dir_all",
    "remove_file",
];

/// An [`Fs`] that delegates to another and counts and times every call.
/// Counters are statistics only (`Relaxed`): they publish no other data.
#[derive(Debug)]
pub struct CountingFs {
    inner: Arc<dyn Fs>,
    calls: [AtomicU64; FS_OPS.len()],
    nanos: AtomicU64,
}

impl CountingFs {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Arc<dyn Fs>) -> CountingFs {
        CountingFs {
            inner,
            calls: Default::default(),
            nanos: AtomicU64::new(0),
        }
    }

    /// Calls of operation `FS_OPS[op]` so far.
    #[must_use]
    pub fn calls(&self, op: usize) -> u64 {
        self.calls[op].load(Ordering::Relaxed)
    }

    /// Seconds spent inside the wrapped filesystem, summed over threads.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    fn timed<T>(&self, op: usize, f: impl FnOnce(&dyn Fs) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self.inner.as_ref());
        let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.calls[op].fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl Fs for CountingFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed(0, |fs| fs.read(path))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed(1, |fs| fs.write_file(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed(2, |fs| fs.append(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(3, |fs| fs.rename(from, to))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed(4, |fs| fs.sync_dir(dir))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.timed(5, |fs| fs.create_dir_all(dir))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.timed(6, |fs| fs.remove_file(path))
    }
}

/// An inspector that carries a [`TrojanFleet`], so campaign code can arm
/// the fleet whichever probe wraps it.
pub trait FleetHost: PacketInspector {
    /// The wrapped fleet.
    fn fleet_mut(&mut self) -> &mut TrojanFleet;
}

impl FleetHost for TrojanFleet {
    fn fleet_mut(&mut self) -> &mut TrojanFleet {
        self
    }
}

/// Times and counts every call into the wrapped inspector.
#[derive(Debug, Clone)]
pub struct TimedInspector<I> {
    inner: I,
    /// Inspection calls (one per packet per router visited).
    pub calls: u64,
    /// Nanoseconds spent inside the wrapped inspector.
    pub nanos: u64,
    /// Calls whose outcome was a rewrite.
    pub tampered: u64,
}

impl<I> TimedInspector<I> {
    /// Wraps `inner`.
    pub fn new(inner: I) -> TimedInspector<I> {
        TimedInspector {
            inner,
            calls: 0,
            nanos: 0,
            tampered: 0,
        }
    }
}

impl<I: PacketInspector> PacketInspector for TimedInspector<I> {
    fn inspect(&mut self, router: NodeId, cycle: u64, packet: &mut Packet) -> InspectOutcome {
        let t0 = Instant::now();
        let out = self.inner.inspect(router, cycle, packet);
        self.nanos += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
        self.tampered += u64::from(out.modified);
        out
    }
}

impl FleetHost for TimedInspector<TrojanFleet> {
    fn fleet_mut(&mut self) -> &mut TrojanFleet {
        &mut self.inner
    }
}

/// Logs `(cycle, packet)` the first time each packet is inspected — at its
/// source router, before the wrapped inspector may rewrite it — then
/// delegates. The log is the packet stream a bare network replays.
#[derive(Debug, Clone)]
pub struct Recorder<I> {
    inner: I,
    /// Packets in the order their source routers inspected them.
    pub log: Vec<(u64, Packet)>,
}

impl<I> Recorder<I> {
    /// Wraps `inner` with an empty log reserving room for `capacity`
    /// packets. Reserving an upper bound once keeps the log from
    /// reallocating; capacity never written is not resident, so peak
    /// memory follows the packet count rather than its next power of two.
    pub fn with_capacity(inner: I, capacity: usize) -> Recorder<I> {
        Recorder {
            inner,
            log: Vec::with_capacity(capacity),
        }
    }
}

impl<I: PacketInspector> PacketInspector for Recorder<I> {
    fn inspect(&mut self, router: NodeId, cycle: u64, packet: &mut Packet) -> InspectOutcome {
        if router == packet.src() {
            self.log.push((cycle, *packet));
        }
        self.inner.inspect(router, cycle, packet)
    }
}

impl FleetHost for Recorder<TrojanFleet> {
    fn fleet_mut(&mut self) -> &mut TrojanFleet {
        &mut self.inner
    }
}
