//! Low-overhead SPSC channels for the windowed driver's worker pool.
//!
//! The environment this repo builds in is offline, so the usual crates.io
//! answer (`crossbeam-channel`) is not available; this module is the
//! in-tree stand-in, scoped to exactly what the [`crate::driver`] handoff
//! needs — the same shape vsr-rs uses for its per-replica
//! `crossbeam_channel::Sender` lanes feeding long-lived loops:
//!
//! * **One dedicated SPSC lane per worker.** A bounded ring buffer with a
//!   single producer (the coordinator pushing jobs, or a worker pushing
//!   results) and a single consumer. No shared `mpsc` mutex/queue node
//!   allocation on the hot path: a push is one slot write and one release
//!   store; a pop is one acquire load and one slot read.
//! * **Bounded spin, then `park`.** Windows are tens of microseconds of
//!   work, so a consumer first spins briefly (a handoff that lands within
//!   the spin window costs no syscall at all), then parks. The producer
//!   unconditionally [`std::thread::Thread::unpark`]s its registered
//!   consumer after every push — `unpark` on a running thread is a single
//!   atomic exchange, and the token semantics make the sleep race-free: an
//!   unpark delivered *before* the consumer parks makes that park return
//!   immediately, so a wakeup can never be lost.
//! * **Idle accounting.** Consumers record spins, park episodes, parked
//!   nanoseconds, and busy nanoseconds into shared [`WaitCounters`], so the
//!   driver can prove (and a unit test asserts) that an idle worker costs
//!   ~0 CPU: its idle time is spent parked in the scheduler, not spinning.
//!
//! The `mpsc` path this replaces made every pooled window pay a
//! send/recv/spin storm (see `DriverStats::worker_spins` before/after in
//! `BENCH_driver.json`); the measured handoff numbers live in the README.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::Instant;

/// Spin iterations a consumer burns before parking. Small enough that an
/// idle consumer reaches the scheduler within microseconds; large enough
/// that a handoff racing the check is caught without a syscall.
pub const SPIN_LIMIT: u32 = 128;

/// Shared wait/busy accounting for a pool of consumers (all counters are
/// cumulative across the pool's lifetime).
#[derive(Debug, Default)]
pub struct WaitCounters {
    /// Spin-loop iterations spent waiting for a push.
    pub spins: AtomicU64,
    /// Times a consumer gave up spinning and parked.
    pub parks: AtomicU64,
    /// Wall nanoseconds spent parked (accumulated as parks end).
    pub parked_ns: AtomicU64,
    /// Wall nanoseconds consumers spent doing handed-off work.
    pub busy_ns: AtomicU64,
}

impl WaitCounters {
    /// Fraction of accounted time spent parked rather than working:
    /// `parked / (parked + busy)`. Idle workers must push this toward 1.0
    /// while costing no CPU; the driver surfaces it as the worker idle
    /// fraction.
    pub fn idle_fraction(&self) -> f64 {
        let parked = self.parked_ns.load(Ordering::Relaxed) as f64;
        let busy = self.busy_ns.load(Ordering::Relaxed) as f64;
        if parked + busy == 0.0 {
            0.0
        } else {
            parked / (parked + busy)
        }
    }

    /// Adds `ns` of busy (handed-off work) time.
    pub fn add_busy_ns(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Snapshot `(spins, parks, parked_ns, busy_ns)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.spins.load(Ordering::Relaxed),
            self.parks.load(Ordering::Relaxed),
            self.parked_ns.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed),
        )
    }
}

/// Pads the head/tail indices to their own cache lines so the producer's
/// stores never invalidate the consumer's line (and vice versa).
#[repr(align(64))]
#[derive(Default)]
struct CachePadded<T>(T);

struct Ring<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer reads. Written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer writes. Written only by the producer.
    tail: CachePadded<AtomicUsize>,
    /// Set by either side's `Drop`; a closed ring still drains.
    closed: AtomicBool,
    /// The consumer's thread, registered on its first blocking receive;
    /// the producer unparks it after every push.
    consumer: OnceLock<Thread>,
}

// SAFETY: the ring hands each `T` from exactly one thread to exactly one
// other; slots are published with release stores and consumed after
// acquire loads, so the payload write happens-before the read.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Sole owner at this point: drop the undelivered payloads.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            let slot = &self.buf[i & self.mask];
            // SAFETY: slots in head..tail were written and never read.
            unsafe { (*slot.get()).assume_init_drop() };
        }
    }
}

/// The producing half of an SPSC lane. Not clonable: single producer.
pub struct Sender<T> {
    ring: Arc<Ring<T>>,
}

/// The consuming half of an SPSC lane. Not clonable: single consumer.
pub struct Receiver<T> {
    ring: Arc<Ring<T>>,
}

/// Creates a bounded SPSC lane with room for at least `capacity` in-flight
/// values (rounded up to a power of two).
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(Ring {
        buf,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
        consumer: OnceLock::new(),
    });
    (Sender { ring: ring.clone() }, Receiver { ring })
}

/// The consuming side hung up; the value could not be delivered.
#[derive(Debug, PartialEq, Eq)]
pub struct Disconnected<T>(pub T);

impl<T> Sender<T> {
    /// Sends `value`, waking the (possibly parked) consumer.
    ///
    /// The ring is sized for the driver's bounded in-flight window (jobs
    /// per worker per window plus recalls), so a full ring means the
    /// consumer is merely behind: the producer yields until a slot frees
    /// rather than growing an unbounded queue.
    pub fn send(&self, value: T) -> Result<(), Disconnected<T>> {
        let ring = &*self.ring;
        let mut value = value;
        loop {
            if ring.closed.load(Ordering::Acquire) {
                return Err(Disconnected(value));
            }
            let tail = ring.tail.0.load(Ordering::Relaxed);
            let head = ring.head.0.load(Ordering::Acquire);
            if tail - head <= ring.mask {
                let slot = &ring.buf[tail & ring.mask];
                // SAFETY: `tail - head <= mask` leaves this slot free, and
                // only this (single) producer writes slots.
                unsafe { (*slot.get()).write(value) };
                ring.tail.0.store(tail + 1, Ordering::Release);
                if let Some(t) = ring.consumer.get() {
                    t.unpark();
                }
                return Ok(());
            }
            value = self.reclaim(value)?;
        }
    }

    /// Backpressure path: the ring is full. Yield and retry.
    #[cold]
    fn reclaim(&self, value: T) -> Result<T, Disconnected<T>> {
        std::thread::yield_now();
        Ok(value)
    }

    /// Whether the receiving side is gone.
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire)
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
        if let Some(t) = self.ring.consumer.get() {
            t.unpark();
        }
    }
}

impl<T> Receiver<T> {
    /// Non-blocking pop.
    pub fn try_recv(&self) -> Option<T> {
        let ring = &*self.ring;
        let head = ring.head.0.load(Ordering::Relaxed);
        let tail = ring.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &ring.buf[head & ring.mask];
        // SAFETY: head < tail means the slot was written (release) and the
        // acquire load above synchronized with it; only this (single)
        // consumer reads slots.
        let value = unsafe { (*slot.get()).assume_init_read() };
        ring.head.0.store(head + 1, Ordering::Release);
        Some(value)
    }

    /// Blocking pop: spins [`SPIN_LIMIT`] times, then parks until the
    /// producer's post-push unpark. Returns `None` once the lane is closed
    /// *and* drained. Waiting is accounted into `counters`.
    pub fn recv(&self, counters: &WaitCounters) -> Option<T> {
        self.register();
        let mut spins = 0u64;
        loop {
            for _ in 0..SPIN_LIMIT {
                if let Some(v) = self.try_recv() {
                    if spins > 0 {
                        counters.spins.fetch_add(spins, Ordering::Relaxed);
                    }
                    return Some(v);
                }
                if self.ring.closed.load(Ordering::Acquire) {
                    // Drain: a close races the last pushes.
                    let v = self.try_recv();
                    if spins > 0 {
                        counters.spins.fetch_add(spins, Ordering::Relaxed);
                    }
                    return v;
                }
                spins += 1;
                std::hint::spin_loop();
            }
            counters.parks.fetch_add(1, Ordering::Relaxed);
            let parked = Instant::now();
            std::thread::park();
            counters
                .parked_ns
                .fetch_add(parked.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Registers the calling thread as the lane's consumer so producers can
    /// unpark it. Called automatically by [`Receiver::recv`]; poll-style
    /// consumers (one thread draining several lanes with [`try_recv`] and
    /// parking itself) must call it once per lane before their first park.
    pub fn register(&self) {
        self.ring.consumer.get_or_init(std::thread::current);
    }

    /// Whether the producing side is gone (pending values still drain).
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn values_arrive_in_order_across_wraparound() {
        let (tx, rx) = channel::<u32>(4); // rounds to 4 slots
        let counters = WaitCounters::default();
        for round in 0..10u32 {
            for i in 0..4 {
                tx.send(round * 4 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(rx.recv(&counters), Some(round * 4 + i));
            }
        }
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn full_ring_applies_backpressure_without_loss() {
        let (tx, rx) = channel::<u64>(8);
        let counters = Arc::new(WaitCounters::default());
        let consumer = {
            let counters = counters.clone();
            std::thread::spawn(move || {
                let mut sum = 0u64;
                while let Some(v) = rx.recv(&counters) {
                    sum += v;
                }
                sum
            })
        };
        let n = 10_000u64;
        for i in 0..n {
            tx.send(i).unwrap();
        }
        drop(tx); // Close; the consumer drains and exits.
        assert_eq!(consumer.join().unwrap(), n * (n - 1) / 2);
    }

    #[test]
    fn recv_parks_until_a_late_send_and_accounts_the_idle_time() {
        let (tx, rx) = channel::<&str>(4);
        let counters = Arc::new(WaitCounters::default());
        let consumer = {
            let counters = counters.clone();
            std::thread::spawn(move || rx.recv(&counters))
        };
        // Let the consumer exhaust its spin budget and park.
        std::thread::sleep(Duration::from_millis(30));
        tx.send("late").unwrap();
        assert_eq!(consumer.join().unwrap(), Some("late"));
        let (_, parks, parked_ns, _) = counters.snapshot();
        assert!(parks >= 1, "the consumer must have parked: {counters:?}");
        assert!(
            parked_ns > 5_000_000,
            "the ~30ms wait must have been spent parked, not spinning: {counters:?}"
        );
    }

    #[test]
    fn spinning_is_bounded_per_wait_episode() {
        let (tx, rx) = channel::<()>(4);
        let counters = Arc::new(WaitCounters::default());
        let consumer = {
            let counters = counters.clone();
            std::thread::spawn(move || {
                let mut n = 0;
                while rx.recv(&counters).is_some() {
                    n += 1;
                }
                n
            })
        };
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(5));
            tx.send(()).unwrap();
        }
        drop(tx);
        assert_eq!(consumer.join().unwrap(), 3);
        let (spins, parks, _, _) = counters.snapshot();
        // Each wait episode spins at most SPIN_LIMIT times per park cycle;
        // parks + the final close-race check bound the total.
        assert!(
            spins <= (parks + 5) * SPIN_LIMIT as u64,
            "spin waste must stay bounded: {spins} spins over {parks} parks"
        );
        assert!(parks >= 3, "idle gaps must park, not spin: {counters:?}");
    }

    #[test]
    fn close_with_pending_values_still_drains() {
        let (tx, rx) = channel::<u8>(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        let counters = WaitCounters::default();
        assert_eq!(rx.recv(&counters), Some(1));
        assert_eq!(rx.recv(&counters), Some(2));
        assert_eq!(rx.recv(&counters), None);
        assert_eq!(rx.recv(&counters), None, "closed stays closed");
    }

    #[test]
    fn send_to_a_dropped_receiver_reports_disconnect() {
        let (tx, rx) = channel::<u8>(4);
        drop(rx);
        assert_eq!(tx.send(9), Err(Disconnected(9)));
        assert!(tx.is_closed());
    }

    #[test]
    fn dropping_undelivered_values_runs_their_destructors() {
        let drops = Arc::new(AtomicU64::new(0));
        #[derive(Debug)]
        struct Probe(Arc<AtomicU64>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (tx, rx) = channel::<Probe>(8);
        for _ in 0..5 {
            tx.send(Probe(drops.clone())).unwrap();
        }
        let counters = WaitCounters::default();
        drop(rx.recv(&counters)); // One delivered and dropped.
        drop(rx);
        drop(tx);
        assert_eq!(drops.load(Ordering::Relaxed), 5, "no payload leaked");
    }

    #[test]
    fn idle_fraction_reflects_the_counters() {
        let c = WaitCounters::default();
        assert_eq!(c.idle_fraction(), 0.0);
        c.parked_ns.store(900, Ordering::Relaxed);
        c.add_busy_ns(100);
        assert!((c.idle_fraction() - 0.9).abs() < 1e-12);
    }
}
