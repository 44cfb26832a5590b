//! Single-CPU service model.
//!
//! The paper's machines have one 2.4 GHz Xeon; all local transaction work
//! and writeset application share it. Like the disk channel, the CPU is a
//! FIFO server with a `busy_until` horizon: submitting a burst returns its
//! completion time, so the simulation needs no events inside the server.
//! FIFO service at quantum granularity (the replica slices transactions
//! into a few milliseconds of CPU per step) approximates the round-robin
//! scheduling of a real kernel.

use tashkent_sim::SimTime;

/// A FIFO CPU server with utilization accounting.
///
/// # Examples
///
/// ```
/// use tashkent_replica::CpuServer;
/// use tashkent_sim::SimTime;
///
/// let mut cpu = CpuServer::new();
/// let t1 = cpu.run(SimTime::ZERO, 1_000);
/// let t2 = cpu.run(SimTime::ZERO, 500); // queues behind the first burst
/// assert_eq!(t1.as_micros(), 1_000);
/// assert_eq!(t2.as_micros(), 1_500);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CpuServer {
    busy_until: SimTime,
    total_busy_us: u64,
    window_busy_us: u64,
}

impl CpuServer {
    /// Creates an idle CPU.
    pub fn new() -> Self {
        CpuServer::default()
    }

    /// Runs a burst of `burst_us` submitted at `now`; returns completion.
    pub fn run(&mut self, now: SimTime, burst_us: u64) -> SimTime {
        let start = self.busy_until.max(now);
        let done = start + burst_us;
        self.busy_until = done;
        self.total_busy_us += burst_us;
        self.window_busy_us += burst_us;
        done
    }

    /// Microseconds of queued work ahead of a burst arriving now.
    pub fn backlog_us(&self, now: SimTime) -> u64 {
        self.busy_until.saturating_since(now)
    }

    /// Total busy time since construction.
    pub fn total_busy_us(&self) -> u64 {
        self.total_busy_us
    }

    /// Returns and resets the busy time accumulated since the last call;
    /// used by the load daemon for utilization sampling.
    pub fn take_window_busy_us(&mut self) -> u64 {
        std::mem::take(&mut self.window_busy_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_queue_fifo() {
        let mut cpu = CpuServer::new();
        assert_eq!(cpu.run(SimTime::ZERO, 100).as_micros(), 100);
        assert_eq!(cpu.run(SimTime::ZERO, 100).as_micros(), 200);
        // A burst arriving later starts when the queue drains.
        assert_eq!(cpu.run(SimTime::from_micros(50), 10).as_micros(), 210);
    }

    #[test]
    fn idle_gaps_do_not_accumulate_busy_time() {
        let mut cpu = CpuServer::new();
        cpu.run(SimTime::ZERO, 100);
        cpu.run(SimTime::from_secs(1), 100);
        assert_eq!(cpu.total_busy_us(), 200);
    }

    #[test]
    fn backlog_measures_queue() {
        let mut cpu = CpuServer::new();
        cpu.run(SimTime::ZERO, 1_000);
        assert_eq!(cpu.backlog_us(SimTime::ZERO), 1_000);
        assert_eq!(cpu.backlog_us(SimTime::from_micros(400)), 600);
        assert_eq!(cpu.backlog_us(SimTime::from_micros(2_000)), 0);
    }

    #[test]
    fn window_busy_resets() {
        let mut cpu = CpuServer::new();
        cpu.run(SimTime::ZERO, 300);
        assert_eq!(cpu.take_window_busy_us(), 300);
        assert_eq!(cpu.take_window_busy_us(), 0);
        assert_eq!(cpu.total_busy_us(), 300);
    }

    #[test]
    fn zero_burst_is_noop() {
        let mut cpu = CpuServer::new();
        let t = cpu.run(SimTime::from_micros(5), 0);
        assert_eq!(t.as_micros(), 5);
        assert_eq!(cpu.total_busy_us(), 0);
    }
}
