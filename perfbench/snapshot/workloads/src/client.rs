//! Closed-loop client model.
//!
//! The paper loads the system with a fixed number of emulated clients per
//! replica (the count that drives a standalone database to 85 % of its peak
//! throughput, §4.4). Each client loops: think, pick a transaction type from
//! the mix, submit, wait for the response, think again. Aborted update
//! transactions are retried by the client.

use tashkent_engine::TxnTypeId;
use tashkent_sim::SimRng;

use crate::spec::Mix;

/// Configuration of a closed-loop client population.
#[derive(Debug, Clone)]
pub struct ClientPool {
    /// Number of concurrent emulated clients.
    pub clients: usize,
    /// Mean think time between transactions, in µs (exponentially
    /// distributed).
    pub think_mean_us: u64,
    /// Maximum retries for an aborted transaction before the client gives
    /// up and picks a new interaction.
    pub max_retries: u32,
}

impl ClientPool {
    /// Creates a pool of `clients` clients with the given mean think time.
    pub fn new(clients: usize, think_mean_us: u64) -> Self {
        ClientPool {
            clients,
            think_mean_us,
            max_retries: 10,
        }
    }

    /// Samples a think time.
    pub fn think(&self, rng: &mut SimRng) -> u64 {
        rng.exp_micros(self.think_mean_us)
    }

    /// Samples the next transaction type from `mix`.
    pub fn next_type(&self, mix: &Mix, rng: &mut SimRng) -> TxnTypeId {
        mix.pick(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn think_times_average_to_mean() {
        let pool = ClientPool::new(10, 1_000_000);
        let mut rng = SimRng::seed_from(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| pool.think(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!(
            (900_000.0..1_100_000.0).contains(&mean),
            "mean think {mean}"
        );
    }

    #[test]
    fn zero_think_time_is_supported() {
        let pool = ClientPool::new(1, 0);
        let mut rng = SimRng::seed_from(2);
        assert_eq!(pool.think(&mut rng), 0);
    }

    #[test]
    fn defaults_allow_retries() {
        let pool = ClientPool::new(1, 1);
        assert!(pool.max_retries > 0);
    }
}
