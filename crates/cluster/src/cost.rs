//! Interconnect cost model.

use std::time::Duration;

/// Simulated network costs charged per message.
///
/// With [`CostModel::zero`] the only inter-node cost is the real channel
/// and thread-wakeup overhead (a fast local interconnect); non-zero models
/// make the sender *actually wait*, so measured wall-clock times include
/// the simulated network exactly like the paper's MPJ cluster included its
/// real one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostModel {
    /// Fixed one-way latency per message.
    pub latency: Duration,
    /// Additional delay per KiB of payload.
    pub per_kib: Duration,
}

impl CostModel {
    /// No simulated delay (pure channel overhead).
    #[must_use]
    pub fn zero() -> Self {
        CostModel::default()
    }

    /// The delay charged for a message of `bytes` payload.
    #[must_use]
    pub fn delay_for(&self, bytes: usize) -> Duration {
        let kib = bytes.div_ceil(1024) as u32;
        self.latency + self.per_kib * kib
    }

    /// Whether this model injects any delay at all.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.latency.is_zero() && self.per_kib.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_charges_nothing() {
        let m = CostModel::zero();
        assert!(m.is_zero());
        assert_eq!(m.delay_for(10_000), Duration::ZERO);
    }

    #[test]
    fn delay_scales_with_size() {
        let m = CostModel {
            latency: Duration::from_micros(10),
            per_kib: Duration::from_micros(2),
        };
        assert_eq!(m.delay_for(0), Duration::from_micros(10));
        assert_eq!(m.delay_for(1), Duration::from_micros(12));
        assert_eq!(m.delay_for(1024), Duration::from_micros(12));
        assert_eq!(m.delay_for(1025), Duration::from_micros(14));
        assert!(!m.is_zero());
    }
}
