//! The benchmark's only clock.
//!
//! Every wall-clock read of the benchmark goes through [`Clock`], so the
//! one reasoned `lint:allow(D3)` below covers all of them. The readings
//! are reported as measurements; none of them reaches a simulated world.

/// A monotonic clock with a fixed origin; readings are nanoseconds since
/// the origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: std::time::Instant,
}

impl Clock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        Clock {
            // lint:allow(D3): the benchmark measures wall time; readings are reported, never fed to a simulation
            origin: std::time::Instant::now(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since the origin.
    pub fn seconds(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}
