//! KV-cache memory manager for a decode instance.
//!
//! Block-based accounting in the spirit of PagedAttention, at the
//! granularity the simulation needs: a decode instance has a total token
//! capacity (from [`hs_model::MemoryModel`] and its GPUs' memory);
//! admission reserves a request's worst-case footprint (input + maximum
//! output tokens) so decoding can never deadlock mid-generation; the
//! *live* token count (input + generated so far) is what Fig. 10's memory
//! utilization reports.

/// Token-granular KV memory accounting for one decode instance.
#[derive(Clone, Debug)]
pub struct KvManager {
    /// Total KV token capacity.
    capacity_tokens: u64,
    /// Reserved (admission-time worst case) tokens.
    reserved_tokens: u64,
    /// Live (actually materialized) tokens.
    live_tokens: u64,
    /// Admissions granted.
    admissions: u64,
    /// Admissions refused for lack of capacity.
    rejections: u64,
}

impl KvManager {
    /// A manager with the given token capacity.
    pub fn new(capacity_tokens: u64) -> Self {
        KvManager {
            capacity_tokens,
            reserved_tokens: 0,
            live_tokens: 0,
            admissions: 0,
            rejections: 0,
        }
    }

    /// Capacity in tokens.
    pub fn capacity(&self) -> u64 {
        self.capacity_tokens
    }

    /// Worst-case reserved tokens.
    pub fn reserved(&self) -> u64 {
        self.reserved_tokens
    }

    /// Live (materialized) tokens.
    pub fn live(&self) -> u64 {
        self.live_tokens
    }

    /// Can `tokens` more be reserved?
    pub fn can_admit(&self, tokens: u64) -> bool {
        self.reserved_tokens + tokens <= self.capacity_tokens
    }

    /// Unreserved tokens remaining — the admission headroom the NetKV
    /// decode-selection score weighs against transfer time and load.
    pub fn headroom(&self) -> u64 {
        self.capacity_tokens.saturating_sub(self.reserved_tokens)
    }

    /// Reserve `tokens` (admission). Returns false and counts a rejection
    /// when capacity is insufficient.
    pub fn admit(&mut self, tokens: u64) -> bool {
        if self.can_admit(tokens) {
            self.reserved_tokens += tokens;
            self.admissions += 1;
            true
        } else {
            self.rejections += 1;
            false
        }
    }

    /// Materialize `tokens` of live KV (prompt arrival, or +1 per decoded
    /// token).
    pub fn materialize(&mut self, tokens: u64) {
        self.live_tokens += tokens;
        debug_assert!(
            self.live_tokens <= self.reserved_tokens,
            "live KV exceeded reservation"
        );
    }

    /// Release a finished request: `reserved` returns to the pool and its
    /// `live` tokens are freed.
    pub fn release(&mut self, reserved: u64, live: u64) {
        debug_assert!(self.reserved_tokens >= reserved, "over-release (reserved)");
        debug_assert!(self.live_tokens >= live, "over-release (live)");
        self.reserved_tokens = self.reserved_tokens.saturating_sub(reserved);
        self.live_tokens = self.live_tokens.saturating_sub(live);
    }

    /// Reservation utilization in `[0, 1]` (admission pressure).
    pub fn reserved_utilization(&self) -> f64 {
        if self.capacity_tokens == 0 {
            return 1.0;
        }
        self.reserved_tokens as f64 / self.capacity_tokens as f64
    }

    /// `(admissions, rejections)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.admissions, self.rejections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_until_full() {
        let mut m = KvManager::new(100);
        assert!(m.admit(60));
        assert_eq!(m.headroom(), 40);
        assert!(!m.admit(50));
        assert!(m.admit(40));
        assert_eq!(m.reserved(), 100);
        assert_eq!(m.headroom(), 0);
        assert_eq!(m.counters(), (2, 1));
    }

    #[test]
    fn materialize_and_release() {
        let mut m = KvManager::new(100);
        assert!(m.admit(50));
        m.materialize(30);
        m.materialize(5);
        assert_eq!(m.live(), 35);
        assert!((m.reserved_utilization() - 0.5).abs() < 1e-12);
        m.release(50, 35);
        assert_eq!(m.reserved(), 0);
        assert_eq!(m.live(), 0);
    }

    #[test]
    fn zero_capacity_is_always_full() {
        let mut m = KvManager::new(0);
        assert!(!m.admit(1));
        assert_eq!(m.reserved_utilization(), 1.0);
    }

    #[test]
    fn release_saturates_in_release_builds() {
        let mut m = KvManager::new(10);
        m.admit(5);
        m.materialize(3);
        m.release(5, 3);
        // Further releases are clamped (debug_assert in debug builds).
        assert_eq!(m.reserved(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Reserved never exceeds capacity and live never exceeds reserved
        /// under arbitrary admit/materialize/release sequences that mirror
        /// real request lifecycles.
        #[test]
        fn accounting_invariants(ops in proptest::collection::vec((1u64..50, 1u64..20), 1..50)) {
            let mut m = KvManager::new(200);
            let mut open: Vec<(u64, u64)> = Vec::new(); // (reserved, live)
            for (reserve, live_steps) in ops {
                if m.admit(reserve) {
                    let live = live_steps.min(reserve);
                    m.materialize(live);
                    open.push((reserve, live));
                }
                prop_assert!(m.reserved() <= m.capacity());
                prop_assert!(m.live() <= m.reserved());
                // Occasionally retire the oldest request.
                if open.len() > 3 {
                    let (r, l) = open.remove(0);
                    m.release(r, l);
                }
            }
            for (r, l) in open {
                m.release(r, l);
            }
            prop_assert_eq!(m.reserved(), 0);
            prop_assert_eq!(m.live(), 0);
        }
    }
}
