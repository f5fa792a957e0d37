//! Known-bad: a lock guarding simulation state. Cross-thread mutation
//! order is invisible to the event loop and nondeterministic by
//! construction; sim state must stay single-threaded, with any parallel
//! stage merged back in a deterministic order.

pub struct SharedLedger {
    pub balance: std::sync::Mutex<u64>,
}
