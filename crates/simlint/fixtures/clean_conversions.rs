//! Negative fixture: the sanctioned counterpart for every v2 rule
//! family. This file must produce zero findings under the full rule set
//! — it is the executable definition of "how to do it right".

use std::collections::BTreeMap;

use hs_des::{SimSpan, SimTime};

/// units-mixing: an explicit conversion call bridges nanoseconds into
/// seconds — the `*_secs` name declares the result dimension.
pub fn total_wait(wait_s: f64, queue_delay_ns: u64) -> f64 {
    wait_s + nanos_to_secs(queue_delay_ns)
}

fn nanos_to_secs(delay_ns: u64) -> f64 {
    delay_ns as f64 / 1e9
}

/// units-mixing: bytes cross into time by multiplying into bits first,
/// inside a `*_secs` helper — never by dividing bytes by a bps rate.
pub fn transfer_secs(chunk_bytes: u64, link_bps: f64) -> f64 {
    chunk_bytes as f64 * 8.0 / link_bps
}

/// sim-time-arith: timestamps advance in integer nanoseconds; the float
/// only enters once, through a span constructor — no round-trip.
pub fn deadline(now: SimTime, dt_s: f64) -> SimTime {
    now + SimSpan::from_secs_f64(dt_s)
}

/// unordered-iter: ordered containers iterate deterministically.
pub fn checksum(table: &BTreeMap<u64, u64>) -> u64 {
    table.values().sum()
}

/// unwrap: the invariant is documented at the panic site.
pub fn front(queue: &BTreeMap<u64, u64>) -> u64 {
    *queue
        .values()
        .next()
        .expect("caller guarantees a non-empty queue")
}
