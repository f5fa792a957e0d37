//! The report fold the scale benches (`scale_1m`, `outage_sweep`) gate
//! on.

use hs_cluster::SimReport;
use rustc_hash::FxHasher;
use std::hash::Hasher;

/// Fold 27 of `SimReport`'s 39 fields, floats by bit pattern, into one
/// 64-bit fingerprint; equal fingerprints across runs or builds is the
/// bit-identity claim at `ClusterSim` granularity.
///
/// Folded: the strategy name, offered rate, arrived and completed counts,
/// SLA attainment, mean TTFT and TPOT, every per-request metric (id,
/// TTFT, end-to-end TTFT, TPOT, completed, SLA met), every memory sample,
/// the INA/ring/fault/KV counters, Ethernet and NVLink bytes, goodput,
/// mean reroute time, KV bytes, mean KV transfer time and mean KV
/// estimate error.
///
/// Not folded: the p90s of TTFT, TPOT, end-to-end TTFT and KV transfer,
/// `mean_ttft_e2e_s`, `fault_window_attainment`, the scale-up and
/// scale-down counts, `gpu_seconds`, `mean_active_gpus` and the final
/// pool sizes. The exhaustive fold lives in
/// `benchmark/src/fingerprint.rs`; one fold for every report, in
/// `hs-cluster`, is the ROADMAP's "One report contract" item. Changing
/// this fold changes every committed fingerprint that uses it.
pub fn fingerprint(r: &SimReport) -> u64 {
    let mut h = FxHasher::default();
    let f = |h: &mut FxHasher, x: f64| h.write_u64(x.to_bits());
    h.write(r.strategy.as_bytes());
    f(&mut h, r.offered_rate);
    h.write_usize(r.arrived);
    h.write_usize(r.completed);
    f(&mut h, r.sla_attainment);
    f(&mut h, r.mean_ttft_s);
    f(&mut h, r.mean_tpot_s);
    for m in &r.per_request {
        h.write_u64(m.id);
        f(&mut h, m.ttft_s.unwrap_or(f64::NAN));
        f(&mut h, m.ttft_e2e_s.unwrap_or(f64::NAN));
        f(&mut h, m.tpot_s.unwrap_or(f64::NAN));
        h.write_u8(u8::from(m.completed));
        h.write_u8(u8::from(m.sla_ok));
    }
    for s in &r.mem_series {
        h.write_u64(s.t.as_nanos());
        f(&mut h, s.mean_util);
        f(&mut h, s.max_util);
    }
    for v in [
        r.ina_ops,
        r.ring_ops,
        r.ina_fallbacks,
        r.ina_failovers,
        r.ina_release_underflows,
        r.aborted_flows,
        r.flow_retries,
        r.kv_transfers,
        r.kv_stripes,
        r.kv_retries,
        r.kv_deferrals,
    ] {
        h.write_u64(v);
    }
    for v in [
        r.eth_bytes,
        r.nvlink_bytes,
        r.goodput_rps,
        r.mean_reroute_s,
        r.kv_bytes,
        r.mean_kv_transfer_s,
        r.mean_kv_est_err_s,
    ] {
        f(&mut h, v);
    }
    h.finish()
}

/// Peak resident set of this process so far, MiB (`VmHWM`; `None` where
/// `/proc/self/status` does not exist).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
