//! Chatbot serving: all four systems side by side on the testbed.
//!
//! ```sh
//! cargo run --release --example chatbot_serving
//! ```
//!
//! Replays the paper's Fig. 7(a)/(b) scenario at a fixed rate: OPT-66B,
//! ShareGPT-like chatbot traffic, the testbed deployment with TP groups
//! spanning servers, bursty cross traffic — and compares DistServe,
//! DS-ATP, DS-SwitchML and HeroServe.

use hs_baselines::BaselineKind;
use hs_bench::scenario::testbed_deployment;
use hs_des::SimTime;
use hs_topology::builders::testbed;

fn main() {
    let topo = testbed();
    let workload = hs_workload::sharegpt_like();
    let rate = 2.0; // req/s offered
    println!(
        "OPT-66B chatbot at {rate} req/s on the 16-GPU testbed (SLA {}s TTFT / {}s TPOT)\n",
        workload.ttft_sla_s, workload.tpot_sla_s
    );

    for kind in BaselineKind::all() {
        let mut d = testbed_deployment(kind, &topo, &workload, rate);
        d.ina_capacity_per_switch = 1;
        d.background = Some((20.0, 256 << 20));
        let r = d.serve_trace(7, rate, SimTime::from_secs(30));
        println!(
            "{:<12} attainment {:>5.1}%  TTFT {:.3}s  TPOT {:.4}s  Ethernet {:>7.1} GB  NVLink {:>7.1} GB",
            kind.name(),
            r.sla_attainment * 100.0,
            r.mean_ttft_s,
            r.mean_tpot_s,
            r.eth_bytes / 1e9,
            r.nvlink_bytes / 1e9,
        );
    }
    println!("\nExpected shape: the INA systems beat DistServe's Ethernet rings; HeroServe");
    println!("matches the best latency while moving a large share of bytes onto NVLink.");
}
