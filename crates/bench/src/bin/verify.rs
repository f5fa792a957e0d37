//! Runs every CI gate in `results/gates.json` and prints one table of
//! outcomes; exits non-zero if any gate fails. See `hs_bench::gates`.
//!
//! ```text
//! cargo run --release --locked -p hs-bench --bin verify
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    if hs_bench::gates::verify(&hs_bench::report::workspace_root()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
