//! Queueing-delay estimation (§III-C1).
//!
//! "We assume that request arrivals follow a Poisson process ... The
//! queuing delay is estimated using the Pollaczek–Khinchine equation:
//! `T_queue = λ·T_serve² / (2(1−ρ))` where `ρ = λ·T_serve`."
//!
//! This is the M/D/1 specialization of P-K (deterministic service — LLM
//! inference latency is highly predictable, the paper's stated
//! justification). The planner computes `H` from replica capacities and
//! then uses this formula once, for the queueing delay at the offered
//! rate with service time `1/H` (`PlannerOutput::est_queue_s`).

/// The paper's queueing estimate: expected waiting time in seconds for
/// arrival rate `lambda` (req/s) and deterministic service time
/// `t_serve` (s). Returns `f64::INFINITY` when the queue is unstable
/// (ρ ≥ 1).
pub fn pk_queue_delay(lambda: f64, t_serve: f64) -> f64 {
    if lambda <= 0.0 || t_serve <= 0.0 {
        return 0.0;
    }
    let rho = lambda * t_serve;
    if rho >= 1.0 {
        return f64::INFINITY;
    }
    lambda * t_serve * t_serve / (2.0 * (1.0 - rho))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_load_no_queue() {
        assert_eq!(pk_queue_delay(0.0, 1.0), 0.0);
    }

    #[test]
    fn delay_grows_with_utilization() {
        let s = 0.1;
        let d1 = pk_queue_delay(1.0, s); // rho = 0.1
        let d5 = pk_queue_delay(5.0, s); // rho = 0.5
        let d9 = pk_queue_delay(9.0, s); // rho = 0.9
        assert!(d1 < d5 && d5 < d9);
        // M/D/1 at rho = 0.5: W = λ s² / (2 (1-ρ)) = 5*0.01/1 = 0.05.
        assert!((d5 - 0.05).abs() < 1e-12);
    }

    #[test]
    fn unstable_queue_is_infinite() {
        assert!(pk_queue_delay(10.0, 0.1).is_infinite());
        assert!(pk_queue_delay(11.0, 0.1).is_infinite());
    }
}
