//! The 4-axis Pareto reduction.

use crate::eval::DseResult;

/// The objective vector: (fps ↑, energy ↓, training latency ↓,
/// lifetime ↑). Write-free designs have unbounded lifetime.
fn objectives(r: &DseResult) -> [f64; 4] {
    [
        r.fps,
        -r.energy_per_frame_mj,
        -r.train_latency_ms,
        r.lifetime_years.unwrap_or(f64::INFINITY),
    ]
}

/// `true` when `a` Pareto-dominates `b`: at least as good on every
/// objective and strictly better on at least one. Unplaceable points
/// never dominate and are dominated by any placeable point.
pub fn dominates(a: &DseResult, b: &DseResult) -> bool {
    if !a.placeable {
        return false;
    }
    if !b.placeable {
        return true;
    }
    let (oa, ob) = (objectives(a), objectives(b));
    let mut strictly = false;
    for (x, y) in oa.iter().zip(ob.iter()) {
        if x < y {
            return false;
        }
        if x > y {
            strictly = true;
        }
    }
    strictly
}

/// Indices (into `results`, ascending) of the non-dominated placeable
/// points. O(n²) over the objective vectors — a few million float
/// comparisons at fleet scale, far cheaper than the sweep itself.
pub fn pareto_frontier(results: &[DseResult]) -> Vec<usize> {
    (0..results.len())
        .filter(|&i| {
            results[i].placeable
                && results
                    .iter()
                    .enumerate()
                    .all(|(j, other)| j == i || !dominates(other, &results[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use mramrl_core::Topology;
    use mramrl_mem::TechKind;

    use super::*;
    use crate::space::{DseConfig, ScenarioMix};

    fn point(fps: f64, energy: f64, latency: f64, life: Option<f64>) -> DseResult {
        DseResult {
            config: DseConfig {
                index: 0,
                topology: Topology::L3,
                sram_mb: 30.0,
                mram_mb: 128.0,
                tech: TechKind::SttMram,
                batch: 4,
                mix: ScenarioMix::continuous(),
            },
            placeable: true,
            nvm_write_free: life.is_none(),
            sram_used_mb: 0.0,
            fps,
            energy_per_frame_mj: energy,
            train_latency_ms: latency,
            nvm_write_bytes_per_s: 0.0,
            lifetime_years: life,
        }
    }

    #[test]
    fn strict_improvement_dominates() {
        let better = point(100.0, 1.0, 5.0, None);
        let worse = point(90.0, 1.5, 6.0, Some(3.0));
        assert!(dominates(&better, &worse));
        assert!(!dominates(&worse, &better));
    }

    #[test]
    fn trade_offs_do_not_dominate() {
        let fast = point(100.0, 2.0, 5.0, Some(3.0));
        let frugal = point(50.0, 1.0, 5.0, Some(3.0));
        assert!(!dominates(&fast, &frugal));
        assert!(!dominates(&frugal, &fast));
        let frontier = pareto_frontier(&[fast, frugal]);
        assert_eq!(frontier, vec![0, 1]);
    }

    #[test]
    fn equal_points_do_not_dominate_each_other() {
        let a = point(100.0, 1.0, 5.0, Some(3.0));
        assert!(!dominates(&a, &a.clone()));
        // Both duplicates survive: neither strictly beats the other.
        assert_eq!(pareto_frontier(&[a.clone(), a]).len(), 2);
    }

    #[test]
    fn unbounded_lifetime_beats_any_finite_one() {
        let immortal = point(100.0, 1.0, 5.0, None);
        let mortal = point(100.0, 1.0, 5.0, Some(1000.0));
        assert!(dominates(&immortal, &mortal));
    }

    #[test]
    fn unplaceable_points_never_reach_the_frontier() {
        let mut dead = point(1e9, 0.0, 0.0, None);
        dead.placeable = false;
        let live = point(10.0, 5.0, 9.0, Some(0.1));
        assert_eq!(pareto_frontier(&[dead, live]), vec![1]);
    }

    #[test]
    fn dominated_point_is_filtered() {
        let a = point(100.0, 1.0, 5.0, None);
        let b = point(90.0, 1.5, 6.0, Some(3.0));
        let c = point(120.0, 3.0, 5.0, Some(3.0));
        assert_eq!(pareto_frontier(&[a, b, c]), vec![0, 2]);
    }
}
