//! The four training topologies of §VI-B.

use core::fmt;

use crate::network::Network;

/// Which layers train online after the TL model is deployed.
///
/// The paper: "For RL, we use 4 topologies, E2E (end-to-end RL) and L2,
/// L3, and L4, where Li represents TL followed by RL where the last
/// i-layers are trained online." On the full AlexNet these correspond to
/// 3.7 % (L2), 11.2 % (L3) and 26.1 % (L4) of all weights (Fig. 3).
///
/// # Examples
///
/// ```
/// use mramrl_nn::{NetworkSpec, Topology};
///
/// let mut net = NetworkSpec::micro(16, 1, 5).build(0);
/// Topology::L2.apply(&mut net);
/// let l2 = net.trainable_param_count();
/// Topology::E2E.apply(&mut net);
/// assert!(l2 < net.trainable_param_count());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Online-train the last 2 FC layers (FC4+FC5, ≈4 % of weights).
    L2,
    /// Online-train the last 3 FC layers (FC3–FC5, ≈11 %).
    L3,
    /// Online-train the last 4 FC layers (FC2–FC5, ≈26 %).
    L4,
    /// End-to-end: all layers train online (the baseline).
    E2E,
}

impl Topology {
    /// All topologies in the paper's plot order.
    pub const ALL: [Topology; 4] = [Topology::L2, Topology::L3, Topology::L4, Topology::E2E];

    /// Number of tail FC layers trained online (`None` = all layers).
    pub fn tail(self) -> Option<usize> {
        match self {
            Topology::L2 => Some(2),
            Topology::L3 => Some(3),
            Topology::L4 => Some(4),
            Topology::E2E => None,
        }
    }

    /// `true` if parameterised layer `i` (forward order) of a network
    /// with `n` such layers trains online under this topology.
    pub fn trains(self, i: usize, n: usize) -> bool {
        match self.tail() {
            Some(k) => i + k >= n,
            None => true,
        }
    }

    /// Applies the freezing pattern to a network.
    pub fn apply(self, net: &mut Network) {
        match self.tail() {
            Some(k) => net.set_trainable_tail(k),
            None => net.set_all_trainable(),
        }
    }

    /// `true` for the partial-training topologies that keep the NVM
    /// read-only in flight.
    pub fn is_nvm_write_free(self) -> bool {
        self != Topology::E2E
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Topology::L2 => "L2",
            Topology::L3 => "L3",
            Topology::L4 => "L4",
            Topology::E2E => "E2E",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails() {
        assert_eq!(Topology::L2.tail(), Some(2));
        assert_eq!(Topology::L3.tail(), Some(3));
        assert_eq!(Topology::L4.tail(), Some(4));
        assert_eq!(Topology::E2E.tail(), None);
    }

    #[test]
    fn trains_the_tail_of_the_layer_list() {
        let trained = |t: Topology| (0..10).filter(|&i| t.trains(i, 10)).collect::<Vec<_>>();
        assert_eq!(trained(Topology::L2), vec![8, 9]);
        assert_eq!(trained(Topology::L4), vec![6, 7, 8, 9]);
        assert_eq!(trained(Topology::E2E), (0..10).collect::<Vec<_>>());
        // A tail longer than the network trains all of it.
        assert!(Topology::L4.trains(0, 3));
    }

    #[test]
    fn trainable_ordering_l2_l3_l4_e2e() {
        let mut net = crate::spec::NetworkSpec::micro(16, 1, 5).build(0);
        let mut counts = Vec::new();
        for t in Topology::ALL {
            t.apply(&mut net);
            counts.push(net.trainable_param_count());
        }
        assert!(counts.windows(2).all(|w| w[0] < w[1]), "{counts:?}");
    }

    #[test]
    fn paper_weight_fractions_on_full_alexnet() {
        // Spec-level check (no allocation): tie topology tails to the
        // Fig. 3(b) fractions.
        let spec = crate::spec::NetworkSpec::date19_alexnet();
        let frac = |t: Topology| match t.tail() {
            Some(k) => spec.trainable_fraction_for_tail(k),
            None => 1.0,
        };
        assert!((frac(Topology::L2) * 100.0 - 3.74).abs() < 0.01);
        assert!((frac(Topology::L3) * 100.0 - 11.21).abs() < 0.01);
        assert!((frac(Topology::L4) * 100.0 - 26.14).abs() < 0.01);
        assert_eq!(frac(Topology::E2E), 1.0);
    }

    #[test]
    fn only_e2e_writes_nvm() {
        assert!(!Topology::E2E.is_nvm_write_free());
        for t in [Topology::L2, Topology::L3, Topology::L4] {
            assert!(t.is_nvm_write_free());
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(Topology::L4.to_string(), "L4");
        assert_eq!(Topology::E2E.to_string(), "E2E");
    }
}
