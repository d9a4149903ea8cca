//! The regime catalog and the deterministic cascade generator.
//!
//! Everything an index `i` of a regime stream produces is derived from
//! one [`SmallRng`] seeded with `splitmix64_at(base, i + 1)`, where
//! `base` mixes the regime name with the caller's seed and
//! `splitmix64_at(base, 0)` seeds the regime's graph. Random access
//! into the SplitMix64 sequence is what makes slices re-derivable
//! without replaying a prefix; see `docs/SCENARIOS.md` for the
//! contract in full.

use dlm_cascade::hops::hop_groups;
use dlm_data::simulate::SIMULATED_SUBMIT_TIME;
use dlm_graph::generators::{
    erdos_renyi, preferential_attachment, watts_strogatz, PreferentialAttachmentConfig,
};
use dlm_graph::DiGraph;
use dlm_numerics::mix::{splitmix64_at, splitmix64_mix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cascade::{Delivery, ScenarioCascade};
use crate::{Result, ScenarioError};

/// Hop-group depth every scenario cascade is bucketed to — matches the
/// paper's protocol (distances 1..=4 carry the signal on Digg-like
/// graphs) and the soak harness's `open` requests.
pub const SCENARIO_MAX_HOPS: u32 = 4;

/// Seconds per modeled hour.
const HOUR: u64 = 3600;

/// How a regime's social graph is wired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Topology {
    /// Erdős–Rényi `G(n, p)`: no hubs, no clustering — the null model.
    ErdosRenyi {
        /// Node count.
        nodes: usize,
        /// Independent edge probability.
        p: f64,
    },
    /// Digg-like preferential attachment with reciprocation and triad
    /// closure: heavy-tailed degrees, real hubs.
    PreferentialAttachment {
        /// Node count.
        nodes: usize,
        /// Out-edges per arriving node.
        edges_per_node: usize,
    },
    /// Watts–Strogatz small world: strong local community structure
    /// with a few long-range shortcuts.
    WattsStrogatz {
        /// Node count.
        nodes: usize,
        /// Ring neighbors per side before rewiring.
        k: usize,
        /// Rewiring probability.
        beta: f64,
    },
}

/// The macroscopic spread pattern votes follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One hub reaches its direct audience; deeper hops stay nearly
    /// silent. The Twitter model-comparison study found this is how
    /// *most* popular content actually spreads.
    Broadcast,
    /// A wave passes distance by distance — hop `d` peaks around hour
    /// `1.5 · d`. The regime the DL model's moving influence front was
    /// built for.
    Viral,
    /// Near hops (1–2) saturate early; far hops (3–4) light up only
    /// after the midpoint, as if a bridge node carried the story into
    /// another community.
    Bridged,
}

impl Shape {
    /// Per-scan adoption probability for a not-yet-voted node at hop
    /// distance `d` during hour `h`. Built only from exactly-rounded
    /// IEEE ops (add/sub/mul/div/abs) so the threshold a random draw
    /// is compared against is bit-identical on every platform.
    fn probability(self, d: u32, h: u32, horizon: u32) -> f64 {
        let hf = f64::from(h);
        match self {
            Self::Broadcast => {
                let decay = geometric(0.55, h - 1);
                if d == 1 {
                    0.5 * decay
                } else {
                    // Deep hop groups on a scale-free graph hold most
                    // of the population, so the per-node trickle must
                    // be tiny for the cascade to stay a broadcast.
                    0.002 * geometric(0.6, h - 1)
                }
            }
            Self::Viral => {
                // Triangular bump centered at h = 1.5 d, half-width 2.5.
                let center = 1.5 * f64::from(d);
                let w = 1.0 - (hf - center).abs() / 2.5;
                0.35 * w.max(0.0)
            }
            Self::Bridged => {
                let mid = horizon / 2;
                if h <= mid {
                    if d <= 2 {
                        0.22 * geometric(0.7, h - 1)
                    } else {
                        0.0
                    }
                } else if d >= 3 {
                    0.3 * geometric(0.75, h - mid - 1)
                } else {
                    0.01
                }
            }
        }
    }
}

/// `base * ratio^n` by repeated multiplication — `powi`'s rounding is
/// implementation-defined, a plain product loop is not.
fn geometric(ratio: f64, n: u32) -> f64 {
    let mut out = 1.0;
    for _ in 0..n {
        out *= ratio;
    }
    out
}

/// Time-varying modulation of the adoption probabilities — the
/// "diffusivity" knob of the DL PDE, varied over wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diffusivity {
    /// No modulation.
    Constant,
    /// Quiet start, a 1.8× burst through the middle third of the
    /// horizon, quiet tail — stresses fits observed before the burst.
    Surge,
}

impl Diffusivity {
    fn factor(self, h: u32, horizon: u32) -> f64 {
        match self {
            Self::Constant => 1.0,
            Self::Surge => {
                if h > horizon / 3 && h <= 2 * horizon / 3 {
                    1.8
                } else {
                    0.5
                }
            }
        }
    }
}

/// A named workload family: topology × shape × diffusivity × storm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regime {
    /// Catalog name — the `serve_load` run name / wire `regime` value.
    pub name: &'static str,
    /// One-line description for docs and artifacts.
    pub summary: &'static str,
    /// Graph family.
    pub topology: Topology,
    /// Spread pattern.
    pub shape: Shape,
    /// Time modulation.
    pub diffusivity: Diffusivity,
    /// Whether deliveries are reordered in-hour and spiked with late
    /// echoes the server must reject.
    pub storm: bool,
    /// Forecast horizon in hours.
    pub horizon: u32,
}

/// Every named regime. Names are wire-visible (the `regime` label on
/// `dlm_cascades_opened_total`) — add, don't rename.
static CATALOG: [Regime; 6] = [
    Regime {
        name: "broadcast",
        summary: "hub blasts its direct audience on a scale-free graph; deeper hops stay quiet",
        topology: Topology::PreferentialAttachment {
            nodes: 600,
            edges_per_node: 4,
        },
        shape: Shape::Broadcast,
        diffusivity: Diffusivity::Constant,
        storm: false,
        horizon: 8,
    },
    Regime {
        name: "viral",
        summary: "hop-by-hop wave on a scale-free graph; the DL model's home turf",
        topology: Topology::PreferentialAttachment {
            nodes: 600,
            edges_per_node: 4,
        },
        shape: Shape::Viral,
        diffusivity: Diffusivity::Constant,
        storm: false,
        horizon: 8,
    },
    Regime {
        name: "bridged",
        summary: "small-world communities: near hops saturate, far hops ignite after a mid-horizon bridge",
        topology: Topology::WattsStrogatz {
            nodes: 500,
            k: 3,
            beta: 0.08,
        },
        shape: Shape::Bridged,
        diffusivity: Diffusivity::Constant,
        storm: false,
        horizon: 8,
    },
    Regime {
        name: "erdos-viral",
        summary: "viral wave on a hubless Erdos-Renyi graph — the null-topology control",
        topology: Topology::ErdosRenyi {
            nodes: 500,
            p: 0.012,
        },
        shape: Shape::Viral,
        diffusivity: Diffusivity::Constant,
        storm: false,
        horizon: 8,
    },
    Regime {
        name: "surge",
        summary: "viral shape with a mid-horizon diffusivity burst the observed hours never see",
        topology: Topology::PreferentialAttachment {
            nodes: 600,
            edges_per_node: 4,
        },
        shape: Shape::Viral,
        diffusivity: Diffusivity::Surge,
        storm: false,
        horizon: 8,
    },
    Regime {
        name: "storm",
        summary: "broadcast shape with in-hour reordering and late echoes the server must reject",
        topology: Topology::PreferentialAttachment {
            nodes: 600,
            edges_per_node: 4,
        },
        shape: Shape::Broadcast,
        diffusivity: Diffusivity::Constant,
        storm: true,
        horizon: 8,
    },
];

/// The full regime catalog, in stable order.
#[must_use]
pub fn catalog() -> &'static [Regime] {
    &CATALOG
}

/// Looks a regime up by its catalog name.
///
/// # Errors
///
/// [`ScenarioError::UnknownRegime`] when no regime carries `name`.
pub fn find_regime(name: &str) -> Result<&'static Regime> {
    CATALOG
        .iter()
        .find(|r| r.name == name)
        .ok_or_else(|| ScenarioError::UnknownRegime(name.to_owned()))
}

/// Folds a regime name into a 64-bit tag so distinct regimes at the
/// same seed get unrelated streams.
fn regime_tag(name: &str) -> u64 {
    name.bytes().fold(0x5343_454E_5F54_4147, |acc, b| {
        splitmix64_mix(acc ^ u64::from(b))
    })
}

impl Regime {
    /// The SplitMix64 base state every derived seed of `(self, seed)`
    /// comes from: position 0 seeds the graph, position `i + 1` seeds
    /// cascade `i`.
    #[must_use]
    pub fn stream_base(&self, seed: u64) -> u64 {
        splitmix64_mix(regime_tag(self.name) ^ splitmix64_mix(seed))
    }

    /// Generates the regime's graph for `seed`. Same `(regime, seed)`
    /// → byte-identical graph, independent of which cascades are ever
    /// drawn from it.
    ///
    /// # Errors
    ///
    /// Propagates generator parameter errors (a catalog bug).
    pub fn graph(&self, seed: u64) -> Result<DiGraph> {
        let graph_seed = splitmix64_at(self.stream_base(seed), 0);
        let graph = match self.topology {
            Topology::ErdosRenyi { nodes, p } => erdos_renyi(nodes, p, graph_seed)?,
            Topology::PreferentialAttachment {
                nodes,
                edges_per_node,
            } => preferential_attachment(
                PreferentialAttachmentConfig {
                    nodes,
                    edges_per_node,
                    reciprocation: 0.4,
                    triad_closure: 0.3,
                },
                graph_seed,
            )?,
            Topology::WattsStrogatz { nodes, k, beta } => {
                watts_strogatz(nodes, k, beta, graph_seed)?
            }
        };
        Ok(graph)
    }

    /// Generates cascade `index` of the `(self, seed)` stream — a pure
    /// function of its three arguments given the stream's graph (itself
    /// pure in `(self, seed)`). O(index) nowhere: any index is direct.
    ///
    /// # Errors
    ///
    /// Propagates hop-grouping failure for a graph with no usable
    /// initiator (catalog graphs always have one).
    pub fn cascade(&self, graph: &DiGraph, seed: u64, index: u64) -> Result<ScenarioCascade> {
        let mut rng =
            SmallRng::seed_from_u64(splitmix64_at(self.stream_base(seed), index.wrapping_add(1)));
        let initiator = self.pick_initiator(graph, &mut rng);
        let groups = hop_groups(graph, initiator, SCENARIO_MAX_HOPS)?;
        let submit = SIMULATED_SUBMIT_TIME;
        let mut voted = vec![false; graph.node_count()];
        let mut deliveries = Vec::with_capacity(self.horizon as usize);
        for h in 1..=self.horizon {
            let mut hour: Vec<(u64, usize)> = Vec::new();
            for (gi, group) in groups.iter().enumerate() {
                let d = gi as u32 + 1;
                let p = (self.shape.probability(d, h, self.horizon)
                    * self.diffusivity.factor(h, self.horizon))
                .clamp(0.0, 0.95);
                if p <= 0.0 {
                    continue;
                }
                for &u in group {
                    if !voted[u] && rng.gen::<f64>() < p {
                        voted[u] = true;
                        // Offsets stay strictly positive so no follower
                        // ever ties the initiator's own vote at the
                        // submission instant (the Digg fixture relies
                        // on that vote being uniquely first).
                        let ts = submit + u64::from(h - 1) * HOUR + 1 + rng.gen_range(0..HOUR - 1);
                        hour.push((ts, u));
                    }
                }
            }
            hour.sort_unstable();
            if self.storm {
                // Fisher–Yates: the wire sees the hour's votes in a
                // scrambled (but still fully deterministic) order.
                for i in (1..hour.len()).rev() {
                    hour.swap(i, rng.gen_range(0..i + 1));
                }
            }
            deliveries.push(Delivery {
                now: submit + u64::from(h) * HOUR,
                votes: hour,
                late: false,
            });
            if self.storm && rng.gen::<f64>() < 0.6 {
                // A late echo into an hour the delivery above closed.
                let j = rng.gen_range(1..h + 1);
                let ts = submit + u64::from(j - 1) * HOUR + rng.gen_range(0..HOUR);
                let mut gi = rng.gen_range(0..groups.len());
                while groups[gi].is_empty() {
                    gi = (gi + 1) % groups.len();
                }
                let voter = groups[gi][rng.gen_range(0..groups[gi].len())];
                deliveries.push(Delivery {
                    now: submit + u64::from(h) * HOUR,
                    votes: vec![(ts, voter)],
                    late: true,
                });
            }
        }
        Ok(ScenarioCascade {
            regime: self.name,
            index,
            initiator,
            submit_time: submit,
            horizon: self.horizon,
            deliveries,
        })
    }

    /// Chooses the cascade's initiator: broadcast regimes start at one
    /// of the graph's top hubs (that's what a broadcast *is*), other
    /// shapes at a uniformly drawn node with at least one follower.
    fn pick_initiator(&self, graph: &DiGraph, rng: &mut SmallRng) -> usize {
        let hubs = top_hubs(graph, 8);
        if matches!(self.shape, Shape::Broadcast) {
            return hubs[rng.gen_range(0..hubs.len())];
        }
        for _ in 0..16 {
            let u = rng.gen_range(0..graph.node_count());
            if graph.out_degree(u) > 0 {
                return u;
            }
        }
        hubs[0]
    }
}

/// The `k` nodes with the highest out-degree (most followers), ties to
/// the lowest id — a single O(n·k) pass, no allocation beyond the
/// result.
fn top_hubs(graph: &DiGraph, k: usize) -> Vec<usize> {
    let mut hubs: Vec<usize> = Vec::with_capacity(k);
    for u in 0..graph.node_count() {
        let d = graph.out_degree(u);
        let pos = hubs
            .iter()
            .position(|&h| graph.out_degree(h) < d)
            .unwrap_or(hubs.len());
        if pos < k {
            hubs.insert(pos, u);
            hubs.truncate(k);
        }
    }
    hubs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_findable() {
        for r in catalog() {
            assert!(std::ptr::eq(find_regime(r.name).unwrap(), r));
        }
        let mut names: Vec<&str> = catalog().iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog().len());
        assert!(find_regime("no-such-regime").is_err());
    }

    #[test]
    fn cascade_is_pure_in_regime_seed_index() {
        for r in catalog() {
            let graph = r.graph(11).unwrap();
            let a = r.cascade(&graph, 11, 5).unwrap();
            let b = r.cascade(&graph, 11, 5).unwrap();
            assert_eq!(a.canonical_bytes(), b.canonical_bytes(), "{}", r.name);
            let other_index = r.cascade(&graph, 11, 6).unwrap();
            assert_ne!(a.canonical_bytes(), other_index.canonical_bytes());
            let other_seed_graph = r.graph(12).unwrap();
            let other_seed = r.cascade(&other_seed_graph, 12, 5).unwrap();
            assert_ne!(a.canonical_bytes(), other_seed.canonical_bytes());
        }
    }

    #[test]
    fn regimes_at_one_seed_have_unrelated_streams() {
        let broadcast = find_regime("broadcast").unwrap();
        let viral = find_regime("viral").unwrap();
        assert_ne!(broadcast.stream_base(7), viral.stream_base(7));
    }

    #[test]
    fn every_regime_produces_votes_and_valid_hours() {
        for r in catalog() {
            let graph = r.graph(3).unwrap();
            let c = r.cascade(&graph, 3, 0).unwrap();
            let accepted = c.accepted_votes();
            assert!(
                accepted.len() >= 8,
                "{} produced only {} votes",
                r.name,
                accepted.len()
            );
            // No duplicate voters, nobody votes before submission or
            // past the horizon, and the initiator never votes.
            let mut voters: Vec<usize> = accepted.iter().map(|&(_, u)| u).collect();
            voters.sort_unstable();
            let n = voters.len();
            voters.dedup();
            assert_eq!(voters.len(), n, "{}", r.name);
            let end = c.submit_time + u64::from(c.horizon) * HOUR;
            for &(ts, u) in &accepted {
                assert!(ts >= c.submit_time && ts < end);
                assert_ne!(u, c.initiator);
            }
        }
    }

    #[test]
    fn only_storm_regimes_emit_late_deliveries() {
        for r in catalog() {
            let graph = r.graph(5).unwrap();
            let mut late_total = 0;
            for i in 0..8 {
                let c = r.cascade(&graph, 5, i).unwrap();
                late_total += c.late_deliveries();
                for d in c.deliveries.iter().filter(|d| d.late) {
                    assert_eq!(d.votes.len(), 1, "late echoes ride alone");
                }
            }
            if r.storm {
                assert!(late_total > 0, "{} never stormed", r.name);
            } else {
                assert_eq!(late_total, 0, "{}", r.name);
            }
        }
    }

    #[test]
    fn broadcast_concentrates_at_hop_one_and_viral_reaches_deeper() {
        let count_by_depth = |name: &str| -> (usize, usize) {
            let r = find_regime(name).unwrap();
            let graph = r.graph(9).unwrap();
            let mut near = 0;
            let mut far = 0;
            for i in 0..6 {
                let c = r.cascade(&graph, 9, i).unwrap();
                let groups = hop_groups(&graph, c.initiator, SCENARIO_MAX_HOPS).unwrap();
                for (ts, u) in c.accepted_votes() {
                    let _ = ts;
                    match groups.iter().position(|g| g.contains(&u)) {
                        Some(0) => near += 1,
                        Some(_) => far += 1,
                        None => panic!("voter outside hop groups"),
                    }
                }
            }
            (near, far)
        };
        let (b_near, b_far) = count_by_depth("broadcast");
        let (v_near, v_far) = count_by_depth("viral");
        assert!(b_near > 10 * b_far.max(1), "broadcast: {b_near} vs {b_far}");
        assert!(v_far > b_far, "viral depth {v_far} <= broadcast {b_far}");
        assert!(v_near > 0);
    }
}
