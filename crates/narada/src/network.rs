//! The Broker Network Map: full-mesh broker deployments with a Broker
//! Discovery Node (the paper's "unit controller" that assigned addresses
//! to the other broker nodes), plus Dijkstra shortest-path routing used to
//! validate that the full mesh is the optimal topology at this scale.

use crate::broker::{Broker, BrokerControl, StatsHandle};
use crate::config::NaradaConfig;
use simcore::{Actor, ActorId, Context, Payload, SimDuration, Simulation};
use simnet::{Endpoint, NetworkFabric, Transport};
use simos::{NodeId, ProcessId};

/// A deployed broker network.
pub struct BrokerNetwork {
    /// Broker actor ids, by broker index.
    pub brokers: Vec<ActorId>,
    /// Broker endpoints, by broker index.
    pub endpoints: Vec<Endpoint>,
    /// Stats handles, by broker index.
    pub stats: Vec<StatsHandle>,
    /// The discovery node actor.
    pub bdn: ActorId,
}

impl BrokerNetwork {
    /// Deploy brokers on the given `(node, process)` pairs, fully meshed
    /// over TCP, and register them with a Broker Discovery Node. Peer
    /// assignments arrive via the BDN after `assign_delay` (the unit
    /// controller handing out addresses).
    pub fn deploy(
        sim: &mut Simulation,
        cfg: &NaradaConfig,
        hosts: &[(NodeId, ProcessId)],
        assign_delay: SimDuration,
    ) -> BrokerNetwork {
        let mut brokers = Vec::new();
        let mut endpoints = Vec::new();
        let mut stats = Vec::new();
        for &(node, proc) in hosts {
            let b = Broker::new(cfg.clone(), node, proc);
            stats.push(b.stats_handle());
            let id = sim.add_actor(b);
            brokers.push(id);
            endpoints.push(Endpoint::new(node, id));
        }
        // Full mesh of TCP links.
        let mut links = vec![Vec::new(); hosts.len()];
        {
            let net = sim
                .service_mut::<NetworkFabric>()
                .expect("NetworkFabric service registered");
            for i in 0..hosts.len() {
                for j in (i + 1)..hosts.len() {
                    let conn = net.open(
                        simcore::SimTime::ZERO,
                        Transport::Tcp,
                        endpoints[i],
                        endpoints[j],
                    );
                    links[i].push((j as u16, conn));
                    links[j].push((i as u16, conn));
                }
            }
        }
        // The BDN assigns peers after the assignment delay. It lives on
        // the first broker host (the paper's unit controller machine).
        let bdn = sim.add_actor(BrokerDiscoveryNode {
            brokers: endpoints.clone(),
        });
        for (ix, peers) in links.into_iter().enumerate() {
            sim.schedule(
                assign_delay,
                brokers[ix],
                Box::new(BrokerControl::SetPeers {
                    my_ix: ix as u16,
                    peers,
                }),
            );
        }
        BrokerNetwork {
            brokers,
            endpoints,
            stats,
            bdn,
        }
    }
}

/// Query message for the BDN.
pub struct DiscoverBrokers {
    /// Actor to answer.
    pub reply_to: ActorId,
}

/// Answer: the known broker endpoints.
pub struct BrokerList(pub Vec<Endpoint>);

/// The Broker Discovery Node: knows every broker in the network map and
/// answers discovery queries (new brokers / clients finding a broker).
pub struct BrokerDiscoveryNode {
    brokers: Vec<Endpoint>,
}

impl Actor for BrokerDiscoveryNode {
    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        if let Ok(q) = msg.downcast::<DiscoverBrokers>() {
            ctx.send_now(q.reply_to, BrokerList(self.brokers.clone()));
        }
    }
    fn name(&self) -> &str {
        "broker-discovery-node"
    }
}

/// Dijkstra shortest paths over a broker topology given as an adjacency
/// list with link weights (microseconds). Returns the distance from
/// `src` to every broker (`u64::MAX` if unreachable).
///
/// NaradaBrokering's BNM finds shortest routes between brokers; with the
/// full-mesh deployments used in the paper every route is one hop, and
/// this function is what the ablation uses to verify that claim.
pub fn shortest_paths(adj: &[Vec<(usize, u64)>], src: usize) -> Vec<u64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut dist = vec![u64::MAX; adj.len()];
    let mut heap = BinaryHeap::new();
    dist[src] = 0;
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(v, w) in &adj[u] {
            let nd = d.saturating_add(w);
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dijkstra_simple_graph() {
        // 0 —1→ 1 —1→ 2, plus a direct 0→2 edge of weight 5.
        let adj = vec![
            vec![(1, 1), (2, 5)],
            vec![(0, 1), (2, 1)],
            vec![(0, 5), (1, 1)],
        ];
        assert_eq!(shortest_paths(&adj, 0), vec![0, 1, 2]);
        assert_eq!(shortest_paths(&adj, 2), vec![2, 1, 0]);
    }

    #[test]
    fn dijkstra_unreachable() {
        let adj = vec![vec![(1, 1)], vec![(0, 1)], vec![]];
        let d = shortest_paths(&adj, 0);
        assert_eq!(d[2], u64::MAX);
    }

    #[test]
    fn full_mesh_is_single_hop() {
        // 4-broker full mesh with uniform weights: every pair distance 1.
        let n = 4;
        let adj: Vec<Vec<(usize, u64)>> = (0..n)
            .map(|i| (0..n).filter(|&j| j != i).map(|j| (j, 1)).collect())
            .collect();
        for i in 0..n {
            let d = shortest_paths(&adj, i);
            for (j, &dist) in d.iter().enumerate() {
                assert_eq!(dist, u64::from(i != j));
            }
        }
    }
}
