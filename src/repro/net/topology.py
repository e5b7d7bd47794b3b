"""Nodes and the paper's star topology.

The experiment connects twenty Xen VMs "in a star topology using
another virtual node" (Section V).  We model each node's access as a
pair of unidirectional links to an ideal hub: an uplink and a downlink
of equal capacity.  Any node pair's path is then
``src.uplink -> dst.downlink``, so upload contention at a busy seeder
and download contention at a busy leecher both emerge naturally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError, RoutingError
from .flownet import FlowNetwork
from .link import Link


@dataclass(frozen=True, slots=True)
class Node:
    """A host attached to the star.

    Attributes:
        name: unique node name.
        uplink: node-to-hub link (carries this node's uploads).
        downlink: hub-to-node link (carries this node's downloads).
    """

    name: str
    uplink: Link
    downlink: Link

    @property
    def bandwidth(self) -> float:
        """Access bandwidth in bytes/second (uplink == downlink)."""
        return self.uplink.capacity

    @property
    def latency_to_hub(self) -> float:
        """One-way latency from the node to the hub, seconds."""
        return self.uplink.latency


def per_link_loss(path_loss: float) -> float:
    """Per-access-link loss giving ``path_loss`` across a 2-link path.

    The paper quotes end-to-end loss (5 %); a 2-hop star path crosses
    two access links, so each carries ``1 - sqrt(1 - path_loss)``.
    """
    if not 0.0 <= path_loss < 1.0:
        raise ConfigurationError(
            f"path_loss must be in [0, 1), got {path_loss}"
        )
    return 1.0 - math.sqrt(1.0 - path_loss)


class StarTopology:
    """A star of nodes around an ideal hub.

    Typical use::

        topo = StarTopology()
        seeder = topo.add_node("seeder", bandwidth=kB_per_s(512),
                               latency_to_hub=0.475, loss_rate=0.0253)
        peer = topo.add_node("peer-1", bandwidth=kB_per_s(512),
                             latency_to_hub=0.025, loss_rate=0.0253)
        route = topo.route(seeder, peer)
    """

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}

    @property
    def nodes(self) -> list[Node]:
        """All nodes in insertion order."""
        return list(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> Node:
        """Look a node up by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise RoutingError(f"unknown node {name!r}") from None

    def add_node(
        self,
        name: str,
        bandwidth: float,
        latency_to_hub: float = 0.0,
        loss_rate: float = 0.0,
    ) -> Node:
        """Attach a node to the star.

        Args:
            name: unique node name.
            bandwidth: access-link capacity, bytes/second (both
                directions).
            latency_to_hub: one-way propagation delay to the hub,
                seconds.  Two nodes ``a`` and ``b`` then see a one-way
                path latency of ``a.latency + b.latency``.
            loss_rate: per-access-link loss probability (see
                :func:`per_link_loss` to derive it from an end-to-end
                target).

        Returns:
            The new :class:`Node`.
        """
        if name in self._nodes:
            raise ConfigurationError(f"duplicate node name {name!r}")
        node = Node(
            name=name,
            uplink=Link(
                f"{name}:up", bandwidth, latency_to_hub, loss_rate
            ),
            downlink=Link(
                f"{name}:down", bandwidth, latency_to_hub, loss_rate
            ),
        )
        self._nodes[name] = node
        return node

    def _check_pair(self, src: Node, dst: Node) -> None:
        if src.name not in self._nodes or dst.name not in self._nodes:
            raise RoutingError(
                f"both endpoints must belong to this topology: "
                f"{src.name!r} -> {dst.name!r}"
            )
        if src.name == dst.name:
            raise RoutingError(f"no route from {src.name!r} to itself")

    def route(self, src: Node, dst: Node) -> list[Link]:
        """The link path from ``src`` to ``dst`` through the hub."""
        self._check_pair(src, dst)
        return [src.uplink, dst.downlink]

    def one_way_latency(self, src: Node, dst: Node) -> float:
        """One-way propagation latency between two nodes, seconds.

        The sum over :meth:`route`'s two links, without building it.
        """
        self._check_pair(src, dst)
        return src.uplink.latency + dst.downlink.latency

    def set_node_bandwidth(
        self, network: FlowNetwork, node: Node, bandwidth: float
    ) -> None:
        """Change a node's access bandwidth mid-run (both directions).

        Goes through the flow network so active flows are re-shared
        immediately (variable-bandwidth experiments).
        """
        if node.name not in self._nodes:
            raise RoutingError(f"unknown node {node.name!r}")
        network.set_capacity(node.uplink, bandwidth)
        network.set_capacity(node.downlink, bandwidth)
