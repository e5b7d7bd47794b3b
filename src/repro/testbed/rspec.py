"""RSpec v3 documents (GENI resource specifications).

A faithful-but-minimal model of the GENI RSpec the paper used: Xen VM
nodes, point-to-point links with shaped capacity / latency / packet
loss (the paper's Fig. 1 shows exactly such a link element), and
install/execute services for software deployment.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from ..errors import RSpecError

RSPEC_NS = "http://www.geni.net/resources/rspec/3"

#: Default disk image the paper's nodes ran (Ubuntu 64-bit on Xen).
DEFAULT_DISK_IMAGE = (
    "urn:publicid:IDN+emulab.net+image+emulab-ops//UBUNTU14-64-STD"
)
DEFAULT_SLIVER_TYPE = "emulab-xen"


@dataclass(frozen=True, slots=True)
class SoftwareInstall:
    """An install service on a node.

    Attributes:
        url: tarball to fetch and unpack.
        install_path: where to unpack it.
        manual: True for packages whose licences blocked RSpec
            automation (the paper had to install those by hand).
    """

    url: str
    install_path: str = "/local"
    manual: bool = False


@dataclass(frozen=True, slots=True)
class RSpecNode:
    """One Xen VM in the slice.

    Attributes:
        client_id: node name within the slice.
        sliver_type: virtualization flavour (paper: Xen VMs).
        disk_image: OS image URN.
        installs: software install services.
        execute: shell commands run at boot.
    """

    client_id: str
    sliver_type: str = DEFAULT_SLIVER_TYPE
    disk_image: str = DEFAULT_DISK_IMAGE
    installs: tuple[SoftwareInstall, ...] = field(default_factory=tuple)
    execute: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.client_id:
            raise RSpecError("node client_id must be non-empty")


@dataclass(frozen=True, slots=True)
class RSpecLink:
    """A shaped point-to-point link between two node interfaces.

    Attributes:
        client_id: link name within the slice.
        endpoints: the two node client_ids the link joins.
        capacity_kbps: shaped rate in kilobits/second (RSpec convention).
        latency_ms: one-way delay in milliseconds.
        packet_loss: loss probability in [0, 1).
    """

    client_id: str
    endpoints: tuple[str, str]
    capacity_kbps: int
    latency_ms: float = 0.0
    packet_loss: float = 0.0

    def __post_init__(self) -> None:
        if not self.client_id:
            raise RSpecError("link client_id must be non-empty")
        if len(self.endpoints) != 2 or self.endpoints[0] == self.endpoints[1]:
            raise RSpecError(
                f"link {self.client_id}: endpoints must be two distinct "
                f"nodes, got {self.endpoints}"
            )
        if self.capacity_kbps <= 0:
            raise RSpecError(
                f"link {self.client_id}: capacity_kbps must be positive"
            )
        if self.latency_ms < 0:
            raise RSpecError(
                f"link {self.client_id}: latency_ms must be >= 0"
            )
        if not 0.0 <= self.packet_loss < 1.0:
            raise RSpecError(
                f"link {self.client_id}: packet_loss must be in [0, 1)"
            )


@dataclass(frozen=True, slots=True)
class RSpecDocument:
    """A whole request RSpec: nodes plus links."""

    nodes: tuple[RSpecNode, ...]
    links: tuple[RSpecLink, ...]

    def __post_init__(self) -> None:
        names = [node.client_id for node in self.nodes]
        if len(set(names)) != len(names):
            raise RSpecError("duplicate node client_ids")
        known = set(names)
        for link in self.links:
            for endpoint in link.endpoints:
                if endpoint not in known:
                    raise RSpecError(
                        f"link {link.client_id} references unknown node "
                        f"{endpoint!r}"
                    )

    def node(self, client_id: str) -> RSpecNode:
        """Look a node up by client_id."""
        for node in self.nodes:
            if node.client_id == client_id:
                return node
        raise RSpecError(f"unknown node {client_id!r}")

    def to_xml(self) -> str:
        """Serialize to GENI request-RSpec XML."""
        root = ET.Element(
            "rspec", {"type": "request", "xmlns": RSPEC_NS}
        )
        for node in self.nodes:
            node_el = ET.SubElement(
                root, "node", {"client_id": node.client_id}
            )
            ET.SubElement(
                node_el, "sliver_type", {"name": node.sliver_type}
            ).append(
                ET.Element("disk_image", {"name": node.disk_image})
            )
            if node.installs or node.execute:
                services = ET.SubElement(node_el, "services")
                for install in node.installs:
                    ET.SubElement(
                        services,
                        "install",
                        {
                            "url": install.url,
                            "install_path": install.install_path,
                            "manual": "true" if install.manual else "false",
                        },
                    )
                for command in node.execute:
                    ET.SubElement(
                        services,
                        "execute",
                        {"shell": "sh", "command": command},
                    )
        for link in self.links:
            link_el = ET.SubElement(
                root, "link", {"client_id": link.client_id}
            )
            for endpoint in link.endpoints:
                ET.SubElement(
                    link_el,
                    "interface_ref",
                    {"client_id": f"{endpoint}:if-{link.client_id}"},
                )
            ET.SubElement(
                link_el,
                "property",
                {
                    "source_id": link.endpoints[0],
                    "dest_id": link.endpoints[1],
                    "capacity": str(link.capacity_kbps),
                    "latency": str(link.latency_ms),
                    "packet_loss": str(link.packet_loss),
                },
            )
        ET.indent(root)
        return ET.tostring(root, encoding="unicode")


def parse_rspec(xml: str) -> RSpecDocument:
    """Parse request-RSpec XML back into an :class:`RSpecDocument`.

    Raises:
        RSpecError: on malformed XML or missing required attributes.
    """
    try:
        root = ET.fromstring(xml)
    except ET.ParseError as exc:
        raise RSpecError(f"malformed RSpec XML: {exc}") from exc
    ns = {"r": RSPEC_NS}
    nodes: list[RSpecNode] = []
    for node_el in root.findall("r:node", ns):
        client_id = node_el.get("client_id")
        if not client_id:
            raise RSpecError("node missing client_id")
        sliver = node_el.find("r:sliver_type", ns)
        sliver_type = (
            sliver.get("name", DEFAULT_SLIVER_TYPE)
            if sliver is not None
            else DEFAULT_SLIVER_TYPE
        )
        disk = (
            sliver.find("r:disk_image", ns) if sliver is not None else None
        )
        disk_image = (
            disk.get("name", DEFAULT_DISK_IMAGE)
            if disk is not None
            else DEFAULT_DISK_IMAGE
        )
        installs: list[SoftwareInstall] = []
        execute: list[str] = []
        services = node_el.find("r:services", ns)
        if services is not None:
            for install_el in services.findall("r:install", ns):
                url = install_el.get("url")
                if not url:
                    raise RSpecError(
                        f"install on {client_id} missing url"
                    )
                installs.append(
                    SoftwareInstall(
                        url=url,
                        install_path=install_el.get(
                            "install_path", "/local"
                        ),
                        manual=install_el.get("manual") == "true",
                    )
                )
            for execute_el in services.findall("r:execute", ns):
                command = execute_el.get("command")
                if command:
                    execute.append(command)
        nodes.append(
            RSpecNode(
                client_id=client_id,
                sliver_type=sliver_type,
                disk_image=disk_image,
                installs=tuple(installs),
                execute=tuple(execute),
            )
        )
    links: list[RSpecLink] = []
    for link_el in root.findall("r:link", ns):
        client_id = link_el.get("client_id")
        if not client_id:
            raise RSpecError("link missing client_id")
        prop = link_el.find("r:property", ns)
        if prop is None:
            raise RSpecError(f"link {client_id} missing property element")
        source = prop.get("source_id")
        dest = prop.get("dest_id")
        capacity = prop.get("capacity")
        if not (source and dest and capacity):
            raise RSpecError(
                f"link {client_id} property missing "
                "source_id/dest_id/capacity"
            )
        links.append(
            RSpecLink(
                client_id=client_id,
                endpoints=(source, dest),
                capacity_kbps=int(capacity),
                latency_ms=float(prop.get("latency", "0")),
                packet_loss=float(prop.get("packet_loss", "0")),
            )
        )
    return RSpecDocument(nodes=tuple(nodes), links=tuple(links))


def star_rspec(
    n_peers: int,
    capacity_kbps: int,
    latency_ms: float = 12.5,
    packet_loss: float = 0.0253,
    hub_name: str = "switch",
    seeder_name: str = "seeder",
    app_url: str = "http://example.org/p2p-streamer.tar.gz",
) -> RSpecDocument:
    """Build the paper's experimental slice: a star of Xen VMs.

    "The nodes are connected in a star topology using another virtual
    node" — the hub is an ordinary node acting as a software switch.

    Args:
        n_peers: number of leecher nodes (paper: 19, plus the seeder).
        capacity_kbps: access-link shaped rate, kilobits/second.
        latency_ms: per-access-link one-way delay (12.5 ms gives the
            paper's 50 ms peer-to-peer RTT).
        packet_loss: per-access-link loss (0.0253 per link compounds to
            the paper's 5 % end-to-end).
        hub_name / seeder_name: node names.
        app_url: tarball of the streaming application to install.

    Returns:
        The request RSpec for the slice.
    """
    if n_peers < 1:
        raise RSpecError(f"n_peers must be >= 1, got {n_peers}")
    app = SoftwareInstall(url=app_url)
    vnc = SoftwareInstall(
        url="http://example.org/unity-vnc.tar.gz", manual=True
    )
    nodes = [RSpecNode(client_id=hub_name)]
    nodes.append(
        RSpecNode(
            client_id=seeder_name,
            installs=(app, vnc),
            execute=(f"/local/p2p-streamer --seed --serve-manifest",),
        )
    )
    for i in range(n_peers):
        nodes.append(
            RSpecNode(
                client_id=f"peer-{i + 1}",
                installs=(app, vnc),
                execute=(
                    f"/local/p2p-streamer --join {seeder_name}",
                ),
            )
        )
    links = [
        RSpecLink(
            client_id=f"link-{node.client_id}",
            endpoints=(node.client_id, hub_name),
            capacity_kbps=capacity_kbps,
            latency_ms=latency_ms,
            packet_loss=packet_loss,
        )
        for node in nodes
        if node.client_id != hub_name
    ]
    return RSpecDocument(nodes=tuple(nodes), links=tuple(links))
