"""Tests for RSpec generation and parsing."""

import pytest

from repro.errors import RSpecError
from repro.testbed.rspec import (
    RSpecDocument,
    RSpecLink,
    RSpecNode,
    SoftwareInstall,
    parse_rspec,
    star_rspec,
)


class TestModels:
    def test_node_requires_name(self):
        with pytest.raises(RSpecError):
            RSpecNode(client_id="")

    def test_link_requires_distinct_endpoints(self):
        with pytest.raises(RSpecError):
            RSpecLink(
                client_id="l", endpoints=("a", "a"), capacity_kbps=100
            )

    def test_link_capacity_positive(self):
        with pytest.raises(RSpecError):
            RSpecLink(
                client_id="l", endpoints=("a", "b"), capacity_kbps=0
            )

    def test_document_rejects_duplicate_nodes(self):
        with pytest.raises(RSpecError):
            RSpecDocument(
                nodes=(RSpecNode("a"), RSpecNode("a")), links=()
            )

    def test_document_rejects_dangling_link(self):
        with pytest.raises(RSpecError):
            RSpecDocument(
                nodes=(RSpecNode("a"),),
                links=(
                    RSpecLink(
                        client_id="l",
                        endpoints=("a", "ghost"),
                        capacity_kbps=1,
                    ),
                ),
            )

    def test_node_lookup(self):
        document = star_rspec(n_peers=1, capacity_kbps=1000)
        assert document.node("seeder").client_id == "seeder"
        with pytest.raises(RSpecError):
            document.node("nope")


class TestStarRspec:
    def test_paper_slice_shape(self):
        document = star_rspec(n_peers=19, capacity_kbps=8192)
        # 19 peers + seeder + hub
        assert len(document.nodes) == 21
        assert len(document.links) == 20

    def test_every_link_touches_hub(self):
        document = star_rspec(n_peers=3, capacity_kbps=1000)
        for link in document.links:
            assert "switch" in link.endpoints

    def test_manual_install_flag_set(self):
        document = star_rspec(n_peers=1, capacity_kbps=1000)
        seeder = document.node("seeder")
        assert any(install.manual for install in seeder.installs)

    def test_invalid_peer_count(self):
        with pytest.raises(RSpecError):
            star_rspec(n_peers=0, capacity_kbps=1000)


class TestXmlRoundTrip:
    def test_roundtrip_preserves_structure(self):
        document = star_rspec(
            n_peers=4, capacity_kbps=2048, latency_ms=25.0,
            packet_loss=0.05,
        )
        parsed = parse_rspec(document.to_xml())
        assert len(parsed.nodes) == len(document.nodes)
        assert len(parsed.links) == len(document.links)
        for original, round_tripped in zip(
            document.links, parsed.links
        ):
            assert round_tripped.capacity_kbps == original.capacity_kbps
            assert round_tripped.latency_ms == pytest.approx(
                original.latency_ms
            )
            assert round_tripped.packet_loss == pytest.approx(
                original.packet_loss
            )

    def test_roundtrip_preserves_services(self):
        document = star_rspec(n_peers=1, capacity_kbps=1000)
        parsed = parse_rspec(document.to_xml())
        seeder = parsed.node("seeder")
        assert len(seeder.installs) == 2
        assert seeder.execute

    def test_xml_contains_fig1_attributes(self):
        xml = star_rspec(n_peers=1, capacity_kbps=1000).to_xml()
        for attribute in ("capacity", "latency", "packet_loss"):
            assert attribute in xml

    def test_malformed_xml_rejected(self):
        with pytest.raises(RSpecError):
            parse_rspec("<rspec>not closed")

    def test_link_without_property_rejected(self):
        xml = (
            '<rspec type="request" '
            'xmlns="http://www.geni.net/resources/rspec/3">'
            '<node client_id="a"/><node client_id="b"/>'
            '<link client_id="l"/></rspec>'
        )
        with pytest.raises(RSpecError):
            parse_rspec(xml)

    def test_node_without_id_rejected(self):
        xml = (
            '<rspec type="request" '
            'xmlns="http://www.geni.net/resources/rspec/3">'
            "<node/></rspec>"
        )
        with pytest.raises(RSpecError):
            parse_rspec(xml)
