"""GENI-like testbed: RSpec documents and their deployment.

The paper provisions its 20-node star on GENI with an RSpec (Fig. 1
shows a link element carrying capacity, latency, and packet loss) and
installs the application via RSpec install/execute services.  This
package reproduces that layer:

* :mod:`repro.testbed.rspec` — build and parse RSpec v3 XML documents;
* :mod:`repro.testbed.geni` — "deploy" an RSpec onto the simulator,
  i.e. derive the star topology and a
  :class:`~repro.p2p.swarm.SwarmConfig` from the document.
"""

from ..lazy import lazy_exports

__all__ = [
    "InstaGeniRack",
    "RSpecDocument",
    "RSpecLink",
    "RSpecNode",
    "SoftwareInstall",
    "parse_rspec",
    "star_rspec",
    "swarm_config_from_rspec",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "InstaGeniRack": "geni",
    "swarm_config_from_rspec": "geni",
    "RSpecDocument": "rspec",
    "RSpecLink": "rspec",
    "RSpecNode": "rspec",
    "SoftwareInstall": "rspec",
    "parse_rspec": "rspec",
    "star_rspec": "rspec",
})
