"""GENI-like testbed: RSpec documents.

The paper provisions its 20-node star on GENI with an RSpec (Fig. 1
shows a link element carrying capacity, latency, and packet loss) and
installs the application via RSpec install/execute services.
:mod:`repro.testbed.rspec` builds and parses those RSpec v3 XML
documents; ``repro rspec`` prints the paper's star.
"""

from ..lazy import lazy_exports

__all__ = [
    "RSpecDocument",
    "RSpecLink",
    "RSpecNode",
    "SoftwareInstall",
    "parse_rspec",
    "star_rspec",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "RSpecDocument": "rspec",
    "RSpecLink": "rspec",
    "RSpecNode": "rspec",
    "SoftwareInstall": "rspec",
    "parse_rspec": "rspec",
    "star_rspec": "rspec",
})
