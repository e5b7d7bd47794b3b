"""Discrete-event network simulator.

A flow-level model of the paper's GENI star topology:

* :mod:`repro.net.engine` — the event loop and simulated clock;
* :mod:`repro.net.link` — capacity/latency/loss links;
* :mod:`repro.net.flownet` — max-min fair bandwidth sharing across
  concurrent flows (progressive filling, re-solved incrementally:
  only link-connected components touched by an update recompute, and
  same-timestamp updates coalesce into one solve);
* :mod:`repro.net.tcp` — an analytic TCP connection model layered on
  the flow network: handshake, slow-start ramp, Mathis loss cap;
* :mod:`repro.net.topology` — nodes, star topology, routing.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "EventHandle": "engine",
    "Simulator": "engine",
    "Flow": "flownet",
    "FlowNetwork": "flownet",
    "Link": "link",
    "TcpParams": "tcp",
    "TcpTransfer": "tcp",
    "ppspp_params": "tcp",
    "start_tcp_transfer": "tcp",
    "Node": "topology",
    "StarTopology": "topology",
})
