"""Adaptive-bitrate (ABR) streaming — the approach the paper argues
against.

"Their clients determine a bit-rate based on the available bandwidth.
As they keep the duration of the segment constant and vary the
bit-rates, it will degrade the video quality ...  Instead of varying
the bit-rate, we can vary the segment duration."

To quantify that argument, this package implements the contrasted
baseline: a multi-bitrate ladder (:mod:`repro.abr.ladder`), the
buffer-based client policy and a fixed-rung control
(:mod:`repro.abr.policy`), and a client-server streaming session
(:mod:`repro.abr.session`) reporting stalls *and* delivered quality.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "BitrateLadder": "ladder",
    "Rendition": "ladder",
    "encode_ladder": "ladder",
    "AbrPolicy": "policy",
    "BufferBasedAbr": "policy",
    "AbrMetrics": "session",
    "AbrSession": "session",
    "AbrSessionConfig": "session",
})
