"""Unit helpers and constants.

The paper mixes ``kb/s`` (it writes "1 Mbps (128kB/s)"), kilobytes per
second, and seconds.  Internally the library uses **bytes** for sizes,
**bytes per second** for rates, and **seconds** for durations — always as
plain ``int``/``float``.  These helpers make call sites read like the
paper's own parameter tables.
"""

from __future__ import annotations

from .errors import ConfigurationError

#: Bytes per kilobyte (the paper's "kB" is the decimal kilobyte).
KILOBYTE = 1000

#: Bytes per megabyte.
MEGABYTE = 1000 * KILOBYTE

#: Bits per byte.
BITS_PER_BYTE = 8

#: Ethernet-ish maximum segment size used by the TCP model, in bytes.
DEFAULT_MSS = 1460


def mbps(n: float) -> float:
    """Return ``n`` megabits/second as bytes/second."""
    _require_non_negative(n, "mbps")
    return n * MEGABYTE / BITS_PER_BYTE


def kB_per_s(n: float) -> float:
    """Return ``n`` kilobytes/second as bytes/second.

    This is the unit the paper's x-axes use (128, 256, 512, 768 kB/s).
    """
    _require_non_negative(n, "kB_per_s")
    return n * KILOBYTE


def milliseconds(n: float) -> float:
    """Return ``n`` milliseconds as seconds."""
    _require_non_negative(n, "milliseconds")
    return n / 1000.0


def minutes(n: float) -> float:
    """Return ``n`` minutes as seconds."""
    _require_non_negative(n, "minutes")
    return n * 60.0


def as_kB_per_s(rate: float) -> float:
    """Express a bytes/second rate in kB/s (for reports)."""
    return rate / KILOBYTE


def _require_non_negative(value: float, name: str) -> None:
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")
