"""Random sampling helpers used throughout the generators and analyses.

All randomness in the library flows through :func:`make_rng` so that a
single integer seed makes a whole synthetic-trace run reproducible.
"""

from __future__ import annotations

import zlib

import numpy as np


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged so components can share one stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


#: 64-bit golden-ratio multiplier used to spread small integer seeds over
#: the whole key space before combining with a domain hash.
_GOLDEN = 0x9E3779B97F4A7C15
_U64 = 0xFFFFFFFFFFFFFFFF


def counter_rng(seed: int, domain: str, index: int) -> np.random.Generator:
    """A counter-based random stream keyed on ``(seed, domain, index)``.

    Built on Philox, whose streams are indexed by key rather than by
    consuming a parent generator's state: the stream for a given key is
    identical no matter how many other streams were created before it, in
    what order, or in which process.  The simulator keys one stream per
    request (``domain="request"``, ``index=request_id``; it re-keys one
    :class:`CounterStreams` rather than calling this per request) so every
    stochastic draw is a pure function of the request — the property that
    makes shard-parallel execution bit-identical to the sequential loop.
    """
    key = np.array([_domain_key(seed, domain), index & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _domain_key(seed: int, domain: str) -> int:
    """First Philox key word of every ``(seed, domain)`` stream."""
    return (seed * _GOLDEN + zlib.crc32(domain.encode("utf-8"))) & _U64


class CounterStreams:
    """Every ``counter_rng(seed, domain, index)`` stream from one Philox.

    Building a ``Generator(Philox(key))`` costs several microseconds, more
    than the handful of draws a per-request stream serves.  ``at(index)``
    instead re-keys one bit generator in place: key ``[domain key,
    index]``, counter 0 and an empty output buffer — exactly the state a
    freshly built ``Philox(key=...)`` starts in, so the draws are
    identical to :func:`counter_rng`'s.

    The generator ``at`` returns is shared: it is valid only until the
    next ``at`` call, which re-keys it.  Draw everything a request needs
    before moving on to the next one.
    """

    __slots__ = ("seed", "domain", "_key", "_state", "_bit_generator", "_generator")

    def __init__(self, seed: int, domain: str):
        self.seed = seed
        self.domain = domain
        self._key = [_domain_key(seed, domain), 0]
        # The state ``Philox.state`` accepts; ``at`` rewrites only the
        # index word of the key.  buffer_pos 4 marks the buffer as used
        # up, so the first draw computes counter block 1, as a fresh
        # Philox does.
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bit_generator = np.random.Philox(key=np.array(self._key, dtype=np.uint64))
        self._generator = np.random.Generator(self._bit_generator)

    def at(self, index: int) -> np.random.Generator:
        """The stream ``counter_rng(seed, domain, index)``, until the next call."""
        self._key[1] = index & _U64
        self._bit_generator.state = self._state
        return self._generator

    def __reduce__(self):
        return (CounterStreams, (self.seed, self.domain))


def spawn_rng(rng: np.random.Generator, label: str) -> np.random.Generator:
    """Derive an independent child generator from ``rng`` and a label.

    Deterministic given (parent state, label) — including across processes,
    which is why the label is hashed with CRC32 rather than the
    per-process-salted built-in ``hash``.  Used to give each subsystem
    (catalog, population, sessions, CDN) its own stream so that changing one
    subsystem's draw count does not perturb the others.
    """
    seed_material = rng.integers(0, 2**63 - 1, dtype=np.int64)
    label_hash = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed_material), label_hash]))
