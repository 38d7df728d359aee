"""Deterministic named random streams.

Every stochastic element of the simulation (CSMA/CD backoff, Monte
Carlo sampling, workload generation) draws from a *named* stream so
that adding a new consumer never perturbs the draws seen by existing
ones.  Stream seeds are derived stably from ``(root_seed, name)`` via
SHA-256, so results are reproducible across runs and Python versions.

Every stream name in use is registered in :data:`STREAM_NAMES` below.
The registry is what makes "adding a consumer is a deliberate act"
enforceable: the ``determinism.stream-name`` check (``repro check``)
rejects any ``stream(...)``/``numpy_stream(...)`` call whose name is
not registered, so a new consumer shows up here — next to a one-line
description of what it feeds — in the same diff that introduces it.
Per-rank families register once as a ``"prefix*"`` pattern.
:meth:`RandomStreams.stream_names` is the runtime complement: it
shows which registered streams a run actually instantiated.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # numpy loads with the first numpy stream
    import numpy as np

__all__ = ["derive_seed", "RandomStreams", "STREAM_NAMES"]

#: The documented registry of stream names.  Exact names, or
#: ``"prefix*"`` for per-rank families (``"mc.rank*"`` admits
#: ``"mc.rank0"``, ``"mc.rank1"``, ...).  Checked statically by
#: ``repro check`` (determinism.stream-name); keep each entry's
#: description current — it is the review trail for who draws what.
STREAM_NAMES: Dict[str, str] = {
    "ethernet.backoff": "Ethernet CSMA/CD retransmission backoff noise",
    "fddi.token": "FDDI token-rotation jitter noise",
    "atm.switch": "ATM switch-transit jitter noise",
    "allnode.switch": "Allnode crossbar switch-transit jitter noise",
    "mc.rank*": "per-rank Monte Carlo pi sample coordinates",
    "lu.matrix": "LU factorization input matrix",
    "matmul.a.rank*": "per-rank row blocks of matmul operand A",
    "matmul.b": "shared matmul operand B (every rank re-derives it)",
    "psrs.keys.rank*": "per-rank unsorted key blocks for PSRS sorting",
    "jpeg.image": "synthetic gradient-noise image for JPEG encoding",
    "fft.rows.rank*": "per-rank signal rows for the 2-D FFT",
}


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 63-bit seed for stream ``name``."""
    digest = hashlib.sha256(("%d/%s" % (root_seed, name)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


class RandomStreams(object):
    """Factory of independent, reproducible random generators.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> backoff = streams.stream("ethernet.backoff")
    >>> samples = streams.numpy_stream("mc.rank0")
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._py_streams: Dict[str, random.Random] = {}
        self._np_streams: Dict[str, np.random.Generator] = {}

    def __repr__(self) -> str:
        return "<RandomStreams seed=%d streams=%d>" % (
            self._seed,
            len(self._py_streams) + len(self._np_streams),
        )

    @property
    def seed(self) -> int:
        return self._seed

    def stream_names(self) -> Tuple[str, ...]:
        """Names of every stream instantiated so far, sorted.

        Diagnostic view: e.g. after a noisy run it shows which media
        actually attached (and possibly drew from) their models.
        """
        return tuple(sorted(set(self._py_streams) | set(self._np_streams)))

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the Python stream ``name``."""
        if name not in self._py_streams:
            # The one sanctioned construction site for seeded PRNGs.
            self._py_streams[name] = random.Random(  # repro: allow[determinism.entropy]
                derive_seed(self._seed, name)
            )
        return self._py_streams[name]

    def numpy_stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the numpy stream ``name``.

        The stream is stateful: successive calls continue the sequence.
        """
        if name not in self._np_streams:
            import numpy as np

            self._np_streams[name] = np.random.default_rng(  # repro: allow[determinism.entropy]
                derive_seed(self._seed, name)
            )
        return self._np_streams[name]

    def fresh_numpy_stream(self, name: str) -> np.random.Generator:
        """A *new* generator for ``name``, restarted from its seed.

        Use this when the same data must be re-derivable later (e.g. a
        verifier regenerating the exact keys a rank produced).
        """
        import numpy as np

        return np.random.default_rng(  # repro: allow[determinism.entropy]
            derive_seed(self._seed, name)
        )
