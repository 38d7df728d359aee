"""Message envelope and payload size accounting."""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Message", "sizeof"]

#: Wire size assumed for Python scalars (C int / double on the wire).
_INT_BYTES = 4
_FLOAT_BYTES = 8


def sizeof(payload: Any) -> int:
    """Estimate the wire size in bytes of a payload object.

    The simulation times transfers by byte count; applications pass
    real data, and this maps it to the bytes the 1995 tools would put
    on the wire (C arrays, not pickled Python objects).
    """
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, bool):
        return _INT_BYTES
    if isinstance(payload, int):
        return _INT_BYTES
    if isinstance(payload, float):
        return _FLOAT_BYTES
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (list, tuple)):
        return sum(sizeof(item) for item in payload)
    if isinstance(payload, dict):
        return sum(sizeof(key) + sizeof(value) for key, value in payload.items())
    import numpy as np  # arrays are the one payload type left

    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    raise TypeError("cannot estimate wire size of %r" % type(payload).__name__)


class Message(object):
    """A delivered (or in-flight) message between two ranks."""

    __slots__ = ("src", "dst", "tag", "nbytes", "payload", "sent_at", "arrived_at")

    def __init__(
        self,
        src: int,
        dst: int,
        tag: Any,
        nbytes: int,
        payload: Any = None,
        sent_at: Optional[float] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = int(nbytes)
        self.payload = payload
        self.sent_at = sent_at
        self.arrived_at: Optional[float] = None

    def __repr__(self) -> str:
        return "<Message %d->%d tag=%r nbytes=%d>" % (self.src, self.dst, self.tag, self.nbytes)

    def matches(self, src: Optional[int], tag: Any) -> bool:
        """Does this message satisfy a selective receive?

        ``src=None`` matches any sender; ``tag=None`` matches any tag.
        """
        if src is not None and self.src != src:
            return False
        if tag is not None and self.tag != tag:
            return False
        return True
