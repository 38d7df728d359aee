"""Deterministic discrete-event simulation kernel.

This package is the foundation of the reproduction: networks, nodes,
message-passing tool runtimes and applications all execute as generator
processes over this kernel.

Public API
----------
:class:`Environment`
    The scheduler and clock.
:class:`Event`, :class:`Timeout`, :class:`TimeoutUntil`, :class:`AllOf`
    Event primitives processes can ``yield``.
:class:`Process`, :class:`Interrupt`
    Process handle and the interrupt exception.
:class:`Resource`, :class:`Hold`, :class:`Train`, :class:`Store`, :class:`FilterStore`
    Shared-resource primitives.
:class:`RandomStreams`
    Named deterministic random streams.
:class:`Tracer`
    Structured run tracing.
"""

from repro.sim.events import (
    AllOf,
    Condition,
    ConditionValue,
    Event,
    Interrupt,
    PENDING,
    Priority,
    Timeout,
    TimeoutUntil,
)
from repro.sim.kernel import Environment, Infinity
from repro.sim.process import Process
from repro.sim.resources import FilterStore, Hold, Request, Resource, Store, Train
from repro.sim.rng import RandomStreams, derive_seed
from repro.sim.trace import NullTracer, TraceRecord, Tracer

__all__ = [
    "AllOf",
    "Condition",
    "ConditionValue",
    "Environment",
    "Event",
    "FilterStore",
    "Hold",
    "Infinity",
    "Interrupt",
    "NullTracer",
    "PENDING",
    "Priority",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "Store",
    "Timeout",
    "TimeoutUntil",
    "TraceRecord",
    "Tracer",
    "Train",
    "derive_seed",
]
