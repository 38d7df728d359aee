"""Output checks: every sample and per-cell score against a reference.

The reference for a spec is the serial, in-process
:class:`~repro.core.results.ResultSet` of the same spec.  For the specs
of seeds 0 to 31, ``digests.json`` holds its digest, written by
``run.py --write-digests``, so a change to what the simulator computes
is caught without recomputing anything.  For any other spec, and to
name the differing samples after a mismatch, the reference is computed
after the timed part of the run.
"""

from __future__ import annotations

import hashlib
import json
import os

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def spec_key(spec_dict):
    """Content address of a spec's JSON form."""
    text = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(export):
    """The checked part of a ``ResultSet.to_dict()`` export (or of the
    ``result`` a service record carries): samples keyed by their job
    fields, and the per-cell scores."""
    samples = {}
    for sample in export["samples"]:
        key = json.dumps(
            [sample["kind"], sample["tool"], sample["platform"],
             sample["processors"], sample["params"], sample["seed"],
             sample.get("noise", 0.0)],
            sort_keys=True,
        )
        samples[key] = sample["seconds"]
    return {"samples": samples, "scores": export["scores"]}


def digest(canon):
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def differences(canon, reference, limit=3):
    """Up to ``limit`` human-readable differences (empty = equal)."""
    found = []
    want, got = reference["samples"], canon["samples"]
    for key in sorted(set(want) | set(got)):
        if key not in got:
            found.append("missing sample %s" % key)
        elif key not in want:
            found.append("unexpected sample %s" % key)
        elif repr(got[key]) != repr(want[key]):
            found.append("sample %s: %r != reference %r" % (key, got[key], want[key]))
        if len(found) >= limit:
            return found
    for cell in sorted(set(reference["scores"]) | set(canon["scores"])):
        if canon["scores"].get(cell) != reference["scores"].get(cell):
            found.append("scores of cell %s differ" % cell)
            if len(found) >= limit:
                break
    return found


def load_digests():
    """``{spec key: output digest}`` over every workload's entries."""
    try:
        with open(DIGESTS_PATH) as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return {}
    return {key: value for entries in table.values() for key, value in entries.items()}


class References(object):
    """The serial in-process ``ResultSet`` of each spec: a committed
    digest from ``digests.json``, or computed here on demand."""

    def __init__(self, committed=None):
        from repro.core.cache import ResultCache

        self._cache = ResultCache()
        self._canon = {}
        self.committed = load_digests() if committed is None else committed

    def compute(self, spec):
        """The spec's canonical reference, run serially in this process."""
        from repro.bench.runner import run_evaluation

        key = spec_key(spec.to_dict())
        if key not in self._canon:
            self._canon[key] = canonical(run_evaluation(spec, cache=self._cache).to_dict())
        return self._canon[key]

    def check(self, spec, canon, output_digest):
        """Differences between an output and its spec's reference."""
        expected = self.committed.get(spec_key(spec.to_dict()))
        if output_digest == expected:
            return []
        found = differences(canon, self.compute(spec))
        if expected is not None and not found:
            found.append("output equals a fresh reference but not the committed digest "
                         "%s: the simulator's results changed" % expected[:12])
        return found
