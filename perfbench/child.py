"""Child-process entry points the benchmark launches.

``child.py ready MODULE...``
    Import the modules a workload's first operation needs, then exit
    (the set-up time of the in-process workloads).
``child.py fill CACHE_DIR SPEC_JSON``
    Run the spec serially into a sharded disk cache (the cold fill that
    ``resweep_warm`` times as set-up).
``child.py trace TRACE_JSON ARGS...``
    Run ``repro ARGS...`` (``serve`` or ``worker``) with the layer
    wrappers installed; when the command returns, write its spans and
    totals to ``TRACE_JSON``.
"""

from __future__ import annotations

import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv):
    mode = argv[0]
    if mode == "ready":
        for name in argv[1:]:
            importlib.import_module(name)
        return 0
    if mode == "fill":
        from repro.bench.runner import run_evaluation
        from repro.core.spec import EvaluationSpec

        cache_dir, spec_path = argv[1], argv[2]
        with open(spec_path) as handle:
            spec = EvaluationSpec.from_json(handle.read())
        run_evaluation(spec, cache_dir=cache_dir, shards=4)
        return 0
    if mode == "trace":
        import tracing
        from repro.cli import main as repro_main

        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            return repro_main(argv[2:])
        finally:
            tracer.dump(argv[1])
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
