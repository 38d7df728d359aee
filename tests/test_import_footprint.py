"""What a process that only coordinates must not load.

A service client, or a scheduler that dispatches every simulation to
remote workers and serves the rest from the cache, builds specs,
expands and maps jobs, and scores results, but never simulates.
Validating a spec must not import any application module, and mapping
the jobs of a TPL plus Monte Carlo grid must not pull in numpy: a
coordinator holds every result of a long sweep in memory, and the
numeric stack would add half again to its resident size.  Nor does it
need asyncio, which would cost most of the executor layer's import
time; the service's HTTP front runs on stdlib threads and loads none
either.  Each check runs in a fresh interpreter, since this one has
long since imported everything.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

COORDINATOR = """
import sys
from repro.core.executors import create_executor
from repro.core.jobs import canonical_job
from repro.core.results import ResultSet
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec
import repro.service.client

assert EvaluationSpec(seeds=(0, 1)).job_count()  # every app, validated by name
spec = EvaluationSpec(apps=("montecarlo",), seeds=(0, 1))
assert len({canonical_job(job) for job in spec.jobs()}) == spec.job_count() // 2
create_executor(2, backend="remote", queue_dir=sys.argv[1])
kernels = ("repro.apps.jpeg", "repro.apps.fft", "repro.apps.sorting", "repro.apps.linalg")
print(" ".join(sorted(name for name in sys.modules
                      if name.split(".")[0] in ("numpy", "asyncio")
                      or name.startswith(kernels))))
"""


def run_python(script, *args):
    """The words a fresh interpreter running ``script`` prints."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script] + list(args), env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_coordinating_loads_no_numpy_or_kernels(tmp_path):
    assert run_python(COORDINATOR, str(tmp_path / "queue")) == []


def test_service_client_loads_no_server_or_scheduler():
    script = """
import sys
from repro.core.spec import EvaluationSpec
from repro.service import ServiceClient

EvaluationSpec(seeds=(0, 1)).to_dict()
server_side = ("numpy", "repro.core.scheduler", "repro.service.registry", "repro.service.server")
print(" ".join(sorted(name for name in server_side if name in sys.modules)))
"""
    assert run_python(script) == []


@pytest.mark.parametrize("package, name, kind", [
    ("repro.core", "Scheduler", "type"),
    ("repro.apps", "JpegCompression", "type"),
    ("repro.apps", "APPLICATION_CLASSES", "dict"),
])
def test_package_exports_resolve_on_first_use(package, name, kind):
    script = "import %s as package; print(type(getattr(package, %r)).__name__)" % (package, name)
    assert run_python(script) == [kind]


@pytest.mark.parametrize("module", [
    "repro.core.executors",
    "repro.core.scheduler",
    "repro.distributed.executor",
    "repro.service.server",
])
def test_executor_layer_loads_no_asyncio(module):
    script = "import sys, %s; print(' '.join(name for name in sys.modules if name.split('.')[0] == 'asyncio'))" % module
    assert run_python(script) == []
