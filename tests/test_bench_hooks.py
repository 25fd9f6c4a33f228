"""The benchmark's per-layer wrappers still find every name they wrap.

A wrap target that the program renamed or deleted is skipped without an
error and its per-layer metrics read zero, so this test fails instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
import workload  # noqa: E402


def test_every_wrap_target_exists_and_is_restored():
    originals = (workload.orch.forward_client, workload.transport.RemoteClientProxy.forward_round)
    tracer = tracing.Tracer()
    try:
        workload.install_wrappers(tracer)
        assert tracer.skipped == []
        assert workload.orch.forward_client is not originals[0]
    finally:
        tracer.restore()
    assert (workload.orch.forward_client, workload.transport.RemoteClientProxy.forward_round) == originals
