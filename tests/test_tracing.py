"""The benchmark's tracer must install against the current tspkit.

``perfbench/tracing.py`` wraps tspkit functions by name, so a refactor that
drops or renames one of them breaks every traced benchmark run; this test
makes that a tier-1 failure instead.
"""

import sys

import numpy as np

from perfbench.tracing import SPAN_FUNCTIONS, Tracer
from tspkit import encoder as enc


def test_tracer_installs_and_uninstalls_against_tspkit(tmp_path):
    original = enc.forward_np_batch
    tracer = Tracer(tmp_path / "spool")
    tracer.install()
    try:
        for name in SPAN_FUNCTIONS:
            module, attr = name.split(".")
            assert hasattr(sys.modules[f"tspkit.{module}"], attr), name
        params = enc.init_params(enc.EncoderConfig(channels_in=2, embed_dim=3, blocks=1), 0)
        enc.forward_np(params, np.ones((2, 4)))
    finally:
        tracer.uninstall()
    assert enc.forward_np_batch is original
    trace = tracer.collect()
    # an inference pass runs the one batched forward
    for name in ("encoder.forward_np", "encoder.forward_np_batch", "encoder.forward_batch"):
        assert len(trace.durations(name)) == 1, name
