"""The library names the benchmark harness relies on.

perfbench/layers.py wraps layer entry points by module attribute, and the
harness's job lists call the library with fixed keywords.  A renamed
attribute or a dropped keyword otherwise shows only when the harness runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from intermit import noiseless_binary_rate

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in _targets()])
def test_every_traced_attribute_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_noiseless_rate_accepts_outer_coarse():
    assert noiseless_binary_rate(1.5, outer_coarse=9) == noiseless_binary_rate(1.5)
