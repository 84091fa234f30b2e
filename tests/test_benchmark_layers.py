"""Every layer the benchmark traces names a function the package defines.

``benchmarks/tracing.originals()`` looks each key ``<module>.<function>``
of ``benchmarks/layers.json`` up as an attribute defined in the module
``gonosomal.<module>``, else as one defined on ``GonosomalOperator``, and
raises KeyError for a key that resolves to neither.  So deleting or
renaming a traced function breaks ``benchmarks/run.py --trace 1`` and
``benchmarks/selftest.py`` until ``layers.json`` drops the layer; this test
reads the file and fails first.
"""

import importlib
import json
from pathlib import Path

import pytest

from gonosomal.operator import GonosomalOperator

LAYERS = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "layers.json").read_text()
)["layers"]


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_each_traced_layer_resolves_as_tracing_looks_it_up(layer):
    module, attr = layer.rsplit(".", 1)
    home = importlib.import_module(f"gonosomal.{module}")
    owner = home if attr in vars(home) else GonosomalOperator
    assert attr in vars(owner), (
        f"layer {layer!r} is neither defined in gonosomal.{module} nor on GonosomalOperator"
    )
    assert callable(vars(owner)[attr])
