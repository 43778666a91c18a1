"""The benchmark tracer's targets still exist in the package.

`perfbench/spans.py` wraps functions and methods looked up as
`vars(owner)[attr]`; a refactor that moves a traced method into a base
class, or aliases two traced names to one object, breaks traced
benchmark runs without failing any other test.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_distinct_object():
    targets = _load_spans()._targets()
    assert targets
    missing = [(name, owner, attr) for name, owner, attr, _ in targets
               if attr not in vars(owner)]
    assert not missing
    resolved = [vars(owner)[attr] for _, owner, attr, _ in targets]
    assert len({id(obj) for obj in resolved}) == len(resolved)
