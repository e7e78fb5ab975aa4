"""The benchmark's layer tracer (perfbench/layers.py) against the library.

The tracer wraps qdet-lab functions and methods by name, so deleting one of
them breaks the traced benchmark run; installing it here fails first.
"""

import importlib.util
import sys
from pathlib import Path

from qdetlab import gaussian, linalg
from qdetlab.identities import points, registry, run_suite, runner


def patchable_state() -> dict:
    """Copies of every namespace the tracer patches: qdetlab modules, four classes, the registry."""
    state = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.split(".")[0] == "qdetlab"}
    for cls in (gaussian.GaussianRational, linalg.ExactMatrix, points.ParamPoint, runner.Report):
        state[cls.__qualname__] = dict(vars(cls))
    return state | {"REGISTRY": dict(registry.REGISTRY)}


def test_traced_run_gives_the_same_report_and_restores_every_patch():
    spec = importlib.util.spec_from_file_location("layers", Path(__file__).parents[1] / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    report = lambda: run_suite(["thm_main_aw"], n_max=2, trials=2, seed=42).to_json()
    untraced, before = report(), patchable_state()
    tracer = layers.Tracer()
    with tracer.installed():
        assert patchable_state() != before
        traced = report()
    assert traced == untraced
    assert patchable_state() == before
    assert all(tracer.calls[layer] for layer in ("qseries", "orthopoly", "builders", "linalg"))
    assert tracer.count["ops"] and tracer.count["attempts"]
