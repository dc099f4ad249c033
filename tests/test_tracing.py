"""The benchmark's tracer must still find every library name it wraps.

``perfbench/tracing.py`` replaces functions on the objects where their
callers look them up.  A refactor that renames or stops importing one of
them would make ``perfbench/run.py --trace 1`` fail with AttributeError, so
the tracer is installed here on freshly imported modules, used for one
small round and uninstalled again.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _library_modules():
    return [k for k in sys.modules if k == "obstructor" or k.startswith("obstructor.")]


@pytest.fixture
def fresh_library():
    """The layers the tracer wraps, imported afresh; the modules in use are put back after."""
    saved = {k: sys.modules.pop(k) for k in _library_modules()}
    layers = {path.partition(".")[0] for targets in tracing.SPANS.values() for path, _ in targets}
    try:
        yield SimpleNamespace(**{layer: importlib.import_module(f"obstructor.{layer}") for layer in layers})
    finally:
        for name in _library_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def test_every_traced_name_resolves_and_is_restored(fresh_library):
    lib = fresh_library
    targets = [(tracing._resolve(lib, path), attr) for pairs in tracing.SPANS.values() for path, attr in pairs]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(targets, originals))
        cm = lib.conemaps.split_map(3)
        tracer.round(lambda: (lib.conemaps.properness_test(cm, radii=(1, 2 ** 20), samples=1),
                              lib.conemaps.divergence_suite(cm, samples=1)))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(targets, originals))
    metrics = tracer.layer_metrics()
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["conemaps.rays"] > 0 and metrics["conemaps.pairs"] > 0
    assert metrics["exact.adjugate_calls"] > 0 and metrics["conemaps.scaled_calls"] > 0


def test_a_grid_round_reaches_every_grid_metric(fresh_library, capsys):
    # a refactor that bypassed catalog.build_root_system or the module-level
    # verify_witness would leave these metrics at zero without failing
    lib = fresh_library
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        codes, _ = tracer.round(lambda: (lib.cli.main(["lemma-key", "--type", "A2", "--json"]),
                                         lib.cli.main(["dims", "--group", "sl", "--json"])))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == (0, 0)
    metrics = tracer.layer_metrics()
    for name in ("ordering.labelings", "ordering.witness_checks",
                 "catalog.identity_checks", "rootsystems.builds"):
        assert metrics[name] > 0, name
