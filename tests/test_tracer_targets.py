"""The benchmark's tracer patches laxkit names by module path and attribute.
Deleting or renaming one of them breaks `perfbench/run.py --trace 1`; this
test makes that show up in the ordinary test run."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(modname, attr):
    owner = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


def test_every_tracer_target_resolves_and_is_restored():
    # install() binds targets in the laxkit modules already loaded, and
    # laxkit.cli alone loads no float module: load them all first, as
    # perfbench/run.py does before it installs the tracer
    import laxkit.acceptance  # noqa: F401
    tracer = _load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        for _layer, modname, attr in tracer.TARGETS:
            assert hasattr(_resolve(modname, attr), "__wrapped__"), (modname, attr)
    finally:
        t.uninstall()
    for _layer, modname, attr in tracer.TARGETS:
        assert not hasattr(_resolve(modname, attr), "__wrapped__"), (modname, attr)
