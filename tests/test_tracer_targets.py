import importlib
import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    # the traced benchmark wraps these by name; a rename in loopsum must
    # fail here rather than crash the traced run.  tracer.py is loaded
    # without writing bytecode next to it
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
    tracer = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = saved
    for modname, name, _ in tracer.TARGETS:
        assert modname.startswith("loopsum."), modname
        module = importlib.import_module(modname)
        cls, _, attr = name.rpartition(".")
        owner = getattr(module, cls) if cls else module
        assert callable(vars(owner).get(attr)), f"{modname}.{name}"
    for modname, _ in tracer.CHECK_GROUPS:
        importlib.import_module(modname)
