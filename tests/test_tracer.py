"""The benchmark's tracer against the engine: every name it wraps exists,
and uninstalling puts every original back."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402
import worker  # noqa: E402


def test_tracer_wraps_existing_names_and_restores_them():
    engine = worker.Engine()
    owners = [m for n, m in sys.modules.items()
              if n.startswith("odegeom.") and m is not None]
    owners += [engine.zerotest.DomainBox, engine.curvature.CurvaturePackage]
    owners += [getattr(engine.exterior, c) for c in tracer._EXTERIOR_CLASSES]
    before = {id(o): dict(vars(o)) for o in owners}
    t = tracer.Tracer(engine)
    # a name the tracer wraps that the engine lacks raises KeyError here
    t.install()
    patched = list(t._patches)
    try:
        assert patched
        assert all(vars(o)[name] is not original
                   for o, name, original in patched)
    finally:
        t.uninstall()
    for owner, name, original in patched:
        assert original is before[id(owner)][name]
        assert vars(owner)[name] is original
