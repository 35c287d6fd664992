import importlib
import pkgutil

import voromedian


def test_every_export_resolves():
    for name in voromedian.__all__:
        assert hasattr(voromedian, name), name


def test_no_export_hides_a_submodule():
    submodules = [m.name for m in pkgutil.iter_modules(voromedian.__path__)]
    assert "refine" in submodules and "geometry" in submodules
    for name in submodules:
        module = importlib.import_module(f"voromedian.{name}")
        assert getattr(voromedian, name) is module, name
        assert name not in voromedian.__all__

