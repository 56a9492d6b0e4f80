"""The package's public surface: imports, __all__, README quickstart."""

import importlib
from pathlib import Path

import pytest

import repro

#: Every package that defines ``__all__``.
SUBPACKAGES = [
    "repro.core", "repro.core.kernels", "repro.fabric", "repro.cpu",
    "repro.compression", "repro.schedulers", "repro.traces", "repro.cluster",
    "repro.swallow", "repro.analysis", "repro.runner", "repro.service",
    "repro.obs",
]


def test_version():
    assert repro.__version__ == "1.31.0"


@pytest.mark.parametrize("module", SUBPACKAGES)
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    listed = dir(mod)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name} in __all__ but missing"
        assert name in listed, f"{module}.{name} in __all__ but not in dir()"


def test_every_package_with_all_is_checked():
    src = Path(repro.__file__).parent
    packages = {
        ".".join(("repro",) + init.parent.relative_to(src).parts)
        for init in src.rglob("__init__.py")
        if "__all__" in init.read_text()
    }
    assert packages - {"repro"} == set(SUBPACKAGES)


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name)


def test_readme_quickstart_snippet():
    """The exact code shown in README.md works."""
    from repro.units import MB, gbps

    fabric = repro.BigSwitch(num_ports=8, bandwidth=gbps(1))
    coflow = repro.Coflow([
        repro.Flow(src=0, dst=1, size=400 * MB),
        repro.Flow(src=2, dst=1, size=200 * MB),
    ])
    sim = repro.SliceSimulator(fabric, repro.FVDFScheduler())
    sim.submit(coflow)
    result = sim.run()
    assert result.avg_cct > 0
    assert 0.0 <= result.traffic_reduction < 1.0


def test_py_typed_marker_ships():
    assert (Path(repro.__file__).parent / "py.typed").exists()
