"""Contract between the library and the benchmark harness in ``tipbench/``.

The harness wraps library entry points by name, registers lock classes
by name and pins the engine's host profile from ``design.json``. A
renamed method or a dropped profile field would otherwise surface only
as a failed benchmark run; these tests load the harness's own tables
(without editing or running it) and check each name against the library.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.bitmatrix.tuning import HostProfile

TIPBENCH = Path(__file__).resolve().parent.parent / "tipbench"


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "tipbench_layers", TIPBENCH / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_layers()


@pytest.mark.parametrize(
    "module_name, class_name, attr, layer",
    LAYERS.WRAP_POINTS,
    ids=[".".join(filter(None, p[:3])) for p in LAYERS.WRAP_POINTS],
)
def test_wrap_point_resolves(module_name, class_name, attr, layer):
    """Resolved the way ``Tracer.install`` resolves it: a class attribute
    must sit in the class's own ``__dict__`` (an inherited one would be
    wrapped on the wrong owner); a module attribute via ``getattr``."""
    module = importlib.import_module(module_name)
    if class_name:
        owner = getattr(module, class_name)
        assert owner.__dict__.get(attr) is not None, (class_name, attr)
    else:
        assert getattr(module, attr, None) is not None, (module_name, attr)


@pytest.mark.parametrize("name", LAYERS.LOCK_CLASSES)
def test_lock_class_exists(name):
    locks = importlib.import_module("repro.service.locks")
    assert isinstance(getattr(locks, name, None), type), name


def test_pinned_host_profile_constructs():
    design = json.loads((TIPBENCH / "design.json").read_text())
    profile = HostProfile(**design["pinned_host_profile"])
    assert profile.effective_cache_bytes > 0
