"""The benchmark's tracer looks steinmac functions up by module and name;
a refactor that renames or moves one breaks `bench/run.py --trace 1`."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_sites_resolve_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    from steinmac.schemes import Scheme

    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.SITES
    }
    methods = {attr: Scheme.__dict__[attr] for attr, _ in tracing.METHOD_SITES}

    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr), fn in originals.items():
            assert getattr(importlib.import_module(module), attr) is not fn, (module, attr)
        for attr, fn in methods.items():
            assert Scheme.__dict__[attr] is not fn, attr
    finally:
        tracer.uninstall()

    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn, (module, attr)
    for attr, fn in methods.items():
        assert Scheme.__dict__[attr] is fn, attr
