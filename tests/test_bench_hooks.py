"""The benchmark's tracing wrappers attach to, and detach from, real names.

`bench/tracing.py` replaces public functions of `relapsekit` by attribute
name. Renaming one in `src/` breaks the traced benchmark run; this test
breaks with it.
"""

from __future__ import annotations

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_restore_puts_back_every_patched_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        patched = list(tracer._originals)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
