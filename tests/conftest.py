"""Hypothesis profiles, selected with ``--hypothesis-profile=NAME``,
and the ``lowerings`` fixture."""

import pytest
from hypothesis import settings

# CI's verif-fuzz job: tests/test_generated_blocks.py,
# tests/test_simjit_settle.py, tests/test_value_ranges.py and
# tests/test_traffic_compiled.py once more, on fresh draws and more of
# them than the corpus tier-1 replays.
settings.register_profile("fuzz", derandomize=False, deadline=None,
                          max_examples=150)


@pytest.fixture
def lowerings(monkeypatch):
    """``{block function's qualified name: times lowered}``, counted
    where every lowering ends up, whichever module made it, from an
    empty body cache (bodies live as long as the blocks' code objects,
    so an earlier test may have lowered these)."""
    from repro.core import ast_ir, bodies
    counts = {}
    translate = ast_ir.BlockTranslator.translate

    def counting_translate(self):
        name = self.func.__qualname__
        counts[name] = counts.get(name, 0) + 1
        return translate(self)

    monkeypatch.setattr(bodies, "_bodies", {})
    monkeypatch.setattr(ast_ir.BlockTranslator, "translate",
                        counting_translate)
    return counts


@pytest.fixture
def gcc_runs(monkeypatch, tmp_path):
    """``["design" | "runtime", ...]``: one entry per gcc run SimJIT
    makes, from an empty ``.so`` cache and a process that has not loaded
    the SimJIT runtime yet (a process loads it once, so an earlier test
    may have)."""
    from repro.core.simjit import specializer
    runs = []
    gcc = specializer._gcc

    def counting_gcc(source, *args):
        runs.append("runtime" if source == specializer._runtime_c()[0]
                    else "design")
        return gcc(source, *args)

    monkeypatch.setenv("SIMJIT_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(specializer, "_gcc", counting_gcc)
    specializer._runtime.cache_clear()
    yield runs
    specializer._runtime.cache_clear()
