"""Smoke tests: every example script must run to completion.

The examples double as end-to-end integration tests of the public API
surface (the paper's Figure 3 flow from model to tools to outputs).
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

EXAMPLES = [
    "quickstart.py",
    "dotprod_accelerator.py",
    "mesh_network.py",
    "simjit_demo.py",
    "translate_to_verilog.py",
    "auto_specialize_tile.py",
    "memory_over_network.py",
    "mesh_telemetry_demo.py",
    "resilience_demo.py",
    "observe_demo.py",
]


#: The checked-in output of translate_to_verilog.py.
VERILOG_OUT = os.path.join(EXAMPLES_DIR, "verilog_out")


def _texts(directory):
    texts = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as handle:
            texts[name] = handle.read()
    return texts


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, tmp_path):
    # translate_to_verilog.py writes into a scratch directory, whose
    # files must be the checked-in ones: the emitted Verilog is current.
    args = [str(tmp_path)] if script == "translate_to_verilog.py" else []
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script), *args],
        capture_output=True, text=True, timeout=560,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout[-2000:]}\n"
        f"{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script} produced no output"
    if args:
        written, checked_in = _texts(tmp_path), _texts(VERILOG_OUT)
        assert sorted(written) == sorted(checked_in)
        stale = [name for name in written
                 if written[name] != checked_in[name]]
        assert not stale, (
            f"examples/verilog_out/ is not what the translator prints: "
            f"{stale}; run python examples/translate_to_verilog.py")
