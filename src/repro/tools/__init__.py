"""User-level tools built on elaborated model instances: waveform
dumping, linting, and design visualization (paper Section III-B)."""

from .linter import LintWarning, lint
from .vcd import VCDWriter
from .verilog_lint import VerilogLintError, lint_verilog
from .visualize import connectivity_report, design_stats, hierarchy_tree

__all__ = [
    "VCDWriter",
    "lint", "LintWarning",
    "lint_verilog", "VerilogLintError",
    "hierarchy_tree", "design_stats", "connectivity_report",
]
