#!/usr/bin/env python
"""Verilog generation for the component library and case-study RTL.

Translates every Verilog-translatable model in the repository and
writes the sources under ``examples/verilog_out/`` — the handoff point
to an EDA toolflow (paper Figure 3's right-hand edge).  The files are
checked in, so a change to what the translator prints shows in them.

Run:  python examples/translate_to_verilog.py [OUT_DIR]
"""

import os
import sys

from repro.accel import DotProductRTL, MemArbiter, XcelMsg
from repro.components import (
    Adder,
    BypassQueue,
    IntPipelinedMultiplier,
    Mux,
    NormalQueue,
    RegEnRst,
    Register,
    RoundRobinArbiter,
)
from repro.core.translation import TranslationTool
from repro.mem import CacheRTL, MemMsg
from repro.net import MeshNetworkStructural, RouterRTL
from repro.proc import ProcRTL

OUT_DIR = os.path.join(os.path.dirname(__file__), "verilog_out")

DESIGNS = [
    ("register", lambda: Register(32)),
    ("reg_en_rst", lambda: RegEnRst(32, reset_value=7)),
    ("mux4", lambda: Mux(32, 4)),
    ("adder", lambda: Adder(32)),
    ("multiplier", lambda: IntPipelinedMultiplier(32, 4)),
    ("queue2", lambda: NormalQueue(2, 32)),
    ("bypass_queue", lambda: BypassQueue(32)),
    ("rr_arbiter", lambda: RoundRobinArbiter(4)),
    ("mem_arbiter", lambda: MemArbiter(MemMsg())),
    ("cache", lambda: CacheRTL(MemMsg(), MemMsg(), 64)),
    ("dotprod_accel", lambda: DotProductRTL(MemMsg(), XcelMsg())),
    ("processor", lambda: ProcRTL()),
    ("router", lambda: RouterRTL(5, 16, 256, 32, 2)),
    ("mesh16", lambda: MeshNetworkStructural(RouterRTL, 16, 256, 32, 2)),
]


def main(out_dir=OUT_DIR):
    os.makedirs(out_dir, exist_ok=True)
    total_lines = 0
    for name, factory in DESIGNS:
        tool = TranslationTool(factory().elaborate())
        path = os.path.join(out_dir, f"{name}.v")
        tool.to_file(path)
        nlines = len(tool.verilog.splitlines())
        nmodules = tool.verilog.count("endmodule")
        total_lines += nlines
        print(f"  {name:16} -> {path}  "
              f"({nlines:5} lines, {nmodules:2} modules, "
              f"top {tool.top_module})")
    print(f"\n  total: {total_lines} lines of Verilog "
          f"across {len(DESIGNS)} designs")


if __name__ == "__main__":
    main(*sys.argv[1:])
