"""Tests for the Verilog TranslationTool.

No Verilog simulator is available offline, so these tests validate the
generated source structurally: module structure, port declarations,
deduplication, always-block balance, and subset enforcement.
"""

import re

import pytest

from repro.core import InPort, Model, OutPort
from repro.core.ast_ir import TranslationError
from repro.core.translation import TranslationTool, translate
from repro.components import (
    BypassQueue,
    IntPipelinedMultiplier,
    Mux,
    NormalQueue,
    Register,
    RoundRobinArbiter,
)
from repro.mem import CacheRTL, MemMsg, TestMemory
from repro.net import MeshNetworkStructural, RouterCL, RouterRTL
from repro.accel import DotProductRTL, MemArbiter, XcelMsg
from repro.proc import ProcRTL


def _translate(model):
    return TranslationTool(model.elaborate()).verilog


def test_register_translation():
    text = _translate(Register(8))
    assert "module Register_" in text
    assert "input  wire [7:0] in_" in text
    assert "output reg  [7:0] out" in text
    assert "always @(posedge clk)" in text
    assert "out <= in_;" in text


def test_mux_translation_has_array_and_comb():
    text = _translate(Mux(8, 4))
    assert "always @(*)" in text
    assert "in__arr" in text
    assert "out = in__arr[sel];" in text


def test_single_bit_ports_have_no_range():
    text = _translate(Register(1))
    assert "input  wire in_" in text
    assert re.search(r"output reg\s+out", text)


def test_structural_model_instantiates_children():
    from tests.test_core_smoke import MuxReg
    text = _translate(MuxReg(8, 4))
    assert text.count("endmodule") == 3
    assert re.search(r"Register_\w+ reg_", text)
    assert re.search(r"Mux_\w+ mux", text)
    assert ".clk(clk)" in text


def test_queue_translation_uses_memory_array():
    text = _translate(NormalQueue(4, 16))
    assert "entries_arr [0:3]" in text
    assert "always @(posedge clk)" in text


def test_balanced_blocks_everywhere():
    for model in (Register(8), Mux(8, 4), NormalQueue(2, 8),
                  BypassQueue(8), RoundRobinArbiter(4),
                  IntPipelinedMultiplier(16, 2), ProcRTL(),
                  CacheRTL(MemMsg(), MemMsg(), 8),
                  DotProductRTL(MemMsg(), XcelMsg()),
                  MemArbiter(MemMsg()),
                  RouterRTL(0, 4, 64, 16, 2)):
        text = _translate(model)
        n_mod = len(re.findall(r"^module ", text, re.MULTILINE))
        n_endmod = len(re.findall(r"^endmodule", text, re.MULTILINE))
        assert n_mod == n_endmod, type(model).__name__
        n_begin = len(re.findall(r"\bbegin\b", text))
        n_end = len(re.findall(r"\bend\b", text))
        assert n_begin == n_end, type(model).__name__


def test_verilog_lint_clean_for_all_library_designs():
    """The structural Verilog linter finds no problems in anything the
    translator emits for the library and case-study RTL."""
    from repro.tools import lint_verilog
    from repro.net import MeshNetworkStructural
    designs = [
        Register(8), Mux(8, 4), NormalQueue(2, 8), BypassQueue(8),
        RoundRobinArbiter(4), IntPipelinedMultiplier(16, 2), ProcRTL(),
        CacheRTL(MemMsg(), MemMsg(), 8),
        DotProductRTL(MemMsg(), XcelMsg()), MemArbiter(MemMsg()),
        MeshNetworkStructural(RouterRTL, 4, 64, 16, 2),
    ]
    for model in designs:
        errors = lint_verilog(_translate(model))
        assert errors == [], (type(model).__name__,
                              [str(e) for e in errors[:5]])


def test_verilog_lint_catches_problems():
    from repro.tools import lint_verilog
    bad = """
module broken
(
  input  wire clk,
  input  wire reset,
  output wire out
);
  assign out = missing_wire;
  Undefined u0 (.clk(clk), .reset(reset));
endmodule
"""
    errors = lint_verilog(bad)
    messages = " ".join(str(e) for e in errors)
    assert "missing_wire" in messages
    assert "Undefined" in messages

    # A parameter override must name a parameter the module declares
    # (a negative value is printed in parentheses).
    leaf = """
module leaf
(
  input  wire clk,
  input  wire reset,
  output wire out
);
  parameter K = 3;
  assign out = K;
endmodule
"""
    top = """
module top
(
  input  wire clk,
  input  wire reset,
  output wire out
);
  leaf #(.%s((-1))) u0
  (
    .clk(clk),
    .reset(reset),
    .out(out)
  );
endmodule
"""
    assert lint_verilog(leaf + top % "K") == []
    messages = [str(e) for e in lint_verilog(leaf + top % "J")]
    assert messages == ["[top] instance 'u0': 'leaf' has no parameter 'J'"]


def test_mesh_translation_dedupes_queues():
    text = _translate(MeshNetworkStructural(RouterRTL, 16, 64, 16, 2))
    # 16 routers have distinct coordinates (distinct constants): one
    # router module sets them as parameters, and its five queues (80 in
    # the design) share one definition.
    assert len(re.findall(r"module NormalQueue_\w+\n", text)) == 1
    assert len(re.findall(r"module RouterRTL_\w+\n", text)) == 1
    assert len(re.findall(r"^  NormalQueue_\w+ queues_\d", text, re.M)) == 5
    assert len(re.findall(r"^  RouterRTL_\w+ #\(", text, re.M)) == 16


def _modules(text):
    return dict(re.findall(r"^module (\w+)\n(.*?^endmodule)", text,
                           re.M | re.S))


def test_mesh_router_module_is_each_router_with_its_parameters():
    """Router *i*'s ``#(...)`` values put into the shared module (its
    ``parameter`` lines dropped) give the module ``RouterRTL(i, ...)``
    translates to alone: the two coordinates are parameters, every
    other constant is the literal it always was."""
    mesh = translate(
        MeshNetworkStructural(RouterRTL, 16, 256, 32, 2).elaborate())
    (name, shared), = ((n, t) for n, t in _modules(mesh).items()
                       if n.startswith("RouterRTL_"))
    params = re.findall(r"^  parameter (\w+) = ", shared, re.M)
    assert params == ["switch_logic_k5", "switch_logic_k8"]
    unset = "".join(line for line in shared.splitlines(True)
                    if not line.startswith("  parameter "))
    headers = re.findall(rf"^  {name} #\((.*)\) routers_(\d+)$", mesh,
                         re.M)
    assert [int(i) for _, i in headers] == list(range(16))
    for i, (override, _) in enumerate(headers):
        text = unset
        for param, value in re.findall(r"\.(\w+)\(([^()]*)\)", override):
            text = re.sub(rf"\b{param}\b", value, text)
        alone, = (t for n, t in _modules(translate(
            RouterRTL(i, 16, 256, 32, 2).elaborate())).items()
            if n.startswith("RouterRTL_"))
        assert text == alone, i


def test_tools_lower_each_block_body_once(lowerings):
    """The translator and the estimator each read mesh16's 208 blocks
    from its five bodies: a tool lowers a body once, for its IR, and
    binds every other instance."""
    from repro.eda import estimate

    for tool in (TranslationTool, estimate):
        lowerings.clear()
        tool(MeshNetworkStructural(RouterRTL, 16, 256, 32, 2).elaborate())
        assert sorted(lowerings.values()) == [1] * 5, lowerings


def test_same_params_dedupe_to_one_module():
    class Two(Register.__bases__[0]):     # Model
        def __init__(s):
            s.r0 = Register(8)
            s.r1 = Register(8)
            s.connect(s.r0.out, s.r1.in_)

    text = _translate(Two())
    assert len(re.findall(r"module Register_\w+\n", text)) == 1


def test_fl_model_rejected():
    with pytest.raises(TranslationError):
        _translate(TestMemory())


def test_cl_model_rejected():
    with pytest.raises(TranslationError):
        _translate(RouterCL(0, 4, 64, 16, 2))


def test_translate_helper_function():
    text = translate(Register(4).elaborate())
    assert "module Register_" in text


def test_to_file(tmp_path):
    path = tmp_path / "out.v"
    TranslationTool(Register(8).elaborate()).to_file(str(path))
    assert "endmodule" in path.read_text()


def test_proc_translation_mentions_regfile_array():
    text = _translate(ProcRTL())
    assert "rf_arr [0:31]" in text
    assert "always @(posedge clk)" in text


def test_constant_tie_translated():
    from repro.core import Model, OutPort, Wire

    class Tied(Model):
        def __init__(s):
            s.out = OutPort(8)
            s.connect(s.out, 0x5A)

    text = _translate(Tied())
    assert "assign out = 8'd90;" in text


def test_slice_connection_translated():
    from repro.core import InPort, Model, OutPort

    class SliceConn(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.hi = OutPort(4)
            s.connect(s.in_[4:8], s.hi)

    text = _translate(SliceConn())
    assert "assign hi = in_[7:4];" in text


class _TwoOfOne(Model):
    """Two blocks of one function, told apart by an index (a guard)
    and each adding its own constant (a hole)."""

    def __init__(s, a, b):
        s.in_ = InPort(8)
        s.outs = [OutPort(8), OutPort(8)]
        s.add(0, a)
        s.add(1, b)

    def add(s, i, k):
        @s.combinational
        def logic():
            s.outs[i].value = s.in_.uint() + k


def test_blocks_of_one_function_keep_their_own_ints():
    class Top(Model):
        def __init__(s):
            s.x, s.y = _TwoOfOne(3, 5), _TwoOfOne(3, 6)

    alone = translate(_TwoOfOne(3, 5).elaborate())
    assert "outs_arr[0] = (in_ + 3);" in alone
    assert "outs_arr[1] = (in_ + 5);" in alone
    text = translate(Top().elaborate())
    assert len(re.findall(r"^module _TwoOfOne_", text, re.M)) == 1
    assert "outs_arr[0] = (in_ + 3);" in text
    assert "outs_arr[1] = (in_ + logic1_k1);" in text
    assert re.findall(r"#\(\.logic1_k1\((\d)\)\) ([xy])$", text, re.M) == [
        ("5", "x"), ("6", "y")]
    from repro.tools import lint_verilog
    assert lint_verilog(text) == []
