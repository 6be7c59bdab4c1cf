"""The repository's structure rules, as one table that tier-1 runs.

Each "one X" rule of DESIGN.md that a text search can hold is a row of
``RULES``: a pattern, the files it covers and what it asserts of them.
A row is one of three kinds:

- *forbidden*: no covered line matches (``bound`` ``(0, 0)``);
- *counted*: the matching lines, or files (``unit``), lie within
  ``bound``;
- *callers*: exactly the files ``callers`` match.

The matcher walks the covered files itself with Python ``re``, line
by line, skipping ``__pycache__`` and dot-directories; it runs no
``git``, so a rule reads the same on a checkout, an archive or a copy.
The patterns were written for ``git grep -E`` first and keep its
meaning: in a POSIX bracket expression a backslash is literal, so the
old ``[^.\\w]`` is ``[^.\\\\w]`` here (not ``.``, ``\\`` or ``w``), not
Python's ``[^.\\w]``.  A path holding ``*`` is a glob whose ``*``
crosses ``/``, as a git pathspec's does.  ``section`` narrows a row to
sed-style line ranges: from a line matching its start to the next
line matching its end.

Every row carries ``bad``, a snippet that must trip it when placed in
a file inside its paths, and must not when placed at an excluded path
(or, for a row without exclusions, outside its paths):
``test_a_rule_trips_on_its_bad_snippet``.

The rules a text search cannot hold are the tests after the table,
each named for its rule.  Where another tier-1 test already asserts a
rule's facts, the comment at that rule's tests names it instead.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import os
import random
import re
from dataclasses import dataclass

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The file name a bad snippet gets inside a directory.
BAD_FILE = "structure_bad.py"


@dataclass(frozen=True)
class Rule:
    key: str                    # the test id
    name: str                   # the rule's name, as DESIGN.md cites it
    pattern: str                # Python ``re``, searched in each line
    paths: tuple                # files, directories or globs, from ROOT
    bad: str                    # trips the rule inside ``paths``
    design: str                 # the DESIGN.md section the rule holds
    exclude: tuple = ()         # files or directories left out
    bound: tuple = (0, 0)       # (lo, hi) matches; hi None: no upper
    unit: str = "lines"         # what ``bound`` counts: lines or files
    callers: tuple = None       # the exact set of files that match
    section: tuple = None       # (start, end) patterns of line ranges

    @property
    def kind(self):
        if self.callers is not None:
            return "callers"
        return "forbidden" if self.bound == (0, 0) else "counted"


def forbid(key, name, pattern, paths, bad, design, **kwargs):
    return Rule(key, name, pattern, tuple(paths), bad, design, **kwargs)


def count(key, name, pattern, paths, bad, design, bound, unit="lines",
          **kwargs):
    return Rule(key, name, pattern, tuple(paths), bad, design,
                bound=bound, unit=unit, **kwargs)


def callers(key, name, pattern, paths, files, bad, design):
    return Rule(key, name, pattern, tuple(paths), bad, design,
                callers=tuple(sorted(files)))


_SIMJIT = "src/repro/core/simjit"
_CORE = "src/repro/core"

RULES = [
    # -- No deprecation shims in src/ ---------------------------------------
    forbid("no-deprecation-shims", "No deprecation shims in src/",
           r"DeprecationWarning", ["src"],
           "warnings.warn('old', DeprecationWarning)",
           "ROADMAP north star: no compatibility shims"),

    # -- One resolver, one address format ------------------------------------
    forbid("one-resolver/simjit-imports-no-plane",
           "One resolver, one address format",
           r"from \.\.\.(observe|resilience\.inject)", [_SIMJIT],
           "from ...observe import Recorder",
           '§4 "Addressing: Probe"'),
    forbid("one-resolver/raw-slots", "One resolver, one address format",
           r"raw_get|raw_set|get_state_at|state_slot", ["src/repro"],
           "value = engine.raw_get(slot)", '§4 "Addressing: Probe"',
           exclude=(_SIMJIT, f"{_CORE}/probe.py")),

    # -- One block front end -----------------------------------------------
    count("one-block-front-end/source-readers", "One block front end",
          r"inspect\.getsource|ast\.parse\(", ["src"],
          "tree = ast.parse(text)", '§4 "One analysis per block"',
          bound=(0, 1), unit="files"),
    count("one-block-front-end/model-ref-names", "One block front end",
          r"def _model_ref_names", ["src"],
          "def _model_ref_names(func):", '§4 "One analysis per block"',
          bound=(0, 1)),

    # -- One analysis per block --------------------------------------------
    forbid("one-analysis/no-second-analysis", "One analysis per block",
           r"_analyze_block|_analyze_tick|_BlockShape|writes_known"
           r"|gateable", ["src"],
           "shape = _analyze_block(func)", '§4 "One analysis per block"'),
    callers("one-analysis/comb-block-nets", "One analysis per block",
            r"comb_block_nets\(", ["src"],
            [f"{_CORE}/scheduling.py", f"{_SIMJIT}/specializer.py",
             f"{_CORE}/simulation.py"],
            "nets = comb_block_nets(blk)", '§4 "One analysis per block"'),
    callers("one-analysis/unbounded-reads", "One analysis per block",
            r"unbounded_reads\(", ["src"],
            [f"{_CORE}/scheduling.py", f"{_CORE}/simulation.py",
             "src/repro/tools/linter.py"],
            "reads = unbounded_reads(model)", '§4 "One analysis per block"'),

    # -- One model/tool API ------------------------------------------------
    count("one-model-api/signal-collector", "One model/tool API",
          r"def (_collect|_attr_signals|_own_signals|_flat_ports"
          r"|_collect_ports)\b", ["src"],
          "def _own_signals(model):", '§4 "Model/tool API"', bound=(0, 1)),
    forbid("one-model-api/deleted-walkers", "One model/tool API",
           r"_model_signals|translate_block\(", ["src"],
           "ir = translate_block(blk)", '§4 "Model/tool API"'),
    count("one-model-api/ir-kind", "One model/tool API",
          r'"tick_cl" if', ["src"],
          'kind = "tick_cl" if level != "rtl" else "tick_rtl"\n'
          'kind = "tick_cl" if level == "cl" else "tick_rtl"',
          '§4 "Model/tool API"', bound=(0, 1)),
    # ast_ir.block_kind spells the rule the other way round, which the
    # row above does not see.
    count("one-model-api/ir-kind-rtl", "One model/tool API",
          r'"tick_rtl" if', ["src"],
          'kind = "tick_rtl" if level == "rtl" else "tick_cl"',
          '§4 "Model/tool API"', bound=(0, 1)),

    # -- Compile once per block body ---------------------------------------
    forbid("compile-once/per-instance-printing",
           "Compile once per block body",
           r"_printed|per_instance|_state_refs", ["src"],
           "text = self._printed[blk]", '§4 "Block sharing"'),
    forbid("compile-once/text-keyed-functions",
           "Compile once per block body",
           r"_Group|extra_cdef|extra_c\b", ["src"],
           "groups = _Group(blocks)", '§4 "Block sharing"'),
    forbid("compile-once/no-lower", "Compile once per block body",
           r"def lower\(", ["src"], "def lower(blk):",
           '§4 "Block sharing"'),
    forbid("compile-once/one-lowering-site", "Compile once per block body",
           r"BlockTranslator\(", ["src"],
           "ir = BlockTranslator(func, model).translate()",
           '§4 "Block sharing"',
           exclude=(f"{_CORE}/ast_ir.py", f"{_CORE}/bodies.py")),

    # -- SimJIT C is bodies only -------------------------------------------
    forbid("c-bodies-only/no-instance-c", "SimJIT C is bodies only",
           r"init_instance|run_input_blocks|(^|[^A-Z_])C_(SETTLE|STATE"
           r"|INPUT)_", ["src"],
           "static void init_instance(inst_t *I)",
           '§1.2 "Kernel contract"'),
    forbid("c-bodies-only/one-kernel-home", "SimJIT C is bodies only",
           r"C_KERNEL|new_instance\(const", [f"{_SIMJIT}/*.py"],
           "C_KERNEL = 'inst_t *new_instance(const layout_t *L)'",
           '§1.2 "Kernel contract"'),

    # -- SimJIT nets are words ---------------------------------------------
    forbid("nets-are-words/no-u128-slots", "SimJIT nets are words",
           r"u128 \*(cur|nxt)\b", [f"{_SIMJIT}/runtime.c"],
           "  u128 *cur;", '§1.2 "Nets are words"'),
    forbid("nets-are-words/no-flop-gather", "SimJIT nets are words",
           r"flop_slot", [_SIMJIT], "slots = layout.flop_slot",
           '§1.2 "Nets are words"'),

    # -- One jit=True ------------------------------------------------------
    forbid("one-jit/specializer-constructed-in-core-simjit",
           "One jit=True", r"SimJIT(RTL|CL)\(", ["src/repro"],
           "engine = SimJITRTL(model).specialize()",
           '§4 "What gets compiled"',
           exclude=(_SIMJIT, "src/repro/resilience/guard.py")),
    forbid("one-jit/deleted-wrappers", "One jit=True",
           r"_maybe_jit|_jit_rtl|_auto_specialize_stats"
           r"|_LEVEL_SPECIALIZERS", ["src", "examples", "benchmarks"],
           "model = _maybe_jit(model)", '§4 "What gets compiled"'),

    # -- One Python step, never generated ----------------------------------
    forbid("one-python-step/never-generated",
           "One Python step, never generated",
           r"exec\(|generate_kernel|kernel-fallback",
           [f"{_CORE}/scheduling.py", f"{_CORE}/simulation.py",
            "src/repro/resilience", "DESIGN.md", "TUTORIAL.md"],
           "exec(kernel_source, namespace)", '§4 "The step contract"'),
    forbid("one-python-step/one-cycle-loop",
           "One Python step, never generated",
           r"_make_kernel|_step_interpreted|_step_kernel|def _flop",
           ["src"], "def _step_kernel(self, n):",
           '§4 "The step contract"'),

    # -- Lowered blocks ----------------------------------------------------
    callers("lowered-blocks/one-compile-site", "Lowered blocks",
            r"(^|[^.\\w])(exec|compile)\(",
            [f"{_CORE}/bodies.py", f"{_CORE}/pygen.py",
             f"{_CORE}/simulation.py", f"{_CORE}/scheduling.py",
             f"{_CORE}/ast_ir.py"],
            [f"{_CORE}/bodies.py"],
            "code = compile(text, name, 'exec')", '§4 "Lowered blocks"'),

    # -- One SimJIT runtime ------------------------------------------------
    forbid("one-runtime/cgen-holds-no-runtime", "One SimJIT runtime",
           r"obs_|tb_uniform", [f"{_SIMJIT}/cgen.py"],
           "lines.append('void tb_uniform(void) {}')",
           '§4 "What gets compiled"'),

    # -- One net-write rule ------------------------------------------------
    forbid("one-net-write/no-second-path", "One net-write rule",
           r'_register_flop|hasattr\([^)]*"signal"\)', ["src"],
           'if hasattr(end, "signal"):', '§1.1 "signals.py"'),
    forbid("one-net-write/two-lock-handoff", "One net-write rule",
           r"threading\.Event", [f"{_CORE}/adapters.py"],
           "done = threading.Event()", '§4 "Blocking FL ticks"'),
    forbid("one-net-write/list-mem-port-adapter-raw",
           "One net-write rule", r"\.value\.data|ifc_types\.req\(\)",
           [f"{_CORE}/adapters.py"],
           "class ListMemPortAdapter:\n"
           "    def read(s):\n"
           "        return s.resp.msg.value.data",
           '§1.1 "adapters.py"',
           section=(r"^class ListMemPortAdapter", r"^def ")),
    forbid("one-net-write/test-memory-raw", "One net-write rule",
           r"MemRespMsg\.mk", ["src/repro/mem/test_memory.py"],
           "resp = MemRespMsg.mk(0, value)", '§1.1 "signals.py"'),
    forbid("one-net-write/cosim-step-raw", "One net-write rule",
           r"\.value =|int\(ch\.bundle", ["src/repro/verif/cosim.py"],
           "    def _step(self, cycle):\n"
           "        ch.bundle.val.value = 1",
           '§1.6 "Differential verification"',
           section=(r"^    def _step\(", r"^    def ")),

    # -- One width rule ----------------------------------------------------
    forbid("one-width-rule/printers-read-no-type", "One width rule",
           r"infer_types|cast_type|\.vtype|\.casts",
           [f"{_CORE}/pygen.py", f"{_SIMJIT}/cgen.py",
            f"{_CORE}/translation.py", "src/repro/eda/estimator.py"],
           "width = node.vtype.nbits", '§4 "Lowered blocks" (widths)'),

    # -- One structural reading --------------------------------------------
    forbid("one-structural-reading/one-reader",
           "One structural reading",
           r"in [\]\[A-Za-z_.()]*\._connections", ["src"],
           "for a, b in model._connections:",
           '§1.1 "elaboration.py"',
           exclude=(f"{_CORE}/elaboration.py",)),
    count("one-structural-reading/one-loop", "One structural reading",
          r"for .* in .*\._connections", [f"{_CORE}/elaboration.py"],
          "for pair in model._connections:", '§1.1 "elaboration.py"',
          bound=(1, 1)),
    *[count(f"one-structural-reading/kept-reason-{i}",
            "One structural reading", re.escape(literal), ["src"],
            f"why = {literal}", '§4 "Lowered blocks" (kept reasons)',
            bound=(0, 1))
      for i, literal in enumerate(
          ['"event partition: in a combinational cycle"', 'f"tick_{',
           '"blocking FL tick', '"a SimJIT engine"'])],
    forbid("one-structural-reading/one-c-refusal",
           "One structural reading",
           r"\.c\.refused|c is None else", ["src"],
           "why = body.c.refused", '§4 "Lowered blocks" (C refusals)',
           exclude=(f"{_CORE}/bodies.py",)),

    # -- One watchpoint semantics ------------------------------------------
    forbid("one-watchpoint-semantics/one-evaluator",
           "One watchpoint semantics",
           r"class [A-Za-z0-9_]*Eval[(:]|def bind\(",
           ["src/repro/observe/watchpoints.py"],
           "class StableEval:", '§1.9 "Waveform observatory"'),

    # -- One range analysis ------------------------------------------------
    forbid("one-range-analysis/no-typer-bound", "One range analysis",
           r"def wide\(", [f"{_CORE}/ast_ir.py"], "    def wide(self, node):",
           '§4 "Lowered blocks" (the range pass)'),
    forbid("one-range-analysis/no-pygen-bound", "One range analysis",
           r"_widest|bound is None", [f"{_CORE}/pygen.py"],
           "if bound is None:", '§4 "Lowered blocks" (the range pass)'),
    forbid("one-range-analysis/no-second-judge", "One range analysis",
           r"_is_bit|_zero_one_locals|_bit_locals|_value_boolops"
           r"|wide_local|wide_state|wide_value", ["src"],
           "if self._is_bit(node):", '§4 "Lowered blocks" (the range pass)'),
    # One walk records: a walk that judges again computes spans only,
    # and a store is judged by ``exact`` itself.
    forbid("one-range-analysis/one-recording-walk", "One range analysis",
           r"self\.holes [!=]=|def fits64\(", [f"{_CORE}/ast_ir.py"],
           "    def fits64(self, node):\n"
           "        if self.holes != \"class\":",
           '§4 "Lowered blocks" (the range pass)'),

    # -- One dependency list -----------------------------------------------
    # Every CI job installs the same packages, so a test file that one
    # job runs cannot import what that job lacks.
    forbid("one-dependency-list", "One dependency list",
           r"pip3? install(?! pytest pytest-benchmark hypothesis cffi "
           r"numpy$)", [".github/workflows/ci.yml"],
           "        run: python -m pip install pytest cffi numpy",
           "§1.5 Tests"),
    # ... so no test falls back when an import fails.
    forbid("one-dependency-list/no-import-fallback", "One dependency list",
           r"except ImportError", ["tests"],
           "try:\n    import cffi\nexcept ImportError:\n    cffi = None",
           "§1.5 Tests", exclude=("tests/test_structure.py",)),
]


# -- the matcher --------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _walk(root, base):
    """Every file at or under ``base`` (a path from ``root``), as
    ``/``-separated paths from ``root``."""
    full = os.path.join(root, base)
    if os.path.isfile(full):
        return (base,)
    found = []
    for dirpath, dirnames, filenames in os.walk(full):
        dirnames[:] = sorted(d for d in dirnames
                             if d != "__pycache__" and not d.startswith("."))
        rel = os.path.relpath(dirpath, root).replace(os.sep, "/")
        found += [f"{rel}/{name}" for name in sorted(filenames)]
    return tuple(found)


@functools.lru_cache(maxsize=None)
def _read(root, path):
    try:
        with open(os.path.join(root, path), encoding="utf-8",
                  errors="replace") as handle:
            return handle.read()
    except FileNotFoundError:
        return ""


def _base(spec):
    """The directory or file a path spec walks: a glob's fixed prefix."""
    if "*" not in spec:
        return spec
    return spec[:spec.index("*")].rsplit("/", 1)[0]


def _under(path, spec):
    return path == spec or path.startswith(spec.rstrip("/") + "/")


def covers(rule, path):
    """Whether ``rule`` searches the file ``path``."""
    if any(_under(path, ex) for ex in rule.exclude):
        return False
    return any(fnmatch.fnmatchcase(path, spec) if "*" in spec
               else _under(path, spec) for spec in rule.paths)


def _lines(text, section):
    """``(number, line)`` of ``text``, or only of its ``section``
    ranges."""
    lines = enumerate(text.split("\n"), 1)
    if section is None:
        yield from lines
        return
    start, end = map(re.compile, section)
    inside = False
    for number, line in lines:
        if inside:
            yield number, line
            inside = not end.search(line)
        elif start.search(line):
            inside = True
            yield number, line


def hits(rule, root=ROOT, extra=None):
    """``[(path, number, line)]`` of every line ``rule`` matches under
    ``root``.  ``extra`` maps paths to text appended to them (or, for a
    path that is not there, their whole text)."""
    extra = extra or {}
    paths = {path for spec in rule.paths for path in _walk(root, _base(spec))}
    paths |= set(extra)
    regex = re.compile(rule.pattern)
    found = []
    for path in sorted(paths):
        if not covers(rule, path):
            continue
        text = _read(root, path)
        if path in extra:
            text += "\n" + extra[path]
        found += [(path, number, line)
                  for number, line in _lines(text, rule.section)
                  if regex.search(line)]
    return found


def broken(rule, root=ROOT, extra=None):
    """Why the tree at ``root`` (with ``extra``) breaks ``rule``, or
    None."""
    found = hits(rule, root, extra)
    listing = "".join(f"\n  {path}:{number}: {line.strip()}"
                      for path, number, line in found)
    files = sorted({path for path, _, _ in found})
    if rule.kind == "callers":
        if files != list(rule.callers):
            return (f"{rule.pattern!r} is used by {files}, not exactly "
                    f"{list(rule.callers)}{listing}")
        return None
    n = len(files) if rule.unit == "files" else len(found)
    lo, hi = rule.bound
    if n < lo or (hi is not None and n > hi):
        want = f"{lo}" if lo == hi else f"{lo} to {hi}"
        return (f"{n} {rule.unit} match {rule.pattern!r}, want "
                f"{want}{listing}")
    return None


@pytest.mark.parametrize("rule", RULES, ids=[rule.key for rule in RULES])
def test_rule(rule):
    why = broken(rule)
    assert why is None, f"{rule.name} (DESIGN.md {rule.design}): {why}"


# -- the test of the test -----------------------------------------------------


def _inside(rule):
    """A path inside ``rule``'s paths for its bad snippet: the first
    one, or for a callers row the first that is not a caller."""
    for spec in rule.paths:
        if "*" in spec:
            path = spec.replace("*", BAD_FILE.split(".")[0], 1)
        elif os.path.isfile(os.path.join(ROOT, spec)):
            path = spec
        else:
            path = f"{spec}/{BAD_FILE}"
        if path not in (rule.callers or ()):
            return path


def _outside(rule):
    """The paths the snippet must not trip ``rule`` at: each exclusion,
    or a file outside its paths."""
    places = [ex if os.path.isfile(os.path.join(ROOT, ex))
              else f"{ex}/{BAD_FILE}" for ex in rule.exclude]
    return places or [f"tests/{BAD_FILE}"]


@pytest.mark.parametrize("rule", RULES, ids=[rule.key for rule in RULES])
def test_a_rule_trips_on_its_bad_snippet(rule):
    inside = _inside(rule)
    assert covers(rule, inside), inside
    assert broken(rule, extra={inside: rule.bad}) is not None, inside
    for path in _outside(rule):
        assert not covers(rule, path), path
        assert broken(rule, extra={path: rule.bad}) is None, path


def test_the_matcher_reads_brackets_as_git_grep_does():
    """The compile-site row keeps ``git grep -E``'s reading of
    ``[^.\\w]``, whose backslash is literal: ``_compile(`` counts,
    ``re.compile(`` and ``wcompile(`` do not."""
    rule, = (r for r in RULES if r.key == "lowered-blocks/one-compile-site")
    regex = re.compile(rule.pattern)
    assert regex.search("x = _compile(a)") and regex.search("exec(a)")
    assert not regex.search("x = re.compile(a)")
    assert not regex.search("x = wcompile(a)")


def test_a_section_is_a_sed_range():
    rule, = (r for r in RULES
             if r.key == "one-net-write/list-mem-port-adapter-raw")
    text = ("def f():\n    x.value.data\n"
            "class ListMemPortAdapter:\n    y = 1\n"
            "def g():\n    z.value.data\n")
    assert [n for n, _ in _lines(text, rule.section)] == [3, 4, 5]
    assert broken(rule, extra={"src/repro/core/adapters.py": text}) is None


# -- rules a text search cannot hold ------------------------------------------
#
# The rules' other facts are asserted where their subject is tested:
#
# - "Compile once per block body": mesh16's C is five functions in under
#   120 000 bytes (test_simjit_share.py::test_mesh16_is_five_functions);
#   mesh64 simulated and specialized in one process is five lowerings and
#   832 blocks on five functions
#   (test_lowered_blocks.py::test_mesh64_is_832_blocks_on_five_bodies);
#   a RouterCL mesh16 is one lowering of router_logic
#   (test_auto_specialize.py::test_cl_mesh_is_one_body_lowered_once).
# - "SimJIT C is bodies only": tests/test_simjit_layout.py.
# - "SimJIT nets are words": tests/test_simjit_word_edges.py.
# - "C bodies compute like C":
#   test_value_ranges.py::test_the_router_arbitrates_in_native_c.
# - "Emitted Verilog is current": the files are what translate_to_verilog.py
#   writes (test_examples.py::test_example_runs[translate_to_verilog.py])
#   and lint clean (test_translation.py::
#   test_emitted_verilog_declares_each_name_once).
# - "Warm build parses nothing":
#   test_simjit.py::test_second_build_in_a_process_parses_no_declarations
#   and test_adapters.py::
#   test_dropped_simulator_takes_its_worker_and_design_along.
# - "One jit=True": test_auto_specialize.py::
#   test_auto_specializes_whole_mesh_as_one_unit,
#   test_auto_specializes_rtl_tile_components and
#   test_tile_jit_compiles_the_rtl_components.
# - "One Python step, never generated": test_scheduling.py::
#   test_sched_info_and_repr and test_auto_specialize.py::
#   test_simulating_a_consumed_model_names_the_wrapper.
# - "Lowered blocks":
#   test_lowered_blocks.py::test_mesh64_is_832_blocks_on_five_bodies.
# - "One SimJIT runtime": test_simjit_layout.py::
#   test_two_designs_compile_the_runtime_once and
#   test_design_c_holds_no_kernel, test_traffic_compiled.py::
#   test_two_designs_compile_one_runtime.
# - "One width rule": test_simjit.py -k "bits_wrap or wide_floor".
# - "One structural reading": test_auto_specialize.py -k
#   "kept_blocks_are or read_one_way".
# - "One watchpoint semantics": tests/test_instrument.py and
#   test_observe.py (stable_for and implies_within lower and run there).
# - "One range analysis": tests/test_value_ranges.py,
#   test_simjit.py::test_wide_locals_are_refused_in_c and the generated
#   Bits-mode property with its seeded mutants.


def _mesh(nrouters, router=None):
    from repro.net import MeshNetworkStructural, RouterRTL
    return MeshNetworkStructural(router or RouterRTL, nrouters, 256, 32,
                                 2).elaborate()


def _mesh4_engine():
    from repro.core.simjit import SimJITRTL
    spec = SimJITRTL(_mesh(4))
    return spec, spec.specialize().elaborate()


def test_one_analysis_per_block_schedules_mesh16_from_its_bodies():
    """RouterRTL mesh16's schedule is its bodies' reads and writes:
    every comb block static in two levels, the kernel, and 208 blocks
    lowered from five bodies with none kept."""
    from repro import SimulationTool
    info = SimulationTool(_mesh(16)).sched_info()
    got = {key: info[key] for key in (
        "static_blocks", "event_blocks", "levels", "kernel", "lowered")}
    assert got == {"static_blocks": 96, "event_blocks": 0, "levels": 2,
                   "kernel": True,
                   "lowered": {"blocks": 208, "bodies": 5, "kept": {}}}


def test_compile_once_interface_takes_no_parameters():
    from repro.core.simjit import specializer
    params = inspect.signature(specializer._interface).parameters
    assert not params, f"_interface takes {list(params)}"


def test_compile_once_two_cl_mesh4_builds_lower_router_logic_once(
        lowerings):
    """A ``tick_cl`` block is a block body too: two RouterCL mesh4
    engines built in one process are one translation of
    ``router_logic``."""
    from repro.core.simjit import auto_specialize
    from repro.net import MeshNetworkStructural, RouterCL
    for _ in range(2):
        info = auto_specialize(MeshNetworkStructural(
            RouterCL, 4, 256, 32, 2)).jit_engine.kernel_info
        assert info["bodies"] == 1, info
    assert lowerings == {"RouterCL.__init__.<locals>.router_logic": 1}


def test_simjit_nets_are_words_on_mesh4():
    """mesh4's nets all fit one word, so its checkpoint blob is under
    16 bytes a net."""
    _, top = _mesh4_engine()
    layout = top.jit_engine.layout
    assert max(layout.net_width) <= 64, max(layout.net_width)
    assert layout.nbytes < 16 * len(layout.net_width), layout.nbytes


def test_emitted_mesh16_is_one_router_module():
    with open(os.path.join(ROOT, "examples", "verilog_out",
                           "mesh16.v")) as handle:
        text = handle.read()
    modules = re.findall(r"^module (\w+)_[0-9a-f]{8}$", text, re.M)
    assert modules == ["NormalQueue", "RouterRTL", "MeshNetworkStructural"]


def test_one_python_step_keeps_its_step_under_hooks_stats_and_profile():
    """A late cycle hook is seen by the one Python step, which stays
    the step; ``collect_stats`` and ``profile`` refuse no kernel."""
    from repro import SimulationTool
    sim = SimulationTool(_mesh(4), sched="static")
    assert "/python " in repr(sim) and sim.sched_info()["kernel"], repr(sim)
    stamps = []
    sim.add_cycle_hook(stamps.append)
    sim.run(3)
    assert stamps == [0, 1, 2] and "/python " in repr(sim), stamps
    for option in ("collect_stats", "profile"):
        other = SimulationTool(_mesh(4), sched="static", **{option: True})
        assert "/python " in repr(other), repr(other)
        assert other.sched_info()["kernel_refused"] == [], option


def test_compiled_test_bench_is_the_python_bench_on_mesh16():
    """On a SimJIT mesh16 the traffic harness is one C loop fed
    Python's own random words: the same stats, latencies, generator
    state and cycle count as the interpreted mesh's Python loop."""
    from repro.core.simjit import SimJITRTL
    from repro.net import NetworkTrafficHarness
    jit = NetworkTrafficHarness(
        SimJITRTL(_mesh(16)).specialize().elaborate(), seed=3)
    ref = NetworkTrafficHarness(_mesh(16), seed=3)
    got = jit.run_uniform_random(0.3, 200, warmup=20)
    want = ref.run_uniform_random(0.3, 200, warmup=20)
    assert (got.driver, got.refused) == ("compiled", None), got
    assert want.driver == "python", want
    assert got == want and got.latencies == want.latencies
    assert jit.rng.getstate() == ref.rng.getstate()
    assert jit.sim.ncycles == ref.sim.ncycles


def test_pre_edge_settle_runs_what_changed_on_mesh4():
    """Only an output port's ``rdy`` reaches a comb block of mesh4, its
    router's switch: four blocks, one per port.  Whatever the input
    settle leaves, a settle from scratch on a twin loaded with the same
    bytes does not change, for 200 cycles of random inputs."""
    from repro import SimulationTool
    from repro.core.simjit import specializer
    _, top = _mesh4_engine()
    layout = top.jit_engine.layout
    assert len(layout.in_blk) == 4, layout.in_blk
    assert sorted(j for cone in layout.in_cone for j in cone) == [
        0, 1, 2, 3], layout.in_cone
    assert re.search(r"^#define run_comb_blocks\(B\) "
                     r"run_blocks\(B, 0, \(B\)->L->ncomb\)$",
                     specializer._runtime_c()[0], re.M)
    engine, twin = top.jit_engine, _mesh4_engine()[1].jit_engine
    sim = SimulationTool(top)

    def settled_from_scratch():
        blob = engine.snapshot_raw()
        twin.restore_raw(blob)
        assert twin.lib.eval_comb(twin.inst) >= 0
        assert twin.snapshot_raw() == blob, sim.ncycles

    sim.reset()
    rnd = random.Random(1)
    for _ in range(200):
        for i in range(4):
            top.in_[i].val.value = rnd.randint(0, 1)
            top.in_[i].msg.value = rnd.getrandbits(top.in_[i].msg.nbits)
            top.out[i].rdy.value = int(rnd.random() < 0.7)
        engine.eval_comb()
        settled_from_scratch()
        sim.cycle()
        settled_from_scratch()
