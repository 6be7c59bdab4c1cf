"""The lowered side of every library body, pinned by sha256.

``golden/lowered_sha256.json`` holds, for each ``"<design>
<class>.<block>"`` of ``test_value_ranges._library()``, the distinct
bodies its instances get, in the order the walk meets them.  A body's
record is:

- ``body``: the sha256 prefix of its printed source, its bind and
  lowered Python together (``Body.filename``'s digest), whose
  docstring names the block's file from the package root
  (``repro/...``): the same in every checkout;
- ``c``: the sha256 of its C template (``CBody.text``), or None;
- ``refused`` / ``c_refused``: ``Body.refused`` and ``Body.c_refused``;
- ``guards``: the sha256 prefix of ``repr(Body.guards)``, the values a
  sibling must reproduce to share the body.

A block that has no body records its refusal instead (``{"why":
...}``).  With ``golden/simjit_c_sha256.json`` (the C of whole
engines) this is the net for a refactor of how bodies are made: the
range pass's facts reach the lowered Python (a signal write's mask),
the C (native operators, the refusals) and the bind (the guards of a
constant hole a fact reads), so a refactor that must not change a
decision leaves every entry as it is.  A change that alters them on
purpose regenerates the table and says so::

    PYTHONPATH=src python tests/test_lowered_golden.py --write
"""

import hashlib
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import tests.conftest  # noqa: E402,F401  (the profiles the tests read)
from repro.core import bodies  # noqa: E402
from tests.test_value_ranges import _library  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "lowered_sha256.json")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _record(answer):
    if isinstance(answer, str):
        return {"why": answer}
    body = answer[0]
    return {"body": body.filename.rsplit(" ", 1)[1].rstrip(">"),
            "c": body.c and body.c.text and _sha(body.c.text),
            "refused": body.refused, "c_refused": body.c_refused,
            "guards": _sha(repr(body.guards))[:16]}


def _rows(name, model):
    """``{"<name> <class>.<block>": [record, ...]}`` of ``model``."""
    rows, stack = {}, [model.elaborate()]
    while stack:
        model = stack.pop()
        stack.extend(model.get_submodels())
        for blk in [*model.get_comb_blocks(), *model.get_tick_blocks()]:
            records = rows.setdefault(
                f"{name} {type(model).__name__}.{blk.func.__name__}", [])
            record = _record(bodies.body_or_why(blk))
            if record not in records:
                records.append(record)
    return rows


def _golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", list(_library()))
def test_lowered_bodies_match_the_golden_table(name):
    want = {key: rows for key, rows in _golden().items()
            if key.split(" ", 1)[0] == name}
    assert want, f"{name} is not in {GOLDEN}"
    assert _rows(name, _library()[name]()) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    table = {}
    for name, build in _library().items():
        table.update(_rows(name, build()))
    with open(GOLDEN, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(table)} entries -> {GOLDEN}")
