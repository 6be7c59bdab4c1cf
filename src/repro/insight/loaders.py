"""Schema-validated readers for every report family the repo emits.

One loading discipline for all of them: a missing file, truncated
JSON, or wrong/unknown schema raises :class:`InsightError` carrying a
single human-readable line — the CLI turns that into a nonzero exit
and a one-line diagnostic, never a traceback.

Report families (dispatch is on the ``schema`` key):

=====================  ===================================================
schema                 producer
=====================  ===================================================
``repro-fleet-v1``     :func:`repro.fleet.aggregate.aggregate`
``repro-telemetry-v1`` :meth:`repro.telemetry.export.TelemetryReport`
``repro-observe-v1``   :func:`repro.observe.forensics.export_bundle`
``repro-bench-v1``     :func:`benchmarks/common.write_json_result`
``repro-insight-v1``   :func:`repro.insight.diff.diff_reports`
=====================  ===================================================
"""

from __future__ import annotations

import json

__all__ = [
    "InsightError",
    "KNOWN_SCHEMAS",
    "load_bench",
    "load_json",
    "load_report",
    "validate_report",
]


class InsightError(Exception):
    """A load/validate failure with a one-line, CLI-printable message."""


#: required top-level keys per schema (presence, not deep types — the
#: producers are in this repo and unit-tested; the loader's job is to
#: catch the wrong file handed to the wrong tool).
KNOWN_SCHEMAS = {
    "repro-fleet-v1": (
        "campaign", "seed", "ntasks", "status", "counts", "failures",
        "tasks", "coverage", "telemetry",
    ),
    "repro-telemetry-v1": (
        "design", "ncycles", "counters", "histograms", "leaf_totals",
    ),
    "repro-observe-v1": ("design", "reason", "cycle", "windows"),
    "repro-bench-v1": ("bench", "results", "host"),
    "repro-insight-v1": ("kind", "identical", "sections"),
}


def load_json(path):
    """Read one JSON file; :class:`InsightError` on any failure."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise InsightError(f"{path}: no such file") from None
    except IsADirectoryError:
        raise InsightError(f"{path}: is a directory") from None
    except OSError as exc:
        raise InsightError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InsightError(
            f"{path}: not valid JSON (truncated?): {exc.msg} at "
            f"line {exc.lineno}") from None
    except UnicodeDecodeError:
        raise InsightError(f"{path}: not a text file") from None


def validate_report(report, path="<report>", expect=None):
    """Check ``report`` is a dict with a known schema and the keys
    that schema promises.  Returns the schema id.

    ``expect`` (a schema id or tuple of them) additionally pins which
    family is acceptable — the diff tool uses it to refuse comparing a
    telemetry report against a fleet report.
    """
    if not isinstance(report, dict):
        raise InsightError(
            f"{path}: expected a JSON object, got "
            f"{type(report).__name__}")
    schema = report.get("schema")
    if schema not in KNOWN_SCHEMAS:
        known = ", ".join(sorted(KNOWN_SCHEMAS))
        raise InsightError(
            f"{path}: unknown schema {schema!r} (known: {known})")
    if expect is not None:
        allowed = (expect,) if isinstance(expect, str) else tuple(expect)
        if schema not in allowed:
            raise InsightError(
                f"{path}: schema {schema!r}, expected "
                f"{' or '.join(allowed)}")
    missing = [k for k in KNOWN_SCHEMAS[schema] if k not in report]
    if missing:
        raise InsightError(
            f"{path}: {schema} report is missing key(s): "
            f"{', '.join(missing)}")
    return schema


def load_report(path, expect=None):
    """Load + validate one report file; returns ``(schema, dict)``."""
    report = load_json(path)
    return validate_report(report, path=path, expect=expect), report


def load_bench(path):
    """Load and validate one ``repro-bench-v1`` benchmark envelope."""
    data = load_json(path)
    validate_report(data, path=path, expect="repro-bench-v1")
    if not isinstance(data["results"], list):
        raise InsightError(f"{path}: 'results' must be a list")
    return data
