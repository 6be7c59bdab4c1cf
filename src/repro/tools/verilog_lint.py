"""Structural linter for generated Verilog.

No Verilog simulator or synthesis tool is available offline, so this
tool gives the TranslationTool output a meaningful mechanical check: it
parses module structure with a small tokenizer and verifies

- every module instantiated is defined in the same source (or is a
  known primitive);
- instance port names exist on the instantiated module, and the
  parameters an instance sets (``Mod #(.P(v)) inst (...)``) are
  declared by it;
- every identifier used inside a module body is declared (port, wire,
  reg, integer, genvar, parameter, or array);
- begin/end, module/endmodule, case/endcase nest correctly;
- no identifier is declared twice in one module.

It is intentionally approximate (no expression grammar), but it has
caught real emitter bugs (undeclared shadow arrays, bad port maps), and
every translation test runs it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_KEYWORDS = {
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "integer", "genvar", "assign", "always", "begin", "end", "if",
    "else", "for", "case", "endcase", "default", "posedge", "negedge",
    "or", "and", "not", "parameter", "localparam", "initial",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_DECL = re.compile(
    r"^\s*(?:input|output|inout)?\s*"
    r"(?:wire|reg|integer|genvar|parameter|localparam)\s*"
    r"(?:\[[^\]]+\]\s*)?"
    r"([A-Za-z_][A-Za-z0-9_$]*)"
)


@dataclass
class VerilogLintError:
    module: str
    message: str

    def __str__(self):
        return f"[{self.module}] {self.message}"


def _strip_comments(text):
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)


def _split_modules(text):
    """Return [(name, body)] for each module in the source."""
    modules = []
    for match in re.finditer(
            r"^module\s+([A-Za-z_][A-Za-z0-9_$]*)(.*?)^endmodule",
            text, re.MULTILINE | re.DOTALL):
        modules.append((match.group(1), match.group(2)))
    return modules


def _declared_names(body):
    names = set()
    # Port and net declarations (also inside the port list).
    for line in body.splitlines():
        match = _DECL.match(line)
        if match:
            names.add(match.group(1))
        # Port-list entries: "input  wire [7:0] foo," possibly with
        # trailing comma handled by _DECL already; also catch
        # "input  wire foo".
    # Multi-declaration safety: find all "(wire|reg|integer) [range]? name"
    for match in re.finditer(
            r"\b(?:wire|reg|integer|genvar|parameter|localparam)\b\s*"
            r"(?:\[[^\]]+\]\s*)?([A-Za-z_][A-Za-z0-9_$]*)", body):
        names.add(match.group(1))
    return names


#: An expression with parentheses one level deep, as the translator
#: prints a negative int: ``(-1)``.
_EXPR = r"(?:[^()]|\([^()]*\))*"


def _named(text):
    """``{name: expr}`` of a ``.name(expr), ...`` list."""
    return {match.group(1): match.group(2).strip() for match in re.finditer(
        rf"\.([A-Za-z_][A-Za-z0-9_$]*)\s*\(({_EXPR})\)", text or "")}


def _instance_refs(body):
    """[(module_name, instance_name, {port: expr}, {parameter: expr})]
    for each instance."""
    instances = []
    pattern = re.compile(
        r"([A-Za-z_][A-Za-z0-9_$]*)\s+"
        rf"(?:#\s*\(((?:[^()]|\({_EXPR}\))*)\)\s*)?"
        r"([A-Za-z_][A-Za-z0-9_$]*)\s*\n?\s*"
        r"\(\s*(\.[^;]*?)\)\s*;",
        re.DOTALL,
    )
    for match in pattern.finditer(body):
        mod, params_text, inst, ports_text = match.groups()
        if mod in _KEYWORDS:
            continue
        instances.append((mod, inst, _named(ports_text),
                          _named(params_text)))
    return instances


def _module_ports(body):
    ports = set()
    header = body.split(");", 1)[0]
    for match in re.finditer(
            r"\b(?:input|output|inout)\b\s*(?:wire|reg)?\s*"
            r"(?:\[[^\]]+\]\s*)?([A-Za-z_][A-Za-z0-9_$]*)", header):
        ports.add(match.group(1))
    return ports


def lint_verilog(text):
    """Lint generated Verilog source; returns a list of errors."""
    text = _strip_comments(text)
    errors = []
    modules = _split_modules(text)
    if not modules:
        return [VerilogLintError("?", "no modules found")]
    defined = {name: body for name, body in modules}
    module_ports = {name: _module_ports(body)
                    for name, body in modules}
    module_params = {
        name: set(re.findall(r"\bparameter\s+([A-Za-z_][A-Za-z0-9_$]*)",
                             body))
        for name, body in modules}

    for name, body in modules:
        # Balance checks.
        begins = len(re.findall(r"\bbegin\b", body))
        ends = len(re.findall(r"\bend\b", body))
        if begins != ends:
            errors.append(VerilogLintError(
                name, f"unbalanced begin/end ({begins}/{ends})"))
        cases = len(re.findall(r"\bcase\b", body))
        endcases = len(re.findall(r"\bendcase\b", body))
        if cases != endcases:
            errors.append(VerilogLintError(name, "unbalanced case"))

        declared = _declared_names(body) | module_ports[name]
        declared |= {"clk", "reset"}

        instances = _instance_refs(body)
        instance_names = set()
        for mod, inst, ports, params in instances:
            instance_names.add(inst)
            if mod not in defined:
                errors.append(VerilogLintError(
                    name, f"instantiates undefined module {mod!r}"))
                continue
            for port in ports:
                if port not in module_ports[mod]:
                    errors.append(VerilogLintError(
                        name,
                        f"instance {inst!r}: {mod!r} has no port "
                        f"{port!r}"))
            for param in params:
                if param not in module_params[mod]:
                    errors.append(VerilogLintError(
                        name,
                        f"instance {inst!r}: {mod!r} has no parameter "
                        f"{param!r}"))

        # Identifier usage check.  Instance port-map names (`.port(`)
        # belong to the instantiated module's namespace, not this one.
        portmap_names = set(
            re.findall(r"\.([A-Za-z_][A-Za-z0-9_$]*)\s*\(", body))
        used = set(_IDENT.findall(body)) - portmap_names
        unknown = sorted(
            ident for ident in used
            if ident not in declared
            and ident not in _KEYWORDS
            and ident not in defined
            and ident not in instance_names
            and not ident.isdigit()
        )
        for ident in unknown:
            errors.append(VerilogLintError(
                name, f"undeclared identifier {ident!r}"))

    return errors
