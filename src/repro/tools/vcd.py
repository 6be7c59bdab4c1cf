"""VCD waveform dumping.

A user-written tool in the paper's model/tool-split sense (Section
III-B): it consumes an elaborated model instance and the simulator's
per-cycle sampling hook to produce a standard Value Change Dump file
viewable in GTKWave.

Usage::

    with VCDWriter("trace.vcd") as vcd:
        sim = SimulationTool(model, vcd=vcd)
        ...

The file is opened lazily on attach (a constructed-but-unused writer
creates nothing), and ``close()`` is idempotent and flush-safe, so the
context-manager form guarantees a complete file even when the simulated
block raises.  ``SimulationTool.close()`` closes an attached writer.
"""

from __future__ import annotations

import string


def vcd_id_codes():
    """Generate short VCD identifier codes ("a", "b", ..., "aa", ...)."""
    chars = string.ascii_letters + string.digits + "!@#$%^&*"
    i = 0
    while True:
        code = ""
        n = i
        while True:
            code += chars[n % len(chars)]
            n //= len(chars)
            if n == 0:
                break
        yield code
        i += 1


def vcd_value_line(value, nbits, code):
    """Format one VCD value-change line for an integer value."""
    if nbits == 1:
        return f"{value}{code}\n"
    return f"b{value:b} {code}\n"


class VCDWriter:
    """Writes cycle-sampled VCD for every signal in the design."""

    def __init__(self, path, timescale="1ns"):
        self.path = path
        self.timescale = timescale
        self._file = None           # opened lazily at attach time
        self._closed = False
        self._signals = []         # (signal, id_code)
        self._last = {}
        self._header_done = False

    _id_codes = staticmethod(vcd_id_codes)

    def _write_header(self, model):
        out = self._file = open(self.path, "w")
        out.write(f"$timescale {self.timescale} $end\n")
        codes = self._id_codes()
        self._emit_scope(model, codes)
        out.write("$enddefinitions $end\n")
        out.write("$dumpvars\n")
        for sig, code in self._signals:
            out.write(self._value_line(sig, code))
        out.write("$end\n")
        self._header_done = True

    def _emit_scope(self, model, codes):
        out = self._file
        scope = model.name or type(model).__name__.lower()
        out.write(f"$scope module {scope} $end\n")
        for sig in model.get_signals():
            code = next(codes)
            name = (sig.name or "sig").replace(".", "__") \
                .replace("[", "_").replace("]", "")
            out.write(f"$var wire {sig.nbits} {code} {name} $end\n")
            self._signals.append((sig, code))
        for child in model.get_submodels():
            self._emit_scope(child, codes)
        out.write("$upscope $end\n")

    @staticmethod
    def _value_line(sig, code):
        return vcd_value_line(sig._net.find().read(), sig.nbits, code)

    def sample(self, cycle):
        """Called by the simulator after every cycle.

        Cycles on which no signal changed emit nothing at all — VCD
        timesteps are sparse, and an empty ``#<cycle>`` line only
        bloats the dump."""
        if not self._header_done:
            raise RuntimeError("VCDWriter not attached to a simulator")
        if self._closed:
            raise RuntimeError(f"VCDWriter {self.path!r} is closed")
        last = self._last
        lines = []
        for sig, code in self._signals:
            value = sig._net.find().read()
            if last.get(code) != value:
                last[code] = value
                lines.append(self._value_line(sig, code))
        if lines:
            self._file.write(f"#{cycle}\n")
            self._file.writelines(lines)

    def attach(self, model):
        """Bind to an elaborated model (called by SimulationTool)."""
        if self._closed:
            raise RuntimeError(f"VCDWriter {self.path!r} is closed")
        if not self._header_done:
            try:
                self._write_header(model)
            except BaseException:
                # Never leak a half-written open handle: close it and
                # surface the original error.
                self.close()
                raise

    def close(self):
        """Flush and close the output file.  Idempotent; safe to call
        on a writer that never attached (nothing was opened)."""
        if self._closed:
            return
        self._closed = True
        if self._file is not None:
            try:
                self._file.flush()
            finally:
                self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
