"""Lightweight functional-coverage bins.

Constrained-random testing without coverage is hope-based: the run may
never have exercised the interesting states.  :class:`Coverage` is a
dict of named bin groups with hit counts; the cosim harness bumps
generic bins (handshakes, stalls, backpressure), and DUT adapters bump
domain bins (opcode mix, queue-full events, router turns) via the
classifier helpers below.  ``report()`` renders a compact table that
the differential sweeps print per run, and ``require()`` lets a test
assert that the stimulus actually reached the states it claims to
verify.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = [
    "Coverage",
    "classify_mem_request",
    "classify_net_message",
]


class Coverage:
    """Named coverage bins: ``cov.hit(group, bin)`` counts events.

    Instances travel across process boundaries (the fleet runner ships
    per-task coverage back to the aggregator), so they pickle cleanly
    and round-trip through plain dicts:

    >>> cov = Coverage()
    >>> cov.hit("handshake", "drive_xfer", 3)
    >>> Coverage.from_dict(cov.to_dict()).count("handshake", "drive_xfer")
    3
    """

    def __init__(self):
        self._groups = defaultdict(lambda: defaultdict(int))

    def __getstate__(self):
        # The defaultdict factories are lambdas, which do not pickle;
        # ship plain dicts and rebuild the defaults on the far side.
        return self.to_dict()

    def __setstate__(self, state):
        self.__init__()
        for group, bins in state.items():
            for name, count in bins.items():
                self._groups[group][name] += count

    def to_dict(self):
        """``{group: {bin: count}}`` with only non-empty groups."""
        return {
            group: dict(bins)
            for group, bins in self._groups.items() if bins
        }

    @classmethod
    def from_dict(cls, data):
        cov = cls()
        cov.__setstate__(data or {})
        return cov

    def hit(self, group, name, n=1):
        self._groups[group][str(name)] += n

    def count(self, group, name):
        return self._groups[group][str(name)]

    def bins(self, group):
        """Hit-count dict of one group (empty if never touched)."""
        return dict(self._groups[group])

    def merge(self, other):
        for group, bins in other._groups.items():
            for name, count in bins.items():
                self._groups[group][name] += count

    def require(self, group, names, min_hits=1):
        """Raise ``AssertionError`` unless every bin in ``names`` got at
        least ``min_hits`` — the test's claim that stimulus reached the
        states it verifies."""
        missing = [
            name for name in names
            if self._groups[group][str(name)] < min_hits
        ]
        if missing:
            raise AssertionError(
                f"coverage group {group!r} missing bins {missing} "
                f"(have {self.bins(group)})")

    def report(self):
        """Multi-line human-readable coverage table."""
        lines = []
        for group in sorted(self._groups):
            bins = self._groups[group]
            total = sum(bins.values())
            parts = ", ".join(
                f"{name}={count}" for name, count in sorted(bins.items()))
            lines.append(f"{group:<24} ({total:>6} hits): {parts}")
        return "\n".join(lines) if lines else "(no coverage recorded)"


def _field(struct, name, packed):
    """Field ``name`` of a packed ``struct`` value, by its bit range:
    no ``BitStruct`` per transfer."""
    lo, hi = struct.field_slice(name)
    return (packed >> lo) & ((1 << (hi - lo)) - 1)


def classify_mem_request(cov, packed, group="mem_req"):
    """Bin a packed ``MemReqMsg``: read/write mix and data corners."""
    from ..mem.msgs import MEM_REQ_WRITE, MemReqMsg

    packed = int(packed)
    kind = _field(MemReqMsg, "type_", packed)
    cov.hit(group, "write" if kind == MEM_REQ_WRITE else "read")
    data = _field(MemReqMsg, "data", packed)
    if data == 0:
        cov.hit(group, "data_zero")
    elif data == (1 << 32) - 1:
        cov.hit(group, "data_ones")
    if data and not (data & (data - 1)):
        cov.hit(group, "data_onehot")


def classify_net_message(cov, msg_type, packed, group="net_msg"):
    """Bin a packed ``NetMsg``: traffic direction per source terminal
    (straight / turn / self-send — the router-turn coverage of a 2-D
    mesh)."""
    packed = int(packed)
    src = _field(msg_type, "src", packed)
    dest = _field(msg_type, "dest", packed)
    if src == dest:
        cov.hit(group, "self_send")
    else:
        cov.hit(group, f"pair_{src}->{dest}")
