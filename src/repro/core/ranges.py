"""Value ranges: what the range pass (:class:`.ast_ir._Spans`) knows of
an int value, a :class:`Span`, and Python's arithmetic on spans.  It
knows nothing of the IR: :mod:`.ast_ir` walks a body and gives each
expression the span this arithmetic makes of its operands'.
"""

from typing import NamedTuple


class Span(NamedTuple):
    """What the range pass knows of an int value: it lies in ``[lo,
    hi)``, a bound None where none is known.  ``holes`` are the
    constant holes the bounds were read from, each ``(id, bits)``: read
    as any value in ``[0, 2**bits)``, or at its value (``bits`` None).
    ``truth``: Python may hold it as a ``bool`` (a comparison or
    ``not``, and ``& | ^``, ``and`` / ``or`` or a conditional of such),
    which a signal write masks to the int a closure's write stores.
    ``ctype``: the type C computes an expression in
    (:meth:`.ast_ir._SpanWalk.span`)."""

    lo: int = None
    hi: int = None
    holes: frozenset = frozenset()
    truth: bool = False
    ctype: str = "int64_t"


ANY = Span()
TRUTH = Span(0, 2, truth=True)
#: The widest shift amount the pass follows (a bound past it is none).
SHIFT_CAP = 128


def within(span, size, low=0):
    """Whether ``span`` lies in ``[low, size)``."""
    return (span.lo is not None and span.lo >= low and span.hi is not None
            and span.hi <= size)


def hull(a, b):
    return Span(None if None in (a.lo, b.lo) else min(a.lo, b.lo),
                None if None in (a.hi, b.hi) else max(a.hi, b.hi),
                a.holes | b.holes, a.truth or b.truth)


def arith(op, a, b):
    """The span of Python's ``a op b`` from the operands'.  A
    right operand that makes Python raise (a zero divisor, a negative
    shift) leaves no value to bound."""
    (alo, ahi, *_), (blo, bhi, *_) = a, b
    apos = alo is not None and alo >= 0
    bpos = blo is not None and blo >= 0
    lo = hi = None
    if op == "+":
        lo = None if None in (alo, blo) else alo + blo
        hi = None if None in (ahi, bhi) else ahi + bhi - 1
    elif op == "-":
        lo = None if None in (alo, bhi) else alo - bhi + 1
        hi = None if None in (ahi, blo) else ahi - blo
    elif op == "*":
        if None not in (alo, ahi, blo, bhi):
            corners = [x * y for x in (alo, ahi - 1) for y in (blo, bhi - 1)]
            lo, hi = min(corners), max(corners) + 1
        elif apos and bpos:
            lo = alo * blo
    elif op == "&":
        # Non-negative, and no more than, an operand that is.
        if apos or bpos:
            lo = 0
            hi = min((h for pos, h in ((apos, ahi), (bpos, bhi))
                      if pos and h is not None), default=None)
    elif op in ("|", "^"):
        if apos and bpos:
            lo = 0
            if None not in (ahi, bhi):
                hi = 1 << max(ahi - 1, bhi - 1).bit_length()
    elif op == ">>":
        if apos:
            lo = alo >> bhi - 1 if bhi is not None and \
                1 <= bhi <= SHIFT_CAP else 0
            hi = None if ahi is None else \
                (ahi - 1 >> min(max(blo or 0, 0), SHIFT_CAP)) + 1
    elif op == "<<":
        if apos and bpos and blo <= SHIFT_CAP:
            lo = alo << blo
            if None not in (ahi, bhi) and bhi - 1 <= SHIFT_CAP:
                hi = (ahi - 1 << bhi - 1) + 1
    elif op == "%":
        if bpos:
            lo = 0
            hi = min((h for h in (None if bhi is None else bhi - 1,
                                  ahi if apos else None) if h is not None),
                     default=None)
    elif op == "//":
        if apos and bpos:
            lo = 0 if bhi is None or bhi < 2 else alo // (bhi - 1)
            hi = None if ahi is None else (ahi - 1) // max(blo, 1) + 1
    return Span(lo, hi, a.holes | b.holes,
                op in ("&", "|", "^") and a.truth and b.truth)
