"""Temporal watchpoints: trigger combinators evaluated per cycle.

The second observatory pillar: small temporal conditions over signal
values, checked once per cycle at the same post-edge sampling point as
the flight recorder, on every substrate.  A watchpoint that fires can
log, invoke a callback, dump the recorder window, or halt the
simulation with a structured diagnostic — which makes the same
machinery serve as lightweight online protocol assertions.

Conditions are built *unbound* from signal specs (dotted paths,
``Signal`` objects or slices — :class:`~repro.core.probe.Probe` specs)
and bound to a simulator when the watchpoint is armed::

    from repro.observe import rose, fell, stable_for, implies_within

    wp = sim.watch(rose("chan.out_val") & value_is("chan.out_msg", 0),
                   name="zero-payload", halt=True)
    sim.watch(implies_within(rose("link.req_val"),
                             rose("link.resp_val"), 64),
              name="req-gets-resp", dump="observe_out")

Combinators:

- :func:`rose` / :func:`fell` — 0->nonzero / nonzero->0 edge this cycle
- :func:`changed` — any value change this cycle
- :func:`value_is` — current value equals (or is in) the given value(s)
- :func:`when` — arbitrary predicate over one or more signal values
- :func:`stable_for` — value has now been unchanged for exactly ``n``
  consecutive cycles (re-arms after the next change)
- :func:`implies_within` — antecedent fired but the consequent did NOT
  follow within ``n`` cycles (fires *as the violation*, like an SVA
  ``|-> ##[0:n]`` assertion failing)

and the boolean algebra ``&``, ``|``, ``~`` over all of the above.
Edge semantics compare against the value at the end of the previous
cycle, so they are identical in event, static, mega-cycle-kernel, and
SimJIT execution.

Sampled from Python, a watchpoint reads its taps in one pass and
evaluates its condition only on a cycle where one of them changed; on
any other the verdict follows from the last one without reading
anything again (see :meth:`Watchpoint.sample`).  So a :func:`when`
predicate must be a pure function of the values of the signals it
names.
"""

from __future__ import annotations

import operator

from ..core.probe import Probe, Unlowerable, read_all

__all__ = [
    "Condition",
    "Watchpoint",
    "WatchpointHit",
    "rose",
    "fell",
    "changed",
    "value_is",
    "when",
    "stable_for",
    "implies_within",
]


class WatchpointHit(Exception):
    """Raised (out of ``cycle()``) by a halting watchpoint.

    Carries ``diagnostic``, a JSON-serializable dict with the
    watchpoint name, firing cycle, condition description, and the
    observed signal values at the moment of the hit."""

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


# ---------------------------------------------------------------------------
# Unbound condition specs


class Condition:
    """An unbound temporal condition; build with the combinators below
    and compose with ``&``, ``|``, ``~``."""

    def bind(self, index_of, values):
        """Return this condition's evaluator (see :class:`_Eval`) over
        a watchpoint's one-pass read of its taps: ``index_of(spec)`` is
        the position of a signal spec's value in that read (see
        :func:`_condition_taps`), ``values`` the read as of now."""
        raise NotImplementedError

    def describe(self):
        raise NotImplementedError

    def __and__(self, other):
        return _BoolOp("and", self, other)

    def __or__(self, other):
        return _BoolOp("or", self, other)

    def __invert__(self):
        return _Not(self)

    def __repr__(self):
        return f"<Condition {self.describe()}>"


class _Eval:
    """A bound condition.  ``update(cycle, values)`` evaluates it on a
    cycle where some tap of its watchpoint changed, ``hold(cycle)`` on
    one where none did; both return the verdict."""

    __slots__ = ()

    def update(self, cycle, values):
        raise NotImplementedError

    def hold(self, cycle):
        raise NotImplementedError


class _BoolOp(Condition):
    def __init__(self, op, left, right):
        if not isinstance(left, Condition) or not isinstance(
                right, Condition):
            raise TypeError("conditions compose only with conditions")
        self.op = op
        self.left = left
        self.right = right

    def bind(self, index_of, values):
        lhs = self.left.bind(index_of, values)
        rhs = self.right.bind(index_of, values)
        return _BoolEval(operator.and_ if self.op == "and" else operator.or_,
                         lhs, rhs)

    def describe(self):
        sym = "&" if self.op == "and" else "|"
        return f"({self.left.describe()} {sym} {self.right.describe()})"


class _BoolEval(_Eval):
    # Both operands evaluate unconditionally: stateful conditions (edge
    # trackers, stability counters) must see every cycle.
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op, lhs, rhs):
        self.op, self.lhs, self.rhs = op, lhs, rhs

    def update(self, cycle, values):
        return self.op(self.lhs.update(cycle, values),
                       self.rhs.update(cycle, values))

    def hold(self, cycle):
        return self.op(self.lhs.hold(cycle), self.rhs.hold(cycle))


class _Not(Condition):
    def __init__(self, inner):
        if not isinstance(inner, Condition):
            raise TypeError("~ applies only to conditions")
        self.inner = inner

    def bind(self, index_of, values):
        return _NotEval(self.inner.bind(index_of, values))

    def describe(self):
        return f"~{self.inner.describe()}"


class _NotEval(_Eval):
    __slots__ = ("inner",)

    def __init__(self, inner):
        self.inner = inner

    def update(self, cycle, values):
        return not self.inner.update(cycle, values)

    def hold(self, cycle):
        return not self.inner.hold(cycle)


def _spec_name(spec):
    return spec if isinstance(spec, str) else (
        getattr(spec, "name", None) or repr(spec))


class _SignalCondition(Condition):
    """Base for conditions over a single signal spec."""

    def __init__(self, spec):
        self.spec = spec


class _Edge(_SignalCondition):
    def __init__(self, spec, direction):
        super().__init__(spec)
        self.direction = direction      # "rose" | "fell" | "changed"

    def bind(self, index_of, values):
        i = index_of(self.spec)
        return _EdgeEval(i, self.direction, values[i])

    def describe(self):
        return f"{self.direction}({_spec_name(self.spec)})"


class _EdgeEval(_Eval):
    """Against the value at the previous sample; with no tap changed
    there is no edge."""

    __slots__ = ("i", "direction", "prev")

    def __init__(self, i, direction, prev):
        self.i, self.direction, self.prev = i, direction, prev

    def update(self, cycle, values):
        prev = self.prev
        value = self.prev = values[self.i]
        if self.direction == "rose":
            return prev == 0 and value != 0
        if self.direction == "fell":
            return prev != 0 and value == 0
        return value != prev

    def hold(self, cycle):
        return False


class _ValueIs(_SignalCondition):
    def __init__(self, spec, values):
        super().__init__(spec)
        self.values = values

    def bind(self, index_of, values):
        i = index_of(self.spec)
        return _PredicateEval(lambda values: values[i] in self.values)

    def describe(self):
        vals = sorted(self.values)
        shown = vals[0] if len(vals) == 1 else vals
        return f"value_is({_spec_name(self.spec)}, {shown})"


class _PredicateEval(_Eval):
    """A function of this cycle's values: with no tap changed, its last
    verdict."""

    __slots__ = ("test", "verdict")

    def __init__(self, test):
        self.test = test
        self.verdict = False        # the first sample always updates

    def update(self, cycle, values):
        self.verdict = verdict = self.test(values)
        return verdict

    def hold(self, cycle):
        return self.verdict


class _When(Condition):
    def __init__(self, fn, specs):
        self.fn = fn
        self.specs = specs

    def bind(self, index_of, values):
        at = [index_of(spec) for spec in self.specs]
        fn = self.fn
        return _PredicateEval(
            lambda values: bool(fn(*[values[i] for i in at])))

    def describe(self):
        name = getattr(self.fn, "__name__", "<fn>")
        args = ", ".join(_spec_name(s) for s in self.specs)
        return f"when({name}, {args})"


class _StableFor(_SignalCondition):
    def __init__(self, spec, n):
        super().__init__(spec)
        n = int(n)
        if n < 1:
            raise ValueError(f"stable_for needs n >= 1; got {n}")
        self.n = n

    def bind(self, index_of, values):
        i = index_of(self.spec)
        return _StableEval(i, self.n, values[i])

    def describe(self):
        return f"stable_for({_spec_name(self.spec)}, {self.n})"


class _StableEval(_Eval):
    __slots__ = ("i", "n", "prev", "streak")

    def __init__(self, i, n, prev):
        self.i, self.n, self.prev, self.streak = i, n, prev, 0

    def update(self, cycle, values):
        value = values[self.i]
        if value == self.prev:
            self.streak += 1
        else:
            self.prev = value
            self.streak = 0
        # Fire exactly once per stable stretch, when it reaches n.
        return self.streak == self.n

    def hold(self, cycle):
        self.streak += 1
        return self.streak == self.n


class _ImpliesWithin(Condition):
    def __init__(self, antecedent, consequent, n):
        if not isinstance(antecedent, Condition) or not isinstance(
                consequent, Condition):
            raise TypeError(
                "implies_within composes two conditions "
                "(e.g. rose(a), rose(b))")
        n = int(n)
        if n < 1:
            raise ValueError(f"implies_within needs n >= 1; got {n}")
        self.antecedent = antecedent
        self.consequent = consequent
        self.n = n

    def bind(self, index_of, values):
        return _ImpliesEval(self.antecedent.bind(index_of, values),
                            self.consequent.bind(index_of, values), self.n)

    def describe(self):
        return (f"implies_within({self.antecedent.describe()}, "
                f"{self.consequent.describe()}, {self.n})")


class _ImpliesEval(_Eval):
    __slots__ = ("ant", "con", "n", "pending")

    def __init__(self, ant, con, n):
        self.ant, self.con, self.n = ant, con, n
        self.pending = []           # deadline cycles, oldest first

    def _verdict(self, cycle, con, ant):
        # Order matters: a consequent on the deadline cycle itself
        # still satisfies the obligation (##[0:n] semantics).
        pending = self.pending
        if con and pending:
            pending.pop(0)
        if ant:
            pending.append(cycle + self.n)
        if pending and cycle >= pending[0]:
            pending.pop(0)
            return True              # violation: deadline passed
        return False

    def update(self, cycle, values):
        con = self.con.update(cycle, values)
        return self._verdict(cycle, con, self.ant.update(cycle, values))

    def hold(self, cycle):
        con = self.con.hold(cycle)
        return self._verdict(cycle, con, self.ant.hold(cycle))


# ---------------------------------------------------------------------------
# C lowering (SimJIT compiled watchpoints)


def lower_condition(condition, slot_of):
    """Lower a condition tree to the flat postorder node forest the
    SimJIT ``obs_t`` runtime evaluates: ``[(kind, slot, a, b, aux)]``
    with operand indices ``a``/``b`` relative to the first node and the
    root last.  Node kinds mirror the C evaluator: 0 rose, 1 fell,
    2 changed, 3 value_is, 4 and, 5 or, 6 not.

    Raises :class:`~repro.core.probe.Unlowerable` for
    predicates the C side cannot express (``when``, ``stable_for``,
    ``implies_within``, comparison values outside the 128-bit net
    range, and any spec that does not lower to a net slot).
    """
    nodes = []

    def emit(kind, slot=-1, a=-1, b=-1, aux=0):
        nodes.append((kind, slot, a, b, aux))
        return len(nodes) - 1

    def visit(cond):
        if isinstance(cond, _Edge):
            kind = {"rose": 0, "fell": 1, "changed": 2}[cond.direction]
            return emit(kind, slot=slot_of(cond.spec))
        if isinstance(cond, _ValueIs):
            slot = slot_of(cond.spec)
            values = sorted(cond.values)
            for value in values:
                if not 0 <= value < (1 << 128):
                    raise Unlowerable(
                        f"comparison value {value} is outside the "
                        f"128-bit net range")
            idx = emit(3, slot=slot, aux=values[0])
            for value in values[1:]:
                idx = emit(5, a=idx, b=emit(3, slot=slot, aux=value))
            return idx
        if isinstance(cond, _BoolOp):
            a = visit(cond.left)
            b = visit(cond.right)
            return emit(4 if cond.op == "and" else 5, a=a, b=b)
        if isinstance(cond, _Not):
            return emit(6, a=visit(cond.inner))
        raise Unlowerable(
            f"{cond.describe()} is a Python-only predicate "
            f"({type(cond).__name__.lstrip('_')})")

    visit(condition)
    return nodes


# ---------------------------------------------------------------------------
# Public combinator constructors


def rose(spec):
    """Fires on cycles where the signal went 0 -> nonzero."""
    return _Edge(spec, "rose")


def fell(spec):
    """Fires on cycles where the signal went nonzero -> 0."""
    return _Edge(spec, "fell")


def changed(spec):
    """Fires on cycles where the signal's value changed at all."""
    return _Edge(spec, "changed")


def value_is(spec, value, *more):
    """Fires while the signal equals ``value`` (or any of ``more``)."""
    return _ValueIs(spec, frozenset((int(value),)
                                    + tuple(int(v) for v in more)))


def when(fn, *specs):
    """Fires when ``fn(*values)`` is truthy over the named signals.

    ``fn`` must be a pure function of those values: it is called only
    on a cycle where one of the watchpoint's signals changed, and every
    other cycle repeats its last verdict.  Anything else it reads
    (Python state, ``sim.ncycles``) is not watched."""
    if not specs:
        raise ValueError(
            "when(fn, *specs) needs at least one signal spec: fn is "
            "called only when one of them changes")
    return _When(fn, specs)


def stable_for(spec, n):
    """Fires when the signal has held one value for ``n`` consecutive
    cycles (once per stable stretch; re-arms on the next change)."""
    return _StableFor(spec, n)


def implies_within(antecedent, consequent, n):
    """Fires as a *violation*: ``antecedent`` occurred but
    ``consequent`` did not follow within the next ``n`` cycles
    (``n >= 1``; a consequent on the deadline cycle still counts)."""
    return _ImpliesWithin(antecedent, consequent, n)


# ---------------------------------------------------------------------------
# The armed watchpoint


class Watchpoint:
    """An armed condition plus its firing policy.

    Built by ``sim.watch(cond, ...)``.  On each firing cycle the
    watchpoint appends ``(cycle, values_snapshot)`` to :attr:`fires`,
    then applies the configured actions:

    - ``callback(watchpoint, cycle)`` — arbitrary user hook;
    - ``dump`` — directory: export a ``repro-observe-v1`` bundle of
      every armed recorder's current window;
    - ``halt`` — raise :class:`WatchpointHit` out of ``cycle()`` with
      a structured diagnostic (after callback and dump ran);
    - ``once`` — disarm after the first fire.
    """

    _counter = 0

    def __init__(self, condition, name=None, callback=None, halt=False,
                 dump=None, once=False, log_limit=256):
        if not isinstance(condition, Condition):
            raise TypeError(
                f"sim.watch() takes a Condition (rose/fell/...); "
                f"got {type(condition).__name__}")
        Watchpoint._counter += 1
        self.condition = condition
        self.name = name or f"wp{Watchpoint._counter}"
        self.callback = callback
        self.halt = halt
        self.dump = dump
        self.once = once
        self.log_limit = log_limit
        self.fires = []              # [(cycle, values_dict)]
        self.n_fires = 0
        self.sim = None
        self._bound = None           # the evaluator (Python sampling)
        self._taps = []
        self._probes = {}            # id(spec) -> Probe, set by attach
        self._read = None            # every tap in one pass (read_all)
        self._last = None            # what it read at the last sample
        self._cwp = None             # compiled watch index (SimJIT)
        self._instr = None

    def attach(self, sim):
        self.sim = sim
        self._taps, probes = _condition_taps(sim, self.condition)
        self._probes = probes        # kept for a later dearm's rebind
        instr = sim._jit_instrumentation()
        compiled = False
        if instr is not None:
            try:
                nodes = lower_condition(
                    self.condition,
                    lambda spec: instr.net_slot(probes[id(spec)]))
            except Unlowerable as exc:
                instr.warn_fallback(f"watchpoint {self.name!r}", exc)
            else:
                compiled = instr.try_add_watchpoint(self, nodes)
        # Compiled: the condition evaluates in C and _fire is called
        # on hit cycles.
        if not compiled:
            self._bind()
        sim._watchpoints.append(self)
        sim._refresh_observers()
        return self

    def detach(self):
        sim = self.sim
        if sim is None:
            return
        if self._instr is not None:
            self._instr.remove_watchpoint(self)
        if self in sim._watchpoints:
            sim._watchpoints.remove(self)
            sim._refresh_observers()
        self.sim = None

    @property
    def fired(self):
        return self.n_fires > 0

    def fire_cycles(self):
        return [c for c, _ in self.fires]

    def _snapshot(self):
        return {tap.name: tap.read() for tap in self._taps}

    def _bind(self):
        """Evaluate the condition from Python, against the values as of
        now: edges compare with them, and the first sample evaluates
        everything."""
        probes = self._probes
        taps = list({id(p): p for p in probes.values()}.values())
        at = {id(p): i for i, p in enumerate(taps)}
        self._read = read_all(taps)
        self._bound = self.condition.bind(
            lambda spec: at[id(probes[id(spec)])], self._read())
        self._last = None

    # hot path — called once per cycle while armed
    def sample(self, cycle):
        """Read every tap in one pass; only a cycle on which one of
        them changed evaluates the condition.  On any other its edges
        are false, ``value_is`` and ``when`` repeat their last verdict
        and ``stable_for`` and ``implies_within`` count the cycle —
        the verdicts of evaluating everything, for less."""
        values = self._read()
        if values != self._last:
            self._last = values
            hit = self._bound.update(cycle, values)
        else:
            hit = self._bound.hold(cycle)
        if hit:
            self._fire(cycle)

    def _fire(self, cycle):
        """Firing actions, shared between the hook path (via
        :meth:`sample`) and compiled hits reported by the SimJIT
        instrumentation runtime."""
        self.n_fires += 1
        sim = self.sim
        values = self._snapshot()
        if len(self.fires) < self.log_limit:
            self.fires.append((cycle, values))
        if self.once:
            self.detach()
        if self.callback is not None:
            self.callback(self, cycle)
        if self.dump is not None:
            from .forensics import export_bundle
            export_bundle(
                sim, self.dump,
                reason=f"watchpoint:{self.name}",
                tag=f"watchpoint_{self.name}_c{cycle}",
                extra={"watchpoint": self.diagnostic(cycle, values)})
        if self.halt:
            diag = self.diagnostic(cycle, values)
            exc = WatchpointHit(
                f"watchpoint {self.name!r} hit at cycle {cycle}: "
                f"{self.condition.describe()}", diag)
            # Crash forensics in cycle() must not double-dump: a
            # halting watchpoint is a *deliberate* stop, and its own
            # dump= already captured the window if asked for.
            exc._observe_handled = True
            raise exc

    def diagnostic(self, cycle=None, values=None):
        """JSON-serializable description of the (last) firing."""
        if cycle is None and self.fires:
            cycle, values = self.fires[-1]
        return {
            "name": self.name,
            "condition": self.condition.describe(),
            "cycle": cycle,
            "values": values or {},
            "n_fires": self.n_fires,
            "halt": self.halt,
        }

    def __repr__(self):
        state = "armed" if self.sim is not None else "detached"
        return (f"<Watchpoint {self.name!r} "
                f"{self.condition.describe()} fires={self.n_fires} "
                f"{state}>")


def _condition_taps(sim, condition):
    """Resolve every signal spec inside a condition tree, once:
    returns ``(taps, probes)`` — the probes a firing snapshots
    (de-duplicated by name, declaration order), and ``{id(spec):
    Probe}``, the lookup that C lowering and :meth:`Watchpoint._bind`
    use."""
    taps = []
    seen = set()
    # By identity: the tree keeps its specs alive, and a Signal's
    # ``==`` compares values.
    probes = {}

    def visit(cond):
        if isinstance(cond, _When):
            specs = cond.specs
        elif isinstance(cond, _SignalCondition):
            specs = (cond.spec,)
        else:
            specs = ()
        for spec in specs:
            if id(spec) in probes:
                continue
            tap = probes[id(spec)] = Probe.resolve(sim, spec)
            if tap.name not in seen:
                seen.add(tap.name)
                taps.append(tap)
        for child in ("left", "right", "inner", "antecedent",
                      "consequent"):
            sub = getattr(cond, child, None)
            if isinstance(sub, Condition):
                visit(sub)

    visit(condition)
    return taps, probes
