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

A condition runs in one form, the node forest :func:`lower_condition`
makes of it, evaluated by :meth:`Watchpoint.sample` or, on a
single-engine SimJIT sim, by ``obs_run`` in the SimJIT runtime.  It
stays in Python, with an ``instrument-fallback`` warning, for a
:func:`when`, a value outside 128 bits, a spec that is not a net slot
(a slice, compiled CL state) and the runtime's capacity.  Python calls
a :func:`when` predicate only on a cycle where a tap changed, so it
must be a pure function of the values of the signals it names.
"""

from __future__ import annotations

from collections import deque

from ..core.probe import Probe, read_all

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


class _BoolOp(Condition):
    def __init__(self, op, left, right):
        if not isinstance(left, Condition) or not isinstance(
                right, Condition):
            raise TypeError("conditions compose only with conditions")
        self.op = op
        self.left = left
        self.right = right

    def describe(self):
        sym = "&" if self.op == "and" else "|"
        return f"({self.left.describe()} {sym} {self.right.describe()})"


class _Not(Condition):
    def __init__(self, inner):
        if not isinstance(inner, Condition):
            raise TypeError("~ applies only to conditions")
        self.inner = inner

    def describe(self):
        return f"~{self.inner.describe()}"


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

    def describe(self):
        return f"{self.direction}({_spec_name(self.spec)})"


class _ValueIs(_SignalCondition):
    def __init__(self, spec, values):
        super().__init__(spec)
        self.values = values

    def describe(self):
        vals = sorted(self.values)
        shown = vals[0] if len(vals) == 1 else vals
        return f"value_is({_spec_name(self.spec)}, {shown})"


class _When(Condition):
    def __init__(self, fn, specs):
        self.fn = fn
        self.specs = specs

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

    def describe(self):
        return f"stable_for({_spec_name(self.spec)}, {self.n})"


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

    def describe(self):
        return (f"implies_within({self.antecedent.describe()}, "
                f"{self.consequent.describe()}, {self.n})")


# ---------------------------------------------------------------------------
# The node forest: the one form a condition runs in


#: Node kinds, as ``runtime.c``'s ``obs_run`` numbers them too.
(ROSE, FELL, CHANGED, VALUE_IS, AND, OR, NOT, STABLE_FOR, IMPLIES_WITHIN,
 WHEN) = range(10)
_EDGES = {"rose": ROSE, "fell": FELL, "changed": CHANGED}


def lower_condition(condition, tap_of):
    """The one translation of a condition: the postorder node forest
    ``[(kind, tap, a, b, aux)]``, root last, that
    :meth:`Watchpoint.sample` and ``obs_run`` evaluate.  ``tap =
    tap_of(spec)`` indexes the watchpoint's one ``read_all`` tuple (a
    tuple of those for :data:`WHEN`); ``a`` / ``b`` are operand nodes
    (for :data:`IMPLIES_WITHIN` the antecedent and consequent roots);
    ``aux`` is the compared value (one :data:`VALUE_IS` node per value),
    ``n`` or the :data:`WHEN` predicate."""
    nodes = []

    def emit(kind, tap=-1, a=-1, b=-1, aux=0):
        nodes.append((kind, tap, a, b, aux))
        return len(nodes) - 1

    def visit(cond):
        if isinstance(cond, _Edge):
            return emit(_EDGES[cond.direction], tap_of(cond.spec))
        if isinstance(cond, _ValueIs):
            tap = tap_of(cond.spec)
            values = sorted(cond.values)
            idx = emit(VALUE_IS, tap, aux=values[0])
            for value in values[1:]:
                idx = emit(OR, a=idx, b=emit(VALUE_IS, tap, aux=value))
            return idx
        if isinstance(cond, _StableFor):
            return emit(STABLE_FOR, tap_of(cond.spec), aux=cond.n)
        if isinstance(cond, _When):
            return emit(WHEN, tuple(map(tap_of, cond.specs)), aux=cond.fn)
        if isinstance(cond, _ImpliesWithin):
            a = visit(cond.antecedent)
            return emit(IMPLIES_WITHIN, a=a, b=visit(cond.consequent),
                        aux=cond.n)
        if isinstance(cond, _Not):
            return emit(NOT, a=visit(cond.inner))
        a = visit(cond.left)
        return emit(AND if cond.op == "and" else OR, a=a,
                    b=visit(cond.right))

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
        self._taps = []
        self._reads = []             # the probes, in read order
        self._read = None            # every tap in one pass (read_all)
        self._nodes = []             # lower_condition's forest
        self._last = None            # what it read at the last sample
        self._cwp = None             # compiled watch index (SimJIT)
        self._instr = None

    def attach(self, sim):
        self.sim = sim
        self._taps, self._reads, tap_of = _condition_taps(
            sim, self.condition)
        self._read = read_all(self._reads)
        self._nodes = nodes = lower_condition(self.condition, tap_of)
        self._walk = list(enumerate(nodes))
        # What a quiet cycle after a quiet one can move: the counters,
        # the windows and the combinators over them; with neither,
        # nothing.
        self._moving = [(i, node) for i, node in self._walk
                        if node[0] in (AND, OR, NOT, STABLE_FOR,
                                       IMPLIES_WITHIN)]
        if not any(node[0] >= STABLE_FOR for _, node in self._moving):
            self._moving = []
        self._start()
        instr = sim._jit_instrumentation()
        # Compiled, the forest evaluates in C and _fire is called on
        # hit cycles.
        if instr is not None:
            instr.try_add_watchpoint(self)
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

    def _start(self):
        """Per-node state as of now: edges and counters compare with
        the values read now."""
        values = self._read()
        self._resume([(False, values[tap] if kind in (
            ROSE, FELL, CHANGED, STABLE_FOR) else None, 0, ())
                      for kind, tap, _, _, _ in self._nodes])

    def _resume(self, states):
        """Take each node's ``(verdict, prev, streak, deadlines)``, as
        of now or as the compiled forest left them; the next sample
        evaluates everything."""
        self._val, self._prev, self._streak, due = map(list, zip(*states))
        self._due = [deque(d) for d in due]
        self._last = None
        self._next = self._walk

    # hot path — called once per cycle while armed
    def sample(self, cycle):
        """Read every tap in one pass and evaluate the forest, root
        last.  On a cycle where no tap changed, edges are false,
        ``value_is`` and ``when`` keep their verdict and ``stable_for``
        and ``implies_within`` count the cycle: the verdicts of
        evaluating everything.  After the first quiet cycle (which
        clears the edges) one walks only the nodes it can move."""
        values = self._read()
        val = self._val
        if values != self._last:
            self._last = values
            fresh = True
            walk = self._next = self._walk
        else:
            walk = self._next
            if not walk:
                if val[-1]:
                    self._fire(cycle)
                return
            fresh = False
            self._next = self._moving
        for i, (kind, tap, a, b, aux) in walk:
            if kind == STABLE_FOR:
                # Fires once per stable stretch, when it reaches n.
                streak = self._streak
                if fresh and values[tap] != self._prev[i]:
                    self._prev[i] = values[tap]
                    streak[i] = 0
                else:
                    streak[i] += 1
                val[i] = streak[i] == aux
            elif kind == IMPLIES_WITHIN:
                # A consequent on the deadline cycle itself still
                # meets the obligation (##[0:n]); a deadline passed
                # is the violation.
                due = self._due[i]
                if val[b] and due:
                    due.popleft()
                if val[a]:
                    due.append(cycle + aux)
                val[i] = bool(due) and cycle >= due[0]
                if val[i]:
                    due.popleft()
            elif kind <= CHANGED:
                if fresh:
                    prev = self._prev
                    was = prev[i]
                    now = prev[i] = values[tap]
                    val[i] = (now != was if kind == CHANGED
                              else not was and now != 0 if kind == ROSE
                              else was != 0 and not now)
                else:
                    val[i] = False
            elif kind == VALUE_IS:
                if fresh:
                    val[i] = values[tap] == aux
            elif kind == AND:
                val[i] = val[a] and val[b]
            elif kind == OR:
                val[i] = val[a] or val[b]
            elif kind == NOT:
                val[i] = not val[a]
            elif fresh:                             # WHEN
                val[i] = bool(aux(*[values[t] for t in tap]))
        if val[-1]:
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
    returns ``(taps, reads, tap_of)`` — the probes a firing snapshots
    (de-duplicated by name, declaration order), the probes the
    watchpoint reads each cycle (one per spec), and ``tap_of(spec)``,
    a spec's position in that read."""
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
    at = {key: i for i, key in enumerate(probes)}
    return taps, list(probes.values()), lambda spec: at[id(spec)]
