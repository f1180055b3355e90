"""Per-layer tracing of the effectdiagrams package from outside its source.

The tracer wraps chosen library functions by rebinding every module-level
alias of each function object (``from .monads import bind`` leaves a copy
of the name in ``lang``, ``algebra`` and ``lawcheck``; ``MonadValue``
looks up ``monads._normalise`` as a global; ``lawcheck`` keeps its law
functions in a module-level dict).  Each wrapped call is a span; spans are
aggregated per name in memory: call count, self time (the span minus the
traced spans inside it) and inclusive time of the outermost activation.

``bind`` continuations are wrapped too, and the time spent inside them is
charged to the span that called ``bind`` rather than to ``monads.bind``,
so ``monads.bind_self_s`` is the cost of the Kleisli extension itself.
``lang.substitute`` and ``lang.free_vars`` count only calls made under
``lang.evaluate``; the prelude expansion inside ``lang.parse`` is charged
to ``lang.parse``.

A target that does not exist (renamed or removed by a later change) is
reported as absent and reads as zero; nothing crashes.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "effectdiagrams"

# span name -> (module, attribute)
TARGETS = {
    "cli.main": ("cli", "main"),
    "lang.parse": ("lang", "parse"),
    "lang.default_defs": ("lang", "default_defs"),
    "lang.evaluate": ("lang", "evaluate"),
    "lang.substitute": ("lang", "substitute"),
    "lang.free_vars": ("lang", "free_vars"),
    "monads.bind": ("monads", "bind"),
    "monads.op_apply": ("monads", "op_apply"),
    "monads.unit": ("monads", "unit"),
    "monads.normalise": ("monads", "_normalise"),
    "monads.support": ("monads", "support"),
    "presentations.decompose": ("presentations", "decompose"),
    "presentations.interpret": ("presentations", "interpret"),
    "presentations.render": ("presentations", "render"),
    "presentations.from_obj": ("presentations", "from_obj"),
    "algebra.seq_compose": ("algebra", "seq_compose"),
    "algebra.check_commutative": ("algebra", "check_commutative"),
    "serialize.to_obj": ("serialize", "to_obj"),
    "serialize.from_obj": ("serialize", "from_obj"),
    "serialize.render_value": ("serialize", "render_value"),
    "gen.random_value": ("gen", "random_value"),
    "lawcheck.run_law_suite": ("lawcheck", "run_law_suite"),
}

# Spans that count only calls made while ``lang.evaluate`` is running.
# ``lang.parse`` also calls these to expand the prelude; that time stays in
# the caller's span (``lang.parse``), so these spans measure the evaluator.
EVALUATOR_ONLY = ("lang.substitute", "lang.free_vars")

# The law cells are reached through this dict in ``lawcheck``; each entry
# becomes the span ``lawcheck.cell.<law>``.
LAW_TABLE = ("lawcheck", "_LAW_FUNCTIONS")


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.active = 0


class Tracer:
    """Installs span wrappers into the imported package and removes them."""

    def __init__(self):
        self.stats = {}
        self.absent = []
        self.beta_steps = 0
        self.law_trials = 0
        self._stack = []          # frames: [owner, start, child_time]
        self._undo = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- span bookkeeping -------------------------------------------------

    def _push(self, owner: str) -> None:
        self._stack.append([owner, time.perf_counter(), 0.0])

    def _pop(self) -> float:
        end = time.perf_counter()
        owner, start, child = self._stack.pop()
        dur = end - start
        self.stat(owner).self_s += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def _span(self, name: str, fn):
        stat = self.stat(name)
        is_substitute = name == "lang.substitute"
        evaluator_only = name in EVALUATOR_ONLY
        evaluate = self.stat("lang.evaluate")
        is_suite = name == "lawcheck.run_law_suite"

        def wrapper(*args, **kwargs):
            if evaluator_only and not evaluate.active:
                return fn(*args, **kwargs)
            stat.calls += 1
            # a beta step is an outermost substitution made by the evaluator
            if is_substitute and evaluate.active and not stat.active:
                self.beta_steps += 1
            stat.active += 1
            self._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._pop()
                stat.active -= 1
                if not stat.active:
                    stat.incl_s += dur
            if is_suite:
                self.law_trials += sum(getattr(r, "trials", 0)
                                       for r in getattr(result, "results", ()))
            return result

        return wrapper

    def _bind_span(self, fn):
        stat = self.stat("monads.bind")

        def wrapper(mu, f, *args, **kwargs):
            owner = self._stack[-1][0] if self._stack else "untraced"

            def continuation(x):
                self._push(owner)
                try:
                    return f(x)
                finally:
                    self._pop()

            stat.calls += 1
            stat.active += 1
            self._push("monads.bind")
            try:
                return fn(mu, continuation, *args, **kwargs)
            finally:
                dur = self._pop()
                stat.active -= 1
                if not stat.active:
                    stat.incl_s += dur

        return wrapper

    # -- installation -----------------------------------------------------

    def _package_modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None
                and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _rebind(self, target, wrapper) -> None:
        """Replace every module-level alias of ``target`` by ``wrapper``."""
        for module in self._package_modules():
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if name.startswith("__"):
                    continue
                if value is target:
                    setattr(module, name, wrapper)
                    self._undo.append((namespace, name, target))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is target:
                            value[key] = wrapper
                            self._undo.append((value, key, target))

    def install(self) -> None:
        modules = {m.__name__.rpartition(".")[2]: m
                   for m in self._package_modules()}
        for name, (mod_name, attr) in TARGETS.items():
            self.stat(name)
            target = getattr(modules.get(mod_name), attr, None)
            if not callable(target):
                self.absent.append(name)
                continue
            wrapper = self._bind_span(target) if name == "monads.bind" \
                else self._span(name, target)
            self._rebind(target, wrapper)
        mod_name, attr = LAW_TABLE
        table = getattr(modules.get(mod_name), attr, None)
        if not isinstance(table, dict):
            self.absent.append(f"{mod_name}.{attr}")
            return
        for law, target in list(table.items()):
            self._rebind(target, self._span(f"lawcheck.cell.{law}", target))

    def uninstall(self) -> None:
        for namespace, key, target in reversed(self._undo):
            namespace[key] = target
        self._undo.clear()

    def to_obj(self) -> dict:
        return {"absent": sorted(self.absent),
                "beta_steps": self.beta_steps,
                "law_trials": self.law_trials,
                "spans": {name: {"calls": st.calls, "self_s": st.self_s,
                                 "incl_s": st.incl_s}
                          for name, st in sorted(self.stats.items())}}
