"""Counters and timers wrapped around the engine's functions for a traced pass.

The engine is measured from outside: `Tracer.install` replaces every binding
of each wrapped function in every loaded ``jordan_voa`` module (``virops``,
``singular``, ``suite``, ``griess`` and ``cli`` import ``act``, ``act_L``
and the kernel functions by name, so patching only the defining module
would miss their calls), and `Tracer.uninstall` puts the originals back.

Timed wrappers keep a call stack: a call's self time is its duration minus
the time of the timed calls nested in it.  A recursive call is counted but
not timed, so only the outermost call contributes time.  Hot leaf functions
(the ``Scalar`` ring operations and ``_act_gen``) are counted only, because
timing them would dominate the pass.  One span per suite check and per
weight search is kept in memory for the caller to write out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps

PACKAGE = "jordan_voa"

# name -> (module, attribute) of the timed functions
TIMED = {
    "liealg.bracket_r": ("liealg", "bracket_r"),
    "fock.act": ("fock", "act"),
    "fock.weight_space_basis": ("fock", "weight_space_basis"),
    "virops.act_L": ("virops", "act_L"),
    "virops.vertex_mode": ("virops", "vertex_mode"),
    "virops.recursion_oracle": ("virops", "vertex_mode_by_recursion"),
    "virops.virasoro_probe": ("virops", "virasoro_bracket_probe"),
    "singular.search_matrix": ("singular", "_search_matrix"),
    "singular.kernel_q": ("singular", "kernel_basis"),
    "singular.kernel_qr": ("singular", "kernel_basis_poly"),
    "singular.is_singular": ("singular", "is_singular"),
    "singular.search": ("singular", "singular_search"),
    "singular.sweep": ("singular", "singular_sweep"),
    "scalar.gcd": ("scalar", "poly_gcd"),
    "scalar.exact_div": ("scalar", "poly_exact_div"),
    "griess.jordan_verify": ("griess", "jordan_verify"),
    "cli.main": ("cli", "main"),
}

# name -> (module, attribute) of the functions that are only counted
COUNTED = {
    "fock.act_gen": ("fock", "_act_gen"),
}

# name -> (method names) on scalar.Scalar; aliases such as __rmul__ share a count
SCALAR_TIMED = {"scalar.evaluate": ("evaluate",)}
SCALAR_COUNTED = {"scalar.mul": ("__mul__", "__rmul__"), "scalar.add": ("__add__", "__radd__")}


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the engine's functions, accumulates counts, times and spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.spans = []
        self._stack = []
        self._span_stack = []
        self._active = defaultdict(int)
        self._restore = []

    # -- wrappers -------------------------------------------------------

    def _timed(self, name, fn, span_attrs=None):
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        stack, active, spans, span_stack = self._stack, self._active, self.spans, self._span_stack
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if active[name]:
                return fn(*args, **kwargs)
            active[name] += 1
            frame = [0.0]
            stack.append(frame)
            if span_attrs is not None:
                span_stack.append(len(spans))
                span = {"name": name, "parent": span_stack[-2] if len(span_stack) > 1 else None}
                spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[name] -= 1
                seconds[name] += elapsed
                self_seconds[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span_attrs is not None:
                    span_stack.pop()
                    span["start"] = start
                    span["seconds"] = elapsed
            if span_attrs is not None:
                span.update(span_attrs(args, result))
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @wraps(fn)
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # -- patching -------------------------------------------------------

    def _rebind(self, original, replacement):
        for module in _package_modules():
            names = [attr for attr, value in vars(module).items() if value is original]
            for attr in names:
                self._restore.append((module, attr, original))
                setattr(module, attr, replacement)

    def _rebind_method(self, cls, attrs, make):
        originals = [vars(cls)[attr] for attr in attrs]
        replacement = make(originals[0])
        for attr, original in zip(attrs, originals):
            if original is not originals[0]:
                raise ValueError(f"{cls.__name__}.{attr} is not an alias of {attrs[0]}")
            self._restore.append((cls, attr, original))
            setattr(cls, attr, replacement)

    def install(self):
        """Patch every binding of every wrapped function in the package."""
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in
                   ("scalar", "liealg", "fock", "virops", "singular", "griess", "suite", "cli")}
        for name, (module, attr) in TIMED.items():
            original = getattr(modules[module], attr)
            attrs = _search_span if name == "singular.search" else None
            self._rebind(original, self._timed(name, original, attrs))
        for name, (module, attr) in COUNTED.items():
            original = getattr(modules[module], attr)
            self._rebind(original, self._counted(name, original))
        scalar_cls = modules["scalar"].Scalar
        for name, attrs in SCALAR_TIMED.items():
            self._rebind_method(scalar_cls, attrs, lambda fn, n=name: self._timed(n, fn))
        for name, attrs in SCALAR_COUNTED.items():
            self._rebind_method(scalar_cls, attrs, lambda fn, n=name: self._counted(n, fn))
        suite = modules["suite"]
        self._restore.append((suite, "ALL_CHECKS", suite.ALL_CHECKS))
        suite.ALL_CHECKS = tuple(
            (check_id, self._timed("suite.check", check, _check_span(check_id)))
            for check_id, check in suite.ALL_CHECKS
        )

    def uninstall(self):
        """Restore every original binding, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def reset(self):
        """Forget what was measured so far; the wrappers stay installed."""
        self.calls.clear()
        self.seconds.clear()
        self.self_seconds.clear()
        self.spans.clear()


def _search_span(args, report):
    return {
        "weight": str(report.weight).replace(" ", ""),
        "r0": str(report.r0),
        "basis_dim": report.basis_dim,
        "kernel_dim": report.kernel_dim,
    }


def _check_span(check_id):
    def attrs(args, result):
        return {"check": check_id, "check_name": result.name, "passed": result.passed}

    return attrs
