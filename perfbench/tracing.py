"""Per-layer tracing of kdsim from outside the package.

Tracer.install() wraps every public function of each layer module, found by
introspection, and puts the wrapper on every binding that holds the function:
the module's own attribute, ``from .x import f`` copies in sibling modules
(``bessel_row`` in ``kdsim.fit`` and ``kdsim.analytic``, ``emit`` in
``kdsim.cli``) and the package re-exports.  uninstall() puts the originals
back.

A call opens a span only when it crosses a layer boundary, so recursive or
helper calls inside one module (``structured_text``, ``float_text`` inside
``emit``) are passed straight through.  The exception is ``cli``: its public
functions are the stages of a job (main, parse_config, run,
read_observed_csv), so each gets its own span.  Spans are folded into
totals as they close: self time per layer and per function, inclusive time
per function, calls per function, and work counts measured at the boundary.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "model", "bessel", "analytic", "tdse", "fit", "emit")
PACKAGE = "kdsim"


def _second_argument(fn):
    """Reader of fn's second parameter from a call's (args, kwargs), or None."""
    params = list(inspect.signature(fn).parameters)
    if len(params) < 2:
        return None
    name = params[1]
    return lambda args, kwargs: args[1] if len(args) > 1 else kwargs.get(name)


class Tracer:
    """Totals of one traced pass; install() before it, uninstall() after."""

    def __init__(self):
        self.stack = [["bench", 0.0]]   # open spans as [layer, time in child spans]
        self.layer_self = defaultdict(float)
        self.func_self = defaultdict(float)
        self.func_incl = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self._patched = []

    def _probe(self, layer, key, fn):
        """Work counter for a boundary call of fn: (args, kwargs, result) -> None."""
        work = self.work
        if layer == "bessel":
            arg = _second_argument(fn)   # x of bessel_row(order_max, x) and friends
            if arg is not None:
                def rows(args, kwargs, result):
                    work["bessel.rows"] += int(np.size(arg(args, kwargs)))
                return rows
        if layer == "emit":
            def nbytes(args, kwargs, result):
                if isinstance(result, (bytes, str)):
                    work["emit.bytes"] += len(result)
            return nbytes
        if key == "tdse.plan_propagation":
            def steps(args, kwargs, result):
                if getattr(result, "include_kinetic", False):
                    work["tdse.strang_steps"] += int(result.n_steps)
            return steps
        return None

    def _wrap(self, layer, key, fn):
        stack, calls, clock = self.stack, self.calls, time.perf_counter
        layer_self, func_self, func_incl = self.layer_self, self.func_self, self.func_incl
        probe = self._probe(layer, key, fn)
        stage = layer == "cli"
        evaluations = _second_argument(fn) if key == "fit.chi_square" else None
        work = self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if evaluations is not None:   # counted inside the fit layer too
                work["fit.chi2_evaluations"] += int(np.size(evaluations(args, kwargs)))
            if stack[-1][0] == layer and not stage:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                own = dur - frame[1]
                layer_self[layer] += own
                func_self[key] += own
                func_incl[key] += dur
                stack[-1][1] += dur
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")  # kdsim.emit is a function
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(layer, f"{layer}.{name}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
