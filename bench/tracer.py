"""Out-of-program tracer for stochlab: spans and counts recorded from outside.

Nothing inside the package is instrumented. `Tracer.install()` replaces the
traced functions with wrappers in every `stochlab` module namespace that binds
them (many are bound by `from ... import` in several modules), patches two
class attributes and the CLI's runner table, and then checks that no module
still holds an unwrapped original. `uninstall()` puts every original back.

Spans are aggregated as they close rather than stored: per span name the
tracer keeps self time (duration minus the part of the interval its child
spans cover) and inclusive time. A span opened in a worker thread of
`map_chunks` has the `map_chunks` span as its parent, so overlapping chunk
spans are merged as an interval union before they are subtracted.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


class TracerError(RuntimeError):
    """The tracer could not wrap every binding of a traced function."""


class _Frame:
    __slots__ = ("name", "parent", "start", "thread", "child", "cross", "also")

    def __init__(self, name, parent, also):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.child = 0.0        # summed durations of same-thread children
        self.cross = []         # (start, end) of children in other threads
        self.also = also        # extra name credited with the inclusive time
        self.start = perf_counter()


def _union_length(intervals, lo, hi):
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class _CountingGenerator:
    """Delegates to a numpy Generator and counts the normals it hands out."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        out = self._gen.standard_normal(*args, **kwargs)
        self._tracer.count("wiener.normals", int(np.size(out)))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    """Self/inclusive time per span name and exact call counts."""

    # (defining module, function) -> span name, for plain span wrappers
    SPANS = {
        ("wiener", "stream_generator"): "wiener.draw",
        ("wiener", "increment_chunk"): "wiener.draw",
        ("wiener", "initial_chunk"): "wiener.draw",
        ("wiener", "sample_wiener"): "wiener.draw",
        ("ito", "ito_integral"): "ito.integral",
        ("mollify", "mollify"): "mollify",
        ("mollify", "adjoint_mollify"): "mollify",
        ("mollify", "mollify_derivative"): "mollify",
        ("mollify", "adjoint_mollify_derivative"): "mollify",
        ("mollify", "mollify_left_nodes"): "mollify",
        ("convergence_lab", "_difference_samples"): "convergence_lab.gap",
        ("convergence_lab", "integral_gap"): "convergence_lab.gap",
        ("convergence_lab", "convergence_scan"): "convergence_lab.gap",
        ("convergence_lab", "necessity_control"): "convergence_lab.gap",
        ("convergence_lab", "pairing_l2_distance"): "convergence_lab.gap",
        ("convergence_lab", "decompose"): "convergence_lab.gap",
        ("convergence_lab", "rho_sweep"): "convergence_lab.gap",
        ("convergence_lab", "l1_torus_mode"): "convergence_lab.gap",
        ("convergence_lab", "counterexample_sine"): "convergence_lab.counterexample",
        ("convergence_lab", "counterexample_spike"): "convergence_lab.counterexample",
        ("translation", "translation_modulus"): "translation.modulus",
        ("translation", "fit_translation_rate"): "translation.modulus",
        ("claw", "_entropy_flux"): "claw.kruzkov",
        ("util", "pairwise_sum"): "util.pairwise_sum",
        ("util", "mean_and_stderr"): "util.mc_reduce",
    }
    # span names whose calls are also counted, under this count name
    CALL_COUNTS = {
        "ito.integral": "ito.integral_calls",
        "util.pairwise_sum": "util.pairwise_sum_calls",
    }

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._reference = {}      # marcher module -> refined grid of the running ladder
        self._undo = []           # callables that put an original back
        self._originals = {}      # id -> original object

    # -- spans and counts ------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name, parent=None, also=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        frame = _Frame(name, parent, also)
        stack.append(frame)
        return frame

    def exit(self, frame):
        end = perf_counter()
        self._stack().pop()
        dur = end - frame.start
        covered = frame.child
        if frame.cross:
            covered += _union_length(frame.cross, frame.start, end)
        parent = frame.parent
        with self._lock:
            self.self_s[frame.name] += dur - covered
            self.incl_s[frame.name] += dur
            if frame.also:
                self.incl_s[frame.also] += dur
            if parent is not None:
                if parent.thread == frame.thread:
                    parent.child += dur
                else:
                    parent.cross.append((frame.start, end))

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def _span(self, fn, name, before=None, after=None):
        tracer = self
        calls = self.CALL_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            also = before(*args, **kwargs) if before else None
            if calls:
                tracer.count(calls)
            frame = tracer.enter(name, also=also)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            return after(result, *args, **kwargs) if after else result
        return wrapper

    # -- patching ----------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "stochlab" or n.startswith("stochlab."))]

    def _replace_everywhere(self, original, make_wrapper, description):
        """Bind make_wrapper(module) wherever a stochlab module binds original."""
        self._originals[id(original)] = original
        found = False
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append(functools.partial(setattr, module, key, original))
                    setattr(module, key, make_wrapper(module))
                    found = True
        if not found:
            raise TracerError(f"{description} is bound in no stochlab module")

    def _rebind(self, original, wrapper, description):
        self._replace_everywhere(original, lambda _module: wrapper, description)

    def _patch_class(self, cls, key, wrapped):
        original = cls.__dict__[key]
        self._undo.append(functools.partial(setattr, cls, key, original))
        self._originals[id(original)] = original
        setattr(cls, key, wrapped)

    def install(self):
        import stochlab.cli as cli
        import stochlab.claw as claw
        import stochlab.transport as transport
        import stochlab.wiener as wiener
        mods = {_short(m.__name__): m for m in self._modules()}

        for (mod, fname), span in self.SPANS.items():
            original = getattr(mods[mod], fname)
            before = after = None
            if fname == "stream_generator":
                before = self._count_generator
                after = self._wrap_generator
            self._rebind(original, self._span(original, span, before, after), f"{mod}.{fname}")

        # _pair_theta lives in transport and is imported by claw: name the
        # span after the marcher that binds it
        pair = transport._pair_theta
        self._replace_everywhere(
            pair, lambda m: self._span(pair, f"{_short(m.__name__)}.pairing"),
            "transport._pair_theta")

        for mod, marcher, ladder in ((transport, "_march", "stability_experiment"),
                                     (claw, "_march_claw", "kinetic_stability_experiment")):
            name = _short(mod.__name__)
            original = getattr(mod, marcher)
            self._rebind(original, self._span(original, f"{name}.march",
                                              before=self._march_counter(name, original)),
                         f"{name}.{marcher}")
            original = getattr(mod, ladder)
            self._rebind(original, self._ladder(original, name), f"{name}.{ladder}")

        self._wrap_factory(transport, "bounded_smooth_noise", "transport.sigma",
                           "transport.sigma_calls")
        self._wrap_factory(claw, "bounded_smooth_sigma", "claw.sigma", "claw.sigma_calls")
        self._wrap_factory(claw, "chi_pairing_fn", "claw.chi_pairing", None)

        original = mods["util"].map_chunks
        self._rebind(original, self._map_chunks(original), "_util.map_chunks")

        # classes: ReplicaDraw.sample (a classmethod) and FluxFamily.interface
        sample = wiener.ReplicaDraw.__dict__["sample"]
        self._patch_class(wiener.ReplicaDraw, "sample", classmethod(
            self._span(sample.__func__, "wiener.draw",
                       before=lambda *a, **k: self.count("wiener.replica_draws"))))
        interface = claw.FluxFamily.__dict__["interface"]

        def counted_interface(*args, **kwargs):
            self.count("claw.flux_interface_calls")
            return interface(*args, **kwargs)
        self._patch_class(claw.FluxFamily, "interface", counted_interface)

        original = cli._write_csv
        self._rebind(original, self._span(original, "cli.csv_write", after=self._count_csv),
                     "cli._write_csv")

        # the CLI dispatches through its RUNNERS table
        for exp, runner in list(cli.RUNNERS.items()):
            wrapper = self._span(runner, f"cli.{exp}")
            self._undo.append(functools.partial(cli.RUNNERS.__setitem__, exp, runner))
            cli.RUNNERS[exp] = wrapper
            self._rebind(runner, wrapper, f"cli.RUNNERS[{exp}]")
        self.check_patched()
        return self

    def uninstall(self):
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def check_patched(self):
        """Raise TracerError if any stochlab namespace still holds an original."""
        import stochlab.cli as cli
        import stochlab.claw as claw
        import stochlab.wiener as wiener
        held = []
        for module in self._modules():
            for key, value in vars(module).items():
                if self._originals.get(id(value)) is value:
                    held.append(f"{module.__name__}.{key}")
        for exp, runner in cli.RUNNERS.items():
            if id(runner) in self._originals:
                held.append(f"stochlab.cli.RUNNERS[{exp!r}]")
        for cls, key in ((wiener.ReplicaDraw, "sample"), (claw.FluxFamily, "interface")):
            if id(cls.__dict__[key]) in self._originals:
                held.append(f"{cls.__qualname__}.{key}")
        if held:
            raise TracerError("unwrapped originals still bound: " + ", ".join(held))

    # -- wrappers with extra bookkeeping -----------------------------------

    def _count_generator(self, *args, **kwargs):
        self.count("wiener.generators")

    def _wrap_generator(self, gen, *args, **kwargs):
        return _CountingGenerator(gen, self)

    def _march_counter(self, name, marcher):
        signature = inspect.signature(marcher)

        def before(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            grid, tgrid, u0 = (bound.arguments[k] for k in ("grid", "tgrid", "u0"))
            steps = tgrid.steps
            self.count(f"{name}.steps", steps)
            self.count(f"{name}.cell_steps", int(np.size(u0)) * steps)
            if self._reference.get(name) == grid:
                self.count(f"{name}.reference_steps", steps)
                return f"{name}.reference"
            return None
        return before

    def _ladder(self, experiment, name):
        """Remember the refined grid, so the marcher can tell the reference solve."""
        signature = inspect.signature(experiment)

        @functools.wraps(experiment)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._reference[name] = bound.arguments["grid"].refine(bound.arguments["refine"])
            try:
                return experiment(*args, **kwargs)
            finally:
                self._reference.pop(name, None)
        return wrapper

    def _wrap_factory(self, module, factory_name, span, calls):
        """Wrap the callable a factory returns (its `fn` field, or itself)."""
        factory = getattr(module, factory_name)
        tracer = self

        def counted(fn):
            inner = tracer._span(fn, span)
            if calls is None:
                return inner

            def call(*args, **kwargs):
                tracer.count(calls)
                return inner(*args, **kwargs)
            return call

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            made = factory(*args, **kwargs)
            if dataclasses.is_dataclass(made):
                return dataclasses.replace(made, fn=counted(made.fn))
            return counted(made)
        self._rebind(factory, wrapper, f"{_short(module.__name__)}.{factory_name}")

    def _map_chunks(self, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(fn, *args, **kwargs):
            frame = tracer.enter("util.map_chunks")

            def chunk(lo, hi):
                inner = tracer.enter("util.chunk", parent=frame)
                try:
                    return fn(lo, hi)
                finally:
                    tracer.exit(inner)
            try:
                return original(chunk, *args, **kwargs)
            finally:
                tracer.exit(frame)
        return wrapper

    def _count_csv(self, result, path, rows):
        self.count("cli.csv_bytes", Path(path).stat().st_size)
        return result
