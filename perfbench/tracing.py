"""Span tracing for the benchmark's traced runs, from outside the package.

The package has no tracer of its own, so a traced run replaces the public
functions of each ``subzero`` module with timing wrappers for its duration
and puts the originals back afterwards.  A function is replaced under every
name it is reachable by in the loaded ``subzero`` modules (for example
``subzero.optimizer.two_sided_loss_diff`` as well as
``subzero.estimators.two_sided_loss_diff``), because callers look it up in
their own module's namespace.  Nothing under ``src/`` is modified.

A span records a name, start and end (``time.perf_counter`` seconds), the
index of the span that was open when it started (its parent, ``-1`` for a
root) and the id of the step or estimate it belongs to.  Spans are kept in
flat arrays in memory and written out when the run ends.  The trace is
single-threaded and properly nested: a span closes before its parent does
and siblings never overlap, so a span's self time is its duration minus
the part of that interval its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
import types
from array import array

import numpy as np


class Tracer:
    """In-memory span and counter store.

    ``unit`` is the step or estimate id stamped on every span opened while
    it is set.  Counters are kept per root span name, so draws made during
    set-up are not charged to the steps.
    """

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.unit_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[str, str], float] = {}
        self.unit = -1
        self._stack: list[int] = []

    @property
    def full(self) -> bool:
        return len(self.name) >= self.max_spans

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit_of.append(self.unit)
        self.end.append(math.nan)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """End span ``index`` and any span still open inside it."""
        now = time.perf_counter()
        if index not in self._stack:
            return
        while True:
            top = self._stack.pop()
            self.end[top] = now
            if top == index:
                return

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1) -> None:
        root = self.names[self.name[self._stack[0]]] if self._stack else ""
        key = (root, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns, with each span's root and self time."""
        parent = np.asarray(self.parent, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        return {
            "name": np.asarray(self.name, dtype=np.int64),
            "parent": parent,
            "unit": np.asarray(self.unit_of, dtype=np.int64),
            "start": start,
            "end": end,
            "root": roots(parent),
            "self": self_times(start, end, parent),
        }


def roots(parent: np.ndarray) -> np.ndarray:
    """Index of the root span above each span (a root is its own root)."""
    root = np.where(parent < 0, np.arange(parent.size), parent)
    while True:
        up = np.where(parent[root] < 0, root, parent[root])
        if np.array_equal(up, root):
            return root
        root = up


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval; in a properly nested
    single-threaded trace siblings do not overlap, so the clipped lengths
    add up to the covered part.
    """
    duration = end - start
    child = np.flatnonzero(parent >= 0)
    up = parent[child]
    covered = (np.minimum(end[child], end[up])
               - np.maximum(start[child], start[up])).clip(min=0.0)
    cover = np.zeros(start.size)
    np.add.at(cover, up, covered)
    return duration - cover


def subzero_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "subzero" or name.startswith("subzero."))]


class Patches:
    """Wrappers installed over attributes of the loaded ``subzero`` modules.

    ``wrap`` replaces an attribute with a wrapper around it, everywhere the
    same object is bound in a ``subzero`` module; ``restore`` puts every
    original back, in reverse order.  Use as a context manager so the
    originals return even when the traced run raises.
    """

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(make_wrapper(original.__func__))
        else:
            wrapper = make_wrapper(original)
        targets = [(owner, attr)]
        if isinstance(owner, types.ModuleType):
            targets += [(module, name) for module in subzero_modules()
                        for name, value in vars(module).items()
                        if value is original and not (module is owner and name == attr)]
        for target, name in targets:
            self.saved.append((target, name, vars(target)[name]))
            setattr(target, name, wrapper)

    def restore(self) -> None:
        while self.saved:
            target, name, original = self.saved.pop()
            setattr(target, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _spanned(tracer: Tracer, name: str, fn, new_unit: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if new_unit:
            tracer.unit += 1
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


def _counted_normals(tracer: Tracer, fn):
    @functools.wraps(fn)
    def normals(self, n):
        tracer.count("numcore.normals.values", n)
        index = tracer.open("numcore.normals")
        try:
            return fn(self, n)
        finally:
            tracer.close(index)
    return normals


def layer_kind(w, pair) -> str:
    """``vector`` (full Gaussian), ``native`` (pair in the layer's own
    shape) or ``relayout`` (pair in a reshaped geometry)."""
    if pair is None:
        return "vector"
    return "native" if w.shape == (pair.u.shape[0], pair.v.shape[0]) else "relayout"


def _split_layers(tracer: Tracer, fn):
    """Wrap the perturbation generator so each ``next()`` is a
    ``perturbation.layer.<kind>`` span (stream draws appear as its children)
    and the caller's work between two yields, the in-place add, is a
    ``perturbation.add.<kind>`` span."""

    @functools.wraps(fn)
    def iter_perturbation_layers(params, pairs, seed, z_scales=None):
        tracer.count("perturbation.passes")
        kinds = [layer_kind(w, pair) for w, pair in zip(params, pairs)]
        layers = fn(params, pairs, seed, z_scales)
        for kind in kinds:
            index = tracer.open("perturbation.layer." + kind)
            try:
                delta = next(layers)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            index = tracer.open("perturbation.add." + kind)
            try:
                yield delta
            finally:
                tracer.close(index)
        yield from layers
    return iter_perturbation_layers


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public functions of every layer the benchmark calls into."""
    import subzero.cli as cli
    import subzero.estimators as estimators
    import subzero.numcore as numcore
    import subzero.optimizer as optimizer
    import subzero.perturbation as perturbation
    import subzero.problems as problems
    import subzero.verification as verification

    def spanned(name, new_unit=False):
        return lambda fn: _spanned(tracer, name, fn, new_unit)

    patches.wrap(numcore.GaussianStream, "normals",
                 lambda fn: _counted_normals(tracer, fn))
    patches.wrap(numcore, "qr_orthonormal", spanned("numcore.qr"))
    patches.wrap(numcore, "stack_params", spanned("numcore.stack_params"))
    patches.wrap(perturbation, "iter_perturbation_layers",
                 lambda fn: _split_layers(tracer, fn))
    patches.wrap(perturbation, "pairs_from_plan", spanned("perturbation.refresh"))
    patches.wrap(estimators, "two_sided_loss_diff", spanned("estimators.probe"))
    patches.wrap(estimators, "subzero_estimate",
                 spanned("estimators.estimate", new_unit=True))
    patches.wrap(problems, "sample_minibatch", spanned("problems.minibatch"))
    for cls in (problems.MlpProblem, problems.QuadraticProblem):
        patches.wrap(cls, "loss", spanned("problems.loss"))
        patches.wrap(cls, "exact_gradient", spanned("problems.exact_gradient"))
        patches.wrap(cls, "generate", spanned("problems.generate"))
    patches.wrap(optimizer, "step", spanned("optimizer.step"))
    patches.wrap(optimizer, "init_state", spanned("optimizer.init_state"))
    patches.wrap(verification, "check_second_moment", spanned("verification.check"))
    patches.wrap(cli, "build_problem", spanned("cli.build_problem"))
