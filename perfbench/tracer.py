"""Traced mode: per-function call counts and self times for the xqmetro layers.

The tracer wraps the public functions of each module and rebinds every
module-level name in ``xqmetro.*`` that refers to the same function object
(``qfi_total`` is imported into ``cli``, ``ghz`` and ``metrics``; ``eigh``
into ``metrics``, ``oracle`` and ``linalg``), so a call is caught whichever
module makes it.  Methods are rebound on their class.  Nothing under the
package is edited: the wrappers live here and are installed at run time.

Each call records a span (name, start, end, parent span) in memory; spans are
written out once, at the end of the traced repetition.  A span's self time is
its duration minus the durations of its direct children, which nest inside it
because the package is single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Metric prefix -> (module, attribute path).  ``linalg.eigh`` is split by
# matrix size into ``eigh_2x2`` and ``eigh_8x8``, the only sizes the package
# decomposes.
TARGETS = {
    "cli.run_sweep": ("xqmetro.cli", "run_sweep"),
    "cli.render_csv": ("xqmetro.cli", "render_csv"),
    "cli.run_validation": ("xqmetro.cli", "run_validation"),
    "ghz.ghz_family": ("xqmetro.ghz", "ghz_family"),
    "ghz.crosscheck": ("xqmetro.ghz", "crosscheck"),
    "ghz.closed_form_qfi": ("xqmetro.ghz", "closed_form_qfi"),
    "ghz.closed_form_skew": ("xqmetro.ghz", "closed_form_skew"),
    "ghz.closed_form_concurrence": ("xqmetro.ghz", "closed_form_concurrence"),
    "metrics.qfi_total": ("xqmetro.metrics", "qfi_total"),
    "metrics.skew_total": ("xqmetro.metrics", "skew_total"),
    "metrics.concurrence_ghz_class": ("xqmetro.metrics", "concurrence_ghz_class"),
    "metrics.ParamFamily.bloch_at": ("xqmetro.metrics", "ParamFamily.bloch_at"),
    "metrics.ParamFamily.tangent_at": ("xqmetro.metrics", "ParamFamily.tangent_at"),
    "metrics.qfi_block_mixed": ("xqmetro.metrics", "qfi_block_mixed"),
    "metrics.skew_block": ("xqmetro.metrics", "skew_block"),
    "xstate.XState.validate": ("xqmetro.xstate", "XState.__post_init__"),
    "xstate.bloch_from_compact": ("xqmetro.xstate", "bloch_from_compact"),
    "xstate.compact_from_bloch": ("xqmetro.xstate", "compact_from_bloch"),
    "xstate.dense_from_compact": ("xqmetro.xstate", "dense_from_compact"),
    "xstate.xstate_from_dense": ("xqmetro.xstate", "xstate_from_dense"),
    "channels.damped_bloch_array": ("xqmetro.channels", "damped_bloch_array"),
    "channels.apply_kraus_dense": ("xqmetro.channels", "apply_kraus_dense"),
    "channels.kraus_operators": ("xqmetro.channels", "kraus_operators"),
    "linalg.eigh": ("xqmetro.linalg", "eigh"),
    "linalg.psd_sqrt": ("xqmetro.linalg", "psd_sqrt"),
    "linalg.central_diff": ("xqmetro.linalg", "central_diff"),
    "oracle.qfi_eigen_oracle": ("xqmetro.oracle", "qfi_eigen_oracle"),
    "oracle.skew_sqrt_oracle": ("xqmetro.oracle", "skew_sqrt_oracle"),
}

SPAN_NAMES = tuple(
    name
    for target in TARGETS
    for name in (
        ("linalg.eigh_2x2", "linalg.eigh_8x8") if target == "linalg.eigh" else (target,)
    )
)

ROOT = -1


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "xqmetro" or name.startswith("xqmetro."))
    ]


class Tracer:
    """Span recorder whose :meth:`install` rebinds the package functions."""

    def __init__(self) -> None:
        self.name = array("h")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [ROOT]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, pick):
        name, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name.append(pick(args))
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                start[index] = begin
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded ``xqmetro`` module."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for target, (module_name, path) in TARGETS.items():
            owner = sys.modules[module_name]
            if "." in path:
                class_name, attr = path.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[attr]
                nid = SPAN_NAMES.index(target)
                self._rebind(cls, attr, original, self._wrap(original, lambda args, n=nid: n))
                continue
            original = getattr(owner, path)
            if target == "linalg.eigh":
                small = SPAN_NAMES.index("linalg.eigh_2x2")
                large = SPAN_NAMES.index("linalg.eigh_8x8")
                wrapper = self._wrap(
                    original, lambda args: small if np.shape(args[0])[0] == 2 else large
                )
            else:
                nid = SPAN_NAMES.index(target)
                wrapper = self._wrap(original, lambda args, n=nid: n)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int16),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """``{span name: {"calls": n, "self_s": seconds}}`` for every span name."""
        spans = self.spans()
        duration = spans["end"] - spans["start"]
        covered = np.zeros_like(duration)
        nested = spans["parent"] != ROOT
        np.add.at(covered, spans["parent"][nested], duration[nested])
        own = duration - covered
        size = len(SPAN_NAMES)
        calls = np.bincount(spans["name"], minlength=size)
        self_s = np.bincount(spans["name"], weights=own, minlength=size)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(SPAN_NAMES)
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.spans())
