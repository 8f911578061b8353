"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public g2cert functions from outside the package: it rebinds
each name in every loaded g2cert module that holds the original object, so
calls through ``from .lie import killing_form`` style imports are traced too.
Nothing under ``src/`` knows about it, and ``uninstall`` restores every
binding.

A span is ``[name, start, end, parent_index, shape]``.  Self time is a span's
duration minus the time its child spans cover, with one exception for the
``suite`` layer: a check or a stage only gives up the time of the suite spans
nested in it, so the stage and check rows together add up to the run and the
primitives they call stay charged to them.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import weakref
from time import perf_counter

# Systems whose rows*cols*min(rows, cols) exceeds this count as "big" kernel
# solves.  It mirrors the size at which the program today prefers its modular
# kernel path, but it is fixed here so the split stays defined if that path
# changes or goes away.
BIG_KERNEL_SIZE = 1_000_000

# Module-level functions, by module.
FUNCTIONS = {
    "octonion": ("build_split_cayley",),
    "linalg": ("kernel_basis", "rref", "signature"),
    "lie": (
        "killing_form",
        "is_semisimple",
        "so_of_form",
        "derivation_algebra",
        "centralizer",
        "transporter_into",
        "subalgebra_closure",
    ),
    "reps": (
        "hom_space",
        "is_irreducible",
        "invariant_bilinear_forms",
        "wedge_square",
        "wedge_so_isomorphism",
        "submodule_generated",
    ),
    "weyl": ("dimension_census", "simple_algebra_census"),
    "report": ("serialize",),
    "cli": ("main",),
}

# (module, class, attribute, span name).  Constructors are named after their
# class: their spans cover the exact re-checks done at construction.
METHODS = (
    ("linalg", "Matrix", "inverse", "linalg.Matrix.inverse"),
    ("linalg", "Subspace", "from_vectors", "linalg.Subspace.from_vectors"),
    ("octonion", "StructureConstantAlgebra", "multiply", "octonion.StructureConstantAlgebra.multiply"),
    ("lie", "LieAlgebra", "__init__", "lie.LieAlgebra"),
    ("reps", "LieModule", "__init__", "reps.LieModule"),
    ("reps", "Intertwiner", "__post_init__", "reps.Intertwiner"),
)

# VerificationContext properties that build a shared construction.
STAGES = (
    "cayley",
    "derivations",
    "imaginary",
    "natural_rep",
    "so34",
    "embedding",
    "g2_image",
    "so34_as_g2_module",
    "complement",
    "complement_module",
    "complement_isomorphism",
    "image_basis_change",
)


def _kernel_shape(m, *_args, **_kwargs):
    return m.shape


def _hom_shape(v, w, *_args, **_kwargs):
    return (w.dim, v.dim)


STAT_KEYS = ("calls", "self_s", "max_cells", "big_calls", "big_self_s", "max_unknowns")


def span_names() -> set[str]:
    """Every span name the tracer records, apart from the suite checks'."""
    names = {f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns}
    names.update(span for *_, span in METHODS)
    names.update(f"suite.stage.{s}" for s in STAGES)
    return names


SHAPES = {"linalg.kernel_basis": _kernel_shape, "reps.hom_space": _hom_shape}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._built: "weakref.WeakKeyDictionary[object, set]" = weakref.WeakKeyDictionary()

    def wrap(self, name: str, fn):
        spans, stack, shape = self.spans, self._stack, SHAPES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    shape(*args, **kwargs) if shape else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced name in every g2cert module."""
        mods = {
            name: importlib.import_module(f"g2cert.{name}")
            for name in ("octonion", "linalg", "lie", "reps", "weyl", "suite", "report", "cli")
        }
        for mod_name, names in FUNCTIONS.items():
            for fn_name in names:
                original = getattr(mods[mod_name], fn_name)
                traced = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, traced)
        for mod_name, cls_name, attr, span_name in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(span_name, raw.__func__)))
            else:
                self._set(cls, attr, self.wrap(span_name, raw))
        suite = mods["suite"]
        ctx_cls = suite.VerificationContext
        for stage in STAGES:
            self._set(ctx_cls, stage, self._stage_property(stage, ctx_cls.__dict__[stage].fget))
        self._set(
            suite,
            "CHECKS",
            tuple(dataclasses.replace(c, fn=self.wrap(f"suite.check.{c.id}", c.fn)) for c in suite.CHECKS),
        )

    def _stage_property(self, stage: str, fget):
        """Trace only the first access per context: that is the one that builds."""
        traced = self.wrap(f"suite.stage.{stage}", fget)
        built = self._built

        def getter(ctx):
            seen = built.setdefault(ctx, set())
            if stage in seen:
                return fget(ctx)
            seen.add(stage)
            return traced(ctx)

        return property(getter, doc=fget.__doc__)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_s, and for shaped spans the largest shape."""
        spans = self.spans
        cover_all = [0.0] * len(spans)
        cover_suite = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent < 0:
                continue
            cover_all[parent] += end - start
            if name.startswith("suite."):
                p = parent
                while p >= 0 and not spans[p][0].startswith("suite."):
                    p = spans[p][3]
                if p >= 0:
                    cover_suite[p] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent, shape) in enumerate(spans):
            cover = cover_suite[i] if name.startswith("suite.") else cover_all[i]
            self_s = end - start - cover
            stats = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            stats["calls"] += 1
            stats["self_s"] += self_s
            if name == "linalg.kernel_basis":
                rows, cols = shape
                stats["max_cells"] = max(stats.get("max_cells", 0), rows * cols)
                if rows * cols * min(rows, cols) > BIG_KERNEL_SIZE:
                    stats["big_calls"] = stats.get("big_calls", 0) + 1
                    stats["big_self_s"] = stats.get("big_self_s", 0.0) + self_s
            elif name == "reps.hom_space":
                stats["max_unknowns"] = max(stats.get("max_unknowns", 0), shape[0] * shape[1])
        return out

    def write(self, path):
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, shape in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start": round(start - t0, 9),
                    "end": round(end - t0, 9),
                    "parent": parent,
                    "shape": shape,
                }) + "\n")
