"""Span tracer that instruments spheremin from outside the package.

Each traced function is wrapped once and every alias of it is rebound by
identity across the loaded ``spheremin.*`` modules, because several
modules import names directly (``from .paths import plan_path``).  Spans
(name, start, end, parent, item id) are kept in compact in-memory arrays
and written once, at the end of the run.  Self time is derived from the
spans afterwards, so the wrappers only record timestamps and counts.

A target that no longer exists (a later refactor moved or deleted it) is
reported as absent; tracing the rest goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

# Extra per-call counts, each computed from the call's arguments and
# result.  They must stay cheap and must not change what the call does.


def _eval_product_points(args, kwargs, result):
    z = kwargs["z"] if "z" in kwargs else args[5]
    return {"points": len(z)}


def _plan_path_arcs(args, kwargs, result):
    return {
        "arcs": sum(
            1 for seg in result.segments if "Arc" in type(seg).__name__
        )
    }


def _sample_mesh_invalid(args, kwargs, result):
    spec = kwargs["spec"] if "spec" in kwargs else args[1]
    return {"invalid_nodes": spec.n_r * spec.n_theta - len(result.vertices)}


def _hybrid_root_brackets(args, kwargs, result):
    return {"multi_bracket": int(result[1] > 1)}


# (module, qualified name, extra-count hook, counts the hook reports).
# Every target also counts the calls that raised (failures); hybrid_root
# counts the evaluations of the function it is given (fn_evals).
TARGETS = (
    ("kernels", "eval_product", _eval_product_points, ("points",)),
    ("algebra", "FactoredMeromorphic.finite_roots", None, ()),
    ("algebra", "residue_contour", None, ()),
    ("algebra", "residue_at", None, ()),
    ("weierstrass", "WeierstrassData.finite_singularities", None, ()),
    ("weierstrass", "CoordinateForms.stacked", None, ()),
    ("weierstrass", "regularity_check", None, ()),
    ("weierstrass", "degree_audit", None, ()),
    ("periods", "hybrid_root", _hybrid_root_brackets, ("multi_bracket",)),
    ("periods", "assert_period_closed", None, ()),
    ("periods", "period_report", None, ()),
    ("families", "make_vase", None, ()),
    ("families", "make_double_vase", None, ()),
    ("paths", "plan_path", _plan_path_arcs, ("arcs",)),
    ("paths", "integrate_point", None, ()),
    ("mesh", "sample_mesh", _sample_mesh_invalid, ("invalid_nodes",)),
    ("mesh", "estimate_mean_curvature", None, ()),
    ("mesh", "write_obj", None, ()),
    ("mesh", "write_ply", None, ()),
    ("mesh", "write_metadata", None, ()),
    ("cli", "main", None, ()),
)


PACKAGE = "spheremin"
FN_EVALS_TARGET = "periods.hybrid_root"


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the functions in TARGETS that exist in the loaded program."""

    def __init__(self):
        self.names: list[str] = []  # the wrapped targets
        self.item = -1  # id of the item being run, set by the caller
        self._name = array("i")
        self._parent = array("i")
        self._item = array("i")
        self._outer = array("b")  # 1 when no enclosing span has this name
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._active: list[int] = []  # open spans per name
        self._counts: dict[str, dict[str, int]] = {}
        self._undo: list = []

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every target that exists; the others stay absent."""
        for module, qualname, hook, counts in TARGETS:
            name = f"{module}.{qualname}"
            self._counts[name] = dict.fromkeys(("failures",) + counts, 0)
            if name == FN_EVALS_TARGET:
                self._counts[name]["fn_evals"] = 0
            if self._wrap_target(module, qualname, name, hook, counts):
                self.names.append(name)
            else:
                del self._counts[name]

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_target(self, module, qualname, name, hook, keys) -> bool:
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            return False
        *owners, attr = qualname.split(".")
        owner = mod
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if inspect.isclass(owner):
            original = owner.__dict__.get(attr)
            if not inspect.isfunction(original):
                return False
            self._rebind(owner, attr,
                         self._wrapper(name, original, hook, keys))
            return True
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        wrapper = self._wrapper(name, original, hook, keys)
        for m in _package_modules():
            for key, value in list(vars(m).items()):
                if value is original:
                    self._rebind(m, key, wrapper)
        return True

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapper(self, name, fn, hook, keys):
        idx = len(self.names)
        names, parents, items, outer = (
            self._name, self._parent, self._item, self._outer)
        starts, ends, stack = self._start, self._end, self._stack
        active = self._active
        active.append(0)
        counts = self._counts[name]
        clock = time.perf_counter
        tracer = self
        counts_fn_evals = name == FN_EVALS_TARGET
        hook_keys = frozenset(keys)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_fn_evals and args and callable(args[0]):
                args = (_counting(args[0], counts),) + args[1:]
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer.item)
            outer.append(active[idx] == 0)
            active[idx] += 1
            stack.append(sid)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts["failures"] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
                active[idx] -= 1
            if hook is not None and hook_keys <= counts.keys():
                try:
                    extra = hook(args, kwargs, result)
                except Exception:  # the signature changed: drop the counts
                    for key in hook_keys:
                        del counts[key]
                else:
                    for key, value in extra.items():
                        counts[key] += value
            return result

        return traced

    # -- results -------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self._start)

    def summary(self) -> dict:
        """Per traced function: calls, busy_s (outermost spans only, so
        recursion is not counted twice), self_s (span time not covered by
        child spans) and the extra counts."""
        import numpy as np

        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        outer = np.frombuffer(self._outer, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for idx, fname in enumerate(self.names):
            mine = name == idx
            stats = {
                "calls": int(mine.sum()),
                "busy_s": float(dur[mine & outer].sum()),
                "self_s": float(self_time[mine].sum()),
            }
            stats.update(self._counts[fname])
            out[fname] = stats
        return out

    def write(self, path: str):
        """Write every span once, as arrays in one .npz file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            item=np.frombuffer(self._item, dtype=np.int32),
            start=np.frombuffer(self._start),
            end=np.frombuffer(self._end),
        )


def _counting(fn, counts):
    def counted(x):
        counts["fn_evals"] += 1
        return fn(x)

    return counted
