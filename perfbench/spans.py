"""Span recorder for the traced run.

``SpanRecorder.install`` wraps public functions of hypverify and patches
every binding of each one: the attribute in the module that defines it,
the attribute in every hypverify module that imported it by name, and the
``hypverify`` package namespace.  Each call records a span (name, start,
end, parent).  ``uninstall`` puts the original objects back; nothing in
the library's source is changed.

Self time of a span is its duration minus the durations of its direct
children.  Summed per module it splits the traced wall time by layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

MODULES = ("geometry", "exact", "radial", "specialfn", "spectral", "kernels",
           "inequalities", "cli")

# Public functions that get their own per-layer metrics; the other public
# functions of each module are wrapped too, and count toward its self time.
REPORTED = {
    "radial": ("convolve_with_kernel", "radial_convolution"),
    "specialfn": ("phi_matrix", "spherical_function", "spherical_function_sphere_average"),
    "spectral": ("forward_transform", "inverse_transform", "plancherel_check", "quadratic_form"),
    "kernels": ("heat_kernel", "resolvent_kernel", "limiting_green_kernel",
                "qk_inverse_kernel.convolution", "qk_inverse_kernel.spectral"),
    "inequalities": ("deficit", "hls_bilinear", "estimate_best_constant",
                     "convolution_bound_check", "biharmonic_hardy_identity_check",
                     "duality_chain_check"),
    "exact": ("verify_sinh_derivative_recursion", "halfspace_conjugation_monomial_check",
              "ball_conjugation_numeric_check"),
    "cli": ("run_suite",),
}

_GRID_SIZE_FUNCS = ("convolve_with_kernel", "radial_convolution")


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, module, start, end, parent, extra, raised]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._phi_keys: set = set()

    # -- patching ----------------------------------------------------------

    def targets(self, hv) -> list[tuple[str, str, object]]:
        """(module, name, function) for every public function to wrap."""
        out = []
        for name in hv.__all__:
            obj = getattr(hv, name)
            if inspect.isfunction(obj) and obj.__module__.startswith("hypverify."):
                out.append((obj.__module__.split(".", 1)[1], name, obj))
        out.append(("cli", "run_suite", importlib.import_module("hypverify.cli").run_suite))
        return out

    def install(self, hv) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        targets = self.targets(hv)
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "hypverify" or k.startswith("hypverify."))]
        for module_name, name, fn in targets:
            wrapper = self._wrap(module_name, name, fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Bindings in hypverify modules that still point at a wrapper."""
        return [f"{k}.{attr}" for k, m in list(sys.modules.items())
                if m is not None and (k == "hypverify" or k.startswith("hypverify."))
                for attr, val in vars(m).items() if hasattr(val, "__span_wrapped__")]

    def _wrap(self, module_name: str, name: str, fn):
        sig = inspect.signature(fn)
        label = f"{module_name}.{name}"
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def info(args, kwargs):
            if name == "qk_inverse_kernel":
                bound = sig.bind(*args, **kwargs)
                return {"label": f"{label}.{bound.arguments.get('route', 'convolution')}"}
            if name == "phi_matrix":
                bound = sig.bind(*args, **kwargs)
                lam = bound.arguments["lam"]
                rho = bound.arguments["rho"]
                n = int(bound.arguments["n"])
                key = (n, _digest(lam), _digest(rho))
                repeat = key in self._phi_keys
                self._phi_keys.add(key)
                return {"n": n, "entries": np.size(lam) * np.size(rho), "repeat": repeat}
            if name in _GRID_SIZE_FUNCS:
                bound = sig.bind(*args, **kwargs)
                return {"pairs": bound.arguments["grid"].size ** 2}
            return None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = info(args, kwargs)
            span = [extra["label"] if extra and "label" in extra else label, module_name,
                    0.0, 0.0, stack[-1] if stack else -1, extra, False]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()

        wrapper.__span_wrapped__ = fn
        return wrapper

    # -- statistics --------------------------------------------------------

    def summary(self) -> dict:
        """Per-function and per-module totals, plus the derived counts."""
        child = [0.0] * len(self.spans)
        for name, mod, t0, t1, parent, extra, err in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        funcs: dict[str, dict] = {}
        modules = {m: 0.0 for m in MODULES}
        phi = {"entries_new": 0, "self_new": 0.0, "calls": 0, "repeats": 0,
               "odd_self": 0.0, "even_self": 0.0, "odd_calls": 0, "even_calls": 0,
               "max_entries": 0}
        pairs: dict[str, list] = {}
        for i, (name, mod, t0, t1, parent, extra, err) in enumerate(self.spans):
            dur = t1 - t0
            own = dur - child[i]
            rec = funcs.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
            rec["calls"] += 1
            rec["self_s"] += own
            rec["errors"] += int(err)
            rec["busy_s"] += dur
            modules[mod] = modules.get(mod, 0.0) + own
            if name == "specialfn.phi_matrix":
                phi["calls"] += 1
                phi["repeats"] += int(extra["repeat"])
                parity = "odd" if extra["n"] % 2 else "even"
                phi[f"{parity}_self"] += own
                phi[f"{parity}_calls"] += 1
                phi["max_entries"] = max(phi["max_entries"], extra["entries"])
                if not extra["repeat"]:
                    phi["entries_new"] += extra["entries"]
                    phi["self_new"] += own
            if extra and "pairs" in extra:
                acc = pairs.setdefault(name, [0, 0.0])
                acc[0] += extra["pairs"]
                acc[1] += dur
        return {"functions": funcs, "modules": modules, "phi": phi, "pairs": pairs}


def _digest(a) -> bytes:
    return np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes()
