"""Per-layer tracing of qsu11, installed from outside the package.

The tracer replaces the public functions of each qsu11 module with
timing wrappers.  A function is imported by name into several module
namespaces (``su11core.phi21_direct``, ``smoother.spherical_az``, the
package root, ...), and a call made inside the package looks the name
up in its own module, so every namespace that holds the original
object is patched; patching only the defining module would miss those
calls.  :meth:`Tracer.uninstall` restores every original.

Each wrapped call is a span.  A span's self time is its duration minus
the time covered by the traced spans it called.  Alongside time the
tracer keeps counts that repeat exactly for the same inputs: calls,
``terms`` (summed ``SeriesEval.terms_used``), ``uncertified`` (results
with ``tail_bound = inf``) and ``refused`` (typed qsu11 errors, by
class).  Routes are read from the arguments, so no code inside the
program is needed to tell them apart.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from time import perf_counter

#: The layers, one per module; each gets a summed ``<layer>.self_s``.
MODULES = ("qcalculus", "su11core", "limitlab", "smoother", "harness")

#: (module, function) pairs the tracer wraps.  The two kernels stand for
#: ``_kernels``; they are traced under ``qcalculus``, which calls them.
TRACED = (
    ("_kernels", "phi21_kernel"),
    ("_kernels", "qpoch_infinite_kernel"),
    ("qcalculus", "qpoch_infinite"),
    ("qcalculus", "qpoch_multi"),
    ("qcalculus", "theta_pair"),
    ("qcalculus", "phi21_direct"),
    ("qcalculus", "phi21_continued"),
    ("qcalculus", "phi21_heine"),
    ("su11core", "spherical_az"),
    ("su11core", "coamen_coeff"),
    ("su11core", "averaged_coamen"),
    ("limitlab", "limit_sweep"),
    ("limitlab", "uniform_sup_gap"),
    ("limitlab", "approx_identity_gap"),
    ("limitlab", "pochhammer_ratio"),
    ("smoother", "gaussian_smooth"),
    ("harness", "run_suite"),
)

#: Limit experiments: spherical_az calls made under one of these count
#: towards ``limitlab.evals_per_call``.
EXPERIMENTS = ("limit_sweep", "uniform_sup_gap", "approx_identity_gap")


class Stat:
    __slots__ = ("calls", "self_s", "terms", "uncertified", "refused")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.terms = 0
        self.uncertified = 0
        self.refused: Counter = Counter()


def _arg(args: tuple, kw: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kw.get(name, default)


def _spherical_route(args: tuple, kw: dict) -> str:
    p0 = _arg(args, kw, 2, "p0")
    if p0.sign > 0:
        return "case1" if p0.exponent <= 0 else "case2"
    return "case3"


def _coamen_route(args: tuple, kw: dict) -> str:
    m = _arg(args, kw, 1, "m")
    p1 = _arg(args, kw, 3, "p1")
    form = _arg(args, kw, 4, "form", "simplified")
    e = 2 - 2 * p1.exponent - 4 * m
    return f"{form}.{'direct' if e > 0 else 'heine'}"


def _suite_route(args: tuple, kw: dict) -> str:
    suites = _arg(args, kw, 0, "cfg").suites
    return suites[0] if len(suites) == 1 else "all"


class Tracer:
    """Patches qsu11 with counting, timing wrappers while installed."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    # ------------------------------------------------------------ state

    def reset(self) -> None:
        """Zero every counter; call between blocks."""
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []  # [key, child seconds]
        self._widths: list[float] = []  # useful half-width per active smooth
        self._exp_depth = 0
        self.experiments = 0
        self.experiment_evals = 0
        self.nodes = 0
        self.useful_nodes = 0

    def _stat(self, key: str) -> Stat:
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    # ------------------------------------------------------- span core

    def _span(self, key: str, fn, args: tuple, kw: dict):
        st = self._stat(key)
        st.calls += 1
        frame = [key, 0.0]
        stack = self._stack
        stack.append(frame)
        t0 = perf_counter()
        try:
            res = fn(*args, **kw)
        except Exception as err:
            if type(err).__module__.startswith("qsu11"):
                st.refused[type(err).__name__] += 1
            raise
        finally:
            dt = perf_counter() - t0
            stack.pop()
            st.self_s += dt - frame[1]
            if stack:
                stack[-1][1] += dt
        terms = getattr(res, "terms_used", None)
        if terms is not None:
            st.terms += terms
            if res.tail_bound == math.inf:
                st.uncertified += 1
        return res

    # --------------------------------------------------------- wrappers

    def _wrap_plain(self, key: str, fn):
        span = self._span

        def wrapper(*args, **kw):
            return span(key, fn, args, kw)

        return wrapper

    def _wrap_experiment(self, key: str, fn):
        span = self._span

        def wrapper(*args, **kw):
            if self._exp_depth == 0:
                self.experiments += 1
            self._exp_depth += 1
            try:
                return span(key, fn, args, kw)
            finally:
                self._exp_depth -= 1

        return wrapper

    def _wrap_spherical(self, fn):
        span = self._span

        def wrapper(*args, **kw):
            if self._exp_depth:
                self.experiment_evals += 1
            if self._stack and self._stack[-1][0] == "smoother.gaussian_smooth":
                self._count_node(_arg(args, kw, 1, "zp").z)
            key = "su11core.spherical_az." + _spherical_route(args, kw)
            return span(key, fn, args, kw)

        return wrapper

    def _wrap_coamen(self, fn):
        span = self._span

        def wrapper(*args, **kw):
            key = "su11core.coamen_coeff." + _coamen_route(args, kw)
            return span(key, fn, args, kw)

        return wrapper

    def _count_node(self, z: complex) -> None:
        self.nodes += 1
        if abs(z.imag) <= self._widths[-1]:
            self.useful_nodes += 1

    def _wrap_smooth(self, fn):
        span = self._span

        def wrapper(*args, **kw):
            n = _arg(args, kw, 3, "n")
            quad = _arg(args, kw, 5, "quad")
            # Nodes farther than this from the (real) kernel centre carry
            # less than tol_quad/4 of the Gaussian mass.
            self._widths.append(math.sqrt(math.log(4.0 / quad.tol_quad) / n))
            integrand = _arg(args, kw, 6, "integrand")
            if integrand is not None:
                def counted(z, _f=integrand):
                    self._count_node(z)
                    return _f(z)

                if len(args) > 6:
                    args = args[:6] + (counted,) + args[7:]
                else:
                    kw = dict(kw, integrand=counted)
            try:
                return span("smoother.gaussian_smooth", fn, args, kw)
            finally:
                self._widths.pop()

        return wrapper

    def _wrap_run_suite(self, fn):
        span = self._span

        def wrapper(*args, **kw):
            return span("harness." + _suite_route(args, kw), fn, args, kw)

        return wrapper

    def _make_wrapper(self, module: str, name: str, fn):
        if name == "spherical_az":
            return self._wrap_spherical(fn)
        if name == "coamen_coeff":
            return self._wrap_coamen(fn)
        if name == "gaussian_smooth":
            return self._wrap_smooth(fn)
        if name == "run_suite":
            return self._wrap_run_suite(fn)
        layer = "qcalculus" if module == "_kernels" else module
        key = f"{layer}.{name}"
        if name in EXPERIMENTS:
            return self._wrap_experiment(key, fn)
        return self._wrap_plain(key, fn)

    # ---------------------------------------------------- install/undo

    def install(self) -> None:
        """Patch every qsu11 namespace that holds a traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "qsu11" or n.startswith("qsu11.")]
        for module, name in TRACED:
            fn = getattr(sys.modules[f"qsu11.{module}"], name)
            wrapper = self._make_wrapper(module, name, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    # --------------------------------------------------------- metrics

    def block_metrics(self) -> dict[str, float]:
        """Flat per-layer metrics of the block traced since the last reset."""
        out: dict[str, float] = {}
        layer_self: dict[str, float] = {m: 0.0 for m in MODULES}
        for key, st in self.stats.items():
            out[f"{key}.calls"] = st.calls
            out[f"{key}.self_s"] = st.self_s
            out[f"{key}.terms"] = st.terms
            out[f"{key}.uncertified"] = st.uncertified
            out[f"{key}.refused"] = sum(st.refused.values())
            for cls, n in st.refused.items():
                out[f"{key}.refused.{cls}"] = n
            layer_self[key.split(".", 1)[0]] += st.self_s
        for layer, s in layer_self.items():
            out[f"{layer}.self_s"] = s
        out["harness.run_suite.calls"] = sum(
            st.calls for key, st in self.stats.items()
            if key.startswith("harness."))
        out["limitlab.evals_per_call"] = (
            self.experiment_evals / self.experiments if self.experiments else 0.0)
        out["smoother.nodes"] = self.nodes
        out["smoother.useful_nodes"] = self.useful_nodes
        out["smoother.useful_node_ratio"] = (
            self.useful_nodes / self.nodes if self.nodes else 0.0)
        return out
