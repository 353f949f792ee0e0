"""Span recording around finiteqg's layers, from outside the package.

``install`` rebinds every public function of each layer module in every
``finiteqg.*`` namespace that holds it, and wraps ``mul_coeffs`` and
``norm_coeffs`` on the three ``core`` algebra classes.  Each call becomes
a span ``[name, start, end, parent, probe]`` kept in memory; ``summarize``
turns spans into per-layer metrics, where a layer's self time is its
spans' durations minus the part covered by their child spans.
"""
from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
import time
import weakref

# layer modules whose public functions get spans "<layer>.<function>";
# core is traced at mul_coeffs, norm_coeffs and nullspace, cli at main
LAYERS = ("groups", "hopf", "haar", "wedderburn", "duality", "orbits",
          "clifford", "classical", "io")
ALGEBRA_CLASSES = ("Algebra", "BlockAlgebra", "TensorAlgebra")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self._rep = weakref.WeakKeyDictionary()

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            pre = before(args, kwargs) if before else None
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after:
                span[4] = after(pre, args, kwargs, out)
            elif pre is not None:
                span[4] = pre
            return out
        return traced

    def span(self, name, start, end):
        """Record an interval measured by the caller; returns its index."""
        self.spans.append([name, start, end, -1, None])
        return len(self.spans) - 1

    def adopt(self, child_spans, parent: int):
        """Append spans recorded in another process under ``parent``."""
        base = len(self.spans)
        for name, t0, t1, par, probe in child_spans:
            self.spans.append([name, t0, t1,
                               parent if par < 0 else par + base, probe])

    # -- probes --------------------------------------------------------------
    def _rep_shape(self, args, kwargs):
        """(rep_dim, dense SVD work) of the algebra whose norm is taken:
        sum n^3 over the blocks of a block algebra, rep_dim^3 otherwise."""
        alg = args[0]
        shape = self._rep.get(alg)
        if shape is None:
            dims = alg.__dict__.get("block_dims")
            if isinstance(dims, tuple):
                shape = (max(dims), sum(n ** 3 for n in dims))
            else:
                r = alg.rep_dim
                shape = (r, r ** 3)
            self._rep[alg] = shape
        return shape

    # -- installation --------------------------------------------------------
    def install(self):
        """Wrap every layer of finiteqg; ``uninstall`` undoes it."""
        from finiteqg import cli, core
        mods = {name: sys.modules[f"finiteqg.{name}"] for name in LAYERS}
        originals = {}
        for layer, mod in mods.items():
            for fname, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not fname.startswith("_")
                        and fn.__module__ == mod.__name__):
                    originals[fn] = self._wrap_layer(layer, fname, fn)
        originals[core.nullspace] = self.wrap(
            "core.nullspace", core.nullspace,
            before=lambda a, k: int(getattr(a[0], "shape", (len(a[0]),))[0]))
        originals[cli.main] = self.wrap("cli.main", cli.main)

        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "finiteqg" or n.startswith("finiteqg.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in originals:
                    setattr(ns, attr, originals[value])
                    self._undo.append((ns, attr, value))

        for cname in ALGEBRA_CLASSES:
            cls = getattr(core, cname)
            for meth, span in (("mul_coeffs", "core.mul"),
                               ("norm_coeffs", "core.norm")):
                fn = cls.__dict__[meth]
                if span == "core.norm":
                    w = self.wrap(span, fn, before=self._rep_shape)
                else:
                    w = self.wrap(span, fn, before=lambda a, k: a[0].dim)
                setattr(cls, meth, w)
                self._undo.append((cls, meth, fn))
        return self

    def _wrap_layer(self, layer, fname, fn):
        name = f"{layer}.{fname}"
        if layer == "wedderburn":
            return self.wrap(name, fn, before=lambda a, k: _maxrss_mb(),
                             after=lambda pre, a, k, out: _maxrss_mb() - pre)
        if name == "hopf.verify_hopf":
            return self.wrap(name, fn, after=_margin)
        if name == "duality.mult_unitary":
            return self.wrap(name, fn, before=_w_cached)
        if layer == "io" and fname.startswith(("load_", "save_")):
            # load_*(path, ...) and save_*(obj, path, ...)
            pos = 0 if fname.startswith("load_") else 1
            return self.wrap(name, fn, after=lambda pre, a, k, out:
                             os.path.getsize(a[pos]))
        return self.wrap(name, fn)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _margin(pre, args, kwargs, report):
    """max residual / (eps (1 + scale)) over the axioms of one report."""
    eps = report.tol.eps
    return max(r / (eps * (1.0 + report.scales.get(k, 1.0)))
               for k, r in report.residuals.items())


def _w_cached(args, kwargs):
    from finiteqg.core import as_tolerance
    D = args[0]
    tol = args[1] if len(args) > 1 else kwargs.get("tol")
    return int(D._w is not None and D._w[1] == as_tolerance(tol).eps)


PER_LAYER = (
    ("core.norm.calls", "count", "lower"),
    ("core.norm.self_s", "s", "lower"),
    ("core.norm.max_rep_dim", "count", "lower"),
    ("core.norm.work", "count", "lower"),
    ("core.mul.calls", "count", "lower"),
    ("core.mul.self_s", "s", "lower"),
    ("core.mul.max_dim", "count", "lower"),
    ("core.nullspace.calls", "count", "lower"),
    ("core.nullspace.self_s", "s", "lower"),
    ("core.nullspace.max_rows", "count", "lower"),
    ("wedderburn.calls", "count", "lower"),
    ("wedderburn.self_s", "s", "lower"),
    ("wedderburn.rss_growth_mb", "MB", "lower"),
    ("hopf.verify.calls", "count", "lower"),
    ("hopf.verify.self_s", "s", "lower"),
    ("hopf.max_margin", "ratio", "lower"),
    ("haar.calls", "count", "lower"),
    ("haar.self_s", "s", "lower"),
    ("duality.dualize.self_s", "s", "lower"),
    ("duality.mult_unitary.calls", "count", "lower"),
    ("duality.mult_unitary.self_s", "s", "lower"),
    ("duality.mult_unitary.reuse_frac", "frac", "higher"),
    ("orbits.calls", "count", "lower"),
    ("orbits.self_s", "s", "lower"),
    ("orbits.homogeneous_action.self_s", "s", "lower"),
    ("clifford.calls", "count", "lower"),
    ("clifford.self_s", "s", "lower"),
    ("classical.calls", "count", "lower"),
    ("classical.self_s", "s", "lower"),
    ("io.calls", "count", "lower"),
    ("io.self_s", "s", "lower"),
    ("io.bytes", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("groups.self_s", "s", "lower"),
    ("untraced_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("host.ref_s", "s", "lower"),
)

# metric group -> predicate on span names
_GROUPS = {
    "core.norm": lambda n: n == "core.norm",
    "core.mul": lambda n: n == "core.mul",
    "core.nullspace": lambda n: n == "core.nullspace",
    "wedderburn": lambda n: n.startswith("wedderburn."),
    "hopf.verify": lambda n: n == "hopf.verify_hopf",
    "haar": lambda n: n.startswith("haar."),
    "duality.dualize": lambda n: n == "duality.dualize",
    "duality.mult_unitary": lambda n: n == "duality.mult_unitary",
    "orbits": lambda n: n.startswith("orbits."),
    "orbits.homogeneous_action": lambda n: n == "orbits.homogeneous_action",
    "clifford": lambda n: n.startswith("clifford."),
    "classical": lambda n: n.startswith("classical."),
    "io": lambda n: n.startswith("io."),
    "cli": lambda n: n == "cli.main",
    "cli.process": lambda n: n == "cli.process",
    "groups": lambda n: n.startswith("groups."),
}


def self_times(spans):
    """Duration minus the durations of direct children, per span."""
    covered = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def summarize(spans, first: int, rounds: int, pass_wall: float):
    """Per-layer metrics of ``spans[first:]`` per round, plus
    ``groups.self_s`` over all spans (input set-up happens before
    ``first``) and ``untraced_s``: pass wall time no top-level span covers.
    """
    selfs = self_times(spans)
    acc = {g: {"calls": 0, "self_s": 0.0, "probes": []} for g in _GROUPS}
    for i, (name, t0, t1, parent, probe) in enumerate(spans):
        if i < first and not name.startswith("groups."):
            continue
        for g, match in _GROUPS.items():
            if match(name):
                a = acc[g]
                a["calls"] += 1
                a["self_s"] += selfs[i]
                if probe is not None:
                    a["probes"].append(probe)
    top = sum(t1 - t0 for name, t0, t1, parent, _ in spans[first:]
              if parent < 0)
    per = 1.0 / max(rounds, 1)
    out = {}
    for g in ("core.norm", "core.mul", "core.nullspace", "wedderburn",
              "hopf.verify", "haar", "duality.mult_unitary", "orbits",
              "clifford", "classical", "io"):
        out[f"{g}.calls"] = acc[g]["calls"] * per
        out[f"{g}.self_s"] = acc[g]["self_s"] * per
    shapes = acc["core.norm"]["probes"]
    reused = acc["duality.mult_unitary"]["probes"]
    out.update({
        "core.norm.max_rep_dim": max((s[0] for s in shapes), default=0),
        "core.norm.work": sum(s[1] for s in shapes) * per,
        "core.mul.max_dim": max(acc["core.mul"]["probes"], default=0),
        "core.nullspace.max_rows":
            max(acc["core.nullspace"]["probes"], default=0),
        "wedderburn.rss_growth_mb":
            max(acc["wedderburn"]["probes"], default=0.0),
        "hopf.max_margin": max(acc["hopf.verify"]["probes"], default=0.0),
        "duality.dualize.self_s": acc["duality.dualize"]["self_s"] * per,
        "duality.mult_unitary.reuse_frac":
            sum(reused) / len(reused) if reused else 0.0,
        "orbits.homogeneous_action.self_s":
            acc["orbits.homogeneous_action"]["self_s"] * per,
        "io.bytes": sum(acc["io"]["probes"]) * per,
        "cli.self_s": acc["cli"]["self_s"] * per,
        "cli.startup_s": acc["cli.process"]["self_s"] * per,
        "groups.self_s": acc["groups"]["self_s"],
        "untraced_s": (pass_wall - top) * per,
    })
    return out
