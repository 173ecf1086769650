"""Outside-in layer tracer: times shortgf's layer functions without editing them.

For each target function, every attribute of every loaded ``shortgf`` module
that *is* that function object is replaced by a wrapper.  Module globals are
rebound this way, so calls made inside the package (``la.vertices_of(...)``,
or ``polytope_gf(...)`` after ``from .barvinok import polytope_gf``) are
caught as well as calls from outside.

Each call records a span ``[name, start, end, parent]`` in memory, where
``parent`` is the index of the enclosing span or -1.  Counters are updated
from the arguments before the span opens and from the result after it
closes, so their cost falls on the caller's self time, not the callee's.
``metrics()`` turns the spans into per-layer numbers named
``<module>.<function>.<what>``, with the leading underscore of the private
modules ``_linalg`` and ``_subst`` dropped; ``dump()`` writes the spans out.
"""

import functools
import json
import sys
import time
from collections import defaultdict
from math import comb


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _count_terms(key):
    def hook(counts, args, kwargs):
        counts[key] += len(args[0].terms)

    return hook


def _count_result(key):
    def hook(counts, args, kwargs, result):
        counts[key] += len(result)

    return hook


def _feasibility_pre(counts, args, kwargs):
    if _arg(args, kwargs, 3, "first_only", False):
        counts["feasibility_calls"] += 1


def _feasibility_post(counts, args, kwargs, result):
    if _arg(args, kwargs, 3, "first_only", False) and result:
        counts["feasibility_found"] += 1


def _substitute_pre(counts, args, kwargs):
    f, vrows = args[0], args[1]
    counts["terms_in"] += len(f.terms)
    if _arg(args, kwargs, 5, "allow_collapse", False) and any(
        not any(sum(a * b for a, b in zip(row, d)) for row in vrows)
        for t in f.terms
        for d in t.denoms
    ):
        counts["collapse_calls"] += 1


def _vertices_pre(counts, args, kwargs):
    counts["bases"] += comb(len(args[0]), args[1])


def _tau_hadamard_pre(counts, args, kwargs):
    counts["pairs"] += len(args[0].terms) * len(args[1].terms)


def _terms_out(counts, args, kwargs, result):
    counts["terms_out"] += len(result.terms)


# (module, function, hook on the arguments, hook on the result)
TARGETS = (
    ("presburger", "disjointify", None, _count_result("cells")),
    ("_linalg", "lattice_points", _feasibility_pre, _feasibility_post),
    ("barvinok", "polytope_gf", None, None),
    ("barvinok", "lattice_gf_mapped", None, None),
    ("barvinok", "_reduce_to_fulldim", None, None),
    ("barvinok", "enumerate_polytope_points", None, _count_result("points")),
    ("barvinok", "triangulate_cone", None, _count_result("simplices")),
    ("barvinok", "decompose_unimodular_fulldim", None, _count_result("cones")),
    ("barvinok", "_dual_cone_gf_terms", None, None),
    ("_linalg", "vertices_of", _vertices_pre, _count_result("vertices")),
    ("_linalg", "matrix_inverse_fraction", None, None),
    ("_linalg", "enumerate_parallelepiped", None, _count_result("points")),
    ("_linalg", "lll_reduce", None, None),
    ("_linalg", "solve_affine_lattice", None, None),
    ("_subst", "substitute", _substitute_pre, _terms_out),
    ("_subst", "evaluate_at_one", _count_terms("terms"), None),
    ("gfcore", "canonicalize", _count_terms("terms"), None),
    ("gfcore", "normalized", _count_terms("terms_in"), _terms_out),
    ("gfcore", "oracle_expand", None, None),
    ("gfcore", "from_point_set", None, None),
    ("calculus", "tau_hadamard", _tau_hadamard_pre, None),
    ("calculus", "boolean_combine", None, None),
    ("calculus", "coefficient", None, None),
    ("calculus", "norm", None, None),
    ("calculus", "decompress", None, None),
    ("encoder", "encode_segment", None, None),
    ("encoder", "segment_gf", None, None),
    ("encoder", "compress_encoding", None, None),
    ("encoder", "format_encoding", None, None),
    ("numlab", "prime_pi", None, None),
    ("numlab", "count_square_roots", None, None),
    ("numlab", "segment_set", None, None),
)

# Counters each target reports besides calls / total_s / self_s.
EXTRA_COUNTERS = {
    "presburger.disjointify": ("cells",),
    "linalg.lattice_points": ("feasibility_calls", "feasibility_found"),
    "barvinok.enumerate_polytope_points": ("points",),
    "barvinok.triangulate_cone": ("simplices",),
    "barvinok.decompose_unimodular_fulldim": ("cones",),
    "linalg.vertices_of": ("bases", "vertices"),
    "linalg.enumerate_parallelepiped": ("points",),
    "subst.substitute": ("collapse_calls", "terms_in", "terms_out"),
    "subst.evaluate_at_one": ("terms",),
    "gfcore.canonicalize": ("terms",),
    "gfcore.normalized": ("terms_in", "terms_out"),
    "calculus.tau_hadamard": ("pairs",),
}

# matrix_inverse_fraction's self time, split by the wrapped caller it runs
# under: polarization of unimodular cones, parallelepiped enumeration, or
# the basis-reduction step of the unimodular decomposition.
INVERSE_CALLERS = {
    "barvinok._dual_cone_gf_terms": "polarization",
    "linalg.enumerate_parallelepiped": "parallelepiped",
    "barvinok.decompose_unimodular_fulldim": "lll",
}


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    if name.endswith(("hit_ratio", "coverage")):
        return "ratio"
    return "count"


def _layer(module, func):
    return f"{module.lstrip('_')}.{func}"


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, func, _, _ in TARGETS:
        name = _layer(module, func)
        names += [f"{name}.calls", f"{name}.total_s", f"{name}.self_s"]
        names += [f"{name}.{what}" for what in EXTRA_COUNTERS.get(name, ())]
    names.append("barvinok._dual_cone_gf_terms.hit_ratio")
    names += [
        f"linalg.matrix_inverse_fraction.self_s.{caller}"
        for caller in INVERSE_CALLERS.values()
    ]
    names += ["trace.wall_s", "trace.overhead_s", "trace.coverage"]
    return names


class Tracer:
    """Wraps the targets of ``package`` on construction; ``uninstall()``
    puts the original functions back."""

    def __init__(self, package):
        self.spans = []
        self._stack = []
        self._counts = defaultdict(lambda: defaultdict(int))
        self._restore = []
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for module, func, pre, post in TARGETS:
            original = getattr(sys.modules[f"{package.__name__}.{module}"], func)
            wrapper = self._wrap(_layer(module, func), original, pre, post)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in self._restore:
            setattr(m, attr, original)
        self._restore = []

    def _wrap(self, name, original, pre, post):
        spans, stack, counts = self.spans, self._stack, self._counts[name]
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(counts, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                post(counts, args, kwargs, result)
            return result

        return wrapper

    def metrics(self, traced_wall_s):
        """Per-layer metrics of everything traced so far.

        ``trace.coverage`` is the share of ``traced_wall_s`` covered by
        top-level spans.  ``trace.overhead_s`` needs an untraced run to
        compare with and stays 0 here; the runner fills it in.
        """
        child_time = [0.0] * len(self.spans)
        has_triangulation = [False] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "barvinok.triangulate_cone":
                    has_triangulation[parent] = True
        out = {name: 0 for name in metric_names()}
        lookups = misses = covered = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            total = end - start
            self_time = total - child_time[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += total
            out[f"{name}.self_s"] += self_time
            if parent < 0:
                covered += total
            if name == "barvinok._dual_cone_gf_terms":
                lookups += 1
                misses += has_triangulation[i]
            elif name == "linalg.matrix_inverse_fraction" and parent >= 0:
                caller = INVERSE_CALLERS.get(self.spans[parent][0])
                if caller is not None:
                    out[f"{name}.self_s.{caller}"] += self_time
        for name, counts in self._counts.items():
            for what, value in counts.items():
                out[f"{name}.{what}"] = value
        if lookups:
            out["barvinok._dual_cone_gf_terms.hit_ratio"] = (lookups - misses) / lookups
        out["trace.wall_s"] = traced_wall_s
        out["trace.coverage"] = covered / traced_wall_s if traced_wall_s else 0
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
