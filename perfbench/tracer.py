"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at every binding the
package holds (the defining module, every module that imported it by
name, the package namespace), so a call through ``homology.vec_syzygies``
or ``cli.qlc_total`` is seen as well as one through the defining module.
``uninstall`` puts the originals back.

A span is (name, start, end, parent, job). Self time is a span's duration
minus the durations of the traced spans nested directly inside it. Size
counts are read from arguments and return values only, so they repeat
exactly on identical input.
"""

from __future__ import annotations

import sys
import time

# layer name -> (defining module, function names); a layer with several
# functions (the vecdict/Polynomial converters) aggregates them.
TRACED = {
    "groebner.vec_syzygies": ("groebner", ["vec_syzygies"]),
    "groebner.vec_lift": ("groebner", ["vec_lift"]),
    "groebner.convert": ("groebner", ["poly_to_vec", "vector_to_vec", "vec_to_vector", "vec_to_poly"]),
    "groebner.vec_groebner": ("groebner", ["vec_groebner"]),
    "groebner.saturate": ("groebner", ["saturate"]),
    "groebner.buchberger": ("groebner", ["buchberger"]),
    "homology.free_resolution": ("homology", ["free_resolution"]),
    "homology.ext_presentation": ("homology", ["ext_presentation"]),
    "homology.qlc": ("homology", ["qlc"]),
    "homology.qlc_total": ("homology", ["qlc_total"]),
    "qdeg.quasidegrees_module": ("qdeg", ["quasidegrees_module"]),
    "qdeg.quasidegrees_monomial": ("qdeg", ["quasidegrees_monomial"]),
    "stdpairs.standard_pairs": ("stdpairs", ["standard_pairs"]),
    "stdpairs.degree_via_pairs": ("stdpairs", ["degree_via_pairs"]),
    "toric.toric_ideal": ("toric", ["toric_ideal"]),
    "toric.normalized_volume": ("toric", ["normalized_volume"]),
    "linalg.integer_kernel": ("linalg", ["integer_kernel"]),
    "planes.remove_redundancy": ("planes", ["remove_redundancy"]),
    "parse.parse_polynomial": ("parse", ["parse_polynomial"]),
    "poly.graded_ring": ("poly", ["graded_ring"]),
}


def _planes_in(q) -> int:
    return len(q.planes) if hasattr(q, "planes") else len(q)


# layer name -> size counter -> function(args, result) -> amount
SIZES = {
    "groebner.vec_syzygies": {"syz_out": lambda a, r: len(r)},
    "groebner.vec_lift": {"targets": lambda a, r: len(a[0])},
    "groebner.vec_groebner": {
        "gens_in": lambda a, r: sum(1 for g in a[0] if g),
        "basis_out": lambda a, r: len(r),
    },
    "homology.free_resolution": {
        "rank_sum": lambda a, r: sum(len(s) for s in r.shifts),
        "max_length": lambda a, r: r.length,
    },
    "homology.ext_presentation": {
        "gens": lambda a, r: len(r.shifts),
        "rels": lambda a, r: len(r.columns),
    },
    "qdeg.quasidegrees_monomial": {"planes_out": lambda a, r: len(r.planes)},
    "stdpairs.standard_pairs": {"pairs_out": lambda a, r: len(r)},
    "planes.remove_redundancy": {
        "planes_in": lambda a, r: _planes_in(a[0]),
        "planes_out": lambda a, r: len(r.planes),
    },
}
# size counters combined by maximum instead of by sum
MAXED = {"max_length"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.sizes: list[tuple[int, str, dict]] = []
        self.job = -1
        self._stack: list[list] = []  # [name, start, child time, span index]
        self._patched: list[tuple[object, str, object]] = []
        self.self_time: dict[tuple[int, str], float] = {}

    def _wrap(self, name, fn):
        sizes = SIZES.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [name, clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                self.spans[index] = (name, frame[1], end, parent, self.job)
                key = (self.job, name)
                self.self_time[key] = self.self_time.get(key, 0.0) + duration - frame[2]
            if sizes is not None:
                counts = {counter: f(args, result) for counter, f in sizes.items()}
                self.sizes.append((self.job, name, counts))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items()) if n == "quasidegrees" or n.startswith("quasidegrees.")]
        for name, (module, funcs) in TRACED.items():
            home = sys.modules["quasidegrees." + module]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapper = self._wrap(name, orig)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        cli = sys.modules["quasidegrees.cli"]
        load = cli.Job.__dict__["load"]
        self._patched.append((cli.Job, "load", load))
        cli.Job.load = classmethod(self._wrap("cli.job_load", load.__func__))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def reset(self) -> None:
        """Forget frames left open by a job the timer interrupted."""
        self._stack.clear()

    def layer_stats(self, jobs: set[int]) -> dict[str, float]:
        """calls, self_s and size counters per layer over the given jobs."""
        out: dict[str, float] = {}
        for name, _, _, _, job in filter(None, self.spans):
            if job in jobs:
                key = name + ".calls"
                out[key] = out.get(key, 0) + 1
        for (job, name), t in self.self_time.items():
            if job in jobs:
                key = name + ".self_s"
                out[key] = out.get(key, 0.0) + t
        for job, name, counts in self.sizes:
            if job in jobs:
                for counter, v in counts.items():
                    key = f"{name}.{counter}"
                    out[key] = max(out.get(key, 0), v) if counter in MAXED else out.get(key, 0) + v
        return out

    def calls_by_layer(self) -> dict[str, int]:
        """Calls per layer over every job, timed-out ones included."""
        out: dict[str, int] = {}
        for name, _, _, _, _ in filter(None, self.spans):
            out[name] = out.get(name, 0) + 1
        return out
