"""Spans around corruga's public entry points, recorded from outside.

The traced run rebinds module attributes: every ``corruga.*`` module that
holds an entry point under its own name gets a timing wrapper in its place,
so calls are caught wherever the pipeline looks them up (for example
``corruga.strains.growth_space`` as well as ``corruga.solver.growth_space``).
SuperLU's ``splu`` is wrapped on the ``scipy.sparse.linalg`` module object
that ``corruga.solver`` calls it through, and each factorization it returns
is a proxy that counts ``solve`` calls.  Nothing under ``src/corruga``
changes; ``uninstall`` puts every original back.

An entry point that no longer exists, or that the workload never calls, has
no spans; ``layer_metrics`` gives None (absent) for it, never a zero.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# module -> entry points; "Class.method" names are rebound on the class
ENTRY_POINTS = {
    "grid": ("build_grid", "write_obj"),
    "solver": ("assemble_system", "ConstraintSystem.sigma_max",
               "growth_space", "constrained_space", "kernel_distance",
               "recover_deflection"),
    "strains": ("effective_spaces",),
    "analysis": ("run_analysis", "write_report", "write_spectrum",
                 "export_modes", "verify_lemma"),
    "oracle": ("sample_rotation", "symmetry_lemma_check"),
    "cli": ("main",),
}
SPLU = "solver.splu"

# sizes read off an entry point's return value
SIZES = {
    "grid.build_grid": lambda g: {"grid.nodes": g.nnodes},
    "solver.assemble_system": lambda s: {"solver.unknowns": s.nunknowns,
                                         "solver.nnz": s.matrix.nnz},
}


class _CountedLU:
    """A SuperLU factorization whose ``solve`` calls are counted."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.lu_solves += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans: [name, start, end, parent span index, item id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.item: str | None = None
        self.lu: list[dict] = []          # one record per splu call
        self.lu_solves = 0
        self.sizes: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []      # entry points not found to wrap
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _span(self, name: str, fn):
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   self._stack[-1] if self._stack else None, self.item]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if sizes is not None:
                self._add_sizes(sizes, out)
            return out
        return traced

    def _add_sizes(self, sizes, out) -> None:
        try:
            found = sizes(out)
        except AttributeError:      # return type changed: sizes are absent
            return
        for key, value in found.items():
            self.sizes[key] += int(value)

    def _splu(self, fn):
        timed = self._span(SPLU, fn)

        @functools.wraps(fn)
        def counted(A, *args, **kwargs):
            lu = timed(A, *args, **kwargs)
            self.lu.append({"span": len(self.spans) - 1, "n": A.shape[0],
                            "nnz_K": int(A.nnz), "nnz_LU": int(lu.nnz)})
            return _CountedLU(lu, self)
        return counted

    # -- installing ------------------------------------------------------

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point of the already imported corruga modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == "corruga" or name.startswith("corruga."))]
        for modname, entries in ENTRY_POINTS.items():
            mod = sys.modules.get(f"corruga.{modname}")
            for entry in entries:
                owner_name, _, attr = entry.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                orig = vars(owner).get(attr) if owner is not None else None
                if not callable(orig):
                    self.missing.append(f"{modname}.{entry}")
                    continue
                wrapped = self._span(f"{modname}.{attr}", orig)
                holders = [owner] if owner_name else [
                    m for m in modules if vars(m).get(attr) is orig]
                for holder in holders:
                    self._rebind(holder, attr, wrapped)

        spla = getattr(sys.modules.get("corruga.solver"), "spla", None)
        if spla is not None and callable(vars(spla).get("splu")):
            self._rebind(spla, "splu", self._splu(vars(spla)["splu"]))
        else:
            self.missing.append(SPLU)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- summaries -------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: (call count, inclusive seconds, self seconds).

        Self time is a span's duration minus the time its child spans cover;
        the pipeline is single-threaded, so children never overlap.
        """
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            calls[name] += 1
            incl[name] += t1 - t0
            if parent is not None:
                child[parent] += t1 - t0
        own: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            own[name] += (t1 - t0) - child[i]
        return dict(calls), dict(incl), dict(own)

    def item_seconds(self) -> dict[str, float]:
        """Wall time of the top-level spans of each item."""
        out: dict[str, float] = defaultdict(float)
        for name, t0, t1, parent, item in self.spans:
            if parent is None:
                out[item] += t1 - t0
        return dict(out)

    def dump(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "item"],
                "spans": self.spans, "lu": self.lu,
                "lu_solves": self.lu_solves, "sizes": dict(self.sizes),
                "missing": self.missing}


# per-layer time metric -> (inclusive or self time, span name)
LAYER_TIMES = {
    "solver.lu_s": ("incl", SPLU),
    "solver.growth_space_s": ("incl", "solver.growth_space"),
    "solver.constrained_space_s": ("incl", "solver.constrained_space"),
    "solver.kernel_distance_s": ("incl", "solver.kernel_distance"),
    "oracle.sample_rotation_s": ("incl", "oracle.sample_rotation"),
    "oracle.lemma_check_s": ("incl", "oracle.symmetry_lemma_check"),
    "grid.build_s": ("incl", "grid.build_grid"),
    "solver.assemble_s": ("incl", "solver.assemble_system"),
    "solver.sigma_max_s": ("incl", "solver.sigma_max"),
    "strains.effective_spaces_self_s": ("self", "strains.effective_spaces"),
    "analysis.run_analysis_self_s": ("self", "analysis.run_analysis"),
    "cli.main_self_s": ("self", "cli.main"),
    "analysis.write_report_s": ("incl", "analysis.write_report"),
    "analysis.write_spectrum_s": ("incl", "analysis.write_spectrum"),
    "analysis.export_modes_self_s": ("self", "analysis.export_modes"),
    "solver.recover_deflection_s": ("incl", "solver.recover_deflection"),
    "grid.write_obj_s": ("incl", "grid.write_obj"),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics of everything the tracer saw; None marks absent."""
    calls, incl, own = tracer.totals()
    out: dict[str, tuple[float | None, str]] = {}
    for metric, (kind, span) in LAYER_TIMES.items():
        value = None
        if calls.get(span):
            value = incl[span] if kind == "incl" else own[span]
        out[metric] = (value, "s")
    lu = tracer.lu
    out["solver.lu_count"] = (len(lu) if lu else None, "count")
    out["solver.lu_solve_count"] = (tracer.lu_solves if lu else None, "count")
    out["solver.lu_fill"] = (
        sum(r["nnz_LU"] for r in lu) / sum(r["nnz_K"] for r in lu)
        if lu else None, "ratio")
    for key in ("grid.nodes", "solver.unknowns", "solver.nnz"):
        out[key] = (tracer.sizes.get(key), "count")
    return out
