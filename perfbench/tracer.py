"""In-memory span tracer that wraps lswkit's layer functions from outside.

Each probe replaces one module or class attribute with a wrapper that records
a span (label, parent span, start, end).  Callers inside lswkit look these
attributes up at call time, so the spans follow the real call tree without
any change to the program.  A probe whose attribute no longer exists is
reported as missing and skipped; the metrics that need it read ``None``.

Self time of a span is its duration minus the durations of its direct
children.  Spans stay in memory, in flat lists of numbers that add no work
for the garbage collector, and are written once, by :meth:`Tracer.save`.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

from lswkit import cellquad, cli, families, jensen, lsw_solver, map_iteration, profiles, self_similar
from lswkit.lsw_solver import CoarseningTrace

# (label, owner, attribute): a span is recorded around every call of
# owner.attribute.  Names imported into cli with ``from ... import`` are
# wrapped where cli looks them up.
SPAN_PROBES = [
    ("picard", lsw_solver, "picard_solve_interval"),
    ("transport", lsw_solver, "_advance"),
    ("exit_screen", lsw_solver, "exit_time_frozen"),
    ("descent", lsw_solver, "_analytic_descent"),
    ("rk4", lsw_solver, "_rk4"),
    ("lres", lsw_solver, "_state_L"),
    ("flux", lsw_solver, "l_from_state"),
    ("near_origin", lsw_solver, "_theta_cell_integrals"),
    ("power_total", cellquad, "power_total"),
    ("power_cells", cellquad, "power_cells"),
    ("record", lsw_solver, "_record"),
    ("diagnostics", cli, "coarsening_identity_check"),
    ("diagnostics", cli, "beta_along_flow"),
    ("diagnostics", cli, "g_profile"),
    ("diagnostics", cli, "normalized_view"),
    ("diagnostics", cli, "dyadic_report"),
    ("output", CoarseningTrace, "save"),
    ("output", profiles.SurvivalProfile, "save"),
    ("output", cli, "save_summary"),
    ("output", map_iteration.IterationHistory, "save"),
    ("output", self_similar.SelfSimilarProfile, "save"),
    ("output", jensen.JensenCertificate, "to_json"),
    ("quantile", profiles.SurvivalProfile, "quantile"),
    ("quantile_grid", families, "quantile_grid"),
    ("quantile_grid", map_iteration, "quantile_grid"),
    ("apply_map", map_iteration, "apply_map"),
    ("inverse", map_iteration.MapF, "inverse"),
    ("normalize", map_iteration, "normalize"),
    ("jensen", jensen, "reverse_jensen"),
    ("jensen", jensen, "sharp_jensen"),
    ("jensen", jensen, "tail_and_conditional_bounds"),
    ("jensen", jensen, "quantitative_jensen_gap"),
    ("self_similar", cli, "build_profile"),
    ("self_similar", cli, "g_alpha_profile"),
    ("linear_model", cli, "run_linear_model"),
    ("linear_model", cli, "stability_check"),
    ("linear_model", cli, "identity_check"),
    ("linear_model", cli, "mass_drift"),
    ("linear_model", cli, "affine_exactness_check"),
]

# (counter, parent label, owner, attribute): calls are counted, without a
# span, when the innermost open span has the parent label.  Each Newton
# iteration of the descent evaluates _phi_of_u once, after one evaluation
# for the target.
COUNT_PROBES = [
    ("phi_in_descent", "descent", lsw_solver, "_phi_of_u"),
]

# metric name prefix -> probed attributes its metrics need; the longest
# matching prefix applies
NEEDS = {
    "lsw_solver.transport": ["_advance"],
    "lsw_solver.transport.exit_screen_s": ["_advance", "exit_time_frozen"],
    "lsw_solver.transport.descent": ["_advance", "_analytic_descent"],
    "lsw_solver.transport.rk4_s": ["_advance", "_rk4"],
    "lsw_solver.transport.newton_iters_per_call": ["_analytic_descent", "_phi_of_u"],
    "lsw_solver.lres": ["_state_L"],
    "lsw_solver.lres.flux_evals": ["_state_L", "l_from_state"],
    "lsw_solver.lres.near_origin_s": ["l_from_state", "_theta_cell_integrals"],
    "lsw_solver.lres.far_field_s": ["l_from_state", "power_total"],
    "lsw_solver.picard": ["picard_solve_interval"],
    "lsw_solver.record_s": ["_record"],
}


class Tracer:
    def __init__(self):
        # span i is (label[i], parent[i], start[i], end[i]); parent -1 is the root
        self.label: list = []
        self.parent: list = []
        self.start: list = []
        self.end: list = []
        self.stack: list = []       # indices of open spans
        self.round_start: list = []  # index of the first span of each traced round
        self.counts: Counter = Counter()
        self.picard_calls = 0
        self.picard_accepted = 0
        self.picard_sweeps = 0
        self.missing: set = set()
        self._saved: list = []

    # -- probes ---------------------------------------------------------

    def _span(self, label, fn, on_return=None):
        labels, parents, starts, ends = self.label, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            labels.append(label)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def _counter(self, counter, parent, fn):
        labels, stack, counts = self.label, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and labels[stack[-1]] == parent:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_picard(self, out):
        # picard_solve_interval returns (ensemble, spline, PicardStats); a
        # converged interval is an accepted step, any other call a halving
        stats = out[2]
        self.picard_calls += 1
        self.picard_sweeps += int(stats.iterations)
        self.picard_accepted += int(bool(stats.converged))

    def _install(self, owner, attr, make):
        original = vars(owner).get(attr)
        if original is None:
            self.missing.add(attr)
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self):
        self.round_start.append(len(self.start))
        for label, owner, attr in SPAN_PROBES:
            hook = self._on_picard if label == "picard" else None
            self._install(owner, attr, lambda fn, l=label, h=hook: self._span(l, fn, h))
        for counter, parent, owner, attr in COUNT_PROBES:
            self._install(owner, attr, lambda fn, c=counter, p=parent: self._counter(c, p, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- aggregation ----------------------------------------------------

    def totals(self) -> dict:
        """Inclusive time, self time and call count per (label, parent label)."""
        labels, parents = self.label, self.parent
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(parents, dtype=np.int64).reshape(-1)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, label in enumerate(labels):
            acc = out[(label, labels[parents[i]] if parents[i] >= 0 else None)]
            acc[0] += dur[i]
            acc[1] += dur[i] - child[i]
            acc[2] += 1
        return dict(out)

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, each a per-round mean over ``rounds`` traced rounds."""
        tot = self.totals()

        def incl(label, parent="*"):
            return sum(v[0] for (l, p), v in tot.items() if l == label and parent in ("*", p))

        def self_time(label):
            return sum(v[1] for (l, _), v in tot.items() if l == label)

        def calls(label, parent="*"):
            return sum(v[2] for (l, p), v in tot.items() if l == label and parent in ("*", p))

        descents = calls("descent", "transport")
        lres_calls = calls("lres")
        flux_evals = calls("flux", "lres")
        phi = self.counts["phi_in_descent"]
        steps = self.picard_accepted
        per_round = {
            "lsw_solver.transport.s": incl("transport"),
            "lsw_solver.transport.calls": calls("transport"),
            "lsw_solver.transport.exit_screen_s": incl("exit_screen", "transport"),
            "lsw_solver.transport.descent_s": incl("descent", "transport"),
            "lsw_solver.transport.descent_calls": descents,
            "lsw_solver.transport.rk4_s": incl("rk4", "transport"),
            "lsw_solver.lres.s": incl("lres"),
            "lsw_solver.lres.calls": lres_calls,
            "lsw_solver.lres.flux_evals": flux_evals,
            "lsw_solver.lres.near_origin_s": incl("near_origin", "flux"),
            "lsw_solver.lres.far_field_s": incl("power_total", "flux"),
            "lsw_solver.picard.self_s": self_time("picard"),
            "lsw_solver.picard.calls": self.picard_calls,
            "lsw_solver.picard.steps": steps,
            "lsw_solver.picard.sweeps": self.picard_sweeps,
            "lsw_solver.picard.halvings": self.picard_calls - steps,
            "lsw_solver.record_s": incl("record"),
            "lsw_solver.diagnostics_s": incl("diagnostics"),
            "cli.output_s": incl("output"),
            "cellquad.power_cells_s": incl("power_cells"),
            "cellquad.power_cells_calls": calls("power_cells"),
            "profiles.quantile_s": incl("quantile"),
            "profiles.quantile_calls": calls("quantile"),
            "families.quantile_grid_s": incl("quantile_grid"),
            "map_iteration.apply_map_s": incl("apply_map"),
            "map_iteration.inverse_s": incl("inverse"),
            "map_iteration.normalize_s": incl("normalize"),
            "jensen.s": incl("jensen"),
            "self_similar.s": incl("self_similar"),
            "linear_model.s": incl("linear_model"),
        }
        out = {k: v / rounds for k, v in per_round.items()}
        # ratios are taken over the totals, so they need no division by rounds
        out["lsw_solver.transport.newton_iters_per_call"] = phi / descents - 1.0 if descents else 0.0
        out["lsw_solver.lres.flux_evals_per_call"] = flux_evals / lres_calls if lres_calls else 0.0
        out["lsw_solver.picard.sweeps_per_step"] = self.picard_sweeps / steps if steps else 0.0
        for name in out:
            prefixes = [p for p in NEEDS if name.startswith(p)]
            if prefixes and not self.missing.isdisjoint(NEEDS[max(prefixes, key=len)]):
                out[name] = None
        return out

    def save(self, path) -> None:
        names = sorted(set(self.label))
        index = {name: i for i, name in enumerate(names)}
        np.savez(path, names=np.array(names),
                 label=np.array([index[l] for l in self.label], dtype=np.int16),
                 parent=np.array(self.parent, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end),
                 round_start=np.array(self.round_start, dtype=np.int64))
