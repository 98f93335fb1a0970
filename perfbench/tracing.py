"""Per-layer tracing of one in-process w2lab pass, installed from outside.

The program carries no timing code of its own, so the benchmark wraps the
public functions and methods of each module before the pass starts.  A
function is often bound under several names (``from .transport import
w2_exact`` in ``experiments`` and ``bounds``), and a caller looks it up
through its own module, so each wrapper replaces the original in *every*
``w2lab`` module namespace that holds it.  Methods are wrapped on the class
that defines them.  Targets that no longer exist are listed, and the
benchmark fails the traced run on them rather than report their layers as 0.

A layer's inclusive seconds count only its outermost call, and its self
seconds subtract the traced calls it made.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _job_span(settings, job_id, *rest):
    return "job." + job_id.replace(":", ".")


def _rows(a) -> int:
    return int(np.shape(a)[0]) if np.ndim(a) >= 2 else 1


def _count_lp(c, result, x, p, y, q, *rest, **kw):
    c["transport.w2_discrete_lp.calls"] += 1
    c["transport.w2_discrete_lp.vars"] += _rows(x) * _rows(y)


def _count_exact(c, result, mu, nu, *rest, **kw):
    c["transport.w2_exact.calls"] += 1
    c["transport.w2_exact.points"] += mu.size


def _count_quantile(c, result, xs, *rest, **kw):
    c["transport.w2_quantile_1d.points"] += int(np.size(xs))


def _count_sinkhorn(c, result, *args, **kw):
    c["transport.sinkhorn_w2.iterations"] += result[1].iterations


def _count_estimate(c, result, *args, **kw):
    c["experiments.estimate_w2.calls"] += 1


def _count_draw_sum(c, result, sampler, n_terms, size, *rest, **kw):
    c["samplers.draw_sum.draws"] += size


def _count_gaussian(c, result, model, count, *rest, **kw):
    c["gaussmath.sample_gaussian.draws"] += count


def _count_gh(c, result, nodes, *rest, **kw):
    c["gaussmath.gh_nodes_weights.calls"] += 1
    c["_gh_node_counts"] = c.get("_gh_node_counts", frozenset()) | {nodes}


def _count_q_values(c, result, *args, **kw):
    c["qstats.q_values.pairs"] += int(np.prod(np.shape(result)[:-1]))


def _count_l2(c, result, *args, **kw):
    c["qstats.conditional_l2_check.calls"] += 1


def _count_mixture(c, result, model, *args, **kw):
    atoms = len(getattr(model, "_probs", ()))
    c["densities.mixture.evals"] += _rows(args[-1]) * atoms


# (module, attribute or Class.method, span name, counter)
TARGETS = (
    ("w2lab.cli", "run_job", _job_span, None),
    ("w2lab.cli", "execute", "cli.execute", None),
    ("w2lab.cli", "emit", "cli.emit", None),
    ("w2lab.config", "load_settings", "config.load_settings", None),
    ("w2lab.densities", "talagrand_chain", "densities.talagrand_chain", None),
    ("w2lab.densities", "_RatioBase.rho_cell_masses", "densities.cell_masses", None),
    ("w2lab.densities", "_RatioBase.tau_cell_masses", "densities.cell_masses", None),
    ("w2lab.densities", "DensityRatioModel.tau_cell_masses", "densities.cell_masses", None),
    ("w2lab.densities", "DensityRatioModel.f", "densities.mixture", _count_mixture),
    ("w2lab.densities", "DensityRatioModel.f_prefix", "densities.mixture", _count_mixture),
    ("w2lab.densities", "DensityRatioModel.f_avg_coord", "densities.mixture", _count_mixture),
    ("w2lab.densities", "density_second_moment_lhs", "densities.second_moment", None),
    ("w2lab.densities", "density_second_moment_rhs", "densities.second_moment", None),
    ("w2lab.densities", "averaged_second_moment", "densities.second_moment", None),
    ("w2lab.densities", "prefix_second_moments", "densities.second_moment", None),
    ("w2lab.transport", "w2_discrete_lp", "transport.w2_discrete_lp", _count_lp),
    ("w2lab.transport", "w2_atomic_1d", "transport.w2_atomic_1d", None),
    ("w2lab.transport", "w2_exact", "transport.w2_exact", _count_exact),
    ("w2lab.transport", "w2_quantile_1d", "transport.w2_quantile_1d", _count_quantile),
    ("w2lab.transport", "sinkhorn_w2", "transport.sinkhorn_w2", _count_sinkhorn),
    ("w2lab.transport", "w2_projection_lower", "transport.w2_projection_lower", None),
    ("w2lab.experiments", "estimate_w2", "experiments.estimate_w2", _count_estimate),
    ("w2lab.experiments", "halfspace_distance", "experiments.halfspace_distance", None),
    ("w2lab.experiments", "expected_lattice_distance",
     "experiments.expected_lattice_distance", None),
    ("w2lab.samplers", "BoundedSampler.draw_sum", "samplers.draw_sum", _count_draw_sum),
    ("w2lab.samplers", "BoundedSampler.draw", "samplers.draw", None),
    ("w2lab.samplers", "validate_sampler", "samplers.validate_sampler", None),
    ("w2lab.gaussmath", "sample_gaussian", "gaussmath.sample_gaussian", _count_gaussian),
    ("w2lab.gaussmath", "gh_nodes_weights", "gaussmath.gh_nodes_weights", _count_gh),
    ("w2lab.qstats", "q_values", "qstats.q_values", _count_q_values),
    ("w2lab.qstats", "estimate_q_moments", "qstats.estimate_q_moments", None),
    ("w2lab.qstats", "conditional_l2_check", "qstats.conditional_l2_check", _count_l2),
    ("w2lab.bounds", "increment_bound_check", "bounds.increment_bound_check", None),
    ("w2lab.bounds", "ank_bound_schedule", "bounds.ank_bound_schedule", None),
)


class Tracer:
    """Per-layer seconds and counts for one process."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.exclusive = defaultdict(float)
        self.counts = defaultdict(int)
        self._child_s = []  # seconds covered by finished children, per open span
        self._depth = defaultdict(int)  # open spans per name (recursion guard)

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(*args) if callable(name) else name
            self._child_s.append(0.0)
            self._depth[span] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.exclusive[span] += elapsed - self._child_s.pop()
                self._depth[span] -= 1
                if not self._depth[span]:
                    self.inclusive[span] += elapsed
                if self._child_s:
                    self._child_s[-1] += elapsed
            if counter is not None:
                counter(self.counts, result, *args, **kwargs)
            return result

        return traced

    def layer_metrics(self) -> dict:
        """Inclusive (``.s``) and self (``.self_s``) seconds plus counts."""
        out = {}
        for span, seconds in self.inclusive.items():
            out[f"{span}.s"] = seconds
            out[f"{span}.self_s"] = self.exclusive[span]
        counts = dict(self.counts)
        # distinct node counts per call: 1.0 means no quadrature rule is rebuilt
        node_counts = counts.pop("_gh_node_counts", ())
        calls = counts.get("gaussmath.gh_nodes_weights.calls", 0)
        out.update(counts)
        out["gaussmath.gh_nodes_weights.unique_frac"] = (
            len(node_counts) / calls if calls else 0.0
        )
        return out


def install(tracer: Tracer):
    """Wrap every target on every binding; return (restore, missing)."""
    for module_name in {t[0] for t in TARGETS}:
        importlib.import_module(module_name)
    modules = [m for n, m in list(sys.modules.items())
               if n == "w2lab" or n.startswith("w2lab.")]
    undo = []
    missing = []
    for module_name, attr, name, counter in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(member) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        if owner_name:  # a method: its class is its one binding
            bindings = [(owner, member)]
        else:
            bindings = [(mod, key) for mod in modules
                        for key, value in vars(mod).items() if value is original]
        wrapper = tracer.wrap(original, name, counter)
        for obj, key in bindings:
            undo.append((obj, key, original))
            setattr(obj, key, wrapper)

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore, missing
