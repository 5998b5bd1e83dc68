"""Span tracing of idikit from the outside, for the traced benchmark run.

The tracer wraps public functions and methods of each idikit module at run
time, so the program itself carries no instrumentation.  Every wrapped call
bumps a counter; a call that crosses from one layer into another also
records a span (name, start, end, parent span).  Calls that stay inside one
layer (``PiecewiseLinearArc.eval`` calling ``TimeMesh.steps``) are counted
but get no span of their own, unless a metric needs their inclusive time:
their time is already self time of the enclosing span of the same layer.
Spans are kept in flat arrays and written out with :func:`save_spans` when
the run ends.

Every wrapped name is patched in each ``idikit`` namespace that holds it
(``from .kernel import kernel_average_w`` binds a second reference in
``bolza`` and ``dynamics``).  A name that no longer exists is reported as
absent instead of failing, so the benchmark survives refactors.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

# (layer, module, attribute path).  The layer names the per-layer metrics.
SPECS = [
    ("cli", "idikit.cli", "main"),
    ("cli", "idikit.cli", "run_convergence_study"),
    ("cli", "idikit.cli", "run_bound_audit"),
    ("config", "idikit.config", "load_config"),
    ("config", "idikit.catalog", "get"),
    ("mesh", "idikit.mesh", "TimeMesh.steps"),
    ("mesh", "idikit.mesh", "TimeMesh.cell_index"),
    ("mesh", "idikit.mesh", "TimeMesh.dense_samples"),
    ("mesh", "idikit.mesh", "PiecewiseLinearArc.eval"),
    ("mesh", "idikit.mesh", "PiecewiseLinearArc.derivative"),
    ("mesh", "idikit.mesh", "PiecewiseConstantArc.eval"),
    ("mesh", "idikit.mesh", "interval_gauss_points"),
    ("mesh", "idikit.mesh", "cell_gauss_points"),
    ("mesh", "idikit.mesh", "average_operator"),
    ("mesh", "idikit.mesh", "l2_distance"),
    ("mesh", "idikit.mesh", "sup_distance"),
    ("mesh", "idikit.mesh", "w12_distance"),
    ("kernel", "idikit.kernel", "VolterraKernel.eval"),
    ("kernel", "idikit.kernel", "VolterraKernel.jac"),
    ("kernel", "idikit.kernel", "VolterraKernel.eval_batch_s"),
    ("kernel", "idikit.kernel", "VolterraKernel.jac_batch_s"),
    ("kernel", "idikit.kernel", "VolterraKernel.jac_batch_t"),
    ("kernel", "idikit.kernel", "kernel_average_w"),
    ("kernel", "idikit.kernel", "assemble_w"),
    ("kernel", "idikit.kernel", "xi_tensor"),
    ("kernel", "idikit.kernel", "mu_tensor"),
    ("kernel", "idikit.kernel", "theta_vector"),
    ("kernel", "idikit.kernel", "assemble_tensors"),
    ("kernel", "idikit.kernel", "continuous_accumulator"),
    ("kernel", "idikit.kernel", "volterra_adjoint_integral"),
    ("problem", "idikit.problem", "CallableArc.eval"),
    ("problem", "idikit.problem", "CallableArc.derivative"),
    ("problem", "idikit.problem", "ProblemData.state_grid"),
    ("problem", "idikit.problem", "InflatedSet.distance"),
    ("problem", "idikit.problem", "InflatedSet.project"),
    ("problem", "idikit.problem", "InflatedSet.normal_cone_residual"),
    ("setvalued", "idikit.setvalued", "Singleton.center"),
    ("setvalued", "idikit.setvalued", "Singleton.jacobian"),
    ("setvalued", "idikit.setvalued", "Singleton.project_body"),
    ("setvalued", "idikit.setvalued", "BallOffset.project_body"),
    ("setvalued", "idikit.setvalued", "PolytopeOffset.project_body"),
    ("setvalued", "idikit.setvalued", "project_convex_hull"),
    ("setvalued", "idikit.setvalued", "distance_and_projection"),
    ("setvalued", "idikit.setvalued", "graph_normal_cone"),
    ("setvalued", "idikit.setvalued", "GraphNormalCone.project_u"),
    ("setvalued", "idikit.setvalued", "GraphNormalCone.pair_distance"),
    ("setvalued", "idikit.setvalued", "averaged_modulus"),
    ("dynamics", "idikit.dynamics", "simulate"),
    ("dynamics", "idikit.dynamics", "estimate_tau"),
    ("dynamics", "idikit.dynamics", "approximate_arc"),
    ("dynamics", "idikit.dynamics", "feasibility_residual"),
    ("dynamics", "idikit.dynamics", "DiscreteTrajectory.arc"),
    ("bolza", "idikit.bolza", "build_discrete_problem"),
    ("bolza", "idikit.bolza", "forward_trajectory"),
    ("bolza", "idikit.bolza", "cost_breakdown"),
    ("bolza", "idikit.bolza", "cost_Jk"),
    ("bolza", "idikit.bolza", "cost_gradient"),
    ("bolza", "idikit.bolza", "solve_Pk"),
    ("conditions", "idikit.conditions", "adjoint_solve_smooth"),
    ("conditions", "idikit.conditions", "recover_multipliers"),
    ("conditions", "idikit.conditions", "euler_lagrange_residual"),
    ("conditions", "idikit.conditions", "transversality_residual"),
    ("conditions", "idikit.conditions", "volterra_residual"),
    ("conditions", "idikit.conditions", "nontriviality_value"),
    ("conditions", "idikit.conditions", "adjoint_norm_bound"),
    ("conditions", "idikit.conditions", "build_condition_report"),
    ("gronwall", "idikit.gronwall", "discrete_gronwall_forward"),
    ("gronwall", "idikit.gronwall", "discrete_gronwall_backward"),
    ("gronwall", "idikit.gronwall", "continuous_gronwall"),
    ("gronwall", "idikit.gronwall", "apriori_bounds"),
]

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class _Distinct:
    """Counts calls and the distinct inputs among them, deterministically."""

    def __init__(self):
        self.calls = 0
        self.keys = set()
        self._pinned = {}  # id -> (object, index); pinning keeps ids unique

    def identity(self, obj) -> int:
        entry = self._pinned.get(id(obj))
        if entry is None:
            entry = self._pinned[id(obj)] = (obj, len(self._pinned))
        return entry[1]

    def add(self, key):
        self.calls += 1
        self.keys.add(key)

    @property
    def ratio(self) -> float:
        return len(self.keys) / self.calls if self.calls else 0.0


def _arc_key(distinct: _Distinct, arc):
    # piecewise arcs are rebuilt from the same nodal values (traj.arc()), so
    # they are keyed by content; closed-form arcs by (pinned) identity
    values = getattr(arc, "values", None)
    mesh = getattr(arc, "mesh", None)
    if values is not None and mesh is not None:
        return (type(arc).__name__, mesh.nodes.tobytes(), values.tobytes())
    return ("object", distinct.identity(arc))


class Tracer:
    """Installs counting/span wrappers on idikit and restores the originals."""

    def __init__(self, specs=SPECS, clock=time.perf_counter):
        self.specs = list(specs)
        self.clock = clock
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.absent: list[str] = []
        self._patches = []  # (owner, attribute, original)
        self.reset()

    # --- recording ------------------------------------------------------
    def reset(self):
        """Drop all spans and counters (called between sweeps)."""
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("l")
        self.parent = array("l")
        self.calls = Counter()
        self.events = Counter()
        self.tensors = _Distinct()
        self.accumulators = _Distinct()
        self._stack = []  # (name index, layer, nearest span index)

    def _wrap(self, fn, name, layer, hook):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        tracer = self
        timed = name in TIMED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack:
                parent_nid, parent_layer, parent_span = stack[-1]
                parent_name = tracer.names[parent_nid]
            else:
                parent_layer, parent_span, parent_name = None, -1, None
            tracer.calls[name] += 1
            if parent_layer == layer and not timed:  # inside its layer: count
                stack.append((nid, layer, parent_span))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
            else:
                idx = len(tracer.start)
                tracer.name_id.append(nid)
                tracer.parent.append(parent_span)
                tracer.end.append(0.0)
                stack.append((nid, layer, idx))
                tracer.start.append(tracer.clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end[idx] = tracer.clock()
                    stack.pop()
            if hook is not None:
                hook(tracer, parent_name, args, kwargs, result)
            return result

        return wrapper

    # --- installing -------------------------------------------------------
    def install(self):
        """Wrap every spec that exists; record the others as absent."""
        self.absent = []
        self.names, self.layer_of = [], []
        wrapped = {}  # id(original) -> wrapper, for aliases such as __call__
        for layer, module_name, path in self.specs:
            name = f"{module_name.rpartition('.')[2]}.{path}"
            try:
                module = importlib.import_module(module_name)
                owner, attr, original = _resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if id(original) in wrapped:
                continue
            if isinstance(original, property):
                new = property(self._wrap(original.fget, name, layer,
                                          HOOKS.get(name)))
            else:
                new = self._wrap(original, name, layer, HOOKS.get(name))
            wrapped[id(original)] = new
            self._patch_everywhere(owner, attr, original, new)
        return self

    def _patch_everywhere(self, owner, attr, original, new):
        if isinstance(owner, type):
            # every alias in the class body (``__call__ = eval``)
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, new)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "idikit"
                                   or mod_name.startswith("idikit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, new)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- results ----------------------------------------------------------
    def self_times(self) -> dict:
        """Self time per layer: span durations minus their children's."""
        return self_time_by_layer(self.start, self.end, self.parent,
                                  [self.layer_of[i] for i in self.name_id])


def _resolve(module, path):
    """(owner, attribute, original) for 'func' or 'Class.method'."""
    parts = path.split(".")
    if len(parts) == 1:
        return module, path, getattr(module, path)
    cls = getattr(module, parts[0])
    for klass in cls.__mro__:  # patch where the method is defined
        if parts[1] in vars(klass):
            return klass, parts[1], vars(klass)[parts[1]]
    raise AttributeError(path)


def self_time_by_layer(start, end, parent, layers) -> dict:
    """Sum, per layer, of each span's duration minus its children's.

    Spans come from one thread and nest properly, so the children of a span
    cover disjoint parts of it and their durations can simply be summed.
    """
    n = len(start)
    child = [0.0] * n
    dur = [end[i] - start[i] for i in range(n)]
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    out = {}
    for i in range(n):
        out[layers[i]] = out.get(layers[i], 0.0) + dur[i] - child[i]
    return out


def inclusive_time(tracer: Tracer, name: str) -> float:
    """Total duration of the outermost spans of one wrapped name."""
    if name not in tracer.names:
        return 0.0
    nids = {i for i, n in enumerate(tracer.names) if n == name}
    total = 0.0
    for i in range(len(tracer.start)):
        if tracer.name_id[i] in nids:
            p = tracer.parent[i]
            if p < 0 or tracer.name_id[p] not in nids:
                total += tracer.end[i] - tracer.start[i]
    return total


def save_spans(path, sweeps):
    """Write the spans of every traced sweep to one ``.npz`` file.

    ``sweeps`` holds (names, start, end, name_id, parent) per sweep; a
    parent of -1 marks a root span.
    """
    import numpy as np  # loaded by idikit already

    names = sorted({n for sweep in sweeps for n in sweep[0]})
    index = {n: i for i, n in enumerate(names)}
    cols = {"sweep": [], "name_id": [], "start": [], "end": [], "parent": []}
    for k, (sweep_names, start, end, name_id, parent) in enumerate(sweeps):
        remap = np.array([index[n] for n in sweep_names], dtype=np.int32)
        cols["sweep"].append(np.full(len(start), k, dtype=np.int32))
        cols["name_id"].append(remap[np.asarray(name_id, dtype=np.int64)])
        cols["start"].append(np.asarray(start))
        cols["end"].append(np.asarray(end))
        cols["parent"].append(np.asarray(parent, dtype=np.int32))
    np.savez(path, names=np.array(names),
             **{k: np.concatenate(v) for k, v in cols.items()})


# --- hooks: counters that need the arguments, the caller or the result -------

def _kernel_points(event, size_of):
    def hook(tracer, parent_name, args, kwargs, result):
        if parent_name is not None and parent_name.startswith("kernel.VolterraKernel."):
            return  # counted at the outermost kernel call
        if not args[0].is_zero:
            tracer.events[event] += size_of(args, kwargs)
    return hook


def _point(args, kwargs):
    return 1


def _batch_s(args, kwargs):
    return len(_arg(args, kwargs, 2, "s"))


def _batch_t(args, kwargs):
    return len(_arg(args, kwargs, 1, "t"))


def _tensor_hook(tracer, parent_name, args, kwargs, result):
    mesh = _arg(args, kwargs, 1, "mesh")
    states = _arg(args, kwargs, 2, "nodal_states")
    import numpy as np  # loaded by idikit already
    tracer.tensors.add((mesh.nodes.tobytes(),
                        np.ascontiguousarray(states, dtype=float).tobytes()))


def _accumulator_hook(tracer, parent_name, args, kwargs, result):
    arc = _arg(args, kwargs, 1, "arc")
    t = float(_arg(args, kwargs, 2, "t"))
    tracer.accumulators.add((_arc_key(tracer.accumulators, arc), t))


def _forward_hook(tracer, parent_name, args, kwargs, result):
    if parent_name == "bolza.solve_Pk":  # a line-search trial
        tracer.events["trials"] += 1


def _gradient_hook(tracer, parent_name, args, kwargs, result):
    traj = args[3] if len(args) > 3 else kwargs.get("traj")
    if parent_name == "bolza.solve_Pk" and traj is None:
        tracer.events["penalty_stages"] += 1  # each stage starts without a trajectory


def _solve_hook(tracer, parent_name, args, kwargs, result):
    log = result[2]
    tracer.events["iterations"] += int(log.iterations)
    tracer.events["stationary"] += int(bool(log.stationary))


HOOKS = {
    "kernel.VolterraKernel.eval": _kernel_points("g_points", _point),
    "kernel.VolterraKernel.jac": _kernel_points("jac_points", _point),
    "kernel.VolterraKernel.eval_batch_s": _kernel_points("g_points", _batch_s),
    "kernel.VolterraKernel.jac_batch_s": _kernel_points("jac_points", _batch_s),
    "kernel.VolterraKernel.jac_batch_t": _kernel_points("jac_points", _batch_t),
    "kernel.assemble_tensors": _tensor_hook,
    "kernel.continuous_accumulator": _accumulator_hook,
    "bolza.forward_trajectory": _forward_hook,
    "bolza.cost_gradient": _gradient_hook,
    "bolza.solve_Pk": _solve_hook,
}


# --- per-layer metrics --------------------------------------------------------

# metric -> (unit, how, wrapped names it needs).  "calls" sums the calls of
# the names, "inclusive" is the time of the name's outermost spans, "self" is
# the layer's self time; the other metrics are computed in layer_metrics.
# A metric is absent when any name it needs is.
PER_LAYER = {
    "kernel.g_points": ("count", "", ["kernel.VolterraKernel.eval",
                                      "kernel.VolterraKernel.eval_batch_s"]),
    "kernel.jac_points": ("count", "", ["kernel.VolterraKernel.jac",
                                        "kernel.VolterraKernel.jac_batch_s",
                                        "kernel.VolterraKernel.jac_batch_t"]),
    "kernel.average_w_calls": ("count", "calls", ["kernel.kernel_average_w"]),
    "kernel.tensor_calls": ("count", "calls", ["kernel.assemble_tensors"]),
    "kernel.tensor_unique_ratio": ("ratio", "", ["kernel.assemble_tensors"]),
    "kernel.accumulator_calls": ("count", "calls", ["kernel.continuous_accumulator"]),
    "kernel.accumulator_unique_ratio": ("ratio", "", ["kernel.continuous_accumulator"]),
    "kernel.adjoint_integral_calls": ("count", "calls",
                                      ["kernel.volterra_adjoint_integral"]),
    "kernel.self_s": ("s", "self", []),
    "mesh.arc_evals": ("count", "calls", ["mesh.PiecewiseLinearArc.eval",
                                          "mesh.PiecewiseLinearArc.derivative",
                                          "mesh.PiecewiseConstantArc.eval"]),
    "mesh.steps_calls": ("count", "calls", ["mesh.TimeMesh.steps"]),
    "mesh.self_s": ("s", "self", []),
    "problem.ref_evals": ("count", "calls", ["problem.CallableArc.eval",
                                             "problem.CallableArc.derivative"]),
    "problem.self_s": ("s", "self", []),
    "setvalued.projections": ("count", "calls",
                              ["setvalued.distance_and_projection",
                               "setvalued.Singleton.project_body",
                               "setvalued.BallOffset.project_body",
                               "setvalued.PolytopeOffset.project_body"]),
    "setvalued.hull_projections": ("count", "calls", ["setvalued.project_convex_hull"]),
    "setvalued.normal_cones": ("count", "calls", ["setvalued.graph_normal_cone"]),
    "setvalued.drift_evals": ("count", "calls", ["setvalued.Singleton.center"]),
    "setvalued.modulus_s": ("s", "inclusive", ["setvalued.averaged_modulus"]),
    "setvalued.self_s": ("s", "self", []),
    "dynamics.approximate_calls": ("count", "calls", ["dynamics.approximate_arc"]),
    "dynamics.simulate_calls": ("count", "calls", ["dynamics.simulate"]),
    "dynamics.tau_s": ("s", "inclusive", ["dynamics.estimate_tau"]),
    "dynamics.self_s": ("s", "self", []),
    "bolza.forward_calls": ("count", "calls", ["bolza.forward_trajectory"]),
    "bolza.gradient_calls": ("count", "calls", ["bolza.cost_gradient"]),
    "bolza.cost_calls": ("count", "calls", ["bolza.cost_Jk"]),
    "bolza.iterations": ("count", "", ["bolza.solve_Pk"]),
    "bolza.trials": ("count", "", ["bolza.solve_Pk", "bolza.forward_trajectory"]),
    "bolza.accept_ratio": ("ratio", "", ["bolza.solve_Pk", "bolza.forward_trajectory"]),
    "bolza.penalty_stages": ("count", "", ["bolza.solve_Pk", "bolza.cost_gradient"]),
    "bolza.stationary_frac": ("ratio", "", ["bolza.solve_Pk"]),
    "bolza.self_s": ("s", "self", []),
    "conditions.adjoint_calls": ("count", "calls", ["conditions.adjoint_solve_smooth"]),
    "conditions.el_calls": ("count", "calls", ["conditions.euler_lagrange_residual"]),
    "conditions.volterra_calls": ("count", "calls", ["conditions.volterra_residual"]),
    "conditions.self_s": ("s", "self", []),
    "gronwall.calls": ("count", "calls", ["gronwall.discrete_gronwall_forward",
                                          "gronwall.discrete_gronwall_backward",
                                          "gronwall.continuous_gronwall",
                                          "gronwall.apriori_bounds"]),
    "gronwall.self_s": ("s", "self", []),
    "cli.self_s": ("s", "self", ["cli.main"]),
    "cli.audit_instances": ("count", "", []),
    "config.load_s": ("s", "inclusive", ["config.load_config"]),
    "trace.overhead_s": ("s", "", []),
    "trace.absent": ("count", "", []),
}

# names whose inclusive time is a metric: spanned even inside their layer
TIMED = {needs[0] for _, how, needs in PER_LAYER.values() if how == "inclusive"}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced sweep, from its spans and counters.

    ``cli.audit_instances``, ``trace.overhead_s`` and ``trace.absent`` are
    filled in by the caller, which sees the outputs and the untraced sweeps.
    """
    ev = tracer.events
    self_s = tracer.self_times()
    values = {}
    for metric, (_, how, needs) in PER_LAYER.items():
        if how == "calls":
            values[metric] = sum(tracer.calls[n] for n in needs)
        elif how == "inclusive":
            values[metric] = inclusive_time(tracer, needs[0])
        elif how == "self":
            values[metric] = self_s.get(metric.partition(".")[0], 0.0)
    solves = tracer.calls["bolza.solve_Pk"]
    values.update({
        "kernel.g_points": ev["g_points"],
        "kernel.jac_points": ev["jac_points"],
        "kernel.tensor_unique_ratio": tracer.tensors.ratio,
        "kernel.accumulator_unique_ratio": tracer.accumulators.ratio,
        "bolza.iterations": ev["iterations"],
        "bolza.trials": ev["trials"],
        "bolza.accept_ratio": ev["iterations"] / ev["trials"] if ev["trials"] else 0.0,
        "bolza.penalty_stages": ev["penalty_stages"],
        "bolza.stationary_frac": ev["stationary"] / solves if solves else 0.0,
    })
    return values


def absent_metrics(absent_names) -> list:
    """Per-layer metrics that depend on a wrapped name that no longer exists."""
    absent = set(absent_names)
    return [m for m, (_, _, needs) in PER_LAYER.items()
            if any(n in absent for n in needs)]
