"""Experiment configuration: INI grammar, validation, problem construction.

The file format is plain configparser INI (sections of key = value lines).
Unknown sections or keys, missing required fields and ill-typed values all
raise :class:`ConfigError` naming the offending field.  See the README for
the full grammar.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from . import catalog
from .catalog import CatalogEntry
from .dynamics import POLICIES
from .kernel import KernelError
from .problem import BallSet, BoxSet, PointSet, WholeSpace

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]


class ConfigError(ValueError):
    pass


_KNOWN_SECTIONS = {"problem", "meshes", "solver", "run", "reference", "audit"}

_KNOWN_KEYS = {
    "problem": {"name", "inline", "dim", "variant", "radius", "vertices",
                "drift", "drift_scale", "kernel", "kernel_rate", "x0",
                "horizon", "epsilon", "m_F", "l_F", "beta", "alpha",
                "state_box_lo", "state_box_hi", "terminal", "terminal_target",
                "running", "running_x_weight", "running_v_weight", "omega",
                "omega_center", "omega_radius", "omega_point", "omega_lo",
                "omega_hi"},
    "meshes": {"k"},
    "solver": {"tol_stat", "max_iter", "endpoint_tol"},
    "run": {"seed", "output_dir", "label"},
    "reference": {"policy", "k", "constant_deviation", "feas_tol"},
    "audit": {"n_instances", "policies", "mesh_k"},
}


@dataclass(eq=False)
class ExperimentConfig:
    """One parsed experiment file: the problem, the meshes, the solver
    tolerances, the ``reference_`` fields (how a reference the entry lacks
    is simulated, and the residual tolerance of any reference), the audit's
    sizes and policies, and where the run writes.  ``snapshot`` holds every
    section as read, for the run record."""

    entry: CatalogEntry
    mesh_ks: List[int]
    seed: int
    output_dir: str
    label: str
    tol_stat: float
    max_iter: int
    endpoint_tol: float
    reference_policy: str
    reference_k: int
    reference_constant: Optional[np.ndarray]
    reference_feas_tol: Optional[float]
    audit_instances: int
    audit_policies: List[str]
    audit_mesh_k: int
    snapshot: dict = field(default_factory=dict)


def _vector(raw: str, field_name: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in raw.replace(",", " ").split()])
    except ValueError:
        raise ConfigError(f"field '{field_name}': expected numbers, got {raw!r}")


def _get(parser, section, key, cast, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"missing required field '{section}.{key}'")
        return default
    raw = parser.get(section, key)
    try:
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"field '{section}.{key}': cannot parse {raw!r}")


def _number(parser, key, default=None, required=False):
    """A float field of [problem]; a non-finite number is rejected."""
    value = _get(parser, "problem", key, float, required=required)
    if value is None:
        return default
    if not math.isfinite(value):
        raise ConfigError(f"field 'problem.{key}': must be finite, got {value!r}")
    return value


def _count(parser, section, key, default, low):
    """An integer field that must be at least ``low``."""
    value = _get(parser, section, key, int, default=default)
    if value < low:
        raise ConfigError(f"field '{section}.{key}': must be >= {low}, got {value!r}")
    return value


def _tolerance(parser, section, key, default, zero_ok=False):
    """A float field that must be finite and > 0, or >= 0 where ``zero_ok``."""
    value = _get(parser, section, key, float, default=default)
    if value is not None and not (math.isfinite(value)
                                  and (value >= 0 if zero_ok else value > 0)):
        raise ConfigError(f"field '{section}.{key}': must be finite and "
                          f"{'>=' if zero_ok else '>'} 0, got {value!r}")
    return value


def _policy(name: str, field_name: str) -> str:
    if name not in POLICIES:
        raise ConfigError(f"field '{field_name}': unknown policy {name!r}; "
                          f"pick one of {' '.join(POLICIES)}")
    return name


def _horizon(horizon: float) -> float:
    if not 0 < horizon < math.inf:
        raise ConfigError(f"field 'problem.horizon': must be positive and "
                          f"finite, got {horizon!r}")
    return horizon


def _corner(parser, key: str, dim: int) -> np.ndarray:
    """A corner of the state box the constants are certified over: ``dim``
    finite numbers."""
    raw = _get(parser, "problem", key, str, required=True)
    corner = _vector(raw, f"problem.{key}")
    if corner.size != dim:
        raise ConfigError(f"field 'problem.{key}': dimension mismatch")
    if not np.isfinite(corner).all():
        raise ConfigError(f"field 'problem.{key}': must be finite, got {raw!r}")
    return corner


def _build_inline_problem(parser) -> CatalogEntry:
    """The parts of an inline [problem], parsed and checked, built as the
    catalog builds its problems."""
    sec = "problem"
    name = _get(parser, sec, "name", str, required=True)
    dim = _get(parser, sec, "dim", int, required=True)
    variant = _get(parser, sec, "variant", str, required=True)
    drift = _get(parser, sec, "drift", str, default="zero")
    scale = _number(parser, "drift_scale", default=0.0)
    if drift not in catalog._DRIFTS:
        raise ConfigError(f"field 'problem.drift': unknown drift {drift!r}")
    needs = catalog._DRIFTS[drift][0]
    if needs not in (None, dim):
        raise ConfigError(f"field 'problem.drift': {drift} needs dim = {needs}")

    if variant == "singleton":
        body = ()
    elif variant == "ball":
        body = (_number(parser, "radius", required=True),)
    elif variant == "polytope":
        raw = _get(parser, sec, "vertices", str, required=True)
        rows = [r for r in raw.split(";") if r.strip()]
        verts = [_vector(r, "problem.vertices") for r in rows]
        if not verts or any(v.size != dim for v in verts):
            raise ConfigError("field 'problem.vertices': dimension mismatch")
        body = (np.array(verts),)
    else:
        raise ConfigError(f"field 'problem.variant': unknown variant {variant!r}")

    kernel = _get(parser, sec, "kernel", str, default="none")
    if kernel not in catalog._KERNELS:
        raise ConfigError(f"field 'problem.kernel': unknown kernel {kernel!r}")
    rate = (_number(parser, "kernel_rate", default=1.0)
            if kernel == "identity_decay" else None)

    x0 = _vector(_get(parser, sec, "x0", str, required=True), "problem.x0")
    if x0.size != dim:
        raise ConfigError("field 'problem.x0': dimension mismatch")
    horizon = _horizon(_get(parser, sec, "horizon", float, required=True))
    eps = _number(parser, "epsilon", default=1.0)

    lo, hi = _corner(parser, "state_box_lo", dim), _corner(parser, "state_box_hi", dim)
    if np.any(lo > hi):
        raise ConfigError("field 'problem.state_box_hi': must be >= "
                          "problem.state_box_lo in every entry")
    declared = {key: value for key in ("m_F", "l_F", "beta", "alpha")
                if (value := _number(parser, key)) is not None}

    terminal = _get(parser, sec, "terminal", str, default="none")
    if terminal == "none":
        target = None
    elif terminal == "quadratic":
        target = _vector(
            _get(parser, sec, "terminal_target", str, default=" ".join(["0"] * dim)),
            "problem.terminal_target")
    else:
        raise ConfigError(f"field 'problem.terminal': unknown cost {terminal!r}")

    running = _get(parser, sec, "running", str, default="none")
    if running == "none":
        weights = None
    elif running == "quadratic":
        weights = (_number(parser, "running_x_weight", default=1.0),
                   _number(parser, "running_v_weight", default=1.0))
    else:
        raise ConfigError(f"field 'problem.running': unknown cost {running!r}")

    omega_kind = _get(parser, sec, "omega", str, default="free")
    if omega_kind == "free":
        omega = WholeSpace()
    elif omega_kind == "ball":
        center = _vector(_get(parser, sec, "omega_center", str, required=True),
                         "problem.omega_center")
        omega = BallSet(center, _number(parser, "omega_radius", required=True))
    elif omega_kind == "point":
        omega = PointSet(_vector(_get(parser, sec, "omega_point", str,
                                      required=True), "problem.omega_point"))
    elif omega_kind == "box":
        omega = BoxSet(_vector(_get(parser, sec, "omega_lo", str, required=True),
                               "problem.omega_lo"),
                       _vector(_get(parser, sec, "omega_hi", str, required=True),
                               "problem.omega_hi"))
    else:
        raise ConfigError(f"field 'problem.omega': unknown shape {omega_kind!r}")

    try:
        problem = catalog._problem(
            name, x0, horizon, (lo, hi), variant=variant, body=body,
            drift=drift, drift_scale=scale, kernel=kernel, kernel_rate=rate,
            terminal_target=target, running_weights=weights, omega=omega,
            epsilon=eps, **declared)
    except KernelError as exc:
        raise ConfigError(f"field 'problem.kernel_rate': {exc}") from None
    return CatalogEntry(problem, None)


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # keys are case-sensitive (m_F vs m_f)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    for section in parser.sections():
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown section '[{section}]'")
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown field '{section}.{key}'")

    if not parser.has_section("problem"):
        raise ConfigError("missing required section '[problem]'")
    inline = _get(parser, "problem", "inline", bool, default=False)
    name = _get(parser, "problem", "name", str, required=True)
    if inline:
        entry = _build_inline_problem(parser)
    else:
        if name not in catalog.names():
            raise ConfigError(
                f"field 'problem.name': unknown catalog problem {name!r}; "
                f"known: {catalog.names()} (set inline = true for custom)")
        overrides = {}
        horizon = _get(parser, "problem", "horizon", float)
        if horizon is not None:
            overrides["T"] = _horizon(horizon)
        entry = catalog.get(name, **overrides)
        m_f = _number(parser, "m_F")
        if m_f is not None:  # declared-constant override, e.g. for audits
            entry = CatalogEntry(replace(entry.problem, m_F=m_f),
                                 entry.reference)

    ks_raw = _get(parser, "meshes", "k", str, default="20 40 80")
    try:
        ks = [int(tok) for tok in ks_raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"field 'meshes.k': expected integers, got {ks_raw!r}")
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])) or ks[0] < 1:
        raise ConfigError("field 'meshes.k': need a strictly increasing list")

    const_raw = _get(parser, "reference", "constant_deviation", str)
    snapshot = {s: dict(parser.items(s)) for s in parser.sections()}
    policies = _get(parser, "audit", "policies", str,
                    default=" ".join(POLICIES)).replace(",", " ").split()
    if not policies:
        raise ConfigError("field 'audit.policies': needs at least one policy")

    return ExperimentConfig(
        entry=entry,
        mesh_ks=ks,
        seed=_get(parser, "run", "seed", int, default=0),
        output_dir=_get(parser, "run", "output_dir", str, default="idikit_out"),
        label=_get(parser, "run", "label", str, default=name),
        tol_stat=_tolerance(parser, "solver", "tol_stat", 1e-7),
        max_iter=_count(parser, "solver", "max_iter", 20000, 1),
        endpoint_tol=_tolerance(parser, "solver", "endpoint_tol", 1e-6),
        reference_policy=_policy(_get(parser, "reference", "policy", str,
                                      default="min_norm"), "reference.policy"),
        reference_k=_count(parser, "reference", "k", 0, 0),
        reference_constant=None if const_raw is None
        else _vector(const_raw, "reference.constant_deviation"),
        reference_feas_tol=_tolerance(parser, "reference", "feas_tol", None,
                                      zero_ok=True),
        audit_instances=_count(parser, "audit", "n_instances", 1000, 1),
        audit_policies=[_policy(p, "audit.policies") for p in policies],
        audit_mesh_k=_count(parser, "audit", "mesh_k", 24, 1),
        snapshot=snapshot,
    )
