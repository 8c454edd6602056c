"""Problem data model, ingestion, validation, and group-coupling diagnostics.

The scattering matrix convention throughout is sigma_s[g][g'] =
cross section for scattering from group g' into group g (row = destination).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

C_TOLERANCE = 1e-4
C_UPPER_SLACK = 1e-12


class ProblemError(ValueError):
    """Raised for unparsable, inconsistent, or unphysical problem input."""


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Fixed-source multigroup slab problem, immutable and checked on
    construction however it is made, by the rules of a config file (bad
    input raises ProblemError).  Counts become ints, width a float, and
    the arrays read-only float copies, which neither alias nor freeze the
    caller's.  Specs compare and hash by identity."""

    G: int
    sigma_t: np.ndarray        # (G,)   total cross section, > 0
    sigma_s: np.ndarray        # (G,G)  [g][g'] = sigma_{s, g' -> g}, >= 0
    Q: np.ndarray              # (G,)   external source density, >= 0
    width: float
    n_cells: int
    n_half: int
    name: str = ""

    def __post_init__(self):
        for field, what in (("G", "group count"), ("n_cells", "cell count"),
                            ("n_half", "quad_half_order")):
            object.__setattr__(self, field,
                               whole_count(getattr(self, field), what))
        for field, what in (("sigma_t", "sigma_t"), ("sigma_s", "sigma_s"),
                            ("Q", "source"), ("width", "slab width")):
            value = getattr(self, field)
            _check_numbers(value, what, nested=field != "width")
            try:
                a = np.array(value, dtype=float, order="C")
            except (ValueError, OverflowError) as err:
                raise ProblemError(f"malformed {what}: {err}") from err
            if not np.isfinite(a).all():
                raise ProblemError(f"{what} must be finite")
            a.setflags(write=False)
            object.__setattr__(self, field, a)
        object.__setattr__(self, "width", float(self.width))
        G, sigma_t, sigma_s, Q = self.G, self.sigma_t, self.sigma_s, self.Q
        if sigma_t.shape != (G,):
            raise ProblemError(
                f"sigma_t must have {G} entries, got {sigma_t.shape}")
        if sigma_s.shape != (G, G):
            raise ProblemError(
                f"sigma_s must be {G}x{G}, got {sigma_s.shape}")
        if Q.shape != (G,):
            raise ProblemError(f"source must have {G} entries, got {Q.shape}")
        if np.any(sigma_t <= 0):
            raise ProblemError("sigma_t entries must be positive")
        if np.any(sigma_s < 0):
            raise ProblemError("negative scattering cross section")
        if np.any(Q < 0):
            raise ProblemError("negative external source")
        if self.width <= 0:
            raise ProblemError("slab width must be positive")
        c = self.scattering_ratio()
        if np.any(c > 1.0 + C_UPPER_SLACK):
            g = int(np.argmax(c))
            raise ProblemError(
                f"scattering ratio c_{g + 1} = {c[g]:.8f} exceeds 1 "
                "(supercritical medium)")

    def scattering_ratio(self) -> np.ndarray:
        """c_g = (total scattering out of g) / sigma_t,g (column sums)."""
        return self.sigma_s.sum(axis=0) / self.sigma_t

    def sigma_a(self) -> np.ndarray:
        """Absorption sigma_a,g = sigma_t,g - sum_g'' sigma_{s, g -> g''}."""
        return self.sigma_t - self.sigma_s.sum(axis=0)


def whole_count(value, what: str, error=ProblemError) -> int:
    """A whole-number count >= 1 as an int; a boolean, a string, a
    fraction (not truncated) or a count below 1 raises `error`."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, float) and value.is_integer()):
        raise error(f"{what} must be a whole number, got {value!r}")
    if value < 1:
        raise error(f"{what} must be >= 1")
    return int(value)


def _check_numbers(value, what: str, nested: bool = True) -> None:
    """Reject all but real numbers and, if nested, lists and tuples of
    them and integer or float arrays: numpy reads True as 1, "0.5" as 0.5."""
    if nested and isinstance(value, (list, tuple)):
        for item in value:
            _check_numbers(item, what)
        return
    if isinstance(value, (np.ndarray, np.generic)):
        real = (nested or value.ndim == 0) and value.dtype.kind in "iuf"
    else:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not real:
        raise ProblemError(f"{what} must hold JSON numbers, got {value!r}")


_CONFIG_KEYS = ("groups", "sigma_t", "sigma_s", "source", "width", "cells",
                "quad_half_order")
_BC_KEYS = ("bc_left", "bc_right")


def problem_from_dict(doc: dict, name: str = "") -> ProblemSpec:
    missing = [k for k in _CONFIG_KEYS if k not in doc]
    if missing:
        raise ProblemError(f"missing config keys: {', '.join(missing)}")
    # a misspelt optional key would otherwise run another problem silently
    unknown = [k for k in doc if k not in _CONFIG_KEYS + _BC_KEYS]
    if unknown:
        raise ProblemError("unknown config keys: "
                           + ", ".join(map(repr, unknown)))
    for side in ("left", "right"):
        bc = doc.get(f"bc_{side}", "vacuum")
        if bc != "vacuum":
            raise ProblemError(
                f"unsupported {side} boundary condition {bc!r} (vacuum only)")
    return ProblemSpec(G=doc["groups"], sigma_t=doc["sigma_t"],
                       sigma_s=doc["sigma_s"], Q=doc["source"],
                       width=doc["width"], n_cells=doc["cells"],
                       n_half=doc["quad_half_order"], name=name)


def load_problem(source: str | Path) -> ProblemSpec:
    """Load a problem from a JSON config file (keys documented in README)."""
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as err:
        raise ProblemError(f"cannot read config {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ProblemError(f"config parse failure: {err}") from err
    if not isinstance(doc, dict):
        raise ProblemError("config must be a JSON object")
    return problem_from_dict(doc, name=path.stem)


# ---------------------------------------------------------------------------
# Built-in problems.  Compiled-in constants so the test suite is hermetic.
#
# test1: 10-group slab, width 32, 128 cells, double S8, Q_g = 1, vacuum.
# Row 6 of the scattering matrix is ingested shifted one column right
# relative to the printed source data; with the shift every column sum
# matches sigma_t,g * c_g to < 1e-4 and the published connection-strength
# entries are reproduced (validate_scattering enforces this).
# ---------------------------------------------------------------------------

_TEST1_SIGMA_T = [2.49756, 2.01650, 1.51992, 1.67388, 2.36661,
                  1.50008, 2.37543, 2.36241, 2.04640, 1.59740]

_TEST1_C = [0.979581, 0.944816, 0.952295, 0.926035, 0.978471,
            0.9, 0.987210, 0.9999, 0.904252, 0.966192]

_TEST1_SIGMA_S = [
    [0.835282, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0.401686, 0.566521, 0, 0, 0, 0, 0, 0, 0, 0],
    [0.404298, 0.569454, 0.420634, 0, 0, 0, 0, 0, 0, 0],
    [0.498922, 0.264139, 0.179242, 0.0828011, 0, 0, 0, 0, 0, 0],
    [0.306376, 0.0657747, 0.148397, 0.307318, 1.30088, 0, 0, 0, 0, 0],
    [0, 0.439338, 0.362807, 0.564376, 0.456018, 0.0715262, 0, 0, 0, 0],
    [0, 0, 0.336331, 0.122044, 0.259295, 0.623241, 0.812409, 1.28728,
     0.278371, 0.301517],
    [0, 0, 0, 0.473528, 0.0566290, 0.128925, 0.0676741, 0.123057,
     0.518149, 0.457140],
    [0, 0, 0, 0, 0.242843, 0.180473, 0.622078, 0.485474, 0.483321,
     0.386770],
    [0, 0, 0, 0, 0, 0.345904, 0.842890, 0.466367, 0.570623, 0.397965],
]

# test2: 7-group slab (moderator data), same geometry and source as test1.
_TEST2_SIGMA_T = [0.159206, 0.412970, 0.590310, 0.584350, 0.718000,
                  1.25445, 2.65038]

_TEST2_C = [0.996225, 0.999961, 0.999429, 0.996679, 0.992003,
            0.988042, 0.985949]

_TEST2_SIGMA_S = [
    [4.44777e-2, 0, 0, 0, 0, 0, 0],
    [1.134e-1, 2.82334e-1, 0, 0, 0, 0, 0],
    [7.2347e-4, 1.2994e-1, 3.45256e-1, 0, 0, 0, 0],
    [3.7499e-6, 6.234e-4, 2.2457e-1, 9.10284e-2, 7.1437e-5, 0, 0],
    [5.3184e-8, 4.8002e-5, 1.6999e-2, 4.1551e-1, 1.39138e-1, 2.2157e-3, 0],
    [0, 7.4486e-6, 2.6443e-3, 6.3732e-2, 5.1182e-1, 6.99913e-1, 1.3244e-1],
    [0, 1.0455e-6, 5.0344e-4, 1.2139e-2, 6.1229e-2, 5.3732e-1, 2.4807],
]


# name -> (sigma_t, sigma_s, published c_g row)
_BUILTINS = {"test1": (_TEST1_SIGMA_T, _TEST1_SIGMA_S, _TEST1_C),
             "test2": (_TEST2_SIGMA_T, _TEST2_SIGMA_S, _TEST2_C)}
BUILTIN_NAMES = tuple(_BUILTINS)


def _builtin(name: str) -> tuple[str, tuple]:
    key = name.strip().lower()
    if key not in _BUILTINS:
        raise ProblemError(f"unknown built-in problem {name!r} "
                           f"(available: {', '.join(BUILTIN_NAMES)})")
    return key, _BUILTINS[key]


def builtin_problem(name: str) -> ProblemSpec:
    key, (sigma_t, sigma_s, _) = _builtin(name)
    return ProblemSpec(len(sigma_t), sigma_t, sigma_s, [1.0] * len(sigma_t),
                       width=32.0, n_cells=128, n_half=8, name=key)


def builtin_reference_c(name: str) -> np.ndarray:
    return np.array(_builtin(name)[1][2])


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Comparison of derived scattering ratios against a reference row."""

    c_computed: np.ndarray
    c_reference: np.ndarray
    max_abs_dev: float
    passed: bool


def validate_scattering(spec: ProblemSpec, reference_c) -> ValidationReport:
    """Report-only check of column-sum scattering ratios vs a published row."""
    reference_c = np.asarray(reference_c, dtype=float)
    if reference_c.shape != (spec.G,):
        raise ProblemError(
            f"reference_c must have {spec.G} entries, got {reference_c.shape}")
    c = spec.scattering_ratio()
    dev = float(np.max(np.abs(c - reference_c)))
    return ValidationReport(c_computed=c, c_reference=reference_c,
                            max_abs_dev=dev, passed=dev <= C_TOLERANCE)


def connection_strength(spec: ProblemSpec) -> np.ndarray:
    """Row-normalized group coupling strengths, (G, G):

        S[g][g'] = sigma_{s,g'->g} / max_{g'' != g} sigma_{s,g''->g}

    with the diagonal defined 0.  Rows with no nonzero off-diagonal entry
    come back all zero.
    """
    if spec.G < 2:
        raise ProblemError("connection strength requires G >= 2")
    off = spec.sigma_s.copy()
    np.fill_diagonal(off, 0.0)
    peak = off.max(axis=1, keepdims=True)
    S = np.divide(spec.sigma_s, peak, out=np.zeros_like(off), where=peak > 0)
    np.fill_diagonal(S, 0.0)
    return S
