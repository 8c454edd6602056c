import collections
import concurrent.futures
import copy
import dataclasses
import dis
import functools
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from slabsm import driver
from slabsm.angular import AngularQuadrature, MomentSet, build_double_gauss
from slabsm.driver import (IterationConfig, TransportState,
                           convergence_measure, estimate_spectral_radius,
                           lo_solve_count, run_problem,
                           si_infinite_medium_rho)
from slabsm.fields import Mesh
from slabsm.losm import LowOrderSystem, problem_operators
from slabsm.problem import (ProblemSpec, builtin_problem, builtin_reference_c,
                            validate_scattering)
from ld_fields import const_field, to_nodes


def _small_two_group():
    return ProblemSpec(2, [1.0, 1.5], [[0.4, 0.2], [0.3, 0.9]], [1.0, 0.5],
                       width=8.0, n_cells=16, n_half=2, name="mini")


def _aa1_divergent():
    """A valid three-group problem, c = 0.99 in every group and sigma_t
    over five decades, on which mlsm-aa1(1,1) diverges."""
    return ProblemSpec(3, [48.87, 2.322, 0.0009134],
                       [[14.61, 1.185, 0.0001787],
                        [25.3, 0.9799, 0.0003008],
                        [8.472, 0.1337, 0.0004248]],
                       [0.672, 1.813, 1.741], width=12.5, n_cells=11,
                       n_half=2, name="aa1-diverges")


# -- convergence measure -------------------------------------------------------

def test_measure_identical_fields():
    f = const_field(3.0, 4)
    assert convergence_measure(f, f) == 0.0


def test_measure_is_absolute():
    new = const_field(2.0, 4)
    old = const_field(1.0, 4)
    assert convergence_measure(new, old) == pytest.approx(1.0)


def test_measure_zero_new_flux_absolute():
    new = const_field(0.0, 4)
    old = const_field(1.0, 4)
    assert convergence_measure(new, old) == pytest.approx(1.0)


def test_measure_geometric_sequence_ratio():
    # phi_l = 1 - 0.2^l: measure ratios approach 0.2
    vals = [convergence_measure(const_field(1 - 0.2**(l + 1), 3),
                                const_field(1 - 0.2**l, 3))
            for l in range(3, 10)]
    ratios = np.array(vals[1:]) / np.array(vals[:-1])
    assert np.allclose(ratios, 0.2, atol=1e-3)
    assert abs(ratios[-1] - 0.2) < 1e-6


def test_measure_shape_mismatch():
    with pytest.raises(ValueError):
        convergence_measure(const_field(1.0, 3), const_field(1.0, 4))


# -- spectral radius estimation -------------------------------------------------

def test_rho_exact_geometric():
    hist = [0.2**k for k in range(1, 10)]
    est = estimate_spectral_radius(hist)
    assert est.rho == pytest.approx(0.2, abs=1e-12)
    assert not est.irregular


def test_rho_constant_history():
    est = estimate_spectral_radius([3.0] * 8)
    assert est.rho == pytest.approx(1.0)
    assert not est.irregular


def test_rho_alternating_flagged():
    hist = [1.0]
    for k in range(8):
        hist.append(hist[-1] * (0.1 if k % 2 == 0 else 0.4))
    est = estimate_spectral_radius(hist)
    # geometric mean of the 5-ratio window sits between the two rates
    assert 0.1 < est.rho < 0.4
    assert est.spread > 0.25
    assert est.irregular


def test_rho_short_history_is_none():
    assert estimate_spectral_radius([1.0, 0.5, 0.25]) is None


def test_rho_nonpositive_is_none():
    assert estimate_spectral_radius([1.0, 0.5, 0.0, 0.1]) is None


# -- flat-mode SI spectral radius ------------------------------------------------

def test_si_rho_single_group_equals_c():
    spec = ProblemSpec(1, [2.0], [[1.2]], [1.0], width=1.0, n_cells=2,
                       n_half=1)
    assert si_infinite_medium_rho(spec) == pytest.approx(0.6, abs=1e-12)


def test_si_rho_of_oscillating_mode(caplog):
    # eigenvalues +-sqrt(0.4) of equal modulus: a power iteration never
    # settles on this scattering matrix
    spec = ProblemSpec(2, [1.0, 1.0], [[0.0, 0.8], [0.5, 0.0]], [1.0, 1.0],
                       width=1.0, n_cells=2, n_half=1)
    with caplog.at_level("WARNING", logger="slabsm.driver"):
        rho = si_infinite_medium_rho(spec)
    assert rho == pytest.approx(np.sqrt(0.4), rel=1e-12)
    assert not caplog.records


def test_si_rho_published_values():
    assert si_infinite_medium_rho(builtin_problem("test1")) == \
        pytest.approx(0.96, abs=0.01)
    assert si_infinite_medium_rho(builtin_problem("test2")) == \
        pytest.approx(0.98, abs=0.01)


def test_lo_solve_count_formula():
    assert lo_solve_count(IterationConfig(k_max=1, s_max=1)) == 2
    assert lo_solve_count(IterationConfig(k_max=2, s_max=4)) == 10
    assert lo_solve_count(IterationConfig(k_max=5, s_max=1)) == 10


# -- source iteration ------------------------------------------------------------

def test_si_zero_source_converges_immediately():
    spec = ProblemSpec(2, [1.0, 1.0], [[0.4, 0.1], [0.2, 0.5]], [0.0, 0.0],
                       width=8.0, n_cells=16, n_half=2)
    cfg = IterationConfig(method="si", max_outer=10)
    rep = run_problem(spec, cfg)
    assert rep.status == "converged"
    assert rep.N_t <= 2
    assert rep.M_lo == 0


def test_si_exact_convergence_quotes_no_rate():
    # below the rounding floor the grey-flux change ends on an exact 0.0,
    # which leaves no ratio to take a rate from
    spec = ProblemSpec(1, [1.0], [[0.5]], [1.0], width=4.0, n_cells=8,
                       n_half=2)
    rep = run_problem(spec, IterationConfig(method="si", epsilon=1e-16))
    assert rep.status == "converged"
    assert rep.residual_history[-1] == 0.0
    assert rep.N_t == len(rep.residual_history) >= 4
    assert rep.rho_num is None
    assert rep.rho_irregular is False


def test_si_infinite_medium_rate_single_group():
    # thick slab, c = 0.5: numerical rate near the infinite-medium value
    spec = ProblemSpec(1, [1.0], [[0.5]], [1.0], width=50.0, n_cells=100,
                       n_half=4)
    cfg = IterationConfig(method="si", epsilon=1e-7)
    rep = run_problem(spec, cfg)
    assert rep.status == "converged"
    assert rep.rho_num == pytest.approx(0.5, abs=0.05)


# -- multilevel drivers ------------------------------------------------------------

def test_mlsm_small_problem_converges():
    spec = _small_two_group()
    cfg = IterationConfig(method="mlsm", k_max=1, s_max=1, epsilon=1e-10)
    rep = run_problem(spec, cfg)
    assert rep.status == "converged"
    assert len(rep.residual_history) == rep.N_t
    assert all(np.isfinite(rep.residual_history))
    # every outer pass (including ell = 0) executes exactly M_lo solves
    assert rep.lo_solve_counts == [rep.M_lo] * (rep.N_t + 1)


def test_mlsm_aa1_small_problem_converges():
    spec = _small_two_group()
    cfg = IterationConfig(method="mlsm-aa1", k_max=1, s_max=2, epsilon=1e-10)
    rep = run_problem(spec, cfg)
    assert rep.status == "converged"
    assert rep.lo_solve_counts == [rep.M_lo] * (rep.N_t + 1)


@pytest.mark.parametrize("method", ["mlsm", "mlsm-aa1"])
def test_lo_solve_counts_at_max_outer(method):
    cfg = IterationConfig(method=method, k_max=2, s_max=2, max_outer=3,
                          epsilon=1e-14)
    rep = run_problem(_small_two_group(), cfg)
    assert rep.status == "max_outer"
    assert rep.lo_solve_counts == [rep.M_lo] * (rep.N_t + 1)


@pytest.mark.parametrize("method", ["mlsm", "mlsm-aa1"])
@pytest.mark.parametrize("k, s", [(1, 1), (2, 3)])
def test_pass_loop_call_pattern(monkeypatch, method, k, s):
    # counted through the names the driver calls, per outer and for the
    # sweep-free first pass: each pass refreshes zeta and runs one group
    # pass; mlsm-aa1 adds the residual of each cycle's start and of each
    # pass output, and one AA(1) coefficient per pass
    calls = collections.Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in ("group_pass", "equation_residual", "solve_grey"):
        count(LowOrderSystem, name)
    for name in ("compute_zeta", "aa1_alpha"):
        count(driver, name)
    cfg = IterationConfig(method=method, k_max=k, s_max=s, max_outer=3,
                          epsilon=1e-14)
    rep = run_problem(_small_two_group(), cfg)
    assert rep.N_t == 3
    outers = rep.N_t + 1
    aa1 = method == "mlsm-aa1"
    assert calls["group_pass"] == outers * k * s
    assert calls["equation_residual"] == (outers * k * (s + 1) if aa1 else 0)
    assert calls["aa1_alpha"] == (outers * k * s if aa1 else 0)
    # one zeta per pass, and the final state's
    assert calls["compute_zeta"] == outers * (k * s + 1)
    assert calls["solve_grey"] == outers * k


@pytest.mark.parametrize("method", ["mlsm", "mlsm-aa1"])
def test_stagnated_run_quotes_no_rate(method):
    # below the rounding floor the change repeats 4.4e-16 for every outer:
    # its ratio of 1 is no convergence rate
    spec = ProblemSpec(1, [1.0], [[0.5]], [1.0], width=4.0, n_cells=8,
                       n_half=2)
    rep = run_problem(spec, IterationConfig(method=method, epsilon=1e-16,
                                            max_outer=200))
    assert rep.status == "max_outer"
    assert min(rep.residual_history) > 0.0
    assert rep.rho_num is None
    assert rep.rho_irregular is False


def test_multilevel_agrees_with_si_fixed_point():
    spec = _small_two_group()
    eps = 1e-11
    rep_m = run_problem(spec, IterationConfig(method="mlsm", k_max=1,
                                              s_max=2, epsilon=eps))
    rep_a = run_problem(spec, IterationConfig(method="mlsm-aa1", k_max=1,
                                              s_max=2, epsilon=eps))
    rep_s = run_problem(spec, IterationConfig(method="si", epsilon=eps,
                                              max_outer=3000))
    ref = rep_s.state.grey_phi[:, 0]
    for rep in (rep_m, rep_a):
        diff = np.abs(rep.state.grey_phi[:, 0] - ref).max() / ref.max()
        assert diff < 100 * eps


def test_transport_state_grey_p_equals_group_sum():
    # the grey P is the axis-0 sum of the same moments, not a recomputation
    spec = _small_two_group()
    rep = run_problem(spec, IterationConfig(method="mlsm"))
    st = rep.state
    assert np.array_equal(st.grey_closure.P, st.P.sum(axis=0))


def test_determinism_run_to_run():
    spec = _small_two_group()
    cfg = IterationConfig(method="mlsm-aa1", k_max=2, s_max=2)
    r1 = run_problem(spec, cfg)
    r2 = run_problem(spec, cfg)
    assert r1.residual_history == r2.residual_history
    assert np.array_equal(r1.state.grey_phi, r2.state.grey_phi)
    assert np.array_equal(r1.state.phi, r2.state.phi)
    assert r1.N_t == r2.N_t


def test_max_outer_reported():
    spec = _small_two_group()
    cfg = IterationConfig(method="si", max_outer=3, epsilon=1e-14)
    rep = run_problem(spec, cfg)
    assert rep.status == "max_outer"
    assert rep.N_t == 3
    assert len(rep.residual_history) == 3


def test_invalid_config_values():
    with pytest.raises(ValueError):
        IterationConfig(method="nonsense")
    with pytest.raises(ValueError):
        IterationConfig(k_max=0)
    with pytest.raises(ValueError):
        IterationConfig(epsilon=0.0)


@pytest.mark.parametrize("field, value", [
    ("epsilon", float("inf")), ("epsilon", float("nan")), ("k_max", 1.5),
    ("s_max", 2.5), ("max_outer", 2.5), ("k_max", True),
    ("max_outer", True), ("s_max", "2"), ("epsilon", True),
    ("epsilon", "1e-9"), ("epsilon", None), ("k_max", 0), ("k_max", -1),
    ("s_max", 0), ("s_max", -1), ("max_outer", 0), ("max_outer", -1),
])
def test_config_rejects_non_finite_epsilon_and_fractional_counts(field,
                                                                 value):
    # epsilon=inf stopped after one outer as converged and NaN ran every
    # outer; fractional counts failed later inside range(), True ran as 1
    # (as a count and as epsilon), a string or None epsilon raised
    # TypeError; a count below 1 is named with its bound
    match = f"{field} must be >= 1" if value in (0, -1) else field
    with pytest.raises(ValueError, match=match):
        IterationConfig(**{field: value})


def test_config_counts_become_ints():
    cfg = IterationConfig(k_max=2.0, s_max=np.int64(3), max_outer=50.0)
    assert (cfg.k_max, cfg.s_max, cfg.max_outer) == (2, 3, 50)
    assert all(type(n) is int for n in (cfg.k_max, cfg.s_max, cfg.max_outer))


def test_config_is_frozen_and_replace_rechecks():
    # an assigned k_max = 0 ran into an UnboundLocalError inside the
    # pass loop, and an assigned method = "bogus" ran plain MLSM under
    # that name; a config is now checked whichever way it is made
    cfg = IterationConfig(method="mlsm-aa1", k_max=2, s_max=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.k_max = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.method = "bogus"
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        dataclasses.replace(cfg, k_max=0)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        dataclasses.replace(cfg, method="bogus")
    varied = dataclasses.replace(cfg, s_max=3.0)
    assert type(varied.s_max) is int and varied.s_max == 3
    assert (cfg.method, cfg.k_max, cfg.s_max) == ("mlsm-aa1", 2, 2)



def test_records_compare_by_identity_and_runs_are_frozen():
    # == on a record that holds arrays compared the arrays and raised,
    # and hash() raised; every record now compares and hashes by identity
    cfg = IterationConfig(k_max=2, s_max=2)
    report = run_problem(_small_two_group(), cfg)
    state = report.state
    q = build_double_gauss(2)
    assert (q == AngularQuadrature(mu=q.mu.copy(), w=q.w.copy())) is False
    assert Mesh.uniform(1.0, 4) != Mesh.uniform(1.0, 4)
    test1 = builtin_problem("test1")
    records = (Mesh.uniform(1.0, 4), q, state.closures, state.grey_coeffs,
               state, report,
               validate_scattering(test1, builtin_reference_c("test1")))
    for record in records:
        twin = copy.deepcopy(record)
        assert record == record and not record != record
        assert record != twin and not record == twin
        assert hash(record) == hash(record) == object.__hash__(record)
        assert record in {record} and twin not in {record}
    for record, name in ((state, "phi"), (report, "N_t"), (report, "config")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
    # the run keeps its config, and its state one read-only P
    assert report.config is cfg
    assert state.closures.P is state.P and not state.P.flags.writeable

def test_single_cell_problem_runs():
    spec = ProblemSpec(1, [1.0], [[0.5]], [1.0], width=1.0, n_cells=1,
                       n_half=1)
    vals = []
    for method in ("si", "mlsm", "mlsm-aa1"):
        rep = run_problem(spec, IterationConfig(method=method,
                                                epsilon=1e-10))
        assert rep.status == "converged"
        vals.append(rep.state.grey_phi[0, 0])
    assert np.allclose(vals, vals[0], rtol=1e-8)


@pytest.mark.parametrize("method", ["si", "mlsm", "mlsm-aa1"])
def test_non_finite_residual_stops(monkeypatch, method):
    # NaN moments from the first sweep on (the multilevel methods first
    # take the moments of their flat guess, one call for all groups)
    spec = _small_two_group()
    real = driver.angular_moments
    clean = 0 if method == "si" else 1
    calls = []

    def poisoned(psi, quad):
        calls.append(None)
        mom = real(psi, quad)
        if len(calls) <= clean:
            return mom
        return MomentSet(*(np.full_like(m, np.nan) for m in mom))

    monkeypatch.setattr(driver, "angular_moments", poisoned)
    rep = run_problem(spec, IterationConfig(method=method, max_outer=50))
    assert rep.status == "non_finite"
    assert rep.N_t == 1
    assert rep.rho_num is None
    assert rep.lo_solve_counts == ([] if method == "si"
                                   else [rep.M_lo] * (rep.N_t + 1))


@pytest.mark.parametrize("method", ["mlsm", "mlsm-aa1"])
def test_nan_group_flux_stops_the_run(monkeypatch, method):
    # one NaN group pass: the NaN flux sum reaches zeta and the grey
    # coefficients instead of their finite fallbacks, so the grey flux is
    # NaN and the run stops as non_finite rather than converging on it
    real = LowOrderSystem.group_pass
    calls = []

    def poisoned(self, phi, zeta, closures):
        calls.append(None)
        phi_new, J_new = real(self, phi, zeta, closures)
        if len(calls) == 3:
            phi_new = np.full_like(phi_new, np.nan)
        return phi_new, J_new

    monkeypatch.setattr(LowOrderSystem, "group_pass", poisoned)
    rep = run_problem(_small_two_group(),
                      IterationConfig(method=method, max_outer=50))
    assert rep.status == "non_finite"
    assert rep.N_t == 2
    assert np.isnan(rep.state.grey_phi).all()


def test_diverged_rule():
    # diverged: the change exceeds 10x the change 10 outers back
    cfg = IterationConfig()
    base = [1.0] * 10
    assert driver._status(base + [10.0], cfg) is None
    assert driver._status(base + [10.5], cfg) == "diverged"
    assert driver._status(base[1:] + [10.5], cfg) is None   # no entry 10 back
    # measured against the entry exactly 10 back, not the smallest one
    assert driver._status([0.1] + [2.0] * 10 + [15.0], cfg) is None
    assert driver._status([0.1] + [2.0] * 10 + [25.0], cfg) == "diverged"


def test_growing_change_stops_as_diverged(monkeypatch):
    # each outer's change 1.3x the last: 1.3^10 = 13.8 > 10 at outer 11
    growth = iter(1.3**k for k in range(1000))
    monkeypatch.setattr(driver, "convergence_measure",
                        lambda new, old: next(growth))
    rep = run_problem(_small_two_group(),
                      IterationConfig(method="mlsm", max_outer=50))
    assert rep.status == "diverged"
    assert rep.N_t == 11
    assert rep.rho_num == pytest.approx(1.3, rel=1e-12)


@pytest.mark.parametrize("method, k, s, status, N_t", [
    ("mlsm-aa1", 1, 1, "diverged", 27),
    ("mlsm", 1, 1, "converged", 48),
    ("mlsm-aa1", 1, 2, "converged", 32),
    ("si", 1, 1, "converged", 174),
])
def test_aa1_diverges_where_the_other_methods_converge(method, k, s, status,
                                                        N_t):
    # a real divergence, not a patched measure: AA(1) with one pass per
    # cycle takes |alpha0| up to 4.06 with no degenerate-pair fallback
    rep = run_problem(_aa1_divergent(),
                      IterationConfig(method=method, k_max=k, s_max=s))
    assert rep.status == status
    assert rep.N_t == N_t
    assert np.all(np.isfinite(rep.residual_history))
    assert rep.aa_fallbacks == 0


def test_overflowing_cell_determinant_is_an_error():
    # sigma_t * dx = 2.5e159: SI would otherwise converge at N_t = 1 on
    # phi = 0 (true phi ~ 2e-160)
    spec = ProblemSpec(1, [1e160], [[5e159]], [1.0], width=10.0,
                       n_cells=4, n_half=2)
    for method in ("si", "mlsm"):
        with pytest.raises(ValueError, match="overflows"):
            run_problem(spec, IterationConfig(method=method))


# -- the outer step as a map ------------------------------------------------

def _first_pass(spec, cfg):
    """The run context, step and state that run_problem starts its first
    outer from."""
    quad = build_double_gauss(spec.n_half)
    mesh = Mesh.uniform(spec.width, spec.n_cells)
    G, N = spec.G, spec.n_cells
    if cfg.method == "si":
        run = driver._Run(spec, cfg, quad, problem_operators(spec, mesh),
                          None)
        state = TransportState(np.zeros((G, N, 2)), np.zeros((N, 2)))
        return run, driver._si_step, state
    system = LowOrderSystem(spec, mesh)
    run = driver._Run(spec, cfg, quad, system.ops, system)
    flat = np.zeros((G, quad.n_angles, N, 2))
    flat[..., 0] = 0.5
    state, _ = driver._low_order_levels(run, flat, None)
    return run, driver._multilevel_step, state


def _same_bits(a, b):
    """Every array of two TransportStates equal, signs of zeros included,
    and the same fields None; closures, grey_closure and grey_coeffs field
    by field."""
    def arrays(state):
        out = {}
        for name, value in vars(state).items():
            if value is None or isinstance(value, np.ndarray):
                out[name] = value
            else:
                out.update({f"{name}.{f}": x for f, x in vars(value).items()})
        return out

    x, y = arrays(a), arrays(b)
    return x.keys() == y.keys() and all(
        (x[k] is None) == (y[k] is None) and (x[k] is None or (
            np.array_equal(x[k], y[k])
            and np.array_equal(np.signbit(x[k]), np.signbit(y[k]))))
        for k in x)


def test_a_run_does_not_depend_on_what_ran_before():
    # the per-problem operator record outlives a run: test2 gives the same
    # bits after a test1 run as before it, from a new spec, and both test2
    # runs read the one record (a closure's dx is its record's)
    cfg = IterationConfig(method="mlsm-aa1", k_max=1, s_max=2)
    first = run_problem(builtin_problem("test2"), cfg)
    run_problem(builtin_problem("test1"), IterationConfig(method="mlsm"))
    spec = builtin_problem("test2")
    again = run_problem(spec, cfg)
    assert _same_bits(first.state, again.state)
    assert again.residual_history == first.residual_history
    ops = problem_operators(spec, Mesh.uniform(spec.width, spec.n_cells))
    assert first.state.closures.dx is ops.dx
    assert again.state.closures.dx is ops.dx


def test_overlapping_runs_give_their_serial_answers():
    # runs of one problem share its operator record; two threads that run
    # test2 in pairs, switching often enough that their sweeps interleave,
    # each get a serial run's bits
    spec = builtin_problem("test2")
    configs = (IterationConfig(method="si", max_outer=60),
               IterationConfig(method="mlsm"),
               IterationConfig(method="mlsm-aa1", k_max=1, s_max=2))
    serial = [run_problem(spec, cfg) for cfg in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            for _ in range(3):
                for cfg, ref in zip(configs, serial):
                    start = threading.Barrier(2, timeout=60)

                    def run(_):
                        start.wait()
                        return run_problem(spec, cfg)

                    for report in pool.map(run, range(2)):
                        assert report.N_t == ref.N_t
                        assert report.status == ref.status
                        assert report.residual_history == ref.residual_history
                        assert _same_bits(report.state, ref.state)
    finally:
        sys.setswitchinterval(interval)


def test_record_parts_are_built_on_first_use():
    # only the low-order operators wait for their first use: source
    # iteration factors nothing, and a low-order system or a multilevel
    # run builds them
    spec = dataclasses.replace(_small_two_group(), width=7.375)
    ops = problem_operators(spec, Mesh.uniform(spec.width, spec.n_cells))
    assert "low_order" not in vars(ops)
    run_problem(spec, IterationConfig(method="si", max_outer=3))
    assert "low_order" not in vars(ops)
    other = dataclasses.replace(spec, width=6.375)
    system = LowOrderSystem(other, Mesh.uniform(other.width, other.n_cells))
    assert "low_order" in vars(system.ops)
    run_problem(spec, IterationConfig(method="mlsm", max_outer=3))
    assert "low_order" in vars(ops)
    # and it is the record's one cached part
    assert [name for name, value in vars(type(ops)).items()
            if isinstance(value, functools.cached_property)] == ["low_order"]


# run in a fresh interpreter: this one has loaded scipy already
_IMPORT_BOUNDARY = """
import sys
from slabsm import cli
from slabsm.driver import IterationConfig, run_problem
from slabsm.fields import Mesh
from slabsm.losm import LowOrderSystem
from slabsm.problem import builtin_problem

def loaded():
    return [m for m in ("scipy.linalg", "scipy.sparse") if m in sys.modules]

spec = builtin_problem("test2")
run_problem(spec, IterationConfig(method="si", max_outer=3))
parser = cli.build_parser()
for command in ("validate", "analyze", "strength"):
    args = parser.parse_args([command, "--problem", "test2"])
    args.func(args)
print(loaded())
LowOrderSystem(spec, Mesh.uniform(spec.width, spec.n_cells))
print(loaded())
"""

# the benchmark's set-up statement, then source iteration, in a fresh
# interpreter with an empty library cache
_KERNEL_BOUNDARY = """
import os
import slabsm
from slabsm.fields import Mesh
from slabsm.losm import LowOrderSystem

def kernel():
    with open("/proc/self/maps") as maps:
        mapped = "/slabsm/_march-" in maps.read()
    cache = os.path.join(os.environ["XDG_CACHE_HOME"], "slabsm")
    return mapped, len(os.listdir(cache)) if os.path.isdir(cache) else 0

print(kernel())
spec = slabsm.builtin_problem("test2")
LowOrderSystem(spec, Mesh.uniform(spec.width, spec.n_cells))
print(kernel())
slabsm.run_problem(spec, slabsm.IterationConfig(method="si", max_outer=3))
print(kernel())
"""


def test_only_the_low_order_levels_load_scipy(tmp_path):
    # importing slabsm, source iteration and the diagnostics commands run
    # without scipy; the first low-order system loads the scipy solvers
    src = pathlib.Path(driver.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BOUNDARY], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]",
                                        "['scipy.linalg', 'scipy.sparse']"]
    # importing slabsm and building a low-order system, the benchmark's
    # set-up, neither build nor load the compiled march; the first sweep
    # builds it into the cache and loads it
    env["XDG_CACHE_HOME"] = str(tmp_path)
    proc = subprocess.run([sys.executable, "-c", _KERNEL_BOUNDARY], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["(False, 0)", "(False, 0)",
                                        "(True, 1)"]
    # and no call on the per-outer path runs an import statement
    for fn in (driver._si_step, driver._multilevel_step,
               driver._low_order_levels, driver.sweep_batch,
               LowOrderSystem.group_pass, LowOrderSystem.equation_residual,
               LowOrderSystem.solve_grey):
        assert not any(i.opname == "IMPORT_NAME"
                       for i in dis.get_instructions(fn)), fn.__name__


@pytest.mark.parametrize("method, k, s", [
    ("si", 1, 1), ("mlsm", 2, 2), ("mlsm-aa1", 1, 2)])
def test_stepping_reproduces_run_problem(method, k, s):
    spec = _small_two_group()
    cfg = IterationConfig(method=method, k_max=k, s_max=s, epsilon=1e-10)
    rep = run_problem(spec, cfg)
    run, step, state = _first_pass(spec, cfg)
    history = []
    for _ in range(rep.N_t):
        new, _ = step(run, state)
        history.append(convergence_measure(new.grey_phi, state.grey_phi))
        state = new
    assert history == rep.residual_history
    assert _same_bits(state, rep.state)


@pytest.mark.parametrize("method", ["si", "mlsm", "mlsm-aa1"])
def test_step_is_a_map_of_its_input(method):
    # the same state stepped twice gives the same bits and is left as it
    # was: nothing the step reads is carried from one call to the next
    spec = _small_two_group()
    run, step, state = _first_pass(
        spec, IterationConfig(method=method, k_max=2, s_max=2))
    for _ in range(3):
        state, _ = step(run, state)
    before = copy.deepcopy(state)
    first, diag_first = step(run, state)
    second, diag_second = step(run, state)
    assert _same_bits(first, second)
    assert diag_first == diag_second
    assert _same_bits(state, before)


@pytest.mark.parametrize("method, s", [("mlsm", 1), ("mlsm-aa1", 2)])
def test_step_at_convergence_moves_grey_phi_by_less_than_the_last_change(
        method, s):
    # one more step from the converged state moved grey_phi by 0.153
    # (mlsm) and 0.137 (mlsm-aa1) times the run's last change, close to
    # their rho_num of 0.135 and 0.139
    spec = _small_two_group()
    cfg = IterationConfig(method=method, s_max=s, epsilon=1e-10)
    rep = run_problem(spec, cfg)
    assert rep.status == "converged"
    run, step, _ = _first_pass(spec, cfg)
    new, _ = step(run, rep.state)
    change = convergence_measure(new.grey_phi, rep.state.grey_phi)
    assert change <= 0.25 * rep.residual_history[-1]


# -- solver properties over random valid problems ------------------------------

@st.composite
def _valid_problems(draw):
    """A small valid problem: tau = sigma_t * dx from 1e-3 to 1e3 per
    group, scattering ratios c <= 0.99 split at random over the groups it
    scatters into, and a source with a positive total."""
    G = draw(st.integers(1, 4))
    N = draw(st.integers(1, 16))
    floats = st.floats
    width = draw(floats(1.0, 20.0))
    tau = 10.0 ** np.array(draw(st.lists(floats(-3.0, 3.0), min_size=G,
                                         max_size=G)))
    c = np.array(draw(st.lists(floats(0.0, 0.99), min_size=G, max_size=G)))
    split = np.array(draw(st.lists(floats(0.01, 1.0), min_size=G * G,
                                   max_size=G * G))).reshape(G, G)
    Q = np.array(draw(st.lists(floats(0.0, 2.0), min_size=G, max_size=G)))
    Q[draw(st.integers(0, G - 1))] += 0.5
    sigma_t = tau * N / width
    sigma_s = split / split.sum(axis=0) * (c * sigma_t)
    return ProblemSpec(G, sigma_t, sigma_s, Q, width=width, n_cells=N,
                       n_half=draw(st.integers(1, 4)))


STATUSES = ("converged", "max_outer", "diverged", "non_finite")


# a fixed seed, not derandomize: derandomize seeds from a digest of this
# test's source, so any edit to it would change the draws
@seed(1)
@settings(database=None, max_examples=60, deadline=None)
@given(_valid_problems(), st.integers(1, 2), st.integers(1, 2))
def test_solver_properties_on_valid_problems(spec, k, s):
    # one of the four statuses, finite fluxes when converged, exact grey
    # particle balance, per-group balance and LO = HO moments at
    # convergence, and the SI fixed point.  Over the 60 draws run here
    # (every multilevel run converged) the worst were a grey balance of
    # 7.1e-16, a per-group imbalance of 9.1e-11 of the largest balance
    # term, an LO-HO gap of 8.8e-9 and an SI gap of 8.5e-10 of max|grey
    # phi| (at most 1.1 eps / (1 - rho)).  Over 400 draws of the same seed
    # (one AA(1) run of 800 multilevel runs diverged) they were 1.3e-15,
    # 3.5e-10, 2.0e-9 and 1.2e-7 (at most 1.7 eps / (1 - rho)), against
    # the bounds below
    eps = 1e-10
    mesh = Mesh.uniform(spec.width, spec.n_cells)
    si = run_problem(spec, IterationConfig(method="si", epsilon=eps,
                                           max_outer=200))
    assert si.status in STATUSES
    for method in ("mlsm", "mlsm-aa1"):
        rep = run_problem(spec, IterationConfig(
            method=method, k_max=k, s_max=s, epsilon=eps, max_outer=200))
        assert rep.status in STATUSES
        st_ = rep.state
        # grey balance of the final grey solve: leakage + absorption =
        # source, from the telescoped zeroth-moment rows
        phi_n = to_nodes(st_.grey_phi)
        J_left = -0.5 * phi_n[0, 0] + st_.grey_closure.dJ[0]
        J_right = 0.5 * phi_n[-1, 1] + st_.grey_closure.dJ[-1]
        absorbed = np.sum(0.5 * (to_nodes(st_.grey_coeffs.sbar_a)
                                 * phi_n).sum(axis=1) * mesh.dx)
        source = np.sum(st_.grey_coeffs.Q[:, 0] * mesh.dx)
        if rep.status != "non_finite":
            leak = J_right - J_left
            assert abs(leak + absorbed - source) \
                <= 1e-10 * max(source, absorbed, abs(leak))
        if rep.status != "converged":
            continue
        for field in (st_.psi, st_.phi, st_.J, st_.grey_phi, st_.grey_J):
            assert np.all(np.isfinite(field))
        # per-group balance of the final group iterate: leakage +
        # sigma_t,g int phi_g = in-scatter + Q_g W, each group's leakage
        # from its telescoped zeroth-moment rows
        phi_n = to_nodes(st_.phi)
        J_left = -0.5 * phi_n[:, 0, 0] + st_.closures.dJ[:, 0]
        J_right = 0.5 * phi_n[:, -1, 1] + st_.closures.dJ[:, -1]
        flux = st_.phi[..., 0] @ mesh.dx
        terms = np.array([J_right - J_left, spec.sigma_t * flux,
                          spec.sigma_s @ flux, spec.Q * spec.width])
        imbalance = terms[0] + terms[1] - terms[2] - terms[3]
        assert np.abs(imbalance).max() <= 1e-8 * np.abs(terms).max()
        scale = np.abs(st_.grey_phi).max()
        assert np.abs(st_.phi - st_.phi_ho).max() <= 1e-6 * scale
        assert np.abs(st_.J - st_.J_ho).max() <= 1e-6 * scale
        assert np.abs(st_.grey_phi - st_.phi_ho.sum(axis=0)).max() \
            <= 1e-6 * scale
        if si.status == "converged":
            # SI stops within about eps / (1 - rho) of its fixed point
            rho = si_infinite_medium_rho(spec)
            gap = np.abs(st_.grey_phi - si.state.grey_phi).max()
            assert gap <= 100 * eps / (1.0 - rho)
