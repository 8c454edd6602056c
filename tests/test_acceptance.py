"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest -s` to see them inline)."""

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from slabsm import driver
from slabsm.accel import aa1_alpha
from slabsm.angular import angular_moments, build_double_gauss
from slabsm.driver import (IterationConfig, run_problem,
                           si_infinite_medium_rho)
from slabsm.fields import Mesh
from slabsm.losm import LowOrderSystem, ProblemOperators
from slabsm.problem import (builtin_problem, builtin_reference_c,
                            connection_strength, validate_scattering)
from discrete_oracle import oracle_flux
from ld_fields import to_nodes
from test_losm import group_particle_balance, group_source
from test_sweep import (curved_solution, l2_error, project_ld,
                        sweep_per_direction)

EPS = 1e-9

_SPECS = {name: builtin_problem(name) for name in ("test1", "test2")}
_RUN_CACHE = {}


def _run(problem, method, k, s, **kw):
    key = (problem, method, k, s, tuple(sorted(kw.items())))
    if key not in _RUN_CACHE:
        cfg = IterationConfig(method=method, k_max=k, s_max=s, epsilon=EPS,
                              **kw)
        _RUN_CACHE[key] = run_problem(_SPECS[problem], cfg)
    return _RUN_CACHE[key]


def _verdict(criterion, failures):
    if failures:
        print(f"FAIL criterion {criterion}: " + "; ".join(failures))
    else:
        print(f"PASS criterion {criterion}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


# ---------------------------------------------------------------------------
# 1. Table 2 reproduction (Test 1)
# ---------------------------------------------------------------------------

def test_criterion_1_table2_test1():
    cells = [
        ("mlsm", 1, 1, 16, 0.20, 2),
        ("mlsm", 1, 2, 15, 0.20, 3),
        ("mlsm", 2, 1, 15, 0.19, 4),
        ("mlsm-aa1", 1, 1, 15, 0.20, 2),
        ("mlsm-aa1", 1, 2, 15, 0.20, 3),
    ]
    failures = []
    for method, k, s, nt_ref, rho_ref, mlo_ref in cells:
        rep = _run("test1", method, k, s)
        tag = f"{method}({k},{s})"
        if rep.status != "converged":
            failures.append(f"{tag} status={rep.status}")
            continue
        if abs(rep.N_t - nt_ref) > 2:
            failures.append(f"{tag} N_t={rep.N_t} vs {nt_ref}+-2")
        if rep.rho_num is None or abs(rep.rho_num - rho_ref) > 0.05:
            failures.append(f"{tag} rho={rep.rho_num} vs {rho_ref}+-0.05")
        if rep.M_lo != mlo_ref:
            failures.append(f"{tag} M_lo={rep.M_lo} vs {mlo_ref}")
    _verdict(1, failures)


# ---------------------------------------------------------------------------
# 2. Table 4 reproduction (Test 2, MLSM)
# ---------------------------------------------------------------------------

def test_criterion_2_table4_test2_mlsm():
    cells = [
        (1, 1, 31, 0.45),
        (1, 4, 20, 0.28),
        (2, 4, 15, 0.20),
        (5, 1, 15, 0.20),
    ]
    failures = []
    for k, s, nt_ref, rho_ref in cells:
        rep = _run("test2", "mlsm", k, s)
        tag = f"mlsm({k},{s})"
        if abs(rep.N_t - nt_ref) > 3:
            failures.append(f"{tag} N_t={rep.N_t} vs {nt_ref}+-3")
        if rep.rho_num is None or abs(rep.rho_num - rho_ref) > 0.06:
            failures.append(f"{tag} rho={rep.rho_num} vs {rho_ref}+-0.06")
    # trend along the k_max = 1 row: N_t nonincreasing as M_lo grows
    nts = [_run("test2", "mlsm", 1, s).N_t for s in (1, 2, 3, 4)]
    if any(a < b for a, b in zip(nts, nts[1:])):
        failures.append(f"k=1 row N_t not nonincreasing: {nts}")
    _verdict(2, failures)


# ---------------------------------------------------------------------------
# 3. Table 5 reproduction (Test 2, MLSM-AA(1))
# ---------------------------------------------------------------------------

def test_criterion_3_table5_test2_aa1():
    failures = []
    rep = _run("test2", "mlsm-aa1", 1, 2)
    if abs(rep.N_t - 18) > 3:
        failures.append(f"(1,2) N_t={rep.N_t} vs 18+-3")
    if rep.rho_num is None or abs(rep.rho_num - 0.27) > 0.06:
        failures.append(f"(1,2) rho={rep.rho_num} vs 0.27+-0.06")

    rep = _run("test2", "mlsm-aa1", 2, 2)
    if abs(rep.N_t - 15) > 2:
        failures.append(f"(2,2) N_t={rep.N_t} vs 15+-2")
    if rep.M_lo != 6:
        failures.append(f"(2,2) M_lo={rep.M_lo} vs 6")

    rep = _run("test2", "mlsm-aa1", 1, 1)
    if not rep.rho_irregular or rep.rho_num is not None:
        failures.append(f"(1,1) not flagged irregular (rho={rep.rho_num})")
    _verdict(3, failures)


# ---------------------------------------------------------------------------
# 4. Spectral analysis
# ---------------------------------------------------------------------------

def test_criterion_4_si_fourier_values():
    failures = []
    rho1 = si_infinite_medium_rho(_SPECS["test1"])
    rho2 = si_infinite_medium_rho(_SPECS["test2"])
    if abs(rho1 - 0.96) > 0.01:
        failures.append(f"test1 rho_th={rho1:.4f} vs 0.96+-0.01")
    if abs(rho2 - 0.98) > 0.01:
        failures.append(f"test2 rho_th={rho2:.4f} vs 0.98+-0.01")
    _verdict(4, failures)


# ---------------------------------------------------------------------------
# 5. Data diagnostics
# ---------------------------------------------------------------------------

_TABLE1 = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1., 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0.71, 1., 0, 0, 0, 0, 0, 0, 0, 0],
    [1., 0.53, 0.36, 0, 0, 0, 0, 0, 0, 0],
    [1., 0.21, 0.48, 1., 0, 0, 0, 0, 0, 0],
    [0, 0.78, 0.64, 1., 0.81, 0, 0, 0, 0, 0],
    [0, 0, 0.26, 0.09, 0.20, 0.48, 0, 1., 0.22, 0.23],
    [0, 0, 0, 0.91, 0.11, 0.25, 0.13, 0, 1., 0.88],
    [0, 0, 0, 0, 0.39, 0.29, 1., 0.78, 0, 0.62],
    [0, 0, 0, 0, 0, 0.41, 1., 0.55, 0.68, 0],
]

_TABLE3 = [
    [0, 0, 0, 0, 0, 0, 0],
    [1., 0, 0, 0, 0, 0, 0],
    [5.5e-3, 1., 0, 0, 0, 0, 0],
    [1.7e-5, 2.8e-3, 1., 0, 3.2e-4, 0, 0],
    [1.3e-7, 1.2e-4, 4.1e-2, 1., 0, 5.3e-3, 0],
    [0, 1.5e-5, 5.2e-3, 1.3e-1, 1., 0, 2.6e-1],
    [0, 2.0e-6, 9.4e-4, 2.3e-2, 1.1e-1, 1., 0],
]


def _check_strength_matrix(name, table, fmt, failures):
    S = connection_strength(_SPECS[name])
    table = np.asarray(table, dtype=float)
    for g in range(table.shape[0]):
        for h in range(table.shape[1]):
            expected = table[g, h]
            got = S[g, h]
            if expected == 0.0:
                ok = got < 1e-12
            elif fmt == "decimals" or expected == 1.0:
                # printed with two decimals: agree within half an ulp
                ok = abs(got - expected) <= 5.1e-3
            else:
                # printed with a two-digit mantissa: within one printed ulp
                # (the source table itself rounds up to an ulp away)
                scale = 10.0 ** np.floor(np.log10(expected))
                ok = abs(got - expected) <= 0.101 * scale
            if not ok:
                failures.append(
                    f"{name} S[{g + 1}][{h + 1}]={got:.4g} vs {expected:.4g}")


def test_criterion_5_data_diagnostics():
    failures = []
    _check_strength_matrix("test1", _TABLE1, "decimals", failures)
    _check_strength_matrix("test2", _TABLE3, "scientific", failures)
    for name in ("test1", "test2"):
        rep = validate_scattering(_SPECS[name], builtin_reference_c(name))
        if not rep.passed:
            failures.append(f"{name} c_g deviation {rep.max_abs_dev:.2e}")
    _verdict(5, failures)


# ---------------------------------------------------------------------------
# 6. Property suite
# ---------------------------------------------------------------------------

def test_criterion_6a_consistency():
    failures = []
    for problem, method, k, s in [("test1", "mlsm", 1, 2),
                                  ("test2", "mlsm-aa1", 2, 2)]:
        st = _run(problem, method, k, s).state
        G = st.phi.shape[0]
        for g in range(G):
            dphi = np.abs(st.phi[g] - st.phi_ho[g]).max() \
                / np.abs(st.phi[g]).max()
            dJ = np.abs(st.J[g] - st.J_ho[g]).max() / np.abs(st.J[g]).max()
            if dphi > 10 * EPS:
                failures.append(f"{problem} {method} g={g + 1} phi dev "
                                f"{dphi:.2e}")
            if dJ > 10 * EPS:
                failures.append(f"{problem} {method} g={g + 1} J dev "
                                f"{dJ:.2e}")
        zdev = np.abs(to_nodes(st.zeta) - 1.0).max()
        if zdev > 10 * EPS:
            failures.append(f"{problem} {method} zeta dev {zdev:.2e}")
    _verdict("6a", failures)


def test_criterion_6b_fixed_point_agreement():
    failures = []
    ref = _run("test1", "si", 1, 1, max_outer=2000).state.grey_phi[:, 0]
    for method, k, s in [("mlsm", 1, 2), ("mlsm-aa1", 1, 2)]:
        grey = _run("test1", method, k, s).state.grey_phi[:, 0]
        dev = np.abs(grey - ref).max() / np.abs(ref).max()
        if dev > 100 * EPS:
            failures.append(f"{method} vs SI dev {dev:.2e}")
    _verdict("6b", failures)


def test_si_rate_below_infinite_medium_bound():
    # finite-slab leakage keeps the observed SI rate at or below the
    # flat-mode value 0.96 (within the quoted 0.02 slack)
    rep = _run("test1", "si", 1, 1, max_outer=2000)
    assert rep.status == "converged"
    assert rep.rho_num is not None
    assert rep.rho_num <= 0.98


def test_criterion_6c_determinism():
    # two fresh runs of the same configuration agree bitwise
    failures = []
    for method, k, s, max_outer in [("mlsm-aa1", 2, 2, 1000),
                                    ("si", 1, 1, 50)]:
        cfg = IterationConfig(method=method, k_max=k, s_max=s, epsilon=EPS,
                              max_outer=max_outer)
        first = run_problem(_SPECS["test2"], cfg)
        second = run_problem(_SPECS["test2"], cfg)
        if first.residual_history != second.residual_history:
            failures.append(f"{method} residual histories differ")
        if not np.array_equal(first.state.grey_phi, second.state.grey_phi):
            failures.append(f"{method} grey flux differs")
        if not np.array_equal(first.state.phi, second.state.phi):
            failures.append(f"{method} group fluxes differ")
    _verdict("6c", failures)


def test_criterion_6d_aa1_properties():
    failures = []
    # secant exactness on scalar affine maps A(x) = a x + b: the driver's
    # combination x2 = a0 A(x0) + a1 A(x1) hits the fixed point b / (1 - a)
    rng = np.random.RandomState(314)
    for _ in range(100):
        a = rng.uniform(-0.9, 0.9)
        b = rng.uniform(-2, 2)
        x0 = rng.uniform(-4, 4)
        x1 = a * x0 + b
        ax0, ax1 = x1, a * x1 + b
        a0 = aa1_alpha(np.array([ax0 - x0]), np.array([ax1 - x1]))
        a1 = 1.0 - a0
        x2 = a0 * ax0 + a1 * ax1
        fixed = b / (1 - a)
        if abs(x2 - fixed) > 1e-8 * max(1.0, abs(fixed)):
            failures.append(f"secant miss for a={a:.3f}")
            break
    # projection inequality on random vectors
    for _ in range(200):
        rp = rng.randn(rng.randint(2, 30))
        rc = rng.randn(rp.size)
        a0 = aa1_alpha(rp, rc)
        a1 = 1.0 - a0
        if abs(a0 + a1 - 1.0) > 1e-14:
            failures.append("alpha constraint violated")
            break
        combo = np.linalg.norm(a0 * rp + a1 * rc)
        if combo > min(np.linalg.norm(rp), np.linalg.norm(rc)) + 1e-12:
            failures.append("projection inequality violated")
            break
    _verdict("6d", failures)


def test_criterion_6e_quadrature_properties():
    failures = []
    quad = build_double_gauss(8)
    if abs(quad.w.sum() - 2.0) > 1e-14:
        failures.append("weight normalization")
    if abs((quad.w * quad.mu**2).sum() - 2.0 / 3.0) > 1e-14:
        failures.append("second moment not exact")
    for k in range(2 * 8):
        pos = quad.mu > 0
        if abs((quad.w[pos] * quad.mu[pos]**k).sum() - 1 / (k + 1)) > 5e-14:
            failures.append(f"half-range degree {k} not exact")
    # P annihilates fluxes linear in mu
    psi = np.zeros((quad.n_angles, 4, 2))
    psi[:, :, 0] = (2.0 - 0.7 * quad.mu)[:, None]
    P = angular_moments(psi, quad).P
    if np.abs(P).max() > 1e-14:
        failures.append("P moment of linear-in-mu flux nonzero")
    _verdict("6e", failures)


def test_criterion_6f_particle_balance():
    failures = []
    rep = _run("test2", "mlsm", 2, 4)
    st = rep.state
    spec = _SPECS["test2"]
    mesh = Mesh.uniform(spec.width, spec.n_cells)
    # grey balance: leakage + absorption = source, from the final grey solve
    c = st.grey_coeffs
    phi_n = to_nodes(st.grey_phi)
    a_n = to_nodes(c.sbar_a)
    J_left = -0.5 * phi_n[0, 0] + st.grey_closure.dJ[0]
    J_right = 0.5 * phi_n[-1, 1] + st.grey_closure.dJ[-1]
    absorbed = float(np.sum(0.5 * (a_n * phi_n).sum(axis=1) * mesh.dx))
    source = float(np.sum(c.Q[:, 0] * mesh.dx))
    dev = abs((J_right - J_left) + absorbed - source) / abs(source)
    if dev > 1e-8:
        failures.append(f"grey balance dev {dev:.2e}")
    # per-group balance of a fresh converged-state solve
    system = LowOrderSystem(spec, mesh)
    S = group_source(system, st.phi, st.zeta)
    phi_new, _ = system.group_pass(st.phi, st.zeta, st.closures)
    lhs, src = group_particle_balance(spec, mesh, phi_new, S, st.closures)
    for g in np.flatnonzero(np.abs(lhs - src) / np.abs(src) > 1e-10):
        failures.append(f"group {g + 1} balance {abs(lhs[g] - src[g]):.2e}")
    _verdict("6f", failures)


def test_criterion_6g_manufactured_order():
    failures = []
    quad = build_double_gauss(4)
    sigma, W = 1.0, 4.0
    # vanishes on the vacuum inflow edges
    exact, source = curved_solution(W)
    errors = []
    for n in (16, 32, 64):
        mesh = Mesh.uniform(W, n)
        rhs = np.zeros((quad.n_angles, n, 2))
        for m, mu in enumerate(quad.mu):
            rhs[m] = project_ld(lambda x: source(x, mu, sigma), mesh)
        ops = ProblemOperators([sigma], [sigma], mesh.dx, 4)
        psi = sweep_per_direction(ops, rhs[None])[0]
        errors.append(l2_error(psi, exact, mesh, quad))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    if not np.all(orders >= 1.9):
        failures.append(f"observed orders {orders}")
    _verdict("6g", failures)


# ---------------------------------------------------------------------------
# The produced table: every benchmark cell as the benchmark pins it
# ---------------------------------------------------------------------------

def _bench_module(name):
    """bench/<name>.py, loaded from its file under a private name."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_are_bound(monkeypatch):
    # bench/tracer.py patches these names, and bench/run.py times this
    # set-up statement; a name that is gone reads as an absent layer
    tracer = _bench_module("tracer")
    for _, name in tracer.DRIVER_HOOKS:
        assert callable(getattr(driver, name, None)), name
    for _, attr in tracer.SYSTEM_HOOKS:
        assert callable(vars(LowOrderSystem).get(attr)), attr
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    assert _bench_module("run").measure_setup("test1") > 0.0


def _names_read(path):
    """Every name the code of the file loads, imports or loads as an
    attribute, except inside a def or class of that same name: an
    assignment's own target is not a read."""
    names, stack = set(), [(ast.parse(path.read_text()), frozenset())]
    while stack:
        node, owners = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owners |= {node.name}
        load = isinstance(getattr(node, "ctx", None), ast.Load)
        name = (node.id if isinstance(node, ast.Name) and load
                else node.attr if isinstance(node, ast.Attribute) and load
                else node.name.rpartition(".")[2]
                if isinstance(node, ast.alias) else None)
        if name is not None and name not in owners:
            names.add(name)
        stack += [(child, owners) for child in ast.iter_child_nodes(node)]
    return names


def _module_names(path):
    """The names that the module-level defs, classes and assignments of
    the file bind."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from (n.id for target in targets
                        for n in ast.walk(target) if isinstance(n, ast.Name))


def test_no_public_name_serves_only_the_tests():
    # every module-level public function, class and assigned name of the
    # package is read by the package, the benchmark or the tools outside
    # its own def or class: nothing is exported only so a test can use it
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "slabsm").glob("*.py"))
    read = set().union(*(_names_read(path) for path in (
        *package, *(root / "bench").glob("*.py"),
        *(root / "tools").glob("*.py")) if not path.name.startswith("test_")))
    unread = [f"{path.stem}.{name}" for path in package
              for name in _module_names(path)
              if not name.startswith("_") and name not in read]
    assert unread == []


def _table_runs():
    """(cell, report) of every benchmark cell, from the shared run cache."""
    workloads = _bench_module("workloads")
    cells = sorted({c for w in workloads.WORKLOADS.values() for c in w.cells})
    assert len(cells) == 13
    runs = []
    for cell in cells:
        kw = ({} if cell.max_outer == IterationConfig.max_outer
              else {"max_outer": cell.max_outer})
        runs.append((cell, _run(cell.problem, cell.method, cell.k_max,
                                cell.s_max, **kw)))
    return runs


def test_produced_table_matches_the_benchmark_reference():
    # the windows above hold the published numbers; this holds the
    # produced ones where they are: N_t, M_lo and status exact, the grey
    # flux (and the SI residual history) to 1e-12, rho_num to the
    # benchmark's bound, by bench/reference.py's own rule
    reference = _bench_module("reference")
    pinned = reference.load_reference()["cells"]
    failures = []
    for cell, rep in _table_runs():
        failures += [f"{cell.key}: {m}"
                     for m in reference.mismatches(pinned[cell.key], rep)]
    _verdict("produced table", failures)


# measured over the 12 multilevel cells: grey phi 2.3e-13 to 2.2e-12 of
# the oracle's max, group phi 1.1e-12 to 5.6e-12 (LO) and 5.4e-13 to
# 5.9e-12 (HO); the bounds are about five times the worst
ORACLE_GREY_BOUND = 1e-11
ORACLE_GROUP_BOUND = 3e-11


def test_table_cells_land_on_the_exact_discrete_solution():
    # every converged multilevel cell's answer, judged against the
    # solution of the discrete equations rather than another run: a change
    # that reorders the arithmetic does not move these bounds
    failures, checked = [], 0
    for cell, rep in _table_runs():
        if cell.method == "si" or rep.status != "converged":
            continue
        phi = oracle_flux(_SPECS[cell.problem])
        grey = phi.sum(axis=0)
        st_ = rep.state
        errors = {
            "grey phi": (np.max(np.abs(st_.grey_phi - grey))
                         / np.max(np.abs(grey)), ORACLE_GREY_BOUND),
            "LO phi": (np.max(np.abs(st_.phi - phi)) / np.max(np.abs(phi)),
                       ORACLE_GROUP_BOUND),
            "HO phi": (np.max(np.abs(st_.phi_ho - phi))
                       / np.max(np.abs(phi)), ORACLE_GROUP_BOUND),
        }
        failures += [f"{cell.key}: {name} {err:.2e} > {bound:.0e}"
                     for name, (err, bound) in errors.items()
                     if not err <= bound]
        checked += 1
    if checked != 12:
        failures.append(f"{checked} converged multilevel cells, not 12")
    _verdict("exact discrete solution", failures)


# ---------------------------------------------------------------------------
# 7. Cost accounting
# ---------------------------------------------------------------------------

def test_criterion_7_cost_accounting():
    failures = []
    checked = 0
    for key, rep in _RUN_CACHE.items():
        cfg = rep.config
        if cfg.method == "si":
            continue
        expected = cfg.k_max * (cfg.s_max + 1)
        if rep.M_lo != expected:
            failures.append(f"{key} M_lo={rep.M_lo} vs {expected}")
        if any(c != expected for c in rep.lo_solve_counts):
            failures.append(f"{key} per-outer counts {set(rep.lo_solve_counts)}")
        checked += 1
    if checked < 10:
        failures.append(f"only {checked} runs instrumented")
    _verdict(7, failures)
