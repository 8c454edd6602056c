"""Every function of the compiled library under AddressSanitizer and
UndefinedBehaviorSanitizer.

Tier-1 checks the library's bits on valid inputs, not its memory safety:
an out-of-bounds write could corrupt numpy's heap without changing a
result.  So _march.c is built here with the sanitizers, and with every
warning an error, into the test's temporary directory (never the library
cache), and a fresh interpreter that preloads the sanitizer runtimes
makes each call of `results` with it: the march, both closure
functions, batched, on one group's psi alone and on the grey sums, and
the Level-2/3 arithmetic: the
averaged cross sections, zeta, the sweep source, the grey coefficients,
the grey band and right side, the group right sides and the AA(1)
residual, on each problem's sweep and on zero fluxes, where every
safeguard fallback is taken, and a grey system with a NaN coefficient.
Any report or warning on its error output fails the test, and its
results must be the bits of the cached library's.  The sanitized build is
-O1, which vectorises no loop, so this also holds the cached library,
whose loops sweep._FLAGS vectorises, to the scalar arithmetic.
"""

import os
import pathlib
import shlex
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

from slabsm import sweep
from slabsm.angular import angular_moments, build_double_gauss
from slabsm.fields import Mesh
from slabsm.losm import (GreyCoefficients, LowOrderSystem,
                         avg_scattering_xs, closure_from_sweep, compute_zeta,
                         grey_xs, problem_operators, sum_closures)
from slabsm.problem import ProblemSpec, builtin_problem
from test_losm import _same_bits

FLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-ffp-contract=off",
         "-Wall", "-Wextra", "-Werror", "-fPIC", "-shared")
RUNTIMES = ("libasan.so", "libubsan.so")

# a fresh interpreter that loads the library argv[1] in place of the
# cached one and saves `results` to argv[2]
_CHILD = """
import sys
import numpy as np
from slabsm import sweep
sweep._library = lambda: sys.argv[1]
from test_sanitizers import results
np.savez(sys.argv[2], *results())
"""


def _problems():
    """(spec, mesh) on the shape edges: one group, one cell, one direction
    per half, nine directions per half (a full block of the march's lanes
    and a tail), seeded nonuniform meshes, and test1 and test2."""
    rng = np.random.RandomState(17)
    for G, N, n_half in ((1, 1, 1), (1, 6, 1), (3, 1, 2), (2, 9, 3),
                         (4, 16, 4), (2, 7, 9)):
        sigma_t = rng.rand(G) + 0.5
        sigma_s = rng.rand(G, G) * sigma_t * (0.9 / G)
        mesh = Mesh(rng.rand(N) + 0.05)
        yield ProblemSpec(G, sigma_t, sigma_s, rng.rand(G),
                          width=mesh.dx.sum(), n_cells=N,
                          n_half=n_half), mesh
    for name in ("test1", "test2"):
        spec = builtin_problem(name)
        yield spec, Mesh.uniform(spec.width, spec.n_cells)


def results():
    """The outputs of every library call on every problem of _problems."""
    rng = np.random.RandomState(18)
    out = []
    for spec, mesh in _problems():
        ops = problem_operators(spec, mesh)
        system = LowOrderSystem(spec, mesh)
        quad = build_double_gauss(ops.n_half)
        G, N = ops.sigma_t.size, ops.dx.size
        psi = sweep.sweep_batch(ops, rng.rand(G, N, 2))
        moments = angular_moments(psi, quad)
        closures = closure_from_sweep(psi, quad, moments, ops)
        alone = closure_from_sweep(psi[-1], quad,
                                   angular_moments(psi[-1], quad), ops)
        grey = sum_closures(closures)
        out.append(psi)
        for clo in (closures, alone, grey):
            out += [clo.dJ, clo.dphi, clo.Phat, clo.terms]
        for phi, J in ((moments.phi, moments.J),
                       (np.zeros((G, N, 2)), np.zeros((G, N, 2)))):
            sbar_s = avg_scattering_xs(phi, spec.sigma_s)
            coeffs = grey_xs(phi, J, spec)
            grey_phi, grey_J = system.solve_grey(coeffs, grey)
            zeta = compute_zeta(grey_phi, phi)
            out += [sbar_s, coeffs.sbar_a, coeffs.sbar_t, coeffs.eta,
                    coeffs.Q, grey_phi, grey_J, zeta,
                    sweep.build_ho_rhs(grey_phi, sbar_s, spec.Q),
                    *system.group_pass(phi, zeta, closures),
                    system.equation_residual(phi, J, zeta, closures)]
        nan = np.full((N, 2), np.nan)
        out += system.solve_grey(GreyCoefficients(
            nan, coeffs.sbar_t, coeffs.eta, coeffs.Q), grey)
    return out


def test_library_is_clean_under_the_sanitizers(tmp_path):
    # results() calls these; a function added to the library must be
    # added there too
    assert set(sweep._SIGNATURES) == {
        "slabsm_march", "slabsm_closure", "slabsm_closure_terms",
        "slabsm_zeta", "slabsm_scattering_xs", "slabsm_ho_rhs",
        "slabsm_grey_xs", "slabsm_grey_system", "slabsm_group_rhs",
        "slabsm_group_residual"}
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    preload = []
    for runtime in RUNTIMES:
        found = subprocess.run([*cc, f"-print-file-name={runtime}"],
                               capture_output=True, text=True).stdout.strip()
        if not os.path.isabs(found):
            pytest.fail(f"{shlex.join(cc)} finds no sanitizer runtime "
                        f"{runtime}")
        preload.append(found)
    library = tmp_path / "_march-sanitized.so"
    build = [*cc, *FLAGS, "-o", str(library), str(sweep._SOURCE)]
    done = subprocess.run(build, capture_output=True, text=True)
    assert done.returncode == 0 and done.stderr == "", (
        f"{shlex.join(build)}\n{done.stderr}")

    tests = pathlib.Path(__file__).parent
    env = dict(os.environ, LD_PRELOAD=" ".join(preload),
               ASAN_OPTIONS="detect_leaks=0",
               UBSAN_OPTIONS="print_stacktrace=1",
               PYTHONPATH=os.pathsep.join(
                   [str(pathlib.Path(sweep.__file__).parents[1]),
                    str(tests)]))
    saved = tmp_path / "results.npz"
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(library),
                           str(saved)], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    with np.load(saved) as got:
        want = results()
        assert len(got.files) == len(want)
        for i, array in enumerate(want):
            assert _same_bits(got[f"arr_{i}"], array), i
