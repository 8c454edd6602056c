"""Every function of the compiled library under AddressSanitizer and
UndefinedBehaviorSanitizer.

Tier-1 checks the library's bits on valid inputs, not its memory safety:
an out-of-bounds write could corrupt numpy's heap without changing a
result.  So _march.c is built here with the sanitizers, and with every
warning an error, into the test's temporary directory (never the library
cache), and a fresh interpreter that preloads the sanitizer runtimes
makes each call of `results` with it: the march, with a shared and a
per-direction source, and both closure functions, batched, on one
group's psi alone and on the grey sums.  Any report or warning on its
error output fails the test, and its results must be the bits of the
cached library's.
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
from slabsm.losm import (ProblemOperators, closure_from_sweep,
                         problem_operators, sum_closures)
from slabsm.problem import builtin_problem
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


def _records():
    """Operator records on the shape edges: one group, one cell, one
    direction per half, seeded nonuniform meshes, and test1 and test2."""
    rng = np.random.RandomState(17)
    for G, N, n_half in ((1, 1, 1), (1, 6, 1), (3, 1, 2), (2, 9, 3),
                         (4, 16, 4)):
        sigma_t = rng.rand(G) + 0.5
        yield ProblemOperators(sigma_t, sigma_t, rng.rand(N) + 0.05, n_half)
    for name in ("test1", "test2"):
        spec = builtin_problem(name)
        yield problem_operators(spec, Mesh.uniform(spec.width, spec.n_cells))


def results():
    """The outputs of every library call on every record of _records."""
    rng = np.random.RandomState(18)
    out = []
    for ops in _records():
        quad = build_double_gauss(ops.n_half)
        G, M, N = ops.sigma_t.size, ops.mabs.size, ops.dx.size
        for shape in ((G, N, 2), (G, M, N, 2)):
            psi = sweep.sweep_batch(ops, rng.rand(*shape))
            closures = closure_from_sweep(psi, quad,
                                          angular_moments(psi, quad), ops)
            alone = closure_from_sweep(psi[-1], quad,
                                       angular_moments(psi[-1], quad), ops)
            out.append(psi)
            for clo in (closures, alone, sum_closures(closures)):
                out += [clo.dJ, clo.dphi, clo.Phat, clo.terms]
    return out


def test_library_is_clean_under_the_sanitizers(tmp_path):
    # results() calls these; a function added to the library must be
    # added there too
    assert set(sweep._SIGNATURES) == {"slabsm_march", "slabsm_closure",
                                      "slabsm_closure_terms"}
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
