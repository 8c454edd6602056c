"""Level 1: linear-discontinuous transport sweep of the decoupled groups.

Both edges of the slab are vacuum boundaries: no particles enter, so every
march starts from psi_in = 0.  Weak form per cell and direction, with
upwind edge fluxes.  For mu > 0 (left-to-right march) the 2x2 cell system
for (psi_avg, psi_slope) is

    (mu + st*dx) a +        mu  s = dx*q_avg   + mu*psi_in
        -3 mu    a + (3mu + st*dx) s = dx*q_slope - 3*mu*psi_in

and the outflow trace a + s feeds the next cell.  A direction mu < 0 is
the same march with |mu| over the mirrored slab: cells in reverse order,
source and flux slopes negated, inflow from the right.  Each operation of
that march is an exact sign flip of the right-to-left cell solve, so every
direction of every group runs in one march of N steps, with the same
results.  The mu < 0 directions are the first half (AngularQuadrature
enforces that layout), so the mirror acts on a slice.

The march is one C function, slabsm_march in _march.c, which each sweep
calls once through ctypes; kernel loads it and types it from its C
prototype, as every function of the library.  The same library holds the
hand-off of psi to the low-order levels, slabsm_closure and
slabsm_closure_terms, which losm calls (closure_from_sweep, ClosureData),
and the Levels 2-3 arithmetic of build_ho_rhs and losm: slabsm_ho_rhs,
slabsm_zeta, slabsm_scattering_xs, slabsm_grey_xs, slabsm_group_rhs,
slabsm_group_residual and slabsm_grey_system.
The march runs the L = G*M independent lanes, in (group, direction)
order, in blocks of up to eight directions of one group and one half,
and each block over all N cells, so each lane writes its own psi row in
cell order and the block's lanes, which meet the same cell at each step,
run as one vectorised loop.  It reads the isotropic source (G, N, 2),
the same for every direction of its group, and writes psi (G, M, N, 2) in
place: a block of the mu < 0 half meets cell N-1-i at step i, forms
dx*q_slope there as q_slope*(-dx) and writes its slope as s*(-1).
x*(-dx) is -(x*dx) bit for bit, IEEE rounding being symmetric in sign, so
these are the mirror's negated slopes.

With m = |mu|, sd = st*dx and det = 6m^2 + 4m*sd + sd^2, a step of a lane
of inflow trace y solves its cell in packed form,

    qa = dx*q_avg + m*y,    qs = dx*q_slope + (-3m)*y,
    a = ((3m + sd)*qa + (-m)*qs) / det,    s = ((m + sd)*qs + 3m*qa) / det,

and y = a + s feeds the next cell.  The coefficients depend on sigma_t,
dx and mu only, so a block forms them at its first cell and again
wherever the width differs from the cell before's in its half's cell
order: once a block on a uniform mesh.  This
rounds exactly as the unpacked solve
a = ((3m + sd) qa - m qs) / det, s = (3m qa + (m + sd) qs) / det with
qs = dx*q_slope - 3m psi_in: IEEE defines x - y*z as x + (-y)*z, signed
zeros included, 3m*x is (3m)*x, and each two-term sum is the same single
rounding (IEEE addition and multiplication commute).  That holds only if
the compiler rounds every product and sum on its own: _march.c is built
with -ffp-contract=off, since a fused multiply-add rounds a*b + c once,
and without -ffast-math, which would let it reorder the sums.

The library is compiled on first use, by the first call of the process
into it (a sweep, or a closure built without one), with sysconfig's CC
(else cc), and kept in the per-user cache ($XDG_CACHE_HOME or ~/.cache,
under slabsm/), named by the SHA-256 of the C source and the compile
command; importing slabsm or building an operator record or a
LowOrderSystem builds and loads nothing.  A sweep writes nothing but its
own psi and the kernel's inflow traces and coefficient rows, which live
on its stack, so sweeps of one record may run at once, and ctypes
releases the GIL for the call.
"""

from __future__ import annotations

import functools
import operator
import re
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_march.c")
# -ftree-vectorize runs the march's lanes and the closures' and residual's
# loops over the cells as SIMD loops.  That is bitwise: each lane's
# arithmetic is the same IEEE operations, and without -ffast-math no sum
# is reassociated.  tests/test_sanitizers.py holds it so, comparing an
# -O1 scalar build of the library bit for bit with this one.
_FLAGS = ("-O2", "-ftree-vectorize", "-fvect-cost-model=dynamic", "-fPIC",
          "-shared", "-ffp-contract=off")


def sweep_batch(ops, rhs: np.ndarray) -> np.ndarray:
    """Sweep every group and direction of one problem, of operator record
    `ops` (losm.ProblemOperators), in one pass between vacuum boundaries,
    (G, M, N, 2).  The march reads the record's sigma_t (G,), mabs = |mu|
    (M,) and dx (N,), which the record has checked.  rhs is the isotropic
    source density per unit mu, (G, N, 2), which every direction of its
    group reads; any other shape is a ValueError.  One call of the
    compiled march (kernel, loaded by the first sweep of the process) on
    the record's sizes and addresses (ProblemOperators.march), which
    writes only the psi returned, a new array."""
    G, M, N = ops.march[:3]
    rhs = checked(rhs, (G, N, 2))
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs must be finite")
    psi = np.empty((G, M, N, 2))
    kernel("slabsm_march")(*ops.march, rhs.ctypes.data, psi.ctypes.data)
    return psi


# a function that _march.c exports: `type slabsm_name(parameters)` at the
# start of a line, which kernel types it by
_PROTOTYPE = re.compile(r"^(\w+) (slabsm_\w+)\(([^)]*)\)", re.M)

# the address of an array that the caller holds, by a name or a list, through
# the call: an array made in the call's own arguments is freed before it runs
address = operator.attrgetter("ctypes.data")


def checked(array, shape: tuple) -> np.ndarray:
    """array as a C-contiguous float64 array of `shape`, -1 for any length,
    or a ValueError: the check before its address reaches the library."""
    a = np.ascontiguousarray(array, dtype=float)
    if a.ndim != len(shape) or any(m != n != -1
                                   for m, n in zip(a.shape, shape)):
        raise ValueError(f"array of shape {a.shape}, expected {shape}")
    return a


@functools.cache
def kernel(name: str):
    """Function `name` of _march.c, typed from its prototype (_PROTOTYPE):
    ptrdiff_t as c_ssize_t, any pointer as c_void_p, an int return as c_int
    and void as None; any other type is a RuntimeError naming the function
    and the parameter, raised before the library is built or loaded.
    Loaded on its first call in the process from the library _library
    builds; ctypes releases the GIL for each call."""
    import ctypes

    returns, params = {found: (r, p) for r, found, p in _PROTOTYPE.findall(
        _SOURCE.read_text())}[name]
    if returns not in ("int", "void"):
        raise RuntimeError(f"{name} returns {returns}: not int or void")
    argtypes = []
    for param in params.split(","):
        param = " ".join(param.split())
        if "*" not in param and param.rsplit(" ", 1)[0] != "ptrdiff_t":
            raise RuntimeError(f"{name} takes {param}: not a ptrdiff_t or "
                               "a pointer")
        argtypes.append(ctypes.c_void_p if "*" in param else ctypes.c_ssize_t)
    function = getattr(ctypes.CDLL(_library()), name)
    function.argtypes = argtypes
    function.restype = ctypes.c_int if returns == "int" else None
    return function


def _library() -> str:
    """Path of _march.c compiled with sysconfig's CC (else cc) and _FLAGS
    in the per-user cache, $XDG_CACHE_HOME or ~/.cache, under slabsm/ (a
    directory only its owner may write), named by the SHA-256 of the
    source and the compile command.  Compiled on a miss to a temporary
    name and moved into place, so a library found there is whole.  A
    RuntimeError names the command and its error output if the compiler
    cannot be run or fails, leaving nothing in the cache."""
    import hashlib
    import os
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"),
               *_FLAGS]
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(
        "\0".join(command).encode() + b"\0" + source).hexdigest()
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    cache = os.path.join(root, "slabsm")
    os.makedirs(cache, mode=0o700, exist_ok=True)
    status = os.stat(cache)
    if status.st_uid != os.getuid() or status.st_mode & 0o022:
        raise RuntimeError(f"{cache} is another user's or writable by "
                           "others; the march library is not loaded from it")
    path = os.path.join(cache, f"_march-{digest[:32]}.so")
    if os.path.exists(path):
        return path
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    run = [*command, "-o", tmp, str(_SOURCE)]
    try:
        try:
            done = subprocess.run(run, capture_output=True, text=True)
        except OSError as err:
            raise RuntimeError(f"cannot run the C compiler: {shlex.join(run)}"
                               f": {err}") from err
        if done.returncode:
            raise RuntimeError(f"the C compiler failed: {shlex.join(run)}\n"
                               f"{done.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def build_ho_rhs(grey_phi: np.ndarray, sbar_s: np.ndarray,
                 Q: np.ndarray) -> np.ndarray:
    """Isotropic sweep sources 0.5*(sbar_s,g * grey_phi) + 0.5*Q_g, (G, N, 2)
    from the averaged cross sections sbar_s (G, N, 2) and sources Q (G,).

    The product of the two LD fields is collocated at the cell-edge values,
    which keeps the averaged-cross-section identity exact at convergence.
    One call of the compiled slabsm_ho_rhs.
    """
    sbar_s = checked(sbar_s, (-1, -1, 2))
    G, N = sbar_s.shape[:2]
    arrays = [sbar_s, checked(grey_phi, (N, 2)), checked(Q, (G,)),
              np.empty((G, N, 2))]
    kernel("slabsm_ho_rhs")(G, N, *map(address, arrays))
    return arrays[-1]
