"""Per-slice posterior solves of the stacked engine on the host CPU.

:meth:`~repro.core.batched_gp.BatchedNeuralFeatureGP.update_posterior`
factorizes one ``(S, M, M)`` stack of A-matrices and then needs, per
slice, both ``r = A^{-1} u`` and ``A^{-1}`` itself.  Slices are
independent and each runs the exact serial LAPACK kernel, so fanning the
loop over ``threads`` workers (LAPACK releases the GIL) changes
wall-clock only, never a bit of the results.
"""

from __future__ import annotations

import numpy as np

from repro.gp.linalg import map_slices, solve_r_and_inverse


def batched_solve_r_and_inverse(
    chol: np.ndarray, u: np.ndarray, threads: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-slice ``(A^{-1} u, A^{-1})`` sharing one ``dpotrs`` each.

    ``chol`` is the ``(S, M, M)`` stack of lower factors and ``u`` the
    ``(S, M)`` right-hand sides.
    """
    s_stack, m = u.shape
    r = np.empty((s_stack, m))
    a_inv = np.empty_like(chol)

    def solve(s: int) -> None:
        r[s], a_inv[s] = solve_r_and_inverse(chol[s], u[s])

    map_slices(solve, s_stack, threads)
    return r, a_inv
