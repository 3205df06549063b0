"""First-order optimizers over flat parameter vectors.

The trainer treats all hyper-parameters (GP noise/prior scales and network
weights, eq. 12) as a single flat vector, so optimizers here are stateful
maps ``(params, grads) -> new params``.
"""

from __future__ import annotations

import numpy as np


class Optimizer:
    """Base interface: stateful first-order update on a flat vector."""

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Return updated parameters given the current gradient."""
        raise NotImplementedError

    def reset(self):
        """Clear internal state (moments, step counters)."""


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, lr: float = 1e-2, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        grads = np.asarray(grads, dtype=float)
        if self._velocity is None or self._velocity.shape != params.shape:
            self._velocity = np.zeros_like(params)
        self._velocity = self.momentum * self._velocity - self.lr * grads
        return params + self._velocity

    def reset(self):
        self._velocity = None


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias-corrected moment estimates.

    This is the workhorse for maximizing the marginal likelihood (eq. 11):
    the loss surface couples network weights with ``log sigma^2`` terms of very
    different curvature, which per-coordinate step adaptation handles well.
    """

    def __init__(
        self,
        lr: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        grads = np.asarray(grads, dtype=float)
        if self._m is None or self._m.shape != params.shape:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
            self._t = 0
        self._t += 1
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * grads
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * grads**2
        m_hat = self._m / (1.0 - self.beta1**self._t)
        v_hat = self._v / (1.0 - self.beta2**self._t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def reset(self):
        self._m = None
        self._v = None
        self._t = 0


class StackedAdam(Optimizer):
    """Adam over an ``(S, P)`` parameter matrix with per-slice state.

    Drives the batched surrogate engine: row ``s`` holds the flat parameter
    vector of stacked network ``s``.  Because Adam is elementwise, each row
    evolves exactly as a scalar-``t`` :class:`Adam` instance dedicated to
    that slice would — *provided* resets and skipped steps are tracked per
    slice, which is what the step counter vector ``t`` and the ``mask``
    argument provide:

    * ``step(params, grads, mask)`` updates only rows where ``mask`` is
      true; masked-out rows keep their parameters and moments untouched
      (the serial trainer's ``continue`` on a non-finite loss),
    * ``reset_slices(mask)`` zeroes the moments and counter of selected
      rows only (the serial trainer's per-member ``optimizer.reset()``).

    Each row's evolution is bitwise identical to a scalar :class:`Adam`
    dedicated to it.
    """

    def __init__(
        self,
        lr: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t: np.ndarray | None = None
        self._s1: np.ndarray | None = None
        self._s2: np.ndarray | None = None

    def step(
        self, params: np.ndarray, grads: np.ndarray, mask: np.ndarray | None = None
    ) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        grads = np.asarray(grads, dtype=float)
        if params.ndim != 2:
            raise ValueError(f"StackedAdam expects (S, P) params, got {params.shape}")
        if self._m is None or self._m.shape != params.shape:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
            self._t = np.zeros(params.shape[0], dtype=int)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.all():
                mask = None
        if mask is None:
            # fast path (every slice steps): in-place updates through two
            # scratch buffers — every operation matches the serial Adam's
            # expression tree element for element, so per-slice evolution
            # stays bitwise identical while (S, P)-sized temporaries are
            # reused instead of reallocated every step
            if self._s1 is None or self._s1.shape != params.shape:
                self._s1 = np.empty_like(params)
                self._s2 = np.empty_like(params)
            s1, s2 = self._s1, self._s2
            self._t += 1
            np.multiply(grads, 1.0 - self.beta1, out=s1)
            np.multiply(self._m, self.beta1, out=self._m)
            self._m += s1
            np.multiply(grads, grads, out=s2)
            np.multiply(s2, 1.0 - self.beta2, out=s2)
            np.multiply(self._v, self.beta2, out=self._v)
            self._v += s2
            denom1, denom2 = self._bias_denominators(self._t)
            np.divide(self._m, denom1[:, None], out=s1)  # m_hat
            np.divide(self._v, denom2[:, None], out=s2)  # v_hat
            np.multiply(s1, self.lr, out=s1)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s1 /= s2
            return params - s1
        col = mask[:, None]
        t_new = np.where(mask, self._t + 1, self._t)
        # masked-out rows may carry non-finite gradients; their updates are
        # computed and discarded, so silence the spurious FP warnings
        with np.errstate(invalid="ignore", over="ignore"):
            m_new = np.where(
                col, self.beta1 * self._m + (1.0 - self.beta1) * grads, self._m
            )
            v_new = np.where(
                col, self.beta2 * self._v + (1.0 - self.beta2) * grads**2, self._v
            )
            denom1, denom2 = self._bias_denominators(np.maximum(t_new, 1))
            m_hat = m_new / denom1[:, None]
            v_hat = v_new / denom2[:, None]
            stepped = params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        self._m, self._v, self._t = m_new, v_new, t_new
        return np.where(col, stepped, params)

    def _bias_denominators(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-slice ``1 - beta**t`` via Python pow.

        ``np.power`` is not bitwise identical to the scalar ``beta ** t``
        the per-member Adam computes, and the engine guarantees exact
        per-slice equivalence; S is small, so scalar pow per slice is free.
        """
        denom1 = np.array([1.0 - self.beta1 ** int(ti) for ti in t])
        denom2 = np.array([1.0 - self.beta2 ** int(ti) for ti in t])
        return denom1, denom2

    def reset_slices(self, mask: np.ndarray):
        """Zero the moments and step counter of the selected rows."""
        if self._m is None:
            return
        mask = np.asarray(mask, dtype=bool)
        self._m[mask] = 0.0
        self._v[mask] = 0.0
        self._t[mask] = 0

    def reset(self):
        self._m = None
        self._v = None
        self._t = None
        self._s1 = None
        self._s2 = None
