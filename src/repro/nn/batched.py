"""Stacked networks: S independent MLPs trained as one tensor program.

Performance architecture — the stack axis
-----------------------------------------

The paper's surrogate trains K ensemble members for each of T modelled
quantities (objective + constraints), i.e. S = K * T structurally identical
networks per BO iteration.  Looping over them in Python wastes almost all
of the wall-clock on interpreter overhead and tiny GEMMs.  Here every
parameter and activation carries a *leading stack axis* ``S``:

* weights have shape ``(S, in_dim, out_dim)``, biases ``(S, out_dim)``,
* activations have shape ``(S, N, width)``,

so one stacked ``matmul`` call advances all S networks at once (the
stacked matmul dispatches to one GEMM per slice without re-entering
Python).  A shared 2-D input ``(N, in_dim)`` broadcasts across the stack
on the first layer, exactly as if each network had been fed the same
batch.

Per-slice numerical equivalence
-------------------------------

Every tensor is a numpy array, and each stacked operation applies, slice
by slice, the *same* BLAS kernel the per-member path uses, so slice ``s``
of a :class:`BatchedSequential` built with ``rngs[s]`` reproduces
``make_mlp(..., rng=rngs[s])`` forward and backward bit-for-bit.  The
equivalence tests in ``tests/nn/test_batched.py`` and
``tests/core/test_batched_gp.py`` pin this contract.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.nn.activations import make_activation
from repro.nn.initializers import he_normal, xavier_uniform
from repro.nn.layers import Layer
from repro.utils.rng import ensure_rng


class BatchedLinear(Layer):
    """S independent fully-connected layers evaluated by one stacked matmul.

    Parameters
    ----------
    in_dim, out_dim:
        Per-slice input/output widths.
    rngs:
        One generator per slice; slice ``s``'s weight matrix is drawn with
        ``weight_init((in_dim, out_dim), rngs[s])`` — the identical draw a
        standalone :class:`~repro.nn.layers.Linear` would make, so batched
        and per-member networks can share initial weights exactly.
    weight_init:
        Callable ``(shape, rng) -> ndarray`` used per slice.
    """

    def __init__(self, in_dim: int, out_dim: int, rngs, weight_init=he_normal):
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(f"layer dims must be positive, got {in_dim}x{out_dim}")
        rngs = list(rngs)
        if not rngs:
            raise ValueError("BatchedLinear needs at least one slice rng")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.n_stack = len(rngs)
        self.weight = np.stack(
            [np.asarray(weight_init((in_dim, out_dim), rng), dtype=float) for rng in rngs]
        )
        self.bias = np.zeros((self.n_stack, out_dim))
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x = None

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            # shared input: broadcast one (N, in_dim) batch across the stack
            if x.shape[1] != self.in_dim:
                raise ValueError(
                    f"BatchedLinear({self.in_dim}->{self.out_dim}) got shape {tuple(x.shape)}"
                )
        elif x.ndim == 3:
            if x.shape[0] != self.n_stack or x.shape[2] != self.in_dim:
                raise ValueError(
                    f"BatchedLinear(S={self.n_stack}, {self.in_dim}->{self.out_dim}) "
                    f"got shape {tuple(x.shape)}"
                )
        else:
            raise ValueError(f"input must be 2-D or 3-D, got shape {tuple(x.shape)}")
        self._x = x
        return x @ self.weight + self.bias[:, None, :]

    def backward(self, grad_out):
        if self._x is None:
            raise RuntimeError("backward() called before forward()")
        grad_out = np.asarray(grad_out, dtype=float)
        if self._x.ndim == 2:
            self.grad_weight += self._x.T @ grad_out
        else:
            self.grad_weight += np.swapaxes(self._x, -1, -2) @ grad_out
        self.grad_bias += np.sum(grad_out, axis=1)
        return grad_out @ np.swapaxes(self.weight, -1, -2)

    @property
    def params(self) -> list:
        return [self.weight, self.bias]

    @property
    def grads(self) -> list:
        return [self.grad_weight, self.grad_bias]

    def gather_slices(self, idx) -> "BatchedLinear":
        """A new layer holding copies of the selected slices' parameters."""
        idx = np.asarray(idx, dtype=int)
        sub = object.__new__(BatchedLinear)
        sub.in_dim = self.in_dim
        sub.out_dim = self.out_dim
        sub.n_stack = int(idx.size)
        sub.weight = self.weight[idx].copy()
        sub.bias = self.bias[idx].copy()
        sub.grad_weight = np.zeros_like(sub.weight)
        sub.grad_bias = np.zeros_like(sub.bias)
        sub._x = None
        return sub

    def __repr__(self) -> str:
        return f"BatchedLinear(S={self.n_stack}, {self.in_dim}, {self.out_dim})"


class BatchedSequential(Layer):
    """Stack-axis counterpart of :class:`~repro.nn.network.Sequential`.

    Besides the usual forward/backward chaining, it exposes the parameters
    as a ``(S, P)`` matrix whose row ``s`` follows the *identical* flat
    layout a per-member ``Sequential.get_flat_params()`` would produce —
    the contract the stacked trainer relies on to mirror the serial one.
    """

    def __init__(self, layers: list[Layer], n_stack: int):
        if not layers:
            raise ValueError("BatchedSequential requires at least one layer")
        if n_stack < 1:
            raise ValueError(f"n_stack must be >= 1, got {n_stack}")
        self.layers = list(layers)
        self.n_stack = int(n_stack)

    def forward(self, x):
        out = np.asarray(x, dtype=float)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_out):
        grad = np.asarray(grad_out, dtype=float)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    @property
    def params(self) -> list:
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self) -> list:
        return [g for layer in self.layers for g in layer.grads]

    # -- stacked flat-vector access -------------------------------------------

    @property
    def num_params_per_slice(self) -> int:
        """Scalar parameters per slice (matches the per-member flat size)."""
        return sum(p.size // self.n_stack for p in self.params)

    def get_stacked_params(self) -> np.ndarray:
        """Parameters as ``(S, P)``; row ``s`` is slice s's flat vector."""
        return np.concatenate(
            [p.reshape(self.n_stack, -1) for p in self.params], axis=1
        )

    def set_stacked_params(self, flat: np.ndarray):
        """Write an ``(S, P)`` matrix back into the live parameter arrays."""
        flat = np.asarray(flat, dtype=float)
        expected = (self.n_stack, self.num_params_per_slice)
        if tuple(flat.shape) != expected:
            raise ValueError(f"expected shape {expected}, got {tuple(flat.shape)}")
        offset = 0
        for p in self.params:
            width = p.size // self.n_stack
            p[...] = flat[:, offset : offset + width].reshape(p.shape)
            offset += width

    def get_stacked_grads(self) -> np.ndarray:
        """Parameter gradients as ``(S, P)``, matching the params layout."""
        return np.concatenate(
            [g.reshape(self.n_stack, -1) for g in self.grads], axis=1
        )

    def gather_slices(self, idx) -> "BatchedSequential":
        """A new network over copies of the selected slices.

        Parameterized layers gather their slice rows; stateless activation
        layers are re-instantiated so forward/backward caches never alias
        the parent network.  Slice ``i`` of the gathered network computes
        bitwise what slice ``idx[i]`` of this network computes — the
        contract active-slice compaction in the stacked trainer relies on.
        """
        idx = np.asarray(idx, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("idx must be a non-empty 1-D index array")
        if np.any(idx < 0) or np.any(idx >= self.n_stack):
            raise IndexError(f"slice indices out of range [0, {self.n_stack})")
        layers: list[Layer] = []
        for layer in self.layers:
            if hasattr(layer, "gather_slices"):
                layers.append(layer.gather_slices(idx))
            else:
                # stateless layers (activations) keep their configuration
                # via a shallow copy; only the forward cache is detached
                clone = copy.copy(layer)
                if hasattr(clone, "_x"):
                    clone._x = None
                layers.append(clone)
        return BatchedSequential(layers, n_stack=int(idx.size))

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"BatchedSequential(S={self.n_stack}, [{inner}])"


def make_batched_mlp(
    input_dim: int,
    hidden_dims: tuple[int, ...] | list[int],
    output_dim: int,
    rngs,
    activation: str = "relu",
    output_activation: str = "identity",
) -> BatchedSequential:
    """Build S copies of the paper's feature network as one stacked MLP.

    ``rngs`` is a sequence of S seeds/generators, one per slice.  Slice
    ``s`` consumes ``rngs[s]`` in the same layer order as
    :func:`~repro.nn.network.make_mlp`, so it starts from exactly the
    weights ``make_mlp(..., rng=rngs[s])`` would produce.
    """
    rngs = [ensure_rng(rng) for rng in rngs]
    if not rngs:
        raise ValueError("make_batched_mlp needs at least one slice rng")
    if input_dim <= 0 or output_dim <= 0:
        raise ValueError("input_dim and output_dim must be positive")
    dims = [int(input_dim), *[int(h) for h in hidden_dims], int(output_dim)]
    if any(d <= 0 for d in dims):
        raise ValueError(f"all layer widths must be positive, got {dims}")

    init = he_normal if activation in ("relu", "leaky_relu") else xavier_uniform
    layers: list[Layer] = []
    for i in range(len(dims) - 1):
        layers.append(BatchedLinear(dims[i], dims[i + 1], rngs, weight_init=init))
        is_last = i == len(dims) - 2
        name = output_activation if is_last else activation
        if name != "identity":
            layers.append(make_activation(name))
    return BatchedSequential(layers, n_stack=len(rngs))
