"""The array-backend names the surrogate configuration accepts.

The stacked surrogate engine (``repro.nn.batched``,
``repro.core.batched_gp``, ``repro.core.trainer``) computes with numpy
and scipy's LAPACK directly: there is one numeric path.  The
``backend``/``device`` fields of :class:`~repro.bo.config.SurrogateConfig`
stay, because every stored config carries them:

* ``"numpy"`` (the default) and ``"auto"`` select that path;
* ``"torch"`` and ``"cupy"``, the accelerator backends of earlier
  versions, raise :class:`BackendNotAvailable`;
* ``device`` may be ``None`` or ``"cpu"``.

The engine's one CPU knob is ``linalg_threads``, a plain constructor
argument of :class:`~repro.core.batched_gp.SurrogateBank` that spreads the
per-slice LAPACK loops over a thread pool.
"""

from __future__ import annotations

import warnings

import numpy as np

BACKEND_NAMES = ("numpy",)

#: accelerator backends of earlier versions, each named after its package
_REMOVED_BACKENDS = ("torch", "cupy")


class BackendNotAvailable(ImportError):
    """A requested array backend is not available.

    Carries ``backend`` (the requested name) and ``package`` (the
    distribution it ran on); the message names the backend and the numpy
    fallback.  ``code`` is the stable wire error code the BO service maps
    this exception to.
    """

    #: stable error code (wire-safe kebab-case identifier)
    code = "backend-not-available"

    def __init__(self, backend: str, package: str):
        self.backend = str(backend)
        self.package = str(package)
        super().__init__(
            f"array backend {self.backend!r} is not available: the surrogate "
            "engine computes with numpy only; select backend='numpy'"
        )


def check_backend(name: str | None = "numpy", device: str | None = None) -> str:
    """Validate a ``backend``/``device`` pair; returns ``"numpy"``.

    ``None``, ``"numpy"`` and ``"auto"`` all select numpy.  The removed
    accelerator names raise :class:`BackendNotAvailable`, any other name
    and a ``device`` other than ``None``/``"cpu"`` raise ``ValueError``.
    """
    name = "numpy" if name is None else str(name).lower()
    if name in _REMOVED_BACKENDS:
        raise BackendNotAvailable(name, name)
    if name not in ("auto", "numpy"):
        raise ValueError(
            f"unknown array backend {name!r}; choose from {('auto',) + BACKEND_NAMES}"
        )
    if device not in (None, "cpu"):
        raise ValueError(
            f"the numpy backend runs on the host CPU only, got device={device!r}"
        )
    return "numpy"


def available_backends() -> tuple[str, ...]:
    """Backend names usable right now: always ``("numpy",)``."""
    return BACKEND_NAMES


def get_namespace(
    name: str | None = "numpy",
    device: str | None = None,
    linalg_threads: int | None = None,
):
    """Deprecated: validate a backend selection and return :mod:`numpy`.

    The engine no longer routes array calls through a namespace object.
    Select the backend with ``SurrogateConfig(backend=..., device=...)``
    and thread the per-slice LAPACK loops with
    ``SurrogateConfig(linalg_threads=...)``.  The arguments are validated
    as before (see :func:`check_backend`; ``linalg_threads`` must be
    ``>= 1``).
    """
    warnings.warn(
        "get_namespace is deprecated: the surrogate engine computes with "
        "numpy directly; set backend/device/linalg_threads on SurrogateConfig",
        DeprecationWarning,
        stacklevel=2,
    )
    check_backend(name, device)
    if linalg_threads is not None and int(linalg_threads) < 1:
        raise ValueError(f"linalg_threads must be >= 1, got {linalg_threads}")
    return np


__all__ = [
    "BACKEND_NAMES",
    "BackendNotAvailable",
    "available_backends",
    "check_backend",
    "get_namespace",
]
