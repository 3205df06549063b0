"""Tests for the array-backend selection the surrogate configuration accepts.

The stacked engine computes with numpy directly.  Pinned here:

* ``available_backends()`` is ``("numpy",)``; ``None``, ``"numpy"`` and
  ``"auto"`` all select numpy, unknown names are rejected with the full
  choice list;
* the removed accelerator names ``"torch"``/``"cupy"`` raise
  :class:`BackendNotAvailable` (an ``ImportError``) whose message names
  the backend and the numpy fallback, and the BO service answers them
  with 400 ``backend-not-available``;
* a ``device`` other than ``None``/``"cpu"`` raises ``ValueError``, and
  ``linalg_threads`` must be ``>= 1``;
* ``get_namespace`` is deprecated: it validates as before, warns with a
  pointer to ``SurrogateConfig`` and returns the :mod:`numpy` module;
* :class:`SurrogateConfig` validates ``backend``/``device`` when it is
  constructed, and its ``linalg_threads`` reaches the bank it builds.
"""

import http.client
import json

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    BackendNotAvailable,
    available_backends,
    check_backend,
    get_namespace,
)
from repro.bo.config import SurrogateConfig


def deprecated_get_namespace(*args, **kwargs):
    with pytest.warns(DeprecationWarning, match="SurrogateConfig"):
        return get_namespace(*args, **kwargs)


class TestGetNamespace:
    def test_default_is_numpy(self):
        assert deprecated_get_namespace() is np
        assert deprecated_get_namespace(None) is np
        assert deprecated_get_namespace("numpy") is np
        assert check_backend() == check_backend(None) == "numpy"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            deprecated_get_namespace("tensorflow")
        with pytest.raises(ValueError, match="'auto', 'numpy'"):
            check_backend("tensorflow")

    def test_available_backends_always_has_numpy(self):
        names = available_backends()
        assert names == ("numpy",)
        assert set(names) <= set(BACKEND_NAMES)

    def test_auto_falls_back_to_numpy_when_nothing_importable(self):
        assert deprecated_get_namespace("auto") is np
        assert check_backend("auto") == check_backend("AUTO") == "numpy"

    def test_missing_soft_dependency_raises_helpfully(self):
        for name in ("torch", "cupy"):
            for select in (check_backend, deprecated_get_namespace):
                with pytest.raises(BackendNotAvailable) as excinfo:
                    select(name)
                message = str(excinfo.value)
                assert repr(name) in message
                assert "backend='numpy'" in message
                assert excinfo.value.backend == name
                assert excinfo.value.package == name
                # BackendNotAvailable subclasses ImportError so plain
                # ``except ImportError`` guards keep working
                assert isinstance(excinfo.value, ImportError)


class TestNumpyNamespaceContract:
    def test_portable_ops_are_numpy_functions(self):
        """The deprecated namespace is numpy itself: bitwise by construction."""
        xb = deprecated_get_namespace("numpy")
        assert xb.stack is np.stack
        assert xb.concatenate is np.concatenate
        assert xb.exp is np.exp
        assert xb.where is np.where

    def test_device_validation(self):
        assert deprecated_get_namespace("numpy", device="cpu") is np
        with pytest.raises(ValueError, match="CPU only"):
            deprecated_get_namespace("numpy", device="cuda:0")
        with pytest.raises(ValueError, match="CPU only"):
            check_backend("auto", device="cuda:0")

    def test_linalg_threads_validation(self):
        from repro.core.batched_gp import SurrogateBank

        assert deprecated_get_namespace("numpy", linalg_threads=4) is np
        with pytest.raises(ValueError):
            deprecated_get_namespace("numpy", linalg_threads=0)
        assert SurrogateBank(2, 1, linalg_threads=4).gp.linalg_threads == 4
        with pytest.raises(ValueError, match="linalg_threads"):
            SurrogateBank(2, 1, linalg_threads=0)


class TestConfigWiring:
    def test_surrogate_config_fields(self):
        cfg = SurrogateConfig(backend="numpy", linalg_threads=3)
        bank = cfg.bank_factory(2)(np.random.default_rng(0), 1)
        assert bank.gp.linalg_threads == 3
        assert SurrogateConfig(backend="AUTO").backend == "auto"
        SurrogateConfig(backend="auto", device="cpu").bank_factory(2)
        with pytest.raises(ValueError, match="backend"):
            SurrogateConfig(backend="mlx")
        with pytest.raises(ValueError, match="linalg_threads"):
            SurrogateConfig(linalg_threads=-1)
        # validated at construction, so the loop engine (which builds no
        # bank) rejects them too
        with pytest.raises(ValueError, match="CPU only"):
            SurrogateConfig(device="cuda:0", engine="loop")
        for name in ("torch", "cupy"):
            with pytest.raises(BackendNotAvailable):
                SurrogateConfig(backend=name, engine="loop")

    def test_nnbo_mirrors_backend_config(self):
        from repro.benchfns import toy_constrained_quadratic
        from repro.core import NNBO

        bo = NNBO(
            toy_constrained_quadratic(2),
            n_initial=4,
            max_evaluations=6,
            surrogate=SurrogateConfig(backend="numpy", linalg_threads=2),
        )
        assert bo.surrogate_config.backend == "numpy"
        assert bo.surrogate_config.linalg_threads == 2

    def test_service_answers_removed_backend_with_400(self, tmp_path):
        from repro.service import StudyServer

        body = json.dumps(
            {
                "name": "s",
                "problem": "toy_constrained_quadratic",
                "surrogate": {"backend": "torch"},
            }
        ).encode()
        with StudyServer(tmp_path / "store", port=0) as server:
            conn = http.client.HTTPConnection(*server.address, timeout=30)
            try:
                conn.request(
                    "POST",
                    "/v1/studies",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                error = json.loads(response.read())["error"]
            finally:
                conn.close()
            assert server.store.study_names() == []
        assert response.status == 400
        assert error["code"] == "backend-not-available"
        assert error["detail"] == {"backend": "torch", "package": "torch"}
