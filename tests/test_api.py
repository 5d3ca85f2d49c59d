"""The public surface of the package: what each module exports exists,
and names that were deleted stay deleted."""

import importlib
import inspect
import pkgutil

import pytest

import dkimle

MODULES = sorted(info.name for info in pkgutil.iter_modules(dkimle.__path__)
                 if not info.name.startswith("_"))

DELETED = [
    "SolverOptions",
    "update_L",
    "update_thetaQ",
    "apply_p",
    "apply_p_batch",
    "mle_objective_l",
    "mle_objective_q",
    "mle_gradient_l",
    "mle_gradient_q",
    "cwls_objective",
    "cwls_gradient_l",
    "cwls_gradient_q",
    "cwls_hessian_l",
    "cwls_hessian_q",
    "l_matrix",
    "kurtosis_to_tensor4",
    "tensor4_to_kurtosis",
    "ring_directions",
    "vonmises_logpdf",
]

# deleted keyword arguments, as (module, callable, keyword)
DELETED_KEYWORDS = [
    ("dkimle.estimators", "VoxelData", "zero_mask"),
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"dkimle.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"dkimle.{name}.__all__ names missing attributes: {missing}"


def test_star_import_works():
    namespace = {}
    exec("from dkimle import *", namespace)
    assert "fit_voxel" in namespace and "solve" in namespace


@pytest.mark.parametrize("module", ["dkimle", "dkimle.estimators", "dkimle.barrier",
                                    "dkimle.protocol", "dkimle.tensors", "dkimle.sphere",
                                    "dkimle.rician"])
def test_deleted_names_are_unreachable(module):
    mod = importlib.import_module(module)
    assert not [n for n in DELETED if hasattr(mod, n)]


@pytest.mark.parametrize("module, name, keyword", DELETED_KEYWORDS)
def test_deleted_keywords_are_not_accepted(module, name, keyword):
    target = getattr(importlib.import_module(module), name)
    assert keyword not in inspect.signature(target).parameters
