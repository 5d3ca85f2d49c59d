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
    "MAX_OUTER",
    "_ROI_SPREADS",
    "_full_column_rank",
    "_WORKERS_ENV",
    "SERIES_ASYMPTOTIC_SPLIT",
    "DecayRows",
    "_violates_decay",
    "_ring_bases",
    "_pad_index",
]

# deleted keyword arguments and fields, as (module, callable, keyword)
DELETED_KEYWORDS = [
    ("dkimle.estimators", "VoxelData", "zero_mask"),
    ("dkimle.estimators", "_row_product", "align"),
    ("dkimle.metrics", "scalar_metrics", "n_polar"),
    ("dkimle.metrics", "scalar_metrics", "n_azimuth"),
    ("dkimle.metrics", "scalar_metrics", "n_ring"),
    ("dkimle.metrics", "evaluate", "labels"),
    ("dkimle.metrics", "EvalReport", "by_label"),
    ("dkimle.metrics", "EvalReport.to_json", "kwargs"),
    ("dkimle.simulate", "random_tensor_truth", "mean_k_range"),
    ("dkimle.simulate", "random_tensor_truth", "margin"),
    ("dkimle.tensors", "factor_kurtosis", "max_iter"),
    ("dkimle.tensors", "predict_signal", "cap"),
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


@pytest.mark.parametrize("module", ["dkimle"] + [f"dkimle.{name}" for name in MODULES])
def test_deleted_names_are_unreachable(module):
    mod = importlib.import_module(module)
    assert not [n for n in DELETED if hasattr(mod, n)]


@pytest.mark.parametrize("module, name, keyword", DELETED_KEYWORDS)
def test_deleted_keywords_are_not_accepted(module, name, keyword):
    target = importlib.import_module(module)
    for attr in name.split("."):
        target = getattr(target, attr)
    assert keyword not in inspect.signature(target).parameters
