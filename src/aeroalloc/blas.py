"""Routines of the BLAS and LAPACK that numpy itself links, found by symbol.

numpy's `_multiarray_umath` extension links its BLAS, so a ctypes lookup on
it also searches that library: a routine found there is numpy's own copy,
and nothing else is loaded. The BLAS of numpy's wheels names its symbols
with a `scipy_` prefix, and one built with 64-bit integers with a `64_`
suffix, so a routine is looked up under up to four names.
"""
from __future__ import annotations

import ctypes
import functools


def _multiarray_umath():  # numpy's C core, under its numpy 2 or numpy 1 name
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    return core


@functools.cache
def _numpy_core() -> ctypes.CDLL:
    return ctypes.CDLL(_multiarray_umath().__file__)


def numpy_c_function(name: str):  # numpy's C function, past any Python wrapper of numpy's
    return getattr(_multiarray_umath(), name)


def numpy_blas_function(name: str):
    """The ctypes function of numpy's BLAS named `name`, or None where it has none.

    `name` is the routine's plain symbol, as "dposv_" or
    "openblas_get_num_threads"; the first of scipy_<name>64_, scipy_<name>,
    <name>64_ and <name> that exists is returned. A LAPACK routine whose name
    ends in "64_" takes 64-bit integers.
    """
    lib = _numpy_core()
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}{name}{suffix}", None)
            if fn is not None:
                return fn
    return None
