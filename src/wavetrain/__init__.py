"""Wavelet-regularized adversarial training at desk scale.

A small numpy-backed stack: reverse-mode autodiff, a two-channel wavelet
engine with averaged-subband pooling, compact wide residual models, white-
and black-box attacks, an adversarial training loop, and evaluation
harnesses (robust accuracy, Fourier heat maps, Grad-CAM, wavelet-decay
checks).
"""

import ctypes
import glob
import os
import sys

# single-sequence determinism is the contract, and one BLAS thread is faster
# than two on small desk-scale GEMMs; honored only if the user has set
# neither variable, since OpenBLAS prefers its own over OMP_NUM_THREADS
_BLAS_CHOSEN = "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ
if not _BLAS_CHOSEN:
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"


def _pin_loaded_blas():
    """Set one thread in the OpenBLAS that numpy has already loaded.

    OpenBLAS reads the environment once, when numpy loads it, so the defaults
    above come too late for a program that imported numpy first. The numpy
    wheel bundles its OpenBLAS under ``numpy.libs``; without that library or
    its ``set_num_threads`` symbol this does nothing.
    """
    site = os.path.dirname(os.path.dirname(sys.modules["numpy"].__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas64_-*.so")):
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # not loadable, or an OpenBLAS without it
            continue
        set_threads.argtypes = (ctypes.c_int,)
        set_threads.restype = None
        set_threads(1)


if "numpy" in sys.modules and not _BLAS_CHOSEN:
    _pin_loaded_blas()


def _keep_heap_mapped():
    """Stop glibc from handing freed heap back to the kernel between passes.

    Every attack step allocates and frees the same few megabytes of
    activations and gradients. By default glibc trims the top of the heap
    after each backward, and its dynamic mmap threshold sends mid-sized
    arrays to fresh mmaps, so the next pass faults the same pages in again.
    A 1 GiB trim threshold and a fixed 32 MiB mmap threshold keep them
    mapped. Without glibc's ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


_keep_heap_mapped()

from .autodiff import SGDMomentum, Tensor, tape
from .wavelet import SUPPORTED_BASES, FilterBank, SubbandSet, filter_bank

__all__ = [
    "FilterBank",
    "SGDMomentum",
    "SUPPORTED_BASES",
    "SubbandSet",
    "Tensor",
    "filter_bank",
    "tape",
]

__version__ = "0.1.0"
