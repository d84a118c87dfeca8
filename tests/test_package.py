"""Import-time settings of the package: the one-thread BLAS pin holds
whichever of numpy and wavetrain a program imports first."""

import os
import subprocess
import sys

import pytest

import wavetrain

SRC = os.path.dirname(os.path.dirname(wavetrain.__file__))

# prints the thread count of the OpenBLAS numpy loaded
THREADS = """
import ctypes, glob, os
import numpy
base = os.path.dirname(numpy.__file__)
for lib in glob.glob(os.path.join(base, os.pardir, "numpy.libs", "*openblas*")):
    get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        get.restype = ctypes.c_int
        print(get())
        break
else:
    print("none")
"""

# prints a digest of a short PGD run on a small WRN
PGD_DIGEST = """
import hashlib
from wavetrain.attacks import AttackConfig, pgd
from wavetrain.data import synthetic_dataset
from wavetrain.model import ModelConfig, build_model
model = build_model(ModelConfig(depth=1, width=1, num_classes=2), seed=0)
ds = synthetic_dataset(2, 8, seed=1)
res = pgd(model, ds.images, ds.labels, AttackConfig(epsilon=0.03, steps=2), seed=2)
print(hashlib.sha256(res.x_adv.tobytes()).hexdigest())
"""


def run(imports, code, **env):
    """Standard output of ``imports`` then ``code`` in a fresh interpreter with
    neither BLAS thread variable set, apart from those in ``env``."""
    child_env = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    child_env.update(PYTHONPATH=SRC, **env)
    return subprocess.run([sys.executable, "-c", imports + "\n" + code], env=child_env,
                          capture_output=True, text=True, check=True).stdout.strip()


def blas_threads(imports, **env):
    threads = run(imports, THREADS, **env)
    if threads == "none":
        pytest.skip("numpy bundles no OpenBLAS that reports its thread count")
    return int(threads)


@pytest.mark.parametrize("imports", ["import wavetrain, numpy", "import numpy, wavetrain"])
def test_one_blas_thread_whatever_the_import_order(imports):
    assert blas_threads(imports) == 1


def test_explicit_thread_count_is_kept_after_numpy():
    want = blas_threads("import numpy", OPENBLAS_NUM_THREADS="2")
    assert blas_threads("import numpy, wavetrain", OPENBLAS_NUM_THREADS="2") == want


@pytest.mark.parametrize("imports", ["import wavetrain, numpy", "import numpy, wavetrain"])
def test_omp_thread_count_alone_is_kept_whatever_the_import_order(imports):
    want = blas_threads("import numpy", OMP_NUM_THREADS="2")
    assert blas_threads(imports, OMP_NUM_THREADS="2") == want


def test_pgd_bytes_do_not_depend_on_the_import_order():
    assert (run("import wavetrain, numpy", PGD_DIGEST)
            == run("import numpy, wavetrain", PGD_DIGEST))
