import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, os.pardir, os.pardir, "src"), os.path.join(HERE, os.pardir)]

import wavetrain  # noqa: E402,F401  (pins BLAS to one thread before numpy loads)
