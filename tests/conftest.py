"""Run the suite with one BLAS thread, as README advises for small hosts.

The matrices here are small; multithreaded BLAS on a host with two or so
cores makes their timings erratic, and the timed acceptance checks (A1
gates the star spectrum at one second) then fail on stalls rather than on
the code.  A value already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
