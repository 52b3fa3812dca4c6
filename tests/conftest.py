"""Settings for the whole test session.

One BLAS thread per process. The acceptance gate trains criterion 7's
network in a second process beside the other criteria (see
``test_acceptance.mixed_training``); a threaded matrix product waits for a
core that the other process holds, which made criterion 3's l2,1 solves
2.5 times slower when both ran with two threads each. The variables are read
when numpy loads, so they are set here, before any test module imports it;
a value already in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
