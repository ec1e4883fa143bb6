import os
import sys
from pathlib import Path

# One BLAS thread, as the benchmark runs: row-local scores are a one-thread
# contract.  The setting must be in place before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).parent))
