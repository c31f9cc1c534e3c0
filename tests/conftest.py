import os

import numpy as np
import scipy


def pytest_report_header(config):
    """The library versions and BLAS threads that the bit-exact goldens
    depend on, printed at the top of every run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"numpy {np.__version__}, scipy {scipy.__version__}, "
        f"BLAS {blas.get('name', '?')} {blas.get('version', '?')}",
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
    ]


def pytest_terminal_summary(terminalreporter, config):
    # -q drops the header; print the same lines at the end instead.
    if config.get_verbosity() < 0:
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)
