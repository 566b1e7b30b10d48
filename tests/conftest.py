import ctypes
import os

import pytest

import stockcast
from stockcast.synthetic import make_reference_corpus

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def pytest_report_header(config):
    """The OpenBLAS kernels numpy runs on, which the bit-identity tests hold for."""
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
        if hasattr(stockcast._OPENBLAS, name):
            corename = getattr(stockcast._OPENBLAS, name)
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return f"openblas core: {corename().decode()}"
    return "openblas core: unknown"


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    """The checked-in reference corpus; regenerated into tmp if missing."""
    if os.path.isfile(os.path.join(DATA_DIR, "ACC.csv")):
        return os.path.abspath(DATA_DIR)
    path = tmp_path_factory.mktemp("corpus")
    make_reference_corpus(path)
    return str(path)


def write_csv(path, rows, header="date,close"):
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(str(c) for c in row) + "\n")
    return path
