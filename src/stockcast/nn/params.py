"""Named parameter collections."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch


class ParamSet:
    """An ordered, named map of parameter arrays.

    Names are unique and shapes are fixed after construction; training
    mutates the arrays in place but never reshapes them.  Every array is
    C-contiguous: Adam and `checks.grad_check` write through
    `reshape(-1)`, which for any other layout is a copy, and the write
    would be lost.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        for name, a in arrays.items():
            if not a.flags.c_contiguous:
                raise ShapeMismatch(f"parameter {name} is not C-contiguous")
        self._arrays = dict(arrays)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def items(self):
        return self._arrays.items()
