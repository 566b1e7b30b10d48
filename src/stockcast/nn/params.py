"""Named parameter collections."""

from __future__ import annotations

from ..errors import ShapeMismatch
from .autodiff import Tensor


class ParamSet:
    """An ordered, named map of parameter tensors.

    Names are unique and shapes are fixed after construction; training
    mutates `.data` in place but never reshapes.  Every `.data` is
    C-contiguous: Adam and grad_check write through `data.reshape(-1)`,
    which for any other layout is a copy, and the write would be lost.
    """

    def __init__(self, tensors: dict[str, Tensor]):
        for name, t in tensors.items():
            if not t.data.flags.c_contiguous:
                raise ShapeMismatch(f"parameter {name} is not C-contiguous")
        self._tensors = dict(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def items(self):
        return self._tensors.items()

    def zero_grad(self):
        for t in self._tensors.values():
            t.grad = None

    def n_scalars(self) -> int:
        return sum(t.data.size for t in self._tensors.values())
