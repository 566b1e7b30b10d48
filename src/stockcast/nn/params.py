"""Named parameter collections."""

from __future__ import annotations

from ..errors import ShapeMismatch
from .autodiff import Tensor


class ParamSet:
    """An ordered, named map of parameter tensors.

    Names are unique and shapes are fixed after construction; training
    mutates `.data` in place but never reshapes.
    """

    def __init__(self, tensors: dict[str, Tensor]):
        if len(set(tensors)) != len(tensors):
            raise ShapeMismatch("duplicate parameter names")
        self._tensors = dict(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name):
        return name in self._tensors

    def __len__(self):
        return len(self._tensors)

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def tensors(self):
        return list(self._tensors.values())

    def zero_grad(self):
        for t in self._tensors.values():
            t.grad = None

    def n_scalars(self) -> int:
        return sum(t.data.size for t in self._tensors.values())

    def copy(self) -> "ParamSet":
        return ParamSet({k: Tensor(v.data.copy()) for k, v in self._tensors.items()})
