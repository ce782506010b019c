"""Minimal layer kit on top of the tensor core: parameter registry, linear
maps, and embedding tables. Enough structure to name every weight for
checkpointing; no more.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    """Base with hierarchical parameter discovery.

    Attributes that are Tensors with requires_grad are parameters; attributes
    that are Modules (or lists of Modules) are children. Names are dotted
    paths, stable across runs.
    """

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                out[name] = value
            elif isinstance(value, Module):
                for sub, p in value.named_parameters().items():
                    out[f"{name}.{sub}"] = p
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        for sub, p in item.named_parameters().items():
                            out[f"{name}.{i}.{sub}"] = p
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())


def param(rng: np.random.Generator, shape, std: float, dtype=np.float32) -> Tensor:
    data = rng.normal(0.0, std, size=shape) if std > 0 else np.zeros(shape)
    return Tensor(data.astype(dtype), requires_grad=True)


class Linear(Module):
    def __init__(self, rng, d_in: int, d_out: int, dtype=np.float32,
                 zero_init: bool = False):
        std = 0.0 if zero_init else (d_in ** -0.5)
        self.w = param(rng, (d_in, d_out), std, dtype)
        self.b = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


class Embedding(Module):
    def __init__(self, rng, rows: int, dim: int, dtype=np.float32):
        self.table = param(rng, (rows, dim), 0.02, dtype)

    def __call__(self, indices) -> Tensor:
        return T.gather(self.table, indices)
