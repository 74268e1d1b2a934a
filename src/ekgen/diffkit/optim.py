"""Adam optimizer and the warmup/decay learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    """Standard Adam with bias correction over a name->Tensor parameter map."""

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float):
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
            p.data -= (lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def lr_schedule(step: int, d_model: int, warmup: int, scale: float) -> float:
    """Linear warmup then inverse-sqrt decay (crossover at `warmup`)."""
    if step < 1:
        raise ValueError("lr_schedule requires step >= 1")
    return scale * d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)
