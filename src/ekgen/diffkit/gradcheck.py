"""Finite-difference verification of reverse-mode gradients.

Always run in float64 (`use_dtype(np.float64)` around model construction
and the check); float32 round-off makes central differences useless.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor


def grad_check(f: Callable[[], Tensor], params: dict[str, Tensor],
               h: float = 1e-5) -> float:
    """Compare analytic gradients of the scalar `f()` against central
    differences; return the worst relative error over every coordinate.

    `f` must rebuild the graph from the current parameter values on every
    call. A coordinate's relative error is |num - ana| / max(|num|, |ana|),
    and 0 when both are below 1e-6.
    """
    for p in params.values():
        p.zero_grad()
    loss = f()
    if loss.data.size != 1:
        raise ValueError("grad_check requires a scalar-valued function")
    loss.backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}

    def central(flat, i, step):
        orig = flat[i]
        flat[i] = orig + step
        up = float(f().data)
        flat[i] = orig - step
        down = float(f().data)
        flat[i] = orig
        return (up - down) / (2 * step)

    def rel_err(num, ana):
        if abs(num) < 1e-6 and abs(ana) < 1e-6:
            # below float64 finite-difference noise; treat as zero
            return 0.0
        return abs(num - ana) / max(abs(num), abs(ana))

    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            ana = float(analytic[name].reshape(-1)[i])
            err = rel_err(central(flat, i, h), ana)
            if err > 1e-5:
                # round-off can dominate small gradients at fine steps;
                # retry with a coarser step and keep the better estimate
                err = min(err, rel_err(central(flat, i, 10 * h), ana))
            worst = max(worst, err)
    return worst
