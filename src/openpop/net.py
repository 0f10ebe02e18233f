"""Minimal feed-forward generator with manual backpropagation.

Fully-connected ReLU stack with batch normalization after each hidden
layer, a linear output over numeric dimensions, and a softmax head
per categorical block. Written directly on numpy so gradients are exact,
inspectable, and bit-reproducible in single-threaded runs.

The layers' `forward` is the training pass. Inference runs folded affine
layers: running statistics make batch norm a fixed per-feature scale and
shift, so each Linear -> BatchNorm -> Relu triple is one product, one bias
add and one ReLU (`BatchNorm.fold`).
"""

from __future__ import annotations

import numpy as np


class Param:
    """A tensor with a same-shaped gradient buffer."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.zeros_like(self.value)


class Linear:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        scale = np.sqrt(2.0 / n_in)
        self.w = Param(rng.standard_normal((n_in, n_out)) * scale)
        self.b = Param(np.zeros(n_out))
        self._x = None

    def params(self):
        return [self.w, self.b]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        y = x @ self.w.value
        y += self.b.value  # in place: the product is a fresh array
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.w.grad += self._x.T @ dy
        self.b.grad += dy.sum(axis=0)
        return dy @ self.w.value.T


class BatchNorm:
    """Per-feature normalization: batch statistics while training, running
    averages (momentum 0.9) at generation time."""

    momentum = 0.9
    eps = 1e-5

    def __init__(self, dim: int):
        self.gamma = Param(np.ones(dim))
        self.beta = Param(np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self._cache = None

    def params(self):
        return [self.gamma, self.beta]

    def fold(self, linear: Linear) -> tuple[np.ndarray, np.ndarray]:
        """`linear` then this layer at generation time, as one affine map
        (w, b): s = gamma / sqrt(running_var + eps), w = W * s and
        b = (b_linear - running_mean) * s + beta."""
        s = self.gamma.value / np.sqrt(self.running_var + self.eps)
        return (linear.w.value * s,
                (linear.b.value - self.running_mean) * s + self.beta.value)

    def forward(self, x: np.ndarray) -> np.ndarray:
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mu
        self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv_std
        self._cache = (xhat, inv_std)
        return self.gamma.value * xhat + self.beta.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xhat, inv_std = self._cache
        self.gamma.grad += (dy * xhat).sum(axis=0)
        self.beta.grad += dy.sum(axis=0)
        dxhat = dy * self.gamma.value
        return inv_std * (dxhat - dxhat.mean(axis=0)
                          - xhat * (dxhat * xhat).mean(axis=0))


class Relu:
    def __init__(self):
        self._mask = None

    def params(self):
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._mask


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class GeneratorNet:
    """latent -> encoded-tuple generator.

    `categorical_blocks` lists (offset, width) output slices that pass
    through a softmax head; remaining output dimensions stay linear.
    """

    def __init__(self, latent_dim: int, hidden: list[int], out_dim: int,
                 categorical_blocks: list[tuple[int, int]],
                 rng: np.random.Generator):
        self.latent_dim = latent_dim
        self.categorical_blocks = list(categorical_blocks)
        self.layers = []
        size = latent_dim
        for width in hidden:
            self.layers += [Linear(size, width, rng), BatchNorm(width), Relu()]
            size = width
        self.layers.append(Linear(size, out_dim, rng))
        self._softmax_cache = None

    def params(self) -> list[Param]:
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def num_params(self) -> int:
        return int(sum(p.value.size for p in self.params()))

    def zero_grad(self) -> None:
        for p in self.params():
            p.grad[...] = 0.0

    def forward(self, z: np.ndarray, training: bool) -> np.ndarray:
        """Outputs for latents `z`, each categorical block through its
        softmax. Training runs the layers, which keep what `backward` needs.
        Inference runs each hidden triple as its folded affine map, computed
        afresh on every call, then the last Linear. It writes no attribute
        and not `z`, so it leaves a training forward's caches for `backward`."""
        x = np.asarray(z, dtype=float)
        if training:
            for layer in self.layers:
                x = layer.forward(x)
        else:
            *hidden, last = self.layers
            for linear, norm in zip(hidden[::3], hidden[1::3]):
                w, b = norm.fold(linear)
                x = x @ w
                x += b
                np.maximum(x, 0.0, out=x)
            x = x @ last.w.value
            x += last.b.value
        out = x.copy()
        cache = []
        for offset, width in self.categorical_blocks:
            s = _softmax(x[:, offset:offset + width])
            out[:, offset:offset + width] = s
            cache.append(s)
        if training:
            self._softmax_cache = cache
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dx = np.asarray(dout, dtype=float).copy()
        for (offset, width), s in zip(self.categorical_blocks, self._softmax_cache):
            ds = dx[:, offset:offset + width]
            dx[:, offset:offset + width] = s * (ds - (ds * s).sum(axis=1, keepdims=True))
        for layer in reversed(self.layers):
            dx = layer.backward(dx)
        return dx

    def snapshot(self) -> list[np.ndarray]:
        """Copies of every tensor: each layer's parameters, then its
        batch-norm running stats."""
        values = []
        for layer in self.layers:
            values += [p.value.copy() for p in layer.params()]
            if isinstance(layer, BatchNorm):
                values += [layer.running_mean.copy(), layer.running_var.copy()]
        return values

    def restore(self, values) -> None:
        """Load the tensors of a `snapshot`; the net takes them over."""
        tensors = iter(values)
        for layer in self.layers:
            for p in layer.params():
                p.value = next(tensors)
            if isinstance(layer, BatchNorm):
                layer.running_mean = next(tensors)
                layer.running_var = next(tensors)


class Adam:
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[Param], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self.m, self.v):
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad ** 2
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
