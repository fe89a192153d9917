"""An independent model of the meta-learning objective, for exactness checks.

Plain numpy expressions over complex128 (or clongdouble): the mse and
softmax cross-entropy losses of the tanh MLP, a hand-written gradient, the
K-step inner loop and the adapted query loss. Nothing here uses the package's tapes, layer views,
op lists or `out=` arguments; only the layout of the flat parameter vector
is shared (per layer, W transposed, (inp, out) row-major, then its bias).

Every function is complex-analytic in the parameters, so complex-step
differentiation gives a directional derivative to rounding, with no
cancellation: d/dh f(w + h v) at 0 is Im f(w + i h v) / h for h = 1e-30
(Squire and Trapp 1998; Martins, Sturdza and Alonso 2003).
"""

import numpy as np

H = 1e-30


def layers(w, dims):
    """[(W (out, inp), b (out,))] per layer of the flat vector w, dims being
    [input_dim, *hidden, output_dim]."""
    out, pos = [], 0
    for inp, width in zip(dims[:-1], dims[1:]):
        wt = w[pos:pos + inp * width].reshape(inp, width)
        out.append((wt.T, w[pos + inp * width:pos + inp * width + width]))
        pos += inp * width + width
    assert pos == len(w)
    return out


def activations(w, dims, x):
    """The input and each hidden layer's tanh output, and the output z."""
    hs = [x]
    params = layers(w, dims)
    for W, b in params[:-1]:
        hs.append(np.tanh(hs[-1] @ W.T + b))
    W, b = params[-1]
    return hs, hs[-1] @ W.T + b


def softmax(z):
    # the shift is a real constant, and softmax does not depend on it
    e = np.exp(z - z.real.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def loss(w, dims, head, batch):
    """Mean batch loss: mean squared error over every output entry (mse), or
    the mean over examples of log-sum-exp(z) - z[label] (xent)."""
    x, t = batch
    _, z = activations(w, dims, x)
    if head == "mse":
        return np.mean((z - t.reshape(z.shape)) ** 2)
    shift = z.real.max(axis=1)
    lse = np.log(np.exp(z - shift[:, None]).sum(axis=1)) + shift
    return np.mean(lse - z[np.arange(len(t)), t])


def grad(w, dims, head, batch):
    """The gradient of `loss`, by the chain rule written out layer by layer."""
    x, t = batch
    hs, z = activations(w, dims, x)
    if head == "mse":
        delta = 2 * (z - t.reshape(z.shape)) / z.size
    else:
        delta = (softmax(z) - np.eye(z.shape[1])[t]) / len(t)
    params = layers(w, dims)
    parts = []
    for li in range(len(params) - 1, -1, -1):
        W, _ = params[li]
        parts = [(delta.T @ hs[li]).T.ravel(), delta.sum(axis=0)] + parts
        if li > 0:
            delta = (delta @ W) * (1 - hs[li] ** 2)
    return np.concatenate(parts)


def adapted_query_loss(w, dims, head, support, query, alpha, K):
    """The query loss after K gradient steps of size alpha on the support batch."""
    u = w
    for _ in range(K):
        u = u - alpha * grad(u, dims, head, support)
    return loss(u, dims, head, query)


def derivative(f, w, v, dtype=np.complex128):
    """d/dh f(w + h v) at h = 0, by the complex step: f takes a complex
    vector and returns a complex scalar or array. With dtype clongdouble
    every step runs in extended precision where the platform has it."""
    return np.imag(f(w.astype(dtype) + 1j * H * v)) / H
