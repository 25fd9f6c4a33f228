"""Independent brute-force oracles used to check the package.

Everything here is deliberately written with plain Python loops and the
math module only -- no numpy vectorization and no imports from the
package under test -- so agreement with the real implementations is
meaningful. The one exception is the last section: bit-exact per-client
references, which use numpy on purpose because the stacked client bank
must reproduce the bits of the one-client-at-a-time products.
"""

from __future__ import annotations

import math

import numpy as np


# ---- basic vector ops ------------------------------------------------------

def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def norm(a):
    return math.sqrt(sum(x * x for x in a))


def angle(a, b):
    c = dot(a, b) / (norm(a) * norm(b))
    c = min(1.0, max(-1.0, c))
    return math.acos(c)


def pairwise_mean_angle(vectors):
    total, pairs = 0.0, 0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            total += angle(vectors[i], vectors[j])
            pairs += 1
    return total / pairs


def mean(values):
    return sum(values) / len(values)


def pop_std(values):
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


# ---- leader identification (naive reimplementation) ------------------------

def lgi_reference(vectors_by_id, nu_min, nu_max, t, total_rounds, k_min, k_max):
    """Full identification pass from first principles.

    vectors_by_id: {client_id: list of floats}. Returns a dict with the
    scores, updated extremes, ratio, selected ids and leader vector.
    """
    ids = sorted(vectors_by_id)
    scores = {}
    for i in ids:
        total = 0.0
        for j in ids:
            if j != i:
                total += angle(vectors_by_id[i], vectors_by_id[j])
        scores[i] = total / (len(ids) - 1)

    nu = pop_std([scores[i] for i in ids])
    nu_min = nu if nu_min is None else min(nu_min, nu)
    nu_max = nu if nu_max is None else max(nu_max, nu)
    if nu_max - nu_min > 0:
        stability = (nu_max - nu) / (nu_max - nu_min)
    else:
        stability = 1.0
    k = k_min + (t / total_rounds) * stability * (k_max - k_min)
    k = min(k_max, max(k_min, k))

    count = max(1, math.ceil(k * len(ids) / 100.0))
    dim = len(vectors_by_id[ids[0]])

    def summed(members):
        return [sum(vectors_by_id[i][d] for i in members) for d in range(dim)]

    trend = summed(ids)
    if norm(trend) <= 1e-12:
        # no trend to follow: fall back to the consistency ranking
        ranked = sorted(ids, key=lambda i: (scores[i], i))
        selected = sorted(ranked[:count])
    else:
        # drop one client at a time; a drop must leave a set whose mean
        # score is no higher than the cohort's (the least consistent client
        # always may go), and of those drops take the one that leaves the
        # set's summed gradient at the smallest angle to the trend
        cohort_mean = mean([scores[i] for i in ids])
        kept = list(ids)
        while len(kept) > count:
            worst = max(scores[i] for i in kept)
            best, best_angle = None, math.inf
            for j in kept:
                rest = [i for i in kept if i != j]
                if mean([scores[i] for i in rest]) > cohort_mean and scores[j] != worst:
                    continue
                rest_sum = summed(rest)
                # a set whose gradients cancel has no direction: it ranks last
                a = angle(rest_sum, trend) if norm(rest_sum) > 1e-12 else 4.0
                if best is None or a < best_angle:
                    best, best_angle = j, a
            kept.remove(best)
        selected = kept
    leader = [0.0] * dim
    for i in selected:
        for d in range(dim):
            leader[d] += vectors_by_id[i][d]
    leader = [x / len(selected) for x in leader]
    return {
        "scores": scores,
        "nu_min": nu_min,
        "nu_max": nu_max,
        "k": k,
        "selected": selected,
        "leader": leader,
    }


# ---- direction alignment (naive reimplementation) --------------------------

def gda_reference(vectors_by_id, losses_by_id, leader, eta, lam):
    """Full alignment pass from first principles."""
    ids = sorted(vectors_by_id)
    deviations = {i: angle(vectors_by_id[i], leader) for i in ids}
    devs = [deviations[i] for i in ids]
    threshold = max(min(mean(devs) - eta * pop_std(devs), math.pi / 2), 0.0)
    survivors = sorted(i for i in ids if deviations[i] <= threshold)

    regularized = {}
    corrected = {}
    for i in survivors:
        regularized[i] = losses_by_id[i] + lam * (1.0 - math.cos(deviations[i]))
        g = vectors_by_id[i]
        gn = norm(g)
        ln = norm(leader)
        u_g = [x / gn for x in g]
        u_l = [x / ln for x in leader]
        cos_theta = dot(u_g, u_l)
        lambda_g = lam * gn
        corrected[i] = [
            g[d] + (lambda_g / gn) * (u_l[d] - cos_theta * u_g[d]) for d in range(len(g))
        ]
    total = sum(regularized[i] for i in survivors)
    return {
        "deviations": deviations,
        "threshold": threshold,
        "survivors": survivors,
        "regularized": regularized,
        "global_loss": total,
        "corrected": corrected,
    }


# ---- finite differences ----------------------------------------------------

def central_difference(f, x0, step=1e-5):
    """Gradient of scalar f at the flat parameter list x0."""
    grad = []
    for k in range(len(x0)):
        plus = list(x0)
        minus = list(x0)
        plus[k] += step
        minus[k] -= step
        grad.append((f(plus) - f(minus)) / (2 * step))
    return grad


def relative_error(a, b, floor=1e-12):
    err = 0.0
    for x, y in zip(a, b):
        err = max(err, abs(x - y) / max(abs(x), abs(y), floor))
    return err


# ---- misc ------------------------------------------------------------------

def softmax_ce(logits_row, label):
    m = max(logits_row)
    exps = [math.exp(z - m) for z in logits_row]
    total = sum(exps)
    return math.log(total) + m - logits_row[label]


def weighted_mean(columns, weights):
    """Weighted mean of equally long value lists."""
    total_w = sum(weights)
    dim = len(columns[0])
    out = [0.0] * dim
    for w, col in zip(weights, columns):
        for d in range(dim):
            out[d] += (w / total_w) * col[d]
    return out


# ---- bit-exact per-client references ---------------------------------------
#
# The client-side layer functions for one client: 2-D numpy products on a
# flat parameter list [w0, b0, w1, b1, ...]. numpy picks the BLAS kernel
# per product (gemv for a one-row left operand, gemm otherwise), and these
# are the products whose rounding the client bank must match.

def _act(z, activation):
    return np.maximum(z, 0) if activation == "relu" else np.tanh(z)


def _act_grad(z, activation):
    if activation == "relu":
        return (z > 0).astype(z.dtype)
    t = np.tanh(z)
    return 1 - t * t


def client_forward(params, inputs, activation):
    """One client's cut activations and the (input, preactivation) per layer."""
    a, caches = inputs, []
    for w, b in zip(params[::2], params[1::2]):
        z = a @ w + b
        caches.append((a, z))
        a = _act(z, activation)
    return a, caches


def client_backward(params, caches, act_grads, activation):
    """One client's parameter gradients, in the order of ``params``."""
    grads = [None] * len(params)
    delta = act_grads
    for k in range(len(caches) - 1, -1, -1):
        inputs, z = caches[k]
        delta = delta * _act_grad(z, activation)
        grads[2 * k], grads[2 * k + 1] = inputs.T @ delta, delta.sum(axis=0)
        delta = delta @ params[2 * k].T
    return grads


def sgd_step(params, grads, velocity, lr, momentum):
    """In-place momentum SGD on one client: v <- m*v + g; p <- p - lr*v."""
    for p, g, v in zip(params, grads, velocity):
        v *= momentum
        v += g
        p -= lr * v
