"""Independent brute-force oracles used to check the package.

Everything here is deliberately written with plain Python loops, the
math module and ``fractions`` only -- no numpy vectorization and no
imports from the package under test -- so agreement with the real
implementations is meaningful. The exceptions are the last five
sections, which use numpy on purpose: bit-exact per-client references,
because the stacked passes must reproduce the bits of the
one-client-at-a-time products; the per-tensor list helpers; the
wrapped-reduction references, because the package's direct
``ufunc.reduce`` calls must reproduce the bits of numpy's ``mean``,
``std``, ``sum``, ``max`` and ``linalg.norm``; the selection reference,
because LGI's tail search must pick the rows that testing every kept row
picks; and the partition reference, because the package's shards must
replay the same random draws.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ---- basic vector ops ------------------------------------------------------

# float() on every element: a numpy float32 element would otherwise keep
# the arithmetic in float32

def dot(a, b):
    return sum(float(x) * float(y) for x, y in zip(a, b))


def norm(a):
    return math.sqrt(sum(float(x) * float(x) for x in a))


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

def exact_at_or_below_threshold(d, devs, eta):
    """d <= max(min(mean - eta*std, pi/2), 0) over ``devs``, in exact
    rational arithmetic: d <= 0, or d <= pi/2 and mean - d >= 0 and
    (mean - d)^2 >= eta^2 * var (the population variance)."""
    d, xs = Fraction(d), [Fraction(x) for x in devs]
    mu = sum(xs) / len(xs)
    var = sum((x - mu) ** 2 for x in xs) / len(xs)
    if d <= 0 or d > Fraction(math.pi / 2):
        return d <= 0
    return mu - d >= 0 and (mu - d) ** 2 >= Fraction(eta) ** 2 * var


def gda_reference(vectors_by_id, losses_by_id, leader, eta, lam):
    """Full alignment pass from first principles."""
    ids = sorted(vectors_by_id)
    deviations = {i: angle(vectors_by_id[i], leader) for i in ids}
    devs = [deviations[i] for i in ids]
    threshold = max(min(mean(devs) - eta * pop_std(devs), math.pi / 2), 0.0)
    survivors = [i for i in ids if exact_at_or_below_threshold(deviations[i], devs, eta)]

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
    """Weighted mean of equally long value lists, in float64."""
    weights = [float(w) for w in weights]
    total_w = sum(weights)
    dim = len(columns[0])
    out = [0.0] * dim
    for w, col in zip(weights, columns):
        for d in range(dim):
            out[d] += (w / total_w) * float(col[d])
    return out


def param_count(layers):
    """Number of scalars in a list of dense layers, weights plus biases."""
    return sum(math.prod(layer.w.shape) + math.prod(layer.b.shape) for layer in layers)


# ---- bit-exact per-client references ---------------------------------------
#
# The client-side layer functions for one client: 2-D numpy products on a
# flat parameter list [w0, b0, w1, b1, ...]. numpy picks the BLAS kernel
# per product: gemv for a one-row left operand, gemm otherwise. The
# engine's stacks are at least two rows deep, so they multiply every
# client's batch by gemm; with ``padded`` a one-row left operand gains a
# zero row, so these products run gemm too, and a stacked pass must match
# them bit for bit. Without it they are the products of nn's unstacked
# passes on one batch.

def matmul(a, b, padded=False):
    """``a @ b``; with ``padded`` a one-row ``a`` is multiplied as the top
    row of a two-row matrix, by gemm."""
    if padded and len(a) == 1:
        return (np.vstack([a, np.zeros_like(a)]) @ b)[:1]
    return a @ b


def _act(z, activation):
    return np.maximum(z, 0) if activation == "relu" else np.tanh(z)


def act_grad(z, activation):
    """The activation's derivative, recomputed from the pre-activation ``z``."""
    if activation == "relu":
        return (z > 0).astype(z.dtype)
    t = np.tanh(z)
    return 1 - t * t


def client_forward(params, inputs, activation, padded=False):
    """One client's cut activations and the (input, preactivation) per layer."""
    a, caches = inputs, []
    for w, b in zip(params[::2], params[1::2]):
        z = matmul(a, w, padded) + b
        caches.append((a, z))
        a = _act(z, activation)
    return a, caches


def client_backward(params, caches, act_grads, activation, padded=False):
    """One client's parameter gradients, in the order of ``params``."""
    grads = [None] * len(params)
    delta = act_grads
    for k in range(len(caches) - 1, -1, -1):
        inputs, z = caches[k]
        delta = delta * act_grad(z, activation)
        grads[2 * k], grads[2 * k + 1] = inputs.T @ delta, delta.sum(axis=0)
        delta = matmul(delta, params[2 * k].T, padded)
    return grads


def sgd_step(params, grads, velocity, lr, momentum):
    """In-place momentum SGD on one client: v <- m*v + g; p <- p - lr*v."""
    for p, g, v in zip(params, grads, velocity):
        v *= momentum
        v += g
        p -= lr * v


# ---- per-tensor lists ------------------------------------------------------
#
# The package keeps each model part in one flat vector with its layers as
# views; the references above work on per-tensor lists [w0, b0, w1, b1, ...].
# flatten(params_arrays(layers)) is the layout the package's vectors hold.

def params_arrays(layers):
    """A model part's tensors in layout order: per layer, weights then bias."""
    return [t for layer in layers for t in (layer.w, layer.b)]


def flatten(tensors):
    """Concatenate tensors into one 1-D vector, row-major within each tensor."""
    if not tensors:
        raise ValueError("cannot flatten an empty tensor list")
    return np.concatenate([np.ravel(t, order="C") for t in tensors])


def unflatten(vector, shapes):
    """Inverse of :func:`flatten` given the original tensor shapes."""
    out = []
    pos = 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(vector[pos : pos + size].reshape(shape))
        pos += size
    if pos != vector.size:
        raise ValueError(f"vector length {vector.size} does not match shapes (need {pos})")
    return out


# ---- wrapped-reduction references ------------------------------------------
#
# The package's hot path calls ufunc.reduce and dot directly. These take the
# same values through numpy's Python-level wrappers (np.mean, np.std,
# ndarray.mean/.sum/.max, np.linalg.norm): a package result equal to one of
# them shows that skipping the wrapper changed no bit.

def mean_std(values):
    """Mean and population standard deviation by ``np.mean`` and ``np.std``."""
    arr = np.asarray(values, dtype=np.float64)
    return float(np.mean(arr)), float(np.std(arr))


def server_pass(layers, activations, labels, activation, loss_weights=None, padded=False):
    """forward_server, softmax_loss and backward_server in a reference
    form: the softmax reduces each row twice, the residual subtracts a
    one-hot matrix and the activation derivative is recomputed from each
    pre-activation. Returns
    the per-example losses, their mean, the softmax rows, each layer's
    (dW, db) and the gradient at the incoming activations. ``padded``
    applies to the backward's products only: the engine forwards each
    client's batch alone, and backprops it in a stack."""
    a, caches = client_forward(params_arrays(layers[:-1]), activations, activation)
    logits = a @ layers[-1].w + layers[-1].b
    caches.append((a, logits))
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    log_z = np.log(exp.sum(axis=1)) + logits.max(axis=1)
    per_example = log_z - logits[np.arange(len(labels)), labels]
    batch = len(labels)
    if loss_weights is None:
        loss_weights = np.full(batch, 1.0 / batch, dtype=probs.dtype)
    onehot = np.zeros_like(probs)
    onehot[np.arange(batch), labels] = 1
    delta = (probs - onehot) * loss_weights[:, None]
    grads = [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        grads[k] = (caches[k][0].T @ delta, delta.sum(axis=0))
        if k:
            delta = matmul(delta, layers[k].w.T, padded) * act_grad(caches[k - 1][1], activation)
    return per_example, float(per_example.mean()), probs, grads, matmul(delta, layers[0].w.T, padded)


def server_passes(layers, batches, activation, loss_weights=None):
    """The round's server backward as it ran before the stacked call: one
    padded :func:`server_pass` per client, in client order. ``batches`` holds each
    client's (activations, labels), ``loss_weights`` one array per client or
    None. Returns the ``[clients, params]`` gradient matrix, rows in the
    layout of the server part's flat vector, and each client's gradient at
    its activations."""
    rows, act_grads = [], []
    for k, (acts, labels) in enumerate(batches):
        *_, grads, agrads = server_pass(
            layers, acts, labels, activation, None if loss_weights is None else loss_weights[k], padded=True
        )
        rows.append(flatten([t for layer in grads for t in layer]))
        act_grads.append(agrads)
    return np.stack(rows), act_grads


def alignment_correction(g, leader, lambda_g):
    """``gda.alignment_correction`` for non-degenerate inputs, its norms by ``np.linalg.norm``."""
    g64 = g.astype(np.float64, copy=False)
    l64 = leader.astype(np.float64, copy=False)
    gn = float(np.linalg.norm(g64))
    ln = float(np.linalg.norm(l64))
    u_g = g64 / gn
    u_l = l64 / ln
    cos_theta = float(np.dot(u_g, u_l))
    return (g64 + (lambda_g / gn) * (u_l - cos_theta * u_g)).astype(g.dtype)


# ---- selection reference ----------------------------------------------------
#
# ``lgi.select_consistent`` without its tail search: every step tests every
# kept row against the bar, with the package's formulas and summation
# order, so the two must return the same rows.

def select_consistent(cohort, scores, k_percent):
    """The rows ``lgi.select_consistent`` keeps, testing every kept row at every drop."""
    rows = cohort.usable_rows
    count = min(max(1, math.ceil(k_percent * len(cohort.ids) / 100.0)), len(rows))
    score = scores.by_row
    if count == len(rows):
        return tuple(rows)
    stack, gram, diag = cohort.stack, cohort.gram, cohort.diag
    trend = np.add.reduce(stack, axis=0)
    trend_norm = math.sqrt(trend.dot(trend))
    if trend_norm <= 1e-12:
        return tuple(sorted(rows[i] for i in sorted(range(len(rows)), key=lambda i: (score[i], i))[:count]))

    toward_trend = (stack @ trend).tolist()
    to_kept = list(toward_trend)
    along = kept_sq = trend_norm * trend_norm

    def left_sum(values):
        total = 0.0
        for x in values:
            total += x
        return total

    cohort_mean = left_sum(score) / len(score)
    kept = list(range(len(rows)))
    while len(kept) > count:
        kept_score = left_sum(score[i] for i in kept)
        worst = max(score[i] for i in kept)
        drop, drop_cos = None, -math.inf
        for j in kept:
            if (kept_score - score[j]) / (len(kept) - 1) > cohort_mean and score[j] != worst:
                continue
            rest_sq = kept_sq - 2.0 * to_kept[j] + diag[j]
            cos = -2.0
            if rest_sq > 1e-24:
                cos = (along - toward_trend[j]) / (math.sqrt(rest_sq) * trend_norm)
            if cos > drop_cos:
                drop, drop_cos = j, cos
        kept.remove(drop)
        along -= toward_trend[drop]
        kept_sq += diag[drop] - 2.0 * to_kept[drop]
        to_kept = [a - b for a, b in zip(to_kept, gram[drop].tolist())]
    return tuple(rows[i] for i in kept)


# ---- partition reference ----------------------------------------------------
#
# ``data.dirichlet_partition`` and ``data.iid_partition`` as loops over the
# clients: each client's shard is concatenated from its per-class parts, and
# the empty-client repair rescans every shard's length. The package builds
# the same shards from one owner per sample, so the two must return equal
# arrays, values and dtype.

def _largest_remainder(proportions, total):
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    deficit = total - int(counts.sum())
    if deficit > 0:
        remainders = raw - counts
        order = np.lexsort((np.arange(len(raw)), -remainders))
        counts[order[:deficit]] += 1
    return counts


def dirichlet_partition(labels, num_clients, alpha, seed):
    """Per-class Dirichlet shards, one client at a time."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    per_client = [[] for _ in range(num_clients)]
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        props = rng.dirichlet(np.full(num_clients, alpha))
        counts = _largest_remainder(props, len(idx))
        start = 0
        for k, cnt in enumerate(counts):
            if cnt:
                per_client[k].append(idx[start : start + cnt])
            start += cnt

    client_indices = [
        np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        for parts in per_client
    ]
    # empty-client repair: steal one sample from the largest client
    for k in range(num_clients):
        while len(client_indices[k]) == 0:
            donor = int(np.argmax([len(ix) for ix in client_indices]))
            client_indices[k] = client_indices[donor][:1]
            client_indices[donor] = client_indices[donor][1:]
    return client_indices


def iid_partition(labels, num_clients, seed):
    """Shuffled round-robin shards, one client at a time."""
    perm = np.random.default_rng(seed).permutation(len(labels))
    return [np.sort(perm[k::num_clients]) for k in range(num_clients)]
