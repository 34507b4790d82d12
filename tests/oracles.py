"""Independent reference implementations used to cross-check the package.

Everything here recomputes a quantity from first principles: plain loops,
closed forms, or a different algorithm entirely (eigendecomposition instead
of SVD, direct densities instead of log-sum-exp, central differences
instead of backpropagation). Apart from finite_diff_check, which
differences driftlab's own loss, fit_em_two_pass, which starts from
driftlab's k-means++ seeds, fit_generator_one_class_at_a_time, which
fits one class at a time through fit_em_two_pass, train_one_at_a_time,
which steps one model with driftlab's own loss and optimizer,
fisher_one_row_at_a_time, which backprops one row at a time through
driftlab's nn.loss_and_grad, loss_and_grad_allocating, which cuts its
gradient with driftlab's layer_views, and select_one_candidate_at_a_time, which
trains one grid point at a time through driftlab's strategies,
nothing here imports from driftlab, so agreement between the two routes
is meaningful. tree_mismatches and buffer_fingerprint are plain
comparison helpers shared by the tests.

Eleven oracles keep an older form of a kernel, so that the current one
can be held to it bit for bit:

* fit_em_two_pass builds the row-major log-probability matrix twice per
  EM iteration, and fit_generator_one_class_at_a_time fits one class
  after another through it;
* centroid_vote_loop votes one query row at a time;
* routing_shares_from_confusion takes per-domain routing accuracy from a
  confusion matrix;
* train_one_at_a_time trains one model with one loss_and_grad and one
  apply_step per batch;
* fisher_one_row_at_a_time draws each Fisher label with rng.choice and
  backprops one row at a time;
* loss_and_grad_allocating and step_allocating are the backprop body and
  the optimizer step with a fresh array for every value;
* ewc_penalty_per_anchor adds one anchor's penalty at a time;
* reservoir_one_draw_at_a_time draws one reservoir slot per item;
* select_one_candidate_at_a_time trains and scores one grid point after
  another, a candidate per run.

The hypothesis tests that compare with them, by np.array_equal or by
bytes, draw these cases:

* test_fit_em_matches_the_two_pass_oracle: d up to 12, k up to 10,
  rounded data with repeated rows (a forced rescue is its own test).
* test_fit_generator_matches_one_class_at_a_time: 1 to 4 classes whose
  sizes may differ by one row, so two stacks form, d up to 12, k up to
  6, random max_iter and tol patched onto FitConfig's class constants,
  so classes stop at different iterations (a rescue of one class while
  its siblings step, and a class that stops at its third iteration while
  its siblings run on, are tests of their own).
* test_assignments_match_the_brute_force_scan: k-means assignment, d up
  to 12, against nearest_centroid_scan.
* test_vote_matches_the_per_row_loop: CentroidRouter.predict on
  integer-grid features, so exact distance ties occur, 0 to 40 queries,
  and a block size of 1 to 7 rows patched onto kmeans.PREDICT_BLOCK, so
  the queries span several blocks with a ragged last one.
* test_per_domain_shares_match_the_confusion_matrix: 1 to 6 domains.
* test_lockstep_matches_the_per_model_loop: 1 to 4 models in lockstep,
  random layer dims, a ragged last batch, 0 to 3 epochs, SGD and Adam,
  and an EWC penalty with its own lam and 0 to 3 anchors per model; it
  compares each model's parameters and per-epoch losses.
* test_fisher_matches_the_per_row_loop: 1 to 3 layers, 1 to 700 rows,
  all rows or a subsample.
* test_reused_workspaces_match_the_allocating_kernels: 1 to 4 stacked
  models of 1 to 3 layers, SGD or Adam, full and ragged batches taking
  turns on their reused workspaces, every loss, gradient and step
  compared, so no stale buffer value can hide.
* test_penalty_matches_the_per_anchor_loop_bit_for_bit: 1 to 12 anchors,
  one model or a stack of 1 to 4, magnitudes from 1e-8 to 1e8, lam from
  0 to 1e8, exact zeros in the Fisher and in the difference, two calls
  taking turns on one workspace.
* test_reservoir_draws_as_one_scalar_draw_per_item: n up to 600, k up to
  80, the generator state after the draws included.

The harness tests run whole experiments through
select_one_candidate_at_a_time, and with every request trained alone
outside the training memo, and compare every output file byte for byte.
"""
from __future__ import annotations

import filecmp
import hashlib

import numpy as np

from driftlab import gmm, nn
from driftlab.errors import NumericError, ValidationError
from driftlab.metrics import evaluate_accuracy
from driftlab.optim import apply_step
from driftlab.rng import make_rng
from driftlab.strategies import train_requests


def gmm_log_likelihood_naive(X, weights, means, variances):
    """Total log density via direct per-point, per-component products."""
    total = 0.0
    for x in X:
        density = 0.0
        for w, mu, var in zip(weights, means, variances):
            p = float(w)
            for d in range(len(x)):
                p *= np.exp(-0.5 * (x[d] - mu[d]) ** 2 / var[d]) / np.sqrt(2.0 * np.pi * var[d])
            density += p
        total += np.log(density)
    return total


def routing_shares_from_confusion(predicted, true, n_domains):
    """Per-domain routing accuracy as the diagonal of the (true, predicted)
    count matrix over its row sums; NaN for a domain with no samples."""
    confusion = np.zeros((n_domains, n_domains), dtype=int)
    np.add.at(confusion, (true, predicted), 1)
    row_sums = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        return np.where(row_sums > 0, np.diag(confusion) / np.maximum(row_sums, 1), np.nan)


def single_gaussian_mle(X, var_floor):
    """Closed-form diagonal Gaussian fit: sample mean, floored biased variance."""
    mean = X.mean(axis=0)
    var = np.maximum(((X - mean) ** 2).mean(axis=0), var_floor)
    return mean, var


def _sum_left_to_right(a):
    """Sum over the last axis one term at a time, left to right.

    Neither shortcut gives that order: NumPy sums a contiguous last axis
    pairwise from 8 terms on, and the builtin sum is compensated on Python
    3.12 and later.
    """
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out = out + a[..., j]
    return out


def nearest_centroid_scan(X, centers):
    """Brute-force nearest centroid; strict < keeps the lowest index on ties."""
    out = np.empty(len(X), dtype=int)
    for i, x in enumerate(X):
        best, best_d2 = 0, np.inf
        for j, c in enumerate(centers):
            d2 = float(_sum_left_to_right((x - c) ** 2))
            if d2 < best_d2:
                best, best_d2 = j, d2
        out[i] = best
    return out


def centroid_vote_loop(X, centroids, domain_ids, n_neighbors):
    """Centroid-router vote one query row at a time: a stable argsort of the
    row's squared distances, then a bincount of the nearest domain ids."""
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    m = min(n_neighbors, centroids.shape[0])
    n_domains = int(domain_ids.max()) + 1
    out = np.empty(X.shape[0], dtype=int)
    for i in range(X.shape[0]):
        near = np.argsort(d2[i], kind="stable")[:m]
        votes = np.bincount(domain_ids[near], minlength=n_domains)
        out[i] = int(np.argmax(votes))
    return out


# ---------------------------------------------------------------------------
# EM with two log-probability passes per iteration: the log-likelihood after
# each M-step and the E-step before the next one each build the (n, K)
# matrix from scratch. Seeding, rescue and stopping rule are driftlab's, so
# a fit through gmm.fit_em_stack must match this one bit for bit.
# ---------------------------------------------------------------------------


def _gmm_log_prob_matrix(weights, means, variances, X):
    diff = X[:, None, :] - means[None, :, :]
    quad = _sum_left_to_right(diff ** 2 / variances[None, :, :])
    norm = (np.log(variances) + float(np.log(2.0 * np.pi))).sum(axis=1)
    return np.log(weights)[None, :] - 0.5 * (quad + norm[None, :])


def _gmm_total_log_likelihood(weights, means, variances, X):
    lp = _gmm_log_prob_matrix(weights, means, variances, X)
    top = lp.max(axis=1)
    return float((top + np.log(_sum_left_to_right(np.exp(lp - top[:, None])))).sum())


def fit_em_two_pass(X, config, rng):
    """Returns (weights, means, variances, ll_trace) like one slice of
    gmm.fit_em_stack.

    Seeds through gmm.kmeans_pp_init looked up at call time, so a test that
    patches the seeding reaches both fits.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    k = config.n_components

    global_var = np.maximum(X.var(axis=0), config.var_floor)
    weights = np.full(k, 1.0 / k)
    means = gmm.kmeans_pp_init(X, k, rng)
    variances = np.tile(global_var, (k, 1))

    trace = []
    prev = -np.inf
    for _ in range(config.max_iter):
        lp = _gmm_log_prob_matrix(weights, means, variances, X)
        top = lp.max(axis=1)
        log_norm = top + np.log(_sum_left_to_right(np.exp(lp - top[:, None])))
        resp = np.exp(lp - log_norm[:, None])

        mass = resp.sum(axis=0)
        dead = mass < 1e-12
        if dead.any():
            worst = np.argmin(log_norm)
            for j in np.flatnonzero(dead):
                means[j] = X[worst]
                variances[j] = global_var
                weights[j] = 1.0 / n
            weights /= weights.sum()
            trace = []
            prev = -np.inf
            continue

        weights = mass / n
        means = (resp.T @ X) / mass[:, None]
        ex2 = (resp.T @ (X ** 2)) / mass[:, None]
        variances = np.maximum(ex2 - means ** 2, config.var_floor)

        ll = _gmm_total_log_likelihood(weights, means, variances, X)
        if not np.isfinite(ll):
            raise NumericError("non-finite log-likelihood during EM")
        trace.append(ll)
        if ll - prev <= config.tol and len(trace) > 1:
            break
        prev = ll
    return weights, means, variances, np.asarray(trace)


def fit_generator_one_class_at_a_time(trainset, n_classes, config, seed):
    """gmm.fit_generator as it was before a domain's classes fitted as one
    EM stack: each class is checked and then fitted alone, here by
    fit_em_two_pass, before the next class starts."""
    gen = gmm.GmmGenerator()
    for c in range(n_classes):
        Xc = trainset.X[trainset.y == c]
        if Xc.shape[0] < config.n_components:
            raise ValidationError(
                f"class {c} has {Xc.shape[0]} samples, fewer than "
                f"{config.n_components} mixture components"
            )
        weights, means, variances, trace = fit_em_two_pass(
            Xc, config, make_rng(seed, "class", c))
        gen.mixtures.append(gmm.Mixture(weights, means, variances))
        gen.ll_traces.append(trace)
    return gen


def pca_2d_reference(X):
    """Top-2 PCA coordinates through the covariance eigendecomposition,
    under the same sign convention as the package: the largest-magnitude
    entry of each component is positive.
    """
    Xc = X - X.mean(axis=0)
    evals, evecs = np.linalg.eigh(Xc.T @ Xc)
    order = np.argsort(evals)[::-1]
    components = evecs[:, order[:2]].T.copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return Xc @ components.T


# ---------------------------------------------------------------------------
# A second, self-contained MLP forward pass. Used both to difference the
# loss numerically and to replay routing decisions point by point.
# ---------------------------------------------------------------------------


def mlp_logits(weights, biases, X):
    a = np.asarray(X, dtype=float)
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w + b
        if i < last:
            a = np.maximum(a, 0.0)
    return a


def mlp_cross_entropy(weights, biases, X, y):
    z = mlp_logits(weights, biases, X)
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -log_probs[np.arange(len(y)), y].mean()


def mlp_argmax(weights, biases, X):
    return np.argmax(mlp_logits(weights, biases, X), axis=1)


def numeric_mlp_grads(weights, biases, X, y, h=1e-6):
    """Central differences of the reference cross-entropy over every parameter."""
    grads = []
    for arr in list(weights) + list(biases):
        g = np.zeros_like(arr)
        for flat in range(arr.size):
            orig = arr.flat[flat]
            arr.flat[flat] = orig + h
            up = mlp_cross_entropy(weights, biases, X, y)
            arr.flat[flat] = orig - h
            down = mlp_cross_entropy(weights, biases, X, y)
            arr.flat[flat] = orig
            g.flat[flat] = (up - down) / (2.0 * h)
        grads.append(g)
    k = len(weights)
    return list(zip(grads[:k], grads[k:]))


def softmax_1d(z):
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def linear_softmax_grad(W, b, x, y):
    """Closed-form single-sample cross-entropy gradient of a linear model."""
    p = softmax_1d(x @ W + b)
    e = p.copy()
    e[y] -= 1.0
    return np.outer(x, e), e


def expected_fisher_linear_softmax(W, b, X):
    """Exact expected Fisher diagonal of a linear softmax model.

    E_{y~p}[g^2] per sample is x_d^2 p_c (1 - p_c) for weights and
    p_c (1 - p_c) for biases; averaged over the batch.
    """
    FW = np.zeros_like(W)
    Fb = np.zeros_like(b)
    for x in X:
        p = softmax_1d(x @ W + b)
        var = p * (1.0 - p)
        FW += np.outer(x ** 2, var)
        Fb += var
    return FW / len(X), Fb / len(X)


def reference_adam_trajectory(theta0, grad_fn, lr, steps,
                              beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam on a flat parameter vector."""
    theta = np.asarray(theta0, dtype=float).copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    trajectory = []
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(theta.copy())
    return trajectory


def route_then_classify(router_params, expert_params, X):
    """Per-point expert-bank decomposition: argmax-route each sample, then
    ask only the routed expert. router_params is (weights, biases) or None
    for the constant route; expert_params is a list of (weights, biases).
    """
    X = np.asarray(X, dtype=float)
    preds = np.empty(len(X), dtype=int)
    for i in range(len(X)):
        xi = X[i : i + 1]
        if router_params is None:
            r = 0
        else:
            r = int(mlp_argmax(router_params[0], router_params[1], xi)[0])
        w, b = expert_params[r]
        preds[i] = int(mlp_argmax(w, b, xi)[0])
    return preds


# ---------------------------------------------------------------------------
# Central-difference validation of analytic gradients: it re-evaluates the
# loss at theta +/- h per coordinate and never looks at how the analytic
# gradient was produced.
# ---------------------------------------------------------------------------

# Loss values are O(1) (cross-entropy of a few classes), so gradients below
# this scale are treated as zero when forming the relative error. Without a
# floor, rounding noise of ~1e-12 in the difference quotient would dominate
# the ratio for dead parameters.
REL_FLOOR = 1e-3


def finite_diff_check(model, batch, labels, h: float = 1e-5, *,
                      loss_fn=None, max_params: int = 2000, seed: int = 0) -> float:
    """Max relative discrepancy between analytic and central-difference gradients.

    ``loss_fn(model) -> (loss, grad)``, with grad in the layout of
    ``model.params``, defaults to mean cross-entropy on (batch, labels);
    pass a custom one to check an augmented loss. All parameters are
    checked when the model has at most ``max_params``; otherwise a seeded
    random subset of max(100, max_params) coordinates.

    Relative error per coordinate is |a - n| / max(|a|, |n|, REL_FLOOR).
    """
    if not (0.0 < h <= 1e-2):
        raise ValidationError(f"perturbation h must lie in (0, 1e-2], got {h}")
    if loss_fn is None:
        x = np.asarray(batch, dtype=float)
        y = np.asarray(labels)
        if x.shape[0] == 0:
            raise ValidationError("empty batch")

        def loss_fn(m):
            return nn.loss_and_grad(m, x, y)

    _, analytic = loss_fn(model)
    params = model.params
    coords = range(params.size)
    if params.size > max_params:
        rng = np.random.default_rng(seed)
        coords = sorted(rng.choice(params.size, size=max(100, max_params), replace=False))

    worst = 0.0
    for k in coords:
        original = params[k]
        params[k] = original + h
        loss_plus, _ = loss_fn(model)
        params[k] = original - h
        loss_minus, _ = loss_fn(model)
        params[k] = original

        numeric = (loss_plus - loss_minus) / (2.0 * h)
        a = analytic[k]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), REL_FLOOR)
        if rel > worst:
            worst = rel
    return worst


def ewc_penalty_per_anchor(model, anchors, lam):
    """training.ewc_penalty as it was before its anchors were stacked: one
    pass per anchor, each allocating its own temporaries, adding into a
    zero loss and gradient in anchor order."""
    lam = np.asarray(lam, dtype=float)
    loss = np.zeros(model.params.shape[:-1])
    grad = np.zeros_like(model.params)
    for anchor, fisher in anchors:
        d = model.params - anchor
        loss += 0.5 * lam * (fisher * d ** 2).sum(axis=-1)
        grad += lam[..., None] * fisher * d
    return loss, grad


def reservoir_one_draw_at_a_time(n, k, rng):
    """memory.reservoir_indices as Algorithm R reads: one scalar draw of
    j in [0, i] per item i >= k, which replaces slot j if j < k."""
    if k >= n:
        return np.arange(n)
    keep = np.arange(k)
    for i in range(k, n):
        j = int(rng.integers(0, i + 1))
        if j < k:
            keep[j] = i
    return np.sort(keep)


def tree_mismatches(left, right):
    """Relative paths under two pathlib directories that differ in content
    or exist on one side only."""
    cmp = filecmp.dircmp(left, right)
    _, differ, errors = filecmp.cmpfiles(left, right, cmp.common_files, shallow=False)
    bad = cmp.left_only + cmp.right_only + differ + errors
    for sub in cmp.common_dirs:
        bad += [f"{sub}/{rel}" for rel in tree_mismatches(left / sub, right / sub)]
    return sorted(bad)


def buffer_fingerprint(data) -> str:
    """Short SHA-256 of a LabeledSet's raw sample bytes: two consumers hold
    the same buffer exactly when their fingerprints match."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(data.X, dtype=float).tobytes())
    h.update(np.ascontiguousarray(data.y, dtype=int).tobytes())
    return h.hexdigest()[:16]


def loss_and_grad_allocating(model, x, y):
    """nn.loss_and_grad's backprop body as it was before its buffers were
    allocated once per stack: every array of every step is a fresh one.
    Returns (loss, grad) for a batch of any leading shape, unchecked."""
    n = x.shape[-2]
    activations = [x]
    last = model.n_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = activations[-1] @ w + b[..., None, :]
        activations.append(np.maximum(a, 0.0) if i < last else a)
    logits = activations[-1]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = (np.arange(y.size), y.reshape(-1))
    c = logits.shape[-1]
    loss = -log_probs.reshape(-1, c)[picked].reshape(y.shape).sum(axis=-1) / n

    delta = np.exp(log_probs)
    delta.reshape(-1, c)[picked] -= 1.0
    delta /= n
    grad = np.empty((*y.shape[:-1], model.params.shape[-1]))
    views = nn.layer_views(model, grad)
    for i in range(model.n_layers - 1, -1, -1):
        dw, db = views[i]
        dw[...] = activations[i].mT @ delta
        db[...] = delta.sum(axis=-2)
        if i > 0:
            delta = (delta @ model.weights[i].mT) * (activations[i] > 0.0)
    return loss, grad


def step_allocating(params, grad, kind, lr, moments, t,
                    beta1=0.9, beta2=0.999, eps=1e-8):
    """optim.apply_step's update of params in place as it was before Adam's
    temporaries were allocated next to its moments: step t (from 1) of SGD,
    or of Adam with moments = [m, v], which it updates in place."""
    if kind == "sgd":
        params -= lr * grad
        return
    m, v = moments
    m *= beta1
    m += (1 - beta1) * grad
    v *= beta2
    v += (1 - beta2) * grad * grad
    params -= lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)


def train_one_at_a_time(model, data, *, epochs, batch_size, opt, seed, penalty=None):
    """The per-model training loop that lockstep training replaced: one
    loss_and_grad and one apply_step per batch of one model. Returns the
    per-epoch mean losses."""
    rng = make_rng(seed, "shuffle")
    n = len(data)
    epoch_losses = np.empty(epochs)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = rng.permutation(n)
            total, batches = 0.0, 0
            for b, start in enumerate(range(0, n, batch_size)):
                idx = order[start:start + batch_size]
                loss, grad = nn.loss_and_grad(model, data.X[idx], data.y[idx])
                if penalty is not None:
                    ploss, pgrad = penalty(model)
                    loss += ploss
                    grad = grad + pgrad
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}, batch {b}")
                apply_step(model, grad, opt)
                total += loss
                batches += 1
            epoch_losses[epoch] = total / batches
    return epoch_losses


def fisher_one_row_at_a_time(model, data, seed, n_samples=None):
    """The Fisher loop that one stacked backprop per block of rows replaced:
    rng.choice draws each row's label, and each row backprops alone into
    one reused gradient buffer whose square is added to the sum."""
    rng = make_rng(seed, "fisher")
    n = len(data)
    if n_samples is None or n_samples == n:
        idx = np.arange(n)
    else:
        idx = rng.choice(n, size=n_samples, replace=False)
    X = data.X[idx]
    probs = nn.softmax(nn.forward(model, X))
    fisher = np.zeros_like(model.params)
    workspace = nn.Workspace(model, (1,))
    for i, row in enumerate(probs):
        y_hat = np.array([rng.choice(model.n_outputs, p=row)])
        nn.loss_and_grad(model, X[i:i + 1], y_hat, workspace=workspace)
        fisher += workspace.grad ** 2
    return fisher / len(idx)


def select_one_candidate_at_a_time(strategies, grid, t, guards):
    """harness._select_and_train as it was before grid candidates trained
    in lockstep: each point's candidates, a clone per run, learn, train in
    one train_requests call and are scored before the next point's
    candidates are cloned, and only each run's winner consolidates."""
    if len(grid) == 1:
        train_requests([req for strategy, guard in zip(strategies, guards)
                        for req in strategy.learn(t, guard)])
        winners = strategies
    else:
        best = [(-1.0, None)] * len(strategies)
        for hp in grid:
            candidates = [strategy.clone() for strategy in strategies]
            for candidate in candidates:
                candidate.hp = hp
            train_requests([req for candidate, guard in zip(candidates, guards)
                            for req in candidate.learn(t, guard)])
            for i, (candidate, guard) in enumerate(zip(candidates, guards)):
                score = evaluate_accuracy(candidate.predict, guard.val(t))
                if score > best[i][0]:
                    best[i] = (score, candidate)
        winners = [candidate for _, candidate in best]
    for winner, guard in zip(winners, guards):
        winner.consolidate(t, guard)
    return winners
