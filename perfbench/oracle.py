"""Output checks that never call crbmkit's own evaluators.

Every model is re-evaluated here by plain enumeration with a chunked
softplus sum, so the checks keep working where crbmkit's ``TOTAL_CAP``
makes ``eval_conditional`` and ``eval_joint_rbm`` refuse (k+n+m > 26).
Distances follow crbmkit's conventions: the per-row distance is the L1
norm of the row difference, maximised over inputs; divergences are in bits.

Each ``check_*`` function returns ``None`` when the output passes and a
one-line reason when it does not.
"""

from __future__ import annotations

import numpy as np

#: largest (inputs x outputs x hidden units) block enumerated at once
CHUNK_ELEMS = 1 << 22


def bits(width: int) -> np.ndarray:
    """(2^width, width) 0/1 matrix whose row v holds the bits of v."""
    v = np.arange(1 << width)
    return ((v[:, None] >> np.arange(width)[None, :]) & 1).astype(float)


def crbm_logits(k: int, n: int, W, V, b, c) -> np.ndarray:
    """Unnormalised log p(y|x) as a (2^k, 2^n) array:
    b.y + sum_j softplus(V_j.x + W_j.y + c_j)."""
    c = np.asarray(c, dtype=float).reshape(-1)
    m = c.size
    W = np.asarray(W, dtype=float).reshape(m, n)
    V = np.asarray(V, dtype=float).reshape(m, k)
    X, Y = bits(k), bits(n)
    out = np.tile(Y @ np.asarray(b, dtype=float), (1 << k, 1))
    if m == 0:
        return out
    ax = X @ V.T                      # (2^k, m)
    ay = Y @ W.T + c                  # (2^n, m)
    step = max(1, CHUNK_ELEMS // ((1 << n) * m))
    for lo in range(0, 1 << k, step):
        act = ax[lo:lo + step, None, :] + ay[None, :, :]
        out[lo:lo + step] += np.logaddexp(0.0, act).sum(axis=2)
    return out


def normalize_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    return p / p.sum(axis=1, keepdims=True)


def crbm_rows(params: dict) -> np.ndarray:
    """Rows p(.|x) of a CRBM given as crbmkit's JSON parameter object."""
    return normalize_rows(crbm_logits(params["k"], params["n"], params["W"],
                                      params["V"], params["b"], params["c"]))


def params_dict(p) -> dict:
    """The fields of a ``CrbmParams`` as plain arrays."""
    return {"k": p.k, "n": p.n, "m": p.m, "W": p.W, "V": p.V, "b": p.b, "c": p.c}


def row_tv(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.abs(np.asarray(p) - np.asarray(q)).sum(axis=1).max())


def clamp_rows(rows: np.ndarray, n: int, eps: float) -> np.ndarray:
    """The universal compiler's documented clamp: floor eps / 2^(n+2)."""
    r = np.maximum(np.asarray(rows, dtype=float), eps / (1 << (n + 2)))
    return r / r.sum(axis=1, keepdims=True)


def kl_bits(p_rows: np.ndarray, q_rows: np.ndarray) -> float:
    """Uniform-input average of the row divergences KL(p || q) in bits."""
    mask = p_rows > 0
    if np.any(q_rows[mask] <= 0):
        return float("inf")
    terms = np.zeros_like(p_rows)
    terms[mask] = p_rows[mask] * np.log2(p_rows[mask] / q_rows[mask])
    return float(terms.sum(axis=1).mean())


# -- compile ------------------------------------------------------------------

def check_compiled(params: dict, target_rows: np.ndarray, eps: float,
                   budget: int, m_reported: int) -> str | None:
    """Per-row TV <= eps against the (already clamped) target, m <= budget."""
    if params["m"] != m_reported:
        return f"report says {m_reported} units, params hold {params['m']}"
    if params["m"] > budget:
        return f"m = {params['m']} > budget {budget}"
    tv = row_tv(crbm_rows(params), target_rows)
    if not tv <= eps * (1 + 1e-9):
        return f"row tv {tv:.3e} > eps {eps:g}"
    return None


def check_witness(params: dict, target_rows: np.ndarray, m_budget: int,
                  div: float) -> str | None:
    if params["m"] > m_budget:
        return f"m = {params['m']} > budget {m_budget}"
    n = params["n"]
    mine = kl_bits(target_rows, crbm_rows(params))
    if not abs(mine - div) <= 1e-6 * max(1.0, abs(mine)):
        return f"reported divergence {div!r} != recomputed {mine!r}"
    if not mine <= n + 1e-9:
        return f"divergence {mine:.4f} > n = {n}"
    return None


# -- dimension ----------------------------------------------------------------

#: (k, n, m) -> known dimension, from the paper's worked cases
REFERENCE_DIMS = {(1, 3, 1): 8, (2, 2, 1): 7, (1, 2, 2): 6, (1, 1, 1): 2}


def check_certificate(k: int, n: int, m: int, numeric: int, tropical: int,
                      expected: int) -> str | None:
    cap = min((k + n + 1) * m + n, (1 << k) * ((1 << n) - 1))
    want = REFERENCE_DIMS.get((k, n, m))
    if want is not None and (expected != want or numeric != want):
        return f"expected {expected}, numeric {numeric}, known {want}"
    if not tropical <= numeric <= cap:
        return f"need tropical {tropical} <= numeric {numeric} <= {cap}"
    return None


# -- Markov random fields -----------------------------------------------------

def mrf_log_joint(n: int, theta: dict[int, float]) -> np.ndarray:
    """E(v) = sum_A theta_A [A subseteq v] over all 2^n states."""
    v = np.arange(1 << n)
    e = np.zeros(1 << n)
    for a, th in theta.items():
        e[(v & a) == a] += th
    return e


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def check_mrf_joint(n: int, faces, theta: dict[int, float], params: dict,
                    correction=None) -> str | None:
    """RBM joint equals the field's Gibbs law (times the correction);
    one hidden unit per face of cardinality > 1."""
    want_m = sum(1 for a in faces if popcount(a) > 1)
    if params["m"] != want_m:
        return f"m = {params['m']} != {want_m} cancelled faces"
    e = mrf_log_joint(n, theta)
    if correction is not None:
        e = e + np.log(np.asarray(correction, dtype=float))
    p = normalize_rows(e[None, :])[0]
    q = crbm_rows({"k": 0, "n": n, "m": params["m"], "W": params["W"],
                   "V": np.zeros((params["m"], 0)), "b": params["b"],
                   "c": params["c"]})[0]
    tv = float(np.abs(p - q).sum())
    if not tv <= 1e-6:
        return f"joint tv {tv:.3e} > 1e-6"
    return None


def check_mrf_conditional(n_total: int, faces, theta: dict[int, float], k: int,
                          params: dict) -> str | None:
    """CRBM rows equal the field's conditionals given the first k units;
    one hidden unit per face of cardinality > 1 not inside the inputs."""
    inputs = (1 << k) - 1
    want_m = sum(1 for a in faces if popcount(a) > 1 and a & ~inputs)
    if params["m"] != want_m:
        return f"m = {params['m']} != {want_m} cancelled faces"
    e = mrf_log_joint(n_total, theta)
    # joint index v = x + 2^k y  ->  (2^n, 2^k) blocks, rows by x
    rows = normalize_rows(e.reshape(1 << (n_total - k), 1 << k).T)
    tv = row_tv(crbm_rows(params), rows)
    if not tv <= 1e-6:
        return f"conditional tv {tv:.3e} > 1e-6"
    return None
