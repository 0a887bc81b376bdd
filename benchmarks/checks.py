"""Output checks made apart from the program.

The functions recompute quantities with the benchmark's own numpy, or
state properties the method must have, for comparison with what the
package produced. The comparisons return True/False and never raise on a
mismatch, so a wrong output counts against the operation that produced it.
"""
from __future__ import annotations

import numpy as np

# Gradients are checked by a central difference of the loss along the unit
# vector of a parameter block's analytic gradient, which must equal the
# gradient's norm. The step is chosen per block so that the rounding error
# of the loss moves the difference by NOISE_TARGET of the norm: blocks with
# large gradients take small steps, which keeps the truncation error small
# where the curvature is large, and at 1000 viewers the attention scoring
# vectors' gradients of about 1e-9 take steps near 1e-3.
NOISE_TARGET = 1e-4
STEP_MIN, STEP_MAX = 1e-6, 1e-2
RTOL_GRAD = 1e-2
# The check only counts when the loss's rounding could not hide an error
# of RTOL_GRAD: its predicted effect must stay below this share of it.
NOISE_SHARE = 0.25
EPS = float(np.finfo(np.float64).eps)
TOL_SCORE = 1e-12


def closed_form_params(n_global: int, d1: int, d2: int, window: int, heads: int) -> int:
    """n*d1 + (l+1)*d1*d2 + l*h*(d1^2 + 2*d1)."""
    return n_global * d1 + (window + 1) * d1 * d2 + window * heads * (d1 * d1 + 2 * d1)


def param_count_ok(count: int, cfg, n_global: int) -> bool:
    return count == closed_form_params(n_global, cfg.hidden_dim, cfg.embed_dim,
                                       cfg.window, cfg.heads)


def window_pairs(window) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for g in window for u, v, _ in g.edges}


def disjoint_from_window(links, window) -> bool:
    """No link of ``links`` (u, v, w) is a pair of any window snapshot."""
    pairs = window_pairs(window)
    return not any((min(u, v), max(u, v)) in pairs for u, v, _ in links)


def scoreable_links(event, k: int, length: int) -> tuple:
    """Links of snapshot k+1 new to the window k-length..k whose endpoints
    are both present in snapshot k, in snapshot order."""
    window = event.snapshots[k - length:k + 1]
    seen = window_pairs(window)
    present = set(window[-1].nodes)
    return tuple(e for e in event.snapshots[k + 1].edges
                 if (e[0], e[1]) not in seen and e[0] in present and e[1] in present)


def dot_scores(z: np.ndarray, ids, links) -> np.ndarray:
    """sigmoid(z_u . z_v) for each link, from the embedding matrix alone."""
    pos = {u: i for i, u in enumerate(ids)}
    iu = np.array([pos[u] for u, _, _ in links], dtype=np.intp)
    iv = np.array([pos[v] for _, v, _ in links], dtype=np.intp)
    return 1.0 / (1.0 + np.exp(-np.einsum("ij,ij->i", z[iu], z[iv])))


def rmse(pred, truth) -> float:
    err = np.asarray(pred, dtype=np.float64) - np.asarray(truth, dtype=np.float64)
    return float(np.sqrt(np.mean(err * err)))


def baseline_rmse(window, links) -> float:
    """RMSE of the mean window edge weight used as every link's score."""
    mean_w = float(np.mean([w for g in window for _, _, w in g.edges]))
    return rmse(np.full(len(links), mean_w), [w for _, _, w in links])


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def scores_agree(ours, theirs) -> bool:
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return ours.shape == theirs.shape and bool(np.all(np.abs(ours - theirs) <= TOL_SCORE))


def directional_differences(loss_value, leaves: dict, grads: dict,
                            loss: float) -> list[tuple[float, float, float]]:
    """For each block of ``grads`` (name -> analytic gradient at a point
    where the loss is ``loss``): its norm, the derivative of the loss along
    its unit vector by central differences, and the rounding error that
    derivative can carry. Every perturbed block is put back exactly."""
    out = []
    for name, grad in grads.items():
        norm = float(np.linalg.norm(grad))
        if norm == 0.0 or not np.isfinite(norm):
            out.append((norm, float("nan"), float("inf")))
            continue
        step = min(max(EPS * abs(loss) / (NOISE_TARGET * norm), STEP_MIN), STEP_MAX)
        arr = leaves[name].value
        x = arr.copy()
        arr[...] = x + step * (grad / norm)
        up = loss_value()
        arr[...] = x - step * (grad / norm)
        down = loss_value()
        arr[...] = x
        noise = EPS * max(abs(up), abs(down)) / step
        out.append((norm, (up - down) / (2.0 * step), noise))
    return out


def gradients_agree(checked, rtol: float = RTOL_GRAD) -> bool:
    """Each block's directional derivative equals its gradient's norm, and
    the norm is large enough that the comparison could fail."""
    return all(noise <= NOISE_SHARE * rtol * norm and abs(numeric - norm) <= rtol * norm
               for norm, numeric, noise in checked)


def neighbourhood_mask(g) -> np.ndarray:
    """True where node i may attend to node j: graph neighbours, or the
    node itself when it has none."""
    pos = {u: i for i, u in enumerate(g.nodes)}
    mask = np.zeros((g.n, g.n), dtype=bool)
    for u, v, _ in g.edges:
        mask[pos[u], pos[v]] = mask[pos[v], pos[u]] = True
    lonely = ~mask.any(axis=1)
    mask[lonely, lonely] = True
    return mask


def attention_rows_ok(alpha: np.ndarray, mask: np.ndarray) -> bool:
    """Rows are distributions supported on the neighbourhood."""
    return (alpha.shape == mask.shape
            and bool(np.all(alpha[~mask] == 0.0))
            and bool(np.all(alpha >= 0.0))
            and bool(np.allclose(alpha.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)))
