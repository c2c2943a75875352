"""Seeded cora-shaped planted-partition graph, written as LINQS files.

The shape follows cora: 2,708 nodes in 7 classes of cora's sizes, about
5.3k undirected edges with about 0.8 homophily and heavy-tailed degrees,
and 1,433 binary bag-of-words features with about 18 active per row whose
topic words depend on the class. Only the seed varies between graphs.
"""

import numpy as np

CLASS_SIZES = (818, 426, 418, 351, 298, 217, 180)
NUM_NODES = sum(CLASS_SIZES)
NUM_FEATURES = 1433
NUM_EDGES = 5300
HOMOPHILY = 0.8
WORDS_PER_ROW = 18
# degree propensity is 1 + Pareto(PARETO_SHAPE), a heavy tail like cora's,
# capped so that one hub cannot double the nonzeros of T_2 on some seeds
PARETO_SHAPE = 2.2
WEIGHT_CAP = 40.0
TOPIC_WORDS = 100        # words each class favours
TOPIC_SHARE = 0.35       # expected share of a row's words drawn from them

# acceptance ranges for stats(); the test and every run check them
TARGETS = {
    "nodes": (NUM_NODES, NUM_NODES),
    "edges": (5200, 5400),
    "mean_degree": (3.8, 4.0),
    "max_degree": (30, 400),
    "t2_nnz": (55000, 85000),
    "feature_nnz_per_row": (17.0, 19.0),
    "homophily": (0.75, 0.85),
}


def _sample(rng, pool, weights, size):
    """``size`` draws from ``pool``, with probability proportional to weight."""
    cum = np.cumsum(weights[pool])
    return pool[np.searchsorted(cum, rng.random(size) * cum[-1], side="right")]


def _far_ends(rng, labels, weights, us):
    """One far end per node in ``us``: in the same class with probability
    HOMOPHILY, else in another class; weight-sampled either way."""
    same = rng.random(us.size) < HOMOPHILY
    vs = np.empty_like(us)
    for c in range(len(CLASS_SIZES)):
        pick = same & (labels[us] == c)
        vs[pick] = _sample(rng, np.flatnonzero(labels == c), weights,
                           int(pick.sum()))
    todo = np.flatnonzero(~same)
    everyone = np.arange(labels.size)
    while todo.size:
        vs[todo] = _sample(rng, everyone, weights, todo.size)
        todo = todo[labels[vs[todo]] == labels[us[todo]]]
    return vs


def _edges(rng, labels, weights):
    """NUM_EDGES distinct undirected pairs (u < v) without self-loops.

    Every node first cites one other node, so almost none is isolated;
    the remaining edges start at weight-sampled nodes.
    """
    seen, out = set(), []
    us = rng.permutation(labels.size)
    while True:
        vs = _far_ends(rng, labels, weights, us)
        for u, v in zip(us.tolist(), vs.tolist()):
            key = (min(u, v), max(u, v))
            if u != v and key not in seen:
                seen.add(key)
                out.append(key)
                if len(out) == NUM_EDGES:
                    return np.array(out, dtype=np.int64)
        us = _sample(rng, np.arange(labels.size), weights,
                     NUM_EDGES - len(out))


def _features(rng, labels):
    n = labels.size
    popularity = 1.0 / np.arange(1, NUM_FEATURES + 1) ** 0.8
    popularity = rng.permutation(popularity / popularity.sum())
    topics = [rng.choice(NUM_FEATURES, size=TOPIC_WORDS, replace=False)
              for _ in CLASS_SIZES]
    feats = np.zeros((n, NUM_FEATURES), dtype=np.uint8)
    counts = np.clip(rng.poisson(WORDS_PER_ROW, size=n), 5, 40)
    for i in range(n):
        probs = popularity * (1.0 - TOPIC_SHARE)
        probs[topics[labels[i]]] += TOPIC_SHARE / TOPIC_WORDS
        words = rng.choice(NUM_FEATURES, size=counts[i], replace=False,
                           p=probs / probs.sum())
        feats[i, words] = 1
    return feats


def generate(seed: int):
    """Return (labels, edges, features) for one seed; labels are class
    ids, edges an (m, 2) array of distinct pairs, features uint8 0/1."""
    rng = np.random.default_rng([seed, 2708])
    labels = rng.permutation(np.repeat(np.arange(len(CLASS_SIZES)),
                                       CLASS_SIZES))
    weights = np.minimum(1.0 + rng.pareto(PARETO_SHAPE, size=labels.size),
                         WEIGHT_CAP)
    return labels, _edges(rng, labels, weights), _features(rng, labels)


def write_linqs(directory, name, seed, labels, edges, features):
    """Write <name>.content and <name>.cites under ``directory``."""
    rng = np.random.default_rng([seed, 1433])
    n = labels.size
    ids = rng.choice(10 * n, size=n, replace=False) + 1
    cells = np.full((n, 2 * NUM_FEATURES), ord("\t"), dtype=np.uint8)
    cells[:, 1::2] = features + ord("0")
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"{name}.content", "wb") as fh:
        for i in range(n):
            fh.write(b"%d" % ids[i] + cells[i].tobytes()
                     + b"\ttopic_%d\n" % labels[i])
    flip = rng.random(len(edges)) < 0.5
    cited = np.where(flip, edges[:, 1], edges[:, 0])
    citing = np.where(flip, edges[:, 0], edges[:, 1])
    with open(directory / f"{name}.cites", "w") as fh:
        fh.writelines(f"{ids[a]}\t{ids[b]}\n" for a, b in zip(cited, citing))


def stats(labels, edges, features) -> dict:
    """Graph statistics, computed here and not by the library under test.

    L~ (the rescaled Laplacian, T_1) has one entry per directed edge and
    one per diagonal; T_2 = 2 L~^2 - I has the pattern of (A + I)^2.
    """
    n = labels.size
    deg = np.bincount(edges.ravel(), minlength=n)
    loops = np.arange(n)
    rows = np.concatenate([edges[:, 0], edges[:, 1], loops])
    cols = np.concatenate([edges[:, 1], edges[:, 0], loops])
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    # every pair of neighbours (u, v) of a middle node j is an entry of (A+I)^2
    sizes = np.diff(offsets)
    mid = np.repeat(np.arange(n), sizes * sizes)
    start = np.repeat(offsets[:-1], sizes * sizes)
    within = np.arange(mid.size) - np.repeat(
        np.concatenate([[0], np.cumsum(sizes * sizes)[:-1]]), sizes * sizes)
    u = cols[start + within // sizes[mid]]
    v = cols[start + within % sizes[mid]]
    t2_nnz = np.unique(u * n + v).size
    return {
        "nodes": int(n),
        "edges": int(len(edges)),
        "mean_degree": float(deg.mean()),
        "max_degree": int(deg.max()),
        "feature_nnz_per_row": float(features.sum(axis=1).mean()),
        "homophily": float(np.mean(labels[edges[:, 0]] == labels[edges[:, 1]])),
        "l_tilde_nnz": int(2 * len(edges) + n),
        "t2_nnz": int(t2_nnz),
    }


def check_stats(s: dict) -> list:
    """Names of statistics outside their TARGETS range."""
    return [f"{k}={s[k]} not in {lo}..{hi}" for k, (lo, hi) in TARGETS.items()
            if not lo <= s[k] <= hi]
