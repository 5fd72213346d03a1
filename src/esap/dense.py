"""Dense vector index: exhaustive cosine search plus a navigable-graph ANN mode.

Small corpora (below ``exact_threshold``) are searched exhaustively, which is
both faster and exact. Larger corpora are served by a single-layer
navigable graph built at index time in one batch: exact candidate lists,
diversity pruning, reverse edges and a medoid entry point. The build uses no
random numbers, so identical inputs produce identical graphs.

All vectors are expected unit-norm (or all-zero), so cosine similarity is a
dot product and cosine distance is 1 - dot.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmbedderFailure

DEFAULT_M = 16               # graph nodes keep at most 2M neighbors
DEFAULT_EF_CONSTRUCTION = 200  # exact candidates per node before pruning
DEFAULT_EF_SEARCH = 128
DEFAULT_EXACT_THRESHOLD = 5_000


@dataclass
class AnnParams:
    m: int = DEFAULT_M
    ef_construction: int = DEFAULT_EF_CONSTRUCTION
    ef_search: int = DEFAULT_EF_SEARCH
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD
    mode: str = "auto"       # auto | exact | ann
    seed: int = 42           # recorded in index metadata; the build draws no random numbers

    def to_json(self) -> dict:
        """The ``ann`` section of config files, config echoes and index metadata."""
        return {"m": self.m, "ef_c": self.ef_construction, "ef_s": self.ef_search,
                "exact_threshold": self.exact_threshold, "mode": self.mode,
                "seed": self.seed}

    @classmethod
    def from_json(cls, data: dict) -> "AnnParams":
        return cls(m=int(data["m"]), ef_construction=int(data["ef_c"]),
                   ef_search=int(data["ef_s"]),
                   exact_threshold=int(data["exact_threshold"]),
                   mode=data["mode"], seed=int(data["seed"]))


@dataclass
class _Graph:
    """Single-layer neighbor graph: adjacency per node plus an entry point.

    The JSON form keeps the layered shape of earlier builds (``levels``,
    ``adj[node][level]``, ``max_level``) with every node on level 0. A
    layered graph from an earlier build loads as its level 0, which holds
    every node and every base-layer edge.
    """

    adj: list[list[int]] = field(default_factory=list)   # adj[node] -> neighbor ids
    entry: int = -1

    def to_json(self) -> dict:
        return {
            "levels": [0] * len(self.adj),
            "adj": [[nbrs] for nbrs in self.adj],
            "entry": self.entry,
            "max_level": 0 if self.adj else -1,
        }

    @classmethod
    def from_json(cls, data: dict) -> "_Graph":
        return cls(adj=[list(map(int, node[0])) for node in data["adj"]],
                   entry=int(data["entry"]))


@dataclass
class DenseIndex:
    vectors: np.ndarray                      # (n, d) float32, rows unit-norm or zero
    dim: int
    params: AnnParams
    mode: str                                # resolved: exact | ann
    graph: _Graph | None = field(default=None, repr=False)

    def __post_init__(self):
        self.vectors.flags.writeable = False


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0                # all-zero rows stay zero
    return (matrix / norms).astype(np.float32)


def build_dense_from_texts(texts: list[str], chunk_ids: list[str], embed,
                           params: AnnParams | None = None) -> DenseIndex:
    """Embed chunks (in order) and build the dense index.

    ``embed`` is a callable list[str] -> (n, d) array; failures are surfaced
    with the offending chunk_id. Mode resolution: explicit ``exact``/``ann``
    in params wins, otherwise ann kicks in at ``exact_threshold`` chunks.
    """
    params = params or AnnParams()
    try:
        matrix = np.asarray(embed(texts), dtype=np.float32)
    except Exception as exc:
        raise EmbedderFailure(f"embedding failed: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape[0] != len(texts):
        raise EmbedderFailure(
            f"embedder returned shape {matrix.shape}, expected ({len(texts)}, d)")
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise EmbedderFailure("non-finite embedding", chunk_id=chunk_ids[int(bad[0])])
    matrix = _normalize_rows(matrix)
    dim = matrix.shape[1]

    if params.mode == "exact":
        mode = "exact"
    elif params.mode == "ann":
        mode = "ann"
    elif params.mode == "auto":
        mode = "exact" if matrix.shape[0] < params.exact_threshold else "ann"
    else:
        raise ValueError(f"unknown dense mode {params.mode!r}")

    graph = _build_graph(matrix, params) if mode == "ann" else None
    return DenseIndex(vectors=matrix, dim=dim, params=params, mode=mode, graph=graph)


def search_dense(index: DenseIndex, query: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Top-k (position, cosine similarity); ties broken by position ascending."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query = np.asarray(query, dtype=np.float32).reshape(-1)
    if query.shape[0] != index.dim:
        raise DimensionMismatch(
            f"query dimension {query.shape[0]} != index dimension {index.dim}")
    if index.mode == "exact":
        return _search_exact(index.vectors, query, k)
    return _search_graph(index, query, k)


def _search_exact(vectors: np.ndarray, query: np.ndarray, k: int) -> list[tuple[int, float]]:
    sims = vectors @ query
    k = min(k, sims.shape[0])
    # lexsort: primary key similarity desc, secondary position asc
    order = np.lexsort((np.arange(sims.shape[0]), -sims))[:k]
    return [(int(i), float(sims[i])) for i in order]


# ---------------------------------------------------------------------------
# Graph construction / search
# ---------------------------------------------------------------------------

_BLOCK_ENTRIES = 1 << 22     # similarity entries per candidate block (16 MB)


def _build_graph(vectors: np.ndarray, params: AnnParams) -> _Graph:
    """Batch-build one navigable layer (Vamana-style, as in DiskANN).

    Each node's exact top-``ef_construction`` neighbors are diversity-pruned
    to ``2*m``; reverse edges are added and over-full lists pruned again.
    The medoid (the vector most similar to the mean) is the entry point, and
    any node the entry cannot reach is linked from its nearest reached node.
    """
    n = vectors.shape[0]
    if n < 2:
        return _Graph(adj=[[] for _ in range(n)], entry=n - 1)
    cap = 2 * params.m
    width = min(params.ef_construction, n - 1)
    block = max(1, _BLOCK_ENTRIES // n)
    adj: list[list[int]] = []
    for start in range(0, n, block):
        sims = vectors[start:start + block] @ vectors.T
        rows = np.arange(sims.shape[0])
        sims[rows, start + rows] = -np.inf           # not its own neighbor
        # width-th largest similarity per row; ties at it are cut by position
        cutoffs = np.partition(sims, n - width, axis=1)[:, n - width]
        for row, cutoff in zip(sims, cutoffs):
            nodes = np.flatnonzero(row >= cutoff)
            nodes = nodes[np.lexsort((nodes, -row[nodes]))[:width]]
            ranked = list(zip((1.0 - row[nodes]).tolist(), nodes.tolist()))
            adj.append(_select_neighbors(vectors, ranked, cap))

    members = [set(nbrs) for nbrs in adj]
    for node, nbrs in enumerate([list(nbrs) for nbrs in adj]):
        for nb in nbrs:
            if node not in members[nb]:
                members[nb].add(node)
                adj[nb].append(node)
    for node, nbrs in enumerate(adj):
        if len(nbrs) > cap:
            dists = 1.0 - vectors[nbrs] @ vectors[node]
            adj[node] = _select_neighbors(vectors, sorted(zip(dists.tolist(), nbrs)), cap)

    entry = int(np.argmax(vectors @ vectors.mean(axis=0)))
    _connect(vectors, adj, entry, cap)
    return _Graph(adj=adj, entry=entry)


def _connect(vectors: np.ndarray, adj: list[list[int]], entry: int, cap: int) -> None:
    """Make every node reachable from ``entry`` without exceeding ``cap``.

    A breadth-first tree from the entry is kept intact: an unreached node is
    linked from its most similar reached node, into a free slot or in place
    of an edge that is not a tree edge, so no reached node is cut off.
    """
    parent = np.full(len(adj), -1)
    parent[entry] = entry

    def grow(root: int) -> None:
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for nb in adj[node]:
                if parent[nb] < 0:
                    parent[nb] = node
                    queue.append(nb)

    grow(entry)
    for node in np.flatnonzero(parent < 0).tolist():
        if parent[node] >= 0:
            continue
        reached = np.flatnonzero(parent >= 0)
        sims = vectors[reached] @ vectors[node]
        for src in reached[np.lexsort((reached, -sims))].tolist():
            nbrs = adj[src]
            if len(nbrs) < cap:
                nbrs.append(node)
                break
            spare = [i for i, nb in enumerate(nbrs) if parent[nb] != src]
            if spare:
                nbrs[spare[-1]] = node
                break
        parent[node] = src
        grow(node)


def _beam_search(vectors: np.ndarray, adj: list[list[int]], q: np.ndarray,
                 entry: int, ef: int) -> list[tuple[float, int]]:
    """Best-first search from ``entry`` keeping ``ef`` results; returns
    (distance, node) sorted ascending."""
    push, pop = heapq.heappush, heapq.heappop
    dist = float(1.0 - vectors[entry] @ q)
    visited = {entry}
    candidates = [(dist, entry)]
    best = [(-dist, entry)]                  # max-heap of current results
    bound = dist if ef == 1 else float("inf")

    while candidates:
        dist, node = pop(candidates)
        if dist > bound:
            break
        nbrs = [nb for nb in adj[node] if nb not in visited]
        if not nbrs:
            continue
        visited.update(nbrs)
        nbr_dists = (1.0 - vectors[nbrs] @ q).tolist()
        for nb, d in zip(nbrs, nbr_dists):
            if d < bound:
                push(candidates, (d, nb))
                push(best, (-d, nb))
                if len(best) > ef:
                    pop(best)
                    bound = -best[0][0]
                elif len(best) == ef:
                    bound = -best[0][0]
    return sorted((-d, node) for d, node in best)


def _select_neighbors(vectors: np.ndarray, candidates: list[tuple[float, int]],
                      cap: int) -> list[int]:
    """Diversity-aware neighbor pick: keep a candidate only if it is closer to
    the query point than to every already-kept neighbor; backfill from the
    discards to reach cap."""
    if len(candidates) <= cap:
        return [node for _, node in candidates]
    nodes = [node for _, node in candidates]
    dists = [dist for dist, _ in candidates]
    cand_vecs = vectors[nodes]
    kept: list[int] = []
    discarded: list[int] = []
    if len(nodes) <= 64:
        # one pairwise matrix beats per-kept updates on short lists
        pairwise = (1.0 - cand_vecs @ cand_vecs.T).tolist()
        kept_idx: list[int] = []
        for i, node in enumerate(nodes):
            if len(kept_idx) >= cap:
                break
            di = dists[i]
            row = pairwise[i]
            if all(di < row[j] for j in kept_idx):
                kept_idx.append(i)
                kept.append(node)
            else:
                discarded.append(node)
    else:
        # min distance from each candidate to the kept set, updated as we keep
        min_to_kept = np.full(len(nodes), np.inf)
        for i, node in enumerate(nodes):
            if len(kept) >= cap:
                break
            if dists[i] < min_to_kept[i]:
                kept.append(node)
                np.minimum(min_to_kept, 1.0 - cand_vecs @ cand_vecs[i],
                           out=min_to_kept)
            else:
                discarded.append(node)
    for node in discarded:
        if len(kept) >= cap:
            break
        kept.append(node)
    return kept


def _search_graph(index: DenseIndex, query: np.ndarray, k: int) -> list[tuple[int, float]]:
    graph = index.graph
    assert graph is not None
    ef = max(index.params.ef_search, k)
    ranked = _beam_search(index.vectors, graph.adj, query, graph.entry, ef)
    # re-rank by similarity desc with position tie-break to match exact mode
    hits = sorted(((1.0 - d, node) for d, node in ranked),
                  key=lambda item: (-item[0], item[1]))[:k]
    return [(node, float(sim)) for sim, node in hits]
