"""Seeded instance generators for the benchmark.

Both families write a real instance file that the program parses, and
return the planted permutation (vertex -> label) alongside the path.  The
same seed always gives byte-identical files.  All costs are integers, so
the solver runs its exact-arithmetic path.

* ``write_gm``: a graph-matching-like ``.dd`` instance.  Vertices are
  random points; label ``perm[v]`` sits at a jittered copy of point ``v``.
  Each vertex may take its nearest labels (the planted one always among
  them), the unary cost is the point-to-label distance, the vertex graph is
  a k-nearest-neighbour graph, and a sampled share of each edge's candidate
  pairs stores a length-distortion cost.  Every cost is non-negative and
  the unary costs are at least 1, so every bound is positive.
* ``write_qaplib``: a flow/distance instance.  Flow is symmetric, with
  exactly ``FLOW_DENSITY`` of the vertex pairs non-zero and the same
  multiset of flow values, so every instance of one size has the same
  number of edges and the same total flow.  Distances are Manhattan
  distances between the cells of a near-square grid.  The planted
  permutation is a random one and serves only as a feasible reference.
"""

from __future__ import annotations

import math
import random

FLOW_DENSITY = 0.5  # share of facility pairs with non-zero flow
MAX_FLOW = 10       # flows cycle through 1..MAX_FLOW, in shuffled order


def _nearest(points, origin, count):
    """Indices of the ``count`` points nearest to ``origin``, ties by index."""
    ox, oy = origin
    order = sorted(range(len(points)),
                   key=lambda i: ((points[i][0] - ox) ** 2
                                  + (points[i][1] - oy) ** 2, i))
    return order[:count]


def write_gm(path, seed, *, vertices, candidates=10, neighbours=5,
             density=0.3, extent=1000, jitter=20):
    """Write a graph-matching ``.dd`` instance; returns the planted permutation.

    ``candidates`` non-dummy labels per vertex (the dummy comes on top at
    load time), ``neighbours`` nearest vertices per vertex in the edge
    graph, ``density`` the share of candidate label pairs stored per edge.
    """
    rng = random.Random(seed)
    n = vertices
    pts = [(rng.randrange(extent), rng.randrange(extent)) for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    lab_pts = [None] * n
    for v, lab in enumerate(perm):
        lab_pts[lab] = (pts[v][0] + rng.randint(-jitter, jitter),
                        pts[v][1] + rng.randint(-jitter, jitter))

    cand = []
    for v in range(n):
        labs = _nearest(lab_pts, pts[v], candidates)
        if perm[v] not in labs:
            labs[-1] = perm[v]
        cand.append(sorted(labs))

    ids = {}
    lines = []
    for v in range(n):
        for lab in cand[v]:
            ids[(v, lab)] = len(ids)
            cost = 1 + round(math.dist(pts[v], lab_pts[lab]))
            lines.append(f"a {ids[(v, lab)]} {v} {lab} {cost}")

    pairs = set()
    for u in range(n):
        for v in _nearest(pts, pts[u], neighbours + 1):
            if v != u:
                pairs.add((min(u, v), max(u, v)))
    num_cells = 0
    for u, v in sorted(pairs):
        length = math.dist(pts[u], pts[v])
        for k in cand[u]:
            for l in cand[v]:
                if k == l:
                    continue
                planted = k == perm[u] and l == perm[v]
                if not planted and rng.random() >= density:
                    continue
                cost = round(abs(length - math.dist(lab_pts[k], lab_pts[l])))
                lines.append(f"e {ids[(u, k)]} {ids[(v, l)]} {cost}")
                num_cells += 1

    header = f"p {n} {n} {len(ids)} {num_cells}"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"c gm seed={seed} vertices={n} edges={len(pairs)}\n")
        handle.write(header + "\n")
        handle.write("\n".join(lines) + "\n")
    return perm


def write_qaplib(path, seed, *, size):
    """Write a flow/distance instance; returns a random feasible permutation."""
    rng = random.Random(seed)
    n = size
    flow = [[0] * n for _ in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = rng.sample(pairs, round(FLOW_DENSITY * len(pairs)))
    values = [1 + i % MAX_FLOW for i in range(len(chosen))]
    rng.shuffle(values)
    for (u, v), value in zip(chosen, values):
        flow[u][v] = flow[v][u] = value
    cols = math.ceil(math.sqrt(n))
    cells = [(i // cols, i % cols) for i in range(n)]
    dist = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in cells] for a in cells]
    perm = list(range(n))
    rng.shuffle(perm)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{n}\n\n")
        for matrix in (flow, dist):
            handle.write("\n".join(" ".join(map(str, row)) for row in matrix))
            handle.write("\n\n")
    return perm
