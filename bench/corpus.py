"""Seeded corpus generator for the benchmark's workloads.

Plain Python with no import of cofrig: every class is a construction whose
matroid property is proven by the construction itself, so no graph is ever
labelled by asking the library under test.

* ``sparse``     random edge subsets of a Henneberg base: subsets of an
                 independent set are independent.
* ``henneberg``  0- and 1-extensions from K4.  Both moves preserve
                 independence in the 3-dimensional cofactor matroid, and the
                 result has 3n - 6 edges, so it is a rigid base.
* ``dependent``  for ``certify``, a planted K5 (a circuit) plus random edges
                 up to |F| near 3n - 6, at n = 8-9.  For ``oracle``, a
                 Henneberg base plus random edges up to 4n: rigid, so rank
                 meets its bound 3n - 6 on the first evaluation seed in
                 every sample.  (With a planted K5 instead, whether a sample
                 happened to be rigid decided whether rank ran one
                 evaluation or three, and the job cost flipped 2-3x between
                 seeds.)
* ``complete``   K5 .. K13.
* ``banana``     the double banana (two K5 on a shared pair, minus that edge).
* ``glued``      2-4 cliques of 5-7 vertices glued on 2-vertex hinges, which
                 gives multi-member Dress covers.

Left out on purpose: dependent near-rigid graphs at n >= 10.  At n = 10 with
25-28 edges, 6 of 16 sampled graphs did not certify within 6 s; at n = 12
with 34 edges none of 8 did, and one recorded case took 78 s.  That is the
branch-and-bound defect that the cover-built certificate is meant to fix; the
class belongs in the benchmark change that lands with that fix, where its
cost shows as a gain rather than as a run that never ends.

The same seed always writes byte-identical files.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations

Edge = tuple[int, int]


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def henneberg(rng: random.Random, n: int) -> set[Edge]:
    """A rigid independent graph on n >= 4 vertices: 3n - 6 edges."""
    edges = {_edge(u, v) for u, v in combinations(range(4), 2)}
    for new in range(4, n):
        old = list(range(new))
        if edges and rng.random() < 0.5:
            u, v = rng.choice(sorted(edges))
            rest = [w for w in old if w not in (u, v)]
            edges.discard((u, v))
            attach = [u, v] + rng.sample(rest, 2)
        else:
            attach = rng.sample(old, 3)
        edges.update(_edge(w, new) for w in attach)
    return edges


def sparse(rng: random.Random, n: int, m: int) -> set[Edge]:
    base = sorted(henneberg(rng, n))
    return set(rng.sample(base, m))


def planted_dependent(rng: random.Random, n: int, m: int) -> set[Edge]:
    edges = {_edge(u, v) for u, v in combinations(rng.sample(range(n), 5), 2)}
    rest = [e for e in combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(rest, m - len(edges)))
    return edges


def rigid_dependent(rng: random.Random, n: int, m: int) -> set[Edge]:
    """A Henneberg base plus random edges up to m > 3n - 6: rigid, and
    dependent because it has more edges than the rank of K_n."""
    edges = henneberg(rng, n)
    rest = [e for e in combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(rest, m - len(edges)))
    return edges


def complete(n: int) -> set[Edge]:
    return set(combinations(range(n), 2))


def double_banana() -> set[Edge]:
    edges = complete_on((0, 1, 2, 3, 4)) | complete_on((0, 1, 5, 6, 7))
    edges.discard((0, 1))
    return edges


def complete_on(vertices) -> set[Edge]:
    return {_edge(u, v) for u, v in combinations(vertices, 2)}


def glued_cliques(rng: random.Random, n: int, count: int) -> set[Edge]:
    """Up to ``count`` cliques of 5-7 vertices, each new one sharing a 2-vertex
    hinge with an earlier clique and otherwise using fresh vertices.  The
    first leaves room for a second, so there are at least two (n >= 8)."""
    first = rng.randint(5, min(6, n - 3))
    members = [tuple(range(first))]
    used = first
    for _ in range(count - 1):
        room = n - used
        size = min(rng.randint(5, 7), room + 2)
        if size < 5:
            break
        host = rng.choice(members)
        hinge = rng.sample(host, 2)
        members.append(tuple(hinge) + tuple(range(used, used + size - 2)))
        used += size - 2
    edges: set[Edge] = set()
    for m in members:
        edges |= complete_on(m)
    return edges


def relabel(rng: random.Random, n: int, edges: set[Edge]) -> list[Edge]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(_edge(perm[u], perm[v]) for u, v in edges)


# Fixed slot lists: the seed picks the graphs, never how many or how big.
CERTIFY_SLOTS = (
    [("sparse", n, min(round(2.2 * n), 3 * n - 7)) for n in range(6, 14)]
    + [("henneberg", n, 3 * n - 6) for n in range(5, 14)]
    + [("dependent", n, m) for n in (8, 9) for m in (3 * n - 7, 3 * n - 6, 3 * n - 5)
       for _ in range(2)]
    + [("complete", n, n * (n - 1) // 2) for n in range(5, 14)]
    + [("banana", 8, 18)]
    + [("glued", n, count) for n, count in ((8, 2), (11, 3), (13, 3), (13, 4))
       for _ in range(3)]
)

ORACLE_SLOTS = (
    [(op, cls, n) for op in ("rank", "is_rigid")
     for cls in ("henneberg", "sparse", "dependent")
     for n in (20, 25, 30, 35, 40, 45, 50, 60)]
    + [("closure", cls, n) for cls in ("henneberg", "sparse", "dependent")
       for n in range(8, 22, 2)]
    + [(op, "sparse", n) for op in ("cyc", "basis_of")
       for n in (8, 10, 12, 14, 16, 18, 20, 24, 30)]
    + [(op, "dependent", n) for op in ("cyc", "basis_of") for n in (8, 10, 12, 14)]
    + [("fundamental_circuit", "henneberg", n) for n in range(8, 18, 2)
       for _ in range(2)]
)


def _oracle_graph(rng: random.Random, cls: str, n: int) -> set[Edge]:
    if cls == "henneberg":
        return henneberg(rng, n)
    if cls == "sparse":
        return sparse(rng, n, 2 * n)
    return rigid_dependent(rng, n, min(4 * n, n * (n - 1) // 2 - 1))


def certify_corpus(seed: int) -> list[dict]:
    rng = random.Random(f"certify:{seed}")
    graphs = []
    for cls, n, size in CERTIFY_SLOTS:
        if cls == "sparse":
            edges = sparse(rng, n, size)
        elif cls == "henneberg":
            edges = henneberg(rng, n)
        elif cls == "dependent":
            edges = planted_dependent(rng, n, size)
        elif cls == "complete":
            edges = complete(n)
        elif cls == "banana":
            edges = double_banana()
        else:
            edges = glued_cliques(rng, n, size)
            n = max(v for e in edges for v in e) + 1
        graphs.append({"class": cls, "n": n, "edges": relabel(rng, n, edges),
                       "jobs": ["rank", "dress"]})
    return graphs


def oracle_corpus(seed: int) -> list[dict]:
    rng = random.Random(f"oracle:{seed}")
    graphs = []
    for op, cls, n in ORACLE_SLOTS:
        edges = relabel(rng, n, _oracle_graph(rng, cls, n))
        entry = {"class": cls, "n": n, "edges": edges, "jobs": [op]}
        if op == "fundamental_circuit":
            # A Henneberg base is rigid, so every non-edge lies in its closure.
            present = set(edges)
            entry["edge"] = list(rng.choice(
                [e for e in combinations(range(n), 2) if e not in present]))
        graphs.append(entry)
    return graphs


def edge_text(n: int, edges) -> str:
    return f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def write_corpus(workload: str, seed: int, out_dir: str) -> list[dict]:
    """Write one edge file per graph plus ``manifest.json``; return the
    manifest entries (class, n, |F|, jobs, file)."""
    graphs = certify_corpus(seed) if workload == "certify" else oracle_corpus(seed)
    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for i, g in enumerate(graphs):
        name = f"g{i:03d}.txt"
        with open(os.path.join(out_dir, name), "w", newline="\n") as fh:
            fh.write(edge_text(g["n"], g["edges"]))
        entry = {"file": name, "class": g["class"], "n": g["n"],
                 "edges": len(g["edges"]), "jobs": g["jobs"]}
        if "edge" in g:
            entry["edge"] = g["edge"]
        manifest.append(entry)
    with open(os.path.join(out_dir, "manifest.json"), "w", newline="\n") as fh:
        json.dump({"workload": workload, "seed": seed, "graphs": manifest},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest

