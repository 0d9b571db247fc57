"""Threshold graphs, homomorphism counting, and degree regularization.

Counting words whose pairwise entry sums clear a threshold is, position set by
position set, a graph homomorphism count into a *threshold graph*: vertices
are the permitted entry values, and two values are adjacent when their sum
reaches the threshold.  This module provides those targets; an exact
homomorphism counter that sweeps the pattern's vertices forward over the
target's twin classes (its vertices with one neighbor set, each weighted by
its size), keeping only the classes of the vertices later ones still depend
on; the closed form for complete-bipartite patterns; and a procedure that pads
a bounded-degree graph into a d-regular supergraph without decreasing its
homomorphism count into any of the threshold targets.
"""

from __future__ import annotations

__all__ = [
    "LabeledGraph",
    "complete_bipartite",
    "degree_deficit",
    "graph_from_text",
    "graph_to_text",
    "heavy_index_graph",
    "hom_count",
    "hom_kdd",
    "regularize",
    "threshold_graph",
    "threshold_target",
]


class LabeledGraph:
    """Undirected multigraph on vertices 1..n with optional labels and colors.

    Loops and parallel edges are allowed: repeats in ``edges`` accumulate
    multiplicity, which counts toward degrees but adds no homomorphism
    constraint.  Every vertex is blue unless listed in ``red``.
    """

    __slots__ = ("_n", "_adj", "_multi", "_deg", "_labels", "_red")

    def __init__(self, vertex_count, edges=(), labels=None, red=()):
        if vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        self._n = vertex_count
        adj = [set() for _ in range(vertex_count + 1)]
        multi: dict[tuple[int, int], int] = {}
        for u, v in edges:
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise ValueError(f"edge ({u}, {v}) leaves the vertex range")
            key = (u, v) if u <= v else (v, u)
            multi[key] = multi.get(key, 0) + 1
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(frozenset(s) for s in adj)
        self._multi = tuple(sorted(multi.items()))
        deg = [0] * (vertex_count + 1)
        for (u, v), mult in self._multi:
            deg[u] += mult
            deg[v] += mult  # a loop lands here twice, as it should
        self._deg = tuple(deg)
        if labels is None:
            self._labels = (None,) * vertex_count
        else:
            self._labels = tuple(labels)
            if len(self._labels) != vertex_count:
                raise ValueError("one label per vertex required")
        self._red = frozenset(red)
        if not all(1 <= v <= vertex_count for v in self._red):
            raise ValueError("red vertices must be valid vertex indices")

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def red(self) -> frozenset:
        return self._red

    def label(self, v: int):
        return self._labels[v - 1]

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def degree(self, v: int) -> int:
        """Vertex degree with multiplicity; a loop contributes 2."""
        return self._deg[v]

    def edges(self) -> list:
        """Sorted list of edges as (u, v) with u <= v, one per multiplicity."""
        out: list[tuple[int, int]] = []
        for pair, mult in self._multi:
            out.extend([pair] * mult)
        return out

    def is_loop_free(self) -> bool:
        return all(v not in self._adj[v] for v in range(1, self._n + 1))

    def is_regular(self, d: int) -> bool:
        return all(self.degree(v) == d for v in range(1, self._n + 1))

    def __eq__(self, other):
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (self._n == other._n and self._multi == other._multi
                and self._labels == other._labels and self._red == other._red)

    def __hash__(self):
        return hash((self._n, self._multi, self._labels, self._red))

    def __repr__(self):
        return (f"LabeledGraph({self._n}, edges={self.edges()!r}, "
                f"red={sorted(self._red)!r})")


def threshold_graph(labels, threshold: int) -> LabeledGraph:
    """Graph on the given labels with u ~ v iff label(u) + label(v) clears it.

    Loops are included (u = v is allowed by the rule).
    """
    labels = list(labels)
    if not labels:
        raise ValueError("labels must be nonempty")
    n = len(labels)
    edges = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)
             if labels[i - 1] + labels[j - 1] >= threshold]
    return LabeledGraph(n, edges, labels=labels)


def threshold_target(q: int) -> LabeledGraph:
    """The threshold graph on labels 1..q with threshold q.

    Two entry values are adjacent exactly when they can sit at positions whose
    indices sum to the position of a maximal entry in a valid word.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    return threshold_graph(range(1, q + 1), q)


def complete_bipartite(a: int, b: int) -> LabeledGraph:
    """K_{a,b} on vertices 1..a (left side) and a+1..a+b (right side)."""
    if a < 1 or b < 1:
        raise ValueError("both sides must be nonempty")
    edges = [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)]
    return LabeledGraph(a + b, edges)


def heavy_index_graph(h: int, positions) -> LabeledGraph:
    """Graph on 1..h joining x and y when x + y is one of the given positions.

    Loops (2x a position) are excluded: the homomorphism bound this feeds is
    stated for loop-free patterns, and the argument absorbs the diagonal
    cases into the degree bookkeeping instead.
    """
    if h < 1:
        raise ValueError("h must be at least 1")
    positions = set(positions)
    for s in positions:
        if s <= h:
            raise ValueError("positions must exceed the head length")
    edges = [(x, s - x) for s in positions
             for x in range(max(1, s - h), (s - 1) // 2 + 1)]
    return LabeledGraph(h, edges)


def degree_deficit(graph: LabeledGraph, d: int) -> int:
    """Total amount by which vertex degrees fall short of d."""
    return sum(d - graph.degree(v) for v in range(1, graph.vertex_count + 1))


# ---------------------------------------------------------------------------
# homomorphism counting
# ---------------------------------------------------------------------------


def _guard(n: int, max_vertices: int) -> None:
    if n > max_vertices:
        raise ValueError(f"pattern has {n} vertices; guard is {max_vertices}")


def hom_count(pattern: LabeledGraph, target: LabeledGraph,
              max_vertices: int = 12) -> int:
    """Number of maps V(pattern) -> V(target) preserving adjacency.

    The target is first split into twin classes: vertices with the same
    neighbor set.  That set holds x exactly when x has a loop, so twins agree
    on loops too.  Whether two vertices are adjacent depends only on their
    classes, so a map preserves adjacency exactly when its map to classes
    does, and each map phi into the graph of the classes lifts to the product
    over v of the weights |class(phi(v))| maps into the target.  For q >= 2 a
    threshold target on 1..q has one class of size 2, {q-1, q}, and
    singletons.

    The count is a forward sweep over the pattern's vertices in breadth-first
    order (the dynamic program of Diaz, Serna and Thilikos, "Counting
    H-colorings of partial k-trees", 2002).  After each vertex it keeps one
    count per tuple of classes of the live vertices, those already placed
    that a later vertex is adjacent to; a placed vertex multiplies its count
    by its class's weight.  A vertex no later one looks at is counted in
    bulk, not branched on: its images are the members of its candidate
    classes, one per class plus weight - 1 for each class with weight above
    1, and no table over sets of classes is built.  The number of live
    tuples can still grow as the class count to the power of the number of
    live vertices, so the guard rejects patterns with more than
    ``max_vertices`` vertices.
    """
    n = pattern.vertex_count
    _guard(n, max_vertices)
    if n == 0:
        return 1
    # twin classes by neighbor set; class c is bit c of a candidate mask,
    # and adj_mask and weight hold it at c + 1, the bit's length
    twins: dict[frozenset, list[int]] = {}
    for x in range(1, target.vertex_count + 1):
        twins.setdefault(target.neighbors(x), []).append(x)
    index = {key: c for c, key in enumerate(twins)}
    full = (1 << len(twins)) - 1
    adj_mask = [0]
    weight = [0]
    loop_ok = heavy = 0
    for c, (key, members) in enumerate(twins.items()):
        mask = 0
        for y in key:
            mask |= 1 << index[target.neighbors(y)]
        adj_mask.append(mask)
        weight.append(len(members))
        if members[0] in key:
            loop_ok |= 1 << c
        if len(members) > 1:
            heavy |= 1 << c

    # breadth-first order so every vertex after the first in its component
    # has an already-assigned neighbor to prune against
    order: list[int] = []
    seen = set()
    for start in range(1, n + 1):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(pattern.neighbors(v)):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    slot = {v: k for k, v in enumerate(order)}
    back = []
    base = []
    for k, v in enumerate(order):
        back.append([slot[u] for u in pattern.neighbors(v)
                     if u != v and slot[u] < k])
        base.append(loop_ok if pattern.has_edge(v, v) else full)

    # sweep the slots forward, keeping only the images of the live slots:
    # those assigned already that a later slot still looks back at
    last = [-1] * n
    for k in range(n):
        for i in back[k]:
            last[i] = k
    live: list[int] = []
    counts = {(): 1}
    for k in range(n):
        look = [live.index(i) for i in back[k]]
        keep = [p for p, i in enumerate(live) if last[i] != k]
        grows = last[k] > k
        nxt: dict[tuple[int, ...], int] = {}
        for key, count in counts.items():
            cand = base[k]
            for p in look:
                cand &= adj_mask[key[p]]
            if not cand:
                continue
            kept = tuple([key[p] for p in keep])
            if not grows:
                images = cand.bit_count()
                extra = cand & heavy
                while extra:
                    low = extra & -extra
                    images += weight[low.bit_length()] - 1
                    extra ^= low
                nxt[kept] = nxt.get(kept, 0) + count * images
                continue
            while cand:
                low = cand & -cand
                c = low.bit_length()
                grown = kept + (c,)
                nxt[grown] = nxt.get(grown, 0) + count * weight[c]
                cand ^= low
        counts = nxt
        live = [live[p] for p in keep] + ([k] if grows else [])
    return sum(counts.values())


def hom_kdd(d: int, q: int) -> int:
    """hom(K_{d,d}, threshold_target(q)) in closed form.

    Classify each side of the bipartition by its minimum image value: a side
    whose minimum is x has (q-x+1)^d - (q-x)^d assignments, and two sides are
    compatible exactly when their minima sum to at least q.  The sides whose
    minimum is at least q - a telescope to min(a+1, q)^d assignments, so one
    sum over a suffices.
    """
    if d < 1 or q < 1:
        raise ValueError("d and q must be at least 1")
    return sum(((q - a + 1) ** d - (q - a) ** d) * min(a + 1, q) ** d
               for a in range(1, q + 1))


# ---------------------------------------------------------------------------
# regularization
# ---------------------------------------------------------------------------


def regularize(graph: LabeledGraph, d: int) -> LabeledGraph:
    """Pad a bounded-degree blue graph into a d-regular two-colored graph.

    The output contains the input's vertices (edges between them possibly
    thinned), plus red helper vertices; mapping every red vertex to the top
    label extends any homomorphism into a threshold target, so the count
    never decreases.  Steps: (1) pad to an even vertex count, (2) remove
    edges until the degree deficit is divisible by d, (3) add red vertices,
    (4) top up blue degrees with blue-red edges, (5) finish red degrees with
    red-red edges.  Ties always break toward the lowest (degree, index).
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if graph.red:
        raise ValueError("input vertices must all be blue")
    if not graph.is_loop_free():
        raise ValueError("input must be loop-free")
    n0 = graph.vertex_count
    for v in range(1, n0 + 1):
        if graph.degree(v) > d:
            raise ValueError(f"vertex {v} has degree {graph.degree(v)} > {d}")

    edges = sorted(graph.edges())
    n = n0 + (n0 % 2)  # step (1)

    def deficit() -> int:
        return d * n - 2 * len(edges)

    # step (2): the removals are from the lexicographically smallest edge up,
    # and must terminate: the empty graph has deficit d*n, divisible by d
    while deficit() % d:
        if not edges:
            raise RuntimeError("deficit not divisible with no edges left; "
                               "this contradicts the termination argument")
        edges.pop(0)
    big_d = deficit()

    # step (3)
    k = big_d // d
    red_count = k if k > d else 2 * ((d + 1) // 2)
    reds = list(range(n + 1, n + red_count + 1))
    n += red_count

    deg = {v: 0 for v in range(1, n + 1)}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1

    # step (4): blue vertices in index order; each takes the least-loaded reds
    for v in range(1, n - red_count + 1):
        need = d - deg[v]
        if need <= 0:
            continue
        for r in sorted(reds, key=lambda r: (deg[r], r))[:need]:
            edges.append((v, r))
            deg[v] += 1
            deg[r] += 1
    if any(deg[r] > d for r in reds):
        raise RuntimeError(
            f"a red vertex overflowed degree {d} on {graph!r}; "
            "the balance argument for the helper count failed")

    # step (5): repeatedly join the two least-loaded lacking reds.  The same
    # pair may be joined more than once; the repeat fills out degrees without
    # adding any homomorphism constraint.  Red degrees stay within 1 of each
    # other and their total deficit stays even, so two lacking vertices exist
    # whenever one does.
    while True:
        lacking = sorted((r for r in reds if deg[r] < d),
                         key=lambda r: (deg[r], r))
        if not lacking:
            break
        if len(lacking) == 1:
            raise RuntimeError(
                f"red completion is stuck on {graph!r} with d={d}: "
                "a single vertex lacks degree and loops are not allowed")
        r1, r2 = lacking[0], lacking[1]
        edges.append((r1, r2))
        deg[r1] += 1
        deg[r2] += 1

    return LabeledGraph(n, edges, red=reds)


# ---------------------------------------------------------------------------
# serialization for test fixtures
# ---------------------------------------------------------------------------


def graph_to_text(graph: LabeledGraph) -> str:
    """Edge-list text: a vertices header, a red header, one "u v" per line."""
    lines = [f"# vertices: {graph.vertex_count}"]
    if graph.red:
        lines.append("# red: " + " ".join(str(v) for v in sorted(graph.red)))
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str,
                    max_vertices: int | None = None) -> LabeledGraph:
    """Inverse of :func:`graph_to_text` (labels are not carried).

    A vertex count above ``max_vertices`` is refused, with the message of
    :func:`hom_count`'s guard, before the graph is built.  A line that is
    neither a comment nor two integers raises ``ValueError`` naming its
    1-based number and its text.
    """
    vertex_count = None
    red: list[int] = []
    edges: list[tuple[int, int]] = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("vertices:"):
                    vertex_count = int(body.split(":", 1)[1])
                elif body.startswith("red:"):
                    red = [int(tok) for tok in body.split(":", 1)[1].split()]
                continue
            u, v = map(int, line.split())
        except ValueError:
            raise ValueError(f"graph text line {number} is malformed: "
                             f"{line!r}") from None
        edges.append((u, v))
    if vertex_count is None:
        vertex_count = max((max(u, v) for u, v in edges), default=0)
        vertex_count = max(vertex_count, max(red, default=0))
    if max_vertices is not None:
        _guard(vertex_count, max_vertices)
    return LabeledGraph(vertex_count, edges, red=red)
