"""PACE 2017 .gr / .td reading and writing.

Graphs are 1-indexed with a "p tw <n> <m>" header; decompositions declare
"s td <#bags> <width+1> <n>" followed by bag lines and tree edges. Lines
starting with '%' are comments. Parsers reject malformed input with the
offending line number; writers round-trip losslessly up to edge order.
"""

from __future__ import annotations

from .graph import Graph
from .treedecomp import TreeDecomposition


# A graph costs about 600 bytes per vertex, isolated or not, so a header over
# this bound is refused before a 16-byte file can ask for gigabytes.
MAX_GR_VERTICES = 1_000_000


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_gr(text: str) -> Graph:
    n = m = None
    edges: list[tuple[int, int]] = []
    seen: set[frozenset[int]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate header")
            if len(parts) != 4 or parts[1] != "tw":
                raise ParseError(lineno, "header must be 'p tw <n> <m>'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(lineno, "non-integer header fields") from None
            if n < 0 or m < 0:
                raise ParseError(lineno, "negative header fields")
            if n > MAX_GR_VERTICES:
                raise ParseError(lineno, f"{n} vertices exceed the limit {MAX_GR_VERTICES}")
            continue
        if n is None:
            raise ParseError(lineno, "edge line before header")
        if len(parts) != 2:
            raise ParseError(lineno, "edge line must be '<u> <v>'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, "non-integer edge endpoints") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(lineno, f"endpoint outside 1..{n}")
        if u == v:
            raise ParseError(lineno, "self-loop rejected")
        e = frozenset((u, v))
        if e in seen:
            raise ParseError(lineno, "duplicate edge rejected")
        seen.add(e)
        edges.append((u, v))
    if n is None:
        raise ParseError(0, "missing header")
    if m is not None and m != len(edges):
        raise ParseError(0, f"header declares {m} edges, found {len(edges)}")
    return Graph(range(1, n + 1), edges)


def write_gr(g: Graph) -> str:
    if g.vertices != tuple(range(1, g.n + 1)):
        raise ValueError("PACE graphs need vertex ids 1..n")
    lines = [f"p tw {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_td(text: str) -> TreeDecomposition:
    num_bags = None
    bags: dict[int, frozenset[int]] = {}
    edges: dict[tuple[int, int], None] = {}  # a dict keeps the file's order
    declared_n = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if num_bags is not None:
                raise ParseError(lineno, "duplicate header")
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(lineno, "header must be 's td <bags> <width+1> <n>'")
            try:
                num_bags, _width_plus_1, declared_n = (
                    int(parts[2]),
                    int(parts[3]),
                    int(parts[4]),
                )
            except ValueError:
                raise ParseError(lineno, "non-integer header fields") from None
            if num_bags < 1:
                raise ParseError(lineno, "a decomposition needs at least one bag")
            continue
        if num_bags is None:
            raise ParseError(lineno, "content line before header")
        if parts[0] == "b":
            try:
                idx = int(parts[1])
                verts = [int(x) for x in parts[2:]]
            except (ValueError, IndexError):
                raise ParseError(lineno, "bag line must be 'b <i> <v...>'") from None
            if not (1 <= idx <= num_bags):
                raise ParseError(lineno, f"bag index {idx} outside 1..{num_bags}")
            if idx in bags:
                raise ParseError(lineno, f"duplicate bag {idx}")
            if any(not (1 <= v <= declared_n) for v in verts):
                raise ParseError(lineno, f"bag vertex outside 1..{declared_n}")
            bags[idx] = frozenset(verts)
            continue
        if len(parts) != 2:
            raise ParseError(lineno, "tree edge line must be '<i> <j>'")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, "non-integer tree edge") from None
        if not (1 <= a <= num_bags and 1 <= b <= num_bags):
            raise ParseError(lineno, f"tree edge endpoint outside 1..{num_bags}")
        if a == b:
            raise ParseError(lineno, f"bad tree edge ({a}, {b})")
        if (a, b) in edges or (b, a) in edges:
            raise ParseError(lineno, f"duplicate tree edge ({a}, {b})")
        edges[a, b] = None
    if num_bags is None:
        raise ParseError(0, "missing header")
    if len(edges) != num_bags - 1:  # before the header's count sizes anything
        raise ParseError(0, f"{num_bags} bags need {num_bags - 1} tree edges, found {len(edges)}")
    all_bags = {i: bags.get(i, frozenset()) for i in range(1, num_bags + 1)}
    try:
        return TreeDecomposition(all_bags, edges)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def write_td(td: TreeDecomposition, n_vertices: int | None = None) -> str:
    nodes = td.nodes
    renumber = {t: i for i, t in enumerate(nodes, start=1)}
    if n_vertices is None:
        n_vertices = max((v for b in td.bags.values() for v in b), default=0)
    lines = [f"s td {len(nodes)} {td.width + 1} {n_vertices}"]
    for t in nodes:
        lines.append("b " + " ".join([str(renumber[t])] + [str(v) for v in sorted(td.bags[t])]))
    for a, b in td.tree_edges:
        lines.append(f"{renumber[a]} {renumber[b]}")
    return "\n".join(lines) + "\n"
