"""Write tests/data/atlas7.g6, the graph atlas on 1 to 7 vertices.

networkx's ``graph_atlas_g()`` lists every graph on at most 7 vertices up
to isomorphism, 1 253 of them. The first is the graph on no vertex, which
multidom cannot hold, so the file keeps the other 1 252 in atlas order, one
graph6 line each. The tests read only the file; networkx is needed to
write it, not to run them. Run from the root of a checkout:

    python tools/write_atlas.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import networkx as nx

OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "atlas7.g6"


def main() -> None:
    graphs = nx.graph_atlas_g()[1:]
    text = b"".join(nx.to_graph6_bytes(g, header=False) for g in graphs)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_bytes(text)
    print(f"{OUT.name}: {len(graphs)} graphs, sha256 {hashlib.sha256(text).hexdigest()}")


if __name__ == "__main__":
    main()
