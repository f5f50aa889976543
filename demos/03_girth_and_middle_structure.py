"""Why large labels force girth 6: the middle-edge structure.

For a triangle with labels m, n, p >= 3 every embedded loop in the
link has at least 6 edges.  Any shorter loop would either sit in the
radius-2 neighbourhood of a top/bottom vertex (which is a tree) or
consist purely of middle edges; but the middle subgraph is just
m+n+p-9 isolated edges plus three 3-chains, too sparse to close up.
"""

from collections import Counter

from artinlink import build_complex, build_link, girth, triangle_presentation

for labels in ((3, 3, 3), (5, 5, 5), (3, 4, 6)):
    m, n, p = labels
    pres = triangle_presentation(m, n, p)
    link = build_link(build_complex(pres))
    value, witness = girth(link)
    mid = link.middle_subgraph()
    shapes = Counter(
        (len(vs), len(es)) for vs, es in mid.components()
    )
    print(f"labels {labels}: girth {value}")
    print(f"  middle subgraph components (vertices, edges): {dict(shapes)}")
    print(f"  expected isolated edges: {m + n + p - 9}, 3-chains: 3")

pres = triangle_presentation(5, 5, 5)
link = build_link(build_complex(pres))
y = link.vertex("y", "head")
nb = link.neighborhood(y, 2)
print(
    f"\nradius-2 neighbourhood of y in the (5,5,5) link: "
    f"{len(nb.vertices)} vertices, {len(nb.edges)} edges, "
    f"tree: {nb.is_forest()}"
)
