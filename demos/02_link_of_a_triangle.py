"""The link of the unique vertex of a triangular presentation complex.

The complex has one 0-cell, a 1-cell per generator and a triangular
2-cell per relator.  Each 1-cell g contributes a head vertex g and a
tail vertex g_bar to the link; each 2-cell corner contributes an edge.
Vertices organize into four levels (hub tails, tails, heads, hub
heads), and the edges between levels 2 and 3 are the middle edges.

The (2,4,5) triangle is the classic example: its link contains exactly
two embedded 4-loops, both passing through the commuting edge.
"""

from artinlink import (
    build_complex,
    build_link,
    enumerate_short_loops,
    girth,
    triangle_presentation,
)

pres = triangle_presentation(2, 4, 5)
print("generators:", ", ".join(pres.generators))
for rec in pres.hub_records:
    print(f"  hub {rec.hub}: chain {' -> '.join(rec.cycle)} (label {rec.label})")

link = build_link(build_complex(pres))
print(f"\nlink: {len(link.vertices)} vertices, {len(link.edges)} edges")
for level in (4, 3, 2, 1):
    row = [v.bar_name for v in link.vertices if v.level == level]
    print(f"  level {level}: {' '.join(row)}")

value, witness = girth(link)
print(f"\ngirth: {value}")
for lp in enumerate_short_loops(link, 4):
    print(f"  short loop: {lp}")

print("\nDOT export (paste into graphviz):\n")
print(link.to_dot())
