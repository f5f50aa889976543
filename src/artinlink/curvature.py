"""Piecewise-Euclidean metrics on the complex and the 2-pi link test
(README pipeline step 6).  Angles are integer weights over one unit of
pi, so the comparison is exact, and the link condition is recomputed
for the verdict, never assumed.  At points other than the 0-cell it is
automatic for Euclidean triangles and is not checked.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

from .complex_link import LinkGraph, link_of
from .cycles import EmbeddedLoop, girth, min_angle_cycle
from .errors import InternalInconsistencyError
from .forbidden import SEARCH_INCONSISTENT, ForbiddenWitness, detect_forbidden
from .forbidden import search_orientation
from .presentations import DefiningGraph, OrientationAssignment, resolve_orientations
from .presentations import shown
from .smallcancel import SmallCancellation, check_conditions

A2 = "A2"
B2 = "B2"
TWO_PI = Fraction(2)  # units of pi

THEOREM_TRIANGLE = "three-generator-large-type"
THEOREM_ORIENTATION = "pattern-free-orientation"
THEOREM_TRIANGLE_FREE = "triangle-free"

VERDICT_NPC = "NonPositivelyCurved"
VERDICT_INCONCLUSIVE = "Inconclusive"


class MetricAssignment(NamedTuple):
    """Exact 1-cell lengths, squared, of a hub and of every other
    1-cell, and the corner angles that every 2-cell shares, by corner,
    as integer weights: corner i measures ``corner_weights[i] /
    angle_unit`` times pi."""

    scheme: str
    lengths_sq: tuple[int, int]
    corner_weights: tuple[int, int, int]
    angle_unit: int


# Per scheme: the squared lengths of a hub 1-cell and of every other
# 1-cell, and the corner weights over the angle unit.
_METRICS = {A2: ((1, 1), (1, 1, 1), 3), B2: ((2, 1), (1, 2, 1), 4)}


def assign_metric(link: LinkGraph, scheme: str) -> MetricAssignment:
    """The metric of ``scheme`` on the complex of ``link``; see the
    module docstring.

    Corner indices follow the boundary h^-1 u v: corner 0 (bottom) and
    corner 2 (top) are adjacent to the hub side, corner 1 (middle) is
    opposite it.  Every cell shares one corner triple, checked on the
    squared side lengths: A2 is equilateral; under B2, hub^2 = u^2 + v^2
    makes the middle corner right and u^2 = v^2 the other two equal.
    """
    if scheme not in _METRICS:
        raise ValueError(f"unknown metric scheme {shown(scheme)}")
    (hub_sq, side_sq), corners, unit = _METRICS[scheme]
    # under B2, u and v are both non-hub sides
    if hub_sq != (side_sq if scheme == A2 else side_sq + side_sq):
        raise InternalInconsistencyError(f"{scheme} side lengths do not fit its angles")
    if sum(corners) != unit:  # pi per triangle
        raise InternalInconsistencyError(f"{scheme} corner angles do not sum to pi")
    if link.complex is None:
        raise InternalInconsistencyError(f"{link!r} is not built from cells")
    return MetricAssignment(scheme, (hub_sq, side_sq), corners, unit)


class LinkCondition(NamedTuple):
    holds: bool
    min_over_pi: Fraction | None  # None for forests: no loops at all
    witness: EmbeddedLoop | None


def check_link_condition(link: LinkGraph, metric: MetricAssignment) -> LinkCondition:
    """Does every embedded loop measure at least 2*pi?  Exact comparison.

    Edge ``ei`` of a link built from cells is corner ``ei % 3`` of its
    cell.  Under a metric with one angle everywhere (A2) the answer is
    the girth loop, so the hop search that ``girth(link)`` runs or has
    run serves both.
    """
    if link.complex is None:
        raise InternalInconsistencyError(f"{link!r} is not built from cells")
    weight = metric.corner_weights * len(link.complex.cells)
    angled = link.with_angles(weight, metric.angle_unit)
    value, witness = min_angle_cycle(angled)
    holds = value is None or value >= TWO_PI
    return LinkCondition(holds, value, witness)


# The JSON row of a forbidden-pattern witness: (key, ForbiddenWitness
# field, text of one item) for its kind, then for each of its lists.
# The report's dicts and the CLI's row template both read these.
WITNESS_KIND = ("kind", "kind", "type-{}".format)
WITNESS_LISTS = (
    ("vertices", "vertices", str),
    ("edges", "directed_edges", "{0[0]}->{0[1]}".format),
    ("loop", "loop", attrgetter("bar_name")),
)


class CurvatureReport(NamedTuple):
    """Everything the certificate run established, verdict included."""

    scheme: str | None
    verdict: str
    biautomatic: bool
    theorem_cited: str | None
    girth: int | None
    girth_witness: EmbeddedLoop | None
    min_angle_over_pi: Fraction | None
    min_angle_witness: EmbeddedLoop | None
    forbidden: tuple[ForbiddenWitness, ...]
    small_cancellation: SmallCancellation
    orientation: OrientationAssignment | None
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        witnesses = [
            {"kind": kind, "loop": [v.bar_name for v in loop.vertices]}
            for kind, loop in (
                ("min-angle-loop", self.min_angle_witness),
                ("girth-loop", self.girth_witness),
            )
            if loop is not None
        ]
        kind_key, kind_field, kind_text = WITNESS_KIND
        witnesses += [
            {kind_key: kind_text(getattr(w, kind_field))}
            | {key: list(map(text, getattr(w, f))) for key, f, text in WITNESS_LISTS}
            for w in self.forbidden
        ]
        return {
            "scheme": self.scheme,
            "verdict": self.verdict,
            "biautomatic": self.biautomatic,
            "theorem_cited": self.theorem_cited,
            "girth": self.girth,
            "min_angle_over_pi": (
                None if self.min_angle_over_pi is None else str(self.min_angle_over_pi)
            ),
            "witnesses": witnesses,
            "small_cancellation": {
                "c": self.small_cancellation.c_value,
                "t": self.small_cancellation.t_value,
            },
            "orientation": (
                None if self.orientation is None else self.orientation.to_json_dict()
            ),
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.theorem_cited:
            lines.append(f"theorem: {self.theorem_cited}")
        lines.append(f"scheme: {self.scheme or 'none'}")
        lines.append(f"girth: {self.girth if self.girth is not None else 'none'}")
        if self.min_angle_over_pi is not None:
            lines.append(f"min angle over pi: {self.min_angle_over_pi}")
        if self.min_angle_witness is not None:
            lines.append(f"min angle loop: {self.min_angle_witness}")
        lines.append(
            f"small cancellation: C({self.small_cancellation.c_value}) "
            f"T({self.small_cancellation.t_value})"
        )
        for w in self.forbidden:
            edges = ", ".join(f"{t}->{h}" for t, h in w.directed_edges)
            lines.append(f"forbidden type {w.kind}: {edges}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def certify(gamma: DefiningGraph, scheme: str = "auto") -> CurvatureReport:
    """Run the full pipeline and report a curvature verdict.

    Unoriented edges are directed by the orientation search, and the
    report's ``orientation`` is the completion it found, if any.  With
    ``scheme='auto'``: if every label is at least 3 and the orientation
    avoids both forbidden patterns, the A2 metric applies; otherwise, if
    the graph is triangle-free, the B2 metric applies; otherwise the
    verdict is Inconclusive, which never claims the group is not
    biautomatic.
    """
    if scheme not in ("auto", A2, B2):
        raise ValueError(f"unknown scheme {shown(scheme)}")
    notes: list[str] = []
    g = gamma
    unoriented = g.unoriented_edges()
    found = search_orientation(g) if unoriented else None
    if found is not None:
        g = resolve_orientations(g, found)
        notes.append("orientation found by search")
    elif unoriented:
        notes.append("no pattern-free orientation exists; using u->v defaults")
        g = resolve_orientations(g, {e.key: "forward" for e in unoriented})

    link = link_of(g)
    # One detection serves the verdict, checks its witness loops against
    # the link and confirms that the searched orientation was applied.
    witnesses = tuple(detect_forbidden(g, link))
    if found is not None and witnesses:
        raise InternalInconsistencyError(SEARCH_INCONSISTENT)
    labels_ok = all(e.label >= 3 for e in g.edges)
    triangle_free = g.is_triangle_free()

    if scheme == "auto":
        if labels_ok and not witnesses:
            chosen = A2
        elif triangle_free:
            chosen = B2
        else:
            chosen = None
    else:
        chosen = scheme

    # the link condition first: under B2 its weighted search leaves the
    # 4-cycle start that girth's hop search then reads
    diagnostic_scheme = chosen or A2
    metric = assign_metric(link, diagnostic_scheme)
    condition = check_link_condition(link, metric)

    girth_value, girth_loop = girth(link)
    small = check_conditions(link, girth_value)

    if chosen is None:
        verdict, theorem = VERDICT_INCONCLUSIVE, None
        notes.append(
            "no applicable metric scheme; min angle reported under A2 diagnostics"
        )
    elif condition.holds:
        verdict = VERDICT_NPC
        if chosen == B2:
            theorem = THEOREM_TRIANGLE_FREE
        elif len(g.vertices) == len(g.edges) == 3 and not triangle_free:
            theorem = THEOREM_TRIANGLE
        else:
            theorem = THEOREM_ORIENTATION
    else:
        verdict, theorem = VERDICT_INCONCLUSIVE, None
        notes.append(f"link condition fails under {chosen}")

    return CurvatureReport(
        scheme=chosen,
        verdict=verdict,
        biautomatic=verdict == VERDICT_NPC,
        theorem_cited=theorem,
        girth=girth_value,
        girth_witness=girth_loop,
        min_angle_over_pi=condition.min_over_pi,
        min_angle_witness=condition.witness,
        forbidden=witnesses,
        small_cancellation=small,
        orientation=found,
        notes=tuple(notes),
    )
