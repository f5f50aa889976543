"""Piecewise-Euclidean metrics on the complex and the 2-pi link test.

Two metric schemes are supported.  A2 gives every 1-cell length 1 and
makes every 2-cell equilateral, so every link edge gets angle pi/3 and
the link condition (every embedded loop measures at least 2*pi) holds
exactly when the link girth is at least 6.  B2 gives hub 1-cells length
sqrt(2) and the others length 1, making each 2-cell a right isosceles
triangle: the middle corner (opposite the hub side) gets pi/2 and the
top and bottom corners get pi/4.

Angles are Fractions in units of pi, integer weights on the link; the
2*pi comparison is exact, never floating point.  The certificate never
assumes a theorem: the link condition is recomputed for the verdict,
so the pipeline doubles as a mechanical check of the statements it
cites.  (At points other than the unique 0-cell the link condition is
automatic for Euclidean triangles and is not checked.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .complex_link import LinkGraph, TwoComplex, build_complex, build_link
from .cycles import EmbeddedLoop, girth, min_angle_cycle
from .errors import InternalInconsistencyError
from .forbidden import ForbiddenWitness, detect_forbidden, search_orientation
from .presentations import (
    DefiningGraph,
    OrientationAssignment,
    build_triangular,
    resolve_orientations,
)
from .smallcancel import SmallCancellation, check_conditions

A2 = "A2"
B2 = "B2"
TWO_PI = Fraction(2)  # units of pi

THEOREM_TRIANGLE = "three-generator-large-type"
THEOREM_ORIENTATION = "pattern-free-orientation"
THEOREM_TRIANGLE_FREE = "triangle-free"

VERDICT_NPC = "NonPositivelyCurved"
VERDICT_INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class MetricAssignment:
    """Exact 1-cell lengths (stored squared) and corner angles (over pi)."""

    scheme: str
    one_cell_lengths_sq: dict[str, int]
    corner_angles: dict[tuple[int, int], Fraction]


# Squared lengths of a hub 1-cell and of every other 1-cell, per scheme.
_LENGTHS_SQ = {A2: (1, 1), B2: (2, 1)}


def assign_metric(k: TwoComplex, link: LinkGraph, scheme: str) -> MetricAssignment:
    """Attach corner angles per scheme; see the module docstring.

    Corner indices follow the boundary h^-1 u v: corner 0 (bottom) and
    corner 2 (top) are adjacent to the hub side, corner 1 (middle) is
    opposite it.  Every cell shares one corner triple, checked on the
    squared side lengths: A2 is equilateral; under B2, hub^2 = u^2 + v^2
    makes the middle corner right and u^2 = v^2 the other two equal.
    """
    if scheme not in _LENGTHS_SQ:
        raise ValueError(f"unknown metric scheme {scheme!r}")
    hub_sq, side_sq = _LENGTHS_SQ[scheme]
    if scheme == A2:
        corners, fits = (Fraction(1, 3),) * 3, hub_sq == side_sq
    else:  # u and v are both non-hub sides
        corners = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
        fits = hub_sq == side_sq + side_sq
    if not fits:
        raise InternalInconsistencyError(f"{scheme} side lengths do not fit its angles")
    if sum(corners) != 1:  # pi per triangle
        raise InternalInconsistencyError(f"{scheme} corner angles do not sum to pi")
    hubs = k.presentation.hubs
    lengths = {g: hub_sq if g in hubs else side_sq for g in k.presentation.generators}
    angles = {(ci, c): a for ci in range(len(k.cells)) for c, a in enumerate(corners)}
    return MetricAssignment(scheme, lengths, angles)


@dataclass(frozen=True)
class LinkCondition:
    holds: bool
    min_over_pi: Fraction | None  # None for forests: no loops at all
    witness: EmbeddedLoop | None


def check_link_condition(
    link: LinkGraph,
    metric: MetricAssignment,
    shortest: tuple[int | None, EmbeddedLoop | None] | None = None,
) -> LinkCondition:
    """Does every embedded loop measure at least 2*pi?  Exact comparison.

    A caller that already has ``girth(link)`` passes it as ``shortest``;
    under a metric with one angle everywhere (A2) it is the answer, so
    the loop search does not run again.
    """
    angled = link.with_angles(metric.corner_angles)
    value, witness = min_angle_cycle(angled, shortest)
    holds = value is None or value >= TWO_PI
    return LinkCondition(holds, value, witness)


@dataclass(frozen=True)
class CurvatureReport:
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
    notes: tuple[str, ...] = field(default=())

    def to_json_dict(self) -> dict:
        witnesses = [
            {"kind": kind, "loop": [v.bar_name for v in loop.vertices]}
            for kind, loop in (
                ("min-angle-loop", self.min_angle_witness),
                ("girth-loop", self.girth_witness),
            )
            if loop is not None
        ]
        witnesses.extend(w.to_json_dict() | {"kind": f"type-{w.kind}"}
                         for w in self.forbidden)
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


def _default_orientation(gamma: DefiningGraph) -> DefiningGraph:
    """Orient leftover edges u -> v; used only when no good orientation
    exists but a presentation is still wanted for diagnostics."""
    todo = {e.key: "forward" for e in gamma.unoriented_edges()}
    if not todo:
        return gamma
    return resolve_orientations(gamma, OrientationAssignment(todo))


def certify(
    gamma: DefiningGraph,
    assignment: OrientationAssignment | None = None,
    scheme: str = "auto",
) -> CurvatureReport:
    """Run the full pipeline and report a curvature verdict.

    With ``scheme='auto'``: if every label is at least 3 and the
    (given, or searched-for) orientation avoids both forbidden
    patterns, the A2 metric applies; otherwise, if the graph is
    triangle-free, the B2 metric applies; otherwise the verdict is
    Inconclusive.  The link condition is always recomputed rather than
    assumed, and an Inconclusive verdict never claims the group is not
    biautomatic.
    """
    notes: list[str] = []
    g = resolve_orientations(gamma, assignment) if assignment is not None else gamma
    used: OrientationAssignment | None = assignment

    if g.unoriented_edges():
        found = search_orientation(g)
        if found is not None:
            g = resolve_orientations(g, found)
            used = found
            notes.append("orientation found by search")
        else:
            notes.append("no pattern-free orientation exists; using u->v defaults")
            g = _default_orientation(g)

    p, _ = build_triangular(g)
    k = build_complex(p)
    link = build_link(k)
    # One detection serves the verdict and checks its witness loops
    # against the link.
    witnesses = tuple(detect_forbidden(g, link))
    labels_ok = all(e.label >= 3 for e in g.edges)

    if scheme == "auto":
        if labels_ok and not witnesses:
            chosen = A2
        elif g.is_triangle_free():
            chosen = B2
        else:
            chosen = None
    elif scheme in (A2, B2):
        chosen = scheme
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    girth_value, girth_loop = girth(link)
    small = check_conditions(p, link, girth_value)

    diagnostic_scheme = chosen or A2
    metric = assign_metric(k, link, diagnostic_scheme)
    condition = check_link_condition(link, metric, (girth_value, girth_loop))

    if chosen is None:
        verdict, theorem = VERDICT_INCONCLUSIVE, None
        notes.append(
            "no applicable metric scheme; min angle reported under A2 diagnostics"
        )
    elif condition.holds:
        verdict = VERDICT_NPC
        if chosen == B2:
            theorem = THEOREM_TRIANGLE_FREE
        elif len(g.vertices) == len(g.edges) == 3 and not g.is_triangle_free():
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
        orientation=used,
        notes=tuple(notes),
    )
