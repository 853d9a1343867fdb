"""The paper's structural hypotheses, as checks on presentations.

The recognizer of the named two-vertex families and the product check of
their relation-free members, the no-shortcut and cycle conditions on the
quiver, the split-gap criterion, the three-vertex no-overlap chain whose
two middle strata have equal dimension, and the opposite presentation.
No CLI command runs these; the tests use them to check the package
against the paper.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from quiverstrata import _kernels
from quiverstrata.families import FamilyTag
from quiverstrata.fforacle import enumerate_and_classify
from quiverstrata.linsys import PartPairTable
from quiverstrata.partitions import JordanAssignment, Partition
from quiverstrata.quiver import Arrow, BoundQuiverPresentation, Quiver, Relation
from quiverstrata.strata import stratum_dim
from path_reference import path_of, word_path
from substitution import relation_mod_orders
from walk_reference import assignments_for


# ---------------------------------------------------------------------------
# the named two-vertex families
# ---------------------------------------------------------------------------

def recognize_family(pres: BoundQuiverPresentation) -> Optional[FamilyTag]:
    """Syntactic pattern match onto the named families.

    Matches up to relabeling the arrows, rescaling the relation, and one
    substitution that renames a fixed linear combination of arrows; deeper
    identifications return ``None``.  Presentations with more than
    two vertices are rejected.
    """
    q = pres.quiver
    if len(q.vertices) > 2:
        raise ValueError("recognizer handles at most two vertices")
    if len(q.vertices) == 1:
        return FamilyTag("truncpoly", m=pres.orders[0])
    arrows = q.non_loop_arrows
    v0, v1 = q.vertices
    if not arrows:
        return FamilyTag("Aprime", h=0, m0=pres.order(v0), m1=pres.order(v1))
    tgt = arrows[0].target
    src = arrows[0].source
    if tgt == src or any(a.target != tgt or a.source != src for a in arrows):
        return None
    h = len(arrows)
    m0 = pres.order(tgt)
    m1 = pres.order(src)
    if not pres.relations:
        return FamilyTag("Aprime", h=h, m0=m0, m1=m1)
    if len(pres.relations) > 1 or m0 < 2 or m1 < 2:
        return None
    shape = _match_standard_relation(pres, pres.relations[0], tgt, src,
                                     [a.name for a in arrows])
    if shape is None:
        return None
    return FamilyTag("A", h=h, m0=m0, m1=m1, n=shape)


def _match_standard_relation(pres: BoundQuiverPresentation, rel: Relation,
                             tgt: str, src: str, arrow_names: list[str]
                             ) -> Optional[int]:
    """Total loop degree n if the relation has the standard shape, else None.

    Every arrow runs src -> tgt with src != tgt, so each term is one arrow
    between a loop power at tgt and a loop power at src.
    """
    index = {name: k for k, name in enumerate(arrow_names)}
    h = len(arrow_names)
    by_i: dict[int, list[Fraction]] = {}
    n: Optional[int] = None
    for coeff, a, mid, b in rel.terms:
        if n is None:
            n = a + b
        elif n != a + b:
            return None
        vec = by_i.setdefault(b, [Fraction(0)] * h)
        vec[index[mid]] += coeff
    if n is None or n < 1:
        return None
    m0 = pres.order(tgt)
    m1 = pres.order(src)
    lo = max(0, n - (m0 - 1))
    hi = min(n, m1 - 1)
    if set(by_i) != set(range(lo, hi + 1)):
        return None
    base = by_i[lo]
    if all(x == 0 for x in base):
        return None
    ratios = []
    for i in range(lo, hi + 1):
        vec = by_i[i]
        # vec must be a scalar multiple of base
        scale: Optional[Fraction] = None
        for x, y in zip(base, vec):
            if x == 0:
                if y != 0:
                    return None
            else:
                s = y / x
                if scale is None:
                    scale = s
                elif scale != s:
                    return None
        if scale is None or scale == 0:
            return None
        ratios.append(scale)
    # successive ratios must be constant: a loop rescale then normalizes them
    steps = {ratios[k + 1] / ratios[k] for k in range(len(ratios) - 1)}
    if len(steps) > 1:
        return None
    return n


@dataclass(frozen=True)
class ProductCheck:
    ok: bool
    total: int
    loop_factor_0: int
    arrow_factor: int
    loop_factor_1: int

    @property
    def predicted(self) -> int:
        return self.loop_factor_0 * self.arrow_factor * self.loop_factor_1


def product_decomposition_check(pres: BoundQuiverPresentation,
                                dims: Sequence[int], q: int,
                                max_points: int = 2_000_000) -> ProductCheck:
    """Check the point count of a relation-free two-vertex presentation.

    With no mixed relations the representation points split as (nilpotent
    at vertex 0) x (free arrow entries) x (nilpotent at vertex 1), so the
    total count must equal the product of the three factors.  The total is
    recounted by exhaustive enumeration.
    """
    if pres.relations:
        raise ValueError("presentation must have no mixed relations")
    if len(pres.quiver.vertices) != 2:
        raise ValueError("product check needs exactly two vertices")
    d0, d1 = dims
    v0, v1 = pres.quiver.vertices
    h = len(pres.quiver.non_loop_arrows)
    table = enumerate_and_classify(pres, dims, q, max_points=max_points)

    f0 = _kernels.enumerate_nilpotent(d0, pres.order(v0), q)[0].shape[0]
    f1 = _kernels.enumerate_nilpotent(d1, pres.order(v1), q)[0].shape[0]
    arrow = q ** (h * d0 * d1)
    return ProductCheck(table.total == f0 * arrow * f1, table.total, f0, arrow, f1)


# ---------------------------------------------------------------------------
# structural diagnostics
# ---------------------------------------------------------------------------

def detect_shortcuts(quiver: Quiver) -> list[Arrow]:
    """Non-loop arrows paralleled by a loop-free path of length >= 2."""
    verts = quiver.vertices
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    edge = [[False] * n for _ in range(n)]
    for a in quiver.non_loop_arrows:
        edge[index[a.source]][index[a.target]] = True
    reach = [row[:] for row in edge]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    out = []
    for a in quiver.non_loop_arrows:
        s, t = index[a.source], index[a.target]
        if any(reach[s][index[b.source]] and index[b.target] == t
               for b in quiver.non_loop_arrows):
            out.append(a)
    return out


@dataclass(frozen=True)
class CycleDiagnostic:
    ok: bool
    multi_loop_vertex: Optional[str] = None
    degree_cycle: Optional[tuple[str, ...]] = None


def check_cycle_conditions(quiver: Quiver) -> CycleDiagnostic:
    """Check that every oriented cycle is a power of a loop and loops are unique.

    Both conditions together say the only cycling happens through a single
    loop per vertex; a cycle using a non-loop arrow, or two loops at one
    vertex, is reported with a witness.
    """
    for v in quiver.vertices:
        if sum(1 for a in quiver.arrows if a.is_loop and a.source == v) > 1:
            return CycleDiagnostic(False, multi_loop_vertex=v)
    cycle = _find_loop_free_cycle(quiver)
    if cycle is not None:
        return CycleDiagnostic(False, degree_cycle=tuple(cycle))
    return CycleDiagnostic(True)


def _find_loop_free_cycle(quiver: Quiver) -> Optional[list[str]]:
    out_arrows: dict[str, list[Arrow]] = {v: [] for v in quiver.vertices}
    for a in quiver.non_loop_arrows:
        out_arrows[a.source].append(a)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in quiver.vertices}
    stack_arrows: list[Arrow] = []

    def dfs(v: str) -> Optional[list[str]]:
        color[v] = GRAY
        for a in out_arrows[v]:
            w = a.target
            if color[w] == GRAY:
                names = [a.name]
                for b in reversed(stack_arrows):
                    names.append(b.name)
                    if b.source == w:
                        break
                return names
            if color[w] == WHITE:
                stack_arrows.append(a)
                found = dfs(w)
                stack_arrows.pop()
                if found is not None:
                    return found
        color[v] = BLACK
        return None

    for v in quiver.vertices:
        if color[v] == WHITE:
            found = dfs(v)
            if found is not None:
                return found
    return None


# ---------------------------------------------------------------------------
# split-gap criterion
# ---------------------------------------------------------------------------

def split_gap_test(pres: BoundQuiverPresentation, dims: Sequence[int],
                       vertex: Optional[str] = None) -> tuple[bool, int]:
    """Codimension-gap criterion at one vertex with a single-part maximal type.

    Splitting the single part (p) into (p - 1, 1) costs exactly 2 in orbit
    dimension, so a codimension gap of at least 2 certifies reducibility.
    Returns (gap >= 2, gap).
    """
    if vertex is None:
        vertex = pres.quiver.vertices[0]
    ja_max = assignments_for(pres, dims)[0]
    pmax = ja_max.partition(vertex)
    if len(pmax.parts) != 1 or pmax.parts[0] < 2:
        raise ValueError(
            f"maximal partition at {vertex!r} must be a single part >= 2"
        )
    p = pmax.parts[0]
    witness_parts = list(ja_max.partitions)
    witness_parts[ja_max.vertices.index(vertex)] = Partition((p - 1, 1), pres.order(vertex))
    ja_wit = JordanAssignment.for_presentation(pres, witness_parts)
    table = PartPairTable(pres)
    gap = table.codim(ja_max) - table.codim(ja_wit)
    return gap >= 2, gap


# ---------------------------------------------------------------------------
# three-vertex chain comparison
# ---------------------------------------------------------------------------

def build_nooverlap_presentation(h: int, l: int, n1: int, n2: int, m: int,
                                 lam: Sequence[Fraction | int] = (1,)
                                 ) -> BoundQuiverPresentation:
    """Chain quiver 2 -> 1 -> 0 with a loop of order m at every vertex.

    The two mixed relations tie the first arrow of each hop to the loops;
    the middle loop enters the second relation through the reparameterized
    loop lam_1 e1 + lam_2 e1^2 + ... (lam_1 != 0).
    """
    if not (0 < n1 <= n2 < m):
        raise ValueError("need 0 < n1 <= n2 < m")
    if h < 1 or l < 1:
        raise ValueError("need h >= 1 and l >= 1")
    lam = tuple(Fraction(x) for x in lam)
    if not lam or lam[0] == 0:
        raise ValueError("the leading loop coefficient must be nonzero")
    if len(lam) > m - 1:
        raise ValueError("at most m - 1 loop coefficients")
    vertices = ("0", "1", "2")
    arrows = [Arrow("e0", "0", "0"), Arrow("e1", "1", "1"), Arrow("e2", "2", "2")]
    alphas = [f"a{i + 1}" for i in range(h)]
    betas = [f"b{j + 1}" for j in range(l)]
    arrows.extend(Arrow(n, "1", "0") for n in alphas)
    arrows.extend(Arrow(n, "2", "1") for n in betas)
    quiver = Quiver(vertices, tuple(arrows))
    orders = {"0": m, "1": m, "2": m}

    terms1 = []
    for i in range(n1 + 1):
        word = ["e0"] * i + ["a1"] + ["e1"] * (n1 - i)
        terms1.append((Fraction(1), word_path(quiver, word)))
    rel1 = relation_mod_orders(quiver, orders, terms1)

    # powers of the reparameterized middle loop, truncated at e1^m
    powers: list[dict[int, Fraction]] = [{0: Fraction(1)}]
    base = {k + 1: c for k, c in enumerate(lam) if c != 0}
    for _ in range(n2):
        nxt: dict[int, Fraction] = {}
        for deg, c in powers[-1].items():
            for dk, ck in base.items():
                nd = deg + dk
                if nd < m:
                    nxt[nd] = nxt.get(nd, Fraction(0)) + c * ck
        powers.append(nxt)
    terms2 = []
    for j in range(n2 + 1):
        for deg, c in powers[j].items():
            word = ["e1"] * deg + ["b1"] + ["e2"] * (n2 - j)
            terms2.append((c, word_path(quiver, word)))
    rel2 = relation_mod_orders(quiver, orders, terms2)

    return BoundQuiverPresentation(quiver, (m, m, m), (rel1, rel2))


def nooverlap_dims(h: int, l: int, n1: int, n2: int, m: int,
                   lam: Sequence[Fraction | int] = (1,)) -> tuple[int, int]:
    """Dimensions of the two middle-type strata on the chain quiver.

    For the dimension vector (1, n2 + 1, 1) the outer loops act by zero;
    the middle Jordan type is (n2 + 1) for the first stratum and (n2, 1)
    for the second.  The two dimensions coincide for every admissible
    parameter choice, which is the point of the comparison.
    """
    pres = build_nooverlap_presentation(h, l, n1, n2, m, lam)
    one = Partition((1,), m)
    ja_u = JordanAssignment.for_presentation(
        pres, [one, Partition((n2 + 1,), m), one]
    )
    ja_v = JordanAssignment.for_presentation(
        pres, [one, Partition((n2, 1), m), one]
    )
    table = PartPairTable(pres)
    return stratum_dim(table, ja_u).dim, stratum_dim(table, ja_v).dim


# ---------------------------------------------------------------------------
# transpose duality
# ---------------------------------------------------------------------------

def opposite(pres: BoundQuiverPresentation) -> BoundQuiverPresentation:
    """The opposite presentation: every arrow reversed, and each relation
    term ``c * lt^i * a * ls^j`` from s to t written ``c * ls^j * a * lt^i``
    from t to s.  The vertices keep their order and their loop orders.
    Transposing every matrix, with each Jordan block reversed, carries the
    representations of the one onto those of the other."""
    q = pres.quiver
    quiver = Quiver(q.vertices, tuple(Arrow(a.name, a.target, a.source) for a in q.arrows))
    relations = []
    for rel in pres.relations:
        lt, ls = rel.loops
        terms = [(c, path_of([ls] * post + [name] + [lt] * pre))
                 for c, pre, name, post in rel.terms]
        relations.append(Relation.make(quiver, terms, source=rel.target, target=rel.source))
    return BoundQuiverPresentation(quiver, pres.orders, tuple(relations))
