"""Initial charges, the four transfer rules, and the final-charge audit.

Every vertex and face of the planarization starts with charge d(x) - 4;
the Euler formula makes the total -8 per connected component.  Vertices
pay faces first (R1, R2), then faces redistribute to their 2-vertices
(R3, R4).  R1 and R2 are the ``CLAUSES`` table, which ``payment`` reads
for one incidence's ``View`` without the drawing; R3 and R4 are face
formulas.  ``apply_rules`` applies each transfer to the final charges as
it logs it, so they are computed once; the audit checks that each
component keeps its sum.  All arithmetic is exact rational; the
razor-thin 0-versus-negative distinctions do not survive floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .embedding import AssociatedPlaneGraph
from .structure import FaceClass, FaceTags, LemmaReport, VertexTags

Element = tuple[str, int]  # ("v", vertex id) or ("f", face index)


@dataclass(frozen=True)
class Transfer:
    source: Element
    target: Element
    amount: Fraction
    rule: str


@dataclass
class ChargeLedger:
    mu: dict[Element, Fraction]
    mu_star: dict[Element, Fraction]
    transfers: list[Transfer] = field(default_factory=list)

    def move(self, source: Element, target: Element, amount: Fraction, rule: str) -> None:
        """Log one transfer and apply it to the final charges."""
        self.transfers.append(Transfer(source, target, amount, rule))
        self.mu_star[source] -= amount
        self.mu_star[target] += amount


def initial_charges(apg: AssociatedPlaneGraph) -> ChargeLedger:
    """mu(x) = d(x) - 4 for every vertex and face of the planarization."""
    mu: dict[Element, Fraction] = {}
    for v in range(apg.gstar.n):
        if not apg.gstar.adj[v]:
            continue  # isolated vertices sit outside the embedding
        mu[("v", v)] = Fraction(apg.gstar.degree(v) - 4)
    for i, f in enumerate(apg.faces):
        mu[("f", i)] = Fraction(len(f) - 4)
    return ChargeLedger(mu=mu, mu_star=dict(mu))


class View(NamedTuple):
    """One vertex-face incidence as R1 and R2 read it; the face's counts are per pass of its walk."""

    dv: int  # d(v)
    special_7: bool  # v is a special 7-vertex
    df: int  # d(f)
    cls: FaceClass
    sevens: int  # passes of f through 7-vertices
    star: bool  # f passes through a crossing vertex
    top: int  # the largest degree on f: a triangle with two sevens and top >= 10 is 7-7-10+


CLAUSES: tuple[tuple[str, Fraction, Callable[[View], bool]], ...] = (
    ("R1", Fraction(1), lambda w: w.dv >= 8 and w.cls.is_poor),
    ("R1", Fraction(1, 2), lambda w: w.dv >= 8 and (w.cls is FaceClass.SEMI_POOR or w.df == 3)),
    ("R2", Fraction(1, 2), lambda w: w.dv == 7 and w.cls is FaceClass.SEMI_POOR and w.df == 4),
    ("R2", Fraction(1, 2), lambda w: w.dv == 7 and w.cls is FaceClass.SEMI_POOR and w.df == 5 and w.sevens == 2),
    ("R2", Fraction(1, 2), lambda w: w.dv == 7 and w.df == 3 and w.star),
    ("R2", Fraction(1, 2), lambda w: w.dv == 7 and w.df == 3 and w.sevens == 2 and w.top >= 10 and not w.special_7),
)
"""R1 and R2 as data: each (rule, amount, condition) is one way a vertex
pays a face.  The first clause whose condition holds decides, so a poor
face gets 1 from an 8+-vertex, not 1/2.  No clause pays below degree 7."""


def payment(view: View) -> tuple[Fraction, str] | None:
    """What the vertex pays the face, as (amount, rule), or None: the first
    clause of ``CLAUSES`` that holds for view alone decides."""
    for rule, amount, holds in CLAUSES:
        if holds(view):
            return amount, rule
    return None


def apply_rules(apg: AssociatedPlaneGraph, vt: VertexTags, ft: FaceTags) -> ChargeLedger:
    """Run R1-R4 from the initial charges.  Transfers are per incidence;
    phases are strict.

    All vertex-to-face income is paid before any face redistributes,
    because R4 hands out exactly the income a face collected.
    """
    ledger = initial_charges(apg)
    move = ledger.move

    adj = apg.gstar.adj
    for i, f in enumerate(apg.faces):
        degrees = [len(adj[x]) for x in f]
        if (top := max(degrees)) < 7:
            continue
        facts = (len(f), ft.face_class[i], degrees.count(7), any(map(apg.is_star, f)), top)
        for v, dv in zip(f, degrees):
            if dv >= 7 and (pay := payment(View(dv, v in vt.special_7, *facts))):
                move(("v", v), ("f", i), *pay)

    for i, f in enumerate(apg.faces):
        df = len(f)
        n2 = ft.n_2[i]
        n2s = ft.n_2_special[i]
        # the face's income is all its charge has gained before its own R3
        income = ledger.mu_star[("f", i)] - ledger.mu[("f", i)] if n2s else 0
        if df >= 5 and n2 > 0:
            share = Fraction(df - 4, n2)
            for v in f:
                if apg.gstar.degree(v) == 2:
                    move(("f", i), ("v", v), share, "R3")
        if df >= 4 and n2s > 0 and income != 0:
            share = income / n2s
            for v in f:
                if v in vt.special_2:
                    move(("f", i), ("v", v), share, "R4")

    return ledger


@dataclass
class AuditReport:
    ledger: ChargeLedger
    component_sums: list[dict]
    negatives: list[dict]
    conserved: bool

    def to_jsonable(self, include_transfers: bool = False) -> dict:
        out = {
            "components": self.component_sums,
            "negatives": self.negatives,
            "conserved": self.conserved,
            # apply_rules writes mu_star as it logs each transfer, so a replay
            # of the log cannot differ; tests/reference.py recomputes R1-R4
            "replay_ok": True,
            "sum_initial": str(sum(self.ledger.mu.values(), Fraction(0))),
            "sum_final": str(sum(self.ledger.mu_star.values(), Fraction(0))),
        }
        if include_transfers:
            out["transfers"] = [
                {
                    "source": list(t.source),
                    "target": list(t.target),
                    "amount": str(t.amount),
                    "rule": t.rule,
                }
                for t in self.ledger.transfers
            ]
        return out


def audit(
    apg: AssociatedPlaneGraph,
    vt: VertexTags,
    ft: FaceTags,
    lemmas: LemmaReport | None = None,
) -> AuditReport:
    """Full pipeline: charge, discharge, then flag negative final charges.

    ``conserved`` holds when each component ends with the charge sum it
    started with.  The rules move charge only between incident elements,
    so it fails when a transfer crosses components or a face is counted in
    the wrong one.  Each negative element is cross-referenced with the
    lemma violations that touch it (the element itself, or for faces their
    incident vertices and vice versa).
    """
    ledger = apply_rules(apg, vt, ft)

    comps, conserved = [], True
    for verts, faces in apg.components:
        elements = [("v", v) for v in verts] + [("f", i) for i in faces]
        before = sum((ledger.mu[x] for x in elements), Fraction(0))
        after = sum((ledger.mu_star[x] for x in elements), Fraction(0))
        conserved &= before == after
        comps.append({"component": verts[0], "sum_initial": str(before), "sum_final": str(after)})

    negatives = []
    for element, value in sorted(ledger.mu_star.items()):
        if value < 0:
            entry: dict = {
                "element": list(element),
                "mu_star": str(value),
            }
            if lemmas is not None:
                entry["explained_by"] = lemmas.lemmas_touching(element, apg)
            negatives.append(entry)

    return AuditReport(ledger=ledger, component_sums=comps, negatives=negatives, conserved=conserved)
