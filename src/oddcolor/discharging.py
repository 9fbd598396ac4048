"""Initial charges, the four transfer rules, and the final-charge audit.

Every vertex and face of the planarization starts with charge d(x) - 4;
the Euler formula makes the total -8 per connected component.  Rules move
charge in two phases: vertices pay faces first (R1, R2), then faces
redistribute to their 2-vertices (R3, R4).  ``apply_rules`` applies each
transfer to the final charges as it logs it, so they are computed once;
the audit checks that each component keeps its sum.  All arithmetic is
exact rational; the razor-thin 0-versus-negative distinctions do not
survive floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .embedding import AssociatedPlaneGraph
from .structure import FaceClass, FaceTags, LemmaReport, VertexTags, sevens_of_7710

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


def _vertex_payment(
    apg: AssociatedPlaneGraph,
    vt: VertexTags,
    ft: FaceTags,
    v: int,
    face_index: int,
) -> tuple[Fraction, str] | None:
    """Phase-A payment for one vertex-face incidence, or None.

    A vertex pays each incidence under the single highest-priority clause:
    the poor payment supersedes the semi-poor/3-face payment.
    """
    dv = apg.gstar.degree(v)
    if dv < 7:
        return None
    f = apg.faces[face_index]
    cls = ft.face_class[face_index]
    df = len(f)
    if dv >= 8:
        if cls.is_poor:
            return Fraction(1), "R1"
        if cls is FaceClass.SEMI_POOR or df == 3:
            return Fraction(1, 2), "R1"
        return None
    # dv == 7
    if cls is FaceClass.SEMI_POOR and df == 4:
        return Fraction(1, 2), "R2"
    if cls is FaceClass.SEMI_POOR and df == 5:
        sevens = sum(1 for x in f if apg.gstar.degree(x) == 7)
        if sevens == 2:
            return Fraction(1, 2), "R2"
        return None
    if df == 3:
        if any(apg.is_star(x) for x in f):
            return Fraction(1, 2), "R2"
        if sevens_of_7710(f, apg) and v not in vt.special_7:
            return Fraction(1, 2), "R2"
    return None


def apply_rules(apg: AssociatedPlaneGraph, vt: VertexTags, ft: FaceTags) -> ChargeLedger:
    """Run R1-R4 from the initial charges.  Transfers are per incidence;
    phases are strict.

    All vertex-to-face income is paid before any face redistributes,
    because R4 hands out exactly the income a face collected.
    """
    ledger = initial_charges(apg)
    move = ledger.move

    for i, f in enumerate(apg.faces):
        for v in f:
            pay = _vertex_payment(apg, vt, ft, v, i)
            if pay is not None:
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
