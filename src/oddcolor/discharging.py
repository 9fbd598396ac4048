"""Initial charges, the four transfer rules, and the final-charge audit.

Every vertex and face of the planarization starts with charge d(x) - 4;
the Euler formula makes the total -8 per connected component.  Rules move
charge in two phases: vertices pay faces first (R1, R2), then faces
redistribute to their 2-vertices (R3, R4).  All arithmetic is exact
rational; the razor-thin 0-versus-negative distinctions do not survive
floating point.
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

    def total_initial(self) -> Fraction:
        return sum(self.mu.values(), Fraction(0))

    def total_final(self) -> Fraction:
        return sum(self.mu_star.values(), Fraction(0))

    def replay(self) -> dict[Element, Fraction]:
        """Recompute final charges from the transfer log alone."""
        out = dict(self.mu)
        for t in self.transfers:
            out[t.source] -= t.amount
            out[t.target] += t.amount
        return out


def initial_charges(apg: AssociatedPlaneGraph) -> ChargeLedger:
    """mu(x) = d(x) - 4 for every vertex and face of the planarization."""
    mu: dict[Element, Fraction] = {}
    for v in range(apg.gstar.n):
        if not apg.gstar.adj[v]:
            continue  # isolated vertices sit outside the embedding
        mu[("v", v)] = Fraction(apg.gstar.degree(v) - 4)
    for i, f in enumerate(apg.faces):
        mu[("f", i)] = Fraction(f.degree - 4)
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
    if apg.is_star(v) or dv < 7:
        return None
    f = apg.faces[face_index]
    cls = ft.face_class[face_index]
    df = f.degree
    if dv >= 8:
        if cls.is_poor and df >= 3:
            return Fraction(1), "R1"
        if (cls is FaceClass.SEMI_POOR and df >= 4) or (df == 3 and not cls.is_poor):
            return Fraction(1, 2), "R1"
        return None
    # dv == 7
    if cls is FaceClass.SEMI_POOR and df == 4:
        return Fraction(1, 2), "R2"
    if cls is FaceClass.SEMI_POOR and df == 5:
        sevens = sum(1 for x in f.walk if not apg.is_star(x) and apg.gstar.degree(x) == 7)
        if sevens == 2:
            return Fraction(1, 2), "R2"
        return None
    if df == 3:
        if any(apg.is_star(x) for x in f.walk):
            return Fraction(1, 2), "R2"
        if sevens_of_7710(f, apg) and v not in vt.special_7:
            return Fraction(1, 2), "R2"
    return None


def apply_rules(apg: AssociatedPlaneGraph, vt: VertexTags, ft: FaceTags) -> ChargeLedger:
    """Run R1-R4 from the initial charges.  Transfers are per incidence;
    phases are strict.

    All vertex-to-face income is computed before any face redistributes,
    because R4 hands out exactly the income a face collected.
    """
    transfers: list[Transfer] = []
    income: dict[int, Fraction] = {i: Fraction(0) for i in range(len(apg.faces))}

    for i, f in enumerate(apg.faces):
        for v in f.walk:
            pay = _vertex_payment(apg, vt, ft, v, i)
            if pay is not None:
                amount, rule = pay
                transfers.append(Transfer(("v", v), ("f", i), amount, rule))
                income[i] += amount

    for i, f in enumerate(apg.faces):
        df = f.degree
        n2 = ft.n_2[i]
        n2s = ft.n_2_special[i]
        if df >= 5 and n2 > 0:
            share = Fraction(df - 4, n2)
            for v in f.walk:
                if not apg.is_star(v) and apg.gstar.degree(v) == 2:
                    transfers.append(Transfer(("f", i), ("v", v), share, "R3"))
        if df >= 4 and n2s > 0 and income[i] != 0:
            share = income[i] / n2s
            for v in f.walk:
                if v in vt.special_2:
                    transfers.append(Transfer(("f", i), ("v", v), share, "R4"))

    mu = initial_charges(apg).mu
    mu_star = dict(mu)
    for t in transfers:
        mu_star[t.source] -= t.amount
        mu_star[t.target] += t.amount
    return ChargeLedger(mu=mu, mu_star=mu_star, transfers=transfers)


@dataclass
class AuditReport:
    ledger: ChargeLedger
    component_sums: list[dict]
    negatives: list[dict]
    conserved: bool
    replay_ok: bool

    @property
    def all_nonnegative(self) -> bool:
        return not self.negatives

    def to_jsonable(self, include_transfers: bool = False) -> dict:
        out = {
            "components": self.component_sums,
            "negatives": self.negatives,
            "conserved": self.conserved,
            "replay_ok": self.replay_ok,
            "sum_initial": str(self.ledger.total_initial()),
            "sum_final": str(self.ledger.total_final()),
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

    Each negative element is cross-referenced with the lemma violations
    that touch it (the element itself, or for faces their incident
    vertices and vice versa).
    """
    ledger = apply_rules(apg, vt, ft)

    comps = []
    for verts, faces in apg.split_components():
        elements = [("v", v) for v in verts] + [("f", i) for i in faces]
        comps.append(
            {
                "component": verts[0],
                "sum_initial": str(sum((ledger.mu[x] for x in elements), Fraction(0))),
                "sum_final": str(sum((ledger.mu_star[x] for x in elements), Fraction(0))),
            }
        )

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

    conserved = ledger.total_initial() == ledger.total_final()
    replay_ok = ledger.replay() == ledger.mu_star
    return AuditReport(
        ledger=ledger,
        component_sums=comps,
        negatives=negatives,
        conserved=conserved,
        replay_ok=replay_ok,
    )
