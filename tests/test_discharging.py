import importlib.util
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oddcolor import discharging
from oddcolor.embedding import build_associated_plane_graph, drawing_from_json
from oddcolor.generators import random_one_planar
from oddcolor.structure import FaceClass, classify_faces, classify_vertices, detect_lemma_violations
from oddcolor.discharging import Transfer, View, apply_rules, audit, initial_charges, payment

from conftest import (
    crossed_k4_drawing,
    disjoint_union,
    plane_c5_drawing,
    poor3_drawing,
    poor4_drawing,
    poor6_drawing,
    semipoor4_drawing,
    semipoor5_drawing,
)
from reference import discharge, explained_by
from test_golden import FIXTURES, RANDOM, two_component_drawing


def _pipeline(d):
    apg = build_associated_plane_graph(d)
    vt = classify_vertices(apg)
    ft = classify_faces(apg, vt)
    return apg, vt, ft


def test_initial_charges_examples():
    apg, _, _ = _pipeline(plane_c5_drawing())
    led = initial_charges(apg)
    # every C5 vertex has degree 2: charge -2; both faces are 5-faces: +1
    for v in range(5):
        assert led.mu[("v", v)] == Fraction(-2)
    assert led.mu[("f", 0)] == Fraction(1)
    assert sum(led.mu.values()) == Fraction(-8)


def test_initial_charges_skip_isolated_vertices():
    d = poor4_drawing().without_vertex(1)
    apg = build_associated_plane_graph(d)
    led = initial_charges(apg)
    assert ("v", 1) not in led.mu


def test_pentagon_audit():
    apg, vt, ft = _pipeline(plane_c5_drawing())
    rep = audit(apg, vt, ft)
    assert rep.conserved
    assert rep.component_sums == [
        {"component": 0, "sum_initial": "-8", "sum_final": "-8"}
    ]
    # each 2-vertex collects 1/5 from both pentagons: -2 + 2/5 = -8/5
    negs = {tuple(item["element"]): item["mu_star"] for item in rep.negatives}
    assert negs == {("v", v): "-8/5" for v in range(5)}


def test_pentagon_negatives_are_explained():
    d = plane_c5_drawing()
    apg, vt, ft = _pipeline(d)
    rep = audit(apg, vt, ft, detect_lemma_violations(apg))
    for item in rep.negatives:
        assert item["explained_by"]


def test_semi_poor_5_face_two_sevens():
    """Both 7-vertices pay 1/2; the 2-vertex collects 1 + 1 = 2."""
    apg, vt, ft = _pipeline(semipoor5_drawing())
    led = apply_rules(apg, vt, ft)
    five = next(i for i, f in enumerate(apg.faces) if len(f) == 5)
    r2 = [t for t in led.transfers if t.rule == "R2" and t.target == ("f", five)]
    assert sorted(t.source for t in r2) == [("v", 0), ("v", 1)]
    assert all(t.amount == Fraction(1, 2) for t in r2)
    r3 = [t for t in led.transfers if t.rule == "R3" and t.source == ("f", five)]
    assert [t.amount for t in r3] == [Fraction(1)]
    r4 = [t for t in led.transfers if t.rule == "R4" and t.source == ("f", five)]
    assert [t.amount for t in r4] == [Fraction(1)]
    assert led.mu_star[("v", 2)] == Fraction(0)
    # the face passed on its own d-4 = 1 via R3 and its income via R4
    assert led.mu_star[("f", five)] == Fraction(0)


def test_semi_poor_5_face_one_seven():
    """With an 8-vertex instead, income halves: the 2-vertex gets 3/2."""
    apg, vt, ft = _pipeline(semipoor5_drawing(extra_leaf=True))
    led = apply_rules(apg, vt, ft)
    five = next(i for i, f in enumerate(apg.faces) if len(f) == 5)
    pays = [t for t in led.transfers if t.target == ("f", five)]
    assert [(t.rule, t.amount) for t in pays] == [("R1", Fraction(1, 2))]
    received = sum(
        (t.amount for t in led.transfers if t.target == ("v", 2)), Fraction(0)
    )
    assert received == Fraction(3, 2)
    assert led.mu_star[("v", 2)] == Fraction(-1, 2)


def test_r4_hands_out_exactly_the_income():
    apg, vt, ft = _pipeline(semipoor5_drawing())
    led = apply_rules(apg, vt, ft)
    for i, f in enumerate(apg.faces):
        income = sum(
            (t.amount for t in led.transfers if t.target == ("f", i) and t.rule in ("R1", "R2")),
            Fraction(0),
        )
        r4_out = sum(
            (t.amount for t in led.transfers if t.source == ("f", i) and t.rule == "R4"),
            Fraction(0),
        )
        if ft.n_2_special[i] > 0:
            assert r4_out == income
        else:
            assert r4_out == 0


def test_no_division_by_zero_without_2_vertices():
    # the crossed-K4 drawing has no 2-vertices at all
    apg, vt, ft = _pipeline(crossed_k4_drawing())
    led = apply_rules(apg, vt, ft)
    assert not [t for t in led.transfers if t.rule in ("R3", "R4")]
    assert sum(led.mu.values()) == sum(led.mu_star.values()) == Fraction(-8)


def test_audit_jsonable_with_transfers():
    d = plane_c5_drawing()
    apg, vt, ft = _pipeline(d)
    rep = audit(apg, vt, ft)
    payload = rep.to_jsonable(include_transfers=True)
    assert payload["sum_initial"] == "-8"
    assert payload["conserved"] and payload["replay_ok"]
    assert all(t["rule"] == "R3" for t in payload["transfers"])
    import json

    json.dumps(payload)  # must be serializable as-is


def _c5_beside_semipoor5():
    """Two components: R3 fires in the first, R2, R3 and R4 in the second."""
    return disjoint_union(plane_c5_drawing(), semipoor5_drawing())


def _check_rules_against_reference(d):
    """apply_rules' charges and transfers are the reference model's."""
    apg, vt, ft = _pipeline(d)
    led = apply_rules(apg, vt, ft)
    mu, mu_star, moves = discharge(d, vt, ft)
    assert led.mu == mu
    assert led.mu_star == mu_star
    assert Counter((t.source, t.target, t.amount, t.rule) for t in led.transfers) == moves


GOLDEN_DRAWINGS = {
    **{f"n{n}-s{seed}": lambda n=n, seed=seed: random_one_planar(n, seed=seed) for n, seed in RANDOM},
    **FIXTURES,
    "crossed-k4": crossed_k4_drawing,
    "two-components": two_component_drawing,
    "c5-semipoor5": _c5_beside_semipoor5,
    # the only drawings on which an 8+-vertex pays a poor face and a
    # 7-vertex a semi-poor 4-face
    "semipoor5-c8": lambda: semipoor5_drawing(c_leaves=6),
    "semipoor4": semipoor4_drawing,
    # the only drawings with a poor 6-face and a poor 3-face
    "poor6": poor6_drawing,
    "poor3": poor3_drawing,
}


@pytest.mark.parametrize("make", GOLDEN_DRAWINGS.values(), ids=GOLDEN_DRAWINGS)
def test_rules_match_the_reference_on_golden_drawings(make):
    _check_rules_against_reference(make())


def _reference_check_fails(make) -> bool:
    try:
        _check_rules_against_reference(make())
    except AssertionError:
        return True
    return False


CLAUSE_IDS = ["8+-poor", "8+-semipoor-or-triangle", "7-semipoor4", "7-semipoor5", "7-star-triangle", "7-7-10-triangle"]


@pytest.mark.parametrize("index", range(len(discharging.CLAUSES)), ids=CLAUSE_IDS)
def test_every_clause_is_held_to_the_reference(monkeypatch, index):
    """Paying one clause 1/2 more, or dropping it, breaks the reference
    test on at least one golden drawing."""
    clauses = discharging.CLAUSES
    rule, amount, holds = clauses[index]
    for mutated in [(rule, amount + Fraction(1, 2), holds)], []:
        monkeypatch.setattr(discharging, "CLAUSES", (*clauses[:index], *mutated, *clauses[index + 1:]))
        assert any(_reference_check_fails(make) for make in GOLDEN_DRAWINGS.values()), mutated


def test_payment_reads_only_the_view():
    half = Fraction(1, 2)
    # (d(v), special 7, d(f), class, 7-passes, star, top degree)
    assert payment(View(6, False, 3, FaceClass.POOR3, 2, True, 10)) is None
    assert payment(View(8, False, 3, FaceClass.POOR3, 2, False, 10)) == (1, "R1")
    assert payment(View(8, False, 4, FaceClass.POOR4, 0, True, 8)) == (1, "R1")
    assert payment(View(7, True, 3, FaceClass.ORDINARY, 2, False, 10)) is None
    assert payment(View(7, False, 3, FaceClass.ORDINARY, 2, False, 10)) == (half, "R2")
    assert payment(View(7, True, 3, FaceClass.ORDINARY, 1, True, 7)) == (half, "R2")
    assert payment(View(7, False, 5, FaceClass.SEMI_POOR, 1, True, 7)) is None
    assert payment(View(7, False, 5, FaceClass.SEMI_POOR, 2, True, 7)) == (half, "R2")


def test_golden_drawings_fire_every_rule():
    """The fixed drawings above reach each rule, so each one is compared."""
    rules = set()
    for make in FIXTURES.values():
        apg, vt, ft = _pipeline(make())
        rules |= {t.rule for t in apply_rules(apg, vt, ft).transfers}
    assert rules == {"R1", "R2", "R3", "R4"}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 60),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["zero", "default", "n"]),
)
def test_rules_match_the_reference_on_random_drawings(n, seed, cap):
    crossings = {"zero": 0, "default": None, "n": n}[cap]
    _check_rules_against_reference(random_one_planar(n, seed=seed, crossings=crossings))


def test_conserved_holds_on_each_component():
    for d in (two_component_drawing(), _c5_beside_semipoor5()):
        rep = audit(*_pipeline(d))
        assert len(rep.component_sums) == 2 and rep.conserved is True


def test_conserved_fails_when_a_transfer_crosses_components(monkeypatch):
    """A rule that moves 1 from the K4 to the triangle keeps the global sum
    but breaks both components' sums."""
    apg, vt, ft = _pipeline(two_component_drawing())
    (k4, _), (_, triangle_faces) = apg.components
    rules = discharging.apply_rules

    def leaky_rules(*args):
        led = rules(*args)
        source, target = ("v", k4[0]), ("f", triangle_faces[0])
        led.transfers.append(Transfer(source, target, Fraction(1), "R1"))
        led.mu_star[source] -= 1
        led.mu_star[target] += 1
        return led

    monkeypatch.setattr(discharging, "apply_rules", leaky_rules)
    rep = discharging.audit(apg, vt, ft)
    assert [(c["sum_initial"], c["sum_final"]) for c in rep.component_sums] == [("-8", "-9"), ("-8", "-7")]
    assert rep.conserved is False


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _audit_drawings(count: int) -> dict:
    """The first count drawings of the benchmark's seed-1 audit inputs, by
    name; workloads.py is loaded by file path, as perfbench is no package."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # its dataclasses look their module up in sys.modules
    return {inp.name: inp.text for inp in workloads.audit_shard(1, 0)[:count]}


def _explained_negatives(d) -> list:
    """Each negative element of d's audit with its explained_by and the reference's."""
    apg, vt, ft = _pipeline(d)
    lemmas = detect_lemma_violations(apg)
    return [
        (item["element"], item["explained_by"], explained_by(d, lemmas.violations, tuple(item["element"])))
        for item in audit(apg, vt, ft, lemmas).negatives
    ]


@pytest.mark.parametrize("make", GOLDEN_DRAWINGS.values(), ids=GOLDEN_DRAWINGS)
def test_explained_by_matches_the_reference_on_golden_drawings(make):
    for element, got, want in _explained_negatives(make()):
        assert got == want, element


AUDIT_DRAWINGS = _audit_drawings(4)


@pytest.mark.parametrize("text", AUDIT_DRAWINGS.values(), ids=AUDIT_DRAWINGS)
def test_explained_by_matches_the_reference_on_audit_drawings(text):
    negatives = _explained_negatives(drawing_from_json(text))
    assert any(got for _, got, _ in negatives)
    for element, got, want in negatives:
        assert got == want, element
