from fractions import Fraction

from oddcolor.embedding import build_associated_plane_graph
from oddcolor.structure import classify_faces, classify_vertices, detect_lemma_violations
from oddcolor.discharging import apply_rules, audit, initial_charges

from conftest import plane_c5_drawing, poor4_drawing, semipoor5_drawing


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
    assert led.total_initial() == Fraction(-8)


def test_initial_charges_skip_isolated_vertices():
    d = poor4_drawing().without_vertex(1)
    apg = build_associated_plane_graph(d)
    led = initial_charges(apg)
    assert ("v", 1) not in led.mu


def test_pentagon_audit():
    apg, vt, ft = _pipeline(plane_c5_drawing())
    rep = audit(apg, vt, ft)
    assert rep.conserved and rep.replay_ok
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
    from test_embedding import crossed_k4_drawing

    apg, vt, ft = _pipeline(crossed_k4_drawing())
    led = apply_rules(apg, vt, ft)
    assert not [t for t in led.transfers if t.rule in ("R3", "R4")]
    assert led.total_initial() == led.total_final() == Fraction(-8)


def test_replay_reproduces_final_charges():
    apg, vt, ft = _pipeline(semipoor5_drawing())
    led = apply_rules(apg, vt, ft)
    assert led.replay() == led.mu_star


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
