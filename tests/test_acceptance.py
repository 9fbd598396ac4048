"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The lines are written straight to the real stdout so they survive pytest's
capture; run with plain ``pytest -v`` and they appear inline.
"""

import random
import sys
import time

from oddcolor.graph import Graph
from oddcolor.coloring import (
    Coloring,
    color_by_reduction,
    exact_odd_chromatic_number,
    find_odd_coloring,
    verify_odd_coloring,
)
from oddcolor.generators import (
    complete_minus_edge,
    cycle,
    subdivided_complete,
)
from oddcolor.structure import classify_faces, classify_vertices, detect_lemma_violations
from oddcolor.discharging import apply_rules, audit

from reference import chi_odd


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}", file=sys.__stdout__)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_small_exact_values():
    cases = [(cycle(5), 5, "C5"), (cycle(4), 4, "C4"), (complete_minus_edge(4), 3, "K4-e")]
    ok = True
    details = []
    for g, want, name in cases:
        t0 = time.perf_counter()
        got, witness = exact_odd_chromatic_number(g, 8)
        dt = time.perf_counter() - t0
        good = got == want and dt < 1.0 and verify_odd_coloring(g, witness).valid
        ok = ok and good
        details.append(f"{name}={got} ({dt:.3f}s)")
    _report(1, ok, "; ".join(details))


def test_criterion_2_subdivided_k7():
    g = subdivided_complete(7)
    t0 = time.perf_counter()
    c7 = find_odd_coloring(g, 7)
    t_upper = time.perf_counter() - t0
    upper_ok = (
        c7 is not None and verify_odd_coloring(g, c7).valid and t_upper < 60.0
    )

    # sampled lower-bound property: two equal branch colors always fail
    rng = random.Random(2024)
    branches = list(range(7))  # the branch vertices
    sampled_ok = True
    for _ in range(1000):
        assign = {v: rng.randrange(1, 8) for v in range(g.n)}
        i, j = rng.sample(branches, 2)
        assign[j] = assign[i]
        if verify_odd_coloring(g, Coloring.of(assign, k=7)).valid:
            sampled_ok = False
            break

    t0 = time.perf_counter()
    none6 = find_odd_coloring(g, 6)
    t_lower = time.perf_counter() - t0
    lower_ok = none6 is None and t_lower < 600.0

    _report(
        2,
        upper_ok and sampled_ok and lower_ok,
        f"7-coloring in {t_upper:.2f}s; 1000 equal-branch samples rejected; "
        f"exceeds 6 confirmed in {t_lower:.2f}s",
    )


def test_criterion_3_oracle_equivalence():
    rng = random.Random(99)
    mismatches = 0
    for trial in range(200):
        n = rng.randrange(1, 9)
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edge_list(rng.sample(pool, rng.randrange(len(pool) + 1)), n=n)
        if chi_odd(g, 5) != exact_odd_chromatic_number(g, 5)[0]:
            mismatches += 1
    _report(3, mismatches == 0, f"200 graphs, {mismatches} mismatches")


def _tagged(corpus, corpus_apgs):
    for d, apg in zip(corpus, corpus_apgs):
        vt = classify_vertices(apg)
        ft = classify_faces(apg, vt)
        yield d, apg, vt, ft


def test_criterion_4_charge_bookkeeping(corpus, corpus_apgs):
    bad = 0
    for d, apg, vt, ft in _tagged(corpus, corpus_apgs):
        rep = audit(apg, vt, ft)
        sums_ok = all(
            c["sum_initial"] == "-8" for c in rep.component_sums
        )
        if not (sums_ok and rep.conserved):
            bad += 1
    _report(4, bad == 0, f"{len(corpus)} drawings, {bad} bookkeeping failures")


def test_criterion_5_contrapositive(corpus, corpus_apgs):
    counterexamples = 0
    for d, apg, vt, ft in _tagged(corpus, corpus_apgs):
        lemmas = detect_lemma_violations(apg)
        rep = audit(apg, vt, ft, lemmas)
        if lemmas.satisfied_all and not rep.negatives:
            counterexamples += 1
    _report(5, counterexamples == 0, f"{len(corpus)} drawings, {counterexamples} counterexamples")


def test_criterion_6_face_charges(corpus, corpus_apgs):
    """4+-faces carrying 2-vertices end at 0; well-patterned 3-faces end >= 0.

    3-faces are checked when they match the sanctioned triangle pattern
    (three 7+-originals, or one 4*-vertex plus two 7+-originals) and are not
    themselves flagged as a (7,7,8) triangle nor incident to a vertex flagged
    for having too many easy neighbors: those configurations are exactly the
    reducible ones, so no charge guarantee applies to them.
    """
    bad_faces = 0
    checked_4plus = 0
    checked_3 = 0
    for d, apg, vt, ft in _tagged(corpus, corpus_apgs):
        lemmas = detect_lemma_violations(apg)
        led = apply_rules(apg, vt, ft)
        l5_faces = {item["face"] for item in lemmas.violations["L5"]}
        l8_faces = {item["face"] for item in lemmas.violations["L8"]}
        l4_vertices = {item["vertex"] for item in lemmas.violations["L4"]}
        for i, f in enumerate(apg.faces):
            if len(f) >= 4:
                if ft.n_2[i] > 0:
                    checked_4plus += 1
                    if led.mu_star[("f", i)] != 0:
                        bad_faces += 1
            elif len(f) == 3 and i not in l5_faces:
                if i in l8_faces:
                    continue
                if any(x in l4_vertices for x in f):
                    continue
                checked_3 += 1
                if led.mu_star[("f", i)] < 0:
                    bad_faces += 1
    _report(
        6,
        bad_faces == 0,
        f"{checked_4plus} 4+-faces at 0, {checked_3} 3-faces >= 0, {bad_faces} bad",
    )


def test_criterion_7_reduction_colorer(corpus):
    valid = 0
    returned_invalid = 0
    oversize_exact = 0
    for d in corpus:
        res = color_by_reduction(d, k=13)
        for line in res.trace:
            if line.startswith("exact search on "):
                remaining = int(line.split()[3])
                if remaining > 20:
                    oversize_exact += 1
        if res.ok:
            if verify_odd_coloring(d.base, res.coloring).valid and res.coloring.k <= 13:
                valid += 1
            else:
                returned_invalid += 1
    rate = valid / len(corpus)
    _report(
        7,
        rate >= 0.95 and returned_invalid == 0 and oversize_exact == 0,
        f"valid on {valid}/{len(corpus)} ({rate:.0%}), "
        f"{returned_invalid} invalid returns, {oversize_exact} oversize exact calls",
    )


def test_criterion_8_non_monotonicity():
    c4, k4e = cycle(4), complete_minus_edge(4)
    # C4 sits inside K4-e as the 4-cycle 0-2-1-3 (avoiding the missing edge)
    perm = [0, 2, 1, 3]
    embedded = {tuple(sorted((perm[u], perm[v]))) for u, v in c4.edges}
    subgraph = embedded < set(k4e.edges) and c4.n == k4e.n
    chi_c4 = exact_odd_chromatic_number(c4, 8)[0]
    chi_k4e = exact_odd_chromatic_number(k4e, 8)[0]
    _report(
        8,
        subgraph and chi_c4 > chi_k4e,
        f"C4 subgraph of K4-e; chi_o {chi_c4} > {chi_k4e}",
    )
