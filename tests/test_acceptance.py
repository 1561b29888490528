"""Package acceptance gate.

Each test here checks one headline guarantee end to end and prints a
single [PASS]/[FAIL] verdict line on the real stdout before asserting,
so a full run reads as a nine-line report card.  Everything uses capfd
(never capsys) so the verdict lines can bypass capture while CLI output
is still collected.
"""

import json
import time

import numpy as np

from ctxkit.bell import certify_state_independence, max_quantum_value
from ctxkit.calibration import kcbs_calibration
from ctxkit.cli import main
from ctxkit.families import KS18_CONTEXTS, set_labels
from ctxkit.inequalities import absorb_sign_flip, catalog_get, specialize
from ctxkit.observables import build_set
from ctxkit.parity import ks_colorable, parity_stats
from ctxkit.quantum import evaluate_inequality, haar_sweep
from ctxkit.runtime import substream
from ctxkit.simulate import marginal_consistency, run_protocol, sequential_measure
from ctxkit.solver import classical_bound
from ctxkit.states import haar_random, make_state


def _verdict(capfd, ok: bool, text: str) -> None:
    with capfd.disabled():
        print(("[PASS] " if ok else "[FAIL] ") + text, flush=True)


def _multiset(expr):
    return sorted((t.sign, tuple(sorted(t.factors))) for t in expr.terms)


def test_criterion_1_classical_bounds(capfd):
    cases = [
        ("ineq1", None, 7),
        ("ineq4", None, 4),
        ("kcbs3", None, 3),
        ("cfrh6", None, 3),
        ("nambu7", None, 4),
        ("chsh8", None, 2),
        ("ineq9", 3, 3),
        ("ineq9", 5, 3),
        ("mermin11", 3, 2),
    ]
    started = time.perf_counter()
    got = {(cid, n): classical_bound(catalog_get(cid, n)).classical_bound for cid, n, _ in cases}
    elapsed = time.perf_counter() - started
    exact = all(got[(cid, n)] == want for cid, n, want in cases)
    _verdict(
        capfd,
        exact and elapsed < 10.0,
        f"criterion 1: nine exact classical bounds in {elapsed:.2f}s (< 10s)",
    )
    for cid, n, want in cases:
        assert got[(cid, n)] == want, (cid, n, got[(cid, n)])
    assert elapsed < 10.0


def test_criterion_2_state_independence_certificates(capfd):
    cases = [("ineq1", None, 9.0), ("ineq4", None, 6.0), ("ineq9", 3, 5.0), ("ineq9", 5, 5.0)]
    checks = []
    for cid, n, constant in cases:
        expr = catalog_get(cid, n)
        cert = certify_state_independence(build_set(expr.set_id, expr.n), expr)
        checks.append(
            cert.state_independent
            and cert.residual <= 1e-9
            and abs(cert.quantum_constant - constant) <= 1e-9
        )
    _verdict(
        capfd,
        all(checks),
        "criterion 2: Bell operators are c*identity with residual <= 1e-9 (c = 9, 6, 5, 5)",
    )
    assert all(checks), list(zip(cases, checks))


def test_criterion_3_haar_sweeps_flat_and_violating(capfd):
    cases = [
        ("ineq1", None, 9.0, 0),
        ("ineq4", None, 6.0, 1),
        ("ineq9", 3, 5.0, 2),
        ("ineq9", 5, 5.0, 3),
    ]
    checks = []
    for cid, n, constant, seed in cases:
        expr = catalog_get(cid, n)
        values = haar_sweep(build_set(expr.set_id, expr.n), expr, 1000, seed)
        flat = float(np.max(np.abs(values - constant))) <= 1e-9
        gap = float(values.min()) >= expr.bound + 1.9
        checks.append(flat and gap)
    _verdict(
        capfd,
        all(checks),
        "criterion 3: 1000 Haar states per family sit at the constant (1e-9) "
        "and clear the classical bound by >= 1.9",
    )
    assert all(checks), list(zip(cases, checks))


def test_criterion_4_named_state_spot_checks(capfd):
    pm = build_set("peres_mermin")
    ks = build_set("ks18")
    singlet_val = evaluate_inequality(make_state("singlet", dim=4), pm, catalog_get("cfrh6"))
    yplus_val = evaluate_inequality(make_state("y_plus_pair", dim=4), pm, catalog_get("nambu7"))
    zero_val = evaluate_inequality(make_state("zero_product", dim=4), ks, catalog_get("kcbs3"))
    star_max = max_quantum_value(
        build_set("mermin_star", 3), catalog_get("mermin11", 3)).max_quantum_value
    checks = [
        abs(singlet_val - 5.0) <= 1e-9,
        abs(yplus_val - 6.0) <= 1e-9,
        zero_val <= 3.0,
        abs(star_max - 4.0) <= 1e-6,
    ]
    _verdict(
        capfd,
        all(checks),
        f"criterion 4: singlet/cfrh6 = {singlet_val:.9f}, y_plus_pair/nambu7 = "
        f"{yplus_val:.9f}, zero_product/kcbs3 = {zero_val:.2e} <= 3, "
        f"star max = {star_max:.7f}",
    )
    assert all(checks), [singlet_val, yplus_val, zero_val, star_max]


def test_criterion_5_coloring_unsat_and_parity(capfd):
    obs = build_set("ks18")
    started = time.perf_counter()
    coloring = ks_colorable(obs)
    elapsed = time.perf_counter() - started
    stats = parity_stats(obs)
    checks = [
        coloring.satisfiable is False,
        elapsed < 1.0,
        stats.context_count == 9,
        stats.context_count % 2 == 1,
        set(stats.occurrences.values()) == {2},
        stats.parity_contradiction is True,
    ]
    _verdict(
        capfd,
        all(checks),
        f"criterion 5: 18-ray coloring UNSAT in {elapsed:.3f}s; 9 contexts, "
        "every ray in exactly 2",
    )
    assert all(checks), checks


def test_criterion_6_specialization_roundtrips(capfd):
    pentagon = {"A12", "A18", "A23", "A34", "A48"}
    ks_subs = {label: 1 for label in set_labels("ks18") if label not in pentagon}
    spec_kcbs, _ = specialize(catalog_get("ineq1"), ks_subs)
    spec_cfrh, _ = specialize(catalog_get("ineq4"), {"P16": -1, "P26": -1, "P36": -1})
    spec_nambu, _ = specialize(catalog_get("ineq4"), {"P36": 1})
    spec_chsh, _ = specialize(
        catalog_get("ineq4"), {"P15": 1, "P25": 1, "P34": 1, "P35": 1, "P36": 1}
    )
    exact = [
        _multiset(spec_kcbs) == _multiset(catalog_get("kcbs3")),
        _multiset(spec_cfrh) == _multiset(catalog_get("cfrh6")),
        _multiset(spec_nambu) == _multiset(catalog_get("nambu7")),
        _multiset(spec_chsh) == _multiset(catalog_get("chsh8")),
    ]
    spec_mermin, _ = specialize(
        catalog_get("ineq9", 3), {"ACAL1": -1, "ACAL2": -1, "ACAL3": -1, "ACAL4": 1}
    )
    for label in ("B1", "B2", "B3"):
        spec_mermin = absorb_sign_flip(spec_mermin, label)
    mermin = catalog_get("mermin11", 3)
    mermin_ok = _multiset(spec_mermin) == _multiset(mermin)
    flips_ok = all(
        classical_bound(absorb_sign_flip(mermin, label)).classical_bound
        == classical_bound(mermin).classical_bound
        for label in ("B1", "B2", "B3")
    )
    _verdict(
        capfd,
        all(exact) and mermin_ok and flips_ok,
        "criterion 6: specialization reproduces kcbs3/cfrh6/nambu7/chsh8 exactly "
        "and mermin11 up to checked sign flips",
    )
    assert all(exact), exact
    assert mermin_ok
    assert flips_ok


def test_criterion_7_protocol_and_marginals(capfd):
    started = time.perf_counter()
    ks = build_set("ks18")
    pm = build_set("peres_mermin")
    mixed = make_state("maximally_mixed", dim=4)
    runs = [
        (catalog_get("ineq1"), ks, mixed, 9.0),
        (catalog_get("ineq4"), pm, make_state("singlet", dim=4), 6.0),
        (catalog_get("cfrh6"), pm, mixed, 2.0),
    ]
    protocol_ok = []
    for expr, obs, rho, exact in runs:
        report = run_protocol(rho, obs, expr, shots_per_term=10_000, seed=11)
        protocol_ok.append(
            abs(report.lhs_estimate - exact) <= 5.0 * report.lhs_stderr
        )

    product_ok = True
    state = haar_random(4, seed=3)
    for ctx_index, ctx in enumerate(KS18_CONTEXTS):
        rng = substream(42, 1, index=ctx_index)
        for _ in range(20):
            record = sequential_measure(state, ks, ctx, rng)
            if int(np.prod([o for _, o in record.outcomes])) != -1:
                product_ok = False

    labels = sorted(ks.labels)[:10]
    z_values = []
    for seed, label in enumerate(labels):
        contexts = [c for c in KS18_CONTEXTS if label in c]
        report = marginal_consistency(mixed, ks, label, contexts, shots=4000, seed=seed)
        z_values.append(abs(report.z_statistic))
    marginal_ok = max(z_values) <= 5.0

    elapsed = time.perf_counter() - started
    ok = all(protocol_ok) and product_ok and marginal_ok and elapsed < 60.0
    _verdict(
        capfd,
        ok,
        f"criterion 7: protocol within 5 sigma for ineq1/ineq4/cfrh6, all context "
        f"products -1, max marginal |z| = {max(z_values):.2f}, {elapsed:.1f}s (< 60s)",
    )
    assert all(protocol_ok), protocol_ok
    assert product_ok
    assert marginal_ok, z_values
    assert elapsed < 60.0


def test_criterion_8_pentagon_relabeling_calibration(capfd):
    report = kcbs_calibration()
    _verdict(
        capfd,
        report.qualitative_violation,
        f"criterion 8: best product-state value {report.best_product_value:.4f} > 3 "
        f"(qualitative); target {report.target} +- {report.slack} matched: "
        f"{report.target_matched} (best reference-state value "
        f"{report.best_paper_value:.4f}, reported only)",
    )
    assert report.qualitative_violation
    assert report.best_product_value > 3.0
    # The 3.6 +- 0.05 match is diagnostic output, not a gate.
    assert isinstance(report.target_matched, bool)


def test_criterion_9_seeded_commands_byte_identical(capfd):
    commands = [
        ("simulate", "--inequality", "kcbs3", "--state", "zero_product",
         "--shots", "500", "--seed", "7"),
        ("sweep", "--inequality", "ineq4", "--states", "50", "--seed", "7"),
        ("calibrate", "--seed", "0"),
    ]
    identical = []
    for argv in commands:
        outputs = []
        for _ in range(2):
            rc = main(list(argv))
            captured = capfd.readouterr()
            assert rc == 0, captured.err
            json.loads(captured.out)  # stays a well-formed report
            outputs.append(captured.out)
        identical.append(outputs[0] == outputs[1])
    _verdict(
        capfd,
        all(identical),
        "criterion 9: simulate/sweep/calibrate reports byte-identical across reruns",
    )
    assert all(identical), list(zip([c[0] for c in commands], identical))
