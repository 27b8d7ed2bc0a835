"""Acceptance suite: the eight exit criteria, each with its stated
tolerance (exact equality everywhere; runtimes bounded where stated).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import hashlib
import itertools
import random
import time
import warnings

from pma import pma1, spma1, spma2
from pma.harness import (RunConfig, cost_table, run_audit_suite, run_protocol,
                         to_json)
from pma.model import (PartyDataset, RandomSource, generate_datasets, make_params,
                       true_count)
from pma.transcript import MASK_SHARE, QUERY
from tests.oracles import ref_blinding

_SCHEMES = {"pma1": pma1.run, "spma1": spma1.run, "spma2": spma2.run}


def _announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def _make(variant, m, e, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make_params(variant, m, e, **kw)


# criterion 1 grid: minimal N, smallest feasible p in {3, 5}
_TYPE1_COMBOS = [
    dict(m=2, e=1, t=0, y=0, p=3),
    dict(m=2, e=1, t=1, y=0, p=3),
    dict(m=2, e=2, t=1, y=0, p=3),
    dict(m=2, e=2, t=0, y=1, p=3),
    dict(m=3, e=1, t=1, y=0, p=5),
    dict(m=3, e=2, t=1, y=0, p=5),
    dict(m=3, e=2, t=0, y=0, p=5),
]
_TYPE2_COMBOS = [
    dict(m=2, e=1, t=0, y=0, p=3),
    dict(m=2, e=2, t=0, y=0, p=3),
    dict(m=3, e=1, t=1, y=0, p=5),
    dict(m=3, e=2, t=1, y=0, p=5),
    dict(m=3, e=2, t=0, y=0, p=5),
]


def test_criterion_1_exhaustive_correctness():
    """Every variant, all dataset assignments, all thetas, 3 seeds:
    decoded count equals the brute-force oracle exactly."""
    start = time.monotonic()
    checked = 0
    for variant in ("pma1", "spma1", "spma2"):
        combos = _TYPE2_COMBOS if variant == "spma2" else _TYPE1_COMBOS
        runner = _SCHEMES[variant]
        for combo in combos:
            params = _make(variant, combo["m"], combo["e"], t=combo["t"],
                           y=combo["y"], p=combo["p"])
            m, e = params.m, params.e
            for all_bits in itertools.product(
                    itertools.product((0, 1), repeat=e), repeat=m):
                datasets = [PartyDataset(bits) for bits in all_bits]
                for theta in range(1, e + 1):
                    expected = true_count(theta, datasets, e)
                    for seed in (0, 1, 2):
                        run = runner(params, datasets, theta, RandomSource(seed))
                        assert run.count == expected, (variant, combo, all_bits,
                                                       theta, seed)
                        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"exhaustive correctness took {elapsed:.1f}s"
    _announce(1, f"{checked} exhaustive decode/oracle matches in {elapsed:.1f}s")


def test_criterion_2_type1_download_cost():
    """Measured download equals M*(max(T,Y)+1) on the full grid, and the
    symmetric variant costs exactly the same."""
    points = 0
    for m in range(2, 7):
        for t in range(3):
            for y in range(3):
                downloads = {}
                for variant in ("pma1", "spma1"):
                    params = _make(variant, m, 2, t=t, y=y)
                    datasets = generate_datasets(params, 0.5, RandomSource(m))
                    run = _SCHEMES[variant](params, datasets, 1, RandomSource(0))
                    measured = run.transcript.symbols_by_category()["answer"]
                    assert measured == m * (max(t, y) + 1), (variant, m, t, y)
                    downloads[variant] = measured
                assert downloads["pma1"] == downloads["spma1"]
                points += 1
    _announce(2, f"type-I download = M*(max(T,Y)+1) at {points} grid points, "
                 f"symmetric variant identical")


def test_criterion_3_type2_download_cost():
    """Measured download equals N + max(TN, Y_1..Y_M) + 1 exactly; databases
    beyond n_eff stay completely idle."""
    grid = []
    for m in (2, 3, 4):
        for n in (1, 2):
            for t in (0, 1, 2):
                for y in (0, 1, (0, 1), 2):
                    y_tuple = tuple(itertools.islice(itertools.cycle(
                        y if isinstance(y, tuple) else (y,)), m))
                    n_eff = n + max(t * n, max(y_tuple)) + 1
                    if m * n >= n_eff:
                        grid.append((m, n, t, y_tuple, n_eff))
    assert len(grid) >= 10
    for m, n, t, y_tuple, n_eff in grid:
        params = _make("spma2", m, 2, t=t, y=y_tuple, n=n)
        datasets = generate_datasets(params, 0.5, RandomSource(n_eff))
        run = spma2.run(params, datasets, 1, RandomSource(1))
        assert run.transcript.symbols_by_category()["answer"] == n_eff
        for ev in run.transcript.events:
            for name in (ev.sender, ev.receiver):
                if name.startswith("d") and name[1:].isdigit():
                    assert int(name[1:]) <= n_eff, (m, n, t, y_tuple)
    _announce(3, f"type-II download = N + max(TN, Y) + 1 at {len(grid)} grid "
                 f"points, surplus databases idle")


def test_criterion_4_linearity_and_exponential_contrast():
    """Type-I download fits cost = c*M with zero residual; the exponential
    reference column is reported, not asserted."""
    for variant in ("pma1", "spma1"):
        table = cost_table(variant, range(2, 7), t=1, y=0, e=2)
        assert table["zero_residual"] is True
        assert table["per_party_coefficient"] == 2
        assert all("exp_reference" in row for row in table["rows"])
    contrast = ", ".join(
        f"M={r['m']}: linear {r['download']} vs exponential {r['exp_reference']}"
        for r in cost_table("pma1", range(2, 7), t=1, y=0, e=2)["rows"])
    _announce(4, f"zero-residual linear fit; contrast table: {contrast}")


def test_criterion_5_lemma_audits():
    """All positive audits pass and every negative control fails, by exact
    distribution comparison (coset laws, cross-checked against full
    enumeration in test_audit)."""
    start = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_audit_suite("all")
    elapsed = time.monotonic() - start
    assert report["all_ok"], [c for c in report["cases"] if not c["ok"]]
    lemmas_passed = {c["lemma"] for c in report["cases"]
                     if c["expected"] == "pass" and c["verdict"] == "pass"}
    assert {"lemma1", "lemma2", "lemma3", "lemma4",
            "lemma5", "lemma6", "lemma7"} <= lemmas_passed
    controls = [c for c in report["cases"] if c["expected"] == "fail"]
    assert controls and all(c["verdict"] == "fail" for c in controls)
    assert elapsed < 300.0, f"audit suite took {elapsed:.1f}s"
    _announce(5, f"{len(report['cases'])} audits as expected "
                 f"({len(controls)} controls failed on cue) in {elapsed:.1f}s")


def test_criterion_6_reduction_property():
    """On one seed the symmetric type-I scheme sends the plain scheme's
    queries and masks symbol for symbol and decodes the same count, and each
    answer is the plain answer plus its party's power-weighted blinding, on
    100 random configs."""
    picker = random.Random(20240)
    for case in range(100):
        m = picker.randint(2, 4)
        t = picker.randint(0, 2)
        y = picker.randint(0, 2)
        e = picker.randint(1, 3)
        seed = picker.randint(0, 2 ** 32)
        theta = picker.randint(1, e)
        plain_params = _make("pma1", m, e, t=t, y=y)
        sym_params = _make("spma1", m, e, t=t, y=y)
        datasets = generate_datasets(plain_params, 0.5, RandomSource(seed + 1))
        plain = pma1.run(plain_params, datasets, theta, RandomSource(seed))
        sym = spma1.run(sym_params, datasets, theta, RandomSource(seed))
        assert plain.queries == sym.queries, case
        assert plain.masks == sym.masks, case
        assert plain.count == sym.count, case
        assert _query_and_mask_events(plain) == _query_and_mask_events(sym), case
        p, ups = sym_params.p, sym_params.upsilon
        for i, row in enumerate(sym.answers):
            for j, a in enumerate(row):
                pad = ref_blinding(p, ups[j], sym.blinding[i])
                assert a == (plain.answers[i][j] + pad) % p, case
    _announce(6, "blinded runs send the plain queries and masks and shift "
                 "each answer by its blinding on 100 random configs")


def _query_and_mask_events(run):
    return [ev for ev in run.transcript.events if ev.category in (QUERY, MASK_SHARE)]


def test_criterion_7_total_communication_formulas():
    """Measured totals equal the closed forms exactly on 20 random valid
    configs under the stated accounting convention."""
    picker = random.Random(977)
    checked = 0
    while checked < 20:
        variant = picker.choice(["pma1", "spma1", "spma2"])
        if variant == "spma2":
            m = picker.randint(2, 4)
            n = picker.randint(1, 2)
            t = picker.randint(0, m - 2) if m > 2 else 0
            # stay in the regime where the closed form applies: TN >= Y
            y = picker.randint(0, t * n)
            if m * n < n + max(t * n, y) + 1:
                continue
            config = RunConfig(variant=variant, m=m, e=picker.randint(1, 4),
                               t=t, y=y, n=n, theta=1, seed=picker.randint(0, 999))
        else:
            config = RunConfig(variant=variant, m=picker.randint(2, 5),
                               e=picker.randint(1, 4), t=picker.randint(0, 2),
                               y=picker.randint(0, 2), theta=1,
                               seed=picker.randint(0, 999))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_protocol(config)
        cost = report["cost"]
        assert cost["remark_applicable"] is True, config
        assert cost["remark_match"] is True, (config, cost)
        checked += 1
    _announce(7, "accounted totals match the closed forms on 20 random configs")


def test_criterion_8_deterministic_reports():
    """Identical config and seed give byte-identical JSON reports."""
    configs = [
        RunConfig(variant="pma1", m=2, e=3, t=1, seed=5),
        RunConfig(variant="pma1", m=4, e=2, t=0, y=2, theta=2, seed=11),
        RunConfig(variant="spma1", m=2, e=2, t=1, seed=0),
        RunConfig(variant="spma1", m=3, e=4, t=2, theta=4, seed=3),
        RunConfig(variant="spma2", m=3, e=2, t=1, theta=1, seed=8),
        RunConfig(variant="spma2", m=4, e=3, t=1, n=2, seed=2),
        RunConfig(variant="pma2", m=3, e=2, t=1, theta=2, seed=13),
        RunConfig(variant="pma1", m=2, e=1, t=1, theta=1, seed=21),
        RunConfig(variant="spma1", m=5, e=2, t=0, y=1, seed=34),
        RunConfig(variant="spma2", m=2, e=2, t=0, y=(0, 1), theta=1, seed=55),
    ]
    assert len(configs) == 10
    for config in configs:
        digests = set()
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                blob = to_json(run_protocol(config)).encode()
            digests.add(hashlib.sha256(blob).hexdigest())
        assert len(digests) == 1, config
    _announce(8, "byte-identical reports across repeated runs on 10 configs")
