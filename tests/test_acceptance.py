"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines as
they happen; without ``-s`` they show up in captured output on failure.
"""
import math
import time

import numpy as np
import pytest

from uncross.book import AuctionBook
from uncross.clearing import clear
from uncross.flowgen import FlowConfig, generate
from uncross.grid import PriceGrid
from uncross.impact import (
    cancel_market_and_reclear,
    cash_volume,
    impact_curve,
    inject_and_reclear,
    post_clearing_impact,
    theoretical_slope,
)
from uncross.regime import changepoint, empirical_slope
from uncross.response import collect_marketable, log_bins, response_curves
from uncross.stats import ks_two_sample, rcdf, spearman

from oracles import (
    dense_random_book,
    naive_clear,
    naive_inject_prices,
    naive_marketable,
    random_book,
    spec_to_book,
)


def verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_clearing_oracle_equivalence():
    """10,000 random books: clear() == exhaustive oracle, identities hold, <10s."""
    n = 10_000
    t0 = time.monotonic()
    mismatches = 0
    for seed in range(n):
        spec = random_book(seed)
        book = spec_to_book(spec)
        c = clear(book)
        o = naive_clear(spec)
        if (c.price_index, c.q_a) != (o[0], o[1]):
            mismatches += 1
            continue
        # matched/remaining identities, with off-price rationing accounted
        rem_s = c.vsr + c.market_sell_unfilled + c.sell_spillover
        rem_b = c.vbr + c.market_buy_unfilled + c.buy_spillover
        assert c.q_a == c.supply_at - rem_s == c.demand_at - rem_b, seed
        assert rem_s * rem_b == 0, seed
        vb_at, vs_at = book.volume_at(c.price_index)
        assert c.vbm + c.vbr == vb_at and c.vsm + c.vsr == vs_at, seed
    elapsed = time.monotonic() - t0
    verdict(
        "criterion 1 (clearing oracle equivalence)",
        mismatches == 0 and elapsed < 10.0,
        f"n={n} mismatches={mismatches} runtime={elapsed:.2f}s (budget 10s)",
    )


def test_criterion_2_impact_breakpoint_exactness():
    """1,000 dense books, every integer volume to the 2% truncation, <60s.

    Books have both-side volume on every tick, the regime where the breakpoint
    walk is exact; disagreements may occur only at exact jump volumes, where
    the curve adopts the next-tick convention and the full rule chain may
    instead hold the old price.  Every such case is logged.
    """
    t0 = time.monotonic()
    n_books = 1_000
    swept = 0
    boundary_log = []
    interior = []
    for seed in range(n_books):
        spec = dense_random_book(seed)
        book = spec_to_book(spec)
        c = clear(book)
        p_a = c.p_a
        for side in "BS":
            curve = impact_curve(book, c, side, max_x=0.02)
            hi = curve.cap_num if not curve.pinned else 400
            qs = np.arange(0, max(hi, 1))
            swept += len(qs)
            oracle_idx = naive_inject_prices(spec, side, qs)
            bps = {bp.omega_num for bp in curve.breakpoints}
            for q, k_oracle in zip(qs.tolist(), oracle_idx.tolist()):
                mine = curve.price_index_at_shares(q)
                if mine == k_oracle:
                    continue
                if q in bps:
                    boundary_log.append((seed, side, q, mine, k_oracle))
                else:
                    interior.append((seed, side, q, mine, k_oracle))
            # the log-impact values follow the same price indices exactly
            # (skip zero-volume jumps: q=0 is the baseline with zero impact)
            for bp in curve.breakpoints[:3]:
                if bp.omega_num == 0:
                    continue
                expected = abs(math.log(book.grid.price_at(bp.target_index) / p_a))
                assert curve.impact_at_shares(bp.omega_num) == expected
    elapsed = time.monotonic() - t0
    print(
        f"[acceptance]   boundary-tie disagreements logged: {len(boundary_log)} "
        f"(first 3: {boundary_log[:3]})"
    )
    verdict(
        "criterion 2 (impact breakpoint exactness)",
        not interior and elapsed < 60.0,
        f"books={n_books} injections={swept} interior_mismatches={len(interior)} "
        f"boundary_logged={len(boundary_log)} runtime={elapsed:.2f}s (budget 60s)",
    )


def test_criterion_3_cash_volume_buy_side():
    got = cash_volume(0.2745, 2_246_617, 48.00)
    verdict(
        "criterion 3a (cash volume, buy side)",
        abs(got - 29.6e6) <= 0.05e6,
        f"computed {got:,.2f} vs 29.6M +/- 0.05M",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published-value rounding defect: 0.0961 * 2,246,617 * 48.00 = "
        "10,363,194.90 exactly, outside 10.3M +/- 0.05M for any correct "
        "product; the published figure truncates 10.36M to '10.3 million'. "
        "The buy-side twin (29,601,425.59 vs 29.6M) passes. Kept faithful "
        "and expected-to-fail so a gamed implementation would surface as "
        "an unexpected pass."
    ),
)
def test_criterion_3_cash_volume_sell_side():
    got = cash_volume(0.0961, 2_246_617, 48.00)
    ok = abs(got - 10.3e6) <= 0.05e6
    verdict(
        "criterion 3b (cash volume, sell side)",
        ok,
        f"computed {got:,.2f} vs 10.3M +/- 0.05M",
    )


def test_criterion_4_linear_slope_realized():
    """Constant generated book: breakpoint slope == 1/(p1 * L) to 1e-6.

    The relative tick must be tiny (2e-7) because regressing log impact on
    volume carries an irreducible curvature bias of about tick/price per
    breakpoint; the slope is taken over the first two jumps past omega0.
    """
    cfg = FlowConfig(
        seed=21,
        tick_size=1e-5,
        fundamental_price=50.0,
        shape="constant",
        total_shares_per_side=14_000,
        buy_peak_mass=10_000 / 14_000,
        sell_peak_mass=10_000 / 14_000,
        n_levels=8,
    )
    events, truth, meta = generate(cfg)
    grid = PriceGrid(meta["tick_size"], meta["anchor"], meta["reference_price"])
    book = AuctionBook(grid).replay(events)
    c = clear(book)
    v_c = 4_000 // 8
    l_tilde = v_c / (c.q_a * cfg.tick_size)
    assert truth["l_star"] == pytest.approx(l_tilde)
    worst = 0.0
    for side in "BS":
        curve = impact_curve(book, c, side, max_x=0.02)
        bps = curve.breakpoints
        w0 = bps[0].omega_num / c.q_a
        w2 = bps[2].omega_num / c.q_a
        slope, _ = empirical_slope(curve, w0, w2)  # (w0, w2]: jumps 1 and 2
        p_first = grid.price_at(bps[0].target_index)
        theo = theoretical_slope(p_first, l_tilde)
        worst = max(worst, abs(slope - theo) / theo)
    verdict(
        "criterion 4 (linear slope realized)",
        worst < 1e-6,
        f"worst relative error {worst:.2e} (bound 1e-6), L={l_tilde:g}",
    )


def test_criterion_5_changepoint_recovery():
    """1,000 noisy two-part profiles: delta within one spacing >= 95%, L within 2%."""
    n, dx, cut, level, decay, sigma = 200, 1e-4, 60, 1000.0, 400.0, 0.01
    delta_hits = 0
    l_hits = 0
    trials = 1_000
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        xs = np.arange(1, n + 1) * dx
        rhos = np.where(xs <= cut * dx, level, level * np.exp(-decay * (xs - cut * dx)))
        rhos = rhos * np.exp(sigma * rng.standard_normal(n))
        fit = changepoint(xs.tolist(), rhos.tolist())
        if abs(fit.delta - cut * dx) <= dx + 1e-12:
            delta_hits += 1
        if abs(fit.l_tilde - level) / level < 0.02:
            l_hits += 1
    verdict(
        "criterion 5 (change-point recovery)",
        delta_hits >= 0.95 * trials and l_hits >= 0.95 * trials,
        f"delta within one spacing: {delta_hits / 10:.1f}%  "
        f"L within 2%: {l_hits / 10:.1f}% (bound 95%)",
    )


def test_criterion_6_post_clearing_asymptotics():
    """x(q) approaches q/a1 as q->0 and sqrt(2q/b1) as q->inf.

    Swept over six decades of q; each ratio must reach 1 within 1% at its own
    end of the sweep and approach it monotonically on its side of the
    crossover (both errors saturate at the opposite end, where the other
    regime rules).
    """
    a1, b1 = 1.0, 2.0
    qs = np.logspace(-2, 4, 61)  # six decades
    lin_err = []
    sqrt_err = []
    for q in qs:
        x = post_clearing_impact(a1, b1, q)
        lin_err.append(abs(x / (q / a1) - 1.0))
        sqrt_err.append(abs(x / math.sqrt(2 * q / b1) - 1.0))
    lin_err = np.array(lin_err)
    sqrt_err = np.array(sqrt_err)
    crossover = a1 * a1 / (2 * b1)
    ok = (
        lin_err[0] < 0.01
        and sqrt_err[-1] < 0.01
        and np.all(np.diff(lin_err[qs <= crossover]) > 0)
        and np.all(np.diff(sqrt_err[qs >= crossover]) < 0)
    )
    verdict(
        "criterion 6 (post-clearing asymptotics)",
        bool(ok),
        f"linear-limit err at q={qs[0]:.3g}: {lin_err[0]:.2e}; "
        f"sqrt-limit err at q={qs[-1]:.3g}: {sqrt_err[-1]:.2e} (bounds 1%)",
    )


def _response_flow():
    cfg = FlowConfig(
        seed=31,
        tick_size=0.01,
        fundamental_price=100.0,
        shape="bell",
        total_shares_per_side=500_000,
        buy_peak_mass=0.25,
        sell_peak_mass=0.25,
        n_levels=150,
        cancellation_rate=0.6,
        market_shares_per_side=150_000,
        market_size_range=(1, 4_000),
        mean_order_size=150,
    )
    events, _, meta = generate(cfg)
    grid = PriceGrid(meta["tick_size"], meta["anchor"], meta["reference_price"])
    return events, grid


def test_criterion_7_response_consistency():
    """Non-reactive flow: R1 == RM within noise, RM == virtual impact, duality exact."""
    events, grid = _response_flow()
    bins = log_bins(1e-5, 1.0, 30)
    curve = response_curves(events, grid, bins=bins, warmup_us=30_000_000)
    checked = 0
    bad_bins = []
    for i, count in enumerate(curve.counts):
        if count < 5:
            continue  # no meaningful standard error below that
        checked += 1
        diff = abs(curve.r1[i] - curve.rm[i])
        if diff > 3 * curve.se_diff[i] + 1e-15:
            bad_bins.append((i, diff, curve.se_diff[i]))
    assert checked >= 8, f"only {checked} populated bins; flow config too thin"

    # mechanical response equals the virtual impact of the equivalent market
    # injection on the pre-event book: exactly, event by event, for market
    # submissions and (by the cancellation duality) market cancellations
    from uncross.clearing import _indicative

    recorded, _ = collect_marketable(events, grid, warmup_us=30_000_000)
    book = AuctionBook(grid)
    t0 = events[0].timestamp
    qi = 0
    virtual_mismatch = 0
    checked_virtual = 0
    per_event: list[tuple[float, float, float]] = []  # omega, mech move, virtual move
    for ev in events:
        pre = _indicative(book) if ev.timestamp >= t0 + 30_000_000 else None
        if pre is not None:
            cls = naive_marketable(ev, book, pre[0])
            if cls is not None:
                me = recorded[qi]
                qi += 1
                assert me.t == ev.timestamp and me.shares == cls[1]
                if ev.action == "SUBMIT" and ev.order_type == "MARKET":
                    virt = inject_and_reclear(book, ev.side, ev.quantity)
                elif ev.action == "CANCEL" and book.orders[ev.order_id].is_market:
                    rec = book.orders[ev.order_id]
                    virt = cancel_market_and_reclear(book, rec.side, rec.quantity)
                else:
                    # aggressive limit: the virtual impact of the same size
                    virt = inject_and_reclear(book, "B" if me.sign > 0 else "S", me.shares)
                if ev.order_type == "MARKET" or (
                    ev.action == "CANCEL" and book.orders[ev.order_id].is_market
                ):
                    checked_virtual += 1
                    if abs(virt - me.p_after_mech) > 1e-12:
                        virtual_mismatch += 1
                per_event.append(
                    (me.omega, me.sign * (me.p_after_mech - me.p_before),
                     me.sign * (virt - me.p_before))
                )
        book.apply(ev)
    assert qi == len(recorded)
    assert checked_virtual > 100

    # per-bin: mechanical response equals the mean virtual impact within one
    # standard error of the per-event difference
    bin_bad = []
    for i in range(len(bins) - 1):
        rows = [r for r in per_event if bins[i] < r[0] <= bins[i + 1]]
        if len(rows) < 5:
            continue
        diffs = [m - v for _, m, v in rows]
        mean_diff = sum(diffs) / len(diffs)
        var = sum((d - mean_diff) ** 2 for d in diffs) / max(len(diffs) - 1, 1)
        se = math.sqrt(var / len(diffs))
        if abs(mean_diff) > se + 1e-15:
            bin_bad.append((i, mean_diff, se))
    assert not bin_bad, f"RM vs virtual beyond 1 SE in bins {bin_bad}"

    # cancel-buy-market(q) is exactly inject-sell-market(q), and symmetrically.
    # Both routes share maximizers and imbalances but their cleared volumes
    # differ by exactly q, so canceling the whole cross leaves the injection
    # route trading only the phantom pair: the price equivalence is vacuous
    # there and the cancel route must report no cross instead.
    import copy

    from uncross.errors import NoCross

    def outcome(fn, *args):
        try:
            return fn(*args)
        except NoCross:
            return "no-cross"

    duality_bad = 0
    for seed in range(200):
        spec = random_book(seed + 70_000)
        if not spec.buy_market and not spec.sell_market:
            continue
        b = spec_to_book(spec)
        for cancel_side, inject_side in (("B", "S"), ("S", "B")):
            total = spec.buy_market if cancel_side == "B" else spec.sell_market
            for q in {0, 1, total // 2, total}:
                if q > total:
                    continue
                c_out = outcome(cancel_market_and_reclear, b, cancel_side, q)
                if c_out == "no-cross":
                    spec2 = copy.deepcopy(spec)
                    if cancel_side == "B":
                        spec2.buy_market -= q
                    else:
                        spec2.sell_market -= q
                    if naive_clear(spec2) is not None:
                        duality_bad += 1
                elif c_out != outcome(inject_and_reclear, b, inject_side, q):
                    duality_bad += 1
    verdict(
        "criterion 7 (response consistency)",
        not bad_bins and virtual_mismatch == 0 and duality_bad == 0,
        f"bins checked={checked} |R1-RM|>3se in {len(bad_bins)} bins; "
        f"virtual mismatches={virtual_mismatch}; duality violations={duality_bad}",
    )


def test_criterion_8_statistics_sanity():
    sp = spearman([1, 2, 3, 4], [2, 1, 4, 3])
    ks_hand = ks_two_sample([1, 2, 3], [1.5, 2.5, 3.5])
    ks_same = ks_two_sample([4.0, 5.0, 6.0], [4.0, 5.0, 6.0])
    table = dict(rcdf([1, 2, 3]))
    ok = (
        sp.rho == pytest.approx(0.6)
        and ks_hand.statistic == pytest.approx(1 / 3)
        and ks_same.statistic == 0.0
        and table[2.0] == 2 / 3
        and table[1.0] == 1.0
        and table[3.0] == 1 / 3
    )
    verdict(
        "criterion 8 (statistics sanity)",
        ok,
        f"spearman={sp.rho} ks={ks_hand.statistic:.6f} ks_same={ks_same.statistic} "
        f"rcdf(2)={table[2.0]:.4f}",
    )


def test_criterion_9_manifest_determinism(tmp_path):
    """Every command rerun from its manifest reproduces outputs byte for byte."""
    import json

    from click.testing import CliRunner

    from uncross.cli import main

    runner = CliRunner()
    root = tmp_path

    cfg = FlowConfig(
        seed=8,
        shape="piecewise",
        total_shares_per_side=100_000,
        buy_peak_mass=0.2,
        sell_peak_mass=0.2,
        n_levels=200,
        delta_star_bp=50.0,
        decay=400.0,
        cancellation_rate=0.3,
        market_shares_per_side=5_000,
    )
    (root / "cfg.json").write_text(cfg.to_json())
    day2 = FlowConfig(**{**cfg.__dict__, "seed": 9})
    run1 = root / "a"
    res = runner.invoke(main, ["gen", str(root / "cfg.json"), "--name", "day",
                               "--out-dir", str(run1)])
    assert res.exit_code == 0, res.output
    (root / "cfg2.json").write_text(day2.to_json())
    res = runner.invoke(main, ["gen", str(root / "cfg2.json"), "--name", "day2",
                               "--out-dir", str(run1)])
    assert res.exit_code == 0, res.output

    log = str(run1 / "day.csv")
    log2 = str(run1 / "day2.csv")
    gridf = str(run1 / "day_meta.json")
    commands = [
        ["replay", log, "--grid", gridf],
        ["impact", log, "--grid", gridf],
        ["density", log, log2, "--grid", gridf, "--group", "latency"],
        ["regime", log, "--grid", gridf, "--date", "d0", "--full-metrics"],
        ["response", log, "--grid", gridf, "--warmup", "10"],
        ["series", log, "--grid", gridf, "--interval", "60"],
    ]
    for argv in commands:
        res = runner.invoke(main, argv + ["--out-dir", str(run1)])
        assert res.exit_code == 0, f"{argv}: {res.output}"
    res = runner.invoke(main, ["stats", str(run1 / "day_metrics.csv"),
                               "--rcdf", "omega0", "--out-dir", str(run1)])
    assert res.exit_code == 0, res.output

    manifests = sorted(run1.glob("*.manifest.json"))
    assert len(manifests) == 8  # one per command; the 2nd gen run overwrote the 1st
    mismatched = []
    for man in manifests:
        rerun_dir = root / f"re_{man.stem}"
        res = runner.invoke(main, ["rerun", str(man), "--out-dir", str(rerun_dir)])
        assert res.exit_code == 0, f"{man.name}: {res.output}"
        rec = json.loads(man.read_text())
        assert sorted(p.name for p in rerun_dir.iterdir()) == sorted([*rec["outputs"], man.name])
        for name in rec["outputs"]:
            if (run1 / name).read_bytes() != (rerun_dir / name).read_bytes():
                mismatched.append(f"{man.name}:{name}")
    verdict(
        "criterion 9 (manifest determinism)",
        not mismatched,
        f"manifests={len(manifests)} byte-identical reruns; mismatches={mismatched}",
    )
