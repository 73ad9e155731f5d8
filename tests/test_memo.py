"""The order-keyed memo: lower-order hits equal fresh calls, the memo stays
bounded, and every module-level memo can be cleared and read without
arguments."""

import functools
import importlib
import inspect
import math
import pkgutil
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import dense_invert, fmt_text

import qserieslab
from qserieslab import CharLabel, ProductFactor, named_series, to_text
from qserieslab import characters, lattice, products, verify
from qserieslab.series import PuiseuxSeries, _highest_order_memo

MODULES = [qserieslab] + [
    importlib.import_module(f"qserieslab.{info.name}") for info in pkgutil.iter_modules(qserieslab.__path__)
]


def module_memos():
    found = {}
    for mod in MODULES:
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def clear_all():
    for memo in module_memos():
        memo.cache_clear()


# 1/(1 + q^(1/3 + n/2))^2
SIGNED_RECIPROCAL = (ProductFactor(-1, F(1, 3), F(1, 2), -2),)

# (memo whose hits are counted, the call at a given order); the a22 names are
# prelude definitions, served by the memo of the basic product or of the
# (2,5) character that each reads once past its order-0 probes
MEMOISED = {
    "minimal_char": (characters._minimal_char, lambda o: characters.minimal_char(CharLabel(2, 5, 1, 2), o)),
    "a22:basic": (products.expand_product, lambda o: named_series("a22:basic", o)),
    "a22:2L1": (characters._minimal_char, lambda o: named_series("a22:2L1", o)),
    "a22:L0": (characters._minimal_char, lambda o: named_series("a22:L0", o)),
    "fkw_character": (lattice.fkw_character, lambda o: lattice.fkw_character(o)),
    "euler_phi": (products.euler_phi, lambda o: products.euler_phi(o)),
    "expand_product": (
        products.expand_product,
        lambda o: products.expand_product(SIGNED_RECIPROCAL, o),
    ),
}


@pytest.mark.parametrize("name", sorted(MEMOISED))
@pytest.mark.parametrize("high, low", [(F(40), F(97, 6)), (F(61, 3), F(20))])
def test_lower_order_hit_equals_fresh_call(name, high, low):
    memo, call = MEMOISED[name]
    clear_all()
    call(high)
    hits = memo.cache_info().hits
    served = to_text(call(low))
    assert memo.cache_info().hits == hits + 1
    clear_all()
    assert served == to_text(call(low))


@pytest.mark.parametrize("name", sorted(MEMOISED))
def test_higher_order_request_recomputes(name):
    memo, call = MEMOISED[name]
    clear_all()
    call(F(10))
    misses = memo.cache_info().misses
    text = to_text(call(F(12)))
    assert memo.cache_info().misses == misses + 1
    clear_all()
    assert text == to_text(call(F(12)))


def test_bounded_and_least_recently_used_goes_first():
    memo = products.expand_product
    clear_all()
    maxsize = memo.cache_info().maxsize
    specs = [(ProductFactor(1, k, 1),) for k in range(1, maxsize + 6)]
    for spec in specs:
        memo(spec, 5)
        assert memo.cache_info().currsize <= maxsize
    assert memo.cache_info().currsize == maxsize
    misses = memo.cache_info().misses
    memo(specs[-1], 4)  # held: served by truncation
    memo(specs[0], 4)  # evicted: computed again
    assert memo.cache_info().misses == misses + 1


def test_uncertified_result_is_not_truncated():
    # a held result that certified less than its request serves that request
    # again but no lower one
    from qserieslab.series import PuiseuxSeries, _highest_order_memo

    calls = []

    @_highest_order_memo
    def short(order):
        calls.append(order)
        return PuiseuxSeries(1, F(order) - 1, ())

    short(10)
    short(10)
    short(8)
    assert calls == [10, 8]
    assert short.cache_info().hits == 1
    assert short.__name__ == "short"


def test_decomposition_expands_the_basic_product_once(monkeypatch):
    # DECOMP-1.4 reads a22:basic, a22:2L1 and a22:L0, all of them defined on
    # the basic product: each product flattens them and asks for it on the
    # o + k lattice, so past the order-0 probes it is expanded at one order
    # and the rest are memo hits
    from qserieslab.verify import Status, check

    basic = verify.parse_expression("prod(1,1/6,1,-1, 1,5/6,1,-1)").factors
    expand_product = verify.expand_product
    expanded = []

    def spy(spec, order):
        misses = expand_product.cache_info().misses
        out = expand_product(spec, order)
        if spec == basic and expand_product.cache_info().misses > misses:
            expanded.append(F(order))
        return out

    monkeypatch.setattr(verify, "expand_product", spy)
    clear_all()
    assert check("DECOMP-1.4", 500).status is Status.PASS
    assert len([o for o in expanded if o >= 500]) == 1


@pytest.mark.parametrize("order", [500, 2000])
def test_decomposition_multiplies_the_shared_basic_product_once(order, monkeypatch):
    # both terms of DECOMP-1.4's right side hold the basic product, so the sum
    # multiplies it once into the sum of their rests: the square on the left,
    # the two (2,5) products of the rests and one product of the basic product
    # by their sum; adding the terms one by one made five
    from qserieslab import series
    from qserieslab.verify import Status, check

    operands = []
    kronecker_mul = series._kronecker_mul

    def spy(ea, eb, ca, cb, top, g):
        operands.append((len(ea), len(eb)))
        return kronecker_mul(ea, eb, ca, cb, top, g)

    monkeypatch.setattr(series, "_kronecker_mul", spy)
    clear_all()
    assert check("DECOMP-1.4", order).status is Status.PASS
    assert len(operands) == 4, operands


def test_every_module_memo_clears_and_reports():
    memos = module_memos()
    names = {memo.__name__ for memo in memos}
    assert {"_minimal_char", "fkw_character", "euler_phi", "expand_product"} <= names
    for memo in memos:
        memo.cache_clear()
        info = memo.cache_info()
        assert info.hits == info.misses == info.currsize == 0
        assert info.maxsize is None or info.currsize <= info.maxsize


def test_threads_share_a_memo_without_lost_counts():
    import sys
    import threading

    from qserieslab.series import PuiseuxSeries, _highest_order_memo

    @_highest_order_memo
    def cheap(key, order):
        return PuiseuxSeries(1, F(order), ())

    maxsize = cheap.cache_info().maxsize
    calls_per_thread, errors = 400, []

    def worker(seed):
        try:
            for i in range(calls_per_thread):
                cheap((seed * i) % (maxsize + 7), 1 + (i * seed) % 5)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(1, 9)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    info = cheap.cache_info()
    assert info.hits + info.misses == 8 * calls_per_thread
    assert info.currsize <= maxsize


# The growth rule: a request above a held exact result runs the function at
# max(order, 2L), L the largest earlier request for its key.


def order_memos():
    """The module memos keyed by a truncation order: plain functions, where
    the other module memos are lru_caches."""
    return [memo for memo in module_memos() if inspect.isfunction(memo)]


def spy_order_memos(monkeypatch):
    """Put, in every module that names an order memo, a fresh memo over a
    recording copy of its function.  Returns the log, one
    (function name, key, "ask" or "run", order) per request to a memo and per
    run of its function, in the order they happen."""
    log = []

    def spied(memo):
        fn = memo.__wrapped__
        signature = inspect.signature(fn)

        def entry(kind, args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            order = F(bound.arguments.pop("order"))
            return (fn.__name__, tuple(bound.arguments.items()), kind, order)

        @functools.wraps(fn)
        def run(*args, **kwargs):
            log.append(entry("run", args, kwargs))
            return fn(*args, **kwargs)

        fresh = _highest_order_memo(run)

        @functools.wraps(fn)
        def ask(*args, **kwargs):
            log.append(entry("ask", args, kwargs))
            return fresh(*args, **kwargs)

        ask.cache_info, ask.cache_clear = fresh.cache_info, fresh.cache_clear
        return ask

    for memo in order_memos():
        replacement = spied(memo)
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                if value is memo:
                    monkeypatch.setattr(mod, name, replacement)
    return log


def runs_above(log, factor):
    """The runs of the log above factor times the largest request made for
    their key so far."""
    largest, above = {}, []
    for fn, key, kind, order in log:
        if kind == "ask":
            largest[fn, key] = max(order, largest.get((fn, key), order))
        elif order > factor * largest[fn, key]:
            above.append((fn, key, order, largest[fn, key]))
    return above


def exact_stub(calls):
    """An order memo over a series with the term (k + 1)q^k for every whole
    k below the order, which records each order it runs at."""

    @_highest_order_memo
    def stub(order):
        calls.append(F(order))
        return PuiseuxSeries(1, order, [(k, k + 1) for k in range(math.ceil(order))])

    return stub


@pytest.mark.parametrize("name", sorted(MEMOISED))
def test_ascending_ladder_runs_each_key_at_most_twice(name, monkeypatch):
    _, call = MEMOISED[name]
    orders = [F(o) for o in range(100, 201, 10)]
    log = spy_order_memos(monkeypatch)
    clear_all()
    texts = [to_text(call(o)) for o in orders]
    # an order-0 probe of a character asks its product for -(h - c/24) < 1
    runs = Counter((fn, key) for fn, key, kind, order in log if kind == "run" and order >= 1)
    assert runs and max(runs.values()) <= 2, runs
    assert runs_above(log, 2) == []
    for o, text in zip(orders, texts):
        clear_all()
        assert text == to_text(call(o))


@given(st.lists(st.fractions(min_value=0, max_value=60, max_denominator=6), min_size=1, max_size=12))
def test_runs_stay_within_twice_the_largest_request(orders):
    calls = []
    stub = exact_stub(calls)
    largest = F(0)
    for o in orders:
        before = len(calls)
        served = stub(o)
        largest = max(largest, o)
        assert all(run <= 2 * largest for run in calls[before:])
        assert served.order == o
        assert to_text(served) == to_text(exact_stub([]).__wrapped__(o))


def test_growth_is_based_on_the_largest_request_not_the_computed_order():
    calls = []
    stub = exact_stub(calls)
    r, eps = F(40), F(1, 3)
    for o in (r, r + eps, 2 * r + eps):
        assert stub(o).order == o
    assert calls == [r, 2 * r, 2 * r + 2 * eps]  # not 4r, as doubling 2r would give


def test_a_request_that_doubles_the_largest_runs_at_its_own_order():
    calls = []
    stub = exact_stub(calls)
    for o in (0, 7, 20, 40, 100):
        stub(o)
    assert calls == [0, 7, 20, 40, 100]


def test_grown_run_out_of_memory_retries_at_the_request():
    calls = []

    @_highest_order_memo
    def tight(order):
        calls.append(F(order))
        if order > 15:
            raise MemoryError
        return PuiseuxSeries(1, order, [(k, 1) for k in range(math.ceil(order))])

    tight(10)
    assert to_text(tight(12)) == to_text(tight.__wrapped__(12))  # 20 does not fit; 12 does
    assert calls == [10, 20, 12, 12]
    assert tight(11).order == 11 and calls[-1] == 12  # served by the held 12
    with pytest.raises(MemoryError):
        tight(16)  # a request that does not fit still fails, after one retry at 16
    assert calls[-2:] == [24, 16]


def test_a_grown_run_that_certifies_less_is_cut_to_the_request_or_returned_whole():
    def capped_stub(calls):
        @_highest_order_memo
        def capped(order):
            calls.append(F(order))
            o = min(F(order), 30)
            return PuiseuxSeries(1, o, [(k, 1) for k in range(math.ceil(o))])

        return capped

    calls = []
    capped = capped_stub(calls)
    capped(20)
    assert capped(25).order == 25 and calls == [20, 40]  # the run at 40 certified 30
    calls = []
    capped = capped_stub(calls)
    capped(20)
    assert capped(35).order == 30 and calls == [20, 40]  # as a run at 35 would give


TWO_VARIABLE = ("QPI", "WANTED3", "SPECIALIZE-L", "SPECIALIZE-R")
ONE_VARIABLE = [record.id for record in verify.registry() if record.id not in TWO_VARIABLE]
COLD_CHECKS = [(rid, order) for order in (50, 500) for rid in ONE_VARIABLE] + [(rid, 600) for rid in TWO_VARIABLE]


@pytest.mark.parametrize("rid, order", COLD_CHECKS)
def test_a_cold_check_never_grows_a_memo(rid, order, monkeypatch):
    from qserieslab.verify import check

    log = spy_order_memos(monkeypatch)
    clear_all()
    check(rid, order)
    assert runs_above(log, 1) == []


@pytest.mark.parametrize(
    "child",
    ["rr:1", "chi:5,6,1,2", "w:2/5", "chi:2,5,1,1@q^2", "a22:basic"],
)
def test_an_inversion_never_grows_a_memo(child, monkeypatch, capsys):
    from qserieslab import cli
    from qserieslab.series import truncate
    from qserieslab.verify import evaluate, parse_expression

    order = 300
    log = spy_order_memos(monkeypatch)
    clear_all()
    assert cli.main(["expand", f"inv({child})", "--order", str(order)]) == 0
    printed = capsys.readouterr().out
    assert any(kind == "run" for _, _, kind, _ in log)
    assert runs_above(log, 1) == []
    # the same text as the dense recurrence gives from a child with room to spare
    value = evaluate(parse_expression(child), order + 10)
    assert printed == fmt_text(truncate(dense_invert(value), order))


def test_an_inversion_of_a_child_leading_at_or_above_1_stays_within_twice_the_request(monkeypatch, capsys):
    from qserieslab import cli
    from qserieslab.series import truncate
    from qserieslab.verify import evaluate, parse_expression

    order, child = 300, "mono(1,2) * rr:1"
    log = spy_order_memos(monkeypatch)
    clear_all()
    assert cli.main(["expand", f"inv({child})", "--order", str(order)]) == 0
    printed = capsys.readouterr().out
    # the probe at 1 shows no term, so the child is asked for 300 and then 304
    assert runs_above(log, 2) == [] and runs_above(log, 1) != []
    value = evaluate(parse_expression(child), order + 10)
    assert printed == fmt_text(truncate(dense_invert(value), order))


@pytest.mark.parametrize(
    "text, expected",
    [("inv(inv(mono(1,3)))", "D=1 O=50/1\n3/1 1/1\n"), ("inv(inv(mono(1,3)) * mono(1,5))", "D=1 O=50/1\n-2/1 1/1\n")],
)
def test_an_inner_inversion_that_finds_nothing_at_the_probe_defers_to_the_request(text, expected, capsys):
    """The probe at 1 sees mono(1,3) empty, so the inner inversion raises
    there; the outer one asks again at the order requested."""
    from qserieslab import cli

    assert cli.main(["expand", text, "--order", "50"]) == 0
    assert capsys.readouterr().out == expected


def test_threads_growing_one_memo_get_their_own_orders():
    import sys
    import threading

    runs, errors, top = [], [], 20

    @_highest_order_memo
    def stub(key, order):
        runs.append(F(order))
        return PuiseuxSeries(1, order, [(k, key + 1) for k in range(math.ceil(order))])

    def worker(seed):
        try:
            for i in range(300):
                key, o = i % 3, F(1 + (i * seed) % top, 1 + seed % 2)
                served = stub(key, o)
                assert served.order == o and served.exps == tuple(range(math.ceil(o)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(1, 9)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert max(runs) <= 2 * top
