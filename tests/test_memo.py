"""The order-keyed memo: lower-order hits equal fresh calls, the memo stays
bounded, and every module-level memo can be cleared and read without
arguments."""

import importlib
import pkgutil
from fractions import Fraction as F

import pytest

import qserieslab
from qserieslab import CharLabel, ProductFactor, named_series, to_text
from qserieslab import characters, lattice, products, verify

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
