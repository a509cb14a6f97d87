import pytest

from sympdiff import witness
from sympdiff.exprparse import parse_poly
from sympdiff.fields import field_make

from witness_reference import check_witness


@pytest.fixture(scope="session", autouse=True)
def reference_checked_witnesses():
    """Every witness ``witness._verified`` accepts in this process, checked
    again at once by ``witness_reference.check_witness``, so a witness that
    passes ``verify_witness`` but not the reference fails the test that
    built it.  Yields the ``what`` of each witness checked so far."""
    verified, checked = witness._verified, []

    def also_reference(w, pctx, what):
        out = verified(w, pctx, what)
        failures = check_witness(w, pctx.p, pctx.q)
        checked.append(what)
        assert not failures, f"{what} fails the reference checker: {failures}"
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness, "_verified", also_reference)
        yield checked


@pytest.fixture(scope="session")
def F2():
    return field_make("GF(2)")


@pytest.fixture(scope="session")
def F3():
    return field_make("GF(3)")


@pytest.fixture(scope="session")
def F5():
    return field_make("GF(5)")


@pytest.fixture(scope="session")
def Q():
    return field_make("Q")


@pytest.fixture(scope="session")
def F2s():
    return field_make("GF(2)(s)")


@pytest.fixture
def cold():
    """cold(ctx) empties ctx's decide memos (pair contexts, extension
    decisions), so the next call computes afresh and the memos' counters
    start from zero."""

    def clear(ctx):
        for memo in (ctx._pair_memo, ctx._decision_memo):
            if memo is not None:
                memo.cache_clear()

    return clear


@pytest.fixture
def poly():
    """poly(ctx, text) shorthand."""
    return parse_poly
