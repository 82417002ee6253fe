import pytest

from diffumamba import tensor as T


@pytest.fixture
def f64_mode():
    """Run a test with float64 defaults (tight gradient tolerances)."""
    T.set_default_dtype("f64")
    yield
    T.set_default_dtype("f32")


@pytest.fixture(autouse=True)
def _reset_dtype():
    yield
    T.set_default_dtype("f32")


@pytest.fixture
def rng():
    return T.Rng(1234)


@pytest.fixture
def frozen_grads(monkeypatch):
    """Store every grad as a read-only view: a backward that writes into
    the adjoint it receives, or a reader that writes into a grad, then
    raises instead of silently corrupting a gradient that shares the
    buffer."""
    accumulate = T.Tensor._accumulate

    def frozen(self, g):
        accumulate(self, g)
        view = self.grad.view()
        view.flags.writeable = False
        self.grad = view

    monkeypatch.setattr(T.Tensor, "_accumulate", frozen)
