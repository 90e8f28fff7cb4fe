"""Autograd correctness: numerical gradient checks and op semantics."""

import numpy as np
import pytest

from repro.errors import NNError
from repro.nn import Segments, Tensor, concat, no_grad, stack_max


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn wrt array x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def check_gradient(make_loss, shape, seed=0, tol=1e-5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    t = Tensor(x.copy(), requires_grad=True)
    loss = make_loss(t)
    loss.backward()
    analytic = t.grad

    def scalar(arr):
        return make_loss(Tensor(arr)).item()

    numeric = numerical_grad(scalar, x.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


class TestElementwiseGradients:
    def test_add_mul(self):
        check_gradient(lambda t: ((t * 3.0 + 1.5) * t).sum(), (4, 3))

    def test_broadcast_add(self):
        rng = np.random.default_rng(1)
        other = rng.normal(size=(1, 3))
        check_gradient(lambda t: (t + Tensor(other)).sum(), (4, 3))

    def test_division(self):
        check_gradient(lambda t: (1.0 / (t * t + 2.0)).sum(), (5,))

    def test_exp_log(self):
        check_gradient(lambda t: ((t * t + 1.0).log() + t.exp()).sum(), (6,))

    def test_tanh_sigmoid(self):
        check_gradient(lambda t: (t.tanh() * t.sigmoid()).sum(), (3, 3))

    def test_relu(self):
        check_gradient(lambda t: (t.relu() * 2.0).sum(), (10,), seed=3)

    def test_leaky_relu(self):
        check_gradient(lambda t: t.leaky_relu(0.2).sum(), (10,), seed=4)

    def test_elu(self):
        check_gradient(lambda t: t.elu().sum(), (10,), seed=5)

    def test_pow(self):
        check_gradient(lambda t: (t * t).pow(1.5).sum(), (4,), seed=6)


class TestMatmulAndShape:
    def test_matmul_left(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 5))
        check_gradient(lambda t: (t @ Tensor(w)).sum(), (4, 3))

    def test_matmul_right(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 3))

        def loss(t):
            return (Tensor(a) @ t).sum()

        check_gradient(loss, (3, 5))

    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(6) * 2.0).sum(), (2, 3))

    def test_transpose(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(4, 2))
        check_gradient(lambda t: (t.T @ Tensor(w)).sum(), (4, 3))

    def test_concat(self):
        rng = np.random.default_rng(8)
        other = Tensor(rng.normal(size=(4, 2)))
        weights = rng.normal(size=(4, 5))
        check_gradient(
            lambda t: (concat([t, other], axis=1) * Tensor(weights)).sum(), (4, 3)
        )

    def test_mean_axis(self):
        check_gradient(lambda t: t.mean(axis=0).sum(), (5, 3))

    def test_sum_keepdims(self):
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), (4, 3))


class TestGatherSegment:
    def test_gather_rows(self):
        idx = np.array([0, 2, 2, 1])
        check_gradient(lambda t: (t.gather_rows(idx) * 1.5).sum(), (3, 4))

    def test_segment_sum(self):
        seg = Segments(np.array([0, 0, 1, 3, 3, 3]), num_segments=4)
        weights = np.random.default_rng(9).normal(size=(4, 2))
        check_gradient(
            lambda t: (t.segment_sum(seg) * Tensor(weights)).sum(), (6, 2)
        )

    def test_segment_sum_values(self):
        seg = Segments(np.array([0, 0, 2]), num_segments=3)
        data = np.array([[1.0], [2.0], [5.0]])
        out = Tensor(data).segment_sum(seg)
        np.testing.assert_allclose(out.data, [[3.0], [0.0], [5.0]])

    def test_segment_softmax_sums_to_one(self):
        seg = Segments(np.array([0, 0, 0, 1, 1]), num_segments=2)
        t = Tensor(np.random.default_rng(0).normal(size=(5, 1)))
        att = t.segment_softmax(seg)
        sums = att.segment_sum(seg)
        np.testing.assert_allclose(sums.data, np.ones((2, 1)), atol=1e-9)

    def test_segment_softmax_gradient(self):
        seg = Segments(np.array([0, 0, 0, 1, 1]), num_segments=2)
        weights = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])

        def loss(t):
            return (t.segment_softmax(seg) * Tensor(weights)).sum()

        check_gradient(loss, (5, 1), seed=11)

    def test_softmax_gradient(self):
        weights = np.random.default_rng(12).normal(size=(3, 4))

        def loss(t):
            return (t.softmax(axis=-1) * Tensor(weights)).sum()

        check_gradient(loss, (3, 4), seed=12)

    def test_unsorted_segments_rejected(self):
        with pytest.raises(NNError):
            Segments(np.array([1, 0]), num_segments=2)

    def test_segment_id_out_of_range_rejected(self):
        with pytest.raises(NNError):
            Segments(np.array([0, 5]), num_segments=3)


class TestStackMax:
    def test_values(self):
        a = Tensor([[1.0, 5.0]])
        b = Tensor([[3.0, 2.0]])
        out = stack_max([a, b])
        np.testing.assert_allclose(out.data, [[3.0, 5.0]])

    def test_gradient_routes_to_winner(self):
        a = Tensor([[1.0, 5.0]], requires_grad=True)
        b = Tensor([[3.0, 2.0]], requires_grad=True)
        stack_max([a, b]).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.0, 1.0]])
        np.testing.assert_allclose(b.grad, [[1.0, 0.0]])

    def test_gradcheck(self):
        # Distinct seeds: max is not differentiable at ties.
        other = Tensor(np.random.default_rng(99).normal(size=(3, 4)))
        check_gradient(lambda t: stack_max([t, other]).sum(), (3, 4), seed=13)


class TestAutogradMechanics:
    def test_grad_accumulates_over_reuse(self):
        t = Tensor([2.0], requires_grad=True)
        (t * t + t).backward()  # d/dt = 2t + 1 = 5
        np.testing.assert_allclose(t.grad, [5.0])

    def test_no_grad_context(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad
        assert out._parents == ()

    def test_detach(self):
        t = Tensor([1.0], requires_grad=True)
        assert not t.detach().requires_grad

    def test_backward_through_diamond(self):
        t = Tensor([3.0], requires_grad=True)
        a = t * 2.0
        b = t * 4.0
        (a * b).backward()  # d/dt (8 t^2) = 16 t = 48
        np.testing.assert_allclose(t.grad, [48.0])

    def test_backward_keeps_leaf_grads_only(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        h = t * 3.0
        out = (h * h).sum()
        out.backward()  # d/dt (9 t^2) = 18 t
        np.testing.assert_allclose(t.grad, [18.0, 36.0])
        assert h.grad is None and out.grad is None


class TestNoGradThreadIsolation:
    """``no_grad`` is per-thread: a serving thread running inference must
    not zero out a concurrently-training thread's graph (the active
    learning loop fine-tunes while the same process serves requests)."""

    def test_no_grad_does_not_leak_across_threads(self):
        import threading

        entered = threading.Event()
        release = threading.Event()

        def hold_no_grad():
            with no_grad():
                entered.set()
                release.wait(5.0)

        holder = threading.Thread(target=hold_no_grad)
        holder.start()
        try:
            assert entered.wait(5.0)
            # While the other thread is inside no_grad, this thread
            # still records the graph.
            t = Tensor([2.0], requires_grad=True)
            out = t * 3.0
            assert out.requires_grad
            assert out._parents != ()
            out.backward()
            np.testing.assert_allclose(t.grad, [3.0])
        finally:
            release.set()
            holder.join()

    def test_no_grad_still_disables_in_its_own_thread(self):
        results = {}

        def infer():
            with no_grad():
                t = Tensor([1.0], requires_grad=True)
                results["requires_grad"] = (t * 2.0).requires_grad

        import threading

        worker = threading.Thread(target=infer)
        worker.start()
        worker.join()
        assert results["requires_grad"] is False
