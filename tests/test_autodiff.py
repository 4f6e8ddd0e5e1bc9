import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from negmtl import autodiff as ad
from negmtl import crf, layers
from negmtl.autodiff import (
    AutodiffError,
    DeterminismError,
    GradCheckReport,
    Tape,
    Tensor,
    backward,
    grad_check,
    no_grad,
    zero_grads,
)
from negmtl.models import ModelParams, negation_loss, sentiment_loss


from oracles import (
    add,
    add_rowvec,
    assert_op_grads,
    concat,
    logsumexp,
    matmul,
    matvec,
    mul,
    neg,
    sigmoid,
    stack_rows,
    sub,
    tanh,
    transpose,
    weighted_sum,
)

RNG = np.random.default_rng(20260819)


# ---------------------------------------------------------------------------
# Tape mechanics


class TestTape:
    def test_no_recording_without_tape(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = tanh(x)
        assert y.node is None
        assert not y.requires_grad
        with pytest.raises(AutodiffError, match="tape"):
            backward(ad.sum_all(y))

    def test_no_grad_suppresses_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            with no_grad():
                tanh(x)
            assert len(tape) == 0
            y = tanh(x)
            assert len(tape) == 1
        assert y.requires_grad

    def test_constants_do_not_record(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            tanh(x)
        assert len(tape) == 0

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            y = tanh(x)
        with pytest.raises(AutodiffError, match="scalar"):
            backward(y)

    def test_repeated_backward_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape():
            loss = ad.sum_all(mul(x, x))
        backward(loss)
        first = x.grad.copy()
        backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * first)
        zero_grads([x])
        backward(loss)
        np.testing.assert_array_equal(x.grad, first)

    def test_backward_is_bitwise_reproducible(self):
        x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        def run():
            zero_grads([x])
            with Tape():
                h = tanh(matmul(x, Tensor(RNG2.normal(size=(3, 2)))))
                backward(weighted_sum(h))
            return x.grad.copy()
        RNG2 = np.random.default_rng(5)
        g1 = run()
        RNG2 = np.random.default_rng(5)
        g2 = run()
        assert g1.tobytes() == g2.tobytes()

    def test_shared_subexpression_fans_in(self):
        # y = x*x + x  =>  dy/dx = 2x + 1
        x = Tensor([2.0], requires_grad=True)
        with Tape():
            loss = ad.sum_all(add(mul(x, x), x))
        backward(loss)
        np.testing.assert_allclose(x.grad, [5.0])

    def test_records_names_the_calls_make_output_records(self):
        x, c = Tensor([1.0], requires_grad=True), Tensor([2.0])
        for a, b in [(x, x), (c, c), (c, x)]:
            expected = a.requires_grad or b.requires_grad
            assert not ad.records((a, b))  # no tape
            with Tape() as tape:
                assert ad.records((a, b)) is expected
                mul(a, b)
                assert len(tape) == int(expected)
                with no_grad():
                    assert not ad.records((a, b))

    def test_nested_tapes_record_innermost(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as outer:
            with Tape() as inner:
                y = tanh(x)
            assert len(inner) == 1
            assert len(outer) == 0
            assert y.node is not None


# ---------------------------------------------------------------------------
# Graph lifetime: a finished graph is freed by reference counting


def _param(*shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


def _model(negation: bool) -> ModelParams:
    return ModelParams.init(7, 4, 3, np.random.default_rng(0), with_negation_head=negation)


# each builds, inside a tape, the op's output and a scalar loss over it
GRAPHS = {
    "add": lambda: add(_param(3), _param(3)),
    "sub": lambda: sub(_param(3), _param(3)),
    "mul": lambda: mul(_param(3), _param(3)),
    "tanh": lambda: tanh(_param(3)),
    "concat": lambda: concat(_param(2, 3), _param(1, 3)),
    "stack_rows": lambda: stack_rows([_param(3), _param(3)]),
    "rows": lambda: ad.rows(_param(5, 3), [4, 0, 4]),
    "masked_rows": lambda: ad.rows(_param(5, 3), [4, 0, 4], RNG.random((3, 3))),
    "sum_all": lambda: ad.sum_all(_param(2, 3)),
    "max_over_time": lambda: ad.max_over_time(_param(4, 3)),
    "softmax_cross_entropy": lambda: ad.softmax_cross_entropy(_param(3), 1),
    "bilstm": lambda: layers.bilstm(
        layers.LstmParams.init(3, 2, np.random.default_rng(1)),
        layers.LstmParams.init(3, 2, np.random.default_rng(2)),
        _param(4, 3),
    ),
    "affine": lambda: layers.affine(
        layers.Linear.init(3, 2, np.random.default_rng(1)), _param(4, 3)
    ),
    "crf_nll": lambda: crf.crf_nll(
        crf.CrfParams.init(3, np.random.default_rng(1)), _param(4, 3), [0, 2, 1, 1]
    ),
    "sentiment_loss": lambda: sentiment_loss(
        _model(False), [[1, 2, 3], [4, 5]], 1, train=True, dropout_p=0.5,
        rng=np.random.default_rng(2),
    ),
    "negation_loss": lambda: negation_loss(
        _model(True), [1, 2, 3, 4], [0, 1, 2, 0], train=True, dropout_p=0.5,
        rng=np.random.default_rng(2),
    ),
}


@pytest.mark.parametrize("op", sorted(GRAPHS))
def test_dropped_loss_frees_its_graph_without_the_collector(op):
    gc.collect()
    gc.disable()
    try:
        with Tape() as tape:
            out = GRAPHS[op]()
            loss = out if out.data.ndim == 0 else ad.sum_all(out)
        assert len(tape) >= 1
        backward(loss)
        dead = [weakref.ref(out.data), weakref.ref(loss.data)]
        del out, loss
        assert all(ref() is None for ref in dead)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Analytic gradients at hand-computed points


class TestAnalytic:
    def test_mul_grad(self):
        x = Tensor([2.0], requires_grad=True)
        y = Tensor([5.0], requires_grad=True)
        with Tape():
            backward(ad.sum_all(mul(x, y)))
        np.testing.assert_allclose(x.grad, [5.0])
        np.testing.assert_allclose(y.grad, [2.0])

    def test_tanh_grad_at_zero_is_one(self):
        x = Tensor([0.0], requires_grad=True)
        with Tape():
            backward(ad.sum_all(tanh(x)))
        np.testing.assert_allclose(x.grad, [1.0])

    def test_sigmoid_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        with Tape():
            out = sigmoid(x)
            backward(ad.sum_all(out))
        np.testing.assert_allclose(out.data, [0.5])
        np.testing.assert_allclose(x.grad, [0.25])

    def test_sigmoid_extreme_inputs_saturate_cleanly(self):
        x = Tensor([-1000.0, 1000.0])
        with np.errstate(all="raise"):
            out = sigmoid(x)
        np.testing.assert_allclose(out.data, [0.0, 1.0])

    def test_logsumexp_ln4(self):
        x = Tensor([0.0, math.log(3.0)], requires_grad=True)
        with Tape():
            out = logsumexp(x)
            backward(out)
        np.testing.assert_allclose(out.data, math.log(4.0))
        np.testing.assert_allclose(x.grad, [0.25, 0.75])

    def test_logsumexp_handles_large_magnitudes(self):
        x = Tensor([1000.0, 1000.0])
        with np.errstate(all="raise"):
            out = logsumexp(x)
        np.testing.assert_allclose(out.data, 1000.0 + math.log(2.0))

    def test_cross_entropy_uniform_logits_is_ln2(self):
        x = Tensor([0.0, 0.0], requires_grad=True)
        with Tape():
            loss = ad.softmax_cross_entropy(x, 1)
            backward(loss)
        np.testing.assert_allclose(loss.data, math.log(2.0))
        np.testing.assert_allclose(x.grad, [0.5, -0.5])

    def test_cross_entropy_finite_at_huge_logits(self):
        x = Tensor([1e6, -1e6, 0.0])
        with np.errstate(over="raise"):
            loss = ad.softmax_cross_entropy(x, 1)
        assert np.isfinite(loss.data)
        np.testing.assert_allclose(loss.item(), 2e6)

    def test_cross_entropy_rejects_bad_gold(self):
        x = Tensor([0.0, 0.0])
        with pytest.raises(AutodiffError, match="gold"):
            ad.softmax_cross_entropy(x, 2)

    def test_max_over_time_tie_goes_to_first_row(self):
        h = Tensor(np.array([[1.0, 5.0], [1.0, 2.0]]), requires_grad=True)
        with Tape():
            backward(ad.sum_all(ad.max_over_time(h)))
        np.testing.assert_array_equal(h.grad, [[1.0, 1.0], [0.0, 0.0]])

    def test_segment_max_is_each_segments_max_over_time(self):
        h = Tensor(RNG.normal(size=(7, 4)), requires_grad=True)
        g = RNG.normal(size=(3, 4))
        with Tape():
            pooled = ad.max_over_time(h, [2, 1, 4])
            backward(ad.sum_all(mul(pooled, Tensor(g))))
        rows = [ad.max_over_time(Tensor(h.data[a:b])).data for a, b in [(0, 2), (2, 3), (3, 7)]]
        assert pooled.data.tobytes() == np.stack(rows).tobytes()
        want = np.zeros((7, 4))
        for k, (a, b) in enumerate([(0, 2), (2, 3), (3, 7)]):
            want[a + h.data[a:b].argmax(axis=0), np.arange(4)] = g[k]
        np.testing.assert_array_equal(h.grad, want)

    def test_one_segment_keeps_the_bits_and_tie_rule(self):
        h = Tensor(np.array([[1.0, 5.0, -0.0], [1.0, 2.0, 0.0], [0.5, 5.0, 0.0]]), requires_grad=True)
        g = np.array([0.25, -3.0, 7.0])
        grads = []
        for lengths in (None, [3]):
            h.grad = None
            with Tape():
                pooled = ad.max_over_time(h, lengths)
                backward(ad.sum_all(mul(pooled, Tensor(g.reshape(pooled.data.shape)))))
            assert pooled.data.reshape(-1).tobytes() == np.array([1.0, 5.0, -0.0]).tobytes()
            grads.append(h.grad)
        np.testing.assert_array_equal(grads[0], [[0.25, -3.0, 7.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert grads[0].tobytes() == grads[1].tobytes()

    @pytest.mark.parametrize("lengths", [[], [2, 2], [3, 0], [-1, 4]])
    def test_segment_max_rejects_lengths_that_do_not_split_the_rows(self, lengths):
        with pytest.raises(AutodiffError, match=r"max_over_time: lengths .* do not split 3 rows"):
            ad.max_over_time(Tensor(np.ones((3, 2))), lengths)


# ---------------------------------------------------------------------------
# Finite-difference verification of every primitive


class TestPrimitiveGradients:
    def test_add_sub_neg(self):
        assert_op_grads(
            lambda t: weighted_sum(sub(add(t["a"], t["b"]), neg(t["c"]))),
            {"a": RNG.normal(size=(3, 2)), "b": RNG.normal(size=(3, 2)), "c": RNG.normal(size=(3, 2))},
        )

    def test_scalar_broadcast(self):
        # elementwise ops need equal shapes: a 0-d tensor does not broadcast
        a, s = Tensor(RNG.normal(size=(4,))), Tensor(0.7)
        for op in (add, sub, mul):
            for x, y in ((a, s), (s, a)):
                with pytest.raises(AutodiffError, match=r"\(4,\) and \(\)|\(\) and \(4,\)"):
                    op(x, y)

    def test_tanh_sigmoid_chain(self):
        assert_op_grads(
            lambda t: weighted_sum(sigmoid(tanh(t["x"]))),
            {"x": RNG.normal(size=(5,))},
        )

    def test_matmul(self):
        assert_op_grads(
            lambda t: weighted_sum(matmul(t["a"], t["b"])),
            {"a": RNG.normal(size=(3, 4)), "b": RNG.normal(size=(4, 2))},
        )

    def test_matvec(self):
        assert_op_grads(
            lambda t: weighted_sum(matvec(t["w"], t["x"])),
            {"w": RNG.normal(size=(3, 4)), "x": RNG.normal(size=(4,))},
        )

    def test_add_rowvec(self):
        assert_op_grads(
            lambda t: weighted_sum(add_rowvec(t["m"], t["v"])),
            {"m": RNG.normal(size=(4, 3)), "v": RNG.normal(size=(3,))},
        )

    def test_transpose(self):
        assert_op_grads(
            lambda t: weighted_sum(matmul(t["a"], transpose(t["a"]))),
            {"a": RNG.normal(size=(2, 3))},
        )

    def test_concat_axis0(self):
        assert_op_grads(
            lambda t: weighted_sum(concat(t["a"], t["b"])),
            {"a": RNG.normal(size=(6,)), "b": RNG.normal(size=(2,))},
        )

    def test_concat_axis1(self):
        assert_op_grads(
            lambda t: weighted_sum(concat(t["a"], t["b"], axis=1)),
            {"a": RNG.normal(size=(2, 3)), "b": RNG.normal(size=(2, 2))},
        )

    def test_stack_rows(self):
        assert_op_grads(
            lambda t: weighted_sum(stack_rows([t["a"], t["b"], t["a"]])),
            {"a": RNG.normal(size=(3,)), "b": RNG.normal(size=(3,))},
        )

    def test_rows_with_duplicates(self):
        assert_op_grads(
            lambda t: weighted_sum(ad.rows(t["m"], [2, 0, 2])),
            {"m": RNG.normal(size=(3, 4))},
        )

    def test_masked_rows_with_duplicates(self):
        mask = np.where(RNG.random((4, 3)) < 0.3, 0.0, 1.0 / 0.7)
        assert_op_grads(
            lambda t: weighted_sum(ad.rows(t["m"], [2, 0, 2, 2], mask)),
            {"m": RNG.normal(size=(3, 3))},
        )

    def test_rows_of_non_leaf(self):
        # the row-sparse gradient has only a leaf's grad to go to
        m = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        with Tape():
            h = tanh(m)
            with pytest.raises(AutodiffError, match="rows: gathers only from a leaf"):
                ad.rows(h, [2, 0, 2])

    def test_rows_mixed_with_dense_gradient(self):
        # one leaf reached by rows and by a dense op
        assert_op_grads(
            lambda t: weighted_sum(add(t["m"], ad.rows(t["m"], [2, 2, 2])), seed=4),
            {"m": RNG.normal(size=(3, 4))},
        )

    def test_logsumexp_axes(self):
        for axis in (0, 1):
            assert_op_grads(
                lambda t, axis=axis: weighted_sum(logsumexp(t["x"], axis=axis)),
                {"x": RNG.normal(size=(3, 4))},
            )
        assert_op_grads(lambda t: logsumexp(t["x"]), {"x": RNG.normal(size=(3, 4))})

    def test_max_over_time(self):
        # distinct entries keep the max smooth under small perturbation
        x = np.arange(12.0).reshape(4, 3)
        RNG.shuffle(x.reshape(-1))
        assert_op_grads(lambda t: weighted_sum(ad.max_over_time(t["x"])), {"x": x})

    def test_segment_max_over_time(self):
        x = np.arange(21.0).reshape(7, 3)
        RNG.shuffle(x.reshape(-1))
        assert_op_grads(lambda t: weighted_sum(ad.max_over_time(t["x"], [3, 1, 3])), {"x": x})

    def test_softmax_cross_entropy(self):
        assert_op_grads(
            lambda t: ad.softmax_cross_entropy(t["x"], 2),
            {"x": RNG.normal(size=(5,))},
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_random_compositions(self, seed):
        rng = np.random.default_rng(seed)
        def build(t):
            h = tanh(add_rowvec(matmul(t["x"], t["w"]), t["b"]))
            pooled = ad.max_over_time(mul(h, h))
            return ad.softmax_cross_entropy(pooled, 1)
        # spread values to avoid near-ties at the max
        x = rng.permutation(np.linspace(-2, 2, 12)).reshape(4, 3)
        assert_op_grads(
            build,
            {"x": x, "w": rng.normal(size=(3, 3)), "b": rng.normal(size=(3,))},
            tol=1e-5,
        )


# ---------------------------------------------------------------------------
# Shape errors


class TestShapeErrors:
    def test_mismatched_elementwise(self):
        with pytest.raises(AutodiffError, match="shapes"):
            add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_matmul_requires_2d(self):
        with pytest.raises(AutodiffError, match="matmul"):
            matmul(Tensor([1.0]), Tensor([[1.0]]))

    def test_matmul_reports_both_shapes(self):
        with pytest.raises(AutodiffError, match=r"\(2, 3\) @ \(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_rows_out_of_range(self):
        with pytest.raises(AutodiffError, match="out of range"):
            ad.rows(Tensor(np.ones((2, 2))), [0, 2])

    def test_rows_mask_must_match_the_gather(self):
        with pytest.raises(AutodiffError, match=r"rows: mask \(3, 2\) does not match the gathered \(2, 2\)"):
            ad.rows(Tensor(np.ones((4, 2))), [0, 3], np.ones((3, 2)))

    def test_stack_rows_rejects_ragged(self):
        with pytest.raises(AutodiffError, match="stack_rows"):
            stack_rows([Tensor([1.0, 2.0]), Tensor([1.0])])


# ---------------------------------------------------------------------------
# grad_check itself


class TestGradCheck:
    def test_passes_on_correct_graph(self):
        x = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        w = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        def f():
            return weighted_sum(tanh(matmul(x, w)))
        report = grad_check(f, {"x": x, "w": w})
        assert isinstance(report, GradCheckReport)
        assert report.passed, str(report)
        assert report.n_checked == 10
        assert report.max_rel_err < 1e-6

    def test_detects_wrong_backward(self):
        # negative control: a primitive with a deliberately wrong vjp
        x = Tensor([1.5, -0.5], requires_grad=True)
        def bad_square(t):
            return ad._make_output(t.data**2, (t,), lambda g: (g,))
        report = grad_check(lambda: ad.sum_all(bad_square(x)), {"x": x})
        assert not report.passed
        assert report.max_rel_err > 1e-2
        assert report.worst.startswith("x[")

    def test_detects_nondeterminism(self):
        x = Tensor([1.0], requires_grad=True)
        counter = {"n": 0}
        def f():
            counter["n"] += 1
            return ad.sum_all(mul(x, Tensor([float(counter["n"])])))
        with pytest.raises(DeterminismError):
            grad_check(f, {"x": x})

    def test_rejects_non_grad_parameter(self):
        x = Tensor([1.0])
        with pytest.raises(AutodiffError, match="requires_grad"):
            grad_check(lambda: ad.sum_all(x), {"x": x})

    def test_restores_parameter_values(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        before = x.data.copy()
        grad_check(lambda: ad.sum_all(mul(x, x)), {"x": x})
        np.testing.assert_array_equal(x.data, before)
