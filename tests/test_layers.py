import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from negmtl import autodiff as ad
from negmtl.autodiff import Tape, Tensor, backward
from negmtl.layers import (
    EmbeddingTable,
    Linear,
    LstmParams,
    _packing,
    affine,
    bilstm,
    xavier_uniform,
)
from negmtl.models import ModelError, dropout_mask
from oracles import (
    add,
    assert_op_grads,
    bilstm_per_sentence,
    bilstm_reference,
    bilstm_sequence,
    dropout,
    mul,
    weighted_sum,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestInit:
    def test_xavier_bounds(self):
        w = xavier_uniform((8, 2), rng())
        a = np.sqrt(6.0 / 10.0)
        assert w.shape == (8, 2)
        assert np.all(np.abs(w) <= a)
        assert np.abs(w).max() > 0.5 * a  # actually fills the range

    def test_embedding_pad_row_is_zero(self):
        table = EmbeddingTable.init(5, 3, rng())
        np.testing.assert_array_equal(table.weights.data[0], 0.0)
        assert np.all(np.abs(table.weights.data[1:]) <= 0.1)
        assert np.any(table.weights.data[1:] != 0.0)

    def test_lstm_shapes_and_forget_bias(self):
        p = LstmParams.init(3, 4, rng())
        assert p.w.data.shape == (16, 3)
        assert p.u.data.shape == (16, 4)
        assert p.b.data.shape == (16,)
        np.testing.assert_array_equal(p.b.data[4:8], 1.0)
        np.testing.assert_array_equal(p.b.data[:4], 0.0)
        np.testing.assert_array_equal(p.b.data[8:], 0.0)
        assert p.hidden_dim == 4

    def test_same_seed_same_params(self):
        a = LstmParams.init(3, 4, rng(42))
        b = LstmParams.init(3, 4, rng(42))
        assert a.w.data.tobytes() == b.w.data.tobytes()
        assert a.u.data.tobytes() == b.u.data.tobytes()

    def test_linear_zero_bias(self):
        p = Linear.init(4, 2, rng())
        assert p.w.data.shape == (2, 4)
        np.testing.assert_array_equal(p.b.data, 0.0)


class TestEmbedding:
    def test_lookup_gathers_rows(self):
        table = EmbeddingTable.init(5, 3, rng())
        out = table.lookup([2, 4, 2])
        np.testing.assert_array_equal(out.data, table.weights.data[[2, 4, 2]])

    def test_pad_id_rejected(self):
        # sequences are packed, never padded: id 0 is out of range
        table = EmbeddingTable.init(5, 3, rng())
        for ids in ([0], [2, 0, 4]):
            with pytest.raises(ad.AutodiffError, match=r"^rows: index out of range for 5 rows$"):
                table.lookup(ids)

    def test_out_of_range_id_rejected(self):
        table = EmbeddingTable.init(5, 3, rng())
        with pytest.raises(Exception, match="out of range"):
            table.lookup([5])

    def test_gradient_touches_only_looked_up_rows(self):
        table = EmbeddingTable.init(5, 3, rng())
        with Tape():
            backward(ad.sum_all(table.lookup([1, 3])))
        g = table.weights.grad
        np.testing.assert_array_equal(g[[1, 3]], 1.0)
        np.testing.assert_array_equal(g[[0, 2, 4]], 0.0)

    def test_duplicate_ids_accumulate_gradient(self):
        table = EmbeddingTable.init(5, 3, rng())
        with Tape():
            out = table.lookup([2, 2])
            backward(ad.sum_all(out))
        g = table.weights.grad
        np.testing.assert_array_equal(g[2], 2.0)
        np.testing.assert_array_equal(g[1], 0.0)


def sig(v):
    return 1.0 / (1.0 + np.exp(-v))


def bilstm_leaves(r, t_len, input_dim, hidden):
    leaves = {"x": r.normal(size=(t_len, input_dim))}
    for side in ("f", "b"):
        leaves["w" + side] = r.normal(size=(4 * hidden, input_dim)) * 0.6
        leaves["u" + side] = r.normal(size=(4 * hidden, hidden)) * 0.6
        leaves["b" + side] = r.normal(size=(4 * hidden,)) * 0.6
    return leaves


def assert_matches_reference(leaves, weights) -> dict:
    """``bilstm`` against the per-step reference on the loss
    weighted_sum(out * weights): equal outputs and leaf gradients within
    1e-10.  Returns the fused gradients."""
    results = []
    for run in (bilstm, bilstm_reference):
        t = {k: Tensor(v.copy(), requires_grad=True) for k, v in leaves.items()}
        with Tape():
            out = run(LstmParams(t["wf"], t["uf"], t["bf"]), LstmParams(t["wb"], t["ub"], t["bb"]), t["x"])
            backward(weighted_sum(mul(out, Tensor(weights))))
        results.append((out.data, {k: v.grad for k, v in t.items()}))
    (fused, fused_grads), (ref, ref_grads) = results
    np.testing.assert_allclose(fused, ref, rtol=1e-12, atol=1e-12)
    for name in leaves:
        np.testing.assert_allclose(
            fused_grads[name], ref_grads[name], rtol=1e-10, atol=1e-12, err_msg=name
        )
    return fused_grads


class TestLstm:
    """One direction of ``bilstm``: each half of its output is checked
    against a direct formula or the per-step reference."""

    def test_step_shapes(self):
        p = LstmParams.init(3, 4, rng())
        h = bilstm(p, p, Tensor(np.ones((1, 3))))
        assert h.data.shape == (1, 8)
        assert np.all(np.abs(h.data) < 1.0)  # tanh-squashed
        assert bilstm(p, p, Tensor(np.ones((5, 3)))).data.shape == (5, 8)

    def test_step_matches_direct_formula(self):
        # two steps: the second starts from the nonzero state of the first
        p = LstmParams.init(2, 2, rng(3))
        x = np.array([[0.3, -0.7], [-1.1, 0.4]])
        h = bilstm(p, LstmParams.init(2, 2, rng(4)), Tensor(x))

        h_prev = c_prev = np.zeros(2)
        for t in range(2):
            z = p.w.data @ x[t] + p.u.data @ h_prev + p.b.data
            i, f, g, o = z[0:2], z[2:4], z[4:6], z[6:8]
            c_prev = sig(f) * c_prev + sig(i) * np.tanh(g)
            h_prev = sig(o) * np.tanh(c_prev)
            np.testing.assert_allclose(h.data[t, :2], h_prev, rtol=1e-12)

    def test_all_zero_parameters_keep_zero_state(self):
        zero = lambda *shape: Tensor(np.zeros(shape), requires_grad=True)
        p = LstmParams(zero(8, 3), zero(8, 2), zero(8))
        h = bilstm(p, p, Tensor(np.ones((4, 3))))
        np.testing.assert_array_equal(h.data, 0.0)

    def test_saturated_gates_carry_cell_state(self):
        # the first token opens the input gate, every later one shuts it;
        # forget and output gates are pinned open, so h = tanh(c) repeats
        w = np.zeros((8, 1))
        w[0:2, 0] = 100.0  # input gate -> 1 for x = 1, 0 for x = -1
        w[4:6, 0] = [0.5, -0.8]  # cell candidate
        b = np.zeros(8)
        b[2:4] = 100.0  # forget gate -> 1
        b[6:8] = 100.0  # output gate -> 1
        p = LstmParams(Tensor(w), Tensor(np.zeros((8, 2))), Tensor(b))
        h = bilstm(p, p, Tensor(np.array([[1.0], [-1.0], [-1.0], [-1.0]]))).data
        np.testing.assert_array_equal(h[0, :2], np.tanh(np.tanh([0.5, -0.8])))
        for t in range(1, 4):
            np.testing.assert_array_equal(h[t, :2], h[0, :2])
        # the reverse direction meets the opening token last
        np.testing.assert_array_equal(h[1:, 2:], 0.0)
        np.testing.assert_array_equal(h[0, 2:], h[0, :2])

    def test_step_gradients(self):
        # both directions share one parameter set, so each weight
        # gradient sums the two directions' contributions
        r = rng(1)
        arrays = {
            "w": r.normal(size=(8, 3)) * 0.5,
            "u": r.normal(size=(8, 2)) * 0.5,
            "b": r.normal(size=(8,)) * 0.5,
            "x": r.normal(size=(4, 3)),
        }

        def build(t):
            p = LstmParams(t["w"], t["u"], t["b"])
            return weighted_sum(bilstm(p, p, t["x"]))

        assert_op_grads(build, arrays, tol=1e-5)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_step_reference(self, reverse, seed):
        """The loss reads one direction's half of the output (``reverse``
        picks the backward one), so each direction's values and gradients
        meet the per-step reference on their own; the other direction's
        weights get exact zeros on both sides."""
        r = rng(seed)
        t_len = 1 if seed == 0 else int(r.integers(2, 7))
        input_dim, hidden = (int(n) for n in r.integers(1, 6, size=2))
        half = np.zeros((t_len, 2 * hidden))
        half[:, slice(hidden, None) if reverse else slice(None, hidden)] = 1.0
        grads = assert_matches_reference(bilstm_leaves(r, t_len, input_dim, hidden), half)
        for name in (("wf", "uf", "bf") if reverse else ("wb", "ub", "bb")):
            np.testing.assert_array_equal(grads[name], 0.0)

    def test_one_tape_node_per_layer(self):
        p = LstmParams.init(2, 3, rng(5))
        inputs = Tensor(rng(6).normal(size=(6, 2)), requires_grad=True)
        with Tape() as tape:
            bilstm(p, p, inputs)
            assert len(tape) == 1  # both directions, one node
            with ad.no_grad():
                bilstm(p, p, inputs)
            assert len(tape) == 1

    def test_rejects_mismatched_input_width(self):
        p = LstmParams.init(3, 2, rng())
        with pytest.raises(ad.AutodiffError, match=r"bilstm: inputs \(4, 2\)"):
            bilstm(p, p, Tensor(np.ones((4, 2))))
        with pytest.raises(ad.AutodiffError, match=r"bilstm: inputs \(4, 3\) do not match w \(8, 2\)"):
            bilstm(p, LstmParams.init(2, 2, rng()), Tensor(np.ones((4, 3))))

    def test_run_preserves_input_order(self):
        p = LstmParams.init(2, 3, rng(5))
        inputs = Tensor(rng(6).normal(size=(4, 2)))
        fwd = bilstm(p, p, inputs)
        assert fwd.data.shape == (4, 6)
        # position 0 of the forward pass sees only token 0
        single = bilstm(p, p, ad.rows(inputs, [0]))
        np.testing.assert_allclose(fwd.data[0, :3], single.data[0, :3])

    def test_run_reverse_positions_align_with_input(self):
        p = LstmParams.init(2, 3, rng(5))
        inputs = Tensor(rng(6).normal(size=(4, 2)))
        bwd = bilstm(p, p, inputs)
        # last position of the reverse pass sees only the last token
        single = bilstm(p, p, ad.rows(inputs, [3]))
        np.testing.assert_allclose(bwd.data[3, 3:], single.data[0, 3:])


class TestBilstm:
    def test_output_shape(self):
        f = LstmParams.init(3, 2, rng(1))
        b = LstmParams.init(3, 2, rng(2))
        out = bilstm(f, b, Tensor(rng(3).normal(size=(5, 3))))
        assert out.data.shape == (5, 4)

    def test_first_position_sees_last_token(self):
        f = LstmParams.init(2, 2, rng(1))
        b = LstmParams.init(2, 2, rng(2))
        x = rng(3).normal(size=(4, 2))
        base = bilstm(f, b, Tensor(x)).data.copy()
        x2 = x.copy()
        x2[-1] += 1.0
        moved = bilstm(f, b, Tensor(x2)).data
        # backward half of position 0 changes, forward half does not
        assert not np.allclose(base[0, 2:], moved[0, 2:])
        np.testing.assert_allclose(base[0, :2], moved[0, :2])

    def test_reversed_input_with_swapped_directions(self):
        f = LstmParams.init(2, 2, rng(1))
        b = LstmParams.init(2, 2, rng(2))
        x = rng(3).normal(size=(5, 2))
        base = bilstm(f, b, Tensor(x)).data
        flipped = bilstm(b, f, Tensor(x[::-1].copy())).data
        # row t of the flipped run is row T-1-t of the base run, halves swapped
        np.testing.assert_allclose(flipped[::-1, :2], base[:, 2:], rtol=1e-12)
        np.testing.assert_allclose(flipped[::-1, 2:], base[:, :2], rtol=1e-12)

    def test_every_input_row_influences_output(self):
        f = LstmParams.init(2, 2, rng(1))
        b = LstmParams.init(2, 2, rng(2))
        x = rng(3).normal(size=(4, 2))
        base = bilstm(f, b, Tensor(x)).data
        for t in range(4):
            bumped = x.copy()
            bumped[t] += 0.5
            assert not np.allclose(bilstm(f, b, Tensor(bumped)).data, base)

    def test_matches_per_step_reference(self):
        # the input gradient sums both directions' parts
        assert_matches_reference(bilstm_leaves(rng(8), 5, 3, 2), np.ones((5, 4)))

    def test_gradients(self):
        def build(t):
            f = LstmParams(t["wf"], t["uf"], t["bf"])
            b = LstmParams(t["wb"], t["ub"], t["bb"])
            return weighted_sum(bilstm(f, b, t["x"]))

        r = rng(9)
        assert_op_grads(
            build,
            {
                "wf": r.normal(size=(8, 3)) * 0.4,
                "uf": r.normal(size=(8, 2)) * 0.4,
                "bf": r.normal(size=(8,)) * 0.4,
                "wb": r.normal(size=(8, 3)) * 0.4,
                "ub": r.normal(size=(8, 2)) * 0.4,
                "bb": r.normal(size=(8,)) * 0.4,
                "x": r.normal(size=(3, 3)),
            },
            tol=1e-5,
        )


def packed_results(run, leaves, lengths):
    """Output and leaf gradients of ``run`` (a bilstm-like op taking
    ``lengths``) under a weighted-sum loss, the leaves copied fresh."""
    t = {k: Tensor(v.copy(), requires_grad=True) for k, v in leaves.items()}
    with Tape():
        out = run(LstmParams(t["wf"], t["uf"], t["bf"]), LstmParams(t["wb"], t["ub"], t["bb"]), t["x"], lengths)
        backward(weighted_sum(out))
    return {"out": out.data, **{k: v.grad for k, v in t.items()}}


class TestPackedBilstm:
    """Several sequences in one call against ``bilstm_sequence`` (the
    one-sequence op it replaced) run on each sequence's rows."""

    @pytest.mark.parametrize(
        "lengths",
        [(3, 1, 3), (1, 1, 1), (2, 5, 1, 5, 3), (4, 6), (6, 4), (12, 30, 5, 40, 22, 8, 17, 33, 9, 26)],
        ids=["ties", "all-one", "unsorted", "ascending", "descending", "review"],
    )
    def test_matches_per_sentence_reference(self, lengths):
        wide = len(lengths) == 10  # the review shape runs at the default dims
        input_dim, hidden = (100, 100) if wide else (3, 4)
        leaves = bilstm_leaves(rng(sum(lengths)), sum(lengths), input_dim, hidden)
        if wide:
            leaves = {k: v * (0.1 if k[0] in "wu" else 1.0) for k, v in leaves.items()}
        got = packed_results(bilstm, leaves, list(lengths))
        want = packed_results(bilstm_per_sentence, leaves, list(lengths))
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize(
        "t_len, input_dim, hidden",
        # one row at flip-train's document level (128 inputs, dims 64) and
        # at the default dims' document level
        [(1, 3, 2), (6, 3, 4), (40, 100, 100), (10, 200, 100), (9, 64, 64), (1, 128, 64), (1, 200, 100)],
    )
    @pytest.mark.parametrize("lengths", ["none", "one"])
    def test_one_sequence_gives_the_reference_bytes(self, t_len, input_dim, hidden, lengths):
        leaves = bilstm_leaves(rng(t_len + input_dim), t_len, input_dim, hidden)
        got = packed_results(bilstm, leaves, None if lengths == "none" else [t_len])
        want = packed_results(lambda f, b, x, _: bilstm_sequence(f, b, x), leaves, None)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_gradients_with_lengths(self):
        def build(t):
            f = LstmParams(t["wf"], t["uf"], t["bf"])
            b = LstmParams(t["wb"], t["ub"], t["bb"])
            return weighted_sum(bilstm(f, b, t["x"], [3, 1, 3]))

        assert_op_grads(build, bilstm_leaves(rng(10), 7, 3, 2), tol=1e-5)

    def test_sequences_are_independent(self):
        f, b = LstmParams.init(3, 2, rng(1)), LstmParams.init(3, 2, rng(2))
        x = rng(3).normal(size=(7, 3))
        base = bilstm(f, b, Tensor(x), [3, 1, 3]).data
        bumped = x.copy()
        bumped[3] += 1.0  # the one-token middle sequence
        moved = bilstm(f, b, Tensor(bumped), [3, 1, 3]).data
        np.testing.assert_array_equal(np.delete(moved, 3, axis=0), np.delete(base, 3, axis=0))
        assert not np.allclose(moved[3], base[3])

    def test_packing_orders_by_length_keeping_ties_in_order(self):
        # tokens 0-1, 2-4 and 5-6: the 3-long sequence first, then the two
        # 2-long ones in document order; step 2 runs the longest alone
        read, slots, steps, prev = _packing([2, 3, 2], 7)
        np.testing.assert_array_equal(read[0], [2, 0, 5, 3, 1, 6, 4])
        np.testing.assert_array_equal(read[1], [4, 1, 6, 3, 0, 5, 2])
        assert steps == [(0, 3), (6, 3), (12, 1)]
        np.testing.assert_array_equal(slots[0], [0, 1, 2, 6, 7, 8, 12])
        np.testing.assert_array_equal(slots[1], [3, 4, 5, 9, 10, 11, 13])
        np.testing.assert_array_equal(prev[0], [6, 7, 8, 12, 9, 10, 11, 13])
        np.testing.assert_array_equal(prev[1], [0, 1, 2, 6, 3, 4, 5, 9])

    def test_one_tape_node_for_every_sequence(self):
        p = LstmParams.init(2, 3, rng(5))
        inputs = Tensor(rng(6).normal(size=(6, 2)), requires_grad=True)
        with Tape() as tape:
            bilstm(p, p, inputs, [2, 1, 3])
            assert len(tape) == 1

    @pytest.mark.parametrize("lengths", [[], [2, 3], [6, 0], [7], [3, -1, 4]])
    def test_rejects_lengths_that_do_not_split_the_rows(self, lengths):
        p = LstmParams.init(2, 3, rng(5))
        with pytest.raises(ad.AutodiffError, match=r"bilstm: lengths .* do not split 6 rows"):
            bilstm(p, p, Tensor(np.ones((6, 2))), lengths)

    def test_rejects_directions_of_different_widths(self):
        with pytest.raises(ad.AutodiffError, match="bilstm: directions differ"):
            bilstm(LstmParams.init(2, 3, rng()), LstmParams.init(2, 2, rng()), Tensor(np.ones((4, 2))))


class TestBatchInvariance:
    """Every forward gate product of ``bilstm`` keeps each row's bits
    whatever shares it, so a sequence encoded among others gets the
    bytes it gets alone, with ``w`` and ``u`` held in either order."""

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=30),
        dtype=st.sampled_from([np.float32, np.float64]),
        dims=st.sampled_from([(3, 2), (8, 8), (64, 64), (100, 100)]),
        taped=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(lengths=[1], dtype=np.float32, dims=(100, 100), taped=False, seed=0)
    @example(lengths=[40, 1, 1], dtype=np.float64, dims=(3, 2), taped=True, seed=1)
    def test_each_sequence_gets_the_bytes_it_gets_alone(self, lengths, dtype, dims, taped, seed):
        input_dim, hidden = dims
        leaves = {k: v.astype(dtype) for k, v in bilstm_leaves(rng(seed), sum(lengths), input_dim, hidden).items()}

        def encode(x, order, lengths=None):
            held = {k: Tensor(np.asarray(leaves[k], order=order), requires_grad=True) for k in leaves if k != "x"}
            fwd = LstmParams(held["wf"], held["uf"], held["bf"])
            bwd = LstmParams(held["wb"], held["ub"], held["bb"])
            if taped:
                with Tape():
                    return bilstm(fwd, bwd, Tensor(x, requires_grad=True), lengths).data
            return bilstm(fwd, bwd, Tensor(x), lengths).data

        packed = encode(leaves["x"], "F", lengths)
        assert packed.tobytes() == encode(leaves["x"], "C", lengths).tobytes()
        starts = np.cumsum([0, *lengths])
        for a, b in zip(starts[:-1], starts[1:]):
            alone = encode(np.ascontiguousarray(leaves["x"][a:b]), "C")
            assert packed[a:b].tobytes() == alone.tobytes(), (a, b)


REVIEW_LENGTHS = (12, 30, 5, 40, 22, 8, 17, 33, 9, 26)  # 10 sentences, 202 tokens


def review_layers(hidden=100):
    """Both directions' parameters at d = e = ``hidden`` and the inputs
    of a 10-sentence, 202-token document, all leaves that require
    gradients."""
    r = rng(7)
    fwd, bwd = LstmParams.init(hidden, hidden, r), LstmParams.init(hidden, hidden, r)
    x = Tensor(r.normal(size=(sum(REVIEW_LENGTHS), hidden)), requires_grad=True)
    return fwd, bwd, x


class TestUntapedBilstm:
    """A call no tape records keeps nothing for a backward pass and gives
    the recorded call's bits."""

    @pytest.mark.parametrize(
        "lengths", [None, (7,), (3, 1, 3), (1, 1, 1), REVIEW_LENGTHS], ids=["none", "one", "ties", "all-one", "review"]
    )
    @pytest.mark.parametrize("untaped", ["no-tape", "no-grad", "constants"])
    def test_output_bytes_equal_the_taped_forward(self, lengths, untaped):
        n_rows = 7 if lengths is None else sum(lengths)
        fwd, bwd, _ = review_layers(hidden=6)
        x = Tensor(rng(n_rows).normal(size=(n_rows, 6)), requires_grad=True)
        with Tape() as tape:
            taped = bilstm(fwd, bwd, x, lengths)
        assert len(tape) == 1 and taped.node is not None
        if untaped == "no-tape":
            out = bilstm(fwd, bwd, x, lengths)
        elif untaped == "no-grad":
            with Tape(), ad.no_grad():
                out = bilstm(fwd, bwd, x, lengths)
        else:
            constant = lambda p: LstmParams(*(Tensor(t.data) for t in (p.w, p.u, p.b)))
            with Tape():
                out = bilstm(constant(fwd), constant(bwd), Tensor(x.data), lengths)
        assert out.node is None and not out.requires_grad
        assert out.data.tobytes() == taped.data.tobytes()

    def test_untaped_call_keeps_no_cell_caches(self):
        # the recorded forward keeps cells and tanh-cells, 2N x d floats
        # each, for its backward pass; an untaped call must not
        fwd, bwd, x = review_layers()
        n_rows, d = x.data.shape[0], fwd.hidden_dim

        def peak(run) -> int:
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def taped():
            with Tape():
                bilstm(fwd, bwd, x, REVIEW_LENGTHS)

        def untaped():
            with ad.no_grad():
                bilstm(fwd, bwd, x, REVIEW_LENGTHS)

        caches = 2 * (2 * n_rows * d * 8)
        assert peak(untaped) <= peak(taped) - caches


class TestLinear:
    def test_identity_weights_pass_input_through(self):
        p = Linear(Tensor(np.eye(3)), Tensor(np.zeros(3)))
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(affine(p, Tensor(x)).data, x)

    def test_zero_weights_give_bias(self):
        p = Linear(Tensor(np.zeros((2, 3))), Tensor(np.array([0.5, -1.0])))
        np.testing.assert_array_equal(affine(p, Tensor(np.ones(3))).data, [0.5, -1.0])

    def test_vec_matches_numpy(self):
        p = Linear.init(3, 2, rng(4))
        p.b.data[:] = [0.5, -0.5]
        x = np.array([1.0, 2.0, 3.0])
        out = affine(p, Tensor(x))
        np.testing.assert_allclose(out.data, p.w.data @ x + p.b.data)

    def test_rows_matches_per_row_vec(self):
        p = Linear.init(3, 2, rng(4))
        p.b.data[:] = [0.5, -0.5]
        xs = rng(5).normal(size=(4, 3))
        batched = affine(p, Tensor(xs))
        assert batched.data.shape == (4, 2)
        for i in range(4):
            np.testing.assert_allclose(batched.data[i], affine(p, Tensor(xs[i])).data)

    def test_gradients(self):
        def build(t):
            p = Linear(t["w"], t["b"])
            return add(
                weighted_sum(affine(p, t["x"])),
                weighted_sum(affine(p, ad.max_over_time(t["x"])), seed=3),
            )

        r = rng(8)
        assert_op_grads(
            build,
            {"w": r.normal(size=(2, 3)), "b": r.normal(size=(2,)), "x": r.normal(size=(4, 3))},
        )

    def test_affine_is_one_tape_node(self):
        p = Linear.init(3, 2, rng(4))
        x = Tensor(rng(5).normal(size=(4, 3)), requires_grad=True)
        with Tape() as tape:
            affine(p, x)
            assert len(tape) == 1
            affine(p, ad.max_over_time(x))
            assert len(tape) == 3  # the pooling and the affine map
            with ad.no_grad():
                affine(p, x)
            assert len(tape) == 3

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (2, 3, 3), ()])
    def test_affine_rejects_mismatched_input(self, shape):
        p = Linear.init(3, 2, rng(4))
        with pytest.raises(ad.AutodiffError, match=r"affine: inputs .* do not match w \(2, 3\)"):
            affine(p, Tensor(np.ones(shape)))


def constant_table(value: float, shape=(3, 1000), dtype=np.float64) -> EmbeddingTable:
    return EmbeddingTable(Tensor(np.full(shape, value, dtype=dtype), requires_grad=True))


def masked_lookup(table: EmbeddingTable, ids, p: float, r, train: bool = True) -> Tensor:
    """The model's embedding path: one mask for the gathered matrix, then
    the gather that scales by it."""
    w = table.weights.data
    return table.lookup(ids, dropout_mask((len(ids), w.shape[1]), w.dtype, p, r, train))


class TestDropout:
    """Inverted dropout on the embeddings: ``models.dropout_mask`` draws
    the mask and ``EmbeddingTable.lookup`` applies it inside the gather."""

    def test_identity_when_eval_or_zero(self):
        table = EmbeddingTable.init(6, 3, rng())
        for p, train in [(0.3, False), (0.0, True)]:
            r = rng(5)
            state = r.bit_generator.state
            with Tape() as tape:
                out = masked_lookup(table, [1, 2, 1, 5], p, r, train)
            assert r.bit_generator.state == state  # nothing drawn
            assert len(tape) == 1
            assert out.data.tobytes() == table.weights.data[[1, 2, 1, 5]].tobytes()

    def test_mask_values_are_zero_or_scaled(self):
        out = masked_lookup(constant_table(1.0, (2, 20)), [1] * 50, 0.3, rng(0)).data
        vals = np.unique(out)
        np.testing.assert_allclose(sorted(vals), [0.0, 1.0 / 0.7])
        dropped = (out == 0).mean()
        assert 0.2 < dropped < 0.4

    def test_seeded_mask_is_deterministic(self):
        table = constant_table(1.0, (2, 10))
        a = masked_lookup(table, [1] * 10, 0.5, rng(7)).data
        b = masked_lookup(table, [1] * 10, 0.5, rng(7)).data
        assert a.tobytes() == b.tobytes()

    def test_expectation_preserved(self):
        # inverted scaling keeps the element mean near the input value
        out = masked_lookup(constant_table(2.0), [1] * 100, 0.3, rng(123)).data
        assert out.size == 100_000
        assert abs(out.mean() - 2.0) / 2.0 < 0.02

    def test_invalid_probability(self):
        for p in (1.0, -0.1):
            for train in (True, False):
                with pytest.raises(ModelError, match=rf"must be in \[0, 1\), got {p}"):
                    dropout_mask((1, 3), np.float64, p, rng(), train)

    def test_gradient_flows_only_through_kept_entries(self):
        table = constant_table(1.0)
        with Tape():
            out = masked_lookup(table, [1], 0.4, rng(1))
            backward(ad.sum_all(out))
        kept = out.data[0] != 0
        np.testing.assert_allclose(table.weights.grad[1, kept], 1.0 / 0.6)
        np.testing.assert_allclose(table.weights.grad[1, ~kept], 0.0)
        np.testing.assert_array_equal(table.weights.grad[[0, 2]], 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_gather_matches_gather_then_mask(self, dtype):
        # repeated ids within the gather, an upstream gradient that is not
        # all ones; the composed oracle draws its own mask from the same seed
        weights = rng(2).normal(size=(6, 5)).astype(dtype)
        upstream = Tensor(rng(3).normal(size=(7, 5)).astype(dtype))
        ids = [1, 4, 1, 1, 3, 4, 5]
        results = []
        for gather in (
            lambda t: masked_lookup(t, ids, 0.4, rng(9)),
            lambda t: dropout(t.lookup(ids), 0.4, rng(9), train=True),
        ):
            table = EmbeddingTable(Tensor(weights.copy(), requires_grad=True))
            with Tape() as tape:
                out = gather(table)
                backward(ad.sum_all(mul(out, upstream)))
            results.append((out.data, table.weights.grad, len(tape)))
        (fused, fused_grad, fused_nodes), (composed, composed_grad, composed_nodes) = results
        assert fused.dtype == fused_grad.dtype == dtype
        assert dropout_mask((7, 5), np.dtype(dtype), 0.4, rng(9), True).dtype == dtype
        assert (fused == 0).any() and len(set(ids)) < len(ids)
        assert fused.tobytes() == composed.tobytes()
        assert fused_grad.tobytes() == composed_grad.tobytes()
        assert (fused_nodes, composed_nodes) == (3, 4)  # the mask is one node fewer
