import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from negmtl.autodiff import Tape, Tensor, backward
from negmtl.crf import CrfParams, crf_nll, log_partition, viterbi_decode, viterbi_paths
from oracles import (
    BruteForceResult,
    assert_op_grads,
    brute_force,
    crf_log_partition_reference,
    crf_nll_reference,
    path_score,
    viterbi_reference,
)


def random_instance(rng, t_len, k, scale=1.0):
    transitions = rng.normal(size=(k + 2, k + 2)) * scale
    emissions = rng.normal(size=(t_len, k)) * scale
    return transitions, emissions


def make_crf(transitions):
    return CrfParams(Tensor(np.asarray(transitions, dtype=np.float64), requires_grad=True))


class TestScoreSequence:
    """The gold-path score inside ``crf_nll``: the NLL is log Z minus it."""

    def test_hand_computed_two_step(self):
        # K=2: states 0,1 with START=2, STOP=3
        trans = np.zeros((4, 4))
        trans[2, 0] = 0.5   # START -> 0
        trans[0, 1] = 1.5   # 0 -> 1
        trans[1, 3] = -0.25  # 1 -> STOP
        em = np.array([[2.0, -1.0], [0.5, 3.0]])
        # 0.5 (start) + 2.0 (em) + 1.5 (trans) + 3.0 (em) - 0.25 (stop)
        np.testing.assert_allclose(path_score(trans, em, [0, 1]), 6.75)
        nll = crf_nll(make_crf(trans), Tensor(em), [0, 1])
        np.testing.assert_allclose(nll.data, log_partition(trans, em)[0] - 6.75, rtol=1e-12)

    def test_matches_brute_force_path_scores(self):
        rng = np.random.default_rng(0)
        trans, em = random_instance(rng, 4, 3)
        crf = make_crf(trans)
        log_z = brute_force(trans, em).log_partition
        for tags in [(0, 0, 0, 0), (2, 1, 0, 2), (1, 1, 2, 2)]:
            got = crf_nll(crf, Tensor(em), list(tags)).item()
            want = trans[3, tags[0]] + em[0, tags[0]] + trans[tags[-1], 4]
            for t in range(1, 4):
                want += trans[tags[t - 1], tags[t]] + em[t, tags[t]]
            np.testing.assert_allclose(log_z - got, want, rtol=1e-12)

    def test_gradient_is_gold_path_indicator(self):
        # the NLL gradient plus the gold path's counts is the gradient of
        # log Z alone, taken from the step-by-step reference
        rng = np.random.default_rng(5)
        trans, em = random_instance(rng, 5, 3)
        tags = [1, 1, 1, 0, 2]  # 1 -> 1 twice: counts, not flags
        counts_trans = np.zeros((5, 5))
        for a, b in zip([3, *tags], [*tags, 4]):
            counts_trans[a, b] += 1.0
        assert counts_trans[1, 1] == 2.0
        counts_em = np.zeros((5, 3))
        counts_em[np.arange(5), tags] = 1.0
        grads = []
        for f in (lambda c, e: crf_nll(c, e, tags), lambda c, e: crf_log_partition_reference(c.transitions, e)):
            crf = make_crf(trans)
            em_t = Tensor(em, requires_grad=True)
            with Tape():
                backward(f(crf, em_t))
            grads.append((crf.transitions.grad, em_t.grad))
        (g_trans, g_em), (logz_trans, logz_em) = grads
        np.testing.assert_allclose(g_trans + counts_trans, logz_trans, atol=1e-12)
        np.testing.assert_allclose(g_em + counts_em, logz_em, atol=1e-12)

    def test_rejects_bad_tags(self):
        crf = make_crf(np.zeros((4, 4)))
        em = Tensor(np.zeros((2, 2)))
        for score in (lambda t: crf_nll(crf, em, t), lambda t: path_score(np.zeros((4, 4)), em.data, t)):
            with pytest.raises(ValueError, match="out of range"):
                score([0, 2])
            with pytest.raises(ValueError, match="expected 2 tags"):
                score([0])

    def test_rejects_bad_emission_width(self):
        crf = make_crf(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="emissions"):
            crf_nll(crf, Tensor(np.zeros((2, 3))), [0, 1])
        with pytest.raises(ValueError, match="emissions"):
            log_partition(np.zeros((4, 4)), np.zeros((2, 3)))


class TestLogPartition:
    def test_hand_enumerated_four_paths(self):
        # all four paths of a T=2, K=2 chain, summed by hand
        trans = np.array(
            [
                [0.1, 0.2, 0.0, 0.3],
                [0.4, 0.5, 0.0, 0.6],
                [0.7, 0.8, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        em = np.array([[1.0, 2.0], [3.0, 4.0]])
        paths = {
            (0, 0): 0.7 + 1.0 + 0.1 + 3.0 + 0.3,
            (0, 1): 0.7 + 1.0 + 0.2 + 4.0 + 0.6,
            (1, 0): 0.8 + 2.0 + 0.4 + 3.0 + 0.3,
            (1, 1): 0.8 + 2.0 + 0.5 + 4.0 + 0.6,
        }
        want = math.log(sum(math.exp(s) for s in paths.values()))
        log_z, alpha = log_partition(trans, em)
        np.testing.assert_allclose(log_z, want, rtol=1e-12)
        # the forward table: prefixes ending in each tag
        np.testing.assert_allclose(alpha[0], [0.7 + 1.0, 0.8 + 2.0], rtol=1e-12)
        np.testing.assert_allclose(
            alpha[1],
            [np.logaddexp(paths[0, 0] - 0.3, paths[1, 0] - 0.3),
             np.logaddexp(paths[0, 1] - 0.6, paths[1, 1] - 0.6)],
            rtol=1e-12,
        )

    def test_single_token_sequence(self):
        rng = np.random.default_rng(1)
        trans, em = random_instance(rng, 1, 3)
        scores = trans[3, :3] + em[0] + trans[:3, 4]
        want = np.log(np.exp(scores).sum())
        np.testing.assert_allclose(log_partition(trans, em)[0], want, rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(2, 5))
    def test_agrees_with_enumeration(self, seed, t_len, k):
        rng = np.random.default_rng(seed)
        trans, em = random_instance(rng, t_len, k, scale=2.0)
        tags = [int(x) for x in rng.integers(0, k, size=t_len)]
        want = brute_force(trans, em).log_partition
        np.testing.assert_allclose(log_partition(trans, em)[0], want, atol=1e-10)
        grads = []
        for nll in (crf_nll, lambda crf, e, t: crf_nll_reference(crf.transitions, e, t)):
            crf = make_crf(trans)
            em_t = Tensor(em, requires_grad=True)
            with Tape():
                out = nll(crf, em_t, tags)
            np.testing.assert_allclose(out.item(), want - path_score(trans, em, tags), atol=1e-10)
            backward(out)
            grads.append((crf.transitions.grad, em_t.grad))
        # the forward-backward marginals equal the gradients of the
        # step-by-step recursion
        for fused, ref in zip(*grads):
            np.testing.assert_allclose(fused, ref, atol=1e-10)

    def test_constant_emission_shift_moves_logz_by_constant(self):
        rng = np.random.default_rng(7)
        trans, em = random_instance(rng, 4, 3)
        base = log_partition(trans, em)[0]
        shifted = em.copy()
        shifted[2] += 1.75  # every tag at step 2
        np.testing.assert_allclose(log_partition(trans, shifted)[0], base + 1.75, rtol=1e-12)
        assert viterbi_decode(trans, em) == viterbi_decode(trans, shifted)

    def test_stable_under_large_scores(self):
        trans = np.zeros((4, 4))
        em = np.full((3, 2), 500.0)
        with np.errstate(over="raise"):
            got = log_partition(trans, em)[0]
        np.testing.assert_allclose(got, 1500.0 + 3 * math.log(2.0), rtol=1e-12)
        with np.errstate(over="raise"):
            crf = make_crf(trans)
            em_t = Tensor(em, requires_grad=True)
            with Tape():
                backward(crf_nll(crf, em_t, [0, 1, 0]))
        np.testing.assert_allclose(em_t.grad, np.array([[-0.5, 0.5], [0.5, -0.5], [-0.5, 0.5]]))


class TestNll:
    def test_equals_logz_minus_score(self):
        rng = np.random.default_rng(2)
        trans, em = random_instance(rng, 3, 3)
        crf = make_crf(trans)
        tags = [2, 0, 1]
        nll = crf_nll(crf, Tensor(em), tags).item()
        want = log_partition(trans, em)[0] - path_score(trans, em, tags)
        np.testing.assert_allclose(nll, want, rtol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        t_len = int(rng.integers(1, 6))
        k = int(rng.integers(2, 5))
        trans, em = random_instance(rng, t_len, k, scale=3.0)
        crf = make_crf(trans)
        tags = [int(x) for x in rng.integers(0, k, size=t_len)]
        assert crf_nll(crf, Tensor(em), tags).item() >= 0.0

    def test_gradients_against_finite_differences(self):
        rng = np.random.default_rng(3)
        trans, em = random_instance(rng, 3, 3)

        def build(t):
            return crf_nll(CrfParams(t["trans"]), t["em"], [0, 2, 1])

        assert_op_grads(build, {"trans": trans, "em": em}, tol=1e-6)

    @pytest.mark.parametrize("t_len", [1, 2, 40])
    def test_one_tape_node_at_any_length(self, t_len):
        rng = np.random.default_rng(t_len)
        trans, em = random_instance(rng, t_len, 5)
        crf = make_crf(trans)
        with Tape() as tape:
            crf_nll(crf, Tensor(em, requires_grad=True), [0] * t_len)
        assert len(tape) == 1

    def test_matches_composed_reference(self):
        rng = np.random.default_rng(6)
        trans, em = random_instance(rng, 6, 5, scale=2.0)
        tags = [4, 0, 1, 2, 2, 3]
        results = []
        for nll in (crf_nll, lambda crf, e, t: crf_nll_reference(crf.transitions, e, t)):
            crf = make_crf(trans)
            em_t = Tensor(em, requires_grad=True)
            with Tape():
                out = nll(crf, em_t, tags)
            backward(out)
            results.append((out.item(), crf.transitions.grad, em_t.grad))
        for fused, ref in zip(*results):
            np.testing.assert_allclose(fused, ref, rtol=1e-12, atol=1e-12)

    def test_emission_gradient_is_marginal_minus_indicator(self):
        # d logZ / d em[t, j] equals the marginal P(y_t = j); verify the
        # nll gradient against probabilities from exhaustive enumeration
        rng = np.random.default_rng(4)
        t_len, k = 3, 3
        trans, em = random_instance(rng, t_len, k)
        gold = [1, 0, 2]

        crf = make_crf(trans)
        em_t = Tensor(em, requires_grad=True)
        with Tape():
            backward(crf_nll(crf, em_t, gold))

        import itertools
        log_z = brute_force(trans, em).log_partition
        marginals = np.zeros((t_len, k))
        for tags in itertools.product(range(k), repeat=t_len):
            s = trans[k, tags[0]] + em[0, tags[0]]  # START row is index k
            for t in range(1, t_len):
                s += trans[tags[t - 1], tags[t]] + em[t, tags[t]]
            s += trans[tags[-1], k + 1]
            p = math.exp(s - log_z)
            for t, tag in enumerate(tags):
                marginals[t, tag] += p

        want = marginals.copy()
        for t, tag in enumerate(gold):
            want[t, tag] -= 1.0
        np.testing.assert_allclose(em_t.grad, want, atol=1e-10)


class TestViterbi:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(2, 5))
    def test_agrees_with_enumeration(self, seed, t_len, k):
        rng = np.random.default_rng(seed)
        trans, em = random_instance(rng, t_len, k, scale=2.0)
        result = brute_force(trans, em)
        path = viterbi_decode(trans, em)
        assert tuple(path) == result.best_tags
        np.testing.assert_allclose(path_score(trans, em, path), result.best_score, rtol=1e-10)

    def test_all_zero_scores_tie_to_tag_zero(self):
        trans = np.zeros((5, 5))
        em = np.zeros((4, 3))
        assert viterbi_decode(trans, em) == [0, 0, 0, 0]
        assert brute_force(trans, em).best_tags == (0, 0, 0, 0)

    def test_partial_tie_prefers_lowest_id(self):
        # tags 1 and 2 tie exactly (integer scores); 0 is worse
        trans = np.zeros((5, 5))
        em = np.array([[0.0, 3.0, 3.0], [0.0, 3.0, 3.0]])
        assert viterbi_decode(trans, em) == [1, 1]
        assert brute_force(trans, em).best_tags == (1, 1)

    def test_transitions_can_override_emissions(self):
        # emission prefers tag 1 everywhere, but 1 -> 1 is forbidden, so
        # [0, 1] and [1, 0] tie exactly; the per-step tie rule and the
        # lexicographic enumeration may pick different optimal paths, but
        # both must reach the optimal score
        trans = np.zeros((4, 4))
        trans[1, 1] = -100.0
        em = np.array([[0.0, 2.0], [0.0, 2.0]])
        result = brute_force(trans, em)
        path = viterbi_decode(trans, em)
        assert path in ([0, 1], [1, 0])
        assert result.best_tags == (0, 1)
        np.testing.assert_allclose(path_score(trans, em, path), result.best_score, rtol=1e-12)


def ragged_documents(kind: str, count: int, seed: int):
    """Seeded documents of ragged sentences: (transitions, emissions laid
    end to end, lengths)."""
    r = np.random.default_rng(seed)
    for _ in range(count):
        k = int(r.integers(1, 6))
        n_sent = int(r.integers(1, 9))
        if kind == "length-one":
            lengths = r.choice([1, 1, 2, 3], size=n_sent).tolist()
        elif kind == "equal-lengths":
            lengths = [int(r.integers(1, 8))] * n_sent
        else:
            lengths = r.integers(1, 14, size=n_sent).tolist()
        shape = (sum(lengths), k)
        if kind == "integer-ties":  # few distinct values: exact ties at every step
            trans = r.integers(-1, 2, size=(k + 2, k + 2)).astype(float)
            em = r.integers(-1, 2, size=shape).astype(float)
        elif kind == "non-finite":  # NaN and infinities among integer scores
            trans = r.integers(-1, 2, size=(k + 2, k + 2)).astype(float)
            em = r.choice([-1.0, 0.0, 1.0, np.nan, np.inf, -np.inf], p=[0.3, 0.3, 0.25, 0.05, 0.05, 0.05], size=shape)
        else:
            trans, em = r.normal(size=(k + 2, k + 2)), r.normal(size=shape)
        yield trans, em, lengths


def sentence_rows(em, lengths):
    ends = np.cumsum(lengths)
    return [em[b - n : b] for n, b in zip(lengths, ends)]


class TestViterbiPaths:
    """One packed Viterbi loop over a document's sentences."""

    @pytest.mark.parametrize("kind", ["gaussian", "integer-ties", "length-one", "equal-lengths"])
    def test_equals_per_sentence_decoding(self, kind):
        for trans, em, lengths in ragged_documents(kind, 250, seed=len(kind)):
            want = [viterbi_decode(trans, rows) for rows in sentence_rows(em, lengths)]
            assert viterbi_paths(trans, em, lengths) == want, lengths

    @pytest.mark.parametrize("kind", ["gaussian", "integer-ties"])
    def test_one_sentence_is_the_reference_decoder(self, kind):
        # viterbi_decode is viterbi_paths on one sentence; the reference
        # is the per-sentence loop it replaced
        for trans, em, lengths in ragged_documents(kind, 100, seed=11):
            for rows in sentence_rows(em, lengths):
                assert viterbi_decode(trans, rows) == viterbi_reference(trans, rows)
                assert viterbi_paths(trans, rows) == viterbi_paths(trans, rows, [len(rows)])

    def test_non_finite_scores_give_the_reference_tags(self):
        # a step's max is the value at its first argmax, NaN included
        with np.errstate(invalid="ignore"):  # inf - inf
            for trans, em, lengths in ragged_documents("non-finite", 150, seed=5):
                rows = sentence_rows(em, lengths)
                assert viterbi_paths(trans, em, lengths) == [viterbi_reference(trans, r) for r in rows]
                for r in rows:
                    assert viterbi_decode(trans, r) == viterbi_reference(trans, r)

    def test_paths_attain_the_optimal_score_under_ties(self):
        for trans, em, lengths in ragged_documents("integer-ties", 40, seed=3):
            paths = viterbi_paths(trans, em, lengths)
            for path, rows in zip(paths, sentence_rows(em, lengths)):
                if rows.shape[1] ** rows.shape[0] <= 20_000:
                    assert path_score(trans, rows, path) == brute_force(trans, rows).best_score

    @pytest.mark.parametrize("kind", ["gaussian", "integer-ties", "all-zero"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_long_tails_trace_back_to_the_reference(self, kind, dtype):
        # up to 50 sentences, most far shorter or far longer than the
        # others, so the live set shrinks over long tails of steps; on
        # all-zero scores every path ties and the lowest-id rule decides
        rng = np.random.default_rng(50)
        k = 5
        for _ in range(30):
            n = int(rng.integers(1, 51))
            lengths = np.where(rng.random(n) < 0.6, rng.integers(1, 4, n), rng.integers(30, 61, n))
            lengths[rng.integers(n)] = rng.choice([1, 60])
            shape = (int(lengths.sum()), k)
            if kind == "gaussian":
                trans, em = rng.normal(size=(k + 2, k + 2)), rng.normal(size=shape)
            elif kind == "integer-ties":
                trans, em = rng.integers(-1, 2, size=(k + 2, k + 2)), rng.integers(-1, 2, size=shape)
            else:
                trans, em = np.zeros((k + 2, k + 2)), np.zeros(shape)
            trans, em = trans.astype(dtype), em.astype(dtype)
            paths = viterbi_paths(trans, em, lengths.tolist())
            assert paths == [viterbi_reference(trans, rows) for rows in sentence_rows(em, lengths)]
            if kind == "all-zero":
                assert paths == [[0] * n for n in lengths.tolist()]

    @pytest.mark.parametrize("lengths", [[], [2, 3], [6, 0], [7], [3, -1, 4]])
    def test_rejects_lengths_that_do_not_split_the_rows(self, lengths):
        with pytest.raises(ValueError, match=r"lengths .* do not split 6 emission rows"):
            viterbi_paths(np.zeros((5, 5)), np.zeros((6, 3)), lengths)

    def test_rejects_bad_emission_width(self):
        with pytest.raises(ValueError, match="emissions must be"):
            viterbi_paths(np.zeros((5, 5)), np.zeros((6, 2)), [3, 3])


class TestBruteForce:
    def test_refuses_huge_enumerations(self):
        trans = np.zeros((7, 7))
        em = np.zeros((9, 5))  # 5^9 = 1 953 125
        with pytest.raises(ValueError, match="limit"):
            brute_force(trans, em)

    def test_result_type(self):
        out = brute_force(np.zeros((4, 4)), np.zeros((1, 2)))
        assert isinstance(out, BruteForceResult)
        np.testing.assert_allclose(out.log_partition, math.log(2.0))
        assert out.best_tags == (0,)
        assert out.best_score == 0.0


class TestCrfParams:
    def test_init_shape_and_indices(self):
        crf = CrfParams.init(5, np.random.default_rng(0))
        assert crf.transitions.data.shape == (7, 7)
        assert crf.num_tags == 5
        assert crf.start == 5
        assert crf.stop == 6
        assert crf.transitions.requires_grad

    def test_init_deterministic(self):
        a = CrfParams.init(3, np.random.default_rng(1))
        b = CrfParams.init(3, np.random.default_rng(1))
        assert a.transitions.data.tobytes() == b.transitions.data.tobytes()
