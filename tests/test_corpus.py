import json

import pytest
from hypothesis import given, strategies as st

from negmtl.corpus import (
    BioTag,
    CorpusError,
    Document,
    NegationStructure,
    ParseError,
    Sentence,
    ValidationError,
    Vocabulary,
    build_vocab,
    corpus_stats,
    decode_json,
    flatten_spans,
    from_bio,
    parse_corpus,
    to_bio,
)
from oracles import lookup_reference, vocab_order_reference


def make_doc(doc_id="d1", label="positive", sentences=None, annotated=True):
    if sentences is None:
        sentences = (Sentence(("good", "stay")),)
    return Document(doc_id, "hotels", label, tuple(sentences), annotated)


# ---------------------------------------------------------------------------
# Data structures


class TestNegationStructure:
    def test_make_sorts_and_dedupes(self):
        neg = NegationStructure.make([3, 1, 1], [7, 5])
        assert neg.cue == (1, 3)
        assert neg.scope == (5, 7)

    def test_empty_cue_rejected(self):
        with pytest.raises(ValueError, match="cue"):
            NegationStructure.make([], [1])

    def test_empty_scope_allowed(self):
        neg = NegationStructure.make([0])
        assert neg.scope == ()

    def test_cue_scope_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            NegationStructure((1,), (1, 2))

    def test_unsorted_raw_tuple_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            NegationStructure((2, 1), ())

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            NegationStructure.make([-1])


class TestSentence:
    def test_negation_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Sentence(("a", "b"), (NegationStructure.make([0], [2]),))

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError):
            Sentence(())


class TestDocument:
    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            make_doc(label="neutral")

    def test_null_label_allowed(self):
        assert make_doc(label=None).label is None

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            Document("d", "hotels", "positive", ())


# ---------------------------------------------------------------------------
# BIO conversion


class TestBio:
    def test_tag_ids_are_stable(self):
        assert [int(t) for t in BioTag] == [0, 1, 2, 3, 4]
        assert [str(t) for t in BioTag] == ["O", "B-CUE", "I-CUE", "B-SCOPE", "I-SCOPE"]

    def test_string_round_trip(self):
        for tag in BioTag:
            assert BioTag.from_string(str(tag)) is tag
        with pytest.raises(ValueError):
            BioTag.from_string("B-NEG")

    def test_single_cue_with_following_scope(self):
        # "el hotel no esta lejos del centro" style review fragment
        tokens = tuple(
            "las vistas preciosas , el hotel no esta lejos del centro de la ciudad . .".split()
        )
        assert len(tokens) == 16
        sent = Sentence(tokens, (NegationStructure.make([6], [7, 8, 9, 10]),))
        expected = (
            [BioTag.O] * 6
            + [BioTag.B_CUE, BioTag.B_SCOPE, BioTag.I_SCOPE, BioTag.I_SCOPE, BioTag.I_SCOPE]
            + [BioTag.O] * 5
        )
        assert to_bio(sent) == expected

    def test_discontinuous_scope_restarts_at_b(self):
        sent = Sentence(tuple("abcdef"), (NegationStructure.make([0], [1, 2, 4]),))
        assert to_bio(sent) == [
            BioTag.B_CUE,
            BioTag.B_SCOPE,
            BioTag.I_SCOPE,
            BioTag.O,
            BioTag.B_SCOPE,
            BioTag.O,
        ]

    def test_multiword_cue(self):
        sent = Sentence(tuple("abcd"), (NegationStructure.make([1, 2]),))
        assert to_bio(sent) == [BioTag.O, BioTag.B_CUE, BioTag.I_CUE, BioTag.O]

    def test_scope_before_cue(self):
        sent = Sentence(tuple("abc"), (NegationStructure.make([2], [0, 1]),))
        assert to_bio(sent) == [BioTag.B_SCOPE, BioTag.I_SCOPE, BioTag.B_CUE]

    def test_cue_wins_over_scope_across_structures(self):
        # token 1 is cue of one structure and scope of another
        sent = Sentence(
            tuple("abcd"),
            (
                NegationStructure.make([1], [2]),
                NegationStructure.make([3], [1]),
            ),
        )
        tags = to_bio(sent)
        assert tags[1] == BioTag.B_CUE
        cue, scope = from_bio(tags)
        assert 1 in cue and 1 not in scope

    def test_adjacent_structures_merge_into_one_run(self):
        # two structures with touching scopes flatten into a single span
        sent = Sentence(
            tuple("abcde"),
            (
                NegationStructure.make([0], [1, 2]),
                NegationStructure.make([4], [3]),
            ),
        )
        assert to_bio(sent) == [
            BioTag.B_CUE,
            BioTag.B_SCOPE,
            BioTag.I_SCOPE,
            BioTag.I_SCOPE,
            BioTag.B_CUE,
        ]

    def test_from_bio_repairs_dangling_inside(self):
        tags = [BioTag.O, BioTag.I_SCOPE, BioTag.I_CUE]
        cue, scope = from_bio(tags)
        assert cue == {2}
        assert scope == {1}

    def test_empty_annotation_is_all_o(self):
        sent = Sentence(("fine", "hotel"))
        assert to_bio(sent) == [BioTag.O, BioTag.O]
        assert flatten_spans(sent) == (frozenset(), frozenset())


@st.composite
def annotated_sentences(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    n_negs = draw(st.integers(min_value=0, max_value=3))
    negations = []
    for _ in range(n_negs):
        cue = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(3, n)))
        scope = draw(st.sets(st.integers(0, n - 1), max_size=n)) - cue
        negations.append(NegationStructure.make(cue, scope))
    return Sentence(tuple(f"w{i}" for i in range(n)), tuple(negations))


class TestBioRoundTrip:
    @given(annotated_sentences())
    def test_flat_spans_survive_round_trip(self, sent):
        cue, scope = flatten_spans(sent)
        got_cue, got_scope = from_bio(to_bio(sent))
        assert got_cue == cue
        assert got_scope == scope

    @given(annotated_sentences())
    def test_tags_well_formed(self, sent):
        tags = to_bio(sent)
        assert len(tags) == len(sent.tokens)
        for i, tag in enumerate(tags):
            if tag == BioTag.I_CUE:
                assert tags[i - 1] in (BioTag.B_CUE, BioTag.I_CUE)
            if tag == BioTag.I_SCOPE:
                assert tags[i - 1] in (BioTag.B_SCOPE, BioTag.I_SCOPE)

    @given(annotated_sentences())
    def test_structure_order_irrelevant(self, sent):
        reordered = Sentence(sent.tokens, tuple(reversed(sent.negations)))
        assert to_bio(sent) == to_bio(reordered)


# ---------------------------------------------------------------------------
# Parsing


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def record(doc_id="d1", label="positive", **overrides):
    rec = {
        "id": doc_id,
        "domain": "hotels",
        "label": label,
        "sentences": [
            {"tokens": ["no", "good"], "negations": [{"cue": [0], "scope": [1]}]},
        ],
    }
    rec.update(overrides)
    return rec


class TestParseCorpus:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(), record("d2", label=None)])
        docs = parse_corpus(path)
        assert [d.id for d in docs] == ["d1", "d2"]
        assert docs[0].label == "positive"
        assert docs[1].label is None
        assert docs[0].sentences[0].negations[0].cue == (0,)
        assert all(d.has_negation_annotations for d in docs)

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert parse_corpus(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n" + json.dumps(record()) + "\n\n")
        assert len(parse_corpus(path)) == 1

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record()) + "\n{broken\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_corpus(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("good_lines", [1, 400])  # 400 lines span several read buffers
    def test_non_utf8_byte_names_its_line(self, tmp_path, newline, good_lines):
        path = tmp_path / "c.jsonl"
        good = newline.join(json.dumps(record(f"d{i}")) for i in range(good_lines)).encode()
        path.write_bytes(good + (newline * 2).encode() + b'{"id": "caf\xe9"}' + newline.encode())
        with pytest.raises(ParseError) as info:
            parse_corpus(path)
        assert str(info.value) == f"{path}: line {good_lines + 2}: byte 0xe9 is not UTF-8 (invalid continuation byte)"
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_missing_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record()
        del rec["id"]
        write_jsonl(path, [rec])
        with pytest.raises(ParseError, match="'id'"):
            parse_corpus(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(), record()])
        with pytest.raises(ValidationError, match="duplicate"):
            parse_corpus(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(label="meh")])
        with pytest.raises(ValidationError, match="label"):
            parse_corpus(path)

    def test_out_of_range_scope_names_document(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record()
        rec["sentences"][0]["negations"][0]["scope"] = [9]
        write_jsonl(path, [rec])
        with pytest.raises(ValidationError, match="d1"):
            parse_corpus(path)

    def test_missing_negations_key_marks_unannotated(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record()
        del rec["sentences"][0]["negations"]
        write_jsonl(path, [rec])
        (doc,) = parse_corpus(path)
        assert not doc.has_negation_annotations
        assert doc.sentences[0].negations == ()

    def test_explicit_empty_negations_stays_annotated(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record()
        rec["sentences"][0]["negations"] = []
        write_jsonl(path, [rec])
        (doc,) = parse_corpus(path)
        assert doc.has_negation_annotations

    def test_errors_are_corpus_errors(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("[]\n")
        with pytest.raises(CorpusError):
            parse_corpus(path)

    @pytest.mark.parametrize("cue, scope", [([True], [False]), ([0], [False]), ([1.0], [])])
    def test_non_integer_indices_rejected(self, tmp_path, cue, scope):
        # JSON true/false are Python bools, an int subclass: they must not pass as 1/0
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(sentences=[
            {"tokens": ["no", "es", "malo"], "negations": [{"cue": cue, "scope": scope}]},
        ])])
        with pytest.raises(ValidationError, match="must be a list of integers"):
            parse_corpus(path)

    @pytest.mark.parametrize("field", ["id", "domain", "token"])
    def test_lone_surrogate_names_its_line(self, tmp_path, field):
        # a \u escape can spell half a surrogate pair, which no UTF-8 text
        # holds: a checkpoint header could not store such a token
        rec = record("d2")
        if field == "token":
            rec["sentences"][0]["tokens"][1] = "\ud800x"
        else:
            rec[field] = "\udc00"
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(), rec])
        with pytest.raises(ParseError) as info:
            parse_corpus(path)
        code_point = "D800" if field == "token" else "DC00"
        assert str(info.value) == f"{path}: line 2: invalid JSON (a string holds the lone surrogate U+{code_point})"

    def test_escaped_surrogate_pair_is_one_character(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record()).replace('"good"', '"\\ud83d\\ude00"') + "\n")
        (doc,) = parse_corpus(path)
        assert doc.sentences[0].tokens == ("no", "\U0001F600")


class TestDecodeJson:
    """Every failure of ``decode_json`` is the caller's error, built from
    the decoder's own."""

    @pytest.mark.parametrize(
        "text",
        ["{", "7" * 5000, "[" * 5000 + "]" * 5000, b"\xff", '["\\ud800"]'],
        ids=["syntax", "long-integer", "too-deep", "not-utf8", "lone-surrogate"],
    )
    def test_failures_are_the_callers_error(self, text):
        with pytest.raises(LookupError) as info:
            decode_json(text, LookupError)
        assert isinstance(info.value.args[0], (ValueError, RecursionError))

    def test_bare_text_stands_for_itself_only_when_not_json(self):
        assert decode_json("stl", LookupError, bare=True) == "stl"
        assert decode_json("[1, 2]", LookupError, bare=True) == [1, 2]
        for text in ("7" * 5000, "[" * 5000 + "]" * 5000, '"\\udfff"'):
            with pytest.raises(LookupError):
                decode_json(text, LookupError, bare=True)

    def test_bytes_are_read_as_utf8(self):
        assert decode_json('{"a": ["ñ", 2]}'.encode(), LookupError) == {"a": ["ñ", 2]}


# ---------------------------------------------------------------------------
# Vocabulary


# case variants, reserved names and a non-ASCII pair
VOCAB_TOKENS = ["a", "A", "b", "B", "c", "ab", "Ab", "<pad>", "<unk>", "<PAD>", "Ñu", "ñu"]


class TestVocabulary:
    def corpus(self, *sentences):
        sents = tuple(Sentence(tuple(s.split())) for s in sentences)
        return [make_doc(sentences=sents)]

    def test_reserved_ids(self):
        vocab = build_vocab(self.corpus("a b"))
        assert vocab.encode([Vocabulary.PAD_TOKEN]) == [Vocabulary.UNK_ID]  # a name, not a token
        assert vocab.id_to_token[0] == "<pad>"
        assert vocab.id_to_token[1] == "<unk>"
        assert vocab.encode(["never-seen"]) == [Vocabulary.UNK_ID]

    @pytest.mark.parametrize("lowercase", [False, True])
    def test_reserved_names_in_a_corpus_are_unknown_tokens(self, lowercase):
        vocab = build_vocab(self.corpus("<pad> a <unk> <PAD>", "<unk> b"), lowercase=lowercase)
        assert vocab.id_to_token[2:] == (["a", "b"] if lowercase else ["<PAD>", "a", "b"])
        assert vocab.encode(["<pad>", "<unk>"]) == [Vocabulary.UNK_ID, Vocabulary.UNK_ID]

    @pytest.mark.parametrize("name", [Vocabulary.PAD_TOKEN, Vocabulary.UNK_TOKEN])
    def test_listing_a_reserved_name_is_rejected(self, name):
        with pytest.raises(ValueError, match="duplicate tokens"):
            Vocabulary.from_json_obj({"tokens": ["a", name], "lowercase": False})

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab(self.corpus("b a b c a b"))
        # b:3, a:2, c:1
        assert vocab.id_to_token[2:] == ["b", "a", "c"]
        assert vocab.encode(["b"]) == [2]

    def test_min_count_filters(self):
        vocab = build_vocab(self.corpus("a a b"), min_count=2)
        assert vocab.encode(["a", "b"]) == [2, Vocabulary.UNK_ID]

    def test_lowercase_folds_case(self):
        vocab = build_vocab(self.corpus("Good good GOOD"), lowercase=True)
        assert vocab.encode(["GOOD", "good"]) == [2, 2]
        assert len(vocab) == 3

    def test_deterministic_across_doc_order(self):
        docs = [
            make_doc("a", sentences=(Sentence(("x", "y", "x")),)),
            make_doc("b", sentences=(Sentence(("y", "z")),)),
        ]
        v1 = build_vocab(docs)
        v2 = build_vocab(list(reversed(docs)))
        assert v1.id_to_token == v2.id_to_token

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_vocab([])

    def test_min_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="min_count must be >= 1, got 0"):
            build_vocab(self.corpus("a b"), min_count=0)

    @pytest.mark.parametrize("head", [["a", "b"], ["<unk>", "<pad>"], ["<pad>"]])
    def test_ids_zero_and_one_must_be_the_reserved_names(self, head):
        with pytest.raises(ValueError, match="ids 0 and 1 are reserved for padding and unknown"):
            Vocabulary(head + ["x"])

    def test_encode(self):
        vocab = build_vocab(self.corpus("a b"))
        assert vocab.encode(["a", "b", "q"]) == [2, 3, 1]

    @given(
        train=st.lists(st.lists(st.sampled_from(VOCAB_TOKENS), min_size=1, max_size=8), min_size=1, max_size=6),
        tokens=st.lists(st.sampled_from(VOCAB_TOKENS + ["never-seen", "NEVER-seen"]), max_size=30),
        lowercase=st.booleans(),
    )
    def test_encode_is_lookup_of_each_token(self, train, tokens, lowercase):
        vocab = build_vocab(self.corpus(*map(" ".join, train)), lowercase=lowercase)
        assert vocab.encode(tokens) == [lookup_reference(vocab, t) for t in tokens]
        assert vocab.encode(iter(tokens)) == vocab.encode(tokens)

    @given(
        # few forms, short sentences: most counts are tied
        docs=st.lists(
            st.lists(st.lists(st.sampled_from(VOCAB_TOKENS), min_size=1, max_size=5), min_size=1, max_size=4),
            min_size=1, max_size=5,
        ),
        min_count=st.integers(1, 3),
        lowercase=st.booleans(),
    )
    def test_order_is_the_count_then_token_key_sort(self, docs, min_count, lowercase):
        train = [
            make_doc(f"d{i}", sentences=tuple(Sentence(tuple(s)) for s in sents)) for i, sents in enumerate(docs)
        ]
        vocab = build_vocab(train, min_count, lowercase)
        assert vocab.id_to_token[2:] == vocab_order_reference(train, min_count, lowercase)

    def test_json_round_trip(self):
        vocab = build_vocab(self.corpus("b a b"), lowercase=True)
        clone = Vocabulary.from_json_obj(json.loads(json.dumps(vocab.to_json_obj())))
        assert clone.id_to_token == vocab.id_to_token
        assert clone.lowercase == vocab.lowercase


# ---------------------------------------------------------------------------
# Statistics


class TestCorpusStats:
    def test_counts_documents_and_structures_by_class(self):
        pos = make_doc(
            "p1",
            label="positive",
            sentences=(
                Sentence(("a", "b"), (NegationStructure.make([0]),)),
                Sentence(("c",)),
            ),
        )
        neg = make_doc(
            "n1",
            label="negative",
            sentences=(
                Sentence(
                    ("a", "b", "c"),
                    (NegationStructure.make([0], [1]), NegationStructure.make([2])),
                ),
            ),
        )
        stats = corpus_stats({"train": [pos, neg], "dev": []})
        train = stats["train"]
        assert train["documents"] == 2
        assert train["structures"] == 3
        assert train["structures_by_class"] == {"positive": 1, "negative": 2}
        assert stats["dev"]["documents"] == 0
        assert stats["dev"]["structures"] == 0
