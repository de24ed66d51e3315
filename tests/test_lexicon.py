import random
import re

import pytest

from conftest import format_mpqa_line
from newsflow.errors import EmptyList, InputError, InvalidValue, MalformedRecord, MissingField
from newsflow.lexicon import (
    LexiconEntry,
    Polarity,
    PosTag,
    Strength,
    build_lexicon,
    compare_lexica,
    load_wordlist,
    parse_mpqa_file,
    parse_mpqa_line,
)
from newsflow.sentiment import build_scoring_index

PAPER_LINES = [
    ("type=weaksubj  len=1  word1=abandoned  pos1=adj  stemmed1=n  priorpolarity=negative",
     ("abandoned", Polarity.NEGATIVE, False, PosTag.ADJ, Strength.WEAKSUBJ)),
    ("type=weaksubj  len=1  word1=abandonment  pos1=noun  stemmed1=n  priorpolarity=negative",
     ("abandonment", Polarity.NEGATIVE, False, PosTag.NOUN, Strength.WEAKSUBJ)),
    ("type=weaksubj  len=1  word1=abandon  pos1=verb  stemmed1=y  priorpolarity=negative",
     ("abandon", Polarity.NEGATIVE, True, PosTag.VERB, Strength.WEAKSUBJ)),
    ("type=strongsubj  len=1  word1=abase  pos1=verb  stemmed1=y  priorpolarity=negative",
     ("abase", Polarity.NEGATIVE, True, PosTag.VERB, Strength.STRONGSUBJ)),
    ("type=strongsubj  len=1  word1=abasement  pos1=anypos  stemmed1=y  priorpolarity=negative",
     ("abasement", Polarity.NEGATIVE, True, PosTag.ANYPOS, Strength.STRONGSUBJ)),
    ("type=strongsubj  len=1  word1=abash  pos1=verb  stemmed1=y  priorpolarity=negative",
     ("abash", Polarity.NEGATIVE, True, PosTag.VERB, Strength.STRONGSUBJ)),
]


@pytest.mark.parametrize("line,expected", PAPER_LINES)
def test_parse_example_entries(line, expected):
    entry, _ = parse_mpqa_line(line)
    assert (entry.word, entry.polarity, entry.stemmed, entry.pos_tag, entry.strength) == expected


def test_parse_missing_priorpolarity():
    with pytest.raises(MissingField, match="priorpolarity"):
        parse_mpqa_line("type=weaksubj len=1 word1=x pos1=noun stemmed1=n")


def test_parse_invalid_value():
    with pytest.raises(InvalidValue):
        parse_mpqa_line("type=oddsubj len=1 word1=x pos1=noun stemmed1=n priorpolarity=negative")


def test_parse_unknown_keys_ignored():
    entry, unknown = parse_mpqa_line(
        "type=weaksubj len=1 word1=fine pos1=adj stemmed1=n priorpolarity=positive extra=zz"
    )
    assert entry.word == "fine"
    assert unknown == 1


def test_parse_multiword_entry():
    entry, _ = parse_mpqa_line(
        "type=weaksubj len=2 word1=pay_off pos1=verb stemmed1=n priorpolarity=positive"
    )
    assert entry.word == "pay off"


def test_parse_len_mismatch():
    with pytest.raises(InvalidValue):
        parse_mpqa_line("type=weaksubj len=3 word1=pay_off pos1=verb stemmed1=n priorpolarity=positive")


@pytest.mark.parametrize("bad_line, message", [
    ("type=weak len=1 word1=x pos1=noun stemmed1=n priorpolarity=negative",
     "invalid value 'weak' for key 'type'"),
    ("type=weaksubj len=1 word1=x pos1=noun stemmed1=n", "missing required key 'priorpolarity'"),
    ("type=weaksubj len=1 word1= pos1=noun stemmed1=n priorpolarity=negative", "lexicon entry word is empty"),
    ("type=weaksubj len=1 word1=x pos1=noun stemmed1=n priorpolarity=positive priorpolarity=negative",
     "key 'priorpolarity' is given more than once"),
])
def test_parse_mpqa_file_names_the_file_and_line(tmp_path, bad_line, message):
    path = tmp_path / "mpqa.tff"
    path.write_text("\n".join([PAPER_LINES[0][0], "; a comment", bad_line, PAPER_LINES[1][0]]) + "\n",
                    encoding="utf-8")
    with pytest.raises(MalformedRecord, match=re.escape(f"{path}:3: {message}")):
        parse_mpqa_file(path)


def _random_entry(rng: random.Random) -> LexiconEntry:
    n_tokens = rng.choice([1, 1, 1, 2])
    word = " ".join(
        "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(2, 9)))
        for _ in range(n_tokens)
    )
    return LexiconEntry(
        word=word,
        polarity=rng.choice(list(Polarity)),
        stemmed=rng.choice([True, False]),
        pos_tag=rng.choice([t for t in PosTag if t is not PosTag.UNCONSTRAINED]),
        strength=rng.choice([Strength.STRONGSUBJ, Strength.WEAKSUBJ]),
    )


def test_round_trip_random_entries():
    rng = random.Random(1234)
    for _ in range(1000):
        entry = _random_entry(rng)
        assert parse_mpqa_line(format_mpqa_line(entry)) == (entry, 0)


def test_load_wordlist(tmp_path):
    path = tmp_path / "pos.txt"
    path.write_text("Good\ngreat\n; comment line\nfell\nfell\n", encoding="utf-8")
    entries = load_wordlist(path, Polarity.POSITIVE)
    assert [e.word for e in entries] == ["good", "great", "fell"]
    assert all(e.polarity is Polarity.POSITIVE and not e.stemmed for e in entries)
    assert all(e.pos_tag is PosTag.UNCONSTRAINED for e in entries)


def test_load_wordlist_strips_lowercases_and_keeps_the_first(tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("  Fell \n\n;  Fell\nDEBT\nfell\n\tdebt\n; debt\n", encoding="utf-8")
    assert [e.word for e in load_wordlist(path, Polarity.NEGATIVE)] == ["fell", "debt"]


def test_lexicon_entry_fields():
    entry = LexiconEntry("pay off", Polarity.POSITIVE)
    assert (entry.word, entry.polarity, entry.stemmed, entry.pos_tag, entry.strength) == (
        "pay off", Polarity.POSITIVE, False, PosTag.UNCONSTRAINED, Strength.UNSPECIFIED)
    assert entry.is_scoring


def test_mpqa_entry_without_a_word_is_refused_by_its_loader(tmp_path):
    line = "type=weaksubj len=1 word1= pos1=noun stemmed1=n priorpolarity=negative"
    with pytest.raises(InputError) as err:
        parse_mpqa_line(line)
    assert (err.value.error_code, str(err.value)) == ("INPUT_ERROR", "lexicon entry word is empty")
    path = tmp_path / "mpqa.tff"
    path.write_text(f"{PAPER_LINES[0][0]}\n{line}\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        parse_mpqa_file(path)
    assert (err.value.error_code, str(err.value)) == ("MALFORMED_RECORD", f"{path}:2: lexicon entry word is empty")


def test_load_wordlist_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("; nothing here\n", encoding="utf-8")
    with pytest.raises(EmptyList):
        load_wordlist(path, Polarity.NEGATIVE)


def test_build_lexicon_partition():
    entries = [
        LexiconEntry("good", Polarity.POSITIVE),
        LexiconEntry("bad", Polarity.NEGATIVE),
        LexiconEntry("abase", Polarity.NEGATIVE, stemmed=True, pos_tag=PosTag.VERB,
                     strength=Strength.STRONGSUBJ),
    ]
    index = build_scoring_index([build_lexicon("X", entries)])
    # the scoring entries split into an unstemmed and a stemmed pass, each entry in one
    assert index.unstemmed == {
        "good": ((0, ((("good",), True),)),),
        "bad": ((0, ((("bad",), False),)),),
    }
    assert index.stemmed == {"abase": ((0, ((("abase",), False),)),)}


def test_build_lexicon_neutral_non_scoring():
    entries = [
        LexiconEntry("good", Polarity.POSITIVE),
        LexiconEntry("table", Polarity.NEUTRAL),
        LexiconEntry("mixed", Polarity.BOTH),
    ]
    lex = build_lexicon("X", entries)
    assert {e.word for e in lex.scoring_entries()} == {"good"}
    assert len(lex.entries) == 3  # retained, just not scoring


def test_scoring_index_buckets_longest_first():
    entries = [
        LexiconEntry("pay", Polarity.NEGATIVE),
        LexiconEntry("pay off", Polarity.NEUTRAL),
        LexiconEntry("pay off", Polarity.POSITIVE, pos_tag=PosTag.VERB, strength=Strength.WEAKSUBJ),
        LexiconEntry("pay the bill", Polarity.BOTH),
        LexiconEntry("pay off", Polarity.NEGATIVE, pos_tag=PosTag.NOUN, strength=Strength.WEAKSUBJ),
        LexiconEntry("pay back debt", Polarity.NEGATIVE),
    ]
    lex = build_lexicon("X", entries)
    assert len(lex.entries) == 6
    # only scoring entries, longest first, file order among equal lengths
    assert build_scoring_index([lex]).unstemmed["pay"] == ((0, (
        (("pay", "back", "debt"), False),
        (("pay", "off"), True),
        (("pay", "off"), False),
        (("pay",), False),
    )),)


def test_build_lexicon_duplicates_keep_first():
    entries = [
        LexiconEntry("good", Polarity.POSITIVE),
        LexiconEntry("good", Polarity.NEGATIVE),
    ]
    lex = build_lexicon("X", entries)
    assert lex.duplicate_warnings == 1
    assert [(e.word, e.polarity) for e in lex.entries] == [("good", Polarity.POSITIVE)]


def _lex(name, positive, negative=()):
    entries = [LexiconEntry(w, Polarity.POSITIVE) for w in positive]
    entries += [LexiconEntry(w, Polarity.NEGATIVE) for w in negative]
    return build_lexicon(name, entries)


def test_compare_lexica_example():
    a = _lex("A", ["good"])
    b = _lex("B", ["good", "fine"])
    report = compare_lexica(a, b, {"good": 5, "fine": 4}, min_count=3)
    assert report.unique_to_b[Polarity.POSITIVE] == ("fine",)
    assert report.unique_to_a[Polarity.POSITIVE] == ()
    assert report.shared[Polarity.POSITIVE] == ("good",)


def test_compare_lexica_min_count_filters_everything():
    a = _lex("A", ["good"])
    b = _lex("B", ["good", "fine"])
    report = compare_lexica(a, b, {"good": 5, "fine": 4}, min_count=10)
    assert report.unique_to_b[Polarity.POSITIVE] == ()
    assert report.shared[Polarity.POSITIVE] == ()


def test_compare_lexica_identity():
    a = _lex("A", ["good", "fine"], ["bad"])
    report = compare_lexica(a, a, {"good": 5, "fine": 4, "bad": 2}, min_count=1)
    assert report.unique_to_a[Polarity.POSITIVE] == ()
    assert report.unique_to_b[Polarity.POSITIVE] == ()
    assert report.shared[Polarity.POSITIVE] == ("good", "fine")
    assert report.shared[Polarity.NEGATIVE] == ("bad",)


def test_compare_lexica_swap_symmetry():
    a = _lex("A", ["good", "happy"], ["bad", "sad"])
    b = _lex("B", ["good", "fine"], ["bad"])
    freq = {w: i + 3 for i, w in enumerate(["good", "happy", "fine", "bad", "sad"])}
    ab = compare_lexica(a, b, freq, min_count=1)
    ba = compare_lexica(b, a, freq, min_count=1)
    for polarity in (Polarity.POSITIVE, Polarity.NEGATIVE):
        assert ab.unique_to_a[polarity] == ba.unique_to_b[polarity]
        assert ab.unique_to_b[polarity] == ba.unique_to_a[polarity]
        assert ab.shared[polarity] == ba.shared[polarity]


def test_compare_lexica_frequency_ordering_with_tie_break():
    a = _lex("A", ["alpha", "beta", "gamma"])
    b = build_lexicon("B", [LexiconEntry("zeta", Polarity.NEGATIVE)])
    report = compare_lexica(a, b, {"alpha": 5, "beta": 9, "gamma": 5}, min_count=1)
    assert report.unique_to_a[Polarity.POSITIVE] == ("beta", "alpha", "gamma")
    assert report.unique_to_a[Polarity.POSITIVE][:2] == ("beta", "alpha")
