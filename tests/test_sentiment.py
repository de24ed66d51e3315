import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SentimentRecord, cumulative_record, reference_score_article, reference_tokenize, sentiment_array
from newsflow.errors import InputError, NoActiveRecords
from newsflow._util import SymbolDayArray
from newsflow.lexicon import LexiconEntry, Polarity, PosTag, Strength, build_lexicon
from newsflow.sentiment import (
    DEFAULT_NEGATORS,
    SENTIMENT_FIELDS,
    NegationConfig,
    TokenizedArticle,
    aggregate_daily,
    build_scoring_index,
    monthly_lexicon_correlation,
    score_article,
    sentiment_summary,
    tokenize,
)


def lex(positive=(), negative=(), stemmed_positive=(), stemmed_negative=(), name="L"):
    entries = [LexiconEntry(w, Polarity.POSITIVE) for w in positive]
    entries += [LexiconEntry(w, Polarity.NEGATIVE) for w in negative]
    entries += [
        LexiconEntry(w, Polarity.POSITIVE, stemmed=True, pos_tag=PosTag.VERB,
                     strength=Strength.WEAKSUBJ)
        for w in stemmed_positive
    ]
    entries += [
        LexiconEntry(w, Polarity.NEGATIVE, stemmed=True, pos_tag=PosTag.VERB,
                     strength=Strength.WEAKSUBJ)
        for w in stemmed_negative
    ]
    return build_lexicon(name, entries)


def score_one(article, lexicon, negation=NegationConfig()):
    """The (pos, neg) counts of score_article on the one-lexicon index of `lexicon`."""
    (score,) = score_article(article, build_scoring_index([lexicon]), negation)
    return score


# tokenize -------------------------------------------------------------------

def test_tokenize_two_sentences():
    tok = tokenize("Stocks fell. Debt rose.")
    assert tok.sentences == (("stocks", "fell"), ("debt", "rose"))
    assert tok.word_count == 4


def test_tokenize_contraction_split():
    tok = tokenize("It isn't good.")
    assert tok.sentences == (("it", "is", "n't", "good"),)


def test_tokenize_abbreviation_guard():
    tok = tokenize("Mr. Smith bought shares. Prices rose.")
    assert len(tok.sentences) == 2
    assert tok.sentences[0] == ("mr", "smith", "bought", "shares")


def test_tokenize_numbers_and_punct_excluded():
    tok = tokenize("Revenue grew 3.5% to $12 billion!")
    assert tok.sentences == (("revenue", "grew", "to", "billion"),)
    assert tok.word_count == 4


def test_tokenize_quoted_word():
    tok = tokenize("It was 'good' news.")
    assert "good" in tok.sentences[0]


# pieces of text where the tokenizer's rules meet: abbreviations and initials,
# terminator runs, numbers, quotes and "n't", whitespace, and characters whose
# lowercase is longer ("\u0130"), ASCII (the Kelvin sign) or context-dependent (sigma)
TOKENIZER_PIECES = [
    "Mr.", "U.S.", "e.g.", "Approx.", "J.", "j.", "No.", "Inc.", "etc.", "...", "?!", "!", "?", ".",
    "3.5", "42.", "don't", "'n't", "can''t", "'good'", "WON'T", "x'n't", "n't", "'", "''",
    " ", " ", "\t", "\n", "\u0130", "\u212a", "\u212a.", "\u03a3", "\u03a3.", "\u0307",
    "Stocks", "fell", "abcdefg.", "abcdef.", "a", "1", "-", ",", "\u00e9.",
]


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(TOKENIZER_PIECES), min_size=1, max_size=16).map("".join))
@example("")  # a blank text has no sentences
def test_tokenize_matches_the_reference_tokenizer(text):
    assert tokenize(text).sentences == reference_tokenize(text)


@pytest.mark.parametrize("text, sentences", [
    # "\u0130" lowercases to "i" and a combining dot, so "\u0130nc." is no "inc." and ends a sentence
    ("\u0130nc. rose.", (("i", "nc"), ("rose",))),
    ("\u212a. Rose.", (("k", "rose"),)),  # the Kelvin sign is an initial, and lowercases to "k"
    ("It isn't 'good'. X'n't.", (("it", "is", "n't", "good"), ("x'", "n't"))),
    ("Prices rose... U.S. shares fell?! No. 5 fell.", (("prices", "rose"), ("u", "s", "shares", "fell"),
                                                       ("no", "fell"))),
])
def test_tokenize_rules(text, sentences):
    assert tokenize(text).sentences == sentences


def test_default_negators_are_one_token_each():
    # the config's negator check takes this for granted for the defaults
    assert all(tokenize(negator).sentences == ((negator,),) for negator in DEFAULT_NEGATORS)


# score_article ---------------------------------------------------------------

def test_score_all_negative():
    score = score_one(tokenize("debt fell"), lex(negative=("debt", "fell")))
    assert score == (0, 2)


def test_score_negation_flip():
    score = score_one(tokenize("not good today"), lex(positive=("good",)))
    assert score == (0, 1)


def test_score_no_lexicon_words():
    score = score_one(tokenize("the cat sat"), lex(positive=("good",)))
    assert score == (0, 0)


def test_score_negation_distance_six_no_flip():
    score = score_one(
        tokenize("never was it ever truly that good"), lex(positive=("good",))
    )
    assert score == (1, 0)


def test_score_negation_forward_direction():
    # negator after the sentiment word, within the window
    score = score_one(tokenize("good it is not"), lex(positive=("good",)))
    assert score == (0, 1)


def test_score_backward_only_config():
    config = NegationConfig(bidirectional=False)
    score = score_one(tokenize("good it is not"), lex(positive=("good",)), config)
    assert score == (1, 0)


def test_score_negation_does_not_cross_sentences():
    score = score_one(tokenize("Not now. Good results."), lex(positive=("good",)))
    assert score == (1, 0)


def test_score_double_negator_flips_once():
    score = score_one(tokenize("no never good"), lex(positive=("good",)))
    assert score == (0, 1)


def test_score_nt_token_negates():
    score = score_one(tokenize("It isn't good."), lex(positive=("good",)))
    assert score == (0, 1)


def test_two_pass_no_double_count():
    # unstemmed "improved" claims the token in pass 1; the stemmed entry for
    # the same stem cannot claim it again
    lexicon = lex(positive=("improved",), stemmed_negative=("improv",))
    score = score_one(tokenize("improved results"), lexicon)
    assert score == (1, 0)


def test_stemmed_pass_matches_inflected_form():
    lexicon = lex(stemmed_positive=("improv",))
    score = score_one(tokenize("improving conditions"), lexicon)
    assert score == (1, 0)


def test_lexicon_without_stemmed_entries_never_stems(monkeypatch):
    import newsflow.sentiment

    lexicon = lex(positive=("good", "improving"), negative=("debt",))
    tok = tokenize("Not good. Improving conditions, less debt.")
    expected = score_one(tok, lexicon)

    def no_stemming(word):
        raise AssertionError(f"stemmed {word!r} for a lexicon without stemmed entries")

    monkeypatch.setattr(newsflow.sentiment, "porter_stem", no_stemming)
    assert score_one(tok, lexicon) == expected
    assert expected == (1, 2)


def test_multiword_entry_contiguous():
    entries = [LexiconEntry("pay off", Polarity.POSITIVE)]
    lexicon = build_lexicon("MW", entries)
    assert score_one(tokenize("the deal will pay off nicely"), lexicon) == (1, 0)
    assert score_one(tokenize("pay the man off"), lexicon) == (0, 0)


def test_longer_entry_beats_shorter_entry_at_the_same_position():
    lexicon = build_lexicon("MW", [
        LexiconEntry("pay", Polarity.NEGATIVE),  # first in file order, but shorter
        LexiconEntry("pay off", Polarity.POSITIVE),
    ])
    score = score_one(tokenize("the deal will pay off"), lexicon)
    assert score == (1, 0)
    # where the longer entry does not match, the shorter one still does
    score = score_one(tokenize("they pay late"), lexicon)
    assert score == (0, 1)


@pytest.mark.parametrize("first", [Polarity.POSITIVE, Polarity.NEGATIVE])
def test_equal_length_entries_first_in_file_order_wins(first):
    second = Polarity.NEGATIVE if first is Polarity.POSITIVE else Polarity.POSITIVE
    lexicon = build_lexicon("EQ", [
        LexiconEntry("pay off", first, pos_tag=PosTag.VERB, strength=Strength.WEAKSUBJ),
        LexiconEntry("pay off", second, pos_tag=PosTag.NOUN, strength=Strength.WEAKSUBJ),
    ])
    assert len(lexicon.entries) == 2  # different pos_tag, so both are kept
    score = score_one(tokenize("it will pay off"), lexicon)
    expected = (1, 0) if first is Polarity.POSITIVE else (0, 1)
    assert score == expected


@pytest.mark.parametrize("polarity", [Polarity.NEUTRAL, Polarity.BOTH])
def test_non_scoring_multiword_entry_never_claims_tokens(polarity):
    lexicon = build_lexicon("NS", [
        LexiconEntry("strong growth", polarity),
        LexiconEntry("strong", Polarity.POSITIVE),
        LexiconEntry("growth", Polarity.POSITIVE),
        LexiconEntry("weak growth", polarity),
    ])
    score = score_one(tokenize("strong growth. weak growth"), lexicon)
    assert score == (3, 0)


def test_non_scoring_stemmed_entries_change_no_count():
    text = "Not improving. Improved results, good debt and gains."
    plain = lex(positive=("good", "gains"), negative=("debt",))
    with_stemmed = build_lexicon("L", list(plain.entries) + [
        LexiconEntry("improv", Polarity.NEUTRAL, stemmed=True, pos_tag=PosTag.VERB,
                     strength=Strength.WEAKSUBJ),
        LexiconEntry("result", Polarity.BOTH, stemmed=True, pos_tag=PosTag.NOUN,
                     strength=Strength.WEAKSUBJ),
    ])
    expected = score_one(tokenize(text), plain)
    assert score_one(tokenize(text), with_stemmed) == expected
    assert expected == (2, 1)


def test_pos_tags_do_not_restrict_matching():
    lexicon = build_lexicon("POS", [
        LexiconEntry(word, polarity, pos_tag=tag, strength=Strength.WEAKSUBJ)
        for word, polarity, tag in [
            ("gain", Polarity.POSITIVE, PosTag.VERB),
            ("debt", Polarity.NEGATIVE, PosTag.NOUN),
            ("badly", Polarity.NEGATIVE, PosTag.ADVERB),
            ("winner", Polarity.POSITIVE, PosTag.ANYPOS),
        ]
    ])
    score = score_one(tokenize("gain debt badly winner"), lexicon)
    assert score == (2, 2)


# one walk for every lexicon --------------------------------------------------

# tokens shared by the lexica below: first tokens of several entries, words
# that stem onto stemmed entries, and the default negators; the inflected
# forms reach every Porter step (1a-1c, 2, 3, 4, 5a, 5b), each with its stem
WALK_VOCABULARY = [
    "good", "bad", "pay", "cut", "off", "late", "strong", "growth", "debt", "rose", "fell",
    "improving", "improved", "improv", "declining", "declin", "warning", "warn",
    "rallies", "rally", "ralli", "agreed", "agre", "hopefulness", "hope", "adjustment", "adjust",
    "relational", "relat", "controlled", "control",
    "the", "market", "not", "never", "no", "n't",
]
WALK_ENTRY = st.tuples(
    st.lists(st.sampled_from(WALK_VOCABULARY), min_size=1, max_size=3),
    st.sampled_from(list(Polarity)),
    st.booleans(),  # stemmed
)
WALK_SENTENCE = st.lists(st.sampled_from(WALK_VOCABULARY), min_size=1, max_size=16).map(tuple)


# every inflected form of WALK_VOCABULARY against a stemmed entry of its stem,
# which the drawn examples reach only now and then
INFLECTED_WALK_EXAMPLE = {
    "lexica": [[([stem], Polarity.POSITIVE, True) for stem in ("ralli", "agre", "hope", "adjust", "relat", "control")]],
    "sentences": [("rallies", "rally", "agreed", "not", "hopefulness", "adjustment", "relational", "controlled")],
    "window": 2,
    "bidirectional": True,
}


@settings(max_examples=300, derandomize=True, deadline=None)
@example(**INFLECTED_WALK_EXAMPLE)
@given(
    lexica=st.lists(st.lists(WALK_ENTRY, min_size=1, max_size=12), min_size=1, max_size=4),
    sentences=st.lists(WALK_SENTENCE, min_size=1, max_size=4),
    window=st.integers(0, 6),
    bidirectional=st.booleans(),
)
def test_one_walk_counts_as_one_walk_per_lexicon(lexica, sentences, window, bidirectional):
    lexica = [
        build_lexicon(f"L{k}", [
            LexiconEntry(" ".join(tokens), polarity, stemmed=stemmed) for tokens, polarity, stemmed in entries
        ])
        for k, entries in enumerate(lexica)
    ]
    article = TokenizedArticle(tuple(sentences))
    negation = NegationConfig(window=window, bidirectional=bidirectional)
    index = build_scoring_index(lexica)
    assert index.names == tuple(lexicon.name for lexicon in lexica)
    assert list(score_article(article, index, negation)) == [
        reference_score_article(article, lexicon, negation) for lexicon in lexica
    ]


def test_one_walk_keeps_each_lexicon_s_claims():
    # A claims "pay off" and B claims "pay"; B's "off" is still its own to claim
    a = build_lexicon("A", [LexiconEntry("pay off", Polarity.POSITIVE)])
    b = build_lexicon("B", [LexiconEntry("pay", Polarity.NEGATIVE), LexiconEntry("off", Polarity.NEGATIVE),
                            LexiconEntry("improv", Polarity.POSITIVE, stemmed=True)])
    # C's unstemmed "off" is claimed in the first pass, so its stemmed "cut off" cannot match
    c = build_lexicon("C", [LexiconEntry("off", Polarity.NEGATIVE), LexiconEntry("cut off", Polarity.POSITIVE, stemmed=True)])
    scores = score_article(tokenize("They pay off debt. They cut off. Improving."), build_scoring_index([a, b, c]))
    assert scores == ((1, 0), (1, 3), (0, 2))


def test_score_deterministic():
    lexicon = lex(positive=("good", "great"), negative=("bad",))
    tok = tokenize("good bad great. not good.")
    first = score_one(tok, lexicon)
    second = score_one(tok, lexicon)
    assert first == second


def test_score_proportions_use_word_count():
    tok = tokenize("good words and 42 numbers %")
    # word tokens: good, words, and, numbers -> 4
    assert tok.word_count == 4
    pos_count, neg_count = score_one(tok, lex(positive=("good",)))
    assert (pos_count / tok.word_count, neg_count / tok.word_count) == (0.25, 0.0)


# aggregation ----------------------------------------------------------------

def _score(pos_count, neg_count, word_count):
    """One article's (pos, neg) proportions."""
    return pos_count / word_count, neg_count / word_count


def _day_record(scores, symbol, day, lexicon_name="L"):
    """aggregate_daily of one symbol-day's mentions, read back as a SentimentRecord."""
    pos, neg = [p for p, _ in scores], [q for _, q in scores]
    sentiment = aggregate_daily([day] * len(scores), pos, neg, [symbol], day + 1)
    active, pos, neg, n_articles = sentiment.values[:, 0, day].tolist()
    return SentimentRecord(symbol, day, lexicon_name, int(active), pos, neg, int(n_articles))


def test_aggregate_daily_mean():
    rec = _day_record([_score(2, 0, 100), _score(4, 0, 100)], "AAPL", 3)
    assert rec.active == 1
    assert rec.pos == pytest.approx(0.03)
    assert rec.n_articles == 2


def test_aggregate_daily_empty():
    rec = _day_record([], "AAPL", 3)
    assert (rec.active, rec.pos, rec.neg, rec.n_articles) == (0, 0.0, 0.0, 0)


def test_aggregate_daily_singleton():
    rec = _day_record([_score(3, 1, 50)], "AAPL", 3)
    assert rec.pos == pytest.approx(0.06)
    assert rec.neg == pytest.approx(0.02)


def test_aggregate_daily_equals_the_mean_in_mention_order():
    rng = np.random.default_rng(9)
    symbols, n_days = [f"S{i}" for i in range(8)], 150  # 1,200 cells
    cells, pos, neg = [], [], []
    for cell in range(len(symbols) * n_days):
        for _ in range(int(rng.integers(0, 21))):  # a cell without mentions is all zeros
            words = int(rng.integers(1, 400))
            pos_count = int(rng.integers(0, words + 1))
            cells.append(cell)
            pos.append(pos_count / words)
            neg.append(int(rng.integers(0, words - pos_count + 1)) / words)
    order = rng.permutation(len(cells)).tolist()
    cells, pos, neg = ([column[k] for k in order] for column in (cells, pos, neg))

    sentiment = aggregate_daily(np.array(cells), np.array(pos), np.array(neg), symbols, n_days)
    assert sentiment.fields == SENTIMENT_FIELDS and sentiment.symbols == tuple(symbols)
    assert sentiment.values.shape == (4, len(symbols), n_days)
    mentions_of = {}
    for k, cell in enumerate(cells):
        mentions_of.setdefault(cell, []).append(k)
    active, pos_mean, neg_mean, n_articles = sentiment.values.reshape(4, -1).tolist()
    for cell in range(len(symbols) * n_days):
        mentions = mentions_of.get(cell, [])
        n = len(mentions)
        assert (active[cell], n_articles[cell]) == (float(n > 0), n)
        assert pos_mean[cell] == (sum(pos[k] for k in mentions) / n if n else 0.0)
        assert neg_mean[cell] == (sum(neg[k] for k in mentions) / n if n else 0.0)


def test_cumulative_h1_equals_daily():
    day_records = {
        4: _day_record([_score(1, 0, 10), _score(3, 0, 10)], "A", 4),
    }
    assert cumulative_record(day_records, 4, 1) == day_records[4]


def test_cumulative_pooled_mean():
    day_records = {
        0: _day_record([], "A", 0),
        1: _day_record([_score(1, 0, 100), _score(3, 0, 100)], "A", 1),
    }
    rec = cumulative_record(day_records, 0, 2)
    assert rec.active == 1
    assert rec.pos == pytest.approx(0.02)
    assert rec.n_articles == 2


def test_cumulative_pooling_weights_by_article_count():
    day_records = {
        0: _day_record([_score(1, 0, 10)], "A", 0),                   # pos 0.1, 1 article
        1: _day_record([_score(4, 0, 10), _score(2, 0, 10)], "A", 1),  # pos 0.3, 2 articles
    }
    rec = cumulative_record(day_records, 0, 2)
    assert rec.pos == pytest.approx((0.1 + 0.4 + 0.2) / 3)


def test_cumulative_empty_window():
    day_records = {d: _day_record([], "A", d) for d in range(3)}
    rec = cumulative_record(day_records, 0, 3)
    assert (rec.active, rec.pos, rec.neg) == (0, 0.0, 0.0)


def test_cumulative_out_of_range():
    day_records = {0: _day_record([], "A", 0)}
    with pytest.raises(InputError, match="no record for day 1"):
        cumulative_record(day_records, 0, 2)


# summary --------------------------------------------------------------------

def _rec(symbol, day, pos, neg, active=1, name="L"):
    return SentimentRecord(symbol, day, name, active, pos, neg, n_articles=active)


def test_summary_mean_max():
    summary = sentiment_summary(sentiment_array([_rec("A", 0, 0.02, 0.01), _rec("A", 1, 0.04, 0.01)]))
    assert summary.pos.mean == pytest.approx(0.03)
    assert summary.pos.maximum == pytest.approx(0.04)
    assert summary.n_active == 2


def test_summary_polarity_share():
    records = [_rec("A", d, 0.05, 0.01) for d in range(4)]
    summary = sentiment_summary(sentiment_array(records))
    assert summary.share_pos_dominant == 1.0
    assert summary.share_neg_dominant == 0.0


def test_summary_excludes_inactive():
    records = [_rec("A", 0, 0.02, 0.01), _rec("A", 1, 0.0, 0.0, active=0)]
    summary = sentiment_summary(sentiment_array(records))
    assert summary.n_active == 1


def test_summary_quartiles_linear_interpolation():
    values = [0.01, 0.02, 0.03, 0.05]
    records = [_rec("A", d, v, 0.0) for d, v in enumerate(values)]
    summary = sentiment_summary(sentiment_array(records))
    assert summary.pos.q1 == pytest.approx(np.quantile(values, 0.25))
    assert summary.pos.q2 == pytest.approx(np.quantile(values, 0.5))
    assert summary.pos.q3 == pytest.approx(np.quantile(values, 0.75))


@pytest.mark.parametrize("n_active", [1, 37])
def test_summary_matches_numpy_on_random_planes(n_active):
    rng = np.random.default_rng(n_active)
    active = np.zeros(3 * 20)
    active[rng.choice(active.size, n_active, replace=False)] = 1
    active = active.reshape(3, 20)
    pos, neg = rng.uniform(0, 0.1, (2, 3, 20)) * active
    values = np.stack([active, pos, neg, active])
    summary = sentiment_summary(SymbolDayArray(SENTIMENT_FIELDS, ("A", "B", "C"), values))
    assert summary.n_active == n_active
    on = active == 1
    for stats, plane in ((summary.pos, pos[on]), (summary.neg, neg[on])):
        assert stats.mean == pytest.approx(np.mean(plane), rel=1e-12)
        assert stats.sd == (pytest.approx(np.std(plane, ddof=1), rel=1e-12) if n_active > 1 else 0.0)
        assert stats.maximum == np.max(plane)
        assert (stats.q1, stats.q2, stats.q3) == tuple(np.quantile(plane, [0.25, 0.5, 0.75]))
    assert summary.share_pos_dominant == np.mean(pos[on] > neg[on])
    assert summary.share_neg_dominant == np.mean(neg[on] > pos[on])


def test_summary_no_active_records():
    with pytest.raises(NoActiveRecords):
        sentiment_summary(sentiment_array([_rec("A", 0, 0.0, 0.0, active=0)]))


# monthly correlation ----------------------------------------------------------

def _arrays(records_by_lexicon):
    return {name: sentiment_array(records) for name, records in records_by_lexicon.items()}


def _months(n_days):
    return [(2020, 1 + d // 21) for d in range(n_days)]


def test_monthly_correlation_identical_streams():
    rng = np.random.default_rng(0)
    records = [
        _rec("A", d, float(rng.uniform(0, 0.1)), float(rng.uniform(0, 0.1)))
        for d in range(42)
    ]
    both = {"X": records, "Y": [SentimentRecord(r.symbol, r.day, "Y", r.active, r.pos, r.neg, r.n_articles) for r in records]}
    out = monthly_lexicon_correlation(_arrays(both), _months(42))
    for pos_corr, neg_corr in out[("X", "Y")].values():
        assert pos_corr == pytest.approx(1.0)
        assert neg_corr == pytest.approx(1.0)


def test_monthly_correlation_affine_anticorrelation():
    rng = np.random.default_rng(1)
    records_x = [
        _rec("A", d, float(rng.uniform(0, 0.1)), float(rng.uniform(0, 0.1)))
        for d in range(21)
    ]
    records_y = [
        SentimentRecord(r.symbol, r.day, "Y", 1, r.pos, 0.2 - r.neg, r.n_articles)
        for r in records_x
    ]
    out = monthly_lexicon_correlation(_arrays({"X": records_x, "Y": records_y}), _months(21))
    (_, neg_corr), = out[("X", "Y")].values()
    assert neg_corr == pytest.approx(-1.0)


def test_monthly_correlation_matches_pearson_oracle():
    rng = np.random.default_rng(2)
    base = rng.normal(0.05, 0.01, 40)
    noisy = 0.7 * base + rng.normal(0, 0.005, 40) + 0.02
    records_x = [_rec("A", d, float(base[d]), float(base[d])) for d in range(40)]
    records_y = [_rec("A", d, float(noisy[d]), float(noisy[d]), name="Y") for d in range(40)]
    out = monthly_lexicon_correlation(_arrays({"X": records_x, "Y": records_y}), [(2020, 1)] * 40)
    expected = float(np.corrcoef(base, noisy)[0, 1])
    pos_corr, neg_corr = out[("X", "Y")][(2020, 1)]
    assert pos_corr == pytest.approx(expected, abs=1e-12)
    assert neg_corr == pytest.approx(expected, abs=1e-12)


def _loop_pearson(xs, ys):
    """Pearson r by left-to-right sums; None for fewer than two pairs or a side that takes one value."""
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        return None
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / np.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))


def test_monthly_correlation_equals_a_loop_over_each_month():
    # three symbols interleave their days in (symbol, day) order; months have 21 days
    rng = np.random.default_rng(3)
    planes = {}
    for name in ("X", "Y"):
        active = (rng.random((3, 70)) < 0.5).astype(float)
        pos, neg = rng.uniform(0, 0.1, (2, 3, 70)).round(2) * active
        planes[name] = SymbolDayArray(SENTIMENT_FIELDS, ("A", "B", "C"), np.stack([active, pos, neg, active]))
    out = monthly_lexicon_correlation(planes, _months(70))[("X", "Y")]
    both = (planes["X"].plane("active") == 1) & (planes["Y"].plane("active") == 1)
    expected = {}
    for symbol, day in zip(*both.nonzero()):
        expected.setdefault(_months(70)[day], []).append((symbol, day))
    assert sorted(out) == sorted(expected)
    for month, cells in expected.items():
        assert out[month] == tuple(
            _loop_pearson([float(planes["X"].plane(side)[c]) for c in cells],
                          [float(planes["Y"].plane(side)[c]) for c in cells])
            for side in ("pos", "neg")
        )


@pytest.mark.parametrize("x, y, expected", [
    # one paired day
    pytest.param([(0.02, 0.01)], [(0.03, 0.02)], (None, None), id="one_pair"),
    # X's Pos is 0.1 on all three paired days: its mean rounds to 0.10000000000000002
    pytest.param([(0.1, 0.01), (0.1, 0.02), (0.1, 0.04)], [(0.02, 0.03), (0.05, 0.05), (0.03, 0.09)],
                 (None, 1.0), id="constant_pos"),
])
def test_monthly_correlation_small_months_missing(x, y, expected):
    records_x = [_rec("A", d, pos, neg) for d, (pos, neg) in enumerate(x)]
    records_y = [_rec("A", d, pos, neg, name="Y") for d, (pos, neg) in enumerate(y)]
    out = monthly_lexicon_correlation(_arrays({"X": records_x, "Y": records_y}), [(2020, 1)] * len(x))
    assert out[("X", "Y")][(2020, 1)] == pytest.approx(expected)
