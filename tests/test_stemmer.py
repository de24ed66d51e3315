import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_porter_stem
from newsflow.stemmer import _STEP2_RULES, _STEP3_RULES, _STEP4_SUFFIXES, porter_stem

# Reference vocabulary assembled from the published rule examples, each traced
# through the full step 1a-5b pipeline by hand.
VOCABULARY = [
    # step 1a
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("caress", "caress"), ("cats", "cat"),
    # step 1b and its cleanup
    ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
    ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
    ("conflated", "conflat"), ("troubled", "troubl"), ("sized", "size"),
    ("hopping", "hop"), ("tanned", "tan"), ("falling", "fall"),
    ("hissing", "hiss"), ("fizzed", "fizz"), ("failing", "fail"),
    ("filing", "file"),
    # step 1c
    ("happy", "happi"), ("sky", "sky"),
    # step 2 (follow-on steps may strip further)
    ("relational", "relat"), ("conditional", "condit"), ("rational", "ration"),
    ("valenci", "valenc"), ("hesitanci", "hesit"), ("digitizer", "digit"),
    ("conformabli", "conform"), ("radicalli", "radic"), ("differentli", "differ"),
    ("vileli", "vile"), ("analogousli", "analog"), ("vietnamization", "vietnam"),
    ("predication", "predic"), ("operator", "oper"), ("feudalism", "feudal"),
    ("decisiveness", "decis"), ("hopefulness", "hope"), ("callousness", "callous"),
    ("formaliti", "formal"), ("sensitiviti", "sensit"), ("sensibiliti", "sensibl"),
    # step 3
    ("triplicate", "triplic"), ("formative", "form"), ("formalize", "formal"),
    ("electriciti", "electr"), ("electrical", "electr"), ("hopeful", "hope"),
    ("goodness", "good"),
    # step 4
    ("revival", "reviv"), ("allowance", "allow"), ("inference", "infer"),
    ("airliner", "airlin"), ("gyroscopic", "gyroscop"), ("adjustable", "adjust"),
    ("defensible", "defens"), ("irritant", "irrit"), ("replacement", "replac"),
    ("adjustment", "adjust"), ("dependent", "depend"), ("adoption", "adopt"),
    ("homologou", "homolog"), ("communism", "commun"), ("activate", "activ"),
    ("angulariti", "angular"), ("effective", "effect"), ("bowdlerize", "bowdler"),
    # step 5
    ("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
    ("controll", "control"), ("roll", "roll"),
    # full-pipeline words
    ("abandonment", "abandon"), ("oscillators", "oscil"),
    ("generalizations", "gener"), ("stemming", "stem"), ("stocks", "stock"),
    ("falling", "fall"), ("improving", "improv"), ("improved", "improv"),
    ("warning", "warn"), ("warnings", "warn"), ("investors", "investor"),
]


@pytest.mark.parametrize("word,stem", VOCABULARY)
def test_reference_vocabulary(word, stem):
    assert porter_stem(word) == stem


def test_short_words_unchanged():
    for word in ["a", "i", "is", "be", "ax"]:
        assert porter_stem(word) == word


def test_no_later_departures():
    # the 1980 rules have no LOGI->LOG rule; the later C version stems
    # "apologies" to "apolog" instead
    assert porter_stem("apologies") == "apologi"


def test_idempotent_on_own_output_sample():
    # stems of this vocabulary are stable under a second pass more often than
    # not, but that is not a Porter guarantee; just ensure no crashes and
    # lowercase output
    for word, _ in VOCABULARY:
        stem = porter_stem(word)
        assert stem == stem.lower()
        assert stem


# Agreement with the rule-scan stemmer of tests/conftest.py -------------------

# every suffix a step tests for, and some that chain through several steps
SUFFIXES = sorted({
    "", "s", "es", "ies", "sses", "ss", "ed", "eed", "ing", "y", "e", "l", "ll",
    "ate", "ated", "ating", "izations", "fulness", "ousness", "alities", "ically",
    *(suffix for suffix, _ in _STEP2_RULES + _STEP3_RULES), *_STEP4_SUFFIXES,
})


def generated_vocabulary(n_roots=400, seed=1980):
    """Every root x suffix form of n_roots roots drawn from onsets, vowel runs and codas."""
    rng = random.Random(seed)
    onsets = ["", "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w",
              "y", "z", "bl", "br", "ch", "cr", "fl", "gr", "pl", "pr", "sh", "st", "str", "th", "tr", "sy"]
    vowels = ["a", "e", "i", "o", "u", "y", "ai", "ea", "ee", "io", "oo", "ou", "ay", "oy", "ey", "ya", "yo"]
    codas = ["", "b", "c", "d", "g", "l", "ll", "m", "n", "nd", "ng", "p", "r", "rt", "s", "ss", "st", "t",
             "tt", "v", "w", "x", "y", "z", "zz", "ct", "nt"]
    roots = set()
    while len(roots) < n_roots:
        syllables = rng.randint(1, 3)
        roots.add("".join(rng.choice(onsets) + rng.choice(vowels) + rng.choice(codas) for _ in range(syllables)))
    return [root + suffix for root in sorted(roots) for suffix in SUFFIXES]


def test_matches_rule_scan_stemmer_on_generated_vocabulary():
    vocabulary = generated_vocabulary()
    assert len(vocabulary) >= 20_000
    mismatches = [(word, porter_stem(word), reference_porter_stem(word))
                  for word in vocabulary if porter_stem(word) != reference_porter_stem(word)]
    assert mismatches == []


# letters weighted toward y and vowel runs, where the class of a y turns on what precedes it
PIECES = list(string.ascii_lowercase) + ["y"] * 8 + list("aeiou") * 2 + [
    "ee", "oo", "ou", "ai", "ay", "ey", "oy", "yy", "ya", "ye", "yi", "yo", "yu", "ll", "ss",
]


@settings(max_examples=800, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=10).map("".join))
def test_matches_rule_scan_stemmer_on_y_heavy_strings(word):
    assert porter_stem(word) == reference_porter_stem(word)


@pytest.mark.parametrize("word", ["y", "yy", "yyy", "yyyy", "ayyay", "syzygy", "yaying", "boyishly", "héllo", "café's"])
def test_matches_rule_scan_stemmer_on_y_runs_and_other_letters(word):
    assert porter_stem(word) == reference_porter_stem(word)
