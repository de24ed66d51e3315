"""Porter suffix-stripping stemmer (the original 1980 rule set, steps 1a-5b).

Within a step the rule with the longest matching suffix is selected; its
condition is then tested on the stem, and if the condition fails no other
rule in that step fires.  A step runs only on a word that ends in one of its
suffixes, since no rule of it can fire on another.  Later extensions to the
algorithm (departures in the widely circulated C version) are deliberately
not included.

The conditions read a consonant/vowel mask of the word: one character per
letter, "v" for a vowel and "c" for a consonant, where y is a vowel after a
consonant and a consonant otherwise.
"""

from __future__ import annotations

import functools
import re

# every ASCII character but a vowel and y is a consonant; y is settled by position
_CV_TABLE = str.maketrans({chr(c): "c" for c in range(128)} | dict.fromkeys("aeiou", "v") | {"y": "y"})
_OTHER = re.compile("[^cvy]")


def _mask(word: str) -> str:
    mask = word.translate(_CV_TABLE)
    if not mask.isascii():  # a non-ASCII letter is a consonant too
        mask = _OTHER.sub("c", mask)
    if "y" not in mask:
        return mask
    classes = list(mask)
    for i, cls in enumerate(classes):
        if cls == "y":
            classes[i] = "v" if i and classes[i - 1] == "c" else "c"
    return "".join(classes)


def _measure(stem: str) -> int:
    """Number of VC sequences: stem has the form [C](VC)^m[V]."""
    return _mask(stem).count("vc")


def _has_vowel(stem: str) -> bool:
    return "v" in _mask(stem)


def _ends_double_cons(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _mask(word)[-1] == "c"


def _ends_cvc(word: str) -> bool:
    # *o condition: ends consonant-vowel-consonant, final consonant not w/x/y
    return _mask(word).endswith("cvc") and word[-1] not in "wxy"


# Each step below is called only on a word that ends in one of its suffixes
# (see porter_stem), so it does not test for that again.

def _rule_for(word, table):
    """The rule with the longest suffix that ends word."""
    for rule in table[word[-1]]:
        if word.endswith(rule[0]):
            return rule


def _replace_m(word, table, min_measure):
    """Apply the longest-suffix rule if its stem's measure exceeds min_measure."""
    suffix, replacement = _rule_for(word, table)
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + replacement
    return word


_STEP2_RULES = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _by_last_letter(rules):
    """(suffix, replacement) rules keyed by the suffix's last letter, longest first."""
    table: dict[str, list[tuple[str, str]]] = {}
    for rule in sorted(rules, key=lambda rule: -len(rule[0])):
        table.setdefault(rule[0][-1], []).append(rule)
    return {letter: tuple(bucket) for letter, bucket in table.items()}


_STEP2 = _by_last_letter(_STEP2_RULES)
_STEP3 = _by_last_letter(_STEP3_RULES)
_STEP4 = _by_last_letter((suffix, "") for suffix in _STEP4_SUFFIXES)

# every suffix a step tests for: a word that ends in none of them passes the step unchanged
_STEP2_ENDS = tuple(suffix for suffix, _ in _STEP2_RULES)
_STEP3_ENDS = tuple(suffix for suffix, _ in _STEP3_RULES)


def _step1a(word: str) -> str:
    if word.endswith(("sses", "ies")):
        return word[:-2]
    if word.endswith("ss"):
        return word
    return word[:-1]


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    fired = False
    if word.endswith("ed") and _has_vowel(word[:-2]):
        word = word[:-2]
        fired = True
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        word = word[:-3]
        fired = True
    if not fired:
        return word
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_cons(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    return word[:-1] + "i" if _has_vowel(word[:-1]) else word


def _step4(word: str) -> str:
    suffix = _rule_for(word, _STEP4)[0]
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) <= 1:
        return word
    if suffix == "ion" and not stem.endswith(("s", "t")):
        return word
    return stem


def _step5a(word: str) -> str:
    stem = word[:-1]
    m = _measure(stem)
    if m > 1:
        return stem
    if m == 1 and not _ends_cvc(stem):
        return stem
    return word


def _step5b(word: str) -> str:
    # m > 1 and *d and *L: a double l is a double consonant
    return word[:-1] if _measure(word) > 1 else word


@functools.cache
def porter_stem(word: str) -> str:
    """Stem a lowercase word; strings of length <= 2 are returned unchanged.

    Memoized: the stem depends on the word alone, and the memo holds one
    entry per distinct word seen, so it is bounded by the corpus vocabulary.
    """
    if len(word) <= 2:
        return word
    # each step runs only on a word that ends in one of its suffixes; no other can fire it
    if word.endswith("s"):
        word = _step1a(word)
    if word.endswith(("ed", "ing")):
        word = _step1b(word)
    if word.endswith("y"):
        word = _step1c(word)
    if word.endswith(_STEP2_ENDS):
        word = _replace_m(word, _STEP2, 0)
    if word.endswith(_STEP3_ENDS):
        word = _replace_m(word, _STEP3, 0)
    if word.endswith(_STEP4_SUFFIXES):
        word = _step4(word)
    if word.endswith("e"):
        word = _step5a(word)
    if word.endswith("ll"):
        word = _step5b(word)
    return word
